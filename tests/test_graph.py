"""Task graph construction, assignability, and lifecycle transitions."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taskweave import (
    CycleError,
    DuplicateIdError,
    InvalidTransitionError,
    TaskStatus,
    UnknownDependencyError,
    build_graph,
)
from taskweave.graph import TaskGraph, find_cycle
from taskweave.scenario import scenario_from_dict

from conftest import make_task


def brute_force_assignable(graph) -> set[str]:
    """Independent oracle: assignable = right status and all deps committed."""
    out = set()
    for task in graph.tasks.values():
        if graph.status(task.id).value not in ("ready", "needs_revision"):
            continue
        if all(graph.status(d).value == "committed" for d in task.depends_on):
            out.add(task.id)
    return out


def test_build_empty_graph():
    graph = build_graph([])
    assert graph.tasks == {}
    assert graph.ready_tasks() == set()


def test_build_marks_sources_ready():
    graph = build_graph([make_task("a"), make_task("b", deps=["a"])])
    assert graph.status("a") is TaskStatus.READY
    assert graph.ready_tasks() == {"a"}


def test_build_rejects_duplicate_ids():
    with pytest.raises(DuplicateIdError):
        build_graph([make_task("a"), make_task("a")])


def test_build_rejects_unknown_dependency():
    with pytest.raises(UnknownDependencyError):
        build_graph([make_task("a", deps=["ghost"])])


def test_unknown_dependency_names_the_smallest_id_under_every_hash_seed():
    # a frozenset iterates in hash order, which PYTHONHASHSEED changes per process
    code = (
        "from taskweave import TaskSpec, UnknownDependencyError, build_graph\n"
        "try:\n"
        "    build_graph([TaskSpec('a', depends_on=frozenset(['x', 'y', 'z', 'w']))])\n"
        "except UnknownDependencyError as exc:\n"
        "    print(exc)\n"
    )
    for hash_seed in ("1", "2", "3", "4"):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
        )
        assert proc.stdout == "task 'a' depends on unknown id 'w'\n", proc.stderr


def test_build_rejects_two_cycle_and_cites_it():
    with pytest.raises(CycleError) as exc:
        build_graph([make_task("a", deps=["b"]), make_task("b", deps=["a"])])
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    assert set(cycle) == {"a", "b"}


def test_ready_tasks_linear_chain():
    graph = build_graph(
        [make_task("a"), make_task("b", deps=["a"]), make_task("c", deps=["b"])]
    )
    graph.mark_committed("a")
    assert graph.ready_tasks() == {"b"}


def test_ready_tasks_diamond_matches_brute_force():
    graph = build_graph(
        [
            make_task("a"),
            make_task("b", deps=["a"]),
            make_task("c", deps=["a"]),
            make_task("d", deps=["b", "c"]),
        ]
    )
    graph.mark_committed("a")
    assert graph.ready_tasks() == {"b", "c"}
    assert graph.ready_tasks() == brute_force_assignable(graph)


def test_ready_tasks_empty_when_all_committed():
    graph = build_graph([make_task("a"), make_task("b", deps=["a"])])
    for task_id in ("a", "b"):
        graph.mark_committed(task_id)
    assert graph.ready_tasks() == set()
    assert graph.all_committed()


def test_mark_committed_requires_committed_dependencies():
    graph = build_graph([make_task("a"), make_task("b", deps=["a"])])
    with pytest.raises(InvalidTransitionError, match="uncommitted dependencies"):
        graph.mark_committed("b")
    for task_id in ("a", "b"):
        graph.mark_committed(task_id)
    graph.mark_needs_revision("b")
    graph.mark_needs_revision("a")
    with pytest.raises(InvalidTransitionError, match="uncommitted dependencies"):
        graph.mark_committed("b")


def test_mark_committed_rejects_a_committed_or_unknown_task():
    graph = build_graph([make_task("a")])
    graph.mark_committed("a")
    with pytest.raises(InvalidTransitionError, match="task 'a' is committed, expected ready or needs_revision"):
        graph.mark_committed("a")
    with pytest.raises(InvalidTransitionError, match="unknown task 'ghost'"):
        graph.mark_committed("ghost")


def test_mark_needs_revision_flags_committed_dependent():
    graph = build_graph([make_task("a"), make_task("b", deps=["a"])])
    for task_id in ("a", "b"):
        graph.mark_committed(task_id)
    stale = graph.mark_needs_revision("a")
    assert stale == {"b"}
    assert graph.status("a") is TaskStatus.NEEDS_REVISION
    assert graph.status("b") is TaskStatus.COMMITTED


def test_mark_needs_revision_ignores_uncommitted_dependent():
    graph = build_graph([make_task("a"), make_task("b", deps=["a"])])
    graph.mark_committed("a")
    assert graph.mark_needs_revision("a") == set()


def test_mark_needs_revision_on_leaf_returns_empty():
    graph = build_graph([make_task("a")])
    graph.mark_committed("a")
    assert graph.mark_needs_revision("a") == set()


def test_mark_needs_revision_requires_committed():
    graph = build_graph([make_task("a")])
    with pytest.raises(InvalidTransitionError):
        graph.mark_needs_revision("a")


def test_needs_revision_task_with_reopened_dependency_not_assignable():
    graph = build_graph([make_task("a"), make_task("b", deps=["a"])])
    for task_id in ("a", "b"):
        graph.mark_committed(task_id)
    graph.mark_needs_revision("b")
    graph.mark_needs_revision("a")
    # b cannot be redone until its revised dependency re-commits
    assert graph.ready_tasks() == {"a"}


def random_dag(rng: random.Random, n_nodes: int):
    """Random DAG: edges only from lower to higher indices, so acyclic by construction."""
    specs = []
    for i in range(n_nodes):
        deps = [f"n{j}" for j in range(i) if rng.random() < 0.3]
        specs.append(make_task(f"n{i}", deps=deps))
    return specs


def test_ready_tasks_matches_brute_force_on_random_graphs():
    rng = random.Random(42)
    for _ in range(100):
        graph = build_graph(random_dag(rng, rng.randint(1, 20)))
        remaining = set(graph.tasks)
        while remaining:
            assert graph.ready_tasks() == brute_force_assignable(graph)
            assignable = sorted(graph.ready_tasks())
            if not assignable:
                break
            task_id = rng.choice(assignable)
            graph.mark_committed(task_id)
            remaining.discard(task_id)
        assert graph.all_committed()


@given(st.integers(0, 2**32 - 1), st.integers(1, 15), st.data())
def test_ready_tasks_match_brute_force_under_commits_and_reopens(seed, n_nodes, data):
    graph = build_graph(random_dag(random.Random(seed), n_nodes))
    for _ in range(data.draw(st.integers(0, 4 * n_nodes), label="steps")):
        assert graph.ready_tasks() == brute_force_assignable(graph)
        committed = sorted(t for t in graph.tasks if graph.status(t) is TaskStatus.COMMITTED)
        moves = [("commit", t) for t in sorted(graph.ready_tasks())]
        moves += [("reopen", t) for t in committed]
        if not moves:
            break
        move, task_id = data.draw(st.sampled_from(moves))
        if move == "commit":
            graph.mark_committed(task_id)
        else:
            stale = {
                t.id
                for t in graph.tasks.values()
                if task_id in t.depends_on and graph.status(t.id) is TaskStatus.COMMITTED
            }
            assert graph.mark_needs_revision(task_id) == stale
    assert graph.ready_tasks() == brute_force_assignable(graph)


@given(st.integers(0, 2**32 - 1), st.integers(1, 20))
def test_dependents_match_a_scan_of_depends_on(seed, n_nodes):
    graph = build_graph(random_dag(random.Random(seed), n_nodes))
    for tid in graph.tasks:
        scan = sorted(task.id for task in graph.tasks.values() if tid in task.depends_on)
        assert graph.dependents(tid) == tuple(scan)


def test_random_cyclic_graphs_rejected():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 12)
        specs = random_dag(rng, n)
        # close a random back edge to force a cycle
        hi = rng.randrange(1, n)
        lo = rng.randrange(0, hi)
        closed = [
            make_task(
                s.id,
                deps=set(s.depends_on) | ({f"n{hi}"} if s.id == f"n{lo}" else set()),
            )
            for s in specs
        ]
        # ensure the forward path lo -> hi exists so the back edge closes a cycle
        closed[hi] = make_task(f"n{hi}", deps=set(specs[hi].depends_on) | {f"n{lo}"})
        with pytest.raises(CycleError):
            build_graph(closed)


def test_commit_promotes_only_fully_satisfied_dependents():
    graph = build_graph(
        [make_task("a"), make_task("b"), make_task("d", deps=["a", "b"])]
    )
    graph.mark_committed("a")
    assert "d" not in graph.ready_tasks()
    graph.mark_committed("b")
    assert "d" in graph.ready_tasks()


def test_topological_order_breaks_ties_by_id():
    graph = build_graph(
        [
            make_task("a"),
            make_task("c", deps=["a"]),
            make_task("b", deps=["a"]),
            make_task("d", deps=["b", "c"]),
        ]
    )
    assert graph.topological_order() == ("a", "b", "c", "d")


def test_deep_chain_is_not_bounded_by_the_recursion_limit():
    # each task depends on the one before it, so a depth-first walk from the
    # first id runs the whole chain
    n = 3000
    ids = [f"t{i:05d}" for i in range(n)]
    doc = {
        "schema_version": 1,
        "tasks": [{"id": ids[0]}] + [{"id": ids[i], "depends_on": [ids[i - 1]]} for i in range(1, n)],
        "agents": [],
    }
    graph = build_graph(make_task(t["id"], deps=t.get("depends_on", ())) for t in doc["tasks"])
    assert graph.ready_tasks() == {ids[0]}
    assert len(scenario_from_dict(doc).tasks) == n


def recursive_find_cycle(tasks) -> tuple[str, ...]:
    """The recursive depth-first cycle search, kept as the oracle for find_cycle."""
    consumers = {tid: [] for tid in tasks}
    for task in tasks.values():
        for dep in task.depends_on:
            if dep in consumers:
                consumers[dep].append(task.id)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {tid: WHITE for tid in tasks}
    stack = []

    def visit(tid):
        color[tid] = GRAY
        stack.append(tid)
        for nxt in sorted(consumers[tid]):
            if color[nxt] == GRAY:
                start = stack.index(nxt)
                return tuple(stack[start:]) + (nxt,)
            if color[nxt] == WHITE:
                found = visit(nxt)
                if found:
                    return found
        stack.pop()
        color[tid] = BLACK
        return ()

    for tid in sorted(tasks):
        if color[tid] == WHITE:
            found = visit(tid)
            if found:
                return found
    return ()


@given(
    st.integers(1, 9).flatmap(
        lambda n: st.lists(st.sets(st.integers(0, n - 1)), min_size=n, max_size=n)
    )
)
def test_find_cycle_matches_recursive_reference(dep_sets):
    # self-loops and back edges included: most draws are cyclic
    tasks = {
        f"n{i}": make_task(f"n{i}", deps={f"n{j}" for j in deps})
        for i, deps in enumerate(dep_sets)
    }
    assert find_cycle(tasks) == recursive_find_cycle(tasks)


def graph_walk_find_cycle(tasks) -> tuple[str, ...]:
    """The cycle search as TaskGraph ran it before find_cycle walked the index
    alone: TaskGraph's consumer index and its checks, then its iterative walk."""
    consumers = {tid: [] for tid in tasks}
    for task in tasks.values():
        unknown = task.depends_on.difference(tasks)
        if unknown:
            raise UnknownDependencyError(f"task {task.id!r} depends on unknown id {min(unknown)!r}")
        for dep in task.depends_on:
            consumers[dep].append(task.id)
    consumers = {tid: tuple(sorted(ids)) for tid, ids in consumers.items()}
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {tid: WHITE for tid in tasks}
    for root in sorted(tasks):
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        path = [root]
        pending = [iter(consumers[root])]
        while pending:
            for nxt in pending[-1]:
                if color[nxt] == GRAY:
                    return tuple(path[path.index(nxt):]) + (nxt,)
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    pending.append(iter(consumers[nxt]))
                    break
            else:
                pending.pop()
                color[path.pop()] = BLACK
    return ()


def cycle_verdict(find, tasks):
    try:
        return find(tasks)
    except UnknownDependencyError as exc:
        return str(exc)


@st.composite
def random_graphs(draw):
    """A DAG in a shuffled id order, plus a few back edges (cyclic) and unknown ids."""
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations([f"t{i}" for i in range(n)]))
    deps = [set(draw(st.sets(st.sampled_from(ids[:i])))) if i else set() for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):  # a back edge closes a cycle
        i, j = sorted(draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
        deps[i].add(ids[j])
    if draw(st.integers(0, 9)) == 0:
        deps[draw(st.integers(0, n - 1))].add(draw(st.sampled_from(["t99", "t100"])))
    order = draw(st.permutations(range(n)))  # the mapping's order, apart from id order
    return {ids[i]: make_task(ids[i], deps=deps[i]) for i in order}


@given(random_graphs())
def test_find_cycle_matches_the_graph_walk_it_replaced(tasks):
    expected = cycle_verdict(graph_walk_find_cycle, tasks)
    assert cycle_verdict(find_cycle, tasks) == expected
    if expected == ():
        TaskGraph(tasks)  # an acyclic map builds
    elif not isinstance(expected, str):
        with pytest.raises(CycleError) as exc:
            TaskGraph(tasks)
        assert exc.value.cycle == find_cycle(tasks)


class StatusScan:
    """The lifecycle as a scan over a status map: every check reads statuses only."""

    def __init__(self, specs):
        self.deps = {spec.id: spec.depends_on for spec in specs}
        self.status = dict.fromkeys(self.deps, "ready")

    def assignable(self) -> set[str]:
        return {tid for tid in self.deps if self.status[tid] in ("ready", "needs_revision") and self._deps_committed(tid)}

    def mark_committed(self, tid):
        self._expect(tid, ("ready", "needs_revision"), "ready or needs_revision")
        if not self._deps_committed(tid):
            raise InvalidTransitionError(f"task {tid!r} has uncommitted dependencies")
        self.status[tid] = "committed"

    def mark_needs_revision(self, tid):
        self._expect(tid, ("committed",), "committed")
        self.status[tid] = "needs_revision"
        return {t for t, deps in self.deps.items() if tid in deps and self.status[t] == "committed"}

    def _deps_committed(self, tid):
        return all(self.status[d] == "committed" for d in self.deps[tid])

    def _expect(self, tid, allowed, expected):
        if tid not in self.status:
            raise InvalidTransitionError(f"unknown task {tid!r}")
        if self.status[tid] not in allowed:
            raise InvalidTransitionError(f"task {tid!r} is {self.status[tid]}, expected {expected}")


def outcome(fn, *args):
    """What `fn(*args)` returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except InvalidTransitionError as exc:
        return (InvalidTransitionError, str(exc))


TRANSITIONS = ("mark_committed", "mark_needs_revision")


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.data())
def test_transitions_match_a_status_scan_legal_or_not(seed, n_nodes, data):
    specs = random_dag(random.Random(seed), n_nodes)
    graph, scan = build_graph(specs), StatusScan(specs)
    ids = [*sorted(scan.deps), "ghost"]
    for _ in range(data.draw(st.integers(0, 6 * n_nodes), label="steps")):
        legal = [("mark_committed", tid) for tid in sorted(scan.assignable())]
        legal += [("mark_needs_revision", tid) for tid, s in scan.status.items() if s == "committed"]
        if legal and data.draw(st.booleans(), label="legal"):
            move, task_id = data.draw(st.sampled_from(legal))
        else:
            move, task_id = data.draw(st.sampled_from(TRANSITIONS)), data.draw(st.sampled_from(ids))
        assert outcome(getattr(graph, move), task_id) == outcome(getattr(scan, move), task_id)
        assert {tid: graph.status(tid).value for tid in scan.deps} == scan.status
        assert graph.ready_tasks() == scan.assignable()
    assert graph.all_committed() is all(s == "committed" for s in scan.status.values())
