"""Routing: suitability, ambiguity detection, dispatch decisions, reassignment."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from taskweave import (
    RouteMode,
    Router,
    UnknownAgentError,
    suitability,
)

from conftest import make_agent, make_row, make_task


def pool(*specs):
    return {spec.id: spec.build() for spec in specs}


def test_suitability_fresh_agent():
    profile = make_agent("a", capacity=2, perf={"legal": 0.8}).build().profile
    task = make_task("t", markers={"legal"})
    expected = 0.7 * 0.8 + 0.3 * 1.0
    assert suitability(profile, task) == pytest.approx(expected)
    assert expected == pytest.approx(0.86)


def test_suitability_fully_loaded_agent():
    profile = make_agent("a", capacity=2, perf={"legal": 0.9}).build().profile
    profile.load = 2
    task = make_task("t", markers={"legal"})
    assert suitability(profile, task) == pytest.approx(0.7 * 0.9)
    assert suitability(profile, task) == pytest.approx(0.63)


def test_suitability_defaults_for_unseen_markers_and_markerless_tasks():
    profile = make_agent("a", capacity=4).build().profile
    profile.load = 1
    capacity_term = 0.3 * (1 - 1 / 4)
    assert suitability(profile, make_task("t")) == pytest.approx(
        0.7 * 0.5 + capacity_term
    )
    assert suitability(
        profile, make_task("t", markers={"never_seen"})
    ) == pytest.approx(0.7 * 0.5 + capacity_term)


def test_suitability_averages_across_markers():
    profile = make_agent("a", perf={"legal": 0.9, "numeric": 0.5}).build().profile
    task = make_task("t", markers={"legal", "numeric"})
    assert suitability(profile, task) == pytest.approx(0.7 * 0.7 + 0.3)


def test_is_ambiguous_flag_branch():
    router = Router(pool(make_agent("a")), theta=0.7)
    assert router.is_ambiguous(make_task("t", ambiguity=0.9)) is True


def test_is_ambiguous_confident_capable_agent():
    agents = pool(
        make_agent("a", caps={"legal"}, rows={("t", 0): make_row(confidence=0.95)})
    )
    router = Router(agents, theta=0.7)
    assert router.is_ambiguous(make_task("t", markers={"legal"}, ambiguity=0.1)) is False


def test_is_ambiguous_low_confidence_branch():
    agents = pool(
        make_agent("a", caps={"legal"}, rows={("t", 0): make_row(confidence=0.4)})
    )
    router = Router(agents, theta=0.7)
    assert router.is_ambiguous(make_task("t", markers={"legal"}, ambiguity=0.1)) is True


def test_is_ambiguous_when_no_agent_covers_markers():
    agents = pool(
        make_agent("a", caps={"legal"}, rows={("t", 0): make_row(confidence=0.99)})
    )
    router = Router(agents, theta=0.7)
    task = make_task("t", markers={"legal", "numeric"}, ambiguity=0.0)
    assert router.is_ambiguous(task) is True


def test_route_single_to_suitability_argmax():
    agents = pool(
        make_agent("A", capacity=2, perf={"legal": 0.8}, rows={("t", 0): make_row(confidence=0.9)}),
        make_agent("B", capacity=2, perf={"legal": 0.9}, rows={("t", 0): make_row(confidence=0.9)}),
    )
    agents["B"].profile.load = 2
    router = Router(agents, theta=0.7)
    decision = router.route(make_task("t", markers={"legal"}, ambiguity=0.1))
    # suitability oracle: A = 0.86 free, B at capacity is not even available
    assert decision.mode is RouteMode.SINGLE
    assert decision.assignees == ("A",)


def test_route_parallel_takes_top_k_in_suitability_order():
    agents = pool(
        make_agent("a1", perf={"x": 0.9}),
        make_agent("a2", perf={"x": 0.7}),
        make_agent("a3", perf={"x": 0.8}),
    )
    router = Router(agents, theta=0.7, k=3)
    decision = router.route(make_task("t", markers={"x"}, ambiguity=0.9))
    assert decision.mode is RouteMode.PARALLEL
    assert decision.assignees == ("a1", "a3", "a2")


def test_route_defers_when_everyone_is_full():
    agents = pool(make_agent("a1", capacity=1), make_agent("a2", capacity=1))
    for agent in agents.values():
        agent.profile.load = 1
    router = Router(agents)
    decision = router.route(make_task("t"))
    assert decision.mode is RouteMode.DEFER
    assert decision.assignees == ()


def test_route_parallel_falls_back_to_single_with_one_free_agent():
    agents = pool(make_agent("a1", capacity=1), make_agent("a2", capacity=1))
    agents["a2"].profile.load = 1
    router = Router(agents, theta=0.0, k=3)
    decision = router.route(make_task("t", ambiguity=0.9))
    assert decision.mode is RouteMode.SINGLE
    assert decision.assignees == ("a1",)


def test_route_k_below_two_never_fans_out():
    agents = pool(make_agent("a1"), make_agent("a2"))
    router = Router(agents, theta=0.0, k=1)
    decision = router.route(make_task("t", ambiguity=1.0))
    assert decision.mode is RouteMode.SINGLE


def test_theta_zero_routes_every_task_parallel():
    agents = pool(make_agent("a1"), make_agent("a2"), make_agent("a3"))
    router = Router(agents, theta=0.0, k=3)
    for ambiguity in (0.0, 0.5, 1.0):
        decision = router.route(make_task("t", ambiguity=ambiguity))
        assert decision.mode is RouteMode.PARALLEL


def test_theta_one_triggers_confidence_branch_below_full_confidence():
    agents = pool(
        make_agent("a1", rows={("t", 0): make_row(confidence=0.99)}),
        make_agent("a2", rows={("t", 0): make_row(confidence=0.98)}),
    )
    router = Router(agents, theta=1.0, k=2)
    decision = router.route(make_task("t", ambiguity=0.0))
    assert decision.mode is RouteMode.PARALLEL


def test_route_never_assigns_loaded_agent():
    agents = pool(
        make_agent("a1", capacity=1, perf={"x": 1.0}),
        make_agent("a2", capacity=1, perf={"x": 0.1}),
    )
    agents["a1"].profile.load = 1
    router = Router(agents, theta=0.5)
    decision = router.route(make_task("t", markers={"x"}, ambiguity=0.9))
    assert "a1" not in decision.assignees


def test_route_ties_break_on_agent_id():
    confident = {("t", 0): make_row(confidence=0.95)}
    agents = pool(
        make_agent("b", rows=confident),
        make_agent("a", rows=confident),
        make_agent("c", rows=confident),
    )
    router = Router(agents, theta=0.7)
    decision = router.route(make_task("t", ambiguity=0.0))
    assert decision.mode is RouteMode.SINGLE
    assert decision.assignees == ("a",)


def test_route_is_deterministic():
    def fresh_router():
        return Router(
            pool(
                make_agent("a1", perf={"x": 0.6}),
                make_agent("a2", perf={"x": 0.6}),
                make_agent("a3", perf={"x": 0.9}),
            ),
            theta=0.7,
            k=2,
        )

    task = make_task("t", markers={"x"}, ambiguity=0.8)
    assert fresh_router().route(task) == fresh_router().route(task)


def test_reassign_pins_target_with_capacity():
    agents = pool(make_agent("a1"), make_agent("a2"))
    router = Router(agents)
    decision = router.reassign("a2", "t")
    assert decision.mode is RouteMode.SINGLE
    assert decision.assignees == ("a2",)


def test_reassign_unknown_agent_and_task():
    router = Router(pool(make_agent("a1")))
    with pytest.raises(UnknownAgentError):
        router.reassign("ghost", "t")


# -- the router against the per-agent scan it replaced ------------------------------


def spec_suitability(profile, task, perf_weight, capacity_weight):
    """The formula with the markers sorted on every call."""
    if task.domain_markers:
        total = 0.0
        for marker in sorted(task.domain_markers):
            total += profile.historical_performance.get(marker, 0.5)
        perf = total / len(task.domain_markers)
    else:
        perf = 0.5
    return perf_weight * perf + capacity_weight * (1.0 - profile.load / profile.capacity)


def spec_is_ambiguous(agents, task, theta):
    """The max over every capable agent's declared confidence."""
    if task.ambiguity >= theta:
        return True
    best = 0.0
    for agent in agents.values():
        if task.domain_markers <= agent.profile.capabilities:
            best = max(best, agent.declared_confidence(task))
    return best < theta


def spec_route(agents, task, theta, k, w1, w2):
    scored = sorted(
        (-spec_suitability(agent.profile, task, w1, w2), agent_id)
        for agent_id, agent in agents.items()
        if agent.profile.load < agent.profile.capacity
    )
    ranked = [agent_id for _, agent_id in scored]
    if not ranked:
        return ()
    if k >= 2 and spec_is_ambiguous(agents, task, theta):
        if len(ranked[:k]) >= 2:
            return tuple(ranked[:k])
    return (ranked[0],)


MARKERS = ("m0", "m1", "m2")
UNIT = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def routing_cases(draw):
    """A pool, a task and settings: full agents, unseen and empty marker sets, agents
    without a (task, 0) row or without the task's markers, theta at 0 and 1, and
    sometimes an agent the task's revision is pinned to."""
    theta = draw(st.sampled_from([0.0, 1.0]) | UNIT)
    markers = draw(st.sets(st.sampled_from([*MARKERS, "unseen"])))
    task = make_task("t", markers=markers, ambiguity=draw(st.sampled_from([theta]) | UNIT))
    agents = {}
    for i in range(draw(st.integers(1, 4))):
        capacity = draw(st.integers(1, 3))
        rows = {}
        for attempt in draw(st.sets(st.integers(0, 1))):
            rows[("t", attempt)] = make_row(confidence=draw(st.sampled_from([theta]) | UNIT))
        spec = make_agent(
            f"a{draw(st.integers(0, 9))}{i}",
            caps=draw(st.sets(st.sampled_from([*MARKERS, "unseen"]))),
            capacity=capacity,
            perf=draw(st.dictionaries(st.sampled_from(MARKERS), UNIT)),
            rows=rows,
        )
        agent = spec.build()
        agent.profile.load = draw(st.integers(0, capacity))
        agents[spec.id] = agent
    k = draw(st.integers(1, 4)) if draw(st.booleans()) else 1  # a router without fan-out has k 1
    pinned = draw(st.none() | st.sampled_from(sorted(agents)))
    return agents, task, theta, k, draw(UNIT), draw(UNIT), pinned


@given(routing_cases())
def test_router_matches_the_per_agent_scan(case):
    agents, task, theta, k, w1, w2, pinned = case
    router = Router(agents, theta=theta, k=k, perf_weight=w1, capacity_weight=w2)
    for agent in agents.values():
        assert suitability(agent.profile, task, w1, w2) == spec_suitability(agent.profile, task, w1, w2)
    assert router.is_ambiguous(task) is spec_is_ambiguous(agents, task, theta)
    expected = spec_route(agents, task, theta, k, w1, w2)
    if pinned is not None:
        router.reassign(pinned, "t")
        profile = agents[pinned].profile
        decision = router.route(task)  # spends the pin whether or not the agent has room
        assert decision.assignees == ((pinned,) if profile.load < profile.capacity else expected)
    decision = router.route(task)
    assert decision.assignees == expected
    assert decision.mode is {0: RouteMode.DEFER, 1: RouteMode.SINGLE}.get(len(decision.assignees), RouteMode.PARALLEL)
