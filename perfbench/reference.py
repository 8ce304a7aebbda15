"""The machine's current speed, read from a fixed job timed next to each sample.

The host's speed drifts by up to 1.8x between runs and by 1.5x within a
minute, on every operation alike. Each timed operation is therefore followed
by `job()`, and its time is divided by the mean of the job's times just before
and just after it, then multiplied by NOMINAL_S. The result reads in seconds
at the speed the host had when NOMINAL_S was measured.

The job is pure Python shaped like the package's hot code: json round trips
of a task document, and frozen dataclasses walked in dependency order with
sorting and set lookups. It imports nothing from the package, so a change to
the package cannot move it.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass
from typing import Callable

# Median of job() on the 2-vCPU Intel Xeon VM the benchmark was built on, Python 3.11.
NOMINAL_S = 0.0065

_DOC = json.dumps(
    {
        "tasks": [
            {"id": f"t{i}", "deps": [f"t{j}" for j in range(max(0, i - 2), i)], "weight": i * 0.5, "tags": ["a", "b"]}
            for i in range(60)
        ]
    }
)


@dataclass(frozen=True)
class _Node:
    id: str
    deps: tuple[str, ...]
    weight: float


def _walk(size: int) -> list[str]:
    nodes = [_Node(f"n{i}", tuple(f"n{j}" for j in range(max(0, i - 3), i)), i * 0.25) for i in range(size)]
    done: set[str] = set()
    order: list[str] = []
    while len(done) < len(nodes):
        ready = sorted(
            (n for n in nodes if n.id not in done and all(d in done for d in n.deps)),
            key=lambda n: (-n.weight, n.id),
        )
        for node in ready[:3]:
            done.add(node.id)
            order.append(node.id)
    return order


def job() -> float:
    """Seconds the fixed job takes now; the collector is off so the program's heap stays out."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(4):
            json.loads(json.dumps(json.loads(_DOC)))
        _walk(80)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Scaler:
    """Wraps timed operations so each sample comes back scaled to nominal speed.

    A wrapped operation returns (scaled seconds, raw seconds), or None when
    the operation failed. The job runs after every operation, failed or not,
    so each sample has a speed reading on either side of it.
    """

    def __init__(self) -> None:
        job()  # warm-up
        self.last = job()

    def wrap(self, op: Callable[[], float | None]) -> Callable[[], tuple[float, float] | None]:
        def run() -> tuple[float, float] | None:
            elapsed = op()
            now = job()
            speed = (self.last + now) / 2
            self.last = now
            return None if elapsed is None else (elapsed / speed * NOMINAL_S, elapsed)

        return run
