"""Pausing the cyclic garbage collector over a call.

Loading a scenario and running it allocate hundreds of thousands of tracked
containers (specs, behavior rows, run events, memory entries) and free none of
them in cycles, so every collection inside those calls walks a growing heap
and finds nothing; at 10^4 tasks that was a quarter of a run and over a third
of a load. Reference counting still frees everything they drop. The test
suite holds load and run to making no cyclic garbage.
"""

from __future__ import annotations

import functools
import gc
from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)


def collector_paused(fn: F) -> F:
    """`fn` with the cyclic collector off while it runs and the caller's setting back after.

    A call nested in another paused call, or made with the collector already
    off, leaves the setting alone. On the way out, if the young generation has
    outgrown its threshold, it runs the young collection the collector would
    otherwise run at the caller's next allocation, so the call itself pays for
    walking the objects it made once.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
            young = gc.get_threshold()[0]  # 0 turns automatic collection off
            if young and gc.get_count()[0] > young:
                gc.collect(0)

    return paused  # type: ignore[return-value]
