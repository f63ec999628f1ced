"""The host's current speed, from a fixed reference computation.

The shared 2-core host this benchmark was written on changes speed by up to
1.6x within a minute. Over three minutes of alternating a fixed simulation
with this reference, medians of ten consecutive simulation times spread
(quartile distance over median) by 37-46%, and medians of ten consecutive
ratios of simulation time to reference time by 4-6%. So the benchmark runs
the reference before and after every operation and reports each
operation's time at the nominal speed: measured seconds times
``NOMINAL_S`` over the mean of the two reference times. Each fresh
interpreter that measures set-up time runs the reference right after, and
its time scales that interpreter's.

The reference uses no gridchain code, so a change to gridchain cannot move
it. It pushes and pops a heap of ints and fills a set, like the simulator's
pool, over a table larger than the CPU caches: on that host its time
tracked the simulator's with a log-log slope of 0.81-0.85 (0.6 for a
cache-resident mix of sha256, dict and numpy work). Neither the computation
nor ``NOMINAL_S`` may change, or figures stop being comparable.
"""

from __future__ import annotations

import heapq
import time

# Seconds the reference takes on the host above at its usual speed.
NOMINAL_S = 0.085

# The reference reads this table in a scattered order, so that, like the
# simulator, it waits on memory as well as computing.
_TABLE = list(range(400_000))


def reference() -> float:
    """Run the reference computation; returns its host seconds."""
    t0 = time.perf_counter()
    seen: set[int] = set()
    heap: list[int] = []
    n = len(_TABLE)
    for j in range(60_000):
        i = _TABLE[(j * 7919) % n]
        heapq.heappush(heap, i)
        seen.add(i)
    hits = 0
    while heap:
        if heapq.heappop(heap) + 1 in seen:
            hits += 1
    return time.perf_counter() - t0


def at_nominal_speed(seconds: float, reference_s: float) -> float:
    """``seconds`` at the nominal speed, given the reference's time taken
    alongside them."""
    return seconds * NOMINAL_S / reference_s
