"""Machine-speed calibration for the benchmark's time metrics.

The benchmark runs on shared hosts whose speed drifts by 2x and more over
seconds to minutes (other tenants' load on the same cores and caches). A
fixed, deterministic pure-Python loop that touches no program code — a
heap-driven event loop scattering float updates over ~2 MB of small
objects, the same kinds of work the simulator does — is timed before and
after every lap of the timed phase, and around set-up. Each measured
interval is rescaled to a fixed loop speed:

    calibrated = measured * (REFERENCE_S / loop seconds around it) ** elasticity

The loop feels host contention more strongly than the program does, so the
correction is partial: ``elasticity`` is how strongly the program's time
follows the loop's time from one host state to another, fitted on the
reference host (see the constants).

The loop runs no program code, but it runs in the program's process right
after each lap. Garbage collection is paused while it runs and the fastest
of a few back-to-back loops is kept, so neither the program's heap size
nor the cache state it leaves behind should reach the loop: on the
reference host the loop took 1.01x as long with a finished 64-node
replay's object graph alive as without it (median of 40 interleaved
pairs, inside the host's noise). Within that noise, a program change
moves calibrated and measured time alike.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: The loop speed calibrated seconds refer to: roughly what one
#: :func:`calibrate` call takes on a 2-CPU x86-64 container under CPython
#: 3.11 while other tenants load the host (it takes ~0.0013 s on an idle one).
REFERENCE_S = 0.003
#: Elasticity of the simulator's time (every workload's timed phase) and of
#: set-up (mostly imports and module loading) to the loop's time. Fitted on
#: the reference host over ~150 repetitions spanning a 1.7-2.2x range of loop
#: speeds, and checked on one fast-to-slow switch (program 2.4x slower, loop
#: 2.7x slower).
WALL_ELASTICITY = 0.85
SETUP_ELASTICITY = 0.5


class _Item:
    __slots__ = ("key",)

    def __init__(self, key: int) -> None:
        self.key = key


#: Per-key accumulators the loop scatters into: ~2 MB of small Python
#: objects, so the loop also feels contention for the caches and memory,
#: as the simulator's own heap does.
_SLOTS = [[0.0, 0] for _ in range(1 << 14)]


def _loop(events: int) -> float:
    started = time.perf_counter()
    rng = random.Random(7)
    heap = [(rng.random(), i, _Item(i)) for i in range(4096)]
    heapq.heapify(heap)
    for seq in range(4096, 4096 + events):
        now, _, item = heapq.heappop(heap)
        slot = _SLOTS[(item.key * 2654435761) & 0x3FFF]
        slot[0] += now * 0.5
        slot[1] += 1
        delay = rng.expovariate(1.0 + (item.key & 7))
        heapq.heappush(heap, (now + delay, seq, _Item(item.key + 1)))
    return time.perf_counter() - started


def calibrate(rounds: int = 3, events: int = 600) -> float:
    """Seconds per loop: the fastest of ``rounds`` back-to-back loops.

    The minimum drops one-off stalls (a preempted slice); garbage
    collection is paused so the program's heap size cannot leak in.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_loop(events) for _ in range(rounds))
    finally:
        if enabled:
            gc.enable()


def calibrated(seconds: float, before: float, after: float, elasticity: float) -> float:
    """``seconds`` rescaled to :data:`REFERENCE_S`, given the loop's time
    measured just before and just after the interval."""
    return seconds * (2 * REFERENCE_S / (before + after)) ** elasticity
