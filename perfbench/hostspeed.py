"""Host-speed sampling for the benchmark's timed passes.

The 2-CPU virtual machine this benchmark was tuned on changes speed by
up to 2x from one second to the next (another tenant on the same
physical core), and the simulator slows with it: back-to-back runs of
one scenario varied from 0.61 to 1.16 s.  Passes last seconds, so a
speed reading taken before and after a pass misses most of the swing.

:class:`SpeedProbe` therefore samples the speed *during* a pass: a
SIGALRM timer runs a short probe round every ``INTERVAL_S``.  The pass's
wall time minus the probe time, multiplied by ``REF_ROUND_S`` over the
mean probe round, is the time the pass would have taken on a host where
a round takes ``REF_ROUND_S``.  The probe never touches the program's
objects, so it cannot change what the program computes (the pinned
digests check that too).
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time

#: One probe round's duration on the reference host.
REF_ROUND_S = 0.001
INTERVAL_S = 0.025
#: A block shorter than this many intervals gets extra rounds right
#: after it, outside its time, so one noisy round does not set its scale.
MIN_SAMPLES = 10


class _Event:
    __slots__ = ("seq", "fired")

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.fired = 0

    def fire(self, counts: dict) -> None:
        self.fired += 1
        counts[self.seq & 63] = counts.get(self.seq & 63, 0) + 1


def probe_round() -> float:
    """Time one round of a fixed workload shaped like the simulator's
    hot path: heap pushes and pops of event tuples, small objects,
    method calls and dict updates.  The garbage collector is held off,
    so the round measures the processor, not the size of the heap."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: list = []
        counts: dict = {}
        seq = 0
        for i in range(200):
            for j in range(4):
                seq += 1
                heapq.heappush(heap, ((i * 7 + j * 13) % 997, j, seq, _Event(seq)))
            while len(heap) > 8:
                heapq.heappop(heap)[3].fire(counts)
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


class SpeedProbe:
    """Sample the host speed while the ``with`` block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: time spent in probe rounds, to subtract from the block's wall
        self.probe_s = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        # first round at once, so even a pass shorter than the
        # interval gets a sample
        signal.setitimer(signal.ITIMER_REAL, 1e-6, INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(probe_round())

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.samples.append(probe_round())
            self.probe_s += time.perf_counter() - t0
        finally:
            self._busy = False

    @property
    def scale(self) -> float:
        """Reference time per host time over the block."""
        return REF_ROUND_S / statistics.fmean(self.samples)
