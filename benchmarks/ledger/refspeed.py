"""CPU-bound wall seconds, re-expressed at one fixed host speed.

The box a benchmark run gets is a few cores of a shared host, and its
speed is not constant: a fixed pure-Python loop, timed on its own for
three minutes, runs 15-30 % slow for 5-20 s at a time, and sometimes
for minutes (README, "What the sizing probes found").  The simulator
workloads are single-threaded CPU-bound Python, so their wall time
carries all of that, and no median inside a run can remove a slow
spell that outlasts the run.

So the simulator workloads time themselves against a reference: the
work is cut into segments of about :data:`SEGMENT_S` wall seconds, a
fixed kernel (:meth:`ReferenceClock.sample`, ~10 ms) is timed between
segments, and each segment's wall time is scaled by how much slower or
faster than :data:`REFERENCE_SAMPLE_S` the kernel ran around it.  The
sum is what the work would have taken on a host that stayed at the
reference speed: *reference seconds*.  A change to the program moves it
exactly as it moves wall seconds -- the kernel is the benchmark's own
code and touches nothing of the program's -- while a slow neighbour
moves both the segment and the kernel and cancels.  Probe: 60
repetitions of one fan-out job through a slow spell ranged over 39 % in
pairs per wall second and 13 % in pairs per reference second; medians
of three, 17 % and 7 %, quartile spread 8.5 % and 2.0 %.

The kernel mixes what the simulator does most: method calls on small
objects reached through pointers (a shuffled ring of 60 000 cells, past
the L2 cache) and dict stores and probes.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Callable, List, Tuple

#: About what one kernel sample takes between segments of a simulator
#: run on the box the workloads were sized on when nothing else runs
#: there (the median sample of a repetition was 8.4-9.8 ms).  It only
#: fixes the unit: reference seconds are wall seconds on a host that
#: runs the kernel at this speed.
REFERENCE_SAMPLE_S = 0.009
#: Kernel iterations per sample.
SAMPLE_STEPS = 20_000
#: Wall seconds of work between two samples (a sample costs a tenth).
SEGMENT_S = 0.1
RING_CELLS = 60_000


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next: Any = None

    def bump(self, by: int) -> int:
        self.value = (self.value + by) & 0xFFFF
        return self.value


class ReferenceClock:
    """Times segments of work and the reference kernel between them."""

    def __init__(self) -> None:
        cells = [_Cell(i) for i in range(RING_CELLS)]
        order = list(range(RING_CELLS))
        random.Random(1).shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            cells[here].next = cells[there]
        self._cell = cells[0]
        self._table: dict = {}
        #: Seconds each kernel sample took; segment ``i`` ran between
        #: samples ``i`` and ``i + 1``.
        self.samples: List[float] = []
        self.segments: List[float] = []
        self._open_s = 0.0
        self.sample()

    def sample(self) -> None:
        cell, table, acc = self._cell, self._table, 0
        start = time.perf_counter()
        for i in range(SAMPLE_STEPS):
            acc = cell.bump(acc)
            cell = cell.next
            table[acc & 4095] = cell
            if table.get(i & 4095) is cell:
                acc += 1
        self.samples.append(time.perf_counter() - start)
        self._cell = cell

    def _close(self) -> None:
        if self._open_s:
            self.segments.append(self._open_s)
            self._open_s = 0.0
            self.sample()

    def call(self, fn: Callable[[], Any]) -> Any:
        """``fn()`` as one segment: work that cannot be cut up."""
        self._close()
        start = time.perf_counter()
        result = fn()
        self._open_s = time.perf_counter() - start
        self._close()
        return result

    def run_until(self, sim: Any, until_ms: float, step_ms: float) -> None:
        """``sim.run_until(until_ms)`` in steps, sampling between segments.

        ``run_until`` executes what is due and moves the clock, no more,
        so the steps change nothing the program can see.
        """
        clock = time.perf_counter
        while sim.now < until_ms:
            start = clock()
            sim.run_until(min(until_ms, sim.now + step_ms))
            self._open_s += clock() - start
            if self._open_s >= SEGMENT_S:
                self._close()

    def mark(self) -> int:
        """Where a phase starts, for :meth:`since`."""
        self._close()
        return len(self.segments)

    def since(self, mark: int) -> Tuple[float, float]:
        """Wall and reference seconds of the segments since ``mark``."""
        self._close()
        wall = reference = 0.0
        for i in range(mark, len(self.segments)):
            # The two samples either side of the segment and one beyond
            # each: a median, so that one disturbed sample does not count.
            around = statistics.median(self.samples[max(0, i - 1):i + 3])
            wall += self.segments[i]
            reference += self.segments[i] * REFERENCE_SAMPLE_S / around
        return wall, reference
