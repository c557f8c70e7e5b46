"""The Executor port on an event loop: run jobs, measure busy time.

A real broker's CPU *is* the cost of a job, so this adapter sleeps no
modelled service time: ``cost_ms`` is accepted (and range-checked) and
otherwise ignored.  Jobs queue in submission order and one drain, on
the next loop turn, runs them back to back — a burst of N submissions
costs one loop callback and no timer.  ``busy`` accumulates the
``perf_counter`` time the drains took, so utilisation is observed
rather than modelled.

:class:`LoopExecutor` shares the queue, crash epoch and listener half
of :class:`~repro.net.node.Node` — ``submit``/``try_submit``/``crash``/
``recover`` are that class's — and replaces only the service
discipline.  ``Node.stall`` models GC pauses of the *modelled* CPU and
has no effect here.

Fairness: a drain runs only the jobs that were queued when it started.
Jobs those jobs submit wait for the next drain, one loop turn later,
so socket reads, fsync completions and other timers interleave with
the job queue however long it keeps refilling — the same bound
asyncio puts on its own ready queue.
"""

from __future__ import annotations

from time import perf_counter

from ...net.node import _BUSY, Node
from .clock import AsyncioClock


class LoopExecutor(Node):
    """Run-to-completion FIFO executor with measured busy time."""

    def __init__(self, clock: AsyncioClock, name: str) -> None:
        super().__init__(clock, name)

    def _start_next(self) -> None:
        if self._down or not self._queue:
            return
        self._in_service = _BUSY  # a drain is pending: submit only enqueues
        self.scheduler.soon(self._drain, self._epoch)

    def _drain(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # crashed since this drain was scheduled
        queue = self._queue
        start = perf_counter()
        try:
            for _ in range(len(queue)):
                _cost, fn = queue.popleft()
                fn()
                if epoch != self._epoch:
                    return  # the job crashed the executor; the queue is gone
        finally:
            self.busy.add_busy((perf_counter() - start) * 1000.0)
            if epoch == self._epoch:
                self._in_service = None
                self._start_next()
