"""The Executor port: one machine's serial CPU.

Every broker and client role runs its work through exactly one
operation — ``submit(cost_ms, fn)`` — on the machine that hosts it, and
learns of that machine's death and rebirth through ``on_crash`` /
``on_recover``.  That surface *is* the port.  Two adapters satisfy it:

* sim — :class:`repro.net.node.Node`, the costed FIFO server: ``fn``
  runs when ``cost_ms / speed`` of virtual service completes, so the
  CPU saturates the way the paper's Figure 4 / Figure 8 brokers do, and
  ``busy`` accumulates the *modelled* service time.
* rt — :class:`repro.adapters.rt.executor.LoopExecutor`: jobs run back
  to back on the event loop, ``cost_ms`` is not slept (the machine's
  own CPU is the cost), and ``busy`` accumulates the *measured* time
  the jobs took.

Contract the adapters must honor:

* **FIFO** — jobs run in submission order.
* **Run to completion** — a job is never preempted by another job of
  the same executor.
* **Never re-entrant** — ``submit`` never runs ``fn`` before returning,
  not even when called from inside a job: it only enqueues.  Protocol
  code relies on this to finish its own state update before the work it
  just queued observes it.
* **Crash discards queued work** — after ``crash()`` no job submitted
  before it ever runs; ``submit`` raises
  :class:`~repro.util.errors.NodeDownError` and ``try_submit`` returns
  False until ``recover()``.  Crash listeners fire at the crash,
  recover listeners at the recovery, each in registration order.
* ``cost_ms`` is the caller's *model* of the job's CPU time.  An
  adapter may use it for timing (sim) or ignore it (rt); it must reject
  a negative one either way.
* ``busy.total_busy_ms`` is monotonically non-decreasing.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from ..util.rate import BusyTracker


@runtime_checkable
class Executor(Protocol):
    """A named machine with one serially served CPU and crash semantics."""

    name: str
    busy: BusyTracker

    @property
    def is_down(self) -> bool: ...

    def submit(self, cost_ms: float, fn: Callable[[], None]) -> None: ...

    def try_submit(self, cost_ms: float, fn: Callable[[], None]) -> bool: ...

    def on_crash(self, fn: Callable[[], None]) -> None: ...

    def on_recover(self, fn: Callable[[], None]) -> None: ...

    def crash(self) -> None: ...

    def recover(self) -> None: ...

    def fail_for(self, duration_ms: float) -> None: ...
