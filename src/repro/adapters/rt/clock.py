"""The Clock port on an asyncio event loop.

``now`` is **epoch milliseconds** (``time.time()`` anchored to the
loop's monotonic clock at construction).  The protocol assigns event
timestamps and epochs from ``int(clock.now)``; anchoring to the Unix
epoch keeps those monotone across broker *restarts* — a recovered
pubend's ``max(max_logged, now)`` lands above everything its previous
life assigned, exactly as the ever-advancing virtual clock guarantees
in the simulation.

Semantic deltas from the sim :class:`~repro.net.simtime.Scheduler`,
allowed by the port contract:

* ``at``/``post`` with a past deadline fire as soon as possible instead
  of raising — wall time races make "the past" unavoidable.
* A periodic callback that raises with no ``on_error`` hook still kills
  the periodic (marked ``dead``), but the exception lands in the
  loop's exception handler rather than a ``run()`` caller.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Any, Callable, Dict, Optional

from ...net.simtime import PeriodicHandle


class _RtHandle:
    """EventHandle-compatible wrapper over an asyncio TimerHandle."""

    __slots__ = ("_handle", "cancelled")

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        self._handle.cancel()


class AsyncioClock:
    """Wall-clock Clock adapter (epoch milliseconds) on an event loop."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._offset_ms = time.time() * 1000.0 - self._loop.time() * 1000.0
        self._tie_when: Dict[float, float] = {}

    @property
    def now(self) -> float:
        """Current wall-clock time in epoch milliseconds."""
        return self._loop.time() * 1000.0 + self._offset_ms

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _schedule(self, when_s: float, fn: Callable[..., None], args: tuple) -> asyncio.TimerHandle:
        # The port promises same-deadline callbacks fire in scheduling
        # order.  asyncio's timer heap is NOT FIFO-stable for equal
        # deadlines (TimerHandle.__lt__ compares only ``_when``), so we
        # make equality impossible instead: a repeat of a pending
        # deadline is nudged one float ulp past the previous occurrence.
        # The nudge is ~1e-10 s — far below the loop's firing jitter.
        prev = self._tie_when.get(when_s)
        eff = when_s if prev is None else math.nextafter(prev, math.inf)
        if len(self._tie_when) > 128:
            now_s = self._loop.time()
            self._tie_when = {k: v for k, v in self._tie_when.items() if k > now_s}
        self._tie_when[when_s] = eff
        return self._loop.call_at(eff, fn, *args)

    def _when(self, time_ms: float) -> float:
        # Convert the absolute deadline with the same float expression
        # every time, so equal ``time_ms`` values reach ``_schedule``
        # as bit-identical deadlines and the tie nudge can order them.
        # (Routing through a relative delay would re-read the clock and
        # let rounding reorder the tie before we ever saw it.)
        return max((time_ms - self._offset_ms) / 1000.0, self._loop.time())

    def at(self, time_ms: float, fn: Callable[..., None], *args: Any) -> _RtHandle:
        return _RtHandle(self._schedule(self._when(time_ms), fn, args))

    def after(self, delay: float, fn: Callable[..., None], *args: Any) -> _RtHandle:
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return _RtHandle(self._schedule(self._loop.time() + delay / 1000.0, fn, args))

    def post(self, time_ms: float, fn: Callable[..., None], *args: Any) -> None:
        self._schedule(self._when(time_ms), fn, args)

    def soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn`` on the next loop turn, with no timer.

        Not part of the Clock port (virtual time has no "turn"); the rt
        executor drains its job queue through it.  The loop polls its
        sockets and due timers between turns, so a callback that keeps
        re-arming itself here starves neither.
        """
        self._loop.call_soon(fn, *args)

    def every(
        self,
        interval: float,
        fn: Callable[..., None],
        *args: Any,
        first_delay: Optional[float] = None,
        on_error: Optional[Callable[[BaseException], None]] = None,
    ) -> PeriodicHandle:
        """Grid-anchored periodic, mirroring ``Scheduler.every``.

        Targets are ``anchor + n*interval`` computed by one multiply-add
        each — no cumulative drift.  A real-time callback can overrun
        its interval; overrun grid points are skipped (no catch-up
        burst), matching the sim kernel's nested-run guard.
        """
        if interval <= 0:
            raise ValueError(f"non-positive interval: {interval}")
        periodic = PeriodicHandle()
        delay = interval if first_delay is None else first_delay
        anchor = self.now + delay
        count = 0

        def tick() -> None:
            nonlocal count
            if periodic.cancelled:
                return
            try:
                fn(*args)
            except Exception as exc:
                if on_error is None:
                    periodic.dead = True
                    periodic._current = None
                    raise
                on_error(exc)
            if not periodic.cancelled:
                count += 1
                target = anchor + count * interval
                if target < self.now:
                    count = int((self.now - anchor) // interval) + 1
                    target = max(anchor + count * interval, self.now)
                periodic._current = self.at(target, tick)

        periodic._current = self.at(anchor, tick)
        return periodic
