"""Pubends: publishing endpoints at the publisher hosting broker.

Section 2: *"Each publisher hosting broker (PHB) maintains one or more
publishing endpoints (pubends).  Each persistent event published to
this broker is assigned to a pubend ... Each pubend maintains a
persistent and ordered event stream, that is indexed by the timestamp
assigned to the event when it was added to this stream."*

The pubend is the root of the knowledge/curiosity tree and the single
point where an event is persistently logged.  Responsibilities:

* assign strictly increasing integer timestamps,
* log the event; *only after the log sync completes* emit a
  :class:`~repro.core.messages.KnowledgeUpdate` carrying the event and
  the implied silence since the previous dissemination (this ordering
  is why PHB logging is on the publish latency path — the paper's
  44 ms),
* periodically disseminate silence so downstream doubt horizons advance
  when no events flow,
* answer nacks from its durable log (or with L ranges for released
  ticks),
* run the release protocol: fold downstream ``(Tr, Td)`` aggregates
  through an :class:`~repro.core.release.EarlyReleasePolicy`, convert
  the released prefix to L and chop the event log.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..metrics.trace import SPAN_PHB_LOG, SPAN_PUBLISH, event_tracer
from ..port.clock import Clock
from ..storage.disk import SimDisk
from ..storage.eventlog import PersistentEventLog
from ..util.intervals import IntervalSet
from .events import Event
from .messages import KnowledgeUpdate
from .release import EarlyReleasePolicy, NoEarlyRelease, ReleaseAggregator

#: Period of the silence flush that advances downstream doubt horizons
#: while no events flow.
SILENCE_INTERVAL_MS = 25.0


class Pubend:
    """One publishing endpoint and its persistent event stream."""

    def __init__(
        self,
        name: str,
        scheduler: Clock,
        disk: Optional[SimDisk] = None,
        policy: Optional[EarlyReleasePolicy] = None,
        journal: Optional[object] = None,
    ) -> None:
        self.name = name
        self.scheduler = scheduler
        #: ``journal`` (a file-backed log stream) makes the event log
        #: survive real process death; see PersistentEventLog.
        self.log = PersistentEventLog(name, disk, journal=journal)
        self.policy = policy if policy is not None else NoEarlyRelease()
        self.release_agg = ReleaseAggregator(name)
        #: Called with each KnowledgeUpdate to disseminate downstream;
        #: installed by the owning PHB broker.
        self.on_knowledge: Optional[Callable[[KnowledgeUpdate], None]] = None
        # --- timestamp bookkeeping -----------------------------------
        self._last_assigned = 0      # highest event timestamp handed out
        self._disseminated = 0       # knowledge emitted for every tick <= this
        self._pending: Deque[int] = deque()  # staged (unsynced) event timestamps
        # --- release state -------------------------------------------
        self._released_bound = 0     # ticks <= bound are L
        self.events_published = 0
        self.events_lost_in_crash = 0
        #: Recent publish→durable latencies (ms), for the latency study.
        #: The event timestamp approximates its staging time, so the
        #: difference at the durable callback is the logging latency.
        self.log_latency_ms: List[float] = []
        self._tracer = event_tracer(scheduler)
        self._silence_timer = scheduler.every(SILENCE_INTERVAL_MS, self._silence_flush)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def current_time(self) -> int:
        """``T(p)`` — the pubend's current tick time."""
        return int(self.scheduler.now)

    @property
    def disseminated(self) -> int:
        """Every tick ``<= disseminated`` has had knowledge emitted."""
        return self._disseminated

    @property
    def lost_below(self) -> int:
        """Every tick strictly below this is L (released)."""
        return self._released_bound + 1

    # ------------------------------------------------------------------
    # Publish path
    # ------------------------------------------------------------------
    def publish(
        self,
        attributes: Dict[str, object],
        payload_bytes: int = 250,
        publisher: Optional[str] = None,
        seq: Optional[int] = None,
        ttl_ms: Optional[int] = None,
        on_durable: Optional[Callable[[], None]] = None,
        trace_t0: Optional[float] = None,
    ) -> Event:
        """Assign a timestamp, stage the event for durable logging.

        The returned event is *not yet durable*; knowledge is
        disseminated from the log-sync callback, in order.
        ``on_durable`` additionally fires at that point (used for
        publish acknowledgments).  ``ttl_ms`` sets a JMS-style
        expiration relative to the assigned timestamp.  ``trace_t0``
        is the client-side publish time, when the caller knows it —
        the tracer's end-to-end clock starts there.
        """
        t = max(self._last_assigned + 1, self._disseminated + 1, self.current_time)
        self._last_assigned = t
        expires_at = t + ttl_ms if ttl_ms is not None else None
        event = Event(
            self.name, t, dict(attributes), payload_bytes, publisher,
            seq=seq, expires_at=expires_at,
        )
        self._pending.append(t)

        tracer = self._tracer
        staged_at: Optional[float] = None
        if tracer.active and tracer.begin(event, start_ms=trace_t0):
            staged_at = self.scheduler.now
            tracer.add_span(
                event.event_id, SPAN_PUBLISH, self.name,
                start_ms=trace_t0 if trace_t0 is not None else staged_at,
            )

        def durable() -> None:
            if staged_at is not None:
                tracer.add_span(
                    event.event_id, SPAN_PHB_LOG, self.name, start_ms=staged_at
                )
            self._event_durable(event)
            if on_durable is not None:
                on_durable()

        self.log.append(event, on_durable=durable)
        return event

    def _event_durable(self, event: Event) -> None:
        if self._pending and self._pending[0] == event.timestamp:
            self._pending.popleft()
        else:  # pragma: no cover - group commit preserves order
            try:
                self._pending.remove(event.timestamp)
            except ValueError:
                pass
        self.events_published += 1
        if len(self.log_latency_ms) < 100_000:
            self.log_latency_ms.append(self.scheduler.now - event.timestamp)
        t = event.timestamp
        s_ranges: List[Tuple[int, int]] = []
        if t - 1 >= self._disseminated + 1:
            s_ranges.append((self._disseminated + 1, t - 1))
        self._disseminated = max(self._disseminated, t)
        self._emit(KnowledgeUpdate(self.name, d_events=[event], s_ranges=s_ranges))

    def _silence_flush(self) -> None:
        """Disseminate silence up to now (bounded by staged events)."""
        bound = self.current_time - 1
        if self._pending:
            bound = min(bound, self._pending[0] - 1)
        if bound > self._disseminated:
            update = KnowledgeUpdate(self.name, s_ranges=[(self._disseminated + 1, bound)])
            self._disseminated = bound
            self._emit(update)

    def announce_head(self) -> None:
        """Disseminate the newest logged event again.

        Timestamps run ahead of the clock under a burst (one tick per
        event), so a pubend restarted on a recovered log says nothing
        until the clock passes its newest timestamp — and until it
        does, a downstream broker that missed the tail of the log has
        no gap to nack.  Knowledge is idempotent: repeating the newest
        event moves every downstream frontier to the head at once.
        """
        newest = self.log.max_timestamp
        if newest is not None:  # the log holds only what is not released
            self._emit(KnowledgeUpdate(self.name, d_events=[self.log.get(newest)]))

    def _emit(self, update: KnowledgeUpdate) -> None:
        if self.on_knowledge is not None and not update.is_empty():
            self.on_knowledge(update)

    # ------------------------------------------------------------------
    # Nack service (root of the recovery tree)
    # ------------------------------------------------------------------
    def serve_nack(self, ranges: IntervalSet, max_events: Optional[int] = None) -> KnowledgeUpdate:
        """Answer a consolidated nack from the durable log.

        For each requested range (served in ascending order): released
        ticks answer L, logged events answer D, everything else at or
        below the dissemination horizon answers S.  Ticks beyond the
        horizon stay unanswered — the requester's curiosity will retry
        and ordinary dissemination usually wins the race.

        ``max_events`` caps the number of events in one reply; the
        unanswered suffix is simply left out and picked up by the
        requester's retry.  This cap, together with the requester's
        retry interval, paces mass recovery (the bounded catchup slope
        of Figure 7) instead of flooding the network.
        """
        update = KnowledgeUpdate(self.name)
        for iv in ranges:
            if max_events is not None and len(update.d_events) >= max_events:
                break
            start, end = iv.start, min(iv.end, self._disseminated)
            if start > end:
                continue
            if start < self.lost_below:
                l_end = min(end, self.lost_below - 1)
                update.l_ranges.append((start, l_end))
                start = l_end + 1
                if start > end:
                    continue
            events = self.log.read_range(start, end)
            if max_events is not None:
                budget = max_events - len(update.d_events)
                if len(events) > budget:
                    events = events[:budget]
                    # Cover only up to the last served event; the rest
                    # of the range stays unanswered for the retry.
                    end = events[-1].timestamp if events else start - 1
            if end < start:
                continue
            update.d_events.extend(events)
            covered = IntervalSet([(e.timestamp, e.timestamp) for e in events])
            for gap in covered.complement_within(start, end):
                update.s_ranges.append((gap.start, gap.end))
        return update

    # ------------------------------------------------------------------
    # Release protocol
    # ------------------------------------------------------------------
    def on_release_report(
        self, child: object, released: int, latest_delivered: int, epoch: int = 0
    ) -> None:
        """Fold a downstream child's release report and try to release.

        ``epoch`` lets a child legitimately regress its minima after a
        migrated subscription was installed under it; the released
        bound itself stays monotone (:meth:`apply_release`), the
        regression only prevents *future* release past the migrated
        subscription's floor.
        """
        self.release_agg.update(child, released, latest_delivered, epoch=epoch)
        self.apply_release()

    def apply_release(self) -> int:
        """Convert the releasable prefix to L; returns events chopped."""
        agg = self.release_agg.aggregate()
        if agg is None:
            return 0
        t_r, t_d = agg
        bound = self.policy.release_bound(self.current_time, t_r, t_d)
        if bound <= self._released_bound:
            return 0
        self._released_bound = bound
        return self.log.chop_below(bound + 1)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash_reset(self) -> None:
        """PHB crashed: staged events are lost; durable state survives."""
        self.events_lost_in_crash += len(self._pending)
        self._pending.clear()
        self.log.crash_reset()
        self._silence_timer.cancel()

    def recover(self) -> None:
        """Rebuild volatile state after a crash or a process restart.

        Over a log with history the dissemination horizon restarts at
        the current time: the paper's silence flush never runs ahead of
        ``T(p)``, so nothing previously disseminated exceeds it, and
        ticks between the old horizon and now are recoverable through
        nacks.  Over an empty log (a first boot) the silence flush
        advances it instead of a nack for the whole clock range.
        """
        log = self.log
        if log.max_timestamp is not None or log.chopped_below > 0:
            self._last_assigned = max(log.max_timestamp or 0, self.current_time)
            self._disseminated = max(self._disseminated, self._last_assigned)
            self._released_bound = max(self._released_bound, log.chopped_below - 1)
        self._silence_timer = self.scheduler.every(SILENCE_INTERVAL_MS, self._silence_flush)
        self.announce_head()

    def close(self) -> None:
        self._silence_timer.cancel()
