"""Catchup streams (Sections 4.1–4.2).

When durable subscriber *s* reconnects with ``CT(s, p)`` below the
constream's ``latestDelivered(p)``, the SHB creates a private catchup
stream whose doubt horizon starts at ``CT(s, p)``.  The stream:

1. batch-reads the PFS to learn which timestamps above its cursor are
   Q for this subscriber (everything else in the covered span is S —
   no event retrieval, no refiltering),
2. nacks the Q ticks upstream, paced by a flow-control window so the
   client is not overwhelmed with catchup event messages,
3. accumulates the replies and delivers event/silence/gap messages in
   timestamp order,
4. when its cursor reaches ``latestDelivered(p)``, fires the switchover
   callback — the SHB discards the stream and the subscriber joins the
   constream ("non-catchup" mode).

A new PFS read is issued only once every Q tick of the previous read
has been nacked and delivered, mirroring the read-buffer behaviour the
paper analyses in Figure 8 (5000-tick buffer, reads shortening as
catchup progresses).

Ticks below the PFS chop point (released before this subscriber
caught up) are nacked like any others; the pubend answers them with L
ranges, which surface to the application as explicit gap messages —
the "gap honesty" guarantee of the early-release model.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..metrics.trace import event_tracer
from ..pfs.pfs import PersistentFilteringSubsystem, PFSReadResult
from ..port.clock import Clock
from ..util.intervals import IntervalSet
from .constream import ConsolidatedStream
from .curiosity import CuriosityStream
from .knowledge import KnowledgeStream
from .messages import EventMessage, GapMessage, KnowledgeUpdate, SilenceMessage
from .subscription import DurableSubscription
from .ticks import Tick

DeliverFn = Callable[[object], None]
NackFn = Callable[[IntervalSet], None]
CostedRunner = Callable[[float, Callable[[], None]], None]

#: CPU cost charged per PFS record visited during a batch read (ms).
PFS_READ_COST_PER_RECORD_MS = 0.002
#: Fixed CPU cost per PFS batch read (ms).
PFS_READ_BASE_COST_MS = 0.5
#: Catchup requests are paced at this multiple of the subscriber's own
#: event rate (see ``CatchupStream._take_tokens``).
RATE_BOOST = 1.9


class CatchupStream:
    """Private recovery stream for one (subscriber, pubend) pair."""

    def __init__(
        self,
        scheduler: Clock,
        pubend: str,
        sub: DurableSubscription,
        start_ts: int,
        pfs: PersistentFilteringSubsystem,
        constream: ConsolidatedStream,
        deliver: DeliverFn,
        send_nack: NackFn,
        on_switchover: Callable[[], None],
        buffer_qs: int = 5000,
        nack_window_ticks: int = 256,
        run_costed: Optional[CostedRunner] = None,
        refilter_until: int = 0,
        caches_valid: bool = True,
    ) -> None:
        self.scheduler = scheduler
        self.pubend = pubend
        self.sub = sub
        self.pfs = pfs
        self.constream = constream
        self.deliver = deliver
        self.on_switchover = on_switchover
        self.buffer_qs = buffer_qs
        self.nack_window_ticks = nack_window_ticks
        self._run_costed = run_costed if run_costed is not None else (lambda _cost, fn: fn())
        #: This SHB's PFS does not speak for the subscriber up to this
        #: tick (its registration's coverage confirmation: silence
        #: below it may have been classified without it), so that span
        #: is recovered by nacking *everything* and refiltering the
        #: returned events against the subscription's own predicate.
        self.refilter_until = refilter_until
        #: False for such a span: broker knowledge caches were filtered
        #: under a subscription union that did not include this
        #: subscriber, so their S ticks cannot be trusted for it.  A
        #: refiltering stream whose subscription *was* registered (the
        #: no-PFS ablation) keeps cache service.
        self.caches_valid = caches_valid
        #: End-to-end flow control (the paper's "flow control scheme,
        #: between the SHB and the subscribing client, to control the
        #: rate of nacks initiated, so as not to overwhelm the client"):
        #: event messages count against the window until the host
        #: reports them actually sent (:meth:`on_delivery_sent`), so a
        #: congested broker/client throttles this stream's requests.
        #: With many simultaneous catchup streams this self-balances
        #: them to fair shares.
        self.undelivered = 0
        # Client-rate pacing (the paper's congestion-control hook [14]):
        # requests are token-bucketed at ``RATE_BOOST`` times the
        # subscriber's own event rate, estimated from PFS read density.
        # The resulting catchup duration is scale-free:
        # ``disconnection / (RATE_BOOST - 1)`` — the proportionality
        # Figure 5 shows (5-6 s catchup for a 5 s disconnection).
        self._rate_eps: Optional[float] = None  # estimated events/s
        #: Burst allowance: how many events may be requested ahead of
        #: the paced rate.  Small relative to the window so that even a
        #: short disconnection is recovered at the paced rate (the
        #: proportionality of Figure 5), not in one burst.
        self._burst = float(min(16, nack_window_ticks))
        self._tokens = self._burst
        self._tokens_at = scheduler.now
        self._resume_scheduled = False
        self.events_refiltered_out = 0
        self.knowledge = KnowledgeStream(pubend, consumed=start_ts)
        self.curiosity = CuriosityStream(scheduler, pubend, send_nack)
        self._tracer = event_tracer(scheduler)
        self.started_at_ms = scheduler.now
        self.start_ts = start_ts
        self.closed = False
        self.events_delivered = 0
        self.gap_ticks = 0
        self.pfs_reads = 0
        self._pumping = False
        self._repump = False
        # Q ticks from the current PFS read not yet handed to curiosity
        # (flow control: released in windows as delivery progresses).
        self._unrequested: List[int] = []
        self._covered_to = start_ts  # PFS knowledge requested up to here
        self._read_in_flight = False
        # Watch the constream so we re-read when latestDelivered moves.
        constream.on_latest_delivered(self._on_latest_delivered)
        self._kick()

    # ------------------------------------------------------------------
    # Target
    # ------------------------------------------------------------------
    @property
    def target(self) -> int:
        """Catchup is complete when the cursor reaches this value.

        The constream's *delivery cursor*: every tick at or below it
        has already been pumped to non-catchup subscribers (and written
        to the PFS, whose reads see staged records), and every tick
        above it will be pumped after this subscriber switches over.
        Capping here makes the handoff exactly-once in both directions.
        """
        return self.constream.delivered_cursor

    @property
    def cursor(self) -> int:
        return self.knowledge.consumed

    # ------------------------------------------------------------------
    # PFS reads
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        if self.closed:
            return
        if self._maybe_switchover():
            return
        if self._buffer_exhausted() and self._covered_to < min(self.refilter_until, self.target):
            # Refiltering span: the PFS cannot answer for this
            # subscriber here.  Request the next window wholesale; D
            # replies are filtered in _pump_once.  The window counts
            # events, not ticks: after the first one, each spans the
            # ticks that the events seen so far say hold a window's
            # worth, and a span that held none is requested whole (an
            # empty log on an epoch-ms clock is one nack).  The PHB's
            # reply cap bounds what any one reply brings.
            window = self.nack_window_ticks
            if self.undelivered >= window:
                return  # window full; resume when deliveries drain
            covered = self._covered_to - self.start_ts
            seen = self.events_delivered + self.events_refiltered_out
            span = covered * window // seen if seen else (self.refilter_until if covered else window)
            span_end = min(self._covered_to + span, self.refilter_until, self.target)
            self.curiosity.want(self._covered_to + 1, span_end)
            self._covered_to = span_end
            return
        if not self._read_in_flight and self._buffer_exhausted() and self._covered_to < self.target:
            self._read_in_flight = True
            # Snapshot the constream's delivery cursor *now*: the PFS
            # contents and this cursor are consistent at this instant,
            # and the silence-fill in _read_done must not extend past
            # it (Q ticks written after this snapshot would otherwise
            # be silently skipped).
            target_at_read = self.target
            result = self.pfs.read_batch(
                self.pubend, self.sub.num, after=self._covered_to, buffer_qs=self.buffer_qs
            )
            cost = PFS_READ_BASE_COST_MS + PFS_READ_COST_PER_RECORD_MS * result.records_visited
            self._run_costed(cost, lambda: self._read_done(result, target_at_read))
        else:
            self._request_more()

    def _buffer_exhausted(self) -> bool:
        """All Q ticks of the previous read nacked and delivered."""
        return (
            not self._unrequested
            and self.curiosity.outstanding_ticks == 0
            and self.cursor >= min(self._covered_to, self.target)
        )

    def _read_done(self, result: PFSReadResult, target_at_read: int) -> None:
        self._read_in_flight = False
        if self.closed:
            return
        self.pfs_reads += 1
        # Update the event-rate estimate from the read's Q-tick density
        # (timestamps are milliseconds, so density × 1000 = events/s),
        # over the ticks the log could hold a record for: a subscriber
        # with no checkpoint reads from tick 0, and on an epoch-ms
        # clock the first logged tick is 1.8e12 ticks above that.
        span = result.covered_to - max(result.after, result.logged_from - 1)
        if span > 200 and result.q_ticks:
            self._rate_eps = len(result.q_ticks) * 1000.0 / span
        cursor = self.knowledge.consumed
        # Ticks below the PFS chop point are unknown here; nack them —
        # the pubend answers L (released) or better (cache hits).
        if result.known_from > cursor + 1:
            self.curiosity.want(cursor + 1, result.known_from - 1)
        # The PFS speaks for ticks up to covered_to.  When the read
        # reached lastTimestamp, ticks between covered_to and the
        # delivery cursor *at snapshot time* are final too: the
        # constream writes the PFS in timestamp order before advancing
        # its cursor, so a tick at or below the snapshot cursor with no
        # PFS record matched nobody — silence for this subscriber as
        # well.  (The *current* cursor must not be used: Q ticks may
        # have been written between the snapshot and this callback.)
        #
        # The span never extends past the snapshot cursor either.  A
        # recovered SHB's PFS runs ahead of its committed cursor (the
        # constream rewrites those records as it re-delivers), and a
        # nack for a tick above the cursor is answered into the
        # constream, not into this stream — whose curiosity would then
        # sit out a full retry window (1–2 s) for knowledge that has
        # already gone by.  Those ticks are read again once the cursor
        # has passed them.
        span_end = result.covered_to
        if result.reached_last_timestamp or span_end > target_at_read:
            span_end = target_at_read
        # Within the covered span: q_ticks are Q, the rest S.
        span_start = max(cursor + 1, result.known_from)
        if span_end >= span_start:
            q_set = IntervalSet([(t, t) for t in result.q_ticks if span_start <= t <= span_end])
            for s_iv in q_set.complement_within(span_start, span_end):
                self.knowledge.accumulate_silence(s_iv.start, s_iv.end)
            self._unrequested.extend(
                t for t in result.q_ticks if span_start <= t <= span_end
            )
        self._covered_to = max(self._covered_to, span_end)
        self._request_more()
        self.pump()

    def _request_more(self) -> None:
        """Flow control: keep at most ``nack_window_ticks`` in flight.

        "In flight" spans the whole pipeline: ticks nacked upstream and
        not yet answered, plus answered events not yet actually sent to
        the client.
        """
        if self.closed:
            return
        room = (
            self.nack_window_ticks
            - self.curiosity.outstanding_ticks
            - self.undelivered
        )
        if room <= 0 or not self._unrequested:
            return
        room = self._take_tokens(min(room, len(self._unrequested)))
        if room <= 0:
            return
        batch, self._unrequested = self._unrequested[:room], self._unrequested[room:]
        want = IntervalSet()
        for t in batch:
            want.add(t)
        self.curiosity.want_set(want)

    # ------------------------------------------------------------------
    # Rate pacing
    # ------------------------------------------------------------------
    def _take_tokens(self, wanted: int) -> int:
        """Grant up to ``wanted`` request tokens; schedule a resume when
        the bucket limits progress."""
        if self._rate_eps is None:
            return wanted
        rate = RATE_BOOST * self._rate_eps
        now = self.scheduler.now
        self._tokens = min(
            self._burst,
            self._tokens + (now - self._tokens_at) * rate / 1000.0,
        )
        self._tokens_at = now
        granted = min(wanted, int(self._tokens))
        self._tokens -= granted
        if granted < wanted and not self._resume_scheduled:
            # Resume once the bucket can cover what is still wanted; it
            # never holds more than the burst, so waiting longer than
            # that takes to refill buys nothing.
            need = min(wanted - granted, self._burst)
            self._resume_scheduled = True
            self.scheduler.after(need * 1000.0 / rate, self._resume_after_tokens)
        return granted

    def _resume_after_tokens(self) -> None:
        self._resume_scheduled = False
        if not self.closed:
            self._request_more()
            self._kick()

    # ------------------------------------------------------------------
    # Knowledge intake
    # ------------------------------------------------------------------
    def on_knowledge(self, update: KnowledgeUpdate) -> None:
        """A nack reply (or cached knowledge) routed to this stream."""
        if self.closed:
            return
        if self._tracer.tracing and update.d_events:
            for event in update.d_events:
                self._tracer.note_arrival(event.event_id)
        self.knowledge.accumulate(update)
        for start, end in update.s_ranges:
            self.curiosity.resolve(start, end)
        for start, end in update.l_ranges:
            self.curiosity.resolve(start, end)
        for event in update.d_events:
            self.curiosity.resolve(event.timestamp, event.timestamp)
        self.pump()

    def _on_latest_delivered(self, _t: int) -> None:
        if not self.closed:
            self._kick()

    def on_delivery_sent(self) -> None:
        """Host callback: one event message left the broker."""
        if self.closed:
            return
        if self.undelivered > 0:
            self.undelivered -= 1
        self._request_more()
        self._kick()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Deliver newly-resolved runs in order; check switchover.

        Re-entrant calls (a PFS read completing synchronously inside a
        delivery, etc.) are deferred to the outer invocation so message
        order per subscriber is preserved.
        """
        if self._pumping:
            self._repump = True
            return
        self._pumping = True
        try:
            while not self.closed:
                self._repump = False
                self._pump_once()
                if not self._repump:
                    break
        finally:
            self._pumping = False

    def _pump_once(self) -> None:
        runs = self.knowledge.advance(limit=self.target)
        for run in runs:
            if run.kind is Tick.D:
                assert run.event is not None
                if run.event.expired(self.scheduler.now):
                    # Publisher-specified expiration: skip delivery;
                    # the CT still advances via the silence marker.
                    self.deliver(SilenceMessage(self.pubend, run.end))
                    continue
                if run.start <= self.refilter_until and not self.sub.predicate.matches(
                    run.event.attributes
                ):
                    # Refiltered span: the event came back because we
                    # asked for *all* ticks; it does not match this
                    # subscription — silence, not delivery.
                    self.events_refiltered_out += 1
                    self.deliver(SilenceMessage(self.pubend, run.end))
                    continue
                self.undelivered += 1
                if self._tracer.tracing:
                    self._tracer.on_catchup_resolve(run.event.event_id, self.pubend)
                self.deliver(EventMessage(self.pubend, run.start, run.event))
                self.events_delivered += 1
            elif run.kind is Tick.S:
                self.deliver(SilenceMessage(self.pubend, run.end))
            elif run.kind is Tick.L:
                self.gap_ticks += len(run)
                self.deliver(GapMessage(self.pubend, run.end))
        if runs:
            self.curiosity.resolve_below(self.knowledge.consumed + 1)
        self._kick()

    # ------------------------------------------------------------------
    # Switchover / teardown
    # ------------------------------------------------------------------
    def _maybe_switchover(self) -> bool:
        # A refilter span (silence there may lack this subscription)
        # ends before the constream takes over.
        if self.cursor >= self.target and (self.caches_valid or self.cursor >= self.refilter_until):
            self.close()
            self.on_switchover()
            return True
        return False

    @property
    def catchup_duration_ms(self) -> float:
        return self.scheduler.now - self.started_at_ms

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.curiosity.close()
        self.constream.remove_latest_delivered_listener(self._on_latest_delivered)
