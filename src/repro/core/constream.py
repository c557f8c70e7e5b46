"""The consolidated stream (Section 4.1).

One constream per (SHB, pubend) drives *all* connected subscribers that
are not in catchup mode — the consolidation that lets an SHB host many
subscribers.  It maintains:

* ``latestDelivered(p)`` — the latest event delivered to all
  non-catchup subscribers **and** durably logged in the PFS.  Persisted
  in a table so it survives SHB crashes.
* the doubt horizon — highest timestamp with no Q below it; events
  between ``latestDelivered`` and the horizon are delivered in sequence.
* ``released(s, p)`` per subscriber (held in the
  :class:`~repro.core.subscription.SubscriptionRegistry`) and the
  derived ``released(p) = min(latestDelivered, min_s released(s, p))``.

Delivery discipline: an event is *delivered* to a subscriber the moment
it is enqueued on the FIFO link (no application-level ack), but
delivery to the **PFS** completes only when the record is durable —
``latestDelivered`` advances to a tick only once every D tick at or
below it has a durable PFS record.  The constream never emits a gap
message: the release protocol guarantees no tick above
``latestDelivered`` is ever converted to L, and an L run reaching this
stream is a protocol violation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional

from ..matching.engine import MatchingEngine
from ..metrics.trace import event_tracer
from ..port.clock import Clock
from ..pfs.pfs import PersistentFilteringSubsystem
from ..storage.table import PersistentTable
from ..util.errors import ProtocolError
from .knowledge import KnowledgeStream
from .messages import EventMessage, KnowledgeUpdate, SilenceMessage
from .subscription import SubscriptionRegistry
from .ticks import Tick

DeliverFn = Callable[[str, object], None]
DeliverBatchFn = Callable[[str, List[EventMessage]], None]

#: A non-catchup subscriber sent nothing for this many ticks gets a
#: silence message, so its CT keeps up with ``latestDelivered``.
SILENCE_LAG_MS = 200

#: Period of the check that sends those silence messages.
SILENCE_INTERVAL_MS = 100.0


class ConsolidatedStream:
    """The shared delivery stream for non-catchup subscribers."""

    def __init__(
        self,
        pubend: str,
        scheduler: Clock,
        registry: SubscriptionRegistry,
        engine: MatchingEngine,
        pfs: PersistentFilteringSubsystem,
        meta_table: PersistentTable,
        deliver: DeliverFn,
        deliver_batch: Optional[DeliverBatchFn] = None,
    ) -> None:
        self.pubend = pubend
        self.scheduler = scheduler
        self.registry = registry
        self.engine = engine
        self.pfs = pfs
        self.meta_table = meta_table
        self.deliver = deliver
        #: When set, a pump hands each subscriber its matched events for
        #: the whole doubt-horizon advance as one list (one broker CPU
        #: job and one wire batch per subscriber per pump) instead of
        #: one ``deliver`` call per event.
        self.deliver_batch = deliver_batch
        self._meta_key = f"latestDelivered:{pubend}"
        #: Recovered from the committed table on construction: after an
        #: SHB crash the constream resumes from the durable value.
        self.latest_delivered: int = meta_table.get(self._meta_key, 0)
        self.knowledge = KnowledgeStream(pubend, consumed=self.latest_delivered)
        self._pending_pfs: Deque[int] = deque()  # D ticks awaiting PFS durability
        self._non_catchup: Dict[str, int] = {}   # sub_id -> last message timestamp
        self._listeners: List[Callable[[int], None]] = []
        self.events_delivered = 0
        self.silences_sent = 0
        self.expired_skipped = 0
        self.fanout_batches = 0  # deliver_batch calls issued
        self._pumping = False
        self._repump = False
        # Per-match-set work, memoized by the set's value: the engine
        # hands back a fresh frozenset per event, and equal sets recur
        # across events.  ``_nums_cache`` (match set -> PFS nums, in the
        # set's own iteration order) is guarded by the registry version,
        # since drop/re-create can rebind a sub_id to a new num;
        # ``_order_cache`` (match set -> sorted fan-out order) depends
        # on nothing but the set itself.
        self._nums_cache: Dict[frozenset, List[int]] = {}
        self._nums_cache_version = registry.version
        self._order_cache: Dict[frozenset, List[str]] = {}
        self._tracer = event_tracer(scheduler)
        self._silence_timer = scheduler.every(SILENCE_INTERVAL_MS, self._silence_tick)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_non_catchup(self, sub_id: str, floor: Optional[int] = None) -> None:
        """A connected subscriber joins (new, or finished catching up).

        ``floor`` is the subscriber's resume point: no tick at or below
        it is delivered.  It defaults to the current delivery cursor
        (right for catchup switchover and brand-new subscriptions) but
        can be *ahead* of it — an SHB recovering from a crash replays
        from its committed latestDelivered, while a reconnecting
        subscriber's CT reflects everything the previous incarnation
        already delivered; redelivering would violate exactly-once.
        """
        if floor is None:
            floor = self.delivered_cursor
        self._non_catchup[sub_id] = max(floor, self.delivered_cursor)

    def remove_subscriber(self, sub_id: str) -> None:
        """Subscriber disconnected (it becomes catchup on reconnect)."""
        self._non_catchup.pop(sub_id, None)

    def on_latest_delivered(self, fn: Callable[[int], None]) -> None:
        """Register a listener for latestDelivered advances."""
        self._listeners.append(fn)

    def remove_latest_delivered_listener(self, fn: Callable[[int], None]) -> None:
        """Deregister a listener (catchup streams do this on switchover)."""
        try:
            self._listeners.remove(fn)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Knowledge intake and delivery
    # ------------------------------------------------------------------
    @property
    def doubt_horizon(self) -> int:
        return self.knowledge.doubt_horizon

    def accumulate_many(self, updates: Iterable[KnowledgeUpdate]) -> None:
        """Fold every update of one intake, then pump once over the
        combined advance."""
        for update in updates:
            self.knowledge.accumulate(update)
        self.pump()

    @property
    def delivered_cursor(self) -> int:
        """The subscriber-delivery cursor: every tick at or below it has
        been pumped (enqueued to matching non-catchup subscribers and
        written to the PFS, though not necessarily PFS-durable yet).

        ``latest_delivered`` trails this by the PFS sync window; catchup
        switchover and new-subscriber starting points use this cursor,
        while crash recovery and the release protocol use the durable
        ``latest_delivered``.
        """
        return self.knowledge.consumed

    def pump(self) -> None:
        """Deliver every newly-resolved tick in order (Section 4.1).

        Re-entrant calls (e.g. from a synchronous PFS-durability
        callback of a write issued inside the pump) are deferred so
        delivery order is preserved: the outer invocation drains until
        no new knowledge remains.
        """
        if self._pumping:
            self._repump = True
            return
        self._pumping = True
        try:
            while True:
                self._repump = False
                self._pump_once()
                if not self._repump:
                    break
        finally:
            self._pumping = False

    def _pump_once(self) -> None:
        runs = self.knowledge.advance()
        # Pass 1 — classify: collect the live D ticks of the whole
        # advance and batch-match them in one engine call.  Matching is
        # pure CPU (no scheduling, no delivery), so hoisting it out of
        # the delivery loop cannot reorder any externally visible
        # action; it only lets the engine amortize index probes and
        # counting across the coalesced tick-range.
        live: List = []
        for run in runs:
            if run.kind is Tick.L:
                raise ProtocolError(
                    f"L tick {run.start} above latestDelivered reached constream "
                    f"{self.pubend} — release protocol violation"
                )
            if run.kind is not Tick.D:
                continue
            event = run.event
            assert event is not None
            if event.expired(self.scheduler.now):
                # JMS-style publisher expiration: an expired event is
                # delivered to nobody and needs no PFS record (catchup
                # reads correctly see the tick as silence).
                self.expired_skipped += 1
                continue
            live.append((run.start, event))
        if not live:
            self._recompute_latest_delivered()
            return
        match_sets = self.engine.match_at_batch(
            [(event.event_id, event.attributes) for _t, event in live]
        )
        # Pass 2 — PFS: collect the advance's Q ticks and hand the PFS
        # ONE columnar append for the whole advance.  The PFS stages
        # the identical per-tick logical disk writes (so sync batching
        # and durability-ack order are byte-identical to the per-tick
        # write loop) and acknowledges each tick through
        # ``_pfs_durable`` as it becomes crash-safe.
        items: List = []
        for (t, event), matched in zip(live, match_sets):
            if self._tracer.tracing:
                self._tracer.on_match(event.event_id, self.pubend)
            nums = self._nums_for(matched)
            if nums:
                # The PFS logs the Q tick for every matching durable
                # subscriber, connected or not.
                items.append((t, nums))
        if items:
            self._pending_pfs.extend(t for t, _nums in items)
            self.pfs.write_batch(self.pubend, items, on_durable=self._pfs_durable)
        # Pass 3 — deliver: per tick in order, per subscriber in the
        # match set's order.  Unbatched, each (tick, subscriber) is one
        # ``deliver`` call, in the set's own iteration order; batched,
        # the subscribers are visited sorted and each one's events
        # gather into one list, handed to ``deliver_batch`` per
        # subscriber in first-touch order after the advance.  Event
        # messages carry no per-subscriber state and nothing on the
        # delivery path mutates a payload (see Frame), so one shared
        # message per tick fans out to every subscriber.
        batches: Optional[Dict[str, List[EventMessage]]] = (
            {} if self.deliver_batch is not None else None
        )
        for (t, event), matched in zip(live, match_sets):
            msg: Optional[EventMessage] = None
            for sub_id in matched if batches is None else self._order_for(matched):
                last_sent = self._non_catchup.get(sub_id)
                if last_sent is not None and t > last_sent:
                    if msg is None:
                        # Pooled across the fan-out loop: one shared
                        # message per tick, and none at all when no
                        # connected subscriber wants the tick (the
                        # common case at scale — headless durables).
                        msg = EventMessage(self.pubend, t, event)
                    if batches is None:
                        self.deliver(sub_id, msg)
                    else:
                        batches.setdefault(sub_id, []).append(msg)
                    self._non_catchup[sub_id] = t
                    self.events_delivered += 1
        if batches:
            assert self.deliver_batch is not None
            for sub_id, msgs in batches.items():
                self.deliver_batch(sub_id, msgs)
                self.fanout_batches += 1
        self._recompute_latest_delivered()

    def _nums_for(self, matched: frozenset) -> List[int]:
        """PFS subscriber nums for a match set, memoized per set.

        Iterates ``matched`` itself (not a sorted copy): the PFS record
        order is the set's own iteration order.
        """
        if self._nums_cache_version != self.registry.version:
            # Any registry membership change may rebind sub_id -> num.
            self._nums_cache.clear()
            self._nums_cache_version = self.registry.version
        nums = self._nums_cache.get(matched)
        if nums is None:
            if len(self._nums_cache) >= 4096:
                self._nums_cache.clear()
            nums = []
            for sub_id in matched:
                sub = self.registry.get(sub_id)
                if sub is not None:
                    nums.append(sub.num)
            self._nums_cache[matched] = nums
        return nums

    def _order_for(self, matched: frozenset) -> List[str]:
        """The sorted fan-out order of a match set, memoized per set."""
        order = self._order_cache.get(matched)
        if order is None:
            if len(self._order_cache) >= 4096:
                self._order_cache.clear()
            order = self._order_cache[matched] = sorted(matched)
        return order

    def _pfs_durable(self, t: int) -> None:
        if self._pending_pfs and self._pending_pfs[0] == t:
            self._pending_pfs.popleft()
        else:  # pragma: no cover - PFS durability is FIFO
            try:
                self._pending_pfs.remove(t)
            except ValueError:
                return
        self._recompute_latest_delivered()

    def _recompute_latest_delivered(self) -> None:
        if self._pending_pfs:
            candidate = self._pending_pfs[0] - 1
        else:
            candidate = self.knowledge.consumed
        if candidate > self.latest_delivered:
            self.latest_delivered = candidate
            self.meta_table.put(self._meta_key, candidate)
            for fn in self._listeners:
                fn(candidate)

    # ------------------------------------------------------------------
    # Silence to prevent CT lag (Section 4.1)
    # ------------------------------------------------------------------
    def _silence_tick(self) -> None:
        horizon = self.latest_delivered
        msg: Optional[SilenceMessage] = None  # shared by every lagging sub
        for sub_id, last_sent in list(self._non_catchup.items()):
            if horizon - last_sent >= SILENCE_LAG_MS:
                if msg is None:
                    msg = SilenceMessage(self.pubend, horizon)
                self.deliver(sub_id, msg)
                self._non_catchup[sub_id] = horizon
                self.silences_sent += 1

    # ------------------------------------------------------------------
    # Release bookkeeping
    # ------------------------------------------------------------------
    @property
    def released(self) -> int:
        """``released(p)`` — the highest timestamp that can be released."""
        min_sub = self.registry.min_released(self.pubend)
        if min_sub is None:
            return self.latest_delivered
        return min(self.latest_delivered, min_sub)

    def fast_forward(self, cursor: int) -> None:
        """Supervised-join bootstrap: adopt ``cursor`` as already seen.

        A freshly admitted SHB owes history to nobody (it hosts no
        subscriptions yet); instead of nacking the pubend's entire past,
        the supervisor hands it the current dissemination point and this
        stream treats everything at or below it as consumed.  The caller
        commits the meta table afterwards.
        """
        if cursor <= self.latest_delivered:
            return
        self.knowledge.consumed = max(self.knowledge.consumed, cursor)
        self.knowledge.tickmap.forget_below(cursor + 1)
        self.latest_delivered = cursor
        self.meta_table.put(self._meta_key, cursor)
        for fn in self._listeners:
            fn(cursor)

    @property
    def committed_latest_delivered(self) -> int:
        """The crash-durable latestDelivered — where recovery resumes.

        Release reports must be capped here: if the pubend converted a
        tick above this value to L and the SHB then crashed, the
        recovering constream would replay into the released region and
        be forced to emit gaps to well-behaved subscribers, which the
        protocol forbids.
        """
        return self.meta_table.get_committed(self._meta_key, 0)

    def close(self) -> None:
        self._silence_timer.cancel()
