"""Intermediate brokers: caching, filtering and nack consolidation.

Section 3: *"Intermediate knowledge streams serve as caches of data
that increase scalability of recovery, by responding to nacks, and
curiosity streams consolidate nacks from multiple SHBs."*

An intermediate broker sits between the PHB and a set of children.  It
keeps a bounded in-memory knowledge cache per pubend; head knowledge is
forwarded downstream per child with D→S filtering against that child's
subscription union (each update classified once for all children, see
:class:`~repro.broker.base.LinkFilter`), and nacks from below are
answered from the cache where possible, consolidated (one upstream nack
per range per retry window) otherwise.  Nack replies arriving from upstream are routed only
to the children whose registered interest intersects them.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core import messages as M
from ..core.curiosity import NackConsolidator
from ..metrics.trace import SPAN_INTERMEDIATE_FORWARD
from ..core.release import ReleaseAggregator
from ..core.tickmap import TickMap
from ..matching.engine import PredicateSet
from ..matching.predicates import Everything
from ..port.clock import Clock
from ..port.executor import Executor
from ..util.intervals import IntervalSet
from .base import SUBSCRIPTION_REFRESH_MS, Broker, LinkFilter

#: Releases are re-reported upstream at this period (see ``__init__``).
RELEASE_RESEND_MS = 1_000.0

#: Span of recent ticks each relay's knowledge cache keeps for
#: answering nacks from below.
RELAY_CACHE_SPAN_MS = 30_000

#: The set a childless intermediate announces: a wildcard.
_CHILDLESS = PredicateSet()
_CHILDLESS.add(Everything())


class _PubendRelay:
    """Per-pubend relay state at an intermediate broker."""

    def __init__(self, pubend: str, scheduler: Clock) -> None:
        self.pubend = pubend
        self.cache = TickMap()
        self.consolidator = NackConsolidator(scheduler)
        self.release_agg = ReleaseAggregator(pubend)
        self.last_release_sent: Optional[Tuple[int, int]] = None
        #: Epoch carried on upstream ReleaseUpdates.  Bumped whenever
        #: the aggregate legitimately regresses (a child reported a
        #: migration-install regression under a bumped epoch of its
        #: own), so the parent's aggregator accepts the lower minima.
        self.upstream_epoch = 0
        #: Per-child contiguous forwarding horizon: ticks at or below it
        #: have already been offered to that child as head knowledge.
        self.sent_cursor: Dict[str, int] = {}
        #: Per-child refilter floor: the highest ``refilter_below`` any
        #: nack from that child has carried.  Nack replies routed back
        #: down must not D→S-filter events below it — the child is
        #: refiltering that span itself on behalf of a subscription our
        #: union may not (yet) include.  Monotone: keeping the floor
        #: after the catchup finishes only passes extra events the
        #: child asked about, never hides one.
        self.refilter_floor: Dict[str, int] = {}


class IntermediateBroker(Broker):
    """A pure relay: no pubends, no subscribers, just scalability."""

    def __init__(
        self,
        scheduler: Clock,
        name: str,
        node: Optional[Executor] = None,
    ) -> None:
        super().__init__(scheduler, name, node)
        self._relays: Dict[str, _PubendRelay] = {}
        self.cache_hits = 0
        self.cache_miss_ticks = 0
        # Lossy-link resilience: children refresh *us* with their own
        # epochs; we refresh the parent with ours (forwarding child
        # epochs verbatim would interleave several children's epoch
        # numbering on one uplink).  Releases are re-reported
        # periodically because the changed-aggregate dedup in
        # _on_release would otherwise never resend a lost update.
        self._upstream_refresh_due = False
        # Coverage-confirmation relay (see M.SubscriptionSynced): child
        # sync epochs awaiting a root-applied ack, and the mapping from
        # our own upstream refresh epochs to the child epochs each one
        # covers.  Volatile — a child whose ack dies with us retries
        # its confirmation refresh.
        self._pending_sync_acks: Dict[str, int] = {}
        self._cover_upstream: list = []  # (own_epoch, child, child_epoch)
        # Relays (and their upstream epochs) are volatile; after a
        # crash the rebuilt relays would restart at epoch 0 and the
        # parent — which remembers the pre-crash epoch — would discard
        # every report.  The floor, reset to the recovery time, keeps
        # post-recovery epochs monotone across the crash.
        self._release_epoch_floor = 0
        self.scheduler.every(SUBSCRIPTION_REFRESH_MS, self._refresh_upstream)
        self.scheduler.every(RELEASE_RESEND_MS, self._resend_release)

    def _relay(self, pubend: str) -> _PubendRelay:
        relay = self._relays.get(pubend)
        if relay is None:
            relay = _PubendRelay(pubend, self.scheduler)
            for child in self.child_names:
                relay.release_agg.register_child(child)
                relay.sent_cursor[child] = 0
            self._relays[pubend] = relay
        return relay

    def register_release_child(self, pubend: str, child: str) -> None:
        """Topology hook mirroring the PHB's (idempotent)."""
        self._relay(pubend).release_agg.register_child(child)

    def unregister_release_child(self, pubend: str, child: str) -> None:
        """Drain hook: drop a detached child from the aggregate."""
        relay = self._relays.get(pubend)
        if relay is not None:
            relay.release_agg.unregister_child(child)

    def forget_child(self, child: str) -> None:
        """Purge all per-child relay state after a child detaches.

        Called by the topology detach path *after* the broker-level
        unwiring; leaves the relays consistent so a later re-attach of
        a same-named broker starts cold rather than inheriting cursors.
        """
        for relay in self._relays.values():
            relay.release_agg.unregister_child(child)
            relay.sent_cursor.pop(child, None)
            relay.refilter_floor.pop(child, None)
            relay.consolidator.drop_requester(child)
        self._pending_sync_acks.pop(child, None)
        self._cover_upstream = [
            t for t in self._cover_upstream if t[1] != child
        ]

    # ------------------------------------------------------------------
    # Downstream flow: knowledge from the parent
    # ------------------------------------------------------------------
    def _handle_from_parent(self, msg: object) -> None:
        if isinstance(msg, M.KnowledgeUpdate):
            self._on_knowledge(msg)
        elif isinstance(msg, M.SubscriptionSynced):
            self._on_cover_ack(msg)
        elif isinstance(msg, M.SubscriptionResend):
            self._on_subscription_resend(msg)

    def _on_cover_ack(self, ack: M.SubscriptionSynced) -> None:
        """A refresh of ours is applied root-to-here; ack the children
        whose confirmation requests it covered, each with the parent's
        bound on hidden ticks merged into ours for that child (a tick
        hidden from us reaches the child as S too)."""
        due = [(c, ce) for (e, c, ce) in self._cover_upstream if e <= ack.epoch]
        self._cover_upstream = [t for t in self._cover_upstream if t[0] > ack.epoch]
        for child, child_epoch in due:
            self._ack_child_sync(child, child_epoch, ack)

    def _on_knowledge(self, update: M.KnowledgeUpdate) -> None:
        relay = self._relay(update.pubend)
        relay.cache.absorb(update)  # cache everything (bounded)
        relay.cache.keep_span(RELAY_CACHE_SPAN_MS)
        # The bounds are a property of the update, not of the child.
        bounds = update.tick_bounds()
        if bounds is None:
            return
        hi = bounds[1]
        t0 = self.scheduler.now  # relay intake time, for forward spans
        links = self._link_filter(update)
        # Children at the same cursor share one split (and so, with the
        # same link bits, one filtered instance).
        splits: Dict[int, Tuple[M.KnowledgeUpdate, M.KnowledgeUpdate]] = {}
        for child in self.child_names:
            cursor = relay.sent_cursor.get(child, 0)
            split = splits.get(cursor)
            if split is None:
                split = splits[cursor] = M.split_update(update, cursor, bounds)
            old, new = split
            if not new.is_empty():
                filtered = links.for_child(child, new)
                relay.sent_cursor[child] = max(cursor, hi)
                cost = self.costs.forward_per_link_event_ms * max(1, len(new.d_events))
                self._forward(
                    child, filtered, cost, t0, SPAN_INTERMEDIATE_FORWARD, head=True
                )
            if not old.is_empty():
                self._route_old_knowledge(relay, child, old, links)
        # Interest satisfied for everything this update covered.
        relay.consolidator.satisfy_update(update)

    def _route_old_knowledge(
        self, relay: _PubendRelay, child: str, old: M.KnowledgeUpdate,
        links: LinkFilter,
    ) -> None:
        """Send the parts of an old update the child actually asked for."""
        interest = relay.consolidator.interest_of(child)
        if not interest:
            return
        pieces = M.clip_update_to_set(old, interest)
        if not pieces.is_empty():
            filtered = links.for_child(
                child, pieces, keep_below=relay.refilter_floor.get(child, 0)
            )
            cost = self.costs.forward_per_link_event_ms * max(1, len(pieces.d_events))
            self._forward(
                child, filtered, cost, self.scheduler.now, SPAN_INTERMEDIATE_FORWARD
            )

    # ------------------------------------------------------------------
    # Upstream flow: nacks, release, subscriptions from children
    # ------------------------------------------------------------------
    def _handle_from_child(self, child: str, msg: object) -> None:
        if isinstance(msg, M.Nack):
            self._on_nack(child, msg)
        elif isinstance(msg, M.ReleaseUpdate):
            self._on_release(child, msg)
        elif isinstance(msg, M.SubscriptionAdd):
            if self._on_subscription_add(child, msg):
                # New to our own union: widen the parent's copy now.
                self.send_up(msg)
        elif isinstance(msg, M.SubscriptionSync):
            warmed = self._on_subscription_sync(child, msg)
            if msg.want_ack and self._applied_sub_epoch.get(child, -1) >= msg.epoch:
                # The child wants root-applied confirmation: remember
                # its epoch; the next upstream refresh carries it.
                prev = self._pending_sync_acks.get(child, -1)
                self._pending_sync_acks[child] = max(prev, msg.epoch)
            if warmed and (
                self._upstream_refresh_due
                or self._pending_sync_acks
                or self._resend_owed is not None
            ):
                # First full warm-up after our recovery — or a
                # confirmation or a resend waiting — push the verified
                # union up now rather than next interval (refreshes
                # hold back until every child has re-synced).
                self._refresh_upstream()

    def _on_nack(self, child: str, nack: M.Nack) -> None:
        relay = self._relay(nack.pubend)
        if nack.refilter_below > relay.refilter_floor.get(child, 0):
            relay.refilter_floor[child] = nack.refilter_below
        # Answer from the cache first; the rest goes upstream.
        reply, unresolved = relay.cache.answer(
            nack.pubend, IntervalSet(nack.ranges), nack.refilter_below
        )
        if not reply.is_empty():
            self.cache_hits += 1
            filtered = self._link_filter(reply).for_child(
                child, keep_below=relay.refilter_floor.get(child, 0)
            )
            cost = self.costs.serve_nack_per_event_ms * max(1, len(reply.d_events))
            self._forward(
                child, filtered, cost, self.scheduler.now, SPAN_INTERMEDIATE_FORWARD
            )
        if unresolved:
            self.cache_miss_ticks += unresolved.tick_count()
            relay.consolidator.register(child, unresolved)
            due = relay.consolidator.to_forward(unresolved)
            if due:
                self.send_up(
                    M.Nack(nack.pubend, due.as_tuples(), refilter_below=nack.refilter_below)
                )

    def _on_release(self, child: str, msg: M.ReleaseUpdate) -> None:
        relay = self._relay(msg.pubend)
        relay.release_agg.update(child, msg.released, msg.latest_delivered, epoch=msg.epoch)
        agg = relay.release_agg.aggregate()
        if agg is not None and agg != relay.last_release_sent:
            self._send_release(relay, agg)

    def _send_release(self, relay: _PubendRelay, agg: Tuple[int, int]) -> None:
        """Report ``agg`` = (released, latest delivered) upstream."""
        prev = relay.last_release_sent
        if prev is not None and (agg[0] < prev[0] or agg[1] < prev[1]):
            # A child's epoch bump lowered the aggregate; bump our own
            # upstream epoch so the parent accepts it too.
            relay.upstream_epoch = max(relay.upstream_epoch + 1, int(self.scheduler.now))
        relay.last_release_sent = agg
        epoch = max(relay.upstream_epoch, self._release_epoch_floor)
        self.send_up(M.ReleaseUpdate(relay.pubend, agg[0], agg[1], epoch=epoch))

    # ------------------------------------------------------------------
    # Lossy-link resilience (periodic upstream re-sync)
    # ------------------------------------------------------------------
    def _upstream_set(self) -> Optional[PredicateSet]:
        """Every predicate some child's union holds, counted once per
        child (:attr:`LinkIndex.members`), so its digest is kept up to
        date per change, not summed per refresh.

        A childless intermediate (a spare), onto which a subtree may move
        at any moment, announces a wildcard: its ancestors warm, and no
        link above it filters what such a subtree needs (PROTOCOL.md §7).

        None while any child is cold: an incomplete union must not
        warm the parent (it would filter events the cold child needs).
        """
        if self._parent_send is None or self.node.is_down:
            return None
        if not self.child_filter_ready:
            return _CHILDLESS
        if not all(self.child_filter_ready.values()):
            return None
        return self.links.members

    def _refresh_upstream(self) -> None:
        """Refresh the parent (:meth:`Broker._send_union_up`), carrying
        every child confirmation collected so far."""
        want_ack = bool(self._pending_sync_acks)
        epoch = self._send_union_up(want_ack)
        if epoch is None:
            return
        self._upstream_refresh_due = False
        if want_ack:
            # When the parent acks this epoch (or a later one), the
            # children's confirmations are answered.
            for child, child_epoch in self._pending_sync_acks.items():
                self._cover_upstream.append((epoch, child, child_epoch))
            self._pending_sync_acks.clear()

    def _resend_release(self) -> None:
        if self.node.is_down:
            return
        for relay in self._relays.values():
            agg = relay.release_agg.aggregate()
            if agg is not None:
                self._send_release(relay, agg)

    # ------------------------------------------------------------------
    # Failure handling: an intermediate has no persistent state
    # ------------------------------------------------------------------
    def _on_node_recover(self) -> None:
        self._relays.clear()
        self._upstream_refresh_due = True
        # Confirmation state died with the node; children whose acks
        # were in flight re-request via their install retries.
        self._pending_sync_acks.clear()
        self._cover_upstream.clear()
        # Rebuilt relays restart at epoch 0; keep upstream epochs
        # monotone across the crash so the parent accepts our reports.
        self._release_epoch_floor = int(self.scheduler.now)

    def _on_uplink_restored(self) -> None:
        """Partition toward the parent healed: re-sync eagerly."""
        if self.node.is_down:
            return
        self._refresh_upstream()
        self._resend_release()
        for relay in self._relays.values():
            # Forwards suppressed as "already asked" died with the old
            # connection; let the next child nack go straight up.
            relay.consolidator.reset_suppression()
