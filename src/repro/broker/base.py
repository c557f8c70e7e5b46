"""Broker base class: a node in the overlay tree.

The overlay is a tree rooted at the publisher hosting broker (the
paper's topologies all have a single PHB; a general deployment roots
one tree per pubend).  Every broker has at most one *parent* link
(toward the PHB) and any number of *child* links (toward SHBs).

Per-pubend traffic directions:

* :class:`~repro.core.messages.KnowledgeUpdate` — downstream (parent→child),
* :class:`~repro.core.messages.Nack`,
  :class:`~repro.core.messages.ReleaseUpdate`,
  :class:`~repro.core.messages.SubscriptionAdd`/``Sync`` — upstream.

Subclasses implement ``_handle_from_parent`` / ``_handle_from_child``;
the base class owns link wiring, the per-child subscription unions (the
distinct predicates below that child, each union a member of the
broker's one :class:`~repro.matching.links.LinkIndex`), D→S filtering
of knowledge against them — one classification per update for all
children (:class:`LinkFilter`) — the costed, traced forward of an
update to a child (:meth:`Broker._forward`), the subscription intake
from children — widening adds, and epoch-numbered digest or full-set
syncs — and the digest-or-full union refresh toward the parent
(:meth:`Broker._send_union_up`), and crash/recovery plumbing.

*Lazy silence*: a head update that filtering left with only S ticks for
a child is held, not sent.  It rides with that child's next head update
carrying a D or L tick, or goes out one
:data:`~repro.core.pubend.SILENCE_INTERVAL_MS` later.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core import messages as M
from ..core.pubend import SILENCE_INTERVAL_MS
from ..matching.engine import PredicateSet
from ..matching.links import LinkIndex, LinkUnion
from ..metrics.trace import event_tracer
from ..net.link import Link, LinkEnd
from ..net.node import Node
from ..port.clock import Clock, TimerHandle
from ..port.executor import Executor
from ..util.errors import ConfigurationError
from .costs import DEFAULT_COSTS

#: Period of the subscription refresh every SHB and intermediate sends
#: its parent: one digest sync per uplink (see Broker._send_union_up).
SUBSCRIPTION_REFRESH_MS = 2_000.0


class LinkFilter:
    """D→S filtering of one knowledge update toward a broker's children.

    The update's D events are classified against the broker's
    :class:`~repro.matching.links.LinkIndex` once — the first time a
    warm child without a wildcard needs one of them — and each child's
    update is then assembled from its link bit.  Children that keep the
    same events of the same input share one output instance (nothing
    on the receive path mutates a payload).
    """

    def __init__(self, broker: "Broker", update: M.KnowledgeUpdate) -> None:
        self._broker = broker
        self._update = update
        self._masks: Optional[Dict[int, int]] = None
        # (id(input), kept flags) -> (input, output); holding the input
        # keeps its id from being reused while the entry lives.
        self._outputs: Dict[
            Tuple[int, Tuple[bool, ...]], Tuple[M.KnowledgeUpdate, M.KnowledgeUpdate]
        ] = {}

    def _classified(self) -> Dict[int, int]:
        if self._masks is None:
            events = self._update.d_events
            masks = self._broker.links.links_of_batch([e.attributes for e in events])
            self._masks = {e.timestamp: m for e, m in zip(events, masks)}
        return self._masks

    def for_child(
        self, child: str, piece: Optional[M.KnowledgeUpdate] = None,
        keep_below: int = 0,
    ) -> M.KnowledgeUpdate:
        """``piece`` as ``child`` should receive it: D ticks that match
        nothing below ``child`` become S.

        ``piece`` is the whole update (the default) or a part of it
        carrying the update's own events.  A cold union (post-recovery,
        pre-resync) must not filter: passing events the child may not
        need is safe; hiding events it does need would be silent loss.

        ``keep_below``: D events below this tick are passed unfiltered.
        A nack whose ``refilter_below`` is set is (partly) on behalf of
        a subscription the union below ``child`` may not include yet —
        a reconnect-anywhere registration, or a reconnect after the SHB
        lost its registry, racing nacks already in flight through the
        SHB's consolidator.  Converting its events to S here would be
        taken as "nothing matched at this tick" and silently lose them;
        the SHB refilters the raw events against the subscription's own
        predicate instead.
        """
        if piece is None:
            piece = self._update
        broker = self._broker
        if not broker.child_filter_ready.get(child, True):
            return piece
        events = piece.d_events
        union = broker.child_engines[child]
        passes_all = True
        if union.accepts_all():
            # A wildcard below this link: every D tick passes.
            kept: Tuple[bool, ...] = (True,) * len(events)
        else:
            masks = self._masks
            bit = union.bit
            flags = []
            hidden = 0
            for event in events:
                t = event.timestamp
                if t < keep_below:
                    flags.append(True)
                    continue
                if masks is None:
                    masks = self._classified()
                keep = bool(masks[t] & bit)
                if not keep:
                    passes_all = False
                    hidden = max(hidden, t)
                flags.append(keep)
            kept = tuple(flags)
            if hidden:
                seen = broker._hidden.setdefault(child, {})
                seen[piece.pubend] = max(hidden, seen.get(piece.pubend, 0))
        key = (id(piece), kept)
        shared = self._outputs.get(key)
        if shared is not None:
            return shared[1]
        if passes_all and len(piece.s_ranges) <= 1 and len(piece.l_ranges) <= 1:
            # Every D tick passes and there is nothing to coalesce: the
            # filtered update would be a field-for-field copy.
            out = piece
        else:
            out = M.KnowledgeUpdate(piece.pubend)
            out.s_ranges = list(piece.s_ranges)
            out.l_ranges = list(piece.l_ranges)
            for event, keep in zip(events, kept):
                if keep:
                    out.d_events.append(event)
                else:
                    out.s_ranges.append((event.timestamp, event.timestamp))
            # Filtering appends one single-tick S range per suppressed
            # event; a run of non-matching events ships as one range.
            out.coalesce()
        self._outputs[key] = (piece, out)
        return out


class Broker:
    """Common state and wiring for PHB / intermediate / SHB brokers."""

    def __init__(
        self,
        scheduler: Clock,
        name: str,
        node: Optional[Executor] = None,
    ) -> None:
        self.scheduler = scheduler
        self.name = name
        self.costs = DEFAULT_COSTS
        #: Brokers may share an executor (the paper's 1-broker topology
        #: runs PHB and SHB roles on the same machine).  The default is
        #: the simulator's costed FIFO node.
        self.node: Executor = node if node is not None else Node(scheduler, name)
        self.parent_name: Optional[str] = None
        self._parent_send: Optional[LinkEnd] = None
        self._child_sends: Dict[str, LinkEnd] = {}
        #: One index over every child union's signatures: an
        #: update is classified for all children in one match.
        self.links = LinkIndex()
        #: Per-child filter union: every distinct predicate propagated
        #: up through that child.  Used to filter knowledge downstream.
        self.child_engines: Dict[str, LinkUnion] = {}
        #: Whether each child's union is trustworthy.  After this
        #: broker recovers from a crash its unions are *cold* (soft
        #: state was lost): knowledge is passed unfiltered — always
        #: correct, merely less efficient — until the child re-syncs.
        self.child_filter_ready: Dict[str, bool] = {}
        #: Per child, the epoch of the last sync applied: an overtaken
        #: (older) sync is ignored.
        self._applied_sub_epoch: Dict[str, int] = {}
        self._sub_epoch_counter = 0
        #: A full-set refresh owed to the parent, which answered a
        #: digest with SubscriptionResend: None, or the ``want_ack`` to
        #: send it with.  Kept until a refresh actually goes out.
        self._resend_owed: Optional[bool] = None
        #: Lazy silence: per child, per pubend, the S ranges of head
        #: updates that carried nothing else for that child, held until
        #: its next head update with a D or L tick or the flush timer.
        #: Classified under the child's current union, so they are
        #: voided (never sent) when that union changes.
        self._held_silence: Dict[str, Dict[str, List[Tuple[int, int]]]] = {}
        self._silence_flush: Optional[TimerHandle] = None
        #: What a coverage ack reports (M.SubscriptionSynced): per child
        #: and pubend the highest D tick turned into S toward it, that
        #: at the child's last union change, and the last recovery or
        #: re-parenting time, below which nothing is remembered.
        self._hidden: Dict[str, Dict[str, int]] = {}
        self._hidden_at_change: Dict[str, Dict[str, int]] = {}
        self._hidden_floor = 0
        #: Shared per-scheduler event tracer (disabled by default; see
        #: repro.metrics.trace).  Hop sites guard on ``tracing`` so an
        #: idle tracer costs one attribute check per forwarded batch.
        self._tracer = event_tracer(scheduler)
        self.node.on_recover(self._mark_children_cold)
        self.node.on_recover(self._on_node_recover)

    # ------------------------------------------------------------------
    # Wiring (called by the topology builder)
    # ------------------------------------------------------------------
    def wire_parent(self, send_end: LinkEnd, recv_end: LinkEnd, parent: "Broker") -> None:
        """Install the directed ends for this broker's uplink.

        ``send_end`` carries this broker's messages toward the parent;
        ``recv_end`` is the direction the parent sends on.  Ends are
        passed explicitly (rather than resolved from node identity)
        because the 1-broker topology runs both roles on one node, over
        a loopback link whose two directions share endpoints.
        """
        if self._parent_send is not None:
            raise ConfigurationError(f"{self.name} already has a parent")
        self.parent_name = parent.name
        self._parent_send = send_end
        # Brokers that define _handle_from_parent_batch receive a batched
        # link transmission as one list (fold all updates, pump once);
        # others get the per-message handler for each element.
        recv_end.on_receive(
            lambda msg: self._handle_from_parent(msg),
            self.costs.broker_recv_cost,
            batch_handler=getattr(self, "_handle_from_parent_batch", None),
        )

    def wire_child(self, send_end: LinkEnd, recv_end: LinkEnd, child: "Broker") -> None:
        if child.name in self._child_sends:
            raise ConfigurationError(f"{self.name} already wired to {child.name}")
        self._child_sends[child.name] = send_end
        self.child_engines[child.name] = self.links.new_union()
        self.child_filter_ready[child.name] = True
        recv_end.on_receive(
            lambda msg: self._handle_from_child(child.name, msg),
            self.costs.broker_recv_cost,
        )

    def unwire_parent(self) -> None:
        """Remove the uplink wiring (dynamic-topology detach).

        The caller is responsible for severing or retiring the
        underlying :class:`~repro.net.link.Link`; this only forgets the
        directed ends so the broker can later be re-wired to a new
        parent (reparenting during an intermediate drain).
        """
        self.parent_name = None
        self._parent_send = None
        self._hidden_floor = max(self._hidden_floor, int(self.scheduler.now))

    def unwire_child(self, child: str) -> None:
        """Forget a child's wiring, filter union and applied epoch.

        Part of the drain/leave path: after this, knowledge is no
        longer fanned out to the child and its subscriptions no longer
        contribute to this broker's upstream union.  Release-aggregator
        cleanup is separate (see ``unregister_release_child`` on PHB /
        intermediate) because it is keyed per pubend.
        """
        self._child_sends.pop(child, None)
        self._union_changed(child)
        self._hidden.pop(child, None)
        union = self.child_engines.pop(child, None)
        if union is not None:
            self.links.drop_union(union)
        self.child_filter_ready.pop(child, None)
        self._applied_sub_epoch.pop(child, None)

    @classmethod
    def connect(
        cls,
        parent: "Broker",
        child: "Broker",
        latency_ms: float = 1.0,
        batch_window_ms: float = 0.0,
    ) -> Link:
        """Create the link between a parent and child broker and wire it."""
        link = Link(
            parent.scheduler, parent.node, child.node, latency_ms,
            batch_window_ms=batch_window_ms,
        )
        parent.wire_child(link.a_to_b, link.b_to_a, child)
        child.wire_parent(link.b_to_a, link.a_to_b, parent)
        # Eager re-sync after a partition heals, instead of waiting out
        # the next poll/refresh interval.
        link.on_restore(lambda: parent._on_child_link_restored(child.name))
        link.on_restore(child._on_uplink_restored)
        return link

    @property
    def child_names(self) -> List[str]:
        return list(self._child_sends)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_up(self, msg: object) -> None:
        """Send toward the PHB (dropped silently at the root)."""
        if self._parent_send is not None:
            self._parent_send.send(msg)

    def send_to_child(self, child: str, msg: object) -> None:
        send = self._child_sends.get(child)
        if send is None:
            # A queued CPU job (e.g. a dissemination forward) can race a
            # reparent/detach and fire after the child left.  Equivalent
            # to the message dying with the severed link: the child's
            # eager resync under its new parent re-nacks anything it
            # still needs, so the forward is dropped, not crashed on.
            return
        send.send(msg)

    def _forward(
        self, child: str, update: M.KnowledgeUpdate, cost_ms: float,
        start_ms: float, span: str, head: bool = False,
    ) -> None:
        """Send ``update`` to ``child`` once ``cost_ms`` of CPU is paid.

        The send is a job on this broker's executor, so it keeps its
        place behind everything queued before it.  ``start_ms`` is when
        the update entered this broker (intake or durability time); the
        ``span`` recorded for every traced event in it closes as the
        update is handed to the downlink, so it covers this broker's CPU
        queue.

        ``head``: the update is head knowledge (dissemination, not a
        nack reply or old knowledge), so silence in it may wait.  With
        no D and no L tick its S ranges are held for the child; the
        child's next head update with a D or L tick carries them at no
        extra cost, or the flush timer sends them.  Every other message
        to the child goes out behind the held ranges.
        """
        held = self._held_silence.get(child)
        if head:
            if not update.d_events and not update.l_ranges:
                self._hold_silence(child, update)
                return
            ranges = held.pop(update.pubend, None) if held else None
            if ranges:
                update = M.KnowledgeUpdate(
                    update.pubend, update.d_events,
                    ranges + update.s_ranges, update.l_ranges,
                ).coalesce()
        elif held:
            self._release_held_silence(child)
        self._submit_send(child, update, cost_ms, start_ms, span)

    def _submit_send(
        self, child: str, update: M.KnowledgeUpdate, cost_ms: float,
        start_ms: float, span: str,
    ) -> None:
        # Arguments bound as defaults: one closure cell per queued send
        # (``self``) rather than five, each a collector-tracked
        # allocation on the busiest path.  Closing over ``self`` keeps
        # the job attributed to the submitting role's class.
        def send(child=child, update=update, start_ms=start_ms, span=span) -> None:
            tracer = self._tracer
            if tracer.tracing and update.d_events:
                tracer.mark_events(update.d_events, span, self.name, start_ms=start_ms)
            self.send_to_child(child, update)

        self.node.submit(cost_ms, send)

    def _hold_silence(self, child: str, update: M.KnowledgeUpdate) -> None:
        held = self._held_silence.setdefault(child, {})
        held.setdefault(update.pubend, []).extend(update.s_ranges)
        if self._silence_flush is None:
            self._silence_flush = self.scheduler.after(
                SILENCE_INTERVAL_MS, self._flush_held_silence
            )

    def _release_held_silence(self, child: str) -> None:
        """Send ``child``'s held S ranges now, one forwarded S update
        per pubend."""
        held = self._held_silence.pop(child, None)
        if not held:
            return
        now = self.scheduler.now
        for pubend, ranges in held.items():
            update = M.KnowledgeUpdate(pubend, s_ranges=ranges).coalesce()
            self._submit_send(
                child, update, self.costs.forward_per_link_event_ms, now, ""
            )

    def _union_changed(self, child: str) -> None:
        """Drop ``child``'s held S ranges unsent: they were classified
        under a union that no longer holds.  The child's curiosity nacks
        the hole, and the reply is classified under the new union.  What
        was hidden from it so far was hidden under an older union."""
        self._held_silence.pop(child, None)
        hidden = self._hidden.get(child)
        if hidden:
            self._hidden_at_change[child] = dict(hidden)

    def _flush_held_silence(self) -> None:
        self._silence_flush = None
        if self.node.is_down:
            self._held_silence.clear()
            return
        for child in list(self._held_silence):
            self._release_held_silence(child)

    def _link_filter(self, update: M.KnowledgeUpdate) -> LinkFilter:
        """The D→S filter of ``update`` for this broker's children."""
        return LinkFilter(self, update)

    # ------------------------------------------------------------------
    # Message handling (subclass responsibilities)
    # ------------------------------------------------------------------
    def _handle_from_parent(self, msg: object) -> None:
        raise NotImplementedError

    def _handle_from_child(self, child: str, msg: object) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Subscription intake (shared by PHB / intermediate)
    # ------------------------------------------------------------------
    def _on_subscription_add(self, child: str, msg: M.SubscriptionAdd) -> bool:
        """Widen ``child``'s union; True when no child link held the
        predicate before (this broker's own count went 0→1).

        Widening can only un-filter, so a duplicate or late-arriving
        copy is harmless.
        """
        fresh = msg.predicate not in self.links.members
        if self.child_engines[child].add(msg.predicate):
            self._union_changed(child)
        return fresh

    def _on_subscription_sync(self, child: str, msg: M.SubscriptionSync) -> bool:
        """Apply a sync; returns True iff the child's union is now warm.

        A digest sync is compared with our copy of the child's union.
        On a match the epoch is applied and the child is warm.  On a
        mismatch the child goes cold — knowledge passes unfiltered,
        always safe — and is asked for its full set
        (:class:`~repro.core.messages.SubscriptionResend`, the sync's
        ``want_ack`` echoed).  A full set is one message: it replaces
        the copy, narrowing it where the child withdrew predicates, and
        warms the child.
        """
        if msg.epoch <= self._applied_sub_epoch.get(child, -1):
            return self.child_filter_ready.get(child, False)
        union = self.child_engines[child]
        if msg.digest is None:
            union.replace_all(msg.predicates)
            self._union_changed(child)
        elif (len(union), union.digest) != (msg.count, msg.digest):
            self._union_changed(child)
            self.child_filter_ready[child] = False
            self.send_to_child(child, M.SubscriptionResend(msg.epoch, msg.want_ack))
            return False
        self._applied_sub_epoch[child] = msg.epoch
        self.child_filter_ready[child] = True
        return True

    def _next_sub_epoch(self) -> int:
        """A fresh refresh-epoch number for this broker's own uplink.

        Clamping to sim time keeps epochs monotonic even across this
        broker's crashes, so a recovered broker's refreshes are never
        mistaken for stragglers of its previous life.
        """
        self._sub_epoch_counter = max(
            self._sub_epoch_counter + 1, int(self.scheduler.now)
        )
        return self._sub_epoch_counter

    def _upstream_set(self) -> Optional[PredicateSet]:
        """The distinct predicates this broker announces upstream, or
        None while it must not speak for them."""
        raise NotImplementedError

    def _send_union_up(self, want_ack: bool = False) -> Optional[int]:
        """One epoch-numbered subscription refresh toward the parent.

        Normally one digest ``SubscriptionSync`` of
        :meth:`_upstream_set`; the parent compares it with its copy
        (see :meth:`_on_subscription_sync`).  Only when the parent
        asked (:meth:`_on_subscription_resend`) does the full set go,
        as one sync carrying every predicate.  With ``want_ack`` the
        sync asks for a downward
        :class:`~repro.core.messages.SubscriptionSynced` once the epoch
        is applied at the tree root.  Returns the refresh's epoch, or
        None — nothing sent — while the broker must not speak for its
        union.
        """
        members = self._upstream_set()
        if members is None:
            return None
        epoch = self._next_sub_epoch()
        if self._resend_owed is None:
            self.send_up(M.SubscriptionSync(
                epoch, want_ack, count=len(members), digest=members.digest
            ))
        else:
            want_ack = want_ack or self._resend_owed
            self._resend_owed = None
            self.send_up(M.SubscriptionSync(
                epoch, want_ack, predicates=members.predicates()
            ))
        return epoch

    def _refresh_upstream(self) -> None:
        """The periodic refresh (every :data:`SUBSCRIPTION_REFRESH_MS`)."""
        self._send_union_up()

    def _on_subscription_resend(self, msg: M.SubscriptionResend) -> None:
        """The parent's copy of our union disagreed with our digest.

        The full set is owed until a refresh actually goes out: one
        held back now (a cold child, a suspect registry) sends it
        later, still with the echoed ``want_ack``.
        """
        self._resend_owed = bool(self._resend_owed) or msg.want_ack
        self._refresh_upstream()

    def _ack_child_sync(
        self, child: str, epoch: int, above: Optional[M.SubscriptionSynced] = None
    ) -> None:
        """Confirm ``child``'s refresh ``epoch`` as applied at the root,
        with our bound on what was hidden from it merged into the one
        the ack from ``above`` carries (see
        :class:`~repro.core.messages.SubscriptionSynced`).

        Queued through the CPU queue behind knowledge already
        classified for the child — held silence included, which goes
        out first.
        """
        self._release_held_silence(child)
        bound = dict(self._hidden_at_change.get(child, ()))
        for pubend, t in (above.hidden_to if above else {}).items():
            bound[pubend] = max(t, bound.get(pubend, 0))
        floor = max(above.hidden_floor if above else 0, self._hidden_floor)
        ack = M.SubscriptionSynced(epoch, bound, floor)
        self.node.submit(0.02, lambda: self.send_to_child(child, ack))

    def _own_storage(self, *stores: object) -> None:
        """Tag storage devices with this broker's name.

        The crash-point explorer crashes the broker whose storage fired
        a hook; the ``owner`` attribute (on :class:`SimDisk` and
        :class:`LogVolume`) is how it finds out whom.  First claim
        wins: in the single-broker topology the PHB and SHB roles share
        one disk, and its staged writes are voided by that one shared
        node's crash either way.
        """
        for store in stores:
            if getattr(store, "owner", None) is None:
                store.owner = self.name

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop the broker's machine (volatile state is lost)."""
        self.node.crash()

    def recover(self) -> None:
        self.node.recover()

    def fail_for(self, duration_ms: float) -> None:
        self.node.fail_for(duration_ms)

    def _mark_children_cold(self) -> None:
        # Held silence was volatile too, and what was hidden from whom.
        self._held_silence.clear()
        self._hidden.clear()
        self._hidden_at_change.clear()
        self._hidden_floor = int(self.scheduler.now)
        if self._silence_flush is not None:
            self._silence_flush.cancel()
            self._silence_flush = None
        for child in self.child_filter_ready:
            self.child_filter_ready[child] = False
            # The unions were volatile: emptied, as a real restart
            # would leave them, so a child's digest can never re-warm
            # us from memory the crash should have taken.
            self.child_engines[child].replace_all(())
        # The applied-epoch floor and a full set owed to our own parent
        # were volatile too; forgetting the floor lets a child whose
        # own epoch counter restarted (it also crashed) re-warm us.
        self._applied_sub_epoch.clear()
        self._resend_owed = None

    def _on_node_recover(self) -> None:
        """Subclasses rebuild volatile state here."""

    def _on_uplink_restored(self) -> None:
        """The link toward the parent came back after a partition.

        Subclasses re-sync eagerly (refresh subscriptions, re-report
        release, kick curiosity); the base class does nothing.
        """

    def _on_child_link_restored(self, child: str) -> None:
        """The link toward ``child`` came back after a partition."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
