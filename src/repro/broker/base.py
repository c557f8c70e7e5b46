"""Broker base class: a node in the overlay tree.

The overlay is a tree rooted at the publisher hosting broker (the
paper's topologies all have a single PHB; a general deployment roots
one tree per pubend).  Every broker has at most one *parent* link
(toward the PHB) and any number of *child* links (toward SHBs).

Per-pubend traffic directions:

* :class:`~repro.core.messages.KnowledgeUpdate` — downstream (parent→child),
* :class:`~repro.core.messages.Nack`,
  :class:`~repro.core.messages.ReleaseUpdate`,
  :class:`~repro.core.messages.SubscriptionAdd`/``Remove`` — upstream.

Subclasses implement ``_handle_from_parent`` / ``_handle_from_child``;
the base class owns link wiring, per-child filter engines (the union of
all subscriptions below that child, used for intermediate filtering),
and crash/recovery plumbing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import messages as M
from ..matching.engine import MatchingEngine
from ..metrics.trace import event_tracer
from ..net.link import Link, LinkEnd
from ..net.node import Node
from ..net.simtime import Scheduler
from ..port.executor import Executor
from ..util.errors import ConfigurationError
from .costs import DEFAULT_COSTS, CostModel


class Broker:
    """Common state and wiring for PHB / intermediate / SHB brokers."""

    def __init__(
        self,
        scheduler: Scheduler,
        name: str,
        cost_model: Optional[CostModel] = None,
        speed: float = 1.0,
        node: Optional[Executor] = None,
    ) -> None:
        self.scheduler = scheduler
        self.name = name
        self.costs = cost_model if cost_model is not None else DEFAULT_COSTS
        #: Brokers may share an executor (the paper's 1-broker topology
        #: runs PHB and SHB roles on the same machine).  The default is
        #: the simulator's costed FIFO node; ``speed`` only scales that.
        self.node: Executor = node if node is not None else Node(scheduler, name, speed=speed)
        self.parent_name: Optional[str] = None
        self._parent_send: Optional[LinkEnd] = None
        self._child_sends: Dict[str, LinkEnd] = {}
        #: Per-child filter union: every subscription propagated up
        #: through that child.  Used to filter knowledge downstream.
        self.child_engines: Dict[str, MatchingEngine] = {}
        #: Whether each child's union is trustworthy.  After this
        #: broker recovers from a crash its unions are *cold* (soft
        #: state was lost): knowledge is passed unfiltered — always
        #: correct, merely less efficient — until the child re-syncs.
        self.child_filter_ready: Dict[str, bool] = {}
        #: Epoch-verified subscription refresh intake (lossy-link safe):
        #: adds tagged with an epoch are staged here per child, and only
        #: an epoch's complete set — count-checked against its
        #: SubscriptionSync — atomically replaces the live union.  A
        #: lost add therefore can never warm an incomplete union (which
        #: would filter events the child needs: silent loss).
        self._staged_subs: Dict[str, Dict[int, Dict[str, object]]] = {}
        self._applied_sub_epoch: Dict[str, int] = {}
        self._sub_epoch_counter = 0
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
        self.child_engines[child.name] = MatchingEngine()
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

    def unwire_child(self, child: str) -> None:
        """Forget a child's wiring, filter union and staged epochs.

        Part of the drain/leave path: after this, knowledge is no
        longer fanned out to the child and its subscriptions no longer
        contribute to this broker's upstream union.  Release-aggregator
        cleanup is separate (see ``unregister_release_child`` on PHB /
        intermediate) because it is keyed per pubend.
        """
        self._child_sends.pop(child, None)
        self.child_engines.pop(child, None)
        self.child_filter_ready.pop(child, None)
        self._staged_subs.pop(child, None)
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

    def _trace_forward(self, update: M.KnowledgeUpdate, start_ms: float, span: str) -> None:
        """Record a forward span for every traced event in ``update``.

        ``start_ms`` is when the update entered this broker (intake or
        durability time); the span closes now, as the update is handed
        to the downlink — so the span covers this broker's CPU queue.
        """
        tracer = self._tracer
        if tracer.tracing and update.d_events:
            tracer.mark_events(update.d_events, span, self.name, start_ms=start_ms)

    # ------------------------------------------------------------------
    # Message handling (subclass responsibilities)
    # ------------------------------------------------------------------
    def _handle_from_parent(self, msg: object) -> None:
        raise NotImplementedError

    def _handle_from_child(self, child: str, msg: object) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Epoch-verified subscription intake (shared by PHB / intermediate)
    # ------------------------------------------------------------------
    def _on_subscription_add(self, child: str, msg: M.SubscriptionAdd) -> None:
        if msg.epoch is None:
            # Immediate add (new subscriber): widen the live union right
            # away.  Widening can only un-filter, so a duplicate or
            # late-arriving copy is harmless.
            self.child_engines[child].add(msg.sub_id, msg.predicate)
            return
        if msg.epoch <= self._applied_sub_epoch.get(child, -1):
            return  # straggler from an epoch already applied
        staged = self._staged_subs.setdefault(child, {})
        for stale in [e for e in staged if e < msg.epoch]:
            del staged[stale]  # the child moved on; older epochs are dead
        staged.setdefault(msg.epoch, {})[msg.sub_id] = msg.predicate

    def _on_subscription_remove(self, child: str, msg: M.SubscriptionRemove) -> None:
        self.child_engines[child].remove(msg.sub_id)
        for epoch_subs in self._staged_subs.get(child, {}).values():
            epoch_subs.pop(msg.sub_id, None)

    def _on_subscription_sync(self, child: str, msg: M.SubscriptionSync) -> bool:
        """Apply a sync; returns True iff the child's union is now warm.

        A sync only takes effect when every add of its epoch arrived
        (count check): the staged set then atomically replaces the live
        union.  On a mismatch (adds lost or still in flight) nothing
        changes — the child's next refresh retries with a fresh epoch.
        """
        if msg.epoch <= self._applied_sub_epoch.get(child, -1):
            return self.child_filter_ready.get(child, False)
        staged = self._staged_subs.get(child, {}).pop(msg.epoch, {})
        if len(staged) != msg.sub_count:
            return self.child_filter_ready.get(child, False)
        # Periodic refreshes almost always re-state the same set; diff
        # into the live engine instead of rebuilding its indexes (and
        # losing its match cache) from scratch.
        self.child_engines[child].replace_all(staged)
        self._applied_sub_epoch[child] = msg.epoch
        remaining = self._staged_subs.get(child)
        if remaining:
            for stale in [e for e in remaining if e <= msg.epoch]:
                del remaining[stale]
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
        for child in self.child_filter_ready:
            self.child_filter_ready[child] = False
        # Staged epochs and the applied-epoch floor were volatile too;
        # forgetting the floor lets a child whose own epoch counter
        # restarted (it also crashed) re-warm us.
        self._staged_subs.clear()
        self._applied_sub_epoch.clear()

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
