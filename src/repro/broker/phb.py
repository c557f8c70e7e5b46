"""The publisher hosting broker (PHB).

The PHB is the root of the knowledge tree and the only broker that
persistently logs events (novel feature 1).  It hosts one or more
pubends sharing the broker's log disk, disseminates their knowledge to
child brokers — filtering D ticks down to S per child using the union
of subscriptions propagated from below — and answers nacks from the
durable event logs.

Availability note from the paper: PHBs are few, so hosting them on
fault-tolerant hardware is affordable; SHB availability does not
matter for durability because events live here.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core import messages as M
from ..core.pubend import Pubend
from ..metrics.trace import SPAN_PHB_FORWARD
from ..core.release import EarlyReleasePolicy
from ..port.clock import Clock
from ..port.executor import Executor
from ..port.transport import Connection
from ..storage.disk import SimDisk
from ..storage.table import PersistentTable
from ..util.errors import ConfigurationError
from ..util.intervals import IntervalSet
from .base import Broker


class PublisherHostingBroker(Broker):
    """Hosts pubends; root of dissemination, recovery and release."""

    def __init__(
        self,
        scheduler: Clock,
        name: str,
        node: Optional[Executor] = None,
        disk: Optional[SimDisk] = None,
        nack_reply_max_events: int = 375,
        journal_volume: Optional[object] = None,
    ) -> None:
        super().__init__(scheduler, name, node)
        #: The broker's log device, shared by all hosted pubends.
        self.disk = disk if disk is not None else SimDisk(scheduler, f"{name}-log")
        self._own_storage(self.disk)
        #: File-backed journal volume (rt substrate): makes the seq
        #: table and every pubend's event log survive real process
        #: death.  Stream creation order is fixed (pub_seqs first, then
        #: one per pubend in creation order — rt boots must create
        #: pubends in a deterministic order, e.g. sorted).
        self.journal_volume = journal_volume
        if journal_volume is not None:
            self._own_storage(journal_volume)
        self.pubends: Dict[str, Pubend] = {}
        self.nack_reply_max_events = nack_reply_max_events
        self.events_accepted = 0
        self.nacks_served = 0
        self.duplicates_rejected = 0
        # Reliable publishing: highest durably-logged sequence number
        # per publisher, persisted so PHB recovery keeps rejecting
        # retransmitted duplicates.
        self.seq_table = PersistentTable(
            f"{name}.pub_seqs",
            self.disk,
            journal=(
                journal_volume.stream("journal:pub_seqs")  # type: ignore[attr-defined]
                if journal_volume is not None
                else None
            ),
        )
        self._pub_seqs: Dict[str, int] = {}       # durable floor (acks)
        self._accepted_seqs: Dict[str, int] = {}  # staged floor (gap check)
        self._commit_timer = scheduler.every(250.0, self.seq_table.commit)
        self.node.on_crash(self._on_node_crash)

    # ------------------------------------------------------------------
    # Pubend management
    # ------------------------------------------------------------------
    def create_pubend(self, name: str, policy: Optional[EarlyReleasePolicy] = None) -> Pubend:
        if name in self.pubends:
            raise ConfigurationError(f"pubend {name} already exists on {self.name}")
        journal = (
            self.journal_volume.stream(f"pubend:{name}")  # type: ignore[attr-defined]
            if self.journal_volume is not None
            else None
        )
        pubend = Pubend(
            name, self.scheduler, disk=self.disk, policy=policy, journal=journal
        )
        pubend.on_knowledge = lambda upd, p=name: self._disseminate(upd)
        self.pubends[name] = pubend
        return pubend

    def register_release_child(self, pubend: str, child: str) -> None:
        """Topology hook: ``child`` will report release state for ``pubend``."""
        self.pubends[pubend].release_agg.register_child(child)

    def unregister_release_child(self, pubend: str, child: str) -> None:
        """Drain hook: ``child`` left the tree and will report no more.

        Without this a detached child's last report would pin the
        aggregate minimum forever, freezing release for everyone.
        """
        self.pubends[pubend].release_agg.unregister_child(child)
        self.pubends[pubend].apply_release()

    # ------------------------------------------------------------------
    # Publish path
    # ------------------------------------------------------------------
    def publish(
        self,
        pubend: str,
        attributes: Dict[str, object],
        payload_bytes: int = 250,
        publisher: Optional[str] = None,
        trace_t0: Optional[float] = None,
    ) -> None:
        """Accept an event (consumes PHB CPU, then stages the log write).

        ``trace_t0`` is the client-side publish time (defaults to now,
        which is the same thing for a co-located caller); it anchors
        the event's trace when sampling is on.
        """
        if trace_t0 is None:
            trace_t0 = self.scheduler.now
        self.node.submit(
            self.costs.publish_ms,
            lambda: self._do_publish(
                pubend, attributes, payload_bytes, publisher, trace_t0=trace_t0
            ),
        )

    def _do_publish(
        self,
        pubend: str,
        attributes: Dict[str, object],
        payload_bytes: int,
        publisher: Optional[str],
        trace_t0: Optional[float] = None,
    ) -> None:
        target = self.pubends.get(pubend)
        if target is None:
            return  # no such pubend here: dropped, like a malformed frame
        target.publish(attributes, payload_bytes, publisher, trace_t0=trace_t0)
        self.events_accepted += 1

    # ------------------------------------------------------------------
    # Reliable publishing (exactly-once from publisher to pubend)
    # ------------------------------------------------------------------
    def attach_publisher(self, chan: Connection) -> None:
        """Wire a reliable publisher's session (see ReliablePublisher);
        acks go back over the same channel."""
        chan.on_message(lambda msg: self._on_publisher_message(chan, msg))

    def _on_publisher_message(self, chan: Connection, msg: object) -> None:
        if not isinstance(msg, M.PublishRequest):
            return
        pubend = msg.pubend or next(iter(self.pubends), None)
        if pubend not in self.pubends:
            # Checked before any floor moves: accepting the seq of an
            # event no pubend will log would wedge the publisher behind
            # a floor the durable table never reaches.
            return
        if msg.publisher is None or msg.seq is None:
            # Unreliable fire-and-forget publish over a client link.
            self._do_publish(
                pubend, msg.attributes, msg.payload_bytes, msg.publisher,
                trace_t0=msg.client_ms,
            )
            return
        accepted = self._accepted_seqs.get(
            msg.publisher, self._pub_seqs.get(msg.publisher, 0)
        )
        if msg.seq != accepted + 1:
            # Go-back-N receiver: accept only the next expected seq.
            # Below: a retransmitted duplicate.  Above: a gap — earlier
            # events were lost (e.g. dropped by a crash of this broker
            # while later sends were already in flight); accepting out
            # of order would poison the dedup floor.  Either way,
            # re-acknowledging the durable floor makes the publisher
            # resend everything after it, in order.
            self.duplicates_rejected += 1
            chan.send(M.PublishAck(msg.publisher, self._pub_seqs.get(msg.publisher, 0)))
            return
        self._accepted_seqs[msg.publisher] = msg.seq

        def durable(publisher: str = msg.publisher, seq: int = msg.seq) -> None:
            # FIFO links + ordered group commit keep seqs contiguous.
            if seq > self._pub_seqs.get(publisher, 0):
                self._pub_seqs[publisher] = seq
                self.seq_table.put(publisher, seq)
            chan.send(M.PublishAck(publisher, self._pub_seqs[publisher]))

        self.pubends[pubend].publish(
            msg.attributes, msg.payload_bytes, msg.publisher,
            seq=msg.seq, ttl_ms=msg.ttl_ms, on_durable=durable,
            trace_t0=msg.client_ms,
        )
        self.events_accepted += 1

    # ------------------------------------------------------------------
    # Dissemination with per-child filtering
    # ------------------------------------------------------------------
    def _disseminate(self, update: M.KnowledgeUpdate) -> None:
        t0 = self.scheduler.now  # dissemination starts at log durability
        cost = self.costs.forward_per_link_event_ms * max(1, len(update.d_events))
        links = self._link_filter(update)
        for child in self.child_names:
            filtered = links.for_child(child)
            if not filtered.is_empty():
                self._forward(child, filtered, cost, t0, SPAN_PHB_FORWARD, head=True)

    # ------------------------------------------------------------------
    # Upstream traffic from children
    # ------------------------------------------------------------------
    def _handle_from_parent(self, msg: object) -> None:  # pragma: no cover
        raise ConfigurationError("PHB is the tree root; it has no parent")

    def _handle_from_child(self, child: str, msg: object) -> None:
        if isinstance(msg, M.Nack):
            self._serve_nack(child, msg)
        elif isinstance(msg, M.ReleaseUpdate):
            pubend = self.pubends.get(msg.pubend)
            if pubend is not None:
                pubend.on_release_report(
                    child, msg.released, msg.latest_delivered, epoch=msg.epoch
                )
        elif isinstance(msg, M.SubscriptionAdd):
            self._on_subscription_add(child, msg)
        elif isinstance(msg, M.SubscriptionSync):
            self._on_subscription_sync(child, msg)
            applied = self._applied_sub_epoch.get(child, -1)
            if msg.want_ack and applied >= msg.epoch:
                # Root ack for a coverage-confirmation refresh.
                self._ack_child_sync(child, applied)

    def _serve_nack(self, child: str, nack: M.Nack) -> None:
        pubend = self.pubends.get(nack.pubend)
        if pubend is None:
            return
        ranges = IntervalSet(nack.ranges)
        reply = pubend.serve_nack(ranges, max_events=self.nack_reply_max_events)
        if reply.is_empty():
            return
        self.nacks_served += 1
        reply = self._link_filter(reply).for_child(child, keep_below=nack.refilter_below)
        cost = self.costs.serve_nack_per_event_ms * max(1, len(reply.d_events))
        self._forward(child, reply, cost, self.scheduler.now, SPAN_PHB_FORWARD)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_node_crash(self) -> None:
        self._commit_timer.cancel()
        self.disk.crash_reset()
        self.seq_table.crash_reset()
        self._accepted_seqs = {}  # staged acceptances die with the node
        for pubend in self.pubends.values():
            pubend.crash_reset()

    def _on_node_recover(self) -> None:
        for pubend in self.pubends.values():
            pubend.recover()
        # Rebuild the dedup floor: the committed table may trail the
        # durable log (commits are periodic), so take the max of both.
        self._pub_seqs = dict(self.seq_table.committed_items())
        for pubend in self.pubends.values():
            for event in pubend.log.read_range(0, 2**60):
                if event.publisher is not None and event.seq is not None:
                    if event.seq > self._pub_seqs.get(event.publisher, 0):
                        self._pub_seqs[event.publisher] = event.seq
        self._commit_timer = self.scheduler.every(250.0, self.seq_table.commit)
