"""Durable subscriber clients.

Implements the subscriber side of the Section 2 system model:

* owns its Checkpoint Token, advancing it as event/silence/gap messages
  arrive in per-pubend timestamp order,
* persists the CT locally "in the context of the transaction that
  consumes messages" (modelled by a committed snapshot taken every
  ``commit_every`` consumed messages; a client crash rolls back to it),
* acks the CT to the SHB periodically (the experiments use 250 ms),
* can disconnect (gracefully or by crash) and reconnect presenting its
  current — or a deliberately stale — CT.

The client also keeps the verification counters the test-suite's
exactly-once checks are built on: per-pubend delivery counts, strict
monotonicity violations (which would indicate duplicates or reordering)
and received gap ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..adapters.sim import dial
from ..broker.shb import SubscriberHostingBroker
from ..core import messages as M
from ..core.checkpoint import CheckpointToken
from ..matching.predicates import Predicate
from ..metrics.trace import event_tracer
from ..port.clock import Clock, PeriodicTimerHandle
from ..port.executor import Executor
from ..port.transport import Connection
from ..util.errors import NotConnectedError


@dataclass
class DeliveryStats:
    """Verification counters for one subscriber."""

    events: int = 0
    silences: int = 0
    gaps: int = 0
    order_violations: int = 0
    last_event_ts: Dict[str, int] = field(default_factory=dict)
    gap_ranges: List[Tuple[str, int, int]] = field(default_factory=list)


class DurableSubscriber:
    """A durable subscriber application process."""

    def __init__(
        self,
        scheduler: Clock,
        sub_id: str,
        node: Optional[Executor],
        predicate: Predicate,
        ack_interval_ms: float = 250.0,
        commit_every: int = 1,
        record_events: bool = False,
        on_event: Optional[object] = None,
        connect_retry_ms: Optional[float] = None,
    ) -> None:
        self.scheduler = scheduler
        self.sub_id = sub_id
        self.node = node
        self.predicate = predicate
        self.ack_interval_ms = ack_interval_ms
        self.commit_every = commit_every
        self.record_events = record_events
        #: Optional application callback invoked with each EventMessage
        #: as it is consumed (used e.g. for latency measurement).
        self.on_event = on_event
        #: When set, a ConnectRequest that has not been answered by a
        #: ConnectAccept is retransmitted every this-many ms.  Without
        #: it, a request eaten by a down SHB leaves the client believing
        #: it is connected while the SHB has no session — wedged until
        #: someone notices.  ``None`` (the default) keeps the legacy
        #: no-retry behavior and adds no scheduler events.
        self.connect_retry_ms = connect_retry_ms
        self.ct = CheckpointToken()
        self.committed_ct = CheckpointToken()
        #: The CT the SHB assigned at the first accept: the subscription
        #: is owed every matching event above it.
        self.first_ct: Optional[Dict[str, int]] = None
        self._since_commit = 0
        #: The current session's channel — or, after a graceful
        #: disconnect, the last one, still consuming its in-flight tail
        #: until the next session opens.
        self._send: Optional[Connection] = None
        self._ack_timer: Optional[PeriodicTimerHandle] = None
        self._connect_timer: Optional[PeriodicTimerHandle] = None
        self._pending_request: Optional[M.ConnectRequest] = None
        self._first_connect_done = False
        self.connected = False
        #: Last ConnectRefused received, as ``(reason, redirect_to)``.
        #: A refusal drops the connection; the application (or the
        #: supervisor's redirect logic in the experiments) decides where
        #: to reconnect — typically ``redirect_to``, the SHB a migrated
        #: subscription now lives on.
        self.last_refusal: Optional[Tuple[str, Optional[str]]] = None
        self._tracer = event_tracer(scheduler)
        self.stats = DeliveryStats()
        self.received_event_ids: List[str] = []
        self.received_event_id_set: Set[str] = set()
        self.duplicate_events = 0

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    def connect(self, shb: SubscriberHostingBroker) -> None:
        """Connect (first time or reconnect) to a simulated SHB: dial it
        and run the session over the channel (:meth:`connect_channel`)."""
        if self.connected:
            raise NotConnectedError(f"{self.sub_id} is already connected")
        chan, shb_side = dial(self.node, shb, shb.costs.shb_client_recv_cost)
        shb.attach_client(shb_side)
        self.connect_channel(chan)

    def connect_channel(self, chan: Connection) -> None:
        """Open a session over a transport-port channel (a sim ``dial``
        or a TCP connection): connect request (CT and predicate on
        reconnect), ack timer, connect-request retry.

        The previous session's channel closes now.  A graceful
        :meth:`disconnect` leaves it open so the events already in
        flight on it are still consumed.
        """
        if self.connected:
            raise NotConnectedError(f"{self.sub_id} is already connected")
        old, self._send = self._send, chan
        if old is not None:
            old.close()
        # Client-side session fence: what the old session delivered but
        # this process had not yet consumed is dropped, not consumed
        # past the CT this request presents (the new session resends it).
        chan.on_message(lambda msg: self._on_message(msg) if chan is self._send else None)
        chan.on_close(lambda: self._on_close(chan))
        if self._first_connect_done:
            # The predicate rides along so a reconnect to a *different*
            # SHB (reconnect-anywhere) can register the subscription
            # there; an SHB that already knows the subscription ignores
            # it.
            request = M.ConnectRequest(
                self.sub_id, checkpoint=self.ct.as_dict(), predicate=self.predicate
            )
        else:
            request = M.ConnectRequest(self.sub_id, predicate=self.predicate)
        chan.send(request)
        self.connected = True
        self._ack_timer = self.scheduler.every(self.ack_interval_ms, self._send_ack)
        if self.connect_retry_ms is not None:
            self._pending_request = request
            self._connect_timer = self.scheduler.every(
                self.connect_retry_ms, self._retry_connect
            )

    def disconnect(self) -> None:
        """Graceful disconnect: a DisconnectRequest, after which the
        channel stays open for its in-flight tail (see :meth:`connect_channel`)."""
        if not self.connected:
            return
        self._send.send(M.DisconnectRequest(self.sub_id))
        self._drop_connection()

    def crash(self) -> None:
        """Involuntary disconnect: the channel just drops.

        The CT rolls back to the committed snapshot, exactly as an
        application recovering from its own failure would observe.
        """
        if self.connected:
            self._send.close()
        self._drop_connection()
        self.ct = self.committed_ct.copy()

    def _drop_connection(self) -> None:
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self._cancel_connect_retry()
        self.connected = False

    def _cancel_connect_retry(self) -> None:
        if self._connect_timer is not None:
            self._connect_timer.cancel()
            self._connect_timer = None
        self._pending_request = None

    def _retry_connect(self) -> None:
        """Retransmit an unanswered ConnectRequest (the SHB may have
        been down, or crashed after receiving it but before accepting)."""
        if not self.connected or self._pending_request is None:
            self._cancel_connect_retry()
            return
        self._send.send(self._pending_request)

    def _on_close(self, chan: Connection) -> None:
        # The SHB crashed, or the channel was severed out from under us.
        # A session we already left does not end the one we are in.
        if chan is self._send and self.connected:
            self._drop_connection()

    # ------------------------------------------------------------------
    # Message consumption
    # ------------------------------------------------------------------
    def _on_message(self, msg: object) -> None:
        if isinstance(msg, M.ConnectAccept):
            self._on_accept(msg)
        elif isinstance(msg, M.ConnectRefused):
            self._on_refused(msg)
        elif isinstance(msg, M.EventMessage):
            self._consume_event(msg)
        elif isinstance(msg, M.SilenceMessage):
            self._consume_marker(msg.pubend, msg.t, is_gap=False)
        elif isinstance(msg, M.GapMessage):
            self._consume_marker(msg.pubend, msg.t, is_gap=True)

    def _on_refused(self, msg: M.ConnectRefused) -> None:
        """The SHB cannot host us (draining, or we migrated away)."""
        self.last_refusal = (msg.reason, msg.redirect_to)
        if self.connected:
            self._drop_connection()
            self._send.close()

    def _on_accept(self, msg: M.ConnectAccept) -> None:
        self._cancel_connect_retry()
        if not self._first_connect_done:
            # The SHB assigned our starting point; adopt it wholesale.
            self.ct = CheckpointToken(msg.checkpoint)
            self.committed_ct = self.ct.copy()
            self.first_ct = dict(msg.checkpoint)
            self._first_connect_done = True

    def _consume_event(self, msg: M.EventMessage) -> None:
        last = self.stats.last_event_ts.get(msg.pubend, -1)
        if msg.t <= last or msg.t <= self.ct.get(msg.pubend, -1):
            self.stats.order_violations += 1
        self.stats.last_event_ts[msg.pubend] = max(last, msg.t)
        self.stats.events += 1
        if self.record_events:
            event_id = msg.event.event_id
            if event_id in self.received_event_id_set:
                self.duplicate_events += 1
            else:
                self.received_event_id_set.add(event_id)
                self.received_event_ids.append(event_id)
        self._advance(msg.pubend, msg.t)
        if self._tracer.tracing:
            self._tracer.on_consume(msg.event.event_id, self.sub_id)
        if self.on_event is not None:
            self.on_event(msg)  # type: ignore[operator]

    def _consume_marker(self, pubend: str, t: int, is_gap: bool) -> None:
        if t < self.ct.get(pubend, 0):
            self.stats.order_violations += 1
            return
        if is_gap:
            self.stats.gaps += 1
            self.stats.gap_ranges.append((pubend, self.ct.get(pubend, 0) + 1, t))
        else:
            self.stats.silences += 1
        self._advance(pubend, t)

    def _advance(self, pubend: str, t: int) -> None:
        if t > self.ct.get(pubend, -1):
            self.ct.advance(pubend, t)
        self._since_commit += 1
        if self._since_commit >= self.commit_every:
            self.committed_ct = self.ct.copy()
            self._since_commit = 0

    # ------------------------------------------------------------------
    # Acks
    # ------------------------------------------------------------------
    def _send_ack(self) -> None:
        if self.connected:
            # Ack the *committed* CT: acknowledging past it could turn
            # a client crash into message loss.
            self._send.send(M.AckCheckpoint(self.sub_id, self.committed_ct.as_dict()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "connected" if self.connected else "disconnected"
        return f"<DurableSubscriber {self.sub_id} {state} events={self.stats.events}>"
