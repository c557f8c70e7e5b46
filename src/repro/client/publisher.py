"""Publisher clients.

Publishers hand events to their PHB; the experiments drive fixed
aggregate input rates (800 events/s spread over 4 pubends) with
attribute assignment that lets subscription workloads hit exact
per-subscriber rates.  :class:`PeriodicPublisher` is the steady-rate
driver used by every benchmark; applications can also call
:meth:`PublisherHostingBroker.publish` directly.

:class:`ReliablePublisher` implements exactly-once publishing (the
companion guarantee from the authors' DSN'02 paper, which this paper
builds on): each event carries a per-publisher sequence number, the
PHB acknowledges once the event is durably logged and deduplicates
retransmissions, and the publisher retries unacknowledged events —
so a PHB crash between accept and log-sync loses nothing.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from ..adapters.sim import dial
from ..broker.phb import PublisherHostingBroker
from ..core import messages as M
from ..core.events import PAPER_PAYLOAD_BYTES
from ..port.clock import Clock, PeriodicTimerHandle
from ..port.executor import Executor
from ..port.transport import Connection

AttributeFn = Callable[[int], Dict[str, object]]


class PeriodicPublisher:
    """Publishes to one pubend at a fixed rate with generated attributes."""

    def __init__(
        self,
        scheduler: Clock,
        phb: PublisherHostingBroker,
        pubend: str,
        rate_per_s: float,
        attribute_fn: AttributeFn,
        payload_bytes: int = PAPER_PAYLOAD_BYTES,
        name: Optional[str] = None,
    ) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        self.scheduler = scheduler
        self.phb = phb
        self.pubend = pubend
        self.interval_ms = 1000.0 / rate_per_s
        self.attribute_fn = attribute_fn
        self.payload_bytes = payload_bytes
        self.name = name or f"pub-{pubend}"
        self.published = 0
        self._timer: Optional[PeriodicTimerHandle] = None

    def start(self, first_delay_ms: Optional[float] = None) -> None:
        if self._timer is not None:
            return
        self._timer = self.scheduler.every(
            self.interval_ms, self._tick, first_delay=first_delay_ms
        )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        if self.phb.node.is_down:
            return  # the PHB is crashed; drop (publisher would retry/block)
        attributes = self.attribute_fn(self.published)
        self.phb.publish(
            self.pubend, attributes, self.payload_bytes, publisher=self.name,
            trace_t0=self.scheduler.now,
        )
        self.published += 1


class ReliablePublisher:
    """Exactly-once publishing over a client session to the PHB.

    Events queue locally, are transmitted with monotonically increasing
    sequence numbers inside a bounded window, and are retransmitted
    until the PHB acknowledges their durable logging.  Combined with
    the PHB's sequence dedup this gives exactly-once from application
    to event log across crashes of either side of the link.
    """

    def __init__(
        self,
        scheduler: Clock,
        phb: Optional[PublisherHostingBroker],
        node: Optional[Executor],
        name: str,
        pubend: str,
        window: int = 64,
        retransmit_ms: float = 500.0,
        channel: Optional[Connection] = None,
    ) -> None:
        """Publish over ``channel`` (e.g. a TCP connection to the PHB),
        or, without one, over a session dialled from ``node`` to the
        simulated ``phb``."""
        self.scheduler = scheduler
        self.phb = phb
        self.node = node
        self.name = name
        self.pubend = pubend
        self.window = window
        self.retransmit_ms = retransmit_ms
        if channel is None:
            assert phb is not None and node is not None
            channel, phb_side = dial(node, phb, phb.costs.phb_publisher_recv_cost)
            phb.attach_publisher(phb_side)
        self._send = channel
        self._next_seq = 1
        self._acked_seq = 0
        #: Unacknowledged, transmitted requests (seq ascending).
        self._unacked: Deque[M.PublishRequest] = deque()
        #: Backlog not yet transmitted (window closed).
        self._backlog: Deque[M.PublishRequest] = deque()
        self._timer = scheduler.every(retransmit_ms, self._retransmit_check)
        self._last_progress = scheduler.now
        self.published = 0
        self.retransmissions = 0
        # Acks arrive over the same channel, wired once the
        # ack-tracking state exists.
        channel.on_message(self._on_message)

    def rebind(self, channel: Connection) -> None:
        """Adopt a fresh channel after a reconnect (rt substrate).

        The unacked window is retransmitted immediately — the PHB's
        sequence dedup absorbs anything that did survive the old
        connection — and the backlog pump resumes.
        """
        channel.on_message(self._on_message)
        self._send = channel
        self._last_progress = self.scheduler.now
        for request in self._unacked:
            self.retransmissions += 1
            self._send.send(request)
        self._pump()

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def publish(
        self,
        attributes: Dict[str, object],
        payload_bytes: int = PAPER_PAYLOAD_BYTES,
        ttl_ms: Optional[int] = None,
    ) -> int:
        """Queue an event for exactly-once publication; returns its seq."""
        request = M.PublishRequest(
            dict(attributes), payload_bytes, publisher=self.name,
            seq=self._next_seq, pubend=self.pubend, ttl_ms=ttl_ms,
            client_ms=self.scheduler.now,
        )
        self._next_seq += 1
        self.published += 1
        self._backlog.append(request)
        self._pump()
        return request.seq  # type: ignore[return-value]

    @property
    def unacknowledged(self) -> int:
        return len(self._unacked) + len(self._backlog)

    def close(self) -> None:
        self._timer.cancel()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        while self._backlog and len(self._unacked) < self.window:
            request = self._backlog.popleft()
            self._unacked.append(request)
            self._send.send(request)

    def _on_message(self, msg: object) -> None:
        if isinstance(msg, M.PublishAck) and msg.seq > self._acked_seq:
            self._acked_seq = msg.seq
            self._last_progress = self.scheduler.now
            while self._unacked and self._unacked[0].seq <= msg.seq:
                self._unacked.popleft()
            self._pump()

    def _retransmit_check(self) -> None:
        if not self._unacked:
            return
        if self.scheduler.now - self._last_progress < self.retransmit_ms:
            return
        # No progress for a full timeout: resend the window in order
        # (the PHB deduplicates anything that did arrive).
        self._last_progress = self.scheduler.now
        for request in self._unacked:
            self.retransmissions += 1
            self._send.send(request)
