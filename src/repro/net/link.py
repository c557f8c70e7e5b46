"""Point-to-point FIFO links between simulation nodes.

Gryphon brokers connect over TCP; the properties the protocol relies on
are (1) FIFO delivery per direction, (2) silent loss of everything in
flight when an endpoint crashes, and (3) connection teardown notifying
the surviving endpoint.  :class:`Link` provides exactly those.

Delivery of a message costs CPU at the *receiver* (``recv_cost_ms``
from the message, see :class:`repro.net.transport.Endpoint`), so a
flooded receiver saturates and back-pressures throughput — the effect
behind Figure 4's peak-rate measurements.

Links optionally batch: with ``batch_window_ms > 0`` a direction
buffers messages for up to that long and ships the whole buffer as one
transmission — one scheduled callback and one receiver CPU submission
(costing the sum of the per-message receive costs) instead of one of
each per message.  FIFO order and the loss semantics above are
unchanged; a window of 0 uses the exact unbatched path.

Links optionally misbehave: a :class:`FaultSpec` installed on a
direction makes it drop, duplicate, reorder (within a bound) or
corrupt transmissions, each with an independent probability drawn from
a per-direction seeded RNG.  Corrupt transmissions travel inside a
CRC-checked :class:`~repro.core.messages.Frame` and are counted and
discarded by the receiving end, exactly like a frame whose checksum
fails on a real wire.  With no faults installed (the default) every
send takes the exact pre-fault code path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..core.messages import Frame
from ..port.executor import Executor
from .simtime import Scheduler


@dataclass(frozen=True)
class FaultSpec:
    """Per-direction link fault probabilities (all default to healthy).

    ``drop_p``/``dup_p``/``corrupt_p`` apply independently to each
    transmission (a batched flush is one transmission, like one TCP
    segment).  ``reorder_p`` delays a transmission by up to
    ``reorder_max_ms`` *without* holding back later traffic, so
    successors may overtake it — bounded reordering.
    """

    drop_p: float = 0.0
    dup_p: float = 0.0
    reorder_p: float = 0.0
    reorder_max_ms: float = 5.0
    corrupt_p: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_p", "dup_p", "reorder_p", "corrupt_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.reorder_max_ms < 0:
            raise ValueError("reorder_max_ms must be non-negative")

    @property
    def active(self) -> bool:
        return bool(self.drop_p or self.dup_p or self.reorder_p or self.corrupt_p)


class LinkStats:
    """Aggregate wire counters across every link sharing a scheduler.

    ``messages`` counts logical messages put on the wire, and
    ``transmissions`` the scheduled arrival callbacks that carried them,
    so ``messages / transmissions`` is the mean batch size and
    ``transmissions / events published`` is the messages-per-event
    figure the batching benchmarks report.
    """

    def __init__(self) -> None:
        self.messages = 0
        self.transmissions = 0
        self.batches = 0  # transmissions that carried more than one message
        self.largest_batch = 0
        self.dropped = 0
        # Injected-fault counters (messages, not transmissions).
        self.fault_dropped = 0
        self.corrupt_dropped = 0
        self.duplicated = 0
        self.reordered = 0

    @property
    def mean_batch_size(self) -> float:
        if self.transmissions == 0:
            return 0.0
        return self.messages / self.transmissions

    def snapshot(self) -> dict:
        return {
            "messages": self.messages,
            "transmissions": self.transmissions,
            "batches": self.batches,
            "largest_batch": self.largest_batch,
            "dropped": self.dropped,
            "fault_dropped": self.fault_dropped,
            "corrupt_dropped": self.corrupt_dropped,
            "duplicated": self.duplicated,
            "reordered": self.reordered,
            "mean_batch_size": self.mean_batch_size,
        }


def link_stats(scheduler: Scheduler) -> LinkStats:
    """The shared :class:`LinkStats` for ``scheduler`` (created lazily).

    Client links churn (each reconnect makes a fresh :class:`Link`), so
    per-link counters undercount; every link reports into this single
    per-scheduler aggregate as well.
    """
    stats = getattr(scheduler, "_link_stats", None)
    if stats is None:
        stats = LinkStats()
        scheduler._link_stats = stats  # type: ignore[attr-defined]
    return stats


class LinkEnd:
    """One direction of a :class:`Link` (sender's view)."""

    def __init__(self, link: "Link", sender: Executor, receiver: Executor) -> None:
        self._link = link
        self.sender = sender
        self.receiver = receiver
        self._handler: Optional[Callable[[Any], None]] = None
        self._batch_handler: Optional[Callable[[List[Any]], None]] = None
        self._recv_cost: Callable[[Any], float] = lambda _msg: 0.0
        self._last_arrival = 0.0
        self._buffer: List[Any] = []
        self._flush_pending = False
        self._faults: Optional[FaultSpec] = None
        self._fault_rng: Optional[random.Random] = None
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.transmissions = 0
        self.fault_dropped = 0
        self.corrupt_dropped = 0
        self.duplicated = 0
        self.reordered = 0

    def on_receive(
        self,
        handler: Callable[[Any], None],
        recv_cost: Callable[[Any], float],
        batch_handler: Optional[Callable[[List[Any]], None]] = None,
    ) -> None:
        """Install the receiver-side handler and its CPU-cost model.

        ``batch_handler``, if given, receives the whole message list of
        a batched transmission in one call (still charged the summed
        per-message cost); otherwise ``handler`` is invoked once per
        message, in order.  Unbatched transmissions always use
        ``handler``.
        """
        self._handler = handler
        self._recv_cost = recv_cost
        self._batch_handler = batch_handler

    def set_faults(self, spec: Optional[FaultSpec], seed: int = 0) -> None:
        """Install (or clear, with ``None``/inactive spec) fault injection.

        The direction's RNG is derived from ``seed`` plus the endpoint
        names, so every direction of every link draws an independent but
        reproducible stream; it persists across spec changes so repeated
        loss bursts do not replay the same pattern.
        """
        if spec is None or not spec.active:
            self._faults = None
            return
        self._faults = spec
        if self._fault_rng is None:
            self._fault_rng = random.Random(
                f"link-faults:{seed}:{self.sender.name}>{self.receiver.name}"
            )

    def send(self, msg: Any) -> None:
        """Transmit ``msg``; it arrives after the link latency, in order.

        Messages sent while either endpoint is down are dropped, as are
        messages whose receiver crashes while they are in flight (a
        crash discards the receiver's queued work, so their completion
        callbacks never run — see :class:`repro.port.executor.Executor`).
        """
        self.sent += 1
        if self._link.down or self.sender.is_down or self.receiver.is_down:
            self.dropped += 1
            self._link.stats.dropped += 1
            return
        if self._link.batch_window_ms <= 0.0:
            if self._faults is not None:
                self._transmit_faulty(msg, is_batch=False)
                return
            scheduler = self._link.scheduler
            arrival = max(scheduler.now + self._link.latency_ms, self._last_arrival)
            self._last_arrival = arrival
            self._record_transmission(1)
            scheduler.post(arrival, self._arrive, msg)
            return
        self._buffer.append(msg)
        if not self._flush_pending:
            self._flush_pending = True
            scheduler = self._link.scheduler
            scheduler.post(scheduler.now + self._link.batch_window_ms, self._flush)

    def _flush(self) -> None:
        self._flush_pending = False
        batch, self._buffer = self._buffer, []
        if not batch:
            return
        if self._link.down or self.sender.is_down or self.receiver.is_down:
            self.dropped += len(batch)
            self._link.stats.dropped += len(batch)
            return
        if self._faults is not None:
            self._transmit_faulty(batch, is_batch=True)
            return
        scheduler = self._link.scheduler
        arrival = max(scheduler.now + self._link.latency_ms, self._last_arrival)
        self._last_arrival = arrival
        self._record_transmission(len(batch))
        scheduler.post(arrival, self._arrive_batch, batch)

    def _transmit_faulty(self, payload: Any, is_batch: bool) -> None:
        """The fault-injected transmission path (one TCP-segment analog).

        Fault order per transmission: drop, then corruption (framing),
        then duplication, then per-copy reordering.  A reordered copy
        skips the FIFO clamp — later transmissions may overtake it —
        but stays within ``reorder_max_ms`` of the nominal arrival.
        """
        spec, rng = self._faults, self._fault_rng
        assert spec is not None and rng is not None
        stats = self._link.stats
        n = len(payload) if is_batch else 1
        if spec.drop_p and rng.random() < spec.drop_p:
            self.fault_dropped += n
            stats.fault_dropped += n
            return
        wire: Any = payload
        if spec.corrupt_p:
            wire = Frame(payload)
            if rng.random() < spec.corrupt_p:
                wire.corrupt_in_flight()
        copies = 1
        if spec.dup_p and rng.random() < spec.dup_p:
            copies = 2
            self.duplicated += n
            stats.duplicated += n
        scheduler = self._link.scheduler
        arrive = self._arrive_batch if is_batch else self._arrive
        for _ in range(copies):
            if spec.reorder_p and rng.random() < spec.reorder_p:
                arrival = (
                    scheduler.now + self._link.latency_ms
                    + rng.uniform(0.0, spec.reorder_max_ms)
                )
                self.reordered += n
                stats.reordered += n
            else:
                arrival = max(scheduler.now + self._link.latency_ms, self._last_arrival)
                self._last_arrival = arrival
            self._record_transmission(n)
            scheduler.post(arrival, arrive, wire)

    def _discard_buffer(self) -> None:
        """Drop (and count) messages buffered on a torn-down connection.

        Called when the link severs or an endpoint crashes: a batch
        buffer is in-flight connection state, so delivering it on the
        *next* connection after a restore would violate the fail-stop
        loss contract.  Counting keeps delivered+dropped+buffered exact.
        """
        if self._buffer:
            n = len(self._buffer)
            self._buffer.clear()
            self.dropped += n
            self._link.stats.dropped += n

    def _record_transmission(self, n_messages: int) -> None:
        self.transmissions += 1
        stats = self._link.stats
        stats.transmissions += 1
        stats.messages += n_messages
        if n_messages > 1:
            stats.batches += 1
        if n_messages > stats.largest_batch:
            stats.largest_batch = n_messages

    def _check_frame(self, wire: Any, n: int) -> Optional[Any]:
        """Unwrap a CRC :class:`Frame`; ``None`` if the checksum fails."""
        if not isinstance(wire, Frame):
            return wire
        if not wire.verify():
            self.corrupt_dropped += n
            self._link.stats.corrupt_dropped += n
            return None
        return wire.payload

    def _arrive(self, msg: Any) -> None:
        if self._link.down or self.receiver.is_down or self._handler is None:
            self.dropped += 1
            self._link.stats.dropped += 1
            return
        msg = self._check_frame(msg, 1)
        if msg is None:
            return
        handler = self._handler
        if not self.receiver.try_submit(self._recv_cost(msg), lambda: handler(msg)):
            self.dropped += 1
            self._link.stats.dropped += 1
            return
        self.delivered += 1

    def _arrive_batch(self, batch: Any) -> None:
        if isinstance(batch, Frame):
            unwrapped = self._check_frame(batch, len(batch.payload))
            if unwrapped is None:
                return
            batch = unwrapped
        if self._link.down or self.receiver.is_down or self._handler is None:
            self.dropped += len(batch)
            self._link.stats.dropped += len(batch)
            return
        cost = sum(self._recv_cost(m) for m in batch)
        batch_handler = self._batch_handler
        if batch_handler is not None:
            job: Callable[[], None] = lambda: batch_handler(batch)
        else:
            handler = self._handler

            def job() -> None:
                for m in batch:
                    handler(m)

        if not self.receiver.try_submit(cost, job):
            self.dropped += len(batch)
            self._link.stats.dropped += len(batch)
            return
        self.delivered += len(batch)


class Link:
    """A bidirectional FIFO channel between two nodes."""

    def __init__(
        self,
        scheduler: Scheduler,
        a: Executor,
        b: Executor,
        latency_ms: float = 1.0,
        batch_window_ms: float = 0.0,
    ) -> None:
        if latency_ms < 0:
            raise ValueError("latency must be non-negative")
        if batch_window_ms < 0:
            raise ValueError("batch window must be non-negative")
        self.scheduler = scheduler
        self.latency_ms = latency_ms
        self.batch_window_ms = batch_window_ms
        self.stats = link_stats(scheduler)
        self.down = False
        self.a_to_b = LinkEnd(self, a, b)
        self.b_to_a = LinkEnd(self, b, a)
        self._disconnect_listeners: List[Callable[[], None]] = []
        self._restore_listeners: List[Callable[[], None]] = []
        # A crash of either endpoint tears the connection down from the
        # point of view of the survivor.
        a.on_crash(self._endpoint_crashed)
        b.on_crash(self._endpoint_crashed)

    def end_for_sender(self, node: Executor) -> LinkEnd:
        """The directed end whose sender is ``node``."""
        if node is self.a_to_b.sender:
            return self.a_to_b
        if node is self.b_to_a.sender:
            return self.b_to_a
        raise ValueError(f"{node!r} is not an endpoint of this link")

    def on_disconnect(self, fn: Callable[[], None]) -> None:
        self._disconnect_listeners.append(fn)

    def on_restore(self, fn: Callable[[], None]) -> None:
        """Register ``fn`` to run whenever a severed link comes back up.

        Brokers use this to re-sync state eagerly (refresh subscriptions,
        re-report release levels, kick curiosity) instead of waiting out
        a poll interval.
        """
        self._restore_listeners.append(fn)

    def set_faults(
        self,
        a_to_b: Optional[FaultSpec] = None,
        b_to_a: Optional[FaultSpec] = None,
        seed: int = 0,
    ) -> None:
        """Install fault specs on both directions (``None`` clears one)."""
        self.a_to_b.set_faults(a_to_b, seed)
        self.b_to_a.set_faults(b_to_a, seed)

    def clear_faults(self) -> None:
        self.a_to_b.set_faults(None)
        self.b_to_a.set_faults(None)

    def sever(self) -> None:
        """Administratively cut the link (both directions)."""
        if self.down:
            return
        self.down = True
        # Teardown loses the connection's buffered (unsent) batches.
        self.a_to_b._discard_buffer()
        self.b_to_a._discard_buffer()
        for fn in list(self._disconnect_listeners):
            fn()

    def restore(self) -> None:
        """Re-establish a severed link (a fresh FIFO connection)."""
        was_down = self.down
        self.down = False
        self.a_to_b._discard_buffer()
        self.b_to_a._discard_buffer()
        self.a_to_b._last_arrival = 0.0
        self.b_to_a._last_arrival = 0.0
        if was_down:
            for fn in list(self._restore_listeners):
                fn()

    def _endpoint_crashed(self) -> None:
        # The crashed end's buffer is volatile state; the survivor's
        # buffer dies with the connection.  Both are lost, and counted.
        self.a_to_b._discard_buffer()
        self.b_to_a._discard_buffer()
        for fn in list(self._disconnect_listeners):
            fn()
