"""Sim adapters: the discrete-event classes, viewed through the ports.

Nothing here is new machinery — the simulation substrate already
satisfies the port contracts:

* :class:`~repro.net.simtime.Scheduler` is the sim **Clock** (virtual
  milliseconds, ``(time, seq)`` determinism),
* :class:`~repro.net.node.Node` is the sim **Executor** (a FIFO CPU
  whose jobs complete after their ``CostModel`` service time),
* :class:`~repro.storage.disk.SimDisk` is the sim **StableStorage**
  (group commit with modelled sync latency and crash epochs),
* a :class:`~repro.net.link.Link` provides the two directed ends a
  **Connection** needs; :class:`SimChannel` packages one side's pair
  (my send end, my receive end + its CPU receive cost) behind the
  channel API the protocol classes attach to.

Every simulated client session — subscriber, reliable publisher,
migration supervisor — is opened by :func:`dial`: a fresh link to the
broker, both sides as channels, exactly what a TCP connect plus accept
gives the rt substrate.  The broker's ``attach_*`` and the client's
session code therefore take the same :class:`repro.port.Connection` on
both substrates.  A graceful disconnect leaves the link up for the
messages still in flight on it; the client severs it (``close``) when
it opens its next session.  The channel wrapper adds no scheduler
events and no state of its own — ``send`` and ``on_message`` go
straight through to the wrapped :class:`~repro.net.link.LinkEnd`\\ s.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from ..net.link import Link, LinkEnd
from ..net.node import Node
from ..net.simtime import Scheduler
from ..port.executor import Executor
from ..storage.disk import SimDisk

__all__ = [
    "Scheduler", "Node", "SimDisk", "Link", "LinkEnd", "SimChannel", "channel_pair",
    "dial", "CLIENT_LINK_LATENCY_MS",
]

#: One-way latency of every simulated client link (subscriber,
#: publisher and supervisor sessions alike).
CLIENT_LINK_LATENCY_MS = 0.5


class SimChannel:
    """One side of a client link, as a :class:`repro.port.Connection`.

    ``send_end`` carries this side's outbound messages; ``recv_end`` is
    the opposite direction, whose receiver-side handler (and CPU cost)
    this side owns.
    """

    __slots__ = ("send", "_recv_end", "_recv_cost", "link")

    def __init__(
        self,
        link: Link,
        send_end: LinkEnd,
        recv_end: LinkEnd,
        recv_cost: Callable[[Any], float],
    ) -> None:
        self.link = link
        #: The wrapped end's own bound ``send``: every simulated delivery
        #: goes through here, so no wrapper frame of our own.
        self.send: Callable[[Any], None] = send_end.send
        self._recv_end = recv_end
        self._recv_cost = recv_cost

    def on_message(self, fn: Callable[[Any], None]) -> None:
        self._recv_end.on_receive(fn, self._recv_cost)

    def on_close(self, fn: Callable[[], None]) -> None:
        self.link.on_disconnect(fn)

    def close(self) -> None:
        self.link.sever()


def channel_pair(
    link: Link,
    a_node: object,
    b_node: object,
    a_recv_cost: Callable[[Any], float],
    b_recv_cost: Callable[[Any], float],
) -> tuple:
    """Both sides of ``link`` as channels: ``(a_side, b_side)``.

    ``a_side.send`` arrives at ``b_side``'s handler and vice versa;
    each side's ``recv_cost`` is charged on its own node, exactly as
    direct ``LinkEnd.on_receive`` wiring would.
    """
    a_sends = link.end_for_sender(a_node)  # a -> b direction
    b_sends = link.end_for_sender(b_node)  # b -> a direction
    a_side = SimChannel(link, send_end=a_sends, recv_end=b_sends, recv_cost=a_recv_cost)
    b_side = SimChannel(link, send_end=b_sends, recv_end=a_sends, recv_cost=b_recv_cost)
    return a_side, b_side


def dial(
    client_node: Executor, broker: Any, broker_recv_cost: Callable[[Any], float]
) -> Tuple[SimChannel, SimChannel]:
    """Open a client session to ``broker``: ``(client_side, broker_side)``.

    The caller hands ``broker_side`` to the broker's ``attach_*``.  The
    link batches with the broker's delivery window (an SHB's
    ``batch_window_ms``; unbatched for a broker without one), so one
    knob configures the whole last hop.  The client pays the cost
    model's ``client_recv_cost`` per message, the broker
    ``broker_recv_cost``.
    """
    link = Link(
        broker.scheduler, client_node, broker.node, CLIENT_LINK_LATENCY_MS,
        batch_window_ms=getattr(broker, "batch_window_ms", 0.0),
    )
    return channel_pair(
        link, client_node, broker.node, broker.costs.client_recv_cost, broker_recv_cost
    )
