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

The channel wrapper adds no scheduler events and no state of its own —
``send`` and ``on_message`` go straight through to the wrapped
:class:`~repro.net.link.LinkEnd`\\ s — so wiring clients through it is
behavior-identical (and digest-identical) to wiring the ends directly.
"""

from __future__ import annotations

from typing import Any, Callable

from ..net.link import Link, LinkEnd
from ..net.node import Node
from ..net.simtime import Scheduler
from ..storage.disk import SimDisk

__all__ = ["Scheduler", "Node", "SimDisk", "Link", "LinkEnd", "SimChannel", "channel_pair"]


class SimChannel:
    """One side of a client link, as a :class:`repro.port.Connection`.

    ``send_end`` carries this side's outbound messages; ``recv_end`` is
    the opposite direction, whose receiver-side handler (and CPU cost)
    this side owns.
    """

    __slots__ = ("_send_end", "_recv_end", "_recv_cost", "link")

    def __init__(
        self,
        link: Link,
        send_end: LinkEnd,
        recv_end: LinkEnd,
        recv_cost: Callable[[Any], float],
    ) -> None:
        self.link = link
        self._send_end = send_end
        self._recv_end = recv_end
        self._recv_cost = recv_cost

    def send(self, msg: Any) -> None:
        self._send_end.send(msg)

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
