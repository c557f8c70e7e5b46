"""The Transport port: ordered, framed, severable message channels.

A :class:`Channel` is one established bidirectional session between a
client (subscriber or publisher) and a broker: ``send`` transmits a
protocol message object, ``on_message`` installs the receive handler,
``on_close`` fires when the peer disappears (crash, sever, TCP reset).
The contract the protocol relies on:

* **FIFO per direction** — messages arrive in send order or not at all.
* **Integrity** — a delivered message equals the one sent.  The sim's
  :class:`~repro.net.link.Link` enforces this with the
  :class:`~repro.core.messages.Frame` repr-CRC under fault injection;
  the TCP adapter wraps every payload in the same ``Frame`` plus a
  byte-level CRC header and drops (never delivers) corrupt frames.
* **Loss is legal** — a channel may drop messages (sever, crash, torn
  connection); every protocol layer already recovers via curiosity
  nacks, connect retries and publish retransmission.  ``on_close`` is
  best-effort: a silent peer death may surface only as message loss.
* **Identity** — the channel object's identity names the session;
  brokers key their per-session state by it (``_sessions`` in the SHB).
* **Graceful disconnect** — a client ends a session with a
  ``DisconnectRequest`` and keeps consuming what is already in flight;
  it closes the old channel when its next session opens.  ``close``
  and a crash drop the channel at once.

A :class:`Listener` accepts inbound channels on the broker side; the
sim dials each client session as a fresh link
(:func:`repro.adapters.sim.dial`), so only the asyncio adapter listens.
Either way the broker's ``attach_client`` / ``attach_publisher`` takes
the channel, and the client runs the same session code over it.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable


@runtime_checkable
class Connection(Protocol):
    """One established, ordered, severable message channel."""

    def send(self, msg: Any) -> None: ...

    def on_message(self, fn: Callable[[Any], None]) -> None: ...

    def on_close(self, fn: Callable[[], None]) -> None: ...

    def close(self) -> None: ...


@runtime_checkable
class Listener(Protocol):
    """Accepts inbound :class:`Connection`\\ s on the broker side."""

    def on_connection(self, fn: Callable[[Connection], None]) -> None: ...

    def close(self) -> None: ...
