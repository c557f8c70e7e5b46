"""JMS-layer control messages (client ↔ SHB extension protocol).

Section 5.2: for JMS durable subscribers the SHB — not the client —
maintains ``CT(s)`` in persistent storage, and every consume-commit by
the subscriber transactionally updates it.  These messages carry those
commits (and CT lookups on reconnect) over the ordinary client link;
the SHB side is handled by
:class:`repro.jms.ctstore.CheckpointCommitService` via the broker's
client-extension hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class JMSCommitRequest:
    """Commit the subscriber's CT at the SHB (one consume transaction)."""

    sub_id: str
    checkpoint: Dict[str, int]
    request_id: int


@dataclass
class JMSCommitDone:
    """The commit for ``request_id`` is durable; consume the next message."""

    sub_id: str
    request_id: int


@dataclass
class JMSCTLookup:
    """Ask the SHB for the durably stored CT (reconnect path)."""

    sub_id: str
    request_id: int


@dataclass
class JMSCTLookupReply:
    """The stored CT (empty dict when the subscriber is unknown)."""

    sub_id: str
    checkpoint: Dict[str, int]
    request_id: int
