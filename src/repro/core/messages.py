"""Protocol messages.

Two families:

**Inside the overlay** (broker↔broker, and pubend→SHB):
:class:`KnowledgeUpdate` carries tick knowledge downstream (data,
silence and lost ranges for one pubend); :class:`Nack` carries
curiosity upstream; :class:`ReleaseUpdate` aggregates release state
upstream; :class:`SubscriptionAdd` and :class:`SubscriptionSync`
propagate distinct predicates upstream so intermediate brokers can
filter.

**Last hop** (SHB→subscriber): Section 2's three message kinds.  Each
carries a pubend and a timestamp ``t``; with ``t0`` the timestamp of
the preceding message from that pubend:

* :class:`EventMessage` — an event at ``t``; no matching events in
  ``(t0, t)``.
* :class:`SilenceMessage` — no matching events in ``(t0, t]``.
* :class:`GapMessage` — events may have existed in ``(t0, t]`` but the
  information was discarded by early release.

Plus the client↔SHB control plane (connect/ack/publish).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..matching.predicates import Predicate
from ..util.intervals import coalesce_ranges
from .events import Event


# ---------------------------------------------------------------------------
# Wire framing (CRC-checked transmission envelope)
# ---------------------------------------------------------------------------
def frame_checksum(payload: Any) -> int:
    """Deterministic CRC32 of a message (or batch of messages).

    The simulation never serializes messages to bytes, so the checksum
    is computed over ``repr`` — stable within a process because every
    message type is a plain dataclass and dict ordering is insertion
    ordering.  Only links with payload-corruption faults enabled pay
    this cost; the fault-0 path never builds frames.
    """
    return zlib.crc32(repr(payload).encode())


class Frame:
    """A checksummed transmission envelope used by lossy links.

    :class:`~repro.net.link.LinkEnd` wraps each transmission in a frame
    when corruption faults are enabled; the receiving end verifies the
    CRC before unwrapping and silently drops (and counts) frames whose
    payload was corrupted in flight.  The protocol then recovers the
    lost information exactly as it recovers a dropped message — via
    curiosity/nacks or periodic retransmission.
    """

    __slots__ = ("payload", "crc")

    def __init__(self, payload: Any, crc: Optional[int] = None) -> None:
        self.payload = payload
        self.crc = frame_checksum(payload) if crc is None else crc

    def verify(self) -> bool:
        """True when the payload still matches the sender-computed CRC."""
        return self.crc == frame_checksum(self.payload)

    def corrupt_in_flight(self) -> None:
        """Simulate bit errors on the wire.

        Payload objects are shared with the sender, so rather than
        mutating them the frame records the damage in its checksum —
        indistinguishable to the receiver from flipped payload bits.
        """
        self.crc ^= 0x5A5A5A5A

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Frame crc={self.crc:#010x} payload={type(self.payload).__name__}>"


# ---------------------------------------------------------------------------
# Overlay messages
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class KnowledgeUpdate:
    """New tick knowledge for one pubend, flowing downstream.

    ``d_events`` are D ticks (each event carries its own timestamp);
    ``s_ranges`` and ``l_ranges`` are closed ``[start, end]`` tick
    ranges.  Ranges never overlap each other or the D ticks.
    """

    pubend: str
    d_events: List[Event] = field(default_factory=list)
    s_ranges: List[Tuple[int, int]] = field(default_factory=list)
    l_ranges: List[Tuple[int, int]] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.d_events or self.s_ranges or self.l_ranges)

    def tick_bounds(self) -> Optional[Tuple[int, int]]:
        """``(lowest, highest)`` tick this update says anything about.

        One scan, no intermediate lists; ``None`` for an empty update.
        The lists need not be sorted.
        """
        lo = hi = None
        for event in self.d_events:
            t = event.timestamp
            if lo is None:
                lo = hi = t
            elif t < lo:
                lo = t
            elif t > hi:
                hi = t
        for ranges in (self.s_ranges, self.l_ranges):
            for start, end in ranges:
                if lo is None:
                    lo, hi = start, end
                else:
                    if start < lo:
                        lo = start
                    if end > hi:
                        hi = end
        return None if lo is None else (lo, hi)

    def max_tick(self) -> Optional[int]:
        """The largest tick this update says anything about."""
        bounds = self.tick_bounds()
        return None if bounds is None else bounds[1]

    def coalesce(self) -> "KnowledgeUpdate":
        """Merge adjacent/overlapping S and L ranges in place.

        Filtering and nack answering append ranges tick-by-tick, so a
        silenced run of *n* events arrives as *n* single-tick ranges;
        after coalescing it is one.  The covered ticks are unchanged,
        so receivers fold the update into their tick maps identically.
        Returns ``self`` for chaining at send sites.
        """
        if len(self.s_ranges) > 1:
            self.s_ranges = coalesce_ranges(self.s_ranges)
        if len(self.l_ranges) > 1:
            self.l_ranges = coalesce_ranges(self.l_ranges)
        return self


@dataclass
class Nack:
    """A request for knowledge about Q tick ranges of one pubend.

    ``refilter_below``: ticks below this value must not be answered
    from *filtered* caches (intermediate/SHB knowledge caches).  Those
    caches record the stream as filtered by a subscription union that
    did not yet include the requesting (reconnect-anywhere) subscriber,
    so their S ticks may hide events the requester needs.  Only the
    pubend — which filters by the *current* union — may answer them.
    """

    pubend: str
    ranges: List[Tuple[int, int]]
    refilter_below: int = 0


@dataclass
class ReleaseUpdate:
    """Release-protocol state flowing upstream (Section 3).

    ``released`` is the minimum released timestamp across the sender's
    subtree; ``latest_delivered`` the minimum latestDelivered(p).  The
    pubend's aggregated values are ``Tr(p)`` and ``Td(p)``.

    ``epoch`` supports durable-subscriber migration: within one epoch a
    child's reports are monotone (the aggregator clamps regressions as
    resend noise), but installing a migrated subscription can
    legitimately *lower* the destination SHB's minima.  The destination
    bumps its epoch with the first post-install report, telling
    aggregators to accept the regression.  Safe because the migration
    protocol installs at the destination before the source withdraws,
    so the global minimum never regresses below what the pubend already
    released.
    """

    pubend: str
    released: int
    latest_delivered: int
    epoch: int = 0


@dataclass
class SubscriptionAdd:
    """Widens the parent's copy of the sender's union by one predicate.

    Sent when the sender's count for the predicate goes 0→1.  It only
    ever widens, so a duplicated, late or reordered copy is harmless;
    nothing is sent when a count goes 1→0 (the next
    :class:`SubscriptionSync` narrows the copy).
    """

    predicate: Predicate


@dataclass
class SubscriptionSync:
    """One numbered subscription refresh of the sender's distinct set.

    Subscription unions at upstream brokers are volatile soft state,
    kept fresh by one sync per uplink per refresh interval.  It comes
    in two shapes:

    * **Digest** (``digest`` set): ``(count, digest)`` summarises the
      sender's set of distinct predicates (see
      :class:`~repro.matching.engine.PredicateSet`).  The receiver
      compares it with its own copy: on a match the epoch is applied
      and the child is warm; on a mismatch the child goes *cold*
      (knowledge passes unfiltered — safe) and the receiver answers
      :class:`SubscriptionResend`.
    * **Full set** (``digest`` None): ``predicates`` is the whole set,
      in one message, so it arrives whole or not at all.  The receiver
      replaces its copy with it, widening and narrowing, and the child
      is warm.

    ``epoch`` orders a sender's refreshes: an overtaken one is ignored.
    ``want_ack`` requests a :class:`SubscriptionSynced` confirmation
    once the refresh has been applied *at the tree root* — set by a
    migration destination, whose PFS-coverage claim for the installed
    subscription is only valid for ticks classified after every
    upstream filter learned its predicate (see PROTOCOL.md §8).
    """

    epoch: int
    want_ack: bool = False
    count: int = 0
    digest: Optional[int] = None
    predicates: Tuple[Predicate, ...] = ()


@dataclass
class SubscriptionResend:
    """Downstream repair request: the child's digest did not match.

    ``epoch`` names the mismatched digest sync and ``want_ack`` echoes
    its flag.  The child answers with a full-set refresh carrying that
    ``want_ack``; the root's ack of the later epoch covers the earlier
    one, so a coverage confirmation waiting on the digest is finalized
    by the full set.
    """

    epoch: int
    want_ack: bool = False


@dataclass
class SubscriptionSynced:
    """Downstream ack: an epoch-tagged refresh is applied root-to-here.

    ``epoch`` is the highest refresh epoch of the receiving child that
    the whole upstream chain has applied.  The PHB replies directly
    when a ``want_ack`` sync warms; an intermediate broker forwards the
    ack to its child only after its *own* covering refresh was acked
    from above.  No hop turned a D tick of pubend ``p`` into S under a
    union lacking what the refresh announced above ``max(hidden_to[p],
    hidden_floor)``: each reports the highest D tick it had hidden from
    the child at the child's last union change, and the time of its
    last recovery or re-parenting; an intermediate merges both in.
    """

    epoch: int
    hidden_to: Dict[str, int] = field(default_factory=dict)
    hidden_floor: int = 0


def clip_update(update: KnowledgeUpdate, lo: int, hi: int) -> KnowledgeUpdate:
    """The portion of a knowledge update within ``[lo, hi]``."""
    out = KnowledgeUpdate(update.pubend)
    if lo > hi:
        return out
    out.d_events = [e for e in update.d_events if lo <= e.timestamp <= hi]
    for start, end in update.s_ranges:
        s, e = max(start, lo), min(end, hi)
        if s <= e:
            out.s_ranges.append((s, e))
    for start, end in update.l_ranges:
        s, e = max(start, lo), min(end, hi)
        if s <= e:
            out.l_ranges.append((s, e))
    return out


def clip_update_to_set(update: KnowledgeUpdate, interest) -> KnowledgeUpdate:
    """The portion of a knowledge update covered by an interval set.

    Used to route nack replies to exactly the ticks a requester asked
    for.  One membership / intersection query per item — never per
    interval of the interest set, which can be large during mass
    catchup.
    """
    out = KnowledgeUpdate(update.pubend)
    out.d_events = [e for e in update.d_events if e.timestamp in interest]
    for start, end in update.s_ranges:
        for iv in interest.intersect_span(start, end):
            out.s_ranges.append((iv.start, iv.end))
    for start, end in update.l_ranges:
        for iv in interest.intersect_span(start, end):
            out.l_ranges.append((iv.start, iv.end))
    return out


def split_update(
    update: KnowledgeUpdate,
    cutoff: int,
    bounds: Optional[Tuple[int, int]] = None,
) -> Tuple[KnowledgeUpdate, KnowledgeUpdate]:
    """Split into (ticks <= cutoff, ticks > cutoff).

    Used by brokers to separate *old* knowledge (nack replies destined
    for catchup streams) from *new* head knowledge (istream/constream).
    An update wholly on one side of the cutoff comes back as the
    received instance itself, shared rather than copied (nothing on
    the receive path mutates a payload); only one that straddles the
    cutoff is clipped.  ``bounds`` is ``update.tick_bounds()`` when the
    caller splits one update at several cutoffs.
    """
    if bounds is None:
        bounds = update.tick_bounds()
    if bounds is None:
        return KnowledgeUpdate(update.pubend), KnowledgeUpdate(update.pubend)
    lo, hi = bounds
    if lo > cutoff:
        return KnowledgeUpdate(update.pubend), update
    if hi <= cutoff:
        return update, KnowledgeUpdate(update.pubend)
    return clip_update(update, 0, cutoff), clip_update(update, cutoff + 1, hi)


# ---------------------------------------------------------------------------
# Last-hop messages (SHB -> subscriber)
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class EventMessage:
    """An event that matches the subscription; see module docstring.

    ``__slots__`` and instance sharing (the constream fans one message
    per tick out to every matching subscriber) keep the last hop cheap
    at 10^5 subscribers; nothing on the delivery path mutates one.
    """

    pubend: str
    t: int
    event: Event


@dataclass(slots=True)
class SilenceMessage:
    """No matching events in ``(t0, t]``; advances the subscriber's CT."""

    pubend: str
    t: int


@dataclass(slots=True)
class GapMessage:
    """Information about ``(t0, t]`` was discarded by early release."""

    pubend: str
    t: int


# ---------------------------------------------------------------------------
# Client <-> SHB control plane
# ---------------------------------------------------------------------------
@dataclass
class ConnectRequest:
    """A durable subscriber (re)connects.

    ``checkpoint`` is None on first-ever connect (the SHB assigns a
    starting CT at latestDelivered, Section 4.1); on reconnect it is
    the subscriber's current CT.  ``predicate`` is required on first
    connect and ignored afterwards (durable subscriptions keep their
    filter).
    """

    sub_id: str
    checkpoint: Optional[Dict[str, int]] = None
    predicate: Optional[Predicate] = None


@dataclass
class ConnectAccept:
    """The SHB's reply: the CT delivery will resume from."""

    sub_id: str
    checkpoint: Dict[str, int]


@dataclass
class AckCheckpoint:
    """Periodic acknowledgment of everything up to the carried CT."""

    sub_id: str
    checkpoint: Dict[str, int]


@dataclass
class DisconnectRequest:
    """A graceful disconnect (involuntary ones just drop the link)."""

    sub_id: str


@dataclass
class PublishRequest:
    """A publisher client hands an event body to its PHB.

    ``seq`` (with ``publisher``) enables exactly-once publishing: the
    PHB deduplicates retransmissions and acknowledges each sequence
    number once the event is durably logged.  ``client_ms`` is the
    client-side publish time (simulation clock) used to anchor latency
    traces; retransmissions keep the original value.
    """

    attributes: Dict[str, object]
    payload_bytes: int
    publisher: Optional[str] = None
    seq: Optional[int] = None
    pubend: Optional[str] = None
    ttl_ms: Optional[int] = None
    client_ms: Optional[float] = None


@dataclass
class PublishAck:
    """PHB acknowledgment: everything up to ``seq`` is durably logged."""

    publisher: str
    seq: int


@dataclass
class ConnectRefused:
    """The SHB refuses a connect it can no longer serve.

    Sent when the subscription has been migrated away (``redirect_to``
    names the destination SHB) or the SHB is draining and not admitting
    new subscriptions (``redirect_to`` is None — the supervisor's
    placement policy decides where the client should go).
    """

    sub_id: str
    reason: str
    redirect_to: Optional[str] = None


# ---------------------------------------------------------------------------
# Supervisor <-> SHB migration control plane
# ---------------------------------------------------------------------------
# A durable-subscription handoff moves a subscription's identity,
# predicate, released CT, JMS CT rows and per-pubend PFS cursor from a
# source SHB to a destination SHB.  Every message carries the
# supervisor-chosen ``handoff_id`` (unique per attempt) and ``epoch``
# (strictly increasing per subscription across attempts); receivers use
# the epoch to reject stale retries of superseded attempts, making the
# whole flow idempotent under duplication, reordering and retransmission.
#
# Window ordering (the durability boundaries, each a crash-point site):
#   1. source snapshots state           -> MigrateOffer
#   2. dest installs + commits durable  -> MigrateInstalled
#   3. source drops + tombstone durable -> MigrateDone
# The destination installs *before* the source withdraws, so both
# registries briefly hold the subscription — release-safe, because the
# aggregated minimum over a superset of reporters is never larger.
@dataclass
class MigrateRequest:
    """Supervisor asks the source SHB to snapshot a subscription."""

    handoff_id: str
    sub_id: str
    epoch: int
    dest: str


@dataclass
class MigrateOffer:
    """Source SHB's snapshot of the subscription's durable state.

    ``found`` is False when the subscription does not exist at the
    source (already migrated away, or never registered) — the payload
    fields are then empty.  ``released_ct`` is the per-pubend released
    CT from the registry (the exactly-once floor); ``jms_ct`` the
    subscription's durable JMS checkpoint vector (pubend →
    consumed-up-to tick).
    """

    handoff_id: str
    sub_id: str
    epoch: int
    found: bool = True
    predicate: Optional[Predicate] = None
    released_ct: Dict[str, int] = field(default_factory=dict)
    jms_ct: Dict[str, int] = field(default_factory=dict)


@dataclass
class MigrateInstall:
    """Supervisor hands the snapshot to the destination SHB."""

    handoff_id: str
    sub_id: str
    epoch: int
    source: str
    predicate: Optional[Predicate] = None
    released_ct: Dict[str, int] = field(default_factory=dict)
    jms_ct: Dict[str, int] = field(default_factory=dict)


@dataclass
class MigrateInstalled:
    """Destination SHB confirms the install is durably committed."""

    handoff_id: str
    sub_id: str
    epoch: int


@dataclass
class MigrateCommit:
    """Supervisor tells the source to withdraw the subscription."""

    handoff_id: str
    sub_id: str
    epoch: int
    dest: str


@dataclass
class MigrateDone:
    """Source SHB confirms the withdrawal (tombstone durable)."""

    handoff_id: str
    sub_id: str
    epoch: int
