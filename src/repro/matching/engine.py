"""The matching engine: which subscriptions does this event match?

An SHB hosting hundreds of durable subscribers must compute, for every
event in the constream, the full set of matching subscriber ids (that
set is exactly what the PFS logs).  :class:`MatchingEngine` answers it
with the counting matcher (:mod:`repro.matching.counting`): every
predicate is decomposed, once per process (:func:`compiled`), into
indexable per-attribute atoms plus an opaque residual, atoms are
interned and indexed per attribute (hash for equalities, sorted bounds
for ranges), and an event matches a subscription when it satisfies all
of its atoms — determined by counting, not by re-walking predicate
trees.  Only fully opaque predicates land in the (now rare) scan
bucket, as zero-atom entries that are candidates for every event.

A broker handles *streams*: the SHB's constream pump hands over a whole
live run.  The ``*_batch`` methods are therefore the algorithm;
``match`` / ``matches_any`` / ``match_at`` are the batch of one and
share its probe cache, signature memo and counters.  Nothing memoizes
answers per event: the constream consumes each event once per engine
life, so such a cache could never be hit.

PHBs and intermediates ask a different question — which child links
want this event — and answer it without a per-subscription index:
each child's union is a :class:`~repro.matching.links.LinkUnion`, and
one :class:`~repro.matching.links.LinkIndex` per broker classifies an
event for all of its links in one match.  Above the SHB nothing is
per-subscription: a union is a :class:`PredicateSet` of distinct
predicates, keyed by canonical bytes, with an order-independent
digest.  Every registry shares each predicate's :class:`Compiled`
record, so an SHB and every broker above it hold one atom tuple and
one signature per predicate object, not one per level.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import (
    Any, Dict, FrozenSet, Hashable, Iterable, List, Mapping, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

from .counting import CountingMatcher
from .predicates import Atom, Predicate


#: Union digests are sums of per-predicate hashes modulo 2**64.
DIGEST_MASK = (1 << 64) - 1

#: Predicates whose compiled record is memoized (see compiled).
_CANONICAL_LIMIT = 4096
_compiled: Dict[int, "Compiled"] = {}
#: Cache misses of :func:`compiled`: predicate decompositions performed.
decompositions = 0


def _canonical(value: Any) -> str:
    """A text form of ``value`` that is the same in every process.

    ``repr`` is not: a frozenset's iteration order — and with it the
    repr of ``In.values`` — follows the string hash seed.  Sets are
    therefore spelled out sorted, and predicates field by field.
    """
    if isinstance(value, (frozenset, set)):
        return "{" + ",".join(sorted(_canonical(v) for v in value)) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            _canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    return repr(value)


def union_digest(predicates: Iterable[Predicate]) -> int:
    """The digest of a set of predicates, from scratch (see :class:`PredicateSet`)."""
    digests = {record.canonical: record.digest for record in map(compiled, predicates)}
    return sum(digests.values()) & DIGEST_MASK


def decompose_safe(predicate: Predicate) -> Tuple[Tuple[Atom, ...], Optional[Predicate]]:
    """``predicate.decompose()``, deduplicated and guaranteed hashable.

    Atoms embedding unhashable values (a list-valued ``Eq`` bound, say)
    cannot be interned or indexed; such predicates fall back to fully
    opaque, exactly like any other scan-bucket resident.
    """
    try:
        atoms, residual = predicate.decompose()
        atoms = tuple(dict.fromkeys(atoms))
        hash(atoms)
    except TypeError:
        return (), predicate
    return atoms, residual


class Compiled(NamedTuple):
    """A predicate's intake state, shared by every registry in the process."""

    predicate: Predicate
    canonical: bytes
    atoms: Tuple[Atom, ...]
    atom_set: FrozenSet[Atom]
    residual: Optional[Predicate]
    #: ``("sig", atom_set, residual)``; None when unhashable, and then
    #: each subscription's signature is private to it.
    signature: Optional[Hashable]
    #: The 64-bit hash of ``canonical`` that union digests sum.
    digest: int


def compiled(predicate: Predicate) -> Compiled:
    """``predicate``'s canonical bytes, safe decomposition and signature.

    Memoized by identity, never by equality: ``Eq("x", 1)`` and
    ``Eq("x", 1.0)`` are equal but encode differently, so an
    equality-keyed memo would make a digest depend on which one a
    process saw first.  The entry holds the predicate, so its id cannot
    be reused while cached; an unhashable predicate is not cached.
    """
    global decompositions
    record = _compiled.get(id(predicate))
    if record is not None:
        return record
    decompositions += 1
    atoms, residual = decompose_safe(predicate)
    atom_set = frozenset(atoms)
    signature: Optional[Hashable] = ("sig", atom_set, residual)
    try:
        hash(signature)
    except TypeError:
        signature = None
    canonical = _canonical(predicate).encode()
    # crc32 | adler32 << 32: identical across processes and hash seeds,
    # from zlib alone.
    digest = zlib.crc32(canonical) | zlib.adler32(canonical) << 32
    record = Compiled(predicate, canonical, atoms, atom_set, residual, signature, digest)
    if signature is not None:
        if len(_compiled) >= _CANONICAL_LIMIT:
            _compiled.clear()
        _compiled[id(predicate)] = record
    return record


class PredicateSet:
    """Distinct predicates, keyed by canonical bytes, each reference-counted.

    ``digest`` is the sum of the distinct members' hashes modulo 2**64:
    order-independent, kept up to date per change, and a function of
    the set alone, so two brokers holding the same predicates agree on
    it in every process.  Equal predicates that encode differently
    (``Eq("x", 1)``, ``Eq("x", 1.0)``) are distinct members.
    Subclasses index members through :meth:`_index` / :meth:`_unindex`.
    """

    def __init__(self) -> None:
        self._members: Dict[bytes, Compiled] = {}
        self._refs: Dict[bytes, int] = {}
        self.digest = 0

    def _index(self, record: Compiled) -> None:
        """A predicate became a member."""

    def _unindex(self, record: Compiled) -> None:
        """A predicate stopped being a member."""

    def add(self, predicate: Predicate) -> bool:
        """Count one more reference; True when ``predicate`` is new (0→1)."""
        return self._add(compiled(predicate))

    def _add(self, record: Compiled) -> bool:
        key = record.canonical
        refs = self._refs.get(key, 0)
        self._refs[key] = refs + 1
        if refs:
            return False
        self._members[key] = record
        self.digest = (self.digest + record.digest) & DIGEST_MASK
        self._index(record)
        return True

    def remove(self, predicate: Predicate) -> bool:
        """Drop one reference; True when it was the last (1→0)."""
        return self._release(compiled(predicate).canonical)

    def _release(self, key: bytes) -> bool:
        refs = self._refs.get(key, 0)
        if refs != 1:
            if refs:
                self._refs[key] = refs - 1
            return False
        del self._refs[key]
        record = self._members.pop(key)
        self.digest = (self.digest - record.digest) & DIGEST_MASK
        self._unindex(record)
        return True

    def __contains__(self, predicate: Predicate) -> bool:
        return compiled(predicate).canonical in self._members

    def __len__(self) -> int:
        return len(self._members)

    def keys(self):
        """The members' canonical bytes (a set-like view)."""
        return self._members.keys()

    def predicates(self) -> Tuple[Predicate, ...]:
        """Every distinct member, in insertion order."""
        return tuple(record.predicate for record in self._members.values())


class MatchingEngine:
    """Per-subscription matching over a counting index.

    The SHB's registry of ``subscription_id -> Predicate``; the only
    structure that names subscriptions.
    """

    def __init__(self) -> None:
        self._filters: Dict[str, Predicate] = {}
        self._counting = CountingMatcher()

    def add(self, sub_id: str, predicate: Predicate) -> None:
        """Register (or replace) a subscription's filter."""
        if sub_id in self._filters:
            self.remove(sub_id)
        self._filters[sub_id] = predicate
        record = compiled(predicate)
        self._counting.add(sub_id, record.atoms, record.residual)

    def remove(self, sub_id: str) -> None:
        """Unregister a subscription (no-op when absent)."""
        if self._filters.pop(sub_id, None) is None:
            return
        self._counting.remove(sub_id)

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self._filters

    def __len__(self) -> int:
        return len(self._filters)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def match(self, attributes: Mapping[str, Any]) -> Set[str]:
        """All subscription ids whose predicate matches ``attributes``."""
        return self.match_batch([attributes])[0]

    def matches_any(self, attributes: Mapping[str, Any]) -> bool:
        """True if at least one registered subscription matches."""
        return self.matches_any_batch([attributes])[0]

    def accepts_all(self) -> bool:
        """True when a wildcard subscription is registered, so every
        event matches."""
        return self._counting.accepts_all()

    def match_at(self, event_id: str, attributes: Mapping[str, Any]) -> FrozenSet[str]:
        """Like :meth:`match` for the event ``event_id``
        (``pubend:timestamp``), as a frozen set: the constream keys its
        per-set memos (PFS nums, fan-out order) by value.
        """
        return self.match_at_batch([(event_id, attributes)])[0]

    def match_batch(self, batch: Sequence[Mapping[str, Any]]) -> List[Set[str]]:
        """Per-event :meth:`match` results for a whole batch, in order."""
        return [set(found) for found in self._counting.match_batch(batch)]

    def matches_any_batch(self, batch: Sequence[Mapping[str, Any]]) -> List[bool]:
        """Per-event :meth:`matches_any` answers for a whole batch."""
        return self._counting.matches_any_batch(batch)

    def match_at_batch(
        self, items: Sequence[Tuple[str, Mapping[str, Any]]]
    ) -> List[FrozenSet[str]]:
        """:meth:`match_at` over ``(event_id, attributes)`` pairs, matched
        as one batch."""
        found = self._counting.match_batch([attributes for _id, attributes in items])
        return [frozenset(subs) for subs in found]

    def matches_subscription(self, sub_id: str, attributes: Mapping[str, Any]) -> bool:
        """Evaluate one specific subscription (catchup-stream filtering)."""
        predicate = self._filters.get(sub_id)
        return predicate is not None and predicate.matches(attributes)

    # ------------------------------------------------------------------
    # Instrumentation (see metrics.collector.matcher)
    # ------------------------------------------------------------------
    @property
    def atoms_examined(self) -> int:
        """Atom-index probes performed across all match calls."""
        return self._counting.atoms_examined

    @property
    def residual_evals(self) -> int:
        """Opaque predicate evaluations (scan bucket + residuals)."""
        return self._counting.residual_evals

    @property
    def candidates_seen(self) -> int:
        """Subscriptions whose satisfied-atom count was touched."""
        return self._counting.candidates_seen

    @property
    def events_processed(self) -> int:
        return self._counting.events_processed

    @property
    def batch_events(self) -> int:
        """Events matched as part of a batch — all of them; the name is
        one the benchmark ledger reads beside ``events_processed``."""
        return self._counting.events_processed

    @property
    def probe_cache_hits(self) -> int:
        """Attribute probes answered from the probe cache."""
        return self._counting.probe_cache_hits

    @property
    def sig_memo_hits(self) -> int:
        """Counting loops skipped via the signature memo."""
        return self._counting.sig_memo_hits

    @property
    def atom_count(self) -> int:
        """Distinct interned atoms currently indexed."""
        return self._counting.atom_count

    @property
    def scan_count(self) -> int:
        """Subscriptions resident in the opaque scan bucket."""
        return self._counting.scan_count
