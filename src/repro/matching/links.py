"""Link matching: which child links want this event?

A PHB or intermediate broker filters every knowledge update toward each
of its child links: a D tick that matches no subscription below a link
is sent there as S.  Asking each link separately repeats the same
match once per child.  Gryphon's brokers instead *link-match*: one
match of the event against the union of all downstream subscriptions,
annotated with the links that want it (Banavar et al., "An Efficient
Multicast Protocol for Content-Based Publish-Subscribe Systems",
ICDCS 1999).

Here that is one :class:`LinkIndex` per broker: a single
:class:`~repro.matching.counting.CountingMatcher` keyed by signature
(a predicate's deduplicated atoms plus opaque residual, from its
:func:`~repro.matching.engine.compiled` record), plus a
``signature -> link mask`` map with the bit of every link holding the
signature.  Each child link's union is a :class:`LinkUnion` — its set
of distinct predicates, digest and a refcount per signature — and it
sets its bit on every signature it holds, so equal predicates that
encode differently (``Eq("x", 1)``, ``Eq("x", 1.0)``) cost one key.
The index also counts, per distinct predicate, the links holding it:
that count is an intermediate broker's own union, the set it announces
upstream.  :meth:`LinkIndex.links_of_batch` ORs the masks of the
matched keys, so bit ``c`` of an event's mask is exactly "some
predicate below link ``c`` matches".
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Mapping, Sequence

from .counting import CountingMatcher
from .engine import Compiled, PredicateSet, compiled
from .predicates import Predicate

#: The signature of a wildcard subscription: no atoms, no residual.
_WILDCARD = ("sig", frozenset(), None)


class LinkUnion(PredicateSet):
    """A parent's copy of one child link's set of distinct predicates.

    A set, not a multiset: an immediate add only widens it, so a
    duplicated or reordered one is harmless, and only a full set
    (:meth:`replace_all`) narrows it.  A member of its broker's
    :class:`LinkIndex`: ``bit`` is the link's bit in
    :meth:`LinkIndex.links_of_batch` masks.
    """

    def __init__(self, index: "LinkIndex", bit: int) -> None:
        super().__init__()
        self.bit = bit
        self._links = index
        #: signature -> members holding it; its first sets ``bit`` in the index
        self._sigs: Dict[Hashable, int] = {}

    def _signature(self, record: Compiled) -> Hashable:
        if record.signature is None:
            # Unhashable residual: a key private to this member and to
            # this link (the index is shared).
            return ("sub", self.bit, record.canonical)
        return record.signature

    def _index(self, record: Compiled) -> None:
        key = self._signature(record)
        refs = self._sigs.get(key, 0)
        if not refs:
            self._links.activate(key, self.bit, record)
        self._sigs[key] = refs + 1
        self._links.members._add(record)

    def _unindex(self, record: Compiled) -> None:
        key = self._signature(record)
        refs = self._sigs.pop(key) - 1
        if refs:
            self._sigs[key] = refs
        else:
            self._links.deactivate(key, self.bit)
        self._links.members._release(record.canonical)

    def add(self, predicate: Predicate) -> bool:
        """Widen the union by ``predicate``; True when it was new here."""
        record = compiled(predicate)
        return record.canonical not in self._members and self._add(record)

    def replace_all(self, predicates: Iterable[Predicate]) -> None:
        """Make the union exactly ``predicates`` by applying deltas only.

        A full set mostly re-states what the copy holds; diffing by
        canonical bytes touches nothing when nothing changed.
        """
        wanted = {record.canonical: record for record in map(compiled, predicates)}
        for key in [k for k in self._members if k not in wanted]:
            self._release(key)
        for key, record in wanted.items():
            if key not in self._members:
                self._add(record)

    def accepts_all(self) -> bool:
        """True when a wildcard subscription is below the link, so every
        event passes and per-event filtering can be skipped outright."""
        return _WILDCARD in self._sigs


class LinkIndex:
    """One counting index over every child link's signatures."""

    def __init__(self) -> None:
        self.matcher = CountingMatcher()
        #: Every predicate some link holds, counted once per link.
        self.members = PredicateSet()
        #: signature -> OR of the bits of the links holding it
        self._masks: Dict[Hashable, int] = {}
        self._bits_used = 0
        #: :meth:`links_of_batch` calls: one per classified update.
        self.classifications = 0

    def new_union(self) -> LinkUnion:
        """An empty union on the lowest free link bit."""
        bit = ~self._bits_used & (self._bits_used + 1)
        self._bits_used |= bit
        return LinkUnion(self, bit)

    def drop_union(self, union: LinkUnion) -> None:
        """Take ``union``'s signatures out of the index and free its bit."""
        union.replace_all(())
        self._bits_used &= ~union.bit

    def activate(self, signature: Hashable, bit: int, record: Compiled) -> None:
        """Set link ``bit`` on ``signature``; the first bit adds it to the matcher."""
        mask = self._masks.get(signature, 0)
        if not mask:
            self.matcher.add(signature, record.atoms, record.residual)
        self._masks[signature] = mask | bit

    def deactivate(self, signature: Hashable, bit: int) -> None:
        """Clear link ``bit``; the last bit out removes it from the matcher."""
        mask = self._masks.pop(signature) & ~bit
        if mask:
            self._masks[signature] = mask
        else:
            self.matcher.remove(signature)

    def links_of_batch(self, batch: Sequence[Mapping[str, Any]]) -> List[int]:
        """Per event, the OR of the bits of every link with a matching
        subscription."""
        self.classifications += 1
        masks = self._masks
        out: List[int] = []
        for keys in self.matcher.match_batch(batch):
            mask = 0
            for signature in keys:
                mask |= masks[signature]
            out.append(mask)
        return out
