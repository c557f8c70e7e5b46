"""One child link's subscription aggregate, with covering detection.

A PHB or intermediate broker filters each knowledge update toward its
child links: a D tick nobody below a link wants is sent there as S.
Evaluating every subscription individually makes that
O(subscriptions); Gryphon-style deployments instead keep a compact
**aggregate** of each link's subscription set (Shi et al., *Towards
Scalable Subscription Aggregation*).  This module keeps one such
aggregate per link — exactly, so filtering decisions (and therefore
delivery transcripts) are bit-identical to per-subscription
evaluation:

* The link's members are distinct predicates (by canonical bytes; the
  union above an SHB holds no subscription ids).  Each reduces to a
  **signature** — its deduplicated atom set plus opaque residual, taken
  from the predicate's compiled record
  (:func:`~repro.matching.engine.compiled`), so every level shares one
  signature object per predicate.  Predicates that are equal but
  encode differently (``Eq("x", 1)``, ``Eq("x", 1.0)``) share one
  refcounted signature.
* A residual-free signature ``C`` **covers** ``S`` when
  ``C.atoms ⊆ S.atoms`` — fewer conjuncts match strictly more events —
  so ``S`` adds nothing to the link's match set while ``C`` lives.
  Covered signatures are parked; only the minimal antichain is
  registered with the matcher that classifies events.
* Add/remove updates are incremental: a new signature is checked
  against existing ones with a counting subset-join over shared atoms
  (never a full pairwise sweep), and removing the last reference to a
  coverer re-activates exactly the signatures it parked.

The union of the active signatures' match sets equals the union over
all subscriptions (any parked ``S`` has a chain of ever-smaller
residual-free coverers ending in an active one), so the aggregate is an
*exact* summary, not an approximation.

Covering and parking are per link, but the index is not: every link
of a broker sets its bit on the signatures of its antichain in one
shared :class:`~repro.matching.links.LinkIndex`, which holds each
signature once, so one match answers for all links at once (Gryphon's
*link matching*).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable

from .engine import Compiled
from .predicates import Atom

if TYPE_CHECKING:
    from .links import LinkIndex

#: The signature of a wildcard subscription: no atoms, no residual.
_WILDCARD = ("sig", frozenset(), None)


class SubscriptionAggregate:
    """An exact, incrementally maintained summary of a subscription set.

    Its active signatures are registered in ``index`` under the link's
    ``bit``; ``index`` is shared with the broker's other links.
    """

    def __init__(self, index: "LinkIndex", bit: int) -> None:
        self._refs: Dict[Hashable, int] = {}
        # sig -> the compiled record of its first predicate
        self._record: Dict[Hashable, Compiled] = {}
        # atom -> ordered set of signatures containing it (for the
        # subset-join in both directions of the covering check)
        self._atom_sigs: Dict[Atom, Dict[Hashable, None]] = {}
        # sig -> residual-free signatures covering it; empty = active
        self._coverers: Dict[Hashable, Dict[Hashable, None]] = {}
        # reverse edges, so deleting a coverer re-activates its wards
        self._covered_by: Dict[Hashable, Dict[Hashable, None]] = {}
        # the active antichain is registered in the (shared) index
        self._index = index
        self._bit = bit
        self.active_count = 0
        self.cover_checks = 0

    # -- introspection -------------------------------------------------
    @property
    def signature_count(self) -> int:
        return len(self._refs)

    def accepts_all(self) -> bool:
        """True when a wildcard subscription makes filtering pointless."""
        return _WILDCARD in self._refs

    def _activate(self, key: Hashable) -> None:
        self._index.activate(key, self._bit, self._record[key])
        self.active_count += 1

    def _deactivate(self, key: Hashable) -> None:
        self._index.deactivate(key, self._bit)
        self.active_count -= 1

    # -- updates -------------------------------------------------------
    def _key(self, record: Compiled) -> Hashable:
        if record.signature is None:
            # Unhashable residual: a private, undeduplicated signature,
            # private to this link too (the index is shared).
            return ("sub", self._bit, record.canonical)
        return record.signature

    def add(self, record: Compiled) -> None:
        """A new distinct predicate below the link."""
        key = self._key(record)
        refs = self._refs.get(key)
        if refs is not None:
            self._refs[key] = refs + 1
            return
        self._refs[key] = 1
        self._record[key] = record
        coverers = self._find_coverers(key, record)
        if record.residual is None:
            self._park_newly_covered(key, record)
        for atom in record.atoms:
            self._atom_sigs.setdefault(atom, {})[key] = None
        self._coverers[key] = coverers
        for c in coverers:
            self._covered_by[c][key] = None
        if not coverers:
            self._activate(key)

    def remove(self, record: Compiled) -> None:
        """A predicate left the link."""
        key = self._key(record)
        refs = self._refs[key] - 1
        if refs:
            self._refs[key] = refs
            return
        del self._refs[key]
        coverers = self._coverers.pop(key)
        if not coverers:
            self._deactivate(key)
        for atom in self._record.pop(key).atoms:
            sigs = self._atom_sigs.get(atom)
            if sigs is not None:
                sigs.pop(key, None)
                if not sigs:
                    del self._atom_sigs[atom]
        if coverers:
            for c in coverers:
                self._covered_by[c].pop(key, None)
        for ward in self._covered_by.pop(key, {}):
            coverers = self._coverers[ward]
            del coverers[key]
            if not coverers:
                self._activate(ward)

    # -- covering ------------------------------------------------------
    def _find_coverers(self, key: Hashable, record: Compiled) -> Dict[Hashable, None]:
        """Existing residual-free signatures whose atoms ⊆ ``record``'s.

        Counting subset-join: tally, over the posting lists of the new
        signature's atoms, how many of each candidate's atoms it shares;
        a residual-free candidate with a full tally is a subset.  The
        wildcard never appears in a posting list, so check it directly.
        """
        coverers: Dict[Hashable, None] = {}
        if key != _WILDCARD and _WILDCARD in self._refs:
            coverers[_WILDCARD] = None
        tally: Dict[Hashable, int] = {}
        for atom in record.atoms:
            for sig in self._atom_sigs.get(atom, ()):
                tally[sig] = tally.get(sig, 0) + 1
        for sig, shared in tally.items():
            self.cover_checks += 1
            other = self._record[sig]
            if (
                sig != key
                and other.residual is None
                and shared == len(other.atom_set)
            ):
                coverers[sig] = None
        return coverers

    def _park_newly_covered(self, key: Hashable, record: Compiled) -> None:
        """Deactivate existing signatures the residual-free ``key`` covers."""
        atom_set = record.atom_set
        if record.atoms:
            # Candidates must contain every atom of ``key``; walk the
            # shortest posting list and verify inclusion.
            posting = min(
                (self._atom_sigs.get(atom, {}) for atom in record.atoms), key=len
            )
            candidates = [
                sig for sig in posting if atom_set <= self._record[sig].atom_set
            ]
        else:
            candidates = [sig for sig in self._refs if sig != key]
        wards = self._covered_by.setdefault(key, {})
        for sig in candidates:
            self.cover_checks += 1
            if sig == key:
                continue
            wards[sig] = None
            coverers = self._coverers[sig]
            if not coverers:
                self._deactivate(sig)
            coverers[key] = None
