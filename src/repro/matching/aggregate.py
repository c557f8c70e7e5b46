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

* Every subscription reduces to a **signature** — its deduplicated atom
  set plus opaque residual.  Equal predicates across subscribers
  (the overwhelmingly common case: many subscribers to the same groups
  or topics) collapse into one refcounted signature.
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

Covering and parking are per link, but the matcher is not: every link
of a broker registers its antichain in one shared
:class:`~repro.matching.counting.CountingMatcher` under keys
``(link, signature)``, so one match answers for all links at once
(:class:`~repro.matching.links.LinkIndex`, Gryphon's *link matching*).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Optional, Tuple

from .counting import CountingMatcher
from .predicates import Atom, Predicate

#: The signature of a wildcard subscription: no atoms, no residual.
_WILDCARD = ("sig", frozenset(), None)


class SubscriptionAggregate:
    """An exact, incrementally maintained summary of a subscription set.

    Its active signatures live in ``matcher`` under the keys
    ``(link, signature)``; ``matcher`` may be shared with other links'
    aggregates.
    """

    def __init__(self, matcher: CountingMatcher, link: Hashable) -> None:
        self._sub_sig: Dict[str, Hashable] = {}
        self._refs: Dict[Hashable, int] = {}
        self._atoms: Dict[Hashable, FrozenSet[Atom]] = {}
        self._atom_order: Dict[Hashable, Tuple[Atom, ...]] = {}
        self._residual: Dict[Hashable, Optional[Predicate]] = {}
        # atom -> ordered set of signatures containing it (for the
        # subset-join in both directions of the covering check)
        self._atom_sigs: Dict[Atom, Dict[Hashable, None]] = {}
        # sig -> residual-free signatures covering it; empty = active
        self._coverers: Dict[Hashable, Dict[Hashable, None]] = {}
        # reverse edges, so deleting a coverer re-activates its wards
        self._covered_by: Dict[Hashable, Dict[Hashable, None]] = {}
        # the active antichain is registered in the (shared) matcher
        self._matcher = matcher
        self._link = link
        self.active_count = 0
        self.cover_checks = 0

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self._sub_sig)

    @property
    def signature_count(self) -> int:
        return len(self._refs)

    def accepts_all(self) -> bool:
        """True when a wildcard subscription makes filtering pointless."""
        return _WILDCARD in self._refs

    def _activate(self, key: Hashable) -> None:
        self._matcher.add((self._link, key), self._atom_order[key], self._residual[key])
        self.active_count += 1

    def _deactivate(self, key: Hashable) -> None:
        self._matcher.remove((self._link, key))
        self.active_count -= 1

    # -- updates -------------------------------------------------------
    def add(self, sub_id: str, atoms: Tuple[Atom, ...], residual: Optional[Predicate]) -> None:
        if sub_id in self._sub_sig:
            self.remove(sub_id)
        key: Hashable = ("sig", frozenset(atoms), residual)
        try:
            hash(key)
        except TypeError:
            # Unhashable residual: a private, undeduplicated signature.
            key = ("sub", sub_id)
        self._sub_sig[sub_id] = key
        refs = self._refs.get(key)
        if refs is not None:
            self._refs[key] = refs + 1
            return
        self._refs[key] = 1
        atom_set = frozenset(atoms)
        self._atoms[key] = atom_set
        self._atom_order[key] = atoms
        self._residual[key] = residual
        coverers = self._find_coverers(key, atom_set)
        if residual is None:
            self._park_newly_covered(key, atoms, atom_set)
        for atom in atoms:
            self._atom_sigs.setdefault(atom, {})[key] = None
        self._coverers[key] = coverers
        for c in coverers:
            self._covered_by[c][key] = None
        if not coverers:
            self._activate(key)

    def remove(self, sub_id: str) -> None:
        key = self._sub_sig.pop(sub_id, None)
        if key is None:
            return
        refs = self._refs[key] - 1
        if refs:
            self._refs[key] = refs
            return
        del self._refs[key]
        coverers = self._coverers.pop(key)
        if not coverers:
            self._deactivate(key)
        atoms = self._atom_order.pop(key)
        del self._atoms[key]
        del self._residual[key]
        for atom in atoms:
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
    def _find_coverers(self, key: Hashable, atom_set: FrozenSet[Atom]) -> Dict[Hashable, None]:
        """Existing residual-free signatures whose atoms ⊆ ``atom_set``.

        Counting subset-join: tally, over the posting lists of the new
        signature's atoms, how many of each candidate's atoms it shares;
        a residual-free candidate with a full tally is a subset.  The
        wildcard never appears in a posting list, so check it directly.
        """
        coverers: Dict[Hashable, None] = {}
        if key != _WILDCARD and _WILDCARD in self._refs:
            coverers[_WILDCARD] = None
        tally: Dict[Hashable, int] = {}
        for atom in self._atom_order[key]:
            for sig in self._atom_sigs.get(atom, ()):
                tally[sig] = tally.get(sig, 0) + 1
        for sig, shared in tally.items():
            self.cover_checks += 1
            if (
                sig != key
                and self._residual[sig] is None
                and shared == len(self._atoms[sig])
            ):
                coverers[sig] = None
        return coverers

    def _park_newly_covered(
        self, key: Hashable, atoms: Tuple[Atom, ...], atom_set: FrozenSet[Atom]
    ) -> None:
        """Deactivate existing signatures the residual-free ``key`` covers."""
        if atoms:
            # Candidates must contain every atom of ``key``; walk the
            # shortest posting list and verify inclusion.
            posting = min(
                (self._atom_sigs.get(atom, {}) for atom in atoms), key=len
            )
            candidates = [
                sig for sig in posting if atom_set <= self._atoms[sig]
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
