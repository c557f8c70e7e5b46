"""Counting-based conjunctive matching core.

The classic content-based matching algorithm (Gryphon's parallel
matcher, Siena's counting matcher): every subscription predicate is
decomposed into a conjunction of per-attribute *atoms* plus an optional
opaque residual (``Predicate.decompose``).  Atoms are interned — equal
atoms across subscriptions share one index entry and are evaluated once
per event — and indexed per attribute:

* equality/membership atoms in a hash table ``value -> atoms``;
* ordered bounds in sorted lists, so one bisect finds every satisfied
  lower (or upper) bound on an attribute;
* everything else (prefix, inequality, existence) in a small
  evaluate-each bucket.

Matching an event walks its attributes once, collecting the satisfied
atoms, then *counts* per subscription: a subscription surfaces when its
count reaches its atom total (and its residual, if any, agrees).

One refinement keeps broad atoms from dominating: a subscription with
at least one equality atom only *counts* its equality atoms — the
selective ones, whose posting lists an event rarely touches — and its
broad atoms (ranges, prefixes, inequalities) are verified by interned-id
lookup in the event's satisfied-atom set once the count fills.  A
range-heavy event therefore never walks the long posting list of, say,
``price >= 10`` unless some subscription consists of broad atoms only.
The per-event cost tracks the satisfied *selective* atoms and the
subscriptions sharing them — independent of the total subscription
count for selective workloads.

Keys are opaque hashables: the :class:`~repro.matching.engine
.MatchingEngine` counts subscription ids, a broker's
:class:`~repro.matching.links.LinkIndex` counts signatures — every
child link's deduplicated conjunction signatures, each once, in one
index.

The matcher works on *streams* of events: its two entry points,
:meth:`CountingMatcher.match_batch` and
:meth:`CountingMatcher.matches_any_batch`, take a sequence (a constream
pump's live run, a filtered ``KnowledgeUpdate``'s tick-range; one event
is the sequence of length one) and there is no other counting loop.
Real workloads draw attribute values from small domains, so
consecutive events repeat both index probes and entire satisfied-atom
signatures.  Two caches live on the matcher, persist across calls and
are invalidated wholesale on any registration change:

* the **probe cache** maps ``(attr, type, value)`` to a token plus the
  tuple of satisfied interned atoms, so a repeated value costs one dict
  hit instead of a hash probe plus two bisects;
* the **signature memo** maps the event's token tuple (an interned
  stand-in for its satisfied predicate-signature set, in collection
  order) to the ordered candidate list that survives counting and
  subset verification, so the counting loop
  (:meth:`CountingMatcher._candidates_for`) runs once per *distinct*
  signature per registration epoch, not once per event.

Residuals still run per event (they read arbitrary attributes).  Output
order is deterministic: registration order for zero-atom keys, then
atom-collection order — all the underlying tables are insertion-ordered.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence, Tuple

from .predicates import Atom, CmpAtom, EqAtom, Predicate

#: Sort flags giving each bound list the "one bisect = all satisfied"
#: property: for lower bounds the satisfied atoms are the prefix below
#: ``(value, 0.5)``; for upper bounds, the suffix above it.
_LO_FLAG = {">=": 0, ">": 1}
_HI_FLAG = {"<": 0, "<=": 1}

#: Bound on each amortization cache (probe cache, signature memo)
#: before it is cleared wholesale.  Real workloads draw values
#: and signatures from small domains, so the bound exists only to keep
#: a pathological high-cardinality stream from hoarding memory.
_BATCH_CACHE_LIMIT = 4096


class _BoundList:
    """Distinct comparison atoms of one direction, sorted by bound.

    Entries are ``(bound, flag, atom)`` triples; ``(bound, flag)`` is
    unique within a list (equal atoms are interned upstream), so tuple
    comparison never reaches the atom.  Sorting is lazy; a list whose
    bounds are mutually incomparable (mixed types) degrades to
    evaluate-each, as does a single event value that won't compare.
    """

    __slots__ = ("entries", "_dirty", "_unsortable")

    def __init__(self) -> None:
        self.entries: List[Tuple[Any, int, CmpAtom]] = []
        self._dirty = False
        self._unsortable = False

    def add(self, flag: int, atom: CmpAtom) -> None:
        self.entries.append((atom.bound, flag, atom))
        self._dirty = True

    def discard(self, flag: int, atom: CmpAtom) -> None:
        try:
            self.entries.remove((atom.bound, flag, atom))
        except ValueError:
            pass
        if not self.entries:
            self._dirty = False
            self._unsortable = False

    def _ensure_sorted(self) -> bool:
        if self._dirty and not self._unsortable:
            try:
                self.entries.sort(key=lambda e: (e[0], e[1]))
            except TypeError:
                self._unsortable = True
            else:
                self._dirty = False
        return not self._unsortable

    def collect(self, value: Any, prefix: bool, out: List[Atom]) -> int:
        """Append the atoms satisfied by ``value``; return atoms examined."""
        if not self.entries:
            return 0
        if self._ensure_sorted():
            try:
                pos = bisect_right(self.entries, (value, 0.5))
            except TypeError:
                pass  # this value won't compare: evaluate each atom
            else:
                hits = self.entries[:pos] if prefix else self.entries[pos:]
                out.extend(e[2] for e in hits)
                return len(hits)
        n = 0
        for _bound, _flag, atom in self.entries:
            n += 1
            if atom.satisfied(value):
                out.append(atom)
        return n


class _AttrIndex:
    """All atoms constraining one attribute."""

    __slots__ = ("eq", "lo", "hi", "misc")

    def __init__(self) -> None:
        # value -> ordered set of EqAtoms whose value set contains it
        self.eq: Dict[Any, Dict[EqAtom, None]] = {}
        self.lo = _BoundList()  # '>' / '>='
        self.hi = _BoundList()  # '<' / '<='
        # evaluate-each atoms (Ne, Exists, Prefix), insertion ordered
        self.misc: Dict[Atom, None] = {}

    def add(self, atom: Atom) -> None:
        if isinstance(atom, EqAtom):
            for value in atom.values:
                self.eq.setdefault(value, {})[atom] = None
        elif isinstance(atom, CmpAtom):
            if atom.op in _LO_FLAG:
                self.lo.add(_LO_FLAG[atom.op], atom)
            else:
                self.hi.add(_HI_FLAG[atom.op], atom)
        else:
            self.misc[atom] = None

    def discard(self, atom: Atom) -> None:
        if isinstance(atom, EqAtom):
            for value in atom.values:
                bucket = self.eq.get(value)
                if bucket is not None:
                    bucket.pop(atom, None)
                    if not bucket:
                        del self.eq[value]
        elif isinstance(atom, CmpAtom):
            if atom.op in _LO_FLAG:
                self.lo.discard(_LO_FLAG[atom.op], atom)
            else:
                self.hi.discard(_HI_FLAG[atom.op], atom)
        else:
            self.misc.pop(atom, None)

    def collect(self, value: Any, out: List[Atom]) -> int:
        """Append every atom satisfied by the present ``value``."""
        examined = 0
        if self.eq:
            examined += 1
            try:
                hits = self.eq.get(value)
            except TypeError:
                hits = None  # unhashable event value: no equality can hold
            if hits:
                out.extend(hits)
        examined += self.lo.collect(value, True, out)
        examined += self.hi.collect(value, False, out)
        for atom in self.misc:
            examined += 1
            if atom.satisfied(value):
                out.append(atom)
        return examined


class _AtomEntry:
    """Interning record for one distinct atom."""

    __slots__ = ("atom", "id", "keys", "refs")

    def __init__(self, atom: Atom, id_: int) -> None:
        self.atom = atom
        self.id = id_  # small int, so satisfied-set lookups never rehash atoms
        self.keys: Dict[Hashable, None] = {}  # keys *counting* this atom
        self.refs = 0  # keys referencing it (counting or verifying)


class CountingMatcher:
    """Maps opaque keys to (atoms, residual) and matches by counting."""

    def __init__(self) -> None:
        self._needs: Dict[Hashable, int] = {}
        self._atoms_of: Dict[Hashable, Tuple[Atom, ...]] = {}
        #: key -> interned ids of its broad atoms, verified (not counted)
        #: against the event's satisfied-atom id set when the count fills
        self._verify: Dict[Hashable, FrozenSet[int]] = {}
        self._residuals: Dict[Hashable, Predicate] = {}
        self._entries: Dict[Atom, _AtomEntry] = {}
        self._next_atom_id = 0
        self._attrs: Dict[str, _AttrIndex] = {}
        # zero-atom keys: wildcards (no residual) and the scan bucket
        self._always: Dict[Hashable, None] = {}
        # amortization caches, invalidated on any add/remove:
        # (attr, type, value) -> (token, satisfied interned entries),
        # and token-tuple signature -> the ordered candidate plan
        # surviving counting + subset verification.  Tokens are small
        # ints drawn from a monotonic counter (never reset, so a token
        # can never rebind to different entries even across cache
        # clears); a signature of tokens is therefore equivalent to the
        # full satisfied-atom id sequence but costs one tuple of a few
        # ints per event instead of one per satisfied atom.
        self._probe_cache: Dict[
            Tuple[Any, ...], Tuple[int, Tuple["_AtomEntry", ...]]
        ] = {}
        self._probe_token = 0
        self._sig_memo: Dict[
            Tuple[int, ...], Tuple[Tuple[Hashable, Optional[Predicate]], ...]
        ] = {}
        # instrumentation
        self.atoms_examined = 0
        self.residual_evals = 0
        self.candidates_seen = 0
        self.events_processed = 0
        self.probe_cache_hits = 0
        self.sig_memo_hits = 0

    # -- registry ------------------------------------------------------
    def _intern(self, atom: Atom) -> _AtomEntry:
        entry = self._entries.get(atom)
        if entry is None:
            entry = self._entries[atom] = _AtomEntry(atom, self._next_atom_id)
            self._next_atom_id += 1
            attr = getattr(atom, "attr", None)
            if attr is not None:  # NeverAtom indexes nowhere
                idx = self._attrs.get(attr)
                if idx is None:
                    idx = self._attrs[attr] = _AttrIndex()
                idx.add(atom)
        return entry

    def add(self, key: Hashable, atoms: Tuple[Atom, ...], residual: Optional[Predicate]) -> None:
        if key in self._needs:
            self.remove(key)
        self._probe_cache.clear()
        self._sig_memo.clear()
        if len(set(atoms)) < len(atoms):  # duplicates would skew counts
            atoms = tuple(dict.fromkeys(atoms))
        self._atoms_of[key] = atoms
        if residual is not None:
            self._residuals[key] = residual
        if not atoms:
            self._always[key] = None
        # Count through one selective *access* atom when the key has an
        # equality atom (the least-loaded one, to spread posting lists);
        # every other atom is verified by interned id against the
        # event's satisfied set once the access atom fires.  A key with
        # no equality atom counts everything it has — broad atoms can't
        # be trusted as the sole access path, but they are rare as a
        # subscription's only constraint.
        entries = [self._intern(atom) for atom in atoms]
        for entry in entries:
            entry.refs += 1
        eq_entries = [e for e in entries if isinstance(e.atom, EqAtom)]
        if eq_entries:
            access = min(eq_entries, key=lambda e: len(e.keys))
            counted = [access]
            verified = frozenset(e.id for e in entries if e is not access)
        else:
            counted = entries
            verified = frozenset()
        for entry in counted:
            entry.keys[key] = None
        self._needs[key] = len(counted)
        if verified:
            self._verify[key] = verified

    def remove(self, key: Hashable) -> None:
        if key not in self._needs:
            return
        self._probe_cache.clear()
        self._sig_memo.clear()
        del self._needs[key]
        atoms = self._atoms_of.pop(key)
        self._verify.pop(key, None)
        self._residuals.pop(key, None)
        self._always.pop(key, None)
        for atom in atoms:
            entry = self._entries[atom]
            entry.keys.pop(key, None)
            entry.refs -= 1
            if not entry.refs:
                del self._entries[atom]
                attr = getattr(atom, "attr", None)
                if attr is not None:
                    self._attrs[attr].discard(atom)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._needs

    def __len__(self) -> int:
        return len(self._needs)

    @property
    def atom_count(self) -> int:
        """Distinct (interned) atoms currently indexed."""
        return len(self._entries)

    def accepts_all(self) -> bool:
        """True when some key matches every event (no atoms, no residual)."""
        return any(key not in self._residuals for key in self._always)

    @property
    def scan_count(self) -> int:
        """Keys with no indexable atoms at all — the opaque scan bucket."""
        return sum(1 for key in self._always if key in self._residuals)

    # -- matching ------------------------------------------------------
    def _residual_ok(self, key: Hashable, attributes: Mapping[str, Any]) -> bool:
        residual = self._residuals.get(key)
        if residual is None:
            return True
        self.residual_evals += 1
        return residual.matches(attributes)

    def _probe(
        self, attributes: Mapping[str, Any]
    ) -> Tuple[Tuple[int, ...], List[Tuple["_AtomEntry", ...]]]:
        """One event's satisfied-atom signature and per-attribute hits.

        The probe cache key includes the value's type so ``==``-equal
        values of different types (``1`` / ``1.0`` / ``True``) can
        never share an entry — atom satisfaction must be recomputed,
        not assumed equal across types.  An unhashable value bypasses
        the cache and draws a fresh token, so its event's signature
        never falsely aliases a cached one.
        """
        probe = self._probe_cache
        sig_parts: List[int] = []
        hit_parts: List[Tuple[_AtomEntry, ...]] = []
        for attr, value in attributes.items():
            idx = self._attrs.get(attr)
            if idx is None:
                continue
            try:
                pkey: Optional[Tuple[Any, ...]] = (attr, value.__class__, value)
                ent = probe.get(pkey)
            except TypeError:
                pkey = None
                ent = None
            if ent is None:
                atoms: List[Atom] = []
                self.atoms_examined += idx.collect(value, atoms)
                entries = self._entries
                token = self._probe_token
                self._probe_token += 1
                ent = (token, tuple(entries[atom] for atom in atoms))
                if pkey is not None:
                    if len(probe) >= _BATCH_CACHE_LIMIT:
                        probe.clear()
                    probe[pkey] = ent
            else:
                self.probe_cache_hits += 1
            sig_parts.append(ent[0])
            hit_parts.append(ent[1])
        return tuple(sig_parts), hit_parts

    def _candidates_for(
        self,
        sig: Tuple[int, ...],
        hit_parts: List[Tuple["_AtomEntry", ...]],
    ) -> Tuple[Tuple[Hashable, Optional[Predicate]], ...]:
        """The ordered candidate plan for one satisfied-atom signature.

        The counting loop: count through the access atoms, verify the
        rest by interned-id subset, and record ``(key, residual)``
        pairs instead of evaluating residuals, so the plan depends only
        on the signature and is memoized per registration epoch.
        Emission order is atom-collection order.
        """
        memo = self._sig_memo
        plan = memo.get(sig)
        if plan is not None:
            self.sig_memo_hits += 1
            return plan
        sat = [entry for part in hit_parts for entry in part]
        sat_ids = {entry.id for entry in sat}
        counts: Dict[Hashable, int] = {}
        needs = self._needs
        verify = self._verify
        residuals = self._residuals
        issuperset = sat_ids.issuperset
        out: List[Tuple[Hashable, Optional[Predicate]]] = []
        touched = 0
        for entry in sat:
            touched += len(entry.keys)
            for key in entry.keys:
                need = needs[key]
                if need != 1:
                    n = counts.get(key, 0) + 1
                    counts[key] = n
                    if n != need:
                        continue
                pending = verify.get(key)
                if pending is not None and not issuperset(pending):
                    continue
                out.append((key, residuals.get(key)))
        self.candidates_seen += touched
        plan = tuple(out)
        if len(memo) >= _BATCH_CACHE_LIMIT:
            memo.clear()
        memo[sig] = plan
        return plan

    def match_batch(
        self, batch: Sequence[Mapping[str, Any]]
    ) -> List[List[Hashable]]:
        """Per event, every key whose predicate matches, in
        deterministic order (zero-atom keys in registration order, then
        the signature's candidate plan).

        Index probes go through the probe cache, the counting loop
        through the signature memo; residuals are evaluated per event
        (they read arbitrary attribute values the signature does not
        capture).
        """
        results: List[List[Hashable]] = []
        always = self._always
        for attributes in batch:
            self.events_processed += 1
            out: List[Hashable] = []
            for key in always:
                if self._residual_ok(key, attributes):
                    out.append(key)
            sig, hit_parts = self._probe(attributes)
            for key, residual in self._candidates_for(sig, hit_parts):
                if residual is None:
                    out.append(key)
                else:
                    self.residual_evals += 1
                    if residual.matches(attributes):
                        out.append(key)
            results.append(out)
        return results

    def matches_any_batch(self, batch: Sequence[Mapping[str, Any]]) -> List[bool]:
        """Short-circuiting :meth:`match_batch`: per event, does *any*
        key match?"""
        results: List[bool] = []
        always = self._always
        for attributes in batch:
            self.events_processed += 1
            hit = False
            for key in always:
                if self._residual_ok(key, attributes):
                    hit = True
                    break
            if not hit:
                sig, hit_parts = self._probe(attributes)
                for key, residual in self._candidates_for(sig, hit_parts):
                    if residual is None:
                        hit = True
                        break
                    self.residual_evals += 1
                    if residual.matches(attributes):
                        hit = True
                        break
            results.append(hit)
        return results
