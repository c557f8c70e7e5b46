"""The content-based subscription language.

Gryphon is a *content-based* publish/subscribe system: a subscription
is a predicate over event attributes, evaluated by brokers (including
intermediate brokers, which use it to filter knowledge streams so that
uninteresting events travel no further than necessary).

Predicates are small immutable trees.  Composite predicates (:class:`And`,
:class:`Or`, :class:`Not`) combine the attribute tests.  Every predicate
answers :meth:`Predicate.matches` against an attribute mapping and
exposes one indexing view for the matching engine,
:meth:`Predicate.decompose`: the predicate as a conjunction of
indexable *atoms* plus an optional opaque residual, so multi-attribute
conjunctions (the common content-based form in Gryphon's
information-flow model) are matched by counting satisfied atoms per
subscription instead of re-evaluating whole trees.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, FrozenSet, Mapping, Optional, Sequence, Tuple

_MISSING = object()


# ---------------------------------------------------------------------------
# Atoms: the indexable units of the counting matcher
# ---------------------------------------------------------------------------
class Atom:
    """One indexable per-attribute test.

    A predicate decomposes into a conjunction of atoms (plus an optional
    residual); the matching engine builds per-attribute inverted indexes
    over atoms and matches an event by *counting* satisfied atoms per
    subscription.  Atoms are small frozen values: equal atoms across
    subscriptions are interned and evaluated once per event.

    Every atom implicitly requires its attribute to be **present** in
    the event; :meth:`satisfied` is only consulted for present values
    (which may legitimately be ``None``).
    """

    __slots__ = ()

    def satisfied(self, value: Any) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class EqAtom(Atom):
    """``value ∈ values`` — the hash-indexable equality/membership atom."""

    attr: str
    values: FrozenSet[Any]

    def satisfied(self, value: Any) -> bool:
        return value in self.values


@dataclass(frozen=True, slots=True)
class CmpAtom(Atom):
    """An ordered bound: ``value <op> bound`` with op in ``< <= > >=``.

    Indexed via sorted bound lists (one bisect finds every satisfied
    bound atom on an attribute); a type mismatch is unsatisfied, like
    :class:`Cmp`.
    """

    attr: str
    op: str
    bound: Any

    def satisfied(self, value: Any) -> bool:
        try:
            return Cmp._OPS[self.op](value, self.bound)
        except TypeError:
            return False


@dataclass(frozen=True, slots=True)
class NeAtom(Atom):
    """``value != other`` (attribute presence is implied)."""

    attr: str
    value: Any

    def satisfied(self, value: Any) -> bool:
        return value != self.value


@dataclass(frozen=True, slots=True)
class ExistsAtom(Atom):
    """The attribute is present, whatever its value."""

    attr: str

    def satisfied(self, value: Any) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class PrefixAtom(Atom):
    """String attribute starts with ``prefix``."""

    attr: str
    prefix: str

    def satisfied(self, value: Any) -> bool:
        return isinstance(value, str) and value.startswith(self.prefix)


@dataclass(frozen=True, slots=True)
class NeverAtom(Atom):
    """Satisfied by no event — :class:`Nothing` and empty :class:`Or`.

    Carries no attribute; the engine registers it nowhere, so the
    owning subscription's satisfied count can never reach its total.
    """

    def satisfied(self, value: Any) -> bool:  # pragma: no cover - unindexed
        return False


#: A decomposition: the predicate ≡ AND(atoms) ∧ residual (None = true).
Decomposition = Tuple[Tuple[Atom, ...], Optional["Predicate"]]


class Predicate:
    """Base class for subscription predicates.

    Predicates are immutable values: ``__slots__`` throughout (rows at
    10^5-subscriber scale reference them heavily) and leaf constructors
    intern their attribute names, so equal predicates across
    subscriptions share their key strings.
    """

    __slots__ = ()

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        raise NotImplementedError

    def decompose(self) -> Decomposition:
        """``(atoms, residual)`` with ``self ≡ AND(atoms) ∧ residual``.

        The default is fully opaque — no atoms, the predicate itself as
        the residual — which lands the subscription in the engine's
        (now rare) scan bucket.  Leaf predicates override this with
        their exact atom form; :class:`And` concatenates its children's
        decompositions, so only truly opaque subtrees stay residual.
        """
        return (), self

    # Convenience combinators -------------------------------------------------
    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)


@dataclass(frozen=True, slots=True)
class Everything(Predicate):
    """Matches every event (a wildcard subscription)."""

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        return True

    def decompose(self) -> Decomposition:
        return (), None


@dataclass(frozen=True, slots=True)
class Nothing(Predicate):
    """Matches no event (useful as an identity for Or-folds)."""

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        return False

    def decompose(self) -> Decomposition:
        return (NeverAtom(),), None


@dataclass(frozen=True, slots=True)
class Eq(Predicate):
    """``attributes[attr] == value``."""

    attr: str
    value: Any

    def __post_init__(self) -> None:
        object.__setattr__(self, "attr", sys.intern(self.attr))

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        return attributes.get(self.attr, _MISSING) == self.value

    def decompose(self) -> Decomposition:
        return (EqAtom(self.attr, frozenset((self.value,))),), None


@dataclass(frozen=True, slots=True)
class In(Predicate):
    """``attributes[attr]`` is one of a fixed set of values."""

    attr: str
    values: FrozenSet[Any]

    def __init__(self, attr: str, values: Sequence[Any]):
        object.__setattr__(self, "attr", sys.intern(attr))
        object.__setattr__(self, "values", frozenset(values))

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        return attributes.get(self.attr, _MISSING) in self.values

    def decompose(self) -> Decomposition:
        return (EqAtom(self.attr, self.values),), None


@dataclass(frozen=True, slots=True)
class Ne(Predicate):
    """``attributes[attr] != value`` (attribute must be present)."""

    attr: str
    value: Any

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        got = attributes.get(self.attr, _MISSING)
        return got is not _MISSING and got != self.value

    def decompose(self) -> Decomposition:
        return (NeAtom(self.attr, self.value),), None


@dataclass(frozen=True, slots=True)
class Cmp(Predicate):
    """An ordered comparison: ``attributes[attr] <op> bound``."""

    attr: str
    op: str  # one of '<', '<=', '>', '>='
    bound: Any

    _OPS = {
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        got = attributes.get(self.attr, _MISSING)
        if got is _MISSING:
            return False
        try:
            return self._OPS[self.op](got, self.bound)
        except TypeError:
            return False

    def decompose(self) -> Decomposition:
        return (CmpAtom(self.attr, self.op, self.bound),), None


def Lt(attr: str, bound: Any) -> Cmp:
    return Cmp(attr, "<", bound)


def Le(attr: str, bound: Any) -> Cmp:
    return Cmp(attr, "<=", bound)


def Gt(attr: str, bound: Any) -> Cmp:
    return Cmp(attr, ">", bound)


def Ge(attr: str, bound: Any) -> Cmp:
    return Cmp(attr, ">=", bound)


@dataclass(frozen=True, slots=True)
class Between(Predicate):
    """``lo <= attributes[attr] <= hi``."""

    attr: str
    lo: Any
    hi: Any

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        got = attributes.get(self.attr, _MISSING)
        if got is _MISSING:
            return False
        try:
            return self.lo <= got <= self.hi
        except TypeError:
            return False

    def decompose(self) -> Decomposition:
        return (CmpAtom(self.attr, ">=", self.lo), CmpAtom(self.attr, "<=", self.hi)), None


@dataclass(frozen=True, slots=True)
class Exists(Predicate):
    """The attribute is present, whatever its value."""

    attr: str

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        return self.attr in attributes

    def decompose(self) -> Decomposition:
        return (ExistsAtom(self.attr),), None


@dataclass(frozen=True, slots=True)
class Prefix(Predicate):
    """String attribute starts with the given prefix."""

    attr: str
    prefix: str

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        got = attributes.get(self.attr)
        return isinstance(got, str) and got.startswith(self.prefix)

    def decompose(self) -> Decomposition:
        return (PrefixAtom(self.attr, self.prefix),), None


@dataclass(frozen=True, slots=True)
class And(Predicate):
    """Conjunction of predicates."""

    terms: Tuple[Predicate, ...]

    def __init__(self, terms: Sequence[Predicate]):
        object.__setattr__(self, "terms", tuple(terms))

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        return all(t.matches(attributes) for t in self.terms)

    def decompose(self) -> Decomposition:
        # A conjunction is exactly the concatenation of its children's
        # decompositions; opaque children fold into one residual.
        atoms: list = []
        residuals: list = []
        for t in self.terms:
            t_atoms, t_residual = t.decompose()
            atoms.extend(t_atoms)
            if t_residual is not None:
                residuals.append(t_residual)
        if not residuals:
            residual = None
        elif len(residuals) == 1:
            residual = residuals[0]
        else:
            residual = And(residuals)
        return tuple(atoms), residual


@dataclass(frozen=True, slots=True)
class Or(Predicate):
    """Disjunction of predicates."""

    terms: Tuple[Predicate, ...]

    def __init__(self, terms: Sequence[Predicate]):
        object.__setattr__(self, "terms", tuple(terms))

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        return any(t.matches(attributes) for t in self.terms)

    def decompose(self) -> Decomposition:
        # A disjunction indexes only in the In-like case: every branch
        # reduces to a single equality atom on one shared attribute, so
        # the whole Or is one membership atom over the union.  Anything
        # richer (mixed attributes, ranges, residuals) stays opaque —
        # counting is conjunctive.
        if not self.terms:
            return (NeverAtom(),), None
        attr: Optional[str] = None
        values: set = set()
        for t in self.terms:
            t_atoms, t_residual = t.decompose()
            if t_residual is not None or len(t_atoms) != 1:
                return (), self
            atom = t_atoms[0]
            if not isinstance(atom, EqAtom):
                return (), self
            if attr is None:
                attr = atom.attr
            elif attr != atom.attr:
                return (), self
            values.update(atom.values)
        return (EqAtom(attr, frozenset(values)),), None


@dataclass(frozen=True, slots=True)
class Not(Predicate):
    """Negation of a predicate."""

    term: Predicate

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        return not self.term.matches(attributes)
