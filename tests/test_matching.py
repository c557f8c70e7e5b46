"""Tests for the subscription language and matching engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import engine as engine_mod
from repro.matching.links import LinkIndex
from repro.matching.engine import MatchingEngine, compiled, decompose_safe, union_digest
from repro.matching.predicates import (
    And, Between, CmpAtom, Eq, EqAtom, Everything, Exists, Ge, Gt, In, Le,
    Lt, Ne, NeverAtom, Not, Nothing, Or, Prefix,
)
from repro.matching.topics import TOPIC_ATTR, Topic, topic_pattern_matches


class TestPredicates:
    def test_eq(self):
        p = Eq("g", 3)
        assert p.matches({"g": 3})
        assert not p.matches({"g": 4})
        assert not p.matches({})

    def test_in(self):
        p = In("g", [1, 3])
        assert p.matches({"g": 1}) and p.matches({"g": 3})
        assert not p.matches({"g": 2})

    def test_ne_requires_presence(self):
        p = Ne("g", 3)
        assert p.matches({"g": 4})
        assert not p.matches({"g": 3})
        assert not p.matches({})

    def test_comparisons(self):
        assert Lt("x", 5).matches({"x": 4})
        assert not Lt("x", 5).matches({"x": 5})
        assert Le("x", 5).matches({"x": 5})
        assert Gt("x", 5).matches({"x": 6})
        assert Ge("x", 5).matches({"x": 5})
        assert not Gt("x", 5).matches({})

    def test_comparison_type_mismatch_is_false(self):
        assert not Gt("x", 5).matches({"x": "str"})

    def test_invalid_operator_rejected(self):
        from repro.matching.predicates import Cmp
        with pytest.raises(ValueError):
            Cmp("x", "!=", 5)

    def test_between(self):
        p = Between("x", 2, 5)
        assert p.matches({"x": 2}) and p.matches({"x": 5})
        assert not p.matches({"x": 1}) and not p.matches({"x": 6})

    def test_exists(self):
        assert Exists("x").matches({"x": None})
        assert not Exists("x").matches({"y": 1})

    def test_prefix(self):
        p = Prefix("sym", "IBM")
        assert p.matches({"sym": "IBM.N"})
        assert not p.matches({"sym": "MSFT"})
        assert not p.matches({"sym": 42})

    def test_and_or_not(self):
        p = (Eq("a", 1) & Gt("b", 5)) | ~Exists("c")
        assert p.matches({"a": 1, "b": 6})
        assert p.matches({"a": 2})          # no c -> Not(Exists) true
        assert not p.matches({"a": 2, "c": 1})

    def test_everything_nothing(self):
        assert Everything().matches({})
        assert not Nothing().matches({"any": 1})

    def test_indexable_equalities(self):
        """Which predicates hand the matcher a hash-indexable equality."""
        def eq_atoms(predicate):
            return [a for a in predicate.decompose()[0] if isinstance(a, EqAtom)]

        assert eq_atoms(Eq("g", 1)) == [EqAtom("g", frozenset([1]))]
        assert eq_atoms(In("g", [1, 2])) == [EqAtom("g", frozenset([1, 2]))]
        assert eq_atoms(Gt("g", 1)) == []
        assert eq_atoms(And([Gt("x", 1), Eq("g", 2)])) == [EqAtom("g", frozenset([2]))]
        assert eq_atoms(Or([Eq("g", 1), Eq("g", 2)])) == [EqAtom("g", frozenset([1, 2]))]
        assert eq_atoms(Or([Eq("g", 1), Eq("h", 2)])) == []
        assert eq_atoms(Or([Eq("g", 1), Gt("g", 5)])) == []


class TestTopics:
    def test_literal_match(self):
        assert topic_pattern_matches("a.b.c", "a.b.c")
        assert not topic_pattern_matches("a.b.c", "a.b")
        assert not topic_pattern_matches("a.b", "a.b.c")

    def test_star_matches_one_segment(self):
        assert topic_pattern_matches("a.*.c", "a.b.c")
        assert not topic_pattern_matches("a.*.c", "a.b.d")
        assert not topic_pattern_matches("a.*", "a.b.c")

    def test_hash_matches_tail(self):
        assert topic_pattern_matches("a.#", "a.b.c")
        # '#' matches zero or more segments, so the bare prefix matches too.
        assert topic_pattern_matches("a.#", "a")
        assert topic_pattern_matches("#", "x.y")
        assert not topic_pattern_matches("a.#", "b.c")

    def test_hash_only_final(self):
        with pytest.raises(ValueError):
            Topic("a.#.c")

    def test_topic_predicate(self):
        p = Topic("trades.nyse.*")
        assert p.matches({TOPIC_ATTR: "trades.nyse.IBM"})
        assert not p.matches({TOPIC_ATTR: "trades.nasdaq.MSFT"})
        assert not p.matches({})

    def test_literal_topic_is_indexable(self):
        eng = MatchingEngine()
        eng.add("literal", Topic("a.b"))
        assert (eng.atom_count, eng.scan_count) == (1, 0)
        eng.add("wild", Topic("a.*"))
        assert (eng.atom_count, eng.scan_count) == (1, 1)

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError):
            Topic("a..b")


class TestEngine:
    def test_match_returns_matching_ids(self):
        eng = MatchingEngine()
        eng.add("s1", Eq("g", 1))
        eng.add("s2", Eq("g", 2))
        eng.add("s3", In("g", [1, 2]))
        assert eng.match({"g": 1}) == {"s1", "s3"}
        assert eng.match({"g": 2}) == {"s2", "s3"}
        assert eng.match({"g": 3}) == set()

    def test_scan_fallback_for_unindexable(self):
        eng = MatchingEngine()
        eng.add("s1", Gt("price", 100))
        assert eng.match({"price": 150}) == {"s1"}
        assert eng.match({"price": 50}) == set()

    def test_mixed_index_and_scan(self):
        eng = MatchingEngine()
        eng.add("idx", Eq("g", 1))
        eng.add("scan", Everything())
        assert eng.match({"g": 1}) == {"idx", "scan"}
        assert eng.match({"g": 9}) == {"scan"}

    def test_matches_any_short_circuits(self):
        eng = MatchingEngine()
        eng.add("s1", Eq("g", 1))
        assert eng.matches_any({"g": 1})
        assert not eng.matches_any({"g": 2})

    def test_remove(self):
        eng = MatchingEngine()
        eng.add("s1", Eq("g", 1))
        eng.remove("s1")
        assert eng.match({"g": 1}) == set()
        assert "s1" not in eng
        eng.remove("s1")  # idempotent

    def test_replace_subscription(self):
        eng = MatchingEngine()
        eng.add("s1", Eq("g", 1))
        eng.add("s1", Eq("g", 2))
        assert eng.match({"g": 1}) == set()
        assert eng.match({"g": 2}) == {"s1"}
        assert len(eng) == 1

    def test_matches_subscription(self):
        eng = MatchingEngine()
        eng.add("s1", Eq("g", 1))
        assert eng.matches_subscription("s1", {"g": 1})
        assert not eng.matches_subscription("s1", {"g": 2})
        assert not eng.matches_subscription("nope", {"g": 1})

    def test_none_valued_attribute_matches(self):
        # Regression: the pre-PR candidate walk skipped any event
        # attribute whose value was None, so an indexed Eq("a", None)
        # (or In containing None) silently never matched.
        eng = MatchingEngine()
        eng.add("eq-none", Eq("a", None))
        eng.add("in-none", In("a", [None, 1]))
        assert eng.match({"a": None}) == {"eq-none", "in-none"}
        assert eng.match({"a": 1}) == {"in-none"}
        assert eng.matches_any({"a": None})
        assert eng.match({"a": 2}) == set()

    def test_unhashable_values_fall_back_to_scan(self):
        eng = MatchingEngine()
        eng.add("listy", Eq("a", [1, 2]))  # unhashable bound -> opaque
        assert eng.scan_count == 1
        assert eng.match({"a": [1, 2]}) == {"listy"}
        assert eng.match({"a": [1, 2], "b": [3]}) == {"listy"}
        assert eng.match({"a": [9]}) == set()


class TestDecomposition:
    def test_leaves(self):
        assert Eq("g", 1).decompose() == ((EqAtom("g", frozenset([1])),), None)
        assert In("g", [1, 2]).decompose() == ((EqAtom("g", frozenset([1, 2])),), None)
        assert Gt("x", 5).decompose() == ((CmpAtom("x", ">", 5),), None)
        assert Everything().decompose() == ((), None)
        assert Nothing().decompose() == ((NeverAtom(),), None)

    def test_between_becomes_two_bounds(self):
        atoms, residual = Between("x", 2, 5).decompose()
        assert residual is None
        assert set(atoms) == {CmpAtom("x", ">=", 2), CmpAtom("x", "<=", 5)}

    def test_and_concatenates_atoms(self):
        p = And([Eq("g", 1), Gt("x", 5), Between("y", 0, 9)])
        atoms, residual = p.decompose()
        assert residual is None
        assert len(atoms) == 4

    def test_and_folds_opaque_children_into_residual(self):
        opaque = ~Exists("c")
        atoms, residual = And([Eq("g", 1), opaque]).decompose()
        assert atoms == (EqAtom("g", frozenset([1])),)
        assert residual is not None
        assert residual.matches({"g": 1})
        assert not residual.matches({"g": 1, "c": 0})

    def test_or_of_same_attr_equalities_merges(self):
        atoms, residual = Or([Eq("g", 1), Eq("g", 2)]).decompose()
        assert atoms == (EqAtom("g", frozenset([1, 2])),)
        assert residual is None

    def test_mixed_or_stays_opaque(self):
        p = Or([Eq("g", 1), Gt("x", 5)])
        atoms, residual = p.decompose()
        assert atoms == () and residual is p

    def test_literal_topic_decomposes(self):
        atoms, residual = Topic("a.b").decompose()
        assert atoms == (EqAtom(TOPIC_ATTR, frozenset(["a.b"])),)
        assert residual is None
        wild = Topic("a.*")
        assert wild.decompose() == ((), wild)

    def test_decompose_safe_dedups_and_guards_hashability(self):
        atoms, residual = decompose_safe(And([Eq("g", 1), Eq("g", 1)]))
        assert atoms == (EqAtom("g", frozenset([1])),)
        p = Eq("a", [1, 2])  # unhashable atom value
        assert decompose_safe(p) == ((), p)

    def test_compiled_memo_is_keyed_by_identity(self):
        # Equal predicates that encode differently are distinct union
        # members: with an equality-keyed memo a union's digest would
        # depend on which of them the process compiled first.
        one, one_f = Eq("x", 1), Eq("x", 1.0)
        assert one == one_f and hash(one) == hash(one_f)
        index = LinkIndex()
        unions = index.new_union(), index.new_union()
        for union, order in zip(unions, ((one, one_f), (one_f, one))):
            engine_mod._compiled.clear()
            assert union.digest == 0  # from here on kept incrementally
            for predicate in order:
                assert union.add(predicate)
        engine_mod._compiled.clear()
        # Two members each, one shared signature in the index.
        assert len(unions[0]) == 2 and len(index.matcher) == 1
        both = unions[0].bit | unions[1].bit
        assert index.links_of_batch([{"x": 1}, {"x": 2}]) == [both, 0]
        assert unions[0].digest == unions[1].digest == union_digest([one, one_f])
        for predicate, kind in ((one, int), (one_f, float)):
            (atom,) = compiled(predicate).atoms
            assert [type(v) for v in atom.values] == [kind]

    def test_unhashable_predicate_is_not_cached_and_scans(self):
        p = Eq("a", [1, 2])
        eng = MatchingEngine()
        index, union = TestLinkUnion._link()
        before = engine_mod.decompositions
        eng.add("s", p)
        union.add(p)
        assert id(p) not in engine_mod._compiled
        assert engine_mod.decompositions - before == 2  # once per registry
        assert eng.scan_count == 1 and index.matcher.scan_count == 1
        assert eng.match({"a": [1, 2]}) == {"s"}
        assert index.links_of_batch([{"a": [1, 2]}, {"a": 1}]) == [union.bit, 0]


class TestLinkUnion:
    """One link's union, read through its broker's link index: the
    index holds each distinct signature once, and a link's bit is set
    on every signature it holds."""

    @staticmethod
    def _link():
        index = LinkIndex()
        return index, index.new_union()

    @staticmethod
    def _matches(index, union, attributes):
        return bool(index.links_of_batch([attributes])[0] & union.bit)

    def test_equal_predicates_share_a_signature(self):
        index, union = self._link()
        for predicate in (Eq("g", 1), Eq("g", 1.0), In("g", [1])):
            assert union.add(predicate)
            assert not union.add(predicate)  # a set: re-adding is a no-op
        assert len(union) == 3  # distinct canonical bytes
        assert len(index.matcher) == 1
        assert self._matches(index, union, {"g": 1})
        assert not self._matches(index, union, {"g": 2})

    def test_broader_and_narrower_signatures_are_both_keyed(self):
        index, union = self._link()
        union.add(Eq("g", 1))
        union.add(And([Eq("g", 1), Eq("h", 2)]))
        assert len(index.matcher) == 2
        assert self._matches(index, union, {"g": 1})
        assert self._matches(index, union, {"g": 1, "h": 9})

    def test_removing_one_signature_keeps_the_other(self):
        index, union = self._link()
        union.add(Eq("g", 1))
        union.add(And([Eq("g", 1), Eq("h", 2)]))
        union.remove(Eq("g", 1))
        assert len(index.matcher) == 1
        assert self._matches(index, union, {"g": 1, "h": 2})
        assert not self._matches(index, union, {"g": 1, "h": 9})

    def test_wildcard_accepts_all(self):
        index, union = self._link()
        assert not union.accepts_all()
        union.add(Eq("g", 1))
        union.add(Everything())
        assert union.accepts_all()
        assert len(index.matcher) == 2
        assert self._matches(index, union, {"anything": 0})
        union.remove(Everything())
        assert not union.accepts_all()
        assert not self._matches(index, union, {"anything": 0})

    def test_union_keys_distinct_signatures_and_sees_wildcards(self):
        eng = MatchingEngine()
        index, union = self._link()
        for i in range(10):
            eng.add(f"s{i}", Eq("g", 1))
            union.add(Eq("g", 1))
        eng.add("narrow", And([Eq("g", 1), Gt("x", 5)]))
        union.add(And([Eq("g", 1), Gt("x", 5)]))
        assert len(index.matcher) == 2
        assert eng.accepts_all() is False and union.accepts_all() is False
        eng.add("wild", Everything())
        union.add(Everything())
        assert eng.accepts_all() is True and union.accepts_all() is True


# ---------------------------------------------------------------------------
# Property: indexed engine agrees with naive evaluation
# ---------------------------------------------------------------------------
_preds = st.one_of(
    st.builds(Eq, st.just("g"), st.integers(0, 5)),
    st.builds(lambda vs: In("g", vs), st.lists(st.integers(0, 5), min_size=1, max_size=3)),
    st.builds(Gt, st.just("x"), st.integers(0, 5)),
    st.builds(lambda a, b: And([Eq("g", a), Gt("x", b)]), st.integers(0, 5), st.integers(0, 5)),
    st.just(Everything()),
)


@given(
    st.lists(_preds, min_size=1, max_size=12),
    st.lists(
        st.fixed_dictionaries({"g": st.integers(0, 6), "x": st.integers(0, 6)}),
        min_size=1,
        max_size=10,
    ),
)
@settings(max_examples=100)
def test_engine_agrees_with_naive_matching(preds, events):
    eng = MatchingEngine()
    for i, p in enumerate(preds):
        eng.add(f"s{i}", p)
    for attrs in events:
        expected = {f"s{i}" for i, p in enumerate(preds) if p.matches(attrs)}
        assert eng.match(attrs) == expected
        assert eng.matches_any(attrs) == bool(expected)
