"""Unit and property tests for the closed-interval set."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.intervals import Interval, IntervalSet


class TestInterval:
    def test_length_and_contains(self):
        iv = Interval(3, 7)
        assert len(iv) == 5
        assert 3 in iv and 7 in iv and 5 in iv
        assert 2 not in iv and 8 not in iv

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(5, 4)

    def test_single_tick(self):
        iv = Interval(4, 4)
        assert len(iv) == 1
        assert list(iv) == [4]

    def test_overlaps(self):
        assert Interval(1, 5).overlaps(Interval(5, 9))
        assert not Interval(1, 5).overlaps(Interval(6, 9))
        assert Interval(3, 4).overlaps(Interval(1, 10))

    def test_adjacent_or_overlaps(self):
        assert Interval(1, 5).adjacent_or_overlaps(Interval(6, 9))
        assert not Interval(1, 5).adjacent_or_overlaps(Interval(7, 9))

    def test_intersect(self):
        assert Interval(1, 5).intersect(Interval(3, 9)) == Interval(3, 5)
        assert Interval(1, 5).intersect(Interval(6, 9)) is None


class TestIntervalSetBasics:
    def test_empty_is_falsy(self):
        s = IntervalSet()
        assert not s
        assert s.tick_count() == 0
        assert 5 not in s

    def test_add_single(self):
        s = IntervalSet.single(5)
        assert 5 in s
        assert s.tick_count() == 1
        assert s.as_tuples() == [(5, 5)]

    def test_add_merges_overlapping(self):
        s = IntervalSet([(1, 5), (4, 9)])
        assert s.as_tuples() == [(1, 9)]

    def test_add_merges_adjacent(self):
        s = IntervalSet([(1, 5), (6, 9)])
        assert s.as_tuples() == [(1, 9)]

    def test_add_keeps_disjoint(self):
        s = IntervalSet([(1, 5), (7, 9)])
        assert s.as_tuples() == [(1, 5), (7, 9)]
        assert len(s) == 2

    @pytest.mark.parametrize("start", [30, 12, 9, 2])  # past, at, inside, before the tail
    def test_add_rejects_inverted_range_on_every_path(self, start):
        for s in (IntervalSet(), IntervalSet([(1, 3), (8, 10)])):
            before = s.as_tuples()
            with pytest.raises(ValueError):
                s.add(start, start - 1)
            assert s.as_tuples() == before and s.tick_count() == sum(
                e - b + 1 for b, e in before
            )

    def test_add_bridges_many(self):
        s = IntervalSet([(1, 2), (4, 5), (7, 8), (10, 11)])
        s.add(3, 9)
        assert s.as_tuples() == [(1, 11)]

    def test_min_max(self):
        s = IntervalSet([(3, 5), (9, 12)])
        assert s.min() == 3
        assert s.max() == 12

    def test_min_max_empty_raises(self):
        with pytest.raises(ValueError):
            IntervalSet().min()
        with pytest.raises(ValueError):
            IntervalSet().max()

    def test_interval_containing(self):
        s = IntervalSet([(1, 5), (8, 10)])
        assert s.interval_containing(3) == Interval(1, 5)
        assert s.interval_containing(8) == Interval(8, 10)
        assert s.interval_containing(6) is None

    def test_ticks_iteration(self):
        s = IntervalSet([(1, 3), (6, 7)])
        assert list(s.ticks()) == [1, 2, 3, 6, 7]


class TestIntervalSetRemove:
    def test_remove_from_middle_splits(self):
        s = IntervalSet([(1, 10)])
        s.remove(4, 6)
        assert s.as_tuples() == [(1, 3), (7, 10)]

    def test_remove_prefix(self):
        s = IntervalSet([(1, 10)])
        s.remove(1, 4)
        assert s.as_tuples() == [(5, 10)]

    def test_remove_suffix(self):
        s = IntervalSet([(1, 10)])
        s.remove(8, 10)
        assert s.as_tuples() == [(1, 7)]

    def test_remove_entire(self):
        s = IntervalSet([(1, 10)])
        s.remove(0, 11)
        assert not s

    def test_remove_spanning_multiple(self):
        s = IntervalSet([(1, 3), (5, 7), (9, 11)])
        s.remove(2, 10)
        assert s.as_tuples() == [(1, 1), (11, 11)]

    def test_remove_disjoint_noop(self):
        s = IntervalSet([(5, 9)])
        s.remove(1, 3)
        s.remove(11, 20)
        assert s.as_tuples() == [(5, 9)]

    def test_chop_below(self):
        s = IntervalSet([(1, 5), (8, 12)])
        s.chop_below(9)
        assert s.as_tuples() == [(9, 12)]

    def test_chop_below_no_effect(self):
        s = IntervalSet([(5, 9)])
        s.chop_below(2)
        assert s.as_tuples() == [(5, 9)]


class TestIntervalSetAlgebra:
    def test_union(self):
        a = IntervalSet([(1, 4), (10, 12)])
        b = IntervalSet([(3, 6), (8, 9)])
        assert a.union(b).as_tuples() == [(1, 6), (8, 12)]

    def test_difference(self):
        a = IntervalSet([(1, 10)])
        b = IntervalSet([(3, 4), (7, 8)])
        assert a.difference(b).as_tuples() == [(1, 2), (5, 6), (9, 10)]

    def test_intersection(self):
        a = IntervalSet([(1, 5), (8, 12)])
        b = IntervalSet([(4, 9)])
        assert a.intersection(b).as_tuples() == [(4, 5), (8, 9)]

    def test_intersection_empty(self):
        a = IntervalSet([(1, 5)])
        b = IntervalSet([(7, 9)])
        assert not a.intersection(b)

    def test_intersect_span(self):
        s = IntervalSet([(1, 5), (8, 12), (20, 25)])
        assert s.intersect_span(4, 21).as_tuples() == [(4, 5), (8, 12), (20, 21)]

    def test_complement_within(self):
        s = IntervalSet([(3, 4), (8, 9)])
        assert s.complement_within(1, 12).as_tuples() == [(1, 2), (5, 7), (10, 12)]

    def test_complement_within_full(self):
        assert IntervalSet().complement_within(5, 9).as_tuples() == [(5, 9)]

    def test_complement_within_empty_span(self):
        s = IntervalSet([(3, 4)])
        assert not s.complement_within(9, 5)

    def test_equality(self):
        assert IntervalSet([(1, 3), (4, 6)]) == IntervalSet([(1, 6)])
        assert IntervalSet([(1, 3)]) != IntervalSet([(1, 4)])


# ---------------------------------------------------------------------------
# Property tests: IntervalSet behaves like a set of ints
# ---------------------------------------------------------------------------
ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "chop"]),
        st.integers(0, 80),
        st.integers(0, 15),
    ),
    max_size=30,
)
#: The in-order shape: most adds land at or just past the current tail
#: (``start`` is then an offset back from ``max() + 2``), with prefix
#: chops and the odd out-of-order add or remove in between.
tail_ops = st.lists(
    st.tuples(
        st.sampled_from(["tail", "tail", "tail", "chop", "add", "remove"]),
        st.integers(0, 80),
        st.integers(0, 15),
    ),
    max_size=40,
)


def _apply(ops_list):
    ivs = IntervalSet()
    model = set()
    for op, start, length in ops_list:
        if op == "tail":
            op, start = "add", max((ivs.max() + 2 if ivs else 0) - start % 6, 0)
        end = start + length
        if op == "add":
            ivs.add(start, end)
            model.update(range(start, end + 1))
        elif op == "remove":
            ivs.remove(start, end)
            model.difference_update(range(start, end + 1))
        else:
            ivs.chop_below(start)
            model = {t for t in model if t >= start}
    return ivs, model


@given(st.one_of(ops, tail_ops))
@settings(max_examples=400)
def test_intervalset_matches_model_set(ops_list):
    ivs, model = _apply(ops_list)
    assert set(ivs.ticks()) == model
    assert ivs.tick_count() == len(model)
    for t in range(0, 100):
        assert (t in ivs) == (t in model)
        iv = ivs.interval_containing(t)
        assert (iv is not None and t in iv) == (t in model)
    # Normal form: sorted, disjoint, non-adjacent.
    tuples = ivs.as_tuples()
    for (s1, e1), (s2, e2) in zip(tuples, tuples[1:]):
        assert e1 + 1 < s2


@given(ops, ops)
@settings(max_examples=100)
def test_algebra_matches_model(ops_a, ops_b):
    a, model_a = _apply(ops_a)
    b, model_b = _apply(ops_b)
    assert set(a.union(b).ticks()) == model_a | model_b
    assert set(a.difference(b).ticks()) == model_a - model_b
    assert set(a.intersection(b).ticks()) == model_a & model_b


@given(ops, st.integers(0, 100), st.integers(0, 100))
@settings(max_examples=100)
def test_complement_within_matches_model(ops_list, lo, hi):
    ivs, model = _apply(ops_list)
    comp = ivs.complement_within(lo, hi)
    expected = {t for t in range(lo, hi + 1)} - model
    assert set(comp.ticks()) == expected
