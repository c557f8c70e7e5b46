"""Model-based property tests for the interval and tick-map layers.

Both structures are compact encodings of a simple mathematical object —
an :class:`IntervalSet` is a set of integers, a :class:`TickMap` is a
total function from timestamps to tick kinds.  Each test drives the
real implementation and a naive model (a Python ``set`` / ``dict``)
through the same randomized operation sequence and checks they agree
after every step.  Randomness comes from an explicitly seeded
``random.Random`` so failures replay exactly; the seeds are part of the
test matrix, not hidden state.  The relay-cache tests at the end build
their maps with hypothesis instead, and hold each :class:`TickMap`
method to the inline code the brokers carried before it existed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.core.events import Event
from repro.core.messages import KnowledgeUpdate
from repro.core.tickmap import TickMap
from repro.core.ticks import Tick
from repro.util.intervals import IntervalSet, coalesce_ranges

SEEDS = [7, 42, 1001]
UNIVERSE = 120  # ticks 0..119; small enough that sets stay cheap


def _ranges_of(model: Set[int]) -> List[Tuple[int, int]]:
    """The normal-form interval list a set of ints must encode to."""
    out: List[Tuple[int, int]] = []
    for t in sorted(model):
        if out and t == out[-1][1] + 1:
            out[-1] = (out[-1][0], t)
        else:
            out.append((t, t))
    return out


def _random_span(rng: random.Random) -> Tuple[int, int]:
    start = rng.randrange(UNIVERSE)
    return start, min(UNIVERSE - 1, start + rng.randrange(12))


def _check_normal_form(s: IntervalSet) -> None:
    ivs = s.as_tuples()
    for (a0, a1), (b0, b1) in zip(ivs, ivs[1:]):
        assert a0 <= a1 and b0 <= b1
        assert b0 > a1 + 1, f"overlapping/adjacent intervals {ivs}"


@pytest.mark.parametrize("seed", SEEDS)
def test_interval_set_matches_set_model(seed):
    rng = random.Random(seed)
    real, model = IntervalSet(), set()
    for step in range(400):
        op = rng.random()
        if op < 0.40:
            a, b = _random_span(rng)
            real.add(a, b)
            model.update(range(a, b + 1))
        elif op < 0.60:
            a, b = _random_span(rng)
            real.remove(a, b)
            model.difference_update(range(a, b + 1))
        elif op < 0.75:
            spans = [_random_span(rng) for _ in range(rng.randrange(1, 6))]
            other = IntervalSet(spans)
            if rng.random() < 0.5:
                real.update(other)
                for a, b in spans:
                    model.update(range(a, b + 1))
            else:
                real.difference_update(other)
                for a, b in spans:
                    model.difference_update(range(a, b + 1))
        elif op < 0.85:
            t = rng.randrange(UNIVERSE)
            real.chop_below(t)
            model = {x for x in model if x >= t}
        else:
            # Non-mutating algebra against a random second operand.
            spans = [_random_span(rng) for _ in range(rng.randrange(1, 5))]
            other = IntervalSet(spans)
            other_model = set()
            for a, b in spans:
                other_model.update(range(a, b + 1))
            assert set(real.intersection(other).ticks()) == model & other_model
            assert set(real.union(other).ticks()) == model | other_model
            assert set(real.difference(other).ticks()) == model - other_model

        # Full-state agreement after every mutation.
        assert real.as_tuples() == _ranges_of(model), f"diverged at step {step}"
        assert real.tick_count() == len(model)
        _check_normal_form(real)
        probe = rng.randrange(UNIVERSE)
        assert (probe in real) == (probe in model)
        a, b = _random_span(rng)
        assert set(real.intersect_span(a, b).ticks()) == {
            x for x in model if a <= x <= b
        }
        assert set(real.complement_within(a, b).ticks()) == {
            x for x in range(a, b + 1) if x not in model
        }


@pytest.mark.parametrize("seed", SEEDS)
def test_coalesce_ranges_matches_set_model(seed):
    rng = random.Random(seed)
    for _ in range(200):
        spans = [_random_span(rng) for _ in range(rng.randrange(0, 10))]
        merged = coalesce_ranges(spans)
        covered = set()
        for a, b in spans:
            covered.update(range(a, b + 1))
        assert merged == _ranges_of(covered)


def test_coalesce_ranges_rejects_empty_range():
    with pytest.raises(ValueError):
        coalesce_ranges([(5, 3)])


def _model_kind(t: int, lost_below: int, d: Dict[int, Event], s: Set[int]) -> Tick:
    if t < lost_below:
        return Tick.L
    if t in d:
        return Tick.D
    if t in s:
        return Tick.S
    return Tick.Q


@pytest.mark.parametrize("seed", SEEDS)
def test_tickmap_matches_dict_model(seed):
    rng = random.Random(seed)
    real = TickMap()
    lost_below = 0
    d: Dict[int, Event] = {}
    s: Set[int] = set()
    for step in range(300):
        op = rng.random()
        if op < 0.40:
            t = rng.randrange(UNIVERSE)
            ev = Event("P", t, {"n": t})
            real.set_d(t, ev)
            if t >= lost_below and t not in d:
                d[t] = ev
                s.discard(t)
        elif op < 0.80:
            a, b = _random_span(rng)
            real.set_s(a, b)
            for t in range(max(a, lost_below), b + 1):
                if t not in d:
                    s.add(t)
        else:
            t = rng.randrange(UNIVERSE)
            real.set_lost_below(t)
            if t > lost_below:
                lost_below = t
                d = {k: v for k, v in d.items() if k >= t}
                s = {k for k in s if k >= t}

        # Pointwise agreement on sampled ticks plus the L boundary.
        assert real.lost_below == lost_below
        for t in [rng.randrange(UNIVERSE) for _ in range(8)] + [
            max(0, lost_below - 1), lost_below
        ]:
            assert real.kind(t) is _model_kind(t, lost_below, d, s), (
                f"kind({t}) diverged at step {step}"
            )
        # Doubt horizon: highest h >= base with no Q in (base, h].
        base = rng.randrange(UNIVERSE)
        h = base
        while h + 1 < UNIVERSE * 2 and _model_kind(
            h + 1, lost_below, d, s
        ) is not Tick.Q:
            h += 1
        assert real.doubt_horizon(base) == h
        # unknown_within == the model's Q ticks (at/above the L prefix).
        a, b = _random_span(rng)
        want_q = {
            t for t in range(max(a, lost_below), b + 1)
            if _model_kind(t, lost_below, d, s) is Tick.Q
        }
        assert set(real.unknown_within(a, b).ticks()) == want_q


@pytest.mark.parametrize("seed", SEEDS)
def test_tickmap_runs_and_classify_reconstruct_model(seed):
    """``runs_between``/``classify_within`` partition any window exactly."""
    rng = random.Random(seed)
    real = TickMap()
    lost_below = 0
    d: Dict[int, Event] = {}
    s: Set[int] = set()
    for _ in range(120):
        roll = rng.random()
        if roll < 0.4:
            t = rng.randrange(UNIVERSE)
            ev = Event("P", t, {})
            real.set_d(t, ev)
            if t >= lost_below and t not in d:
                d[t] = ev
                s.discard(t)
        elif roll < 0.85:
            a, b = _random_span(rng)
            real.set_s(a, b)
            for t in range(max(a, lost_below), b + 1):
                if t not in d:
                    s.add(t)
        else:
            t = rng.randrange(UNIVERSE // 2)
            real.set_lost_below(t)
            if t > lost_below:
                lost_below = t
                d = {k: v for k, v in d.items() if k >= t}
                s = {k for k in s if k >= t}

        a, b = _random_span(rng)
        runs = list(real.runs_between(a, b))
        # Runs tile [a, b] without gaps or overlap, maximal per kind.
        cursor = a
        for run in runs:
            assert run.start == cursor
            assert run.end >= run.start
            kinds = {
                _model_kind(t, lost_below, d, s)
                for t in range(run.start, run.end + 1)
            }
            assert kinds == {run.kind}
            if run.kind is Tick.D:
                assert run.start == run.end
                assert run.event is d[run.start]
            cursor = run.end + 1
        assert cursor == b + 1
        for prev, nxt in zip(runs, runs[1:]):
            if prev.kind is not Tick.D and nxt.kind is not Tick.D:
                assert prev.kind is not nxt.kind, "non-maximal adjacent runs"

        # classify_within buckets the same partition into message shape.
        d_events, s_ranges, l_ranges, q_set = real.classify_within(a, b)
        assert [e.timestamp for e in d_events] == sorted(
            t for t in d if a <= t <= b
        )
        for ranges in (s_ranges, l_ranges):
            assert ranges == coalesce_ranges(ranges), "ranges not coalesced"
        s_ticks = {t for a0, b0 in s_ranges for t in range(a0, b0 + 1)}
        l_ticks = {t for a0, b0 in l_ranges for t in range(a0, b0 + 1)}
        assert s_ticks == {
            t for t in range(a, b + 1)
            if _model_kind(t, lost_below, d, s) is Tick.S
        }
        assert l_ticks == {t for t in range(a, b + 1) if t < lost_below}
        assert set(q_set.ticks()) == {
            t for t in range(a, b + 1)
            if _model_kind(t, lost_below, d, s) is Tick.Q
        }


# ---------------------------------------------------------------------------
# A TickMap as a relay cache: answer / absorb / keep_span against the
# inline code the brokers carried before these methods existed.
# ---------------------------------------------------------------------------
_EVENTS = {t: Event("P", t, {"n": t}) for t in range(80)}

_map_ops = hst.lists(
    hst.one_of(
        hst.tuples(hst.just("d"), hst.integers(0, 60), hst.just(0)),
        hst.tuples(hst.just("s"), hst.integers(0, 60), hst.integers(0, 8)),
        hst.tuples(hst.just("l"), hst.integers(0, 40), hst.just(0)),
    ),
    max_size=30,
)
_spans = hst.lists(
    hst.tuples(hst.integers(0, 66), hst.integers(0, 8)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=4,
)
_updates = hst.builds(
    lambda d, s, l: KnowledgeUpdate(
        "P", d_events=[_EVENTS[t] for t in d], s_ranges=s, l_ranges=l
    ),
    hst.lists(hst.integers(0, 66), max_size=5), _spans, _spans,
)


def _built(ops) -> TickMap:
    tm = TickMap()
    for op, a, length in ops:
        if op == "d":
            tm.set_d(a, _EVENTS[a])
        elif op == "s":
            tm.set_s(a, a + length)
        else:
            tm.set_lost_below(a)
    return tm


def _state(tm: TickMap):
    return (
        [tm.kind(t) for t in range(-2, 76)],
        [tm.event_at(t) for t in range(76)],
        tm.lost_below, tm.max_known(), tm.d_count,
        tm.s_over_d_conflicts, tm.d_over_s_upgrades,
    )


def _inline_answer(cache, pubend, ranges, refilter_below):
    """The nack-from-cache loop as the intermediate and SHB wrote it."""
    reply = KnowledgeUpdate(pubend)
    unresolved = IntervalSet()
    for iv in ranges:
        cacheable_start = max(iv.start, refilter_below)
        if cacheable_start > iv.start:
            unresolved.add(iv.start, min(iv.end, cacheable_start - 1))
        if cacheable_start > iv.end:
            continue
        d_events, s_ranges, l_ranges, q_set = cache.classify_within(
            cacheable_start, iv.end
        )
        reply.d_events.extend(d_events)
        reply.s_ranges.extend(s_ranges)
        reply.l_ranges.extend(l_ranges)
        unresolved.update(q_set)
    reply.coalesce()
    return reply, unresolved


@given(_map_ops, _spans)
@settings(max_examples=300)
def test_answer_matches_the_inline_nack_loop(ops, nacked):
    tm = _built(ops)
    before = _state(tm)
    ranges = IntervalSet(nacked)
    # Refilter boundaries at, below and above every range's ends.
    boundaries = {0} | {
        t + k for iv in ranges for t in (iv.start, iv.end) for k in (-1, 0, 1)
    }
    for refilter_below in sorted(boundaries):
        reply, unresolved = tm.answer("P", ranges, refilter_below)
        want_reply, want_unresolved = _inline_answer(tm, "P", ranges, refilter_below)
        assert (reply.pubend, reply.d_events, reply.s_ranges, reply.l_ranges) == (
            want_reply.pubend, want_reply.d_events, want_reply.s_ranges, want_reply.l_ranges
        )
        assert unresolved.as_tuples() == want_unresolved.as_tuples()
    assert _state(tm) == before  # answering reads; it never mutates


@given(_map_ops, hst.lists(_updates, max_size=4))
@settings(max_examples=300)
def test_absorb_matches_the_three_loop_fold(ops, updates):
    tm, model = _built(ops), _built(ops)
    for update in updates:
        tm.absorb(update)
        for _start, end in update.l_ranges:
            model.set_lost_below(end + 1)
        for start, end in update.s_ranges:
            model.set_s(start, end)
        for event in update.d_events:
            model.set_d(event.timestamp, event)
        assert _state(tm) == _state(model)


@given(_map_ops, hst.integers(0, 70))
@settings(max_examples=300)
def test_keep_span_is_forget_below_the_newest_minus_span(ops, span):
    tm, model = _built(ops), _built(ops)
    tm.keep_span(span)
    model.forget_below(model.max_known() - span)
    assert _state(tm) == _state(model)
