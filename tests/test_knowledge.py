"""Tests for the knowledge stream consumption cursor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import Event
from repro.core.knowledge import KnowledgeStream
from repro.core.messages import KnowledgeUpdate, clip_update, split_update
from repro.core.tickmap import TickMap
from repro.core.ticks import Tick


def ev(t):
    return Event("P1", t, {"g": t % 4})


def upd(d=(), s=(), l=()):
    return KnowledgeUpdate("P1", d_events=[ev(t) for t in d],
                           s_ranges=list(s), l_ranges=list(l))


class TestAccumulate:
    def test_wrong_pubend_rejected(self):
        ks = KnowledgeStream("P1")
        with pytest.raises(ValueError):
            ks.accumulate(KnowledgeUpdate("P2"))

    def test_accumulate_and_advance_in_order(self):
        ks = KnowledgeStream("P1")
        ks.accumulate(upd(d=[3], s=[(1, 2), (4, 5)]))
        runs = ks.advance()
        assert [(r.start, r.end, r.kind) for r in runs] == [
            (1, 2, Tick.S), (3, 3, Tick.D), (4, 5, Tick.S),
        ]
        assert ks.consumed == 5

    def test_advance_stops_at_gap(self):
        ks = KnowledgeStream("P1")
        ks.accumulate(upd(s=[(1, 3), (5, 9)]))
        assert ks.consumed == 0
        ks.advance()
        assert ks.consumed == 3
        ks.accumulate(upd(d=[4]))
        runs = ks.advance()
        assert runs[0].kind is Tick.D
        assert ks.consumed == 9

    def test_advance_with_limit(self):
        ks = KnowledgeStream("P1")
        ks.accumulate(upd(s=[(1, 10)]))
        runs = ks.advance(limit=4)
        assert runs[0].end == 4
        assert ks.consumed == 4
        ks.advance()
        assert ks.consumed == 10

    def test_advance_empty(self):
        ks = KnowledgeStream("P1")
        assert ks.advance() == []

    def test_out_of_order_accumulation(self):
        ks = KnowledgeStream("P1")
        ks.accumulate(upd(d=[5]))
        assert ks.advance() == []  # 1..4 unknown
        ks.accumulate(upd(s=[(1, 4)]))
        runs = ks.advance()
        assert [r.kind for r in runs] == [Tick.S, Tick.D]

    def test_l_ranges_extend_lost_prefix(self):
        ks = KnowledgeStream("P1")
        ks.accumulate(upd(l=[(1, 4)], s=[(5, 6)]))
        runs = ks.advance()
        assert [(r.start, r.end, r.kind) for r in runs] == [
            (1, 4, Tick.L), (5, 6, Tick.S),
        ]

    def test_nonzero_start(self):
        ks = KnowledgeStream("P1", consumed=100)
        ks.accumulate(upd(s=[(90, 120)]))
        runs = ks.advance()
        assert runs[0].start == 101
        assert ks.consumed == 120

    def test_frontier_and_unknown(self):
        ks = KnowledgeStream("P1")
        ks.accumulate(upd(s=[(5, 9)]))
        assert ks.frontier == 9
        assert ks.unknown_up_to(9).as_tuples() == [(1, 4)]

    def test_consumed_storage_forgotten(self):
        ks = KnowledgeStream("P1")
        ks.accumulate(upd(d=[1, 2, 3], s=[]))
        ks.accumulate(upd(s=[(4, 5)]))
        ks.advance()
        assert ks.tickmap.d_count == 0


class TestMaxTickAndHelpers:
    def test_update_max_tick(self):
        assert upd(d=[5], s=[(7, 9)]).max_tick() == 9
        assert upd().max_tick() is None

    def test_update_is_empty(self):
        assert upd().is_empty()
        assert not upd(d=[1]).is_empty()

    def test_clip_update(self):
        u = upd(d=[3, 7], s=[(1, 2), (4, 6)], l=[(0, 0)])
        c = clip_update(u, 2, 5)
        assert [e.timestamp for e in c.d_events] == [3]
        assert c.s_ranges == [(2, 2), (4, 5)]
        assert c.l_ranges == []

    def test_split_update(self):
        u = upd(d=[3, 7], s=[(1, 2), (4, 6)])
        old, new = split_update(u, 4)
        assert [e.timestamp for e in old.d_events] == [3]
        assert old.s_ranges == [(1, 2), (4, 4)]
        assert [e.timestamp for e in new.d_events] == [7]
        assert new.s_ranges == [(5, 6)]

    def test_split_empty(self):
        old, new = split_update(upd(), 5)
        assert old.is_empty() and new.is_empty()


# ---------------------------------------------------------------------------
# Differential tests: the in-order shortcuts equal the general algebra
# ---------------------------------------------------------------------------
_ranges = st.lists(
    st.tuples(st.integers(0, 60), st.integers(0, 6)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=4,
)
#: Unsorted on purpose: nack replies are assembled interval by interval.
_updates = st.builds(
    lambda d, s, l: upd(d=d, s=s, l=l),
    st.lists(st.integers(0, 66), max_size=5), _ranges, _ranges,
)


def _fields(u):
    return (u.pubend, u.d_events, u.s_ranges, u.l_ranges)


@given(_updates)
@settings(max_examples=200)
def test_tick_bounds_match_naive_min_max(update):
    ticks = [e.timestamp for e in update.d_events]
    lows = ticks + [s for s, _e in update.s_ranges + update.l_ranges]
    highs = ticks + [e for _s, e in update.s_ranges + update.l_ranges]
    if not highs:
        assert update.tick_bounds() is None and update.max_tick() is None
    else:
        assert update.tick_bounds() == (min(lows), max(highs))
        assert update.max_tick() == max(highs)


@given(_updates, st.integers(-1, 70))
@settings(max_examples=300)
def test_split_update_matches_clip_pair(update, cutoff):
    """Empty, head, old and straddling updates all split as two clips
    would; the one-sided shapes come back as the instance received."""
    old, new = split_update(update, cutoff)
    hi = update.max_tick()
    if hi is None:
        assert old.is_empty() and new.is_empty()
        return
    assert _fields(old) == _fields(clip_update(update, 0, cutoff))
    assert _fields(new) == _fields(clip_update(update, cutoff + 1, hi))
    lo = update.tick_bounds()[0]
    if lo > cutoff:
        assert new is update
    elif hi <= cutoff:
        assert old is update
    else:
        assert old is not update and new is not update
    # Bounds handed in by a caller splitting at several cutoffs.
    old2, new2 = split_update(update, cutoff, update.tick_bounds())
    assert (_fields(old2), _fields(new2)) == (_fields(old), _fields(new))


def _three_pass_advance(tm, consumed, limit):
    """``advance`` as three walks over the map: horizon, runs, forget."""
    horizon = tm.doubt_horizon(consumed)
    if limit is not None:
        horizon = min(horizon, limit)
    if horizon <= consumed:
        return consumed, []
    runs = [r for r in tm.runs_between(consumed + 1, horizon) if r.kind is not Tick.Q]
    tm.forget_below(horizon + 1)
    return horizon, runs


_stream_ops = st.lists(
    st.one_of(
        st.tuples(st.just("d"), st.integers(0, 60), st.just(0)),
        st.tuples(st.just("s"), st.integers(0, 60), st.integers(0, 8)),
        st.tuples(st.just("l"), st.integers(0, 40), st.just(0)),
        st.tuples(st.just("advance"), st.just(0), st.just(0)),
        st.tuples(st.just("advance_to"), st.integers(0, 70), st.just(0)),
    ),
    max_size=40,
)


@given(_stream_ops, st.integers(0, 20))
@settings(max_examples=300)
def test_one_pass_advance_matches_three_pass(ops, start):
    """Same runs, same cursor, same map afterwards — including knowledge
    accumulated at or below the cursor, which both must drop."""
    stream = KnowledgeStream("P1", consumed=start)
    model, model_consumed = TickMap(), start
    for op, a, length in ops:
        if op == "d":
            event = ev(a)
            stream.tickmap.set_d(a, event)
            model.set_d(a, event)
        elif op == "s":
            stream.accumulate_silence(a, a + length)
            model.set_s(a, a + length)
        elif op == "l":
            stream.tickmap.set_lost_below(a)
            model.set_lost_below(a)
        else:
            limit = a if op == "advance_to" else None
            runs = stream.advance(limit)
            model_consumed, expected = _three_pass_advance(model, model_consumed, limit)
            assert runs == expected
            assert stream.consumed == model_consumed
            assert stream.doubt_horizon == model.doubt_horizon(model_consumed)
        for t in range(0, 72):
            assert stream.tickmap.kind(t) is model.kind(t)
        assert stream.tickmap.d_count == model.d_count
        assert stream.tickmap.max_known() == model.max_known()


class TestClassifyWithinBoundaries:
    """Exact window edges for ``TickMap.classify_within``.

    The cache-serving brokers call this with nack windows that land
    exactly on run boundaries (a chop at ``refilter_below``, a window
    starting at the lost prefix); off-by-one here silently reclassifies
    the boundary tick.
    """

    def _tm(self):
        from repro.core.tickmap import TickMap
        tm = TickMap()
        tm.set_s(3, 4)
        tm.set_d(5, ev(5))
        tm.set_s(6, 8)
        tm.set_lost_below(3)  # ticks 1..2 become L
        return tm

    def test_window_on_run_edges(self):
        d, s, l, q = self._tm().classify_within(3, 8)
        assert [e.timestamp for e in d] == [5]
        assert s == [(3, 4), (6, 8)]
        assert l == [] and q.as_tuples() == []

    def test_window_chops_s_runs(self):
        # Start and end land strictly inside S runs: each contributes
        # only its in-window remainder, never the whole run.
        d, s, l, q = self._tm().classify_within(4, 7)
        assert [e.timestamp for e in d] == [5]
        assert s == [(4, 4), (6, 7)]

    def test_window_exactly_one_d_tick(self):
        d, s, l, q = self._tm().classify_within(5, 5)
        assert [e.timestamp for e in d] == [5]
        assert s == [] and l == [] and q.as_tuples() == []

    def test_window_straddles_lost_prefix(self):
        # Tick 2 is the last lost tick, 3 the first known one.
        d, s, l, q = self._tm().classify_within(2, 5)
        assert l == [(2, 2)]
        assert s == [(3, 4)]
        assert [e.timestamp for e in d] == [5]

    def test_window_past_frontier_is_q(self):
        d, s, l, q = self._tm().classify_within(9, 12)
        assert d == [] and s == [] and l == []
        assert q.as_tuples() == [(9, 12)]


class TestCoalesceRangeBoundaries:
    """``coalesce_ranges`` at exact adjacency — the shape batch
    filtering emits (one single-tick S per suppressed event)."""

    def test_adjacent_single_ticks_merge(self):
        from repro.util.intervals import coalesce_ranges
        assert coalesce_ranges([(7, 7), (5, 5), (6, 6)]) == [(5, 7)]

    def test_gap_of_one_stays_split(self):
        from repro.util.intervals import coalesce_ranges
        assert coalesce_ranges([(5, 5), (7, 7)]) == [(5, 5), (7, 7)]

    def test_contained_and_overlapping(self):
        from repro.util.intervals import coalesce_ranges
        assert coalesce_ranges([(1, 9), (2, 3), (9, 11)]) == [(1, 11)]

    def test_inverted_range_rejected(self):
        from repro.util.intervals import coalesce_ranges
        with pytest.raises(ValueError):
            coalesce_ranges([(5, 4)])


class TestBatchFilterRefilterBoundary:
    """A D-event batch spanning the ``refilter_below`` chop must split
    exactly at the boundary: ticks ``< keep_below`` pass unfiltered
    (the SHB refilters them itself), the boundary tick and everything
    above go through the child's batch aggregate, and the suppressed
    remainder coalesces with neighbouring S knowledge.
    """

    def _phb_with_child(self, match_g=0):
        from repro.broker.base import Broker
        from repro.broker.intermediate import IntermediateBroker
        from repro.broker.phb import PublisherHostingBroker
        from repro.core.messages import SubscriptionAdd
        from repro.matching.predicates import Eq
        from repro.net.simtime import Scheduler
        sim = Scheduler()
        phb = PublisherHostingBroker(sim, "phb")
        Broker.connect(phb, IntermediateBroker(sim, "c1"))
        phb._handle_from_child("c1", SubscriptionAdd(Eq("g", match_g)))
        return phb

    @staticmethod
    def _filter(phb, update, keep_below=0):
        return phb._link_filter(update).for_child("c1", keep_below=keep_below)

    def test_batch_splits_at_keep_below(self):
        # g = t % 4, child wants g == 0.  Ticks 4..8 with keep_below=6:
        # 4 and 5 pass unfiltered (5 would NOT match), 6 and 7 are
        # filtered to S, 8 matches and stays D.
        phb = self._phb_with_child()
        out = self._filter(phb, upd(d=[4, 5, 6, 7, 8]), keep_below=6)
        assert [e.timestamp for e in out.d_events] == [4, 5, 8]
        assert out.s_ranges == [(6, 7)]

    def test_boundary_tick_is_refiltered(self):
        # keep_below is exclusive: the tick *at* the boundary goes
        # through the matcher (here g=2 does not match, so it turns S).
        phb = self._phb_with_child()
        out = self._filter(phb, upd(d=[6]), keep_below=6)
        assert out.d_events == []
        assert out.s_ranges == [(6, 6)]
        out = self._filter(phb, upd(d=[6]), keep_below=7)
        assert [e.timestamp for e in out.d_events] == [6]
        assert out.s_ranges == []

    def test_filtered_ticks_coalesce_with_update_silence(self):
        # The suppressed tick is adjacent to carried S knowledge on both
        # sides: one maximal range must ship, not three fragments.
        phb = self._phb_with_child()
        out = self._filter(phb, upd(d=[3], s=[(1, 2), (4, 6)]))
        assert out.d_events == []
        assert out.s_ranges == [(1, 6)]

    def test_whole_batch_below_boundary_skips_matching(self):
        phb = self._phb_with_child()
        matcher = phb.links.matcher
        before = matcher.events_processed
        out = self._filter(phb, upd(d=[1, 2, 3]), keep_below=4)
        assert [e.timestamp for e in out.d_events] == [1, 2, 3]
        assert matcher.events_processed == before
