"""Tests for curiosity streams (nack pacing) and the consolidator."""

import pytest

from repro.core.curiosity import CuriosityStream, NackConsolidator
from repro.net.simtime import Scheduler
from repro.util.intervals import IntervalSet


@pytest.fixture
def sim():
    return Scheduler()


def make_curiosity(sim, **kw):
    nacks = []
    cs = CuriosityStream(sim, "P1", lambda r: nacks.append(r.as_tuples()), **kw)
    return cs, nacks


class TestCuriosityStream:
    def test_wanted_range_is_nacked(self, sim):
        cs, nacks = make_curiosity(sim, poll_ms=10)
        cs.want(5, 9)
        sim.run_until(15)
        assert nacks == [[(5, 9)]]

    def test_no_renack_within_retry_window(self, sim):
        cs, nacks = make_curiosity(sim, poll_ms=10, retry_ms=100)
        cs.want(5, 9)
        sim.run_until(90)
        assert len(nacks) == 1

    def test_renack_after_retry_expires(self, sim):
        cs, nacks = make_curiosity(sim, poll_ms=10, retry_ms=100)
        cs.want(5, 9)
        sim.run_until(250)
        assert len(nacks) >= 2
        assert nacks[1] == [(5, 9)]

    def test_resolved_ranges_not_renacked(self, sim):
        cs, nacks = make_curiosity(sim, poll_ms=10, retry_ms=50)
        cs.want(5, 9)
        sim.run_until(15)
        cs.resolve(5, 7)
        sim.run_until(200)
        for ranges in nacks[1:]:
            assert ranges == [(8, 9)]

    def test_new_want_nacked_promptly_despite_pending(self, sim):
        cs, nacks = make_curiosity(sim, poll_ms=10, retry_ms=1000)
        cs.want(5, 9)
        sim.run_until(15)
        cs.want(20, 25)
        sim.run_until(40)
        assert [(20, 25)] in nacks

    def test_resolve_below(self, sim):
        cs, nacks = make_curiosity(sim, poll_ms=10, retry_ms=20)
        cs.want(5, 9)
        cs.resolve_below(8)
        sim.run_until(15)
        assert nacks == [[(8, 9)]]

    def test_set_want_replaces(self, sim):
        cs, cs_nacks = make_curiosity(sim, poll_ms=10, retry_ms=5)
        cs.want(5, 9)
        cs.set_want(IntervalSet([(7, 8)]))
        sim.run_until(12)
        assert cs_nacks
        assert all(r == [(7, 8)] for r in cs_nacks)

    def test_close_stops_timer(self, sim):
        cs, nacks = make_curiosity(sim, poll_ms=10)
        cs.want(5, 9)
        cs.close()
        sim.run_until(100)
        assert nacks == []

    def test_timer_stops_when_done(self, sim):
        cs, nacks = make_curiosity(sim, poll_ms=10, retry_ms=20)
        cs.want(5, 6)
        sim.run_until(15)
        cs.resolve(5, 6)
        sim.run_until(100)
        executed_before = sim.events_executed
        sim.run_until(1000)
        # Timer cancelled itself: barely any events after quiescence.
        assert sim.events_executed - executed_before <= 2


class TestNackConsolidator:
    def test_forward_suppresses_duplicates(self, sim):
        con = NackConsolidator(sim, retry_ms=100)
        first = con.to_forward(IntervalSet([(5, 9)]))
        assert first.as_tuples() == [(5, 9)]
        again = con.to_forward(IntervalSet([(5, 9)]))
        assert not again
        assert con.consolidated_ticks == 5

    def test_forward_partial_overlap(self, sim):
        con = NackConsolidator(sim, retry_ms=100)
        con.to_forward(IntervalSet([(5, 9)]))
        due = con.to_forward(IntervalSet([(8, 12)]))
        assert due.as_tuples() == [(10, 12)]

    def test_forward_again_after_retry_window(self, sim):
        con = NackConsolidator(sim, retry_ms=50)
        con.to_forward(IntervalSet([(5, 9)]))
        # Suppression lasts between one and two retry periods (the
        # two-generation scheme): still suppressed just after one.
        sim.run_until(60)
        assert not con.to_forward(IntervalSet([(5, 9)]))
        sim.run_until(120)
        due = con.to_forward(IntervalSet([(5, 9)]))
        assert due.as_tuples() == [(5, 9)]

    def test_route_finds_interested_requesters(self, sim):
        con = NackConsolidator(sim)
        con.register("a", IntervalSet([(5, 9)]))
        con.register("b", IntervalSet([(8, 12)]))
        con.register("c", IntervalSet([(20, 25)]))
        assert set(con.route(9, 10)) == {"a", "b"}
        assert con.route(13, 19) == []

    def test_satisfy_clears_interest(self, sim):
        con = NackConsolidator(sim)
        con.register("a", IntervalSet([(5, 9)]))
        con.satisfy(5, 9)
        assert con.route(5, 9) == []
        assert con.pending_requesters == 0

    def test_satisfy_partial(self, sim):
        con = NackConsolidator(sim)
        con.register("a", IntervalSet([(5, 9)]))
        con.satisfy(5, 6)
        assert con.route(7, 7) == ["a"]
        assert con.interest_of("a").as_tuples() == [(7, 9)]

    @pytest.mark.parametrize("interest", [False, True])
    @pytest.mark.parametrize("in_flight", [False, True])
    def test_satisfy_update_equals_satisfy_set_of_its_ticks(self, sim, interest, in_flight):
        from repro.core.events import Event
        from repro.core.messages import KnowledgeUpdate

        update = KnowledgeUpdate(
            "P1", d_events=[Event("P1", 6, {}), Event("P1", 30, {})],
            s_ranges=[(7, 9), (12, 12)], l_ranges=[(1, 3)],
        )
        covered = IntervalSet([(1, 3), (6, 9), (12, 12), (30, 30)])
        cons = [NackConsolidator(sim, retry_ms=100) for _ in range(2)]
        for con in cons:
            if interest:
                con.register("a", IntervalSet([(2, 7)]))
                con.register("b", IntervalSet([(8, 14), (30, 30)]))
            if in_flight:
                con.to_forward(IntervalSet([(5, 13)]))
        cons[0].satisfy_update(update)
        cons[1].satisfy_set(covered)
        for requester in ("a", "b"):
            assert cons[0].interest_of(requester) == cons[1].interest_of(requester)
        assert cons[0].pending_requesters == cons[1].pending_requesters
        # What is still suppressed as in flight is the same too.
        again = IntervalSet([(1, 40)])
        assert cons[0].to_forward(again) == cons[1].to_forward(again)

    def test_drop_requester(self, sim):
        con = NackConsolidator(sim)
        con.register("a", IntervalSet([(5, 9)]))
        con.drop_requester("a")
        assert con.route(5, 9) == []
