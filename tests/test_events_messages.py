"""Unit tests for events, protocol messages and tick kinds."""

import pytest

from repro.core.events import HEADER_BYTES, PAPER_PAYLOAD_BYTES, Event
from repro.core import messages as M
from repro.core.ticks import Tick


class TestEvent:
    def test_paper_event_is_418_bytes(self):
        event = Event("P1", 1)
        assert event.payload_bytes == PAPER_PAYLOAD_BYTES == 250
        assert event.size_bytes == 418
        assert HEADER_BYTES == 168

    def test_event_id(self):
        assert Event("P2", 1234).event_id == "P2:1234"

    def test_events_are_immutable(self):
        event = Event("P1", 1)
        with pytest.raises(AttributeError):
            event.timestamp = 2  # type: ignore[misc]

    def test_custom_payload(self):
        assert Event("P1", 1, payload_bytes=1000).size_bytes == 1168


class TestTick:
    def test_is_known(self):
        assert not Tick.Q.is_known()
        for t in (Tick.S, Tick.D, Tick.L):
            assert t.is_known()

    def test_values(self):
        assert {t.value for t in Tick} == {"Q", "S", "D", "L"}


class TestNackRefilterField:
    def test_default_no_refilter(self):
        assert M.Nack("P1", [(1, 5)]).refilter_below == 0

    def test_refilter_boundary_carried(self):
        nack = M.Nack("P1", [(1, 5)], refilter_below=3)
        assert nack.refilter_below == 3


class TestClipHelpers:
    def test_clip_update_to_set(self):
        from repro.util.intervals import IntervalSet
        update = M.KnowledgeUpdate(
            "P1",
            d_events=[Event("P1", 3), Event("P1", 8)],
            s_ranges=[(1, 2), (4, 7), (9, 12)],
        )
        interest = IntervalSet([(2, 4), (10, 11)])
        out = M.clip_update_to_set(update, interest)
        assert [e.timestamp for e in out.d_events] == [3]
        assert out.s_ranges == [(2, 2), (4, 4), (10, 11)]

    def test_clip_update_to_empty_set(self):
        from repro.util.intervals import IntervalSet
        update = M.KnowledgeUpdate("P1", s_ranges=[(1, 5)])
        assert M.clip_update_to_set(update, IntervalSet()).is_empty()
