"""Tests for catchup streams: PFS-driven recovery and switchover."""

import pytest

from repro.core.catchup import CatchupStream
from repro.core.constream import ConsolidatedStream
from repro.core.events import Event
from repro.core.messages import (
    EventMessage,
    GapMessage,
    KnowledgeUpdate,
    SilenceMessage,
)
from repro.core.subscription import SubscriptionRegistry
from repro.matching.engine import MatchingEngine
from repro.matching.predicates import Eq, Everything
from repro.net.simtime import Scheduler
from repro.pfs.pfs import PersistentFilteringSubsystem
from repro.storage.table import PersistentTable


def ev(t, g=0):
    return Event("P1", t, {"g": g})


def upd(d=(), s=(), l=()):
    return KnowledgeUpdate(
        "P1",
        d_events=[e if isinstance(e, Event) else ev(e) for e in d],
        s_ranges=list(s),
        l_ranges=list(l),
    )


class Env:
    """A constream that has progressed, plus one catchup subscriber."""

    def __init__(self, buffer_qs=5000, nack_window=256):
        self.sim = Scheduler()
        self.registry = SubscriptionRegistry(PersistentTable("s"), PersistentTable("r"))
        self.engine = MatchingEngine()
        self.pfs = PersistentFilteringSubsystem()
        self.meta = PersistentTable("meta")
        self.cs = ConsolidatedStream(
            "P1", self.sim, self.registry, self.engine, self.pfs, self.meta,
            deliver=lambda *a: None,
        )
        self.sub = self.registry.create("s1", Everything())
        self.engine.add("s1", Everything())
        self.buffer_qs = buffer_qs
        self.nack_window = nack_window
        self.delivered = []
        self.nacks = []
        self.switched = []

    def feed_constream(self, d=(), s=()):
        self.cs.accumulate_many([upd(d=d, s=s)])

    def start_catchup(self, start_ts):
        self.catchup = CatchupStream(
            self.sim, "P1", self.sub, start_ts, self.pfs, self.cs,
            deliver=self._deliver,
            send_nack=lambda r: self.nacks.append(r.copy()),
            on_switchover=lambda: self.switched.append(self.sim.now),
            buffer_qs=self.buffer_qs,
            nack_window_ticks=self.nack_window,
        )
        return self.catchup

    def _deliver(self, msg):
        """Record ``msg``; an event message is reported sent once the
        scheduler runs, as the SHB reports it after its send job."""
        self.delivered.append(msg)
        if isinstance(msg, EventMessage):
            self.sim.after(0.0, self.catchup.on_delivery_sent)

    def answer_nacks(self, events_by_ts, lost_below=0):
        """Act as the upstream: answer outstanding nacks from a dict."""
        while self.nacks:
            ranges = self.nacks.pop(0)
            reply = upd()
            for iv in ranges:
                for t in range(iv.start, iv.end + 1):
                    if t < lost_below:
                        reply.l_ranges.append((t, t))
                    elif t in events_by_ts:
                        reply.d_events.append(events_by_ts[t])
                    else:
                        reply.s_ranges.append((t, t))
            self.catchup.on_knowledge(reply)


class TestCatchupFlow:
    def test_recovers_missed_events_in_order(self):
        env = Env()
        events = {t: ev(t) for t in (10, 20, 30)}
        env.feed_constream(d=list(events.values()), s=[(1, 9), (11, 19), (21, 29), (31, 40)])
        assert env.cs.latest_delivered == 40
        env.start_catchup(0)
        env.sim.run_until(50)   # curiosity poll fires
        env.answer_nacks(events)
        got = [m for m in env.delivered if isinstance(m, EventMessage)]
        assert [m.t for m in got] == [10, 20, 30]
        assert env.switched  # caught up and switched over

    def test_silence_from_pfs_needs_no_nacks(self):
        env = Env()
        env.feed_constream(s=[(1, 100)])  # nothing matched anyone
        env.start_catchup(0)
        env.sim.run_until(50)
        # No Q ticks: catchup completes without any nack at all.
        assert env.nacks == []
        assert env.switched
        silences = [m for m in env.delivered if isinstance(m, SilenceMessage)]
        assert silences and silences[-1].t == 100

    def test_partial_start_point(self):
        env = Env()
        events = {t: ev(t) for t in (10, 20, 30)}
        env.feed_constream(d=list(events.values()), s=[(1, 9), (11, 19), (21, 29)])
        env.start_catchup(15)
        env.sim.run_until(50)
        env.answer_nacks(events)
        got = [m.t for m in env.delivered if isinstance(m, EventMessage)]
        assert got == [20, 30]

    def test_gap_for_released_ticks(self):
        env = Env()
        # PFS chopped below 20: catchup from 0 must nack (1, 19) and turn
        # the L reply into an explicit gap message.
        events = {t: ev(t) for t in (10, 25)}
        env.feed_constream(d=list(events.values()), s=[(1, 9), (11, 24), (26, 30)])
        env.pfs.chop_below("P1", 20)
        env.start_catchup(0)
        env.sim.run_until(50)
        env.answer_nacks(events, lost_below=20)
        gaps = [m for m in env.delivered if isinstance(m, GapMessage)]
        assert gaps, "expected an explicit gap for the released region"
        events_got = [m.t for m in env.delivered if isinstance(m, EventMessage)]
        assert events_got == [25]
        assert env.catchup.gap_ticks >= 19

    def test_switchover_exactly_at_delivery_cursor(self):
        env = Env()
        env.feed_constream(s=[(1, 50)])
        env.start_catchup(0)
        env.sim.run_until(20)
        assert env.switched
        assert env.catchup.cursor == env.cs.delivered_cursor

    def test_target_advances_during_catchup(self):
        env = Env()
        events = {10: ev(10)}
        env.feed_constream(d=[events[10]], s=[(1, 9), (11, 20)])
        env.start_catchup(0)
        env.sim.run_until(30)
        # Constream advances while catchup is in flight.
        events[25] = ev(25)
        env.feed_constream(d=[events[25]], s=[(21, 24), (26, 30)])
        env.answer_nacks(events)
        env.sim.run_until(100)
        env.answer_nacks(events)
        got = [m.t for m in env.delivered if isinstance(m, EventMessage)]
        assert got == [10, 25]
        assert env.switched

    def test_catchup_duration_measured(self):
        env = Env()
        env.feed_constream(s=[(1, 10)])
        stream = env.start_catchup(0)
        env.sim.run_until(50)
        assert env.switched
        assert stream.catchup_duration_ms <= 50


class TestFlowControl:
    def test_nacks_respect_window(self):
        env = Env(nack_window=3)
        events = {t: ev(t) for t in range(10, 100, 10)}
        s_ranges = [(1, 9)] + [(t + 1, t + 9) for t in range(10, 100, 10)]
        env.feed_constream(d=list(events.values()), s=s_ranges)
        env.start_catchup(0)
        env.sim.run_until(25)
        # Only the first window of Q ticks is nacked at once.
        assert env.nacks
        assert sum(r.tick_count() for r in env.nacks) <= 3

    def test_progress_releases_more_nacks(self):
        env = Env(nack_window=3)
        events = {t: ev(t) for t in range(10, 100, 10)}
        s_ranges = [(1, 9)] + [(t + 1, t + 9) for t in range(10, 100, 10)]
        env.feed_constream(d=list(events.values()), s=s_ranges)
        env.start_catchup(0)
        for _ in range(20):
            env.sim.run_until(env.sim.now + 25)
            env.answer_nacks(events)
        got = [m.t for m in env.delivered if isinstance(m, EventMessage)]
        assert got == sorted(events)
        assert env.switched

    def test_small_read_buffer_triggers_multiple_reads(self):
        env = Env(buffer_qs=2)
        events = {t: ev(t) for t in range(10, 100, 10)}
        s_ranges = [(1, 9)] + [(t + 1, t + 9) for t in range(10, 100, 10)]
        env.feed_constream(d=list(events.values()), s=s_ranges)
        stream = env.start_catchup(0)
        for _ in range(30):
            env.sim.run_until(env.sim.now + 25)
            env.answer_nacks(events)
        assert stream.pfs_reads >= 4
        got = [m.t for m in env.delivered if isinstance(m, EventMessage)]
        assert got == sorted(events)


class TestRefilterPacing:
    def test_empty_epoch_ms_span_takes_a_bounded_number_of_nacks(self):
        """On an epoch-ms clock a subscriber whose CT is 0 refilters up
        to about 1.8e12.  The window counts events, not ticks: over an
        empty log that is a couple of nacks, not 7e9 of 256 ticks."""
        env = Env()
        until = 1_800_000_000_000
        env.feed_constream(s=[(1, until + 50)])
        env.catchup = stream = CatchupStream(
            env.sim, "P1", env.sub, 0, env.pfs, env.cs,
            deliver=env._deliver,
            send_nack=lambda r: env.nacks.append(r.copy()),
            on_switchover=lambda: env.switched.append(env.sim.now),
            refilter_until=until,
            caches_valid=False,
        )
        for _ in range(10):
            env.sim.run_until(env.sim.now + 50)
            while env.nacks:
                ranges = env.nacks.pop(0)
                stream.on_knowledge(upd(s=[(iv.start, iv.end) for iv in ranges]))
        assert env.switched
        assert stream.curiosity.nacks_sent <= 3

    def test_window_counts_events(self):
        """A dense span is requested in windows of about the window's
        worth of events, whatever their tick spacing."""
        env = Env(nack_window=16)
        events = {t: ev(t) for t in range(10, 1_000, 10)}
        env.feed_constream(d=list(events.values()), s=[
            (t + 1, t + 9) for t in range(0, 1_000, 10)
        ])
        env.catchup = stream = CatchupStream(
            env.sim, "P1", env.sub, 0, env.pfs, env.cs,
            deliver=env._deliver,
            send_nack=lambda r: env.nacks.append(r.copy()),
            on_switchover=lambda: env.switched.append(env.sim.now),
            nack_window_ticks=16,
            refilter_until=999,
            caches_valid=False,
        )
        spans = []
        for _ in range(200):
            env.sim.run_until(env.sim.now + 50)
            for ranges in env.nacks:
                spans.extend(iv.end - iv.start + 1 for iv in ranges)
            env.answer_nacks(events)
            if env.switched:
                break
        assert env.switched
        got = [m.t for m in env.delivered if isinstance(m, EventMessage)]
        assert got == sorted(events)
        # One tick in ten holds an event: after a first window of 16
        # ticks that held one, the estimate settles at about 160.
        assert spans[:2] == [16, 256]
        assert all(150 <= span <= 170 for span in spans[2:-1])


class TestClose:
    def test_close_stops_nacking(self):
        env = Env()
        events = {10: ev(10)}
        env.feed_constream(d=[events[10]], s=[(1, 9), (11, 20)])
        stream = env.start_catchup(0)
        stream.close()
        env.sim.run_until(200)
        # Any nacks sent before close are fine; none after.
        count = len(env.nacks)
        env.sim.run_until(2_000)
        assert len(env.nacks) == count

    def test_knowledge_after_close_ignored(self):
        env = Env()
        env.feed_constream(s=[(1, 10)])
        stream = env.start_catchup(0)
        stream.close()
        stream.on_knowledge(upd(d=[ev(5)]))
        assert all(not isinstance(m, EventMessage) for m in env.delivered)
