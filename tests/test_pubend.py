"""Tests for pubends: timestamping, dissemination, nack service, release."""

import pytest

from repro.core.messages import KnowledgeUpdate
from repro.core.pubend import Pubend
from repro.core.release import MaxRetainPolicy
from repro.net.simtime import Scheduler
from repro.storage.disk import SimDisk
from repro.util.intervals import IntervalSet


@pytest.fixture
def sim():
    return Scheduler()


def make_pubend(sim, disk=False, policy=None):
    d = SimDisk(sim, "d", sync_interval_ms=5, sync_duration_ms=10) if disk else None
    pubend = Pubend("P1", sim, disk=d, policy=policy)
    updates = []
    pubend.on_knowledge = updates.append
    return pubend, updates, d


class TestPublish:
    def test_timestamps_strictly_increase(self, sim):
        pubend, updates, _ = make_pubend(sim)
        events = [pubend.publish({"g": i}) for i in range(5)]
        stamps = [e.timestamp for e in events]
        assert stamps == sorted(set(stamps))

    def test_timestamp_tracks_sim_time(self, sim):
        pubend, updates, _ = make_pubend(sim)
        sim.run_until(500)
        e = pubend.publish({"g": 0})
        assert e.timestamp >= 500

    def test_dissemination_carries_event_and_silence(self, sim):
        pubend, updates, _ = make_pubend(sim)
        sim.run_until(100)
        pubend.publish({"g": 0})
        assert len(updates) >= 1
        upd = updates[-1]
        assert len(upd.d_events) == 1
        t = upd.d_events[0].timestamp
        assert upd.max_tick() == t
        # The union of everything disseminated covers [1, t] with no gaps
        # (silence fills every tick that carries no event).
        covered = IntervalSet()
        for u in updates:
            for s, e in u.s_ranges:
                covered.add(s, e)
            for ev in u.d_events:
                covered.add(ev.timestamp)
        assert covered.as_tuples() == [(1, t)]

    def test_dissemination_waits_for_durability(self, sim):
        pubend, updates, disk = make_pubend(sim, disk=True)
        pubend.publish({"g": 0})
        assert updates == []     # staged, not yet durable
        sim.run_until(20)
        assert len(updates) == 1

    def test_silence_flush_advances_horizon(self, sim):
        pubend, updates, _ = make_pubend(sim)
        sim.run_until(100)
        assert any(u.s_ranges for u in updates)
        assert pubend.disseminated >= 74  # silence up to ~now-1

    def test_silence_never_covers_staged_events(self, sim):
        pubend, updates, disk = make_pubend(sim, disk=True)
        sim.run_until(50)
        e = pubend.publish({"g": 0})
        sim.run_until(52)  # silence timer may fire before the sync (at 65)
        for u in updates:
            for start, end in u.s_ranges:
                assert not (start <= e.timestamp <= end)

    def test_events_published_counter(self, sim):
        pubend, _, _ = make_pubend(sim)
        pubend.publish({"g": 0})
        pubend.publish({"g": 1})
        assert pubend.events_published == 2


def pubend_initial_gap_start(upd):
    return upd.s_ranges[0][0] if upd.s_ranges else 1


class TestServeNack:
    def test_serves_events_and_silence(self, sim):
        pubend, updates, _ = make_pubend(sim)
        sim.run_until(10)
        e1 = pubend.publish({"g": 0})
        sim.run_until(30)
        e2 = pubend.publish({"g": 1})
        sim.run_until(60)
        reply = pubend.serve_nack(IntervalSet([(1, pubend.disseminated)]))
        assert [e.timestamp for e in reply.d_events] == [e1.timestamp, e2.timestamp]
        covered = IntervalSet(reply.s_ranges)
        for e in (e1, e2):
            assert e.timestamp not in covered

    def test_does_not_answer_beyond_dissemination(self, sim):
        pubend, _, _ = make_pubend(sim)
        sim.run_until(50)
        reply = pubend.serve_nack(IntervalSet([(1, 10_000)]))
        assert reply.max_tick() is None or reply.max_tick() <= pubend.disseminated

    def test_serves_l_for_released_ticks(self, sim):
        pubend, _, _ = make_pubend(sim)
        sim.run_until(10)
        pubend.publish({"g": 0})
        sim.run_until(100)
        pubend.release_agg.register_child("c")
        pubend.on_release_report("c", released=50, latest_delivered=60)
        assert pubend.lost_below == 51
        reply = pubend.serve_nack(IntervalSet([(1, 60)]))
        assert reply.l_ranges == [(1, 50)]

    def test_max_events_cap(self, sim):
        pubend, _, _ = make_pubend(sim)
        for i in range(10):
            sim.run_until(sim.now + 5)
            pubend.publish({"g": i})
        sim.run_until(100)
        reply = pubend.serve_nack(IntervalSet([(1, pubend.disseminated)]), max_events=3)
        assert len(reply.d_events) == 3
        # Covered span stops at the last served event; the rest stays
        # unanswered for the retry.
        assert reply.max_tick() == reply.d_events[-1].timestamp


class TestRelease:
    def test_chops_log_for_acked_prefix(self, sim):
        pubend, _, _ = make_pubend(sim)
        sim.run_until(10)
        e = pubend.publish({"g": 0})
        sim.run_until(50)
        pubend.on_release_report("c", released=e.timestamp, latest_delivered=e.timestamp + 5)
        assert pubend.log.live_event_count == 0
        assert pubend.lost_below == e.timestamp + 1

    def test_max_retain_releases_unacked_old_ticks(self, sim):
        policy = MaxRetainPolicy(max_retain_ms=100)
        pubend, _, _ = make_pubend(sim, policy=policy)
        sim.run_until(10)
        e = pubend.publish({"g": 0})
        sim.run_until(1_000)
        # Subscriber never acked (released stuck at 0) but Td advanced.
        pubend.on_release_report("c", released=0, latest_delivered=900)
        assert pubend.apply_release() == 0  # already applied by report
        assert pubend.lost_below > e.timestamp
        assert pubend.log.live_event_count == 0

    def test_never_releases_beyond_td(self, sim):
        policy = MaxRetainPolicy(max_retain_ms=10)
        pubend, _, _ = make_pubend(sim, policy=policy)
        sim.run_until(500)
        pubend.on_release_report("c", released=0, latest_delivered=100)
        assert pubend.lost_below <= 101


class TestCrash:
    def test_staged_events_lost(self, sim):
        pubend, updates, disk = make_pubend(sim, disk=True)
        pubend.publish({"g": 0})
        disk.crash_reset()
        pubend.crash_reset()
        sim.run_until(200)
        pubend.recover()
        assert pubend.events_lost_in_crash == 1
        assert pubend.log.live_event_count == 0

    def test_recovery_resumes_publishing(self, sim):
        pubend, updates, disk = make_pubend(sim, disk=True)
        pubend.publish({"g": 0})
        sim.run_until(50)  # durable
        disk.crash_reset()
        pubend.crash_reset()
        sim.run_until(200)
        pubend.recover()
        e = pubend.publish({"g": 1})
        sim.run_until(300)
        assert e.timestamp >= 200
        assert pubend.log.get(e.timestamp) is not None

    def test_recovered_log_serves_nacks(self, sim):
        pubend, updates, disk = make_pubend(sim, disk=True)
        e = pubend.publish({"g": 0})
        sim.run_until(50)
        disk.crash_reset()
        pubend.crash_reset()
        sim.run_until(200)
        pubend.recover()
        reply = pubend.serve_nack(IntervalSet([(1, 199)]))
        assert [x.timestamp for x in reply.d_events] == [e.timestamp]


class TestAnnounceHead:
    def test_repeats_the_newest_logged_event(self, sim):
        pubend, updates, _ = make_pubend(sim)
        for g in range(5):  # a burst: stamped one tick apart, ahead of the clock
            newest = pubend.publish({"g": g})
        del updates[:]
        pubend.announce_head()
        assert len(updates) == 1
        assert [e.timestamp for e in updates[0].d_events] == [newest.timestamp]
        assert not updates[0].s_ranges and not updates[0].l_ranges
        assert newest.timestamp > sim.now  # nothing else would say so yet

    def test_silent_when_nothing_is_logged_or_all_of_it_is_released(self, sim):
        pubend, updates, _ = make_pubend(sim, policy=MaxRetainPolicy(10))
        pubend.announce_head()
        assert updates == []
        pubend.publish({"g": 0})
        sim.run_until(500)
        pubend.on_release_report("c", released=0, latest_delivered=400)
        assert pubend.log.live_event_count == 0 and pubend.lost_below > 1
        del updates[:]
        pubend.announce_head()
        assert updates == []
