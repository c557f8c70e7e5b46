"""Tests for the consolidated stream (Section 4.1)."""

import pytest

from repro.core.constream import ConsolidatedStream
from repro.core.events import Event
from repro.core.messages import EventMessage, KnowledgeUpdate, SilenceMessage
from repro.core.subscription import SubscriptionRegistry
from repro.matching.engine import MatchingEngine
from repro.matching.predicates import Eq, Everything
from repro.net.simtime import Scheduler
from repro.pfs.pfs import PersistentFilteringSubsystem
from repro.storage.disk import SimDisk
from repro.storage.table import PersistentTable
from repro.util.errors import ProtocolError


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
    def __init__(self, with_disk=False):
        self.sim = Scheduler()
        disk = SimDisk(self.sim, "d", sync_interval_ms=5, sync_duration_ms=10) if with_disk else None
        self.registry = SubscriptionRegistry(PersistentTable("s"), PersistentTable("r"))
        self.engine = MatchingEngine()
        self.pfs = PersistentFilteringSubsystem(disk=disk)
        self.meta = PersistentTable("meta")
        self.delivered = []
        self.cs = ConsolidatedStream(
            "P1", self.sim, self.registry, self.engine, self.pfs, self.meta,
            deliver=lambda sid, msg: self.delivered.append((sid, msg)),
        )

    def add_sub(self, sub_id, predicate, non_catchup=True):
        sub = self.registry.create(sub_id, predicate)
        self.engine.add(sub_id, predicate)
        if non_catchup:
            self.cs.add_non_catchup(sub_id)
        return sub


class TestDelivery:
    def test_event_delivered_to_matching_non_catchup(self):
        env = Env()
        env.add_sub("s1", Eq("g", 0))
        env.add_sub("s2", Eq("g", 1))
        env.cs.accumulate_many([upd(d=[ev(5, g=0)], s=[(1, 4)])])
        assert [(sid, m.t) for sid, m in env.delivered] == [("s1", 5)]
        assert env.cs.latest_delivered == 5

    def test_delivery_is_in_timestamp_order(self):
        env = Env()
        env.add_sub("s1", Everything())
        env.cs.accumulate_many([upd(d=[ev(8)])])
        assert env.delivered == []         # 1..7 unknown
        env.cs.accumulate_many([upd(d=[ev(3)], s=[(1, 2), (4, 7)])])
        ts = [m.t for _sid, m in env.delivered]
        assert ts == [3, 8]

    def test_disconnected_subscriber_not_delivered_but_pfs_logged(self):
        env = Env()
        env.add_sub("s1", Everything(), non_catchup=False)
        env.cs.accumulate_many([upd(d=[ev(5)], s=[(1, 4)])])
        assert env.delivered == []
        result = env.pfs.read_batch("P1", 0, after=0)
        assert result.q_ticks == [5]

    def test_pfs_records_all_matching_durables(self):
        env = Env()
        a = env.add_sub("s1", Eq("g", 0))
        b = env.add_sub("s2", Everything(), non_catchup=False)
        env.cs.accumulate_many([upd(d=[ev(5, g=0)], s=[(1, 4)])])
        result_a = env.pfs.read_batch("P1", a.num, after=0)
        result_b = env.pfs.read_batch("P1", b.num, after=0)
        assert result_a.q_ticks == [5]
        assert result_b.q_ticks == [5]

    def test_event_matching_nobody_writes_no_pfs_record(self):
        env = Env()
        env.add_sub("s1", Eq("g", 1))
        env.cs.accumulate_many([upd(d=[ev(5, g=0)], s=[(1, 4)])])
        assert env.pfs.writes == 0
        assert env.cs.latest_delivered == 5

    def test_remove_subscriber_stops_delivery(self):
        env = Env()
        env.add_sub("s1", Everything())
        env.cs.remove_subscriber("s1")
        env.cs.accumulate_many([upd(d=[ev(5)], s=[(1, 4)])])
        assert env.delivered == []

    def test_l_tick_reaching_constream_is_protocol_error(self):
        env = Env()
        env.add_sub("s1", Everything())
        with pytest.raises(ProtocolError):
            env.cs.accumulate_many([upd(l=[(1, 5)])])

    def test_delivery_floor_suppresses_redelivery(self):
        env = Env()
        env.add_sub("s1", Everything())
        env.cs.accumulate_many([upd(d=[ev(5)], s=[(1, 4)])])
        env.cs.remove_subscriber("s1")
        # Rejoin claiming CT=10: events <= 10 must not be redelivered.
        env.cs.add_non_catchup("s1", floor=10)
        env.cs.accumulate_many([upd(d=[ev(8), ev(12)], s=[(6, 7), (9, 11)])])
        ts = [m.t for sid, m in env.delivered if sid == "s1"]
        assert ts == [5, 12]


class TestLatestDelivered:
    def test_gated_on_pfs_durability(self):
        env = Env(with_disk=True)
        env.add_sub("s1", Everything())
        env.cs.accumulate_many([upd(d=[ev(5)], s=[(1, 4)])])
        # Delivered to the sub immediately...
        assert [m.t for _s, m in env.delivered] == [5]
        # ...but latestDelivered waits for the PFS sync.
        assert env.cs.latest_delivered == 4
        assert env.cs.delivered_cursor == 5
        env.sim.run_until(100)  # let the PFS sync complete
        assert env.cs.latest_delivered == 5

    def test_listener_fires_on_advance(self):
        env = Env()
        env.add_sub("s1", Everything())
        seen = []
        env.cs.on_latest_delivered(seen.append)
        env.cs.accumulate_many([upd(s=[(1, 9)])])
        assert seen == [9]

    def test_listener_removal(self):
        env = Env()
        seen = []
        env.cs.on_latest_delivered(seen.append)
        env.cs.remove_latest_delivered_listener(seen.append)
        env.cs.accumulate_many([upd(s=[(1, 9)])])
        assert seen == []

    def test_persisted_to_meta_table(self):
        env = Env()
        env.cs.accumulate_many([upd(s=[(1, 9)])])
        assert env.meta.get("latestDelivered:P1") == 9

    def test_resumes_from_committed_value(self):
        env = Env()
        env.cs.accumulate_many([upd(s=[(1, 9)])])
        env.meta.commit()
        cs2 = ConsolidatedStream(
            "P1", env.sim, env.registry, env.engine, env.pfs, env.meta,
            deliver=lambda *a: None,
        )
        assert cs2.latest_delivered == 9
        assert cs2.knowledge.consumed == 9


class TestSilence:
    def test_lagging_subscriber_gets_silence(self):
        env = Env()
        env.add_sub("s1", Eq("g", 7))  # matches nothing
        env.cs.accumulate_many([upd(s=[(1, 500)])])
        env.sim.run_until(200)  # silence timer fires (interval 100ms)
        silences = [m for _s, m in env.delivered if isinstance(m, SilenceMessage)]
        assert silences
        assert silences[0].t == 500

    def test_active_subscriber_gets_no_silence(self):
        env = Env()
        env.add_sub("s1", Everything())
        env.cs.accumulate_many([upd(d=[ev(500)], s=[(1, 499)])])
        env.sim.run_until(200)
        silences = [m for _s, m in env.delivered if isinstance(m, SilenceMessage)]
        assert silences == []


class TestReleased:
    def test_released_is_min_of_acks_and_latest(self):
        env = Env()
        env.add_sub("s1", Everything())
        env.add_sub("s2", Everything())
        env.cs.accumulate_many([upd(s=[(1, 100)])])
        env.registry.ack("s1", "P1", 80)
        env.registry.ack("s2", "P1", 60)
        assert env.cs.released == 60

    def test_released_capped_by_latest_delivered(self):
        env = Env()
        env.add_sub("s1", Everything())
        env.cs.accumulate_many([upd(s=[(1, 50)])])
        env.registry.ack("s1", "P1", 50)
        assert env.cs.released == 50

    def test_released_with_no_subs_is_latest(self):
        env = Env()
        env.cs.accumulate_many([upd(s=[(1, 42)])])
        assert env.cs.released == 42

    def test_committed_latest_delivered(self):
        env = Env()
        env.cs.accumulate_many([upd(s=[(1, 9)])])
        assert env.cs.committed_latest_delivered == 0
        env.meta.commit()
        assert env.cs.committed_latest_delivered == 9


class BatchEnv(Env):
    """Env with the batched fan-out path enabled (``deliver_batch``).

    Batched deliveries are flattened into ``delivered`` in arrival
    order so a batched run is directly comparable to a non-batched one.
    """

    def __init__(self, with_disk=False):
        super().__init__(with_disk=with_disk)
        self.cs.deliver_batch = self._deliver_batch

    def _deliver_batch(self, sub_id, msgs):
        for msg in msgs:
            self.delivered.append((sub_id, msg))


class TestBatchedVsNonBatchedExpiration:
    """Satellite audit: expiration must be decided once, in the shared
    classify pass, so an expiring workload behaves identically with
    batched fan-out on and off — same skips, same PFS records, same
    deliveries, same cursor."""

    def _drive(self, env):
        env.add_sub("s1", Eq("g", 0))
        env.add_sub("s2", Everything())
        # Advance the clock so expires_at below now is genuinely stale.
        env.sim.run_until(50.0)
        # Mixed advance: live, already-expired, never-expiring events,
        # interleaved with silence; one event expires mid-workload.
        env.cs.accumulate_many([upd(
            d=[
                Event("P1", 2, {"g": 0}, expires_at=10),   # expired
                Event("P1", 4, {"g": 0}),                  # live
                Event("P1", 5, {"g": 1}, expires_at=40),   # expired
            ],
            s=[(1, 1), (3, 3)],
        )])
        env.sim.run_until(80.0)
        env.cs.accumulate_many([upd(
            d=[
                Event("P1", 7, {"g": 1}, expires_at=1000), # live
                Event("P1", 9, {"g": 0}, expires_at=60),   # expired
            ],
            s=[(6, 6), (8, 8)],
        )])
        env.sim.run_until(120.0)
        return env

    def test_expired_asymmetry_absent(self):
        plain = self._drive(Env())
        batched = self._drive(BatchEnv())

        assert plain.cs.expired_skipped == batched.cs.expired_skipped == 3
        assert plain.pfs.writes == batched.pfs.writes == 2
        # Intra-tick fan-out order is path-specific (the per-tick loop
        # iterates the memoized match set, the batched loop its sorted
        # order); the per-tick delivery *sets* must agree exactly.
        assert sorted((m.t, sid) for sid, m in plain.delivered) == \
            sorted((m.t, sid) for sid, m in batched.delivered) == \
            [(4, "s1"), (4, "s2"), (7, "s2")]
        assert plain.cs.latest_delivered == batched.cs.latest_delivered == 9
        # Expired ticks look like silence to catchup reads on both.
        for env in (plain, batched):
            nums = {sid: env.registry.get(sid).num for sid in ("s1", "s2")}
            assert env.pfs.read_batch("P1", nums["s1"], 0).q_ticks == [4]
            assert env.pfs.read_batch("P1", nums["s2"], 0).q_ticks == [4, 7]

    def test_expired_asymmetry_absent_under_disk(self):
        plain = self._drive(Env(with_disk=True))
        batched = self._drive(BatchEnv(with_disk=True))
        assert plain.cs.expired_skipped == batched.cs.expired_skipped == 3
        assert sorted((m.t, sid) for sid, m in plain.delivered) == \
            sorted((m.t, sid) for sid, m in batched.delivered)
        assert plain.cs.latest_delivered == batched.cs.latest_delivered


class TestMidAdvanceRegistration:
    """Satellite audit: a subscriber registered *mid-advance* (from a
    synchronous PFS-durability callback — a catchup switchover) gets
    the same first-delivery cursor on the batched and non-batched
    paths: ``knowledge.advance()`` moves the consumed cursor past the
    whole advance before any PFS ack can fire, so the late joiner
    floors above every tick of the advance on both."""

    def _drive(self, env):
        env.add_sub("s1", Everything())
        late = {}

        def join_late(latest):
            if latest >= 3 and "s3" not in late:
                sub = env.add_sub("s3", Everything())
                late["s3"] = env.cs._non_catchup["s3"]

        env.cs.on_latest_delivered(join_late)
        env.cs.accumulate_many([upd(d=[ev(3), ev(5), ev(8)], s=[(1, 2), (4, 4), (6, 7)])])
        env.cs.accumulate_many([upd(d=[ev(9)])])
        env.sim.run_until(100.0)
        return env, late["s3"]

    def test_same_first_delivery_cursor_both_paths(self):
        plain, plain_floor = self._drive(Env())
        batched, batched_floor = self._drive(BatchEnv())

        # The callback fired inside the first pump; the floor is the
        # already-consumed advance end — above every tick of it.
        assert plain_floor == batched_floor == 8
        s3_plain = [m.t for sid, m in plain.delivered if sid == "s3"]
        s3_batched = [m.t for sid, m in batched.delivered if sid == "s3"]
        # First delivery is the first post-registration advance.
        assert s3_plain == s3_batched == [9]
        # And nothing from the in-flight advance was redelivered.
        assert sorted((m.t, sid) for sid, m in plain.delivered) == \
            sorted((m.t, sid) for sid, m in batched.delivered)

    def test_same_first_delivery_cursor_under_disk(self):
        # Under a SimDisk the durability ack (and thus the switchover)
        # fires from the sync completion, between pumps — by then both
        # scripted advances have pumped, so the floor lands at 9 on
        # both paths and s3's first delivery is the next advance.
        def drive(env):
            env, floor = self._drive(env)
            env.sim.at(150.0, lambda: env.cs.accumulate_many([
                upd(d=[ev(12)], s=[(10, 11)])
            ]))
            env.sim.run_until(300.0)
            return env, floor

        plain, plain_floor = drive(Env(with_disk=True))
        batched, batched_floor = drive(BatchEnv(with_disk=True))
        assert plain_floor == batched_floor == 9
        assert [m.t for sid, m in plain.delivered if sid == "s3"] == \
            [m.t for sid, m in batched.delivered if sid == "s3"] == [12]
