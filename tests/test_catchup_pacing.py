"""Tests for catchup flow control: rate pacing and delivery windows."""

import pytest

from repro import (
    DurableSubscriber,
    Everything,
    In,
    Node,
    PeriodicPublisher,
    Scheduler,
    build_two_broker,
)
from repro.core.catchup import CatchupStream
from repro.core.constream import ConsolidatedStream
from repro.core.events import Event
from repro.core.messages import EventMessage, KnowledgeUpdate
from repro.core.subscription import SubscriptionRegistry
from repro.matching.engine import MatchingEngine
from repro.pfs.pfs import PersistentFilteringSubsystem
from repro.storage.table import PersistentTable


def run_catchup(disconnect_s, rate=100, groups=(0, 1, 2, 3)):
    """Disconnect a subscriber for ``disconnect_s``; return its catchup
    duration and the SHB."""
    sim = Scheduler()
    overlay = build_two_broker(sim, ["P1"])
    shb = overlay.shbs[0]
    sub = DurableSubscriber(sim, "s1", Node(sim, "c"), In("group", list(groups)),
                            record_events=True)
    sub.connect(shb)
    pub = PeriodicPublisher(sim, overlay.phb, "P1", rate,
                            attribute_fn=lambda i: {"group": i % 4})
    pub.start()
    sim.run_until(3_000)
    sub.disconnect()
    sim.run_until(3_000 + disconnect_s * 1_000)
    sub.connect(shb)
    horizon = 3_000 + disconnect_s * 1_000
    while sim.now < horizon + 20 * disconnect_s * 1_000 + 20_000:
        sim.run_until(sim.now + 500)
        if shb.active_catchup_count == 0 and shb.catchup_durations_ms:
            break
    pub.stop()
    sim.run_until(sim.now + 3_000)
    durations = [d for _t, d in shb.catchup_durations_ms]
    return durations[-1] if durations else None, shb, sub, pub


class TestRatePacing:
    def test_catchup_duration_proportional_to_disconnection(self):
        """The Figure 5 shape: duration scales with the missed span."""
        short, *_ = run_catchup(2)
        long, *_ = run_catchup(6)
        assert short is not None and long is not None
        assert 2.0 < long / short < 4.5  # ~3x for 3x the disconnection

    def test_catchup_duration_near_disconnection_length(self):
        duration, shb, sub, pub = run_catchup(4)
        # rate_boost 1.9 => duration ~ disconnection / 0.9 minus burst.
        assert 1_500 < duration < 8_000
        assert sub.duplicate_events == 0
        assert sub.stats.order_violations == 0

    def test_sparse_subscriber_same_relative_duration(self):
        """Pacing is scale-free: a subscriber matching 1/4 of the events
        catches up in roughly the same (relative) time."""
        dense, *_ = run_catchup(4, groups=(0, 1, 2, 3))
        sparse, *_ = run_catchup(4, groups=(1,))
        assert 0.3 < sparse / dense < 2.5

    def test_delivery_completes_exactly_once(self):
        _d, shb, sub, pub = run_catchup(5)
        assert sub.stats.events == pub.published
        assert sub.duplicate_events == 0


class TestEventCache:
    def test_cache_answers_catchup_locally(self):
        _d, shb, sub, pub = run_catchup(2)
        # All recovery nacks were served by the SHB's own cache; the
        # PHB never saw them.
        assert shb.cache_served_nacks > 0

    def test_cache_trimmed_to_span(self):
        sim = Scheduler()
        overlay = build_two_broker(sim, ["P1"], event_cache_span_ms=1_000)
        shb = overlay.shbs[0]
        sub = DurableSubscriber(sim, "s1", Node(sim, "c"), Everything())
        sub.connect(shb)
        pub = PeriodicPublisher(sim, overlay.phb, "P1", 100,
                                attribute_fn=lambda i: {"group": 0})
        pub.start()
        sim.run_until(10_000)
        cache = shb.event_cache["P1"]
        # Only ~1s of events retained.
        assert cache.d_count < 150
        assert cache.max_known() > 9_000

    def test_cache_cleared_on_crash(self):
        sim = Scheduler()
        overlay = build_two_broker(sim, ["P1"])
        shb = overlay.shbs[0]
        sub = DurableSubscriber(sim, "s1", Node(sim, "c"), Everything())
        sub.connect(shb)
        pub = PeriodicPublisher(sim, overlay.phb, "P1", 100,
                                attribute_fn=lambda i: {"group": 0})
        pub.start()
        sim.run_until(5_000)
        assert shb.event_cache["P1"].d_count > 0
        shb.fail_for(200)
        sim.run_until(5_250)
        # Volatile: rebuilt empty at recovery.
        assert shb.event_cache["P1"].d_count < 50


# ---------------------------------------------------------------------------
# Pacing in isolation: one catchup stream over an in-memory PFS
# ---------------------------------------------------------------------------
class PacedEnv:
    """A constream that delivered ``ticks``, and one paced catchup stream."""

    def __init__(self, ticks):
        self.sim = Scheduler()
        self.registry = SubscriptionRegistry(PersistentTable("s"), PersistentTable("r"))
        self.engine = MatchingEngine()
        self.pfs = PersistentFilteringSubsystem()
        self.sub = self.registry.create("s1", Everything())
        self.engine.add("s1", Everything())
        self.events = {t: Event("P1", t, {}) for t in ticks}
        self.restart_constream(0)
        self.hear(ticks)
        self.nacks = []
        self.switched = []

    def restart_constream(self, committed):
        """A constream whose committed latestDelivered is ``committed``,
        over the PFS as it stands (an SHB restart)."""
        meta = PersistentTable("meta")
        meta.put("latestDelivered:P1", committed)
        meta.commit()
        self.cs = ConsolidatedStream(
            "P1", self.sim, self.registry, self.engine, self.pfs, meta,
            deliver=lambda *a: None,
        )

    def hear(self, ticks):
        """The constream learns ``ticks`` and the silence around them."""
        below = self.cs.knowledge.frontier
        silences = [
            (a + 1, b - 1) for a, b in zip([below, *ticks], ticks) if b > a + 1
        ]
        self.cs.accumulate_many([KnowledgeUpdate(
            "P1", d_events=[self.events[t] for t in ticks], s_ranges=silences, l_ranges=[]
        )])

    def start_catchup(self, start_ts):
        self.catchup = CatchupStream(
            self.sim, "P1", self.sub, start_ts, self.pfs, self.cs,
            deliver=self._deliver,
            send_nack=lambda r: self.nacks.append(r.copy()),
            on_switchover=lambda: self.switched.append(self.sim.now),
        )
        return self.catchup

    def _deliver(self, msg):
        """An event message is reported sent once the scheduler runs,
        as the SHB reports it after its send job."""
        if isinstance(msg, EventMessage):
            self.sim.after(0.0, self.catchup.on_delivery_sent)

    def answer_nacks(self):
        while self.nacks:
            reply = KnowledgeUpdate("P1", d_events=[], s_ranges=[], l_ranges=[])
            for iv in self.nacks.pop(0):
                reply.d_events.extend(self.events[t] for t in range(iv.start, iv.end + 1))
            self.catchup.on_knowledge(reply)


class TestRateEstimate:
    def test_no_checkpoint_on_an_epoch_ms_clock(self):
        """rt ticks are epoch milliseconds; a subscriber that never
        received anything reads from tick 0.  The 1.8e12 ticks before
        the log's first record are not part of the density."""
        epoch = 1_790_000_000_000
        ticks = [epoch + 10 * i for i in range(1, 201)]  # 100 events/s for 2 s
        env = PacedEnv(ticks)
        env.start_catchup(0)
        assert 50.0 <= env.catchup._rate_eps <= 200.0
        deadline = env.sim.now + 5_000  # paced: (200 - burst) / 190 per s ~ 1 s
        while not env.switched and env.sim.now < deadline:
            env.sim.run_until(env.sim.now + 10)
            env.answer_nacks()
        assert env.switched, f"stalled after {env.catchup.events_delivered} of 200 events"
        assert env.catchup.events_delivered == 200

    def test_density_ignores_the_chopped_span(self):
        ticks = [1_000 + 10 * i for i in range(100)]  # 100 events/s for 1 s
        env = PacedEnv(ticks)
        env.pfs.chop_below("P1", 1_500)
        env.start_catchup(10)
        # 50 surviving Q ticks over the 490 ticks the log still holds,
        # not over the 1980 the read spans.
        assert env.catchup._rate_eps == pytest.approx(100.0, rel=0.05)


class TestReadStopsAtTheCursor:
    def test_recovered_pfs_ahead_of_the_committed_cursor(self):
        """After an SHB restart the PFS holds records above the
        committed latestDelivered.  A nack for such a tick is answered
        into the constream, never into the catchup stream, so the
        stream must not ask for them until the cursor has passed."""
        ticks = [1_000 + 10 * i for i in range(40)]
        env = PacedEnv(ticks)
        env.restart_constream(1_195)  # the PFS reaches 1390
        stream = env.start_catchup(990)
        assert stream.target == 1_195
        for _ in range(100):
            env.sim.run_until(env.sim.now + 10)
            assert all(r.max() <= 1_195 for r in env.nacks)
            env.answer_nacks()
        assert stream.cursor == 1_195 and stream.events_delivered == 20
        # A stream still catching up when the constream re-delivers the
        # tail reads the PFS again and finishes what it owes.
        env.switched.clear()
        stream = env.start_catchup(990)
        env.hear(ticks[20:])
        assert stream.target == 1_390
        while not env.switched and env.sim.now < 5_000:
            env.sim.run_until(env.sim.now + 10)
            env.answer_nacks()
        assert env.switched and stream.events_delivered == 40


class TestTokenBucketResume:
    def test_starved_stream_resumes_when_it_can_next_make_progress(self):
        # One old record, then 21 ticks at 100 events/s above the checkpoint.
        ticks = [500] + [1_000 + 10 * i for i in range(21)]
        env = PacedEnv(ticks)
        stream = env.start_catchup(990)
        rate = 1.9 * stream._rate_eps
        assert rate == pytest.approx(190.0)  # 21 Q ticks over (990, 1200]
        # The burst went out at once; five ticks wait on an empty bucket
        # and nothing but the bucket's own timer will wake the stream.
        assert len(stream._unrequested) == 5 and stream._tokens < 1.0
        five_tokens_ms = 5 * 1000.0 / rate
        env.sim.run_until(five_tokens_ms + 0.001)
        assert len(stream._unrequested) < 5, "not resumed within 5/rate"
        env.sim.run_until(five_tokens_ms + 2 * 1000.0 / rate)
        assert not stream._unrequested
        # ...long before the window-sized wait (240/rate ~ 1.26 s).
        assert env.sim.now < 100.0

    def test_tokens_are_taken_only_for_ticks_actually_requested(self):
        ticks = [1_000 + 50 * i for i in range(6)]  # 20 events/s
        env = PacedEnv(ticks)
        stream = env.start_catchup(900)
        assert not stream._unrequested  # all six fit in the burst
        assert stream._tokens == pytest.approx(stream._burst - 6)
