"""Tests for the subscriber hosting broker, driven through real overlays."""

import pytest

from repro import (
    DurableSubscriber,
    Eq,
    Everything,
    In,
    Node,
    PeriodicPublisher,
    Scheduler,
    build_two_broker,
)
from repro.broker.base import SUBSCRIPTION_REFRESH_MS
from repro.core import messages as M


@pytest.fixture
def env():
    sim = Scheduler()
    overlay = build_two_broker(sim, pubends=["P1", "P2"])
    machine = Node(sim, "client")
    return sim, overlay, machine


def make_sub(sim, machine, sub_id, predicate, **kw):
    return DurableSubscriber(sim, sub_id, machine, predicate, **kw)


def start_pub(sim, phb, pubend="P1", rate=100, group_mod=4):
    pub = PeriodicPublisher(sim, phb, pubend, rate,
                            attribute_fn=lambda i: {"group": i % group_mod})
    pub.start()
    return pub


class TestConnect:
    def test_first_connect_requires_predicate(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", Everything())
        sub.predicate = None
        with pytest.raises(Exception):
            sub.connect(shb)
            sim.run_until(10)

    def test_new_subscriber_is_non_catchup(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", Everything())
        sub.connect(shb)
        # Served once its registration is confirmed, it refilters up to
        # the confirmation tick, then joins the constream.
        sim.run_until(100)
        assert shb.active_catchup_count == 0
        assert not shb.in_catchup("s1", "P1")
        assert shb.connected_count == 1

    def test_initial_ct_at_delivery_cursor(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        start_pub(sim, overlay.phb)
        sim.run_until(2_000)
        sub = make_sub(sim, machine, "s1", Everything())
        sub.connect(shb)
        sim.run_until(2_050)
        # The assigned CT is near the cursor: no historical delivery.
        assert sub.ct.get("P1") >= 1_500
        assert sub.stats.events <= 10

    def test_subscription_registered_durably(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", Eq("group", 1))
        sub.connect(shb)
        sim.run_until(300)  # past a commit interval
        assert "s1" in shb.registry
        assert shb.registry.get("s1").predicate == Eq("group", 1)

    def test_filter_propagated_upstream(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", Eq("group", 1))
        sub.connect(shb)
        sim.run_until(10)
        assert Eq("group", 1) in overlay.phb.child_engines[shb.name]

    def test_unsubscribe_removes_everything(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", Eq("group", 1))
        sub.connect(shb)
        sim.run_until(10)
        shb.unsubscribe("s1")
        sim.run_until(20)
        assert "s1" not in shb.registry
        assert Eq("group", 1) not in shb.distinct
        # Nothing is sent upstream: the parent's copy narrows at the
        # next refresh, whose digest no longer matches.
        union = overlay.phb.child_engines[shb.name]
        assert Eq("group", 1) in union
        sim.run_until(SUBSCRIPTION_REFRESH_MS + 20)
        assert Eq("group", 1) not in union
        assert overlay.phb.child_filter_ready[shb.name] is True


class TestDeliveryAndAcks:
    def test_exactly_once_steady_state(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", In("group", [0, 1]), record_events=True)
        sub.connect(shb)
        pub = start_pub(sim, overlay.phb, rate=100)
        sim.run_until(5_000)
        pub.stop()
        sim.run_until(6_000)
        assert sub.stats.events == pub.published // 2
        assert sub.duplicate_events == 0
        assert sub.stats.order_violations == 0

    def test_acks_advance_released(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", Everything())
        sub.connect(shb)
        start_pub(sim, overlay.phb)
        sim.run_until(3_000)
        assert shb.released("P1") > 1_000
        assert shb.registry.get("s1").released_for("P1") > 1_000

    def test_release_trims_phb_log_and_pfs(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", Everything())
        sub.connect(shb)
        start_pub(sim, overlay.phb)
        sim.run_until(5_000)
        pubend = overlay.phb.pubends["P1"]
        # Acked prefix released: log retains only the recent window.
        assert pubend.lost_below > 3_000
        assert pubend.log.live_event_count < 300
        state = shb.pfs._pubends["P1"]
        assert state.chopped_from_ts > 3_000

    def test_two_pubends_deliver_independently(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", Everything(), record_events=True)
        sub.connect(shb)
        p1 = start_pub(sim, overlay.phb, "P1", rate=50)
        p2 = start_pub(sim, overlay.phb, "P2", rate=20)
        sim.run_until(4_000)
        p1.stop(); p2.stop()
        sim.run_until(5_000)
        assert sub.stats.events == p1.published + p2.published
        assert sub.stats.last_event_ts.keys() == {"P1", "P2"}


class TestDisconnectReconnect:
    def test_disconnect_enters_catchup_state(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", Everything())
        sub.connect(shb)
        start_pub(sim, overlay.phb)
        sim.run_until(1_000)
        sub.disconnect()
        sim.run_until(1_010)
        assert shb.in_catchup("s1", "P1")  # disconnected => catchup
        assert shb.connected_count == 0

    def test_reconnect_recovers_missed_events(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", Everything(), record_events=True)
        sub.connect(shb)
        pub = start_pub(sim, overlay.phb)
        sim.run_until(2_000)
        sub.disconnect()
        sim.run_until(4_000)
        sub.connect(shb)
        sim.run_until(8_000)
        pub.stop()
        sim.run_until(9_000)
        assert sub.stats.events == pub.published
        assert sub.duplicate_events == 0
        # One catchup stream per pubend (the overlay has P1 and P2) for
        # the reconnect, after one per pubend for the first connect's
        # refilter span up to its registration's confirmation.
        assert len([end for end, _ in shb.catchup_durations_ms if end > 4_000]) == 2

    def test_client_crash_reconnect_with_stale_ct_duplicates_filtered(self, env):
        """A client that loses recent CT state re-receives only what it
        had not committed (commit_every > 1)."""
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", Everything(), record_events=True,
                       commit_every=50)
        sub.connect(shb)
        pub = start_pub(sim, overlay.phb)
        sim.run_until(2_000)
        sub.crash()  # rolls CT back to last committed snapshot
        before = sub.stats.events
        sim.run_until(3_000)
        sub.connect(shb)
        sim.run_until(6_000)
        pub.stop()
        sim.run_until(7_000)
        # Everything delivered; duplicates only for the uncommitted tail.
        assert len(sub.received_event_id_set) == pub.published
        assert sub.duplicate_events <= 50

    def test_graceful_disconnect_is_clean(self, env):
        sim, overlay, machine = env
        shb = overlay.shbs[0]
        sub = make_sub(sim, machine, "s1", Everything())
        sub.connect(shb)
        sim.run_until(100)
        sub.disconnect()
        sim.run_until(200)
        sub.connect(shb)
        sim.run_until(300)
        assert sub.connected
        assert shb.connected_count == 1
