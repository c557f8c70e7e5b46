"""Integration tests: exactly-once delivery under broker failures.

These drive full overlays (PHB + SHB + clients) through crash/recovery
schedules and verify the end-to-end guarantee: every subscriber
receives every matching event exactly once, in per-pubend timestamp
order, with no gaps (early release is disabled here, as in the paper's
experiments).
"""

from collections import Counter

import pytest

from repro import (
    DurableSubscriber,
    FailureSchedule,
    In,
    Node,
    PeriodicPublisher,
    Scheduler,
    build_chain,
    build_two_broker,
)


def build(sim, pubends=("P1",), intermediates=0, **shb_kwargs):
    if intermediates:
        return build_chain(sim, list(pubends), n_intermediates=intermediates, **shb_kwargs)
    return build_two_broker(sim, list(pubends), **shb_kwargs)


def make_world(sim, overlay, n_subs=4, rate=200):
    machine = Node(sim, "clients")
    subs = []
    for i in range(n_subs):
        sub = DurableSubscriber(
            sim, f"s{i}", machine, In("group", [i % 2, 2 + i % 2]), record_events=True
        )
        sub.connect(overlay.shbs[0])
        subs.append(sub)
    pub = PeriodicPublisher(sim, overlay.phb, "P1", rate,
                            attribute_fn=lambda i: {"group": i % 4})
    pub.start()
    return subs, pub


def assert_exactly_once(subs, pub, matches_per_event=2):
    counts = Counter()
    for sub in subs:
        assert sub.stats.order_violations == 0
        assert sub.duplicate_events == 0
        assert sub.stats.gaps == 0
        for event_id in sub.received_event_ids:
            counts[event_id] += 1
    assert len(counts) == pub.published
    assert all(c == matches_per_event for c in counts.values())


class TestSHBFailure:
    @pytest.mark.parametrize("crash_at,down", [
        (5_000, 3_000),
        (5_130, 2_511),
        (5_001, 100),
        (3_333, 7_777),
    ])
    def test_shb_crash_recovery_exactly_once(self, crash_at, down):
        sim = Scheduler()
        overlay = build(sim)
        shb = overlay.shbs[0]
        subs, pub = make_world(sim, overlay)
        faults = FailureSchedule(sim)
        faults.crash_broker(shb, crash_at, down)
        sim.run_until(crash_at + down + 500)
        for sub in subs:
            if not sub.connected:
                sub.connect(shb)
        sim.run_until(crash_at + down + 12_000)
        pub.stop()
        sim.run_until(crash_at + down + 17_000)
        # Exactly the scheduled fault happened, inside the crash window.
        window = faults.records_between(crash_at, crash_at + down)
        assert [(r.kind, r.target, r.at_ms) for r in window] == [
            ("crash", shb.name, crash_at)
        ]
        assert faults.records_between(0, crash_at - 1) == []
        assert_exactly_once(subs, pub)

    def test_repeated_shb_crashes(self):
        sim = Scheduler()
        overlay = build(sim)
        shb = overlay.shbs[0]
        subs, pub = make_world(sim, overlay)
        faults = FailureSchedule(sim)
        faults.repeated_crashes(shb, first_at_ms=3_000, down_ms=1_000,
                                period_ms=6_000, count=3)
        t = 3_000
        for _ in range(3):
            sim.run_until(t + 1_500)
            for sub in subs:
                if not sub.connected:
                    sub.connect(shb)
            t += 6_000
        sim.run_until(t + 5_000)
        pub.stop()
        sim.run_until(t + 10_000)
        # One crash per cycle; records_between slices the cycles apart.
        assert len(faults.records_between(0, t)) == 3
        for k in range(3):
            cycle = faults.records_between(3_000 + k * 6_000, 3_000 + k * 6_000 + 5_999)
            assert len(cycle) == 1 and cycle[0].at_ms == 3_000 + k * 6_000
        assert_exactly_once(subs, pub)

    def test_mass_catchup_after_recovery(self):
        """All subscribers reconnect at once (the Section 5.3 scenario)."""
        sim = Scheduler()
        overlay = build(sim)
        shb = overlay.shbs[0]
        subs, pub = make_world(sim, overlay, n_subs=8)
        faults = FailureSchedule(sim)
        faults.crash_broker(shb, 5_000, 4_000)
        sim.run_until(12_000)  # constream recovers first
        for sub in subs:
            sub.connect(shb)
        sim.run_until(25_000)
        pub.stop()
        sim.run_until(30_000)
        assert [r.target for r in faults.records_between(5_000, 9_000)] == [shb.name]
        assert_exactly_once(subs, pub, matches_per_event=4)
        # 8 subscribers x 1 pubend catchups completed after the recovery
        # (before it, each first connect refiltered up to its
        # registration's confirmation).
        assert len([end for end, _ in shb.catchup_durations_ms if end > 12_000]) == 8


class TestPHBFailure:
    def test_phb_crash_loses_only_unlogged_events(self):
        """Events staged but unsynced at the PHB die with it (publishers
        would retransmit in a full deployment); everything logged is
        delivered exactly once."""
        sim = Scheduler()
        overlay = build(sim)
        subs, pub = make_world(sim, overlay)
        sim.run_until(5_000)
        overlay.phb.fail_for(2_000)
        sim.run_until(20_000)
        pub.stop()
        sim.run_until(25_000)
        lost = overlay.phb.pubends["P1"].events_lost_in_crash
        published_down = sum(
            1 for _ in range(1)
        )
        counts = Counter()
        for sub in subs:
            assert sub.stats.order_violations == 0
            assert sub.duplicate_events == 0
            for event_id in sub.received_event_ids:
                counts[event_id] += 1
        # Each delivered event delivered exactly twice (2 matching subs);
        # no partial deliveries.
        assert all(c == 2 for c in counts.values())
        # Everything the PHB durably accepted was delivered.
        accepted = overlay.phb.pubends["P1"].events_published
        assert len(counts) == accepted

    def test_intermediate_broker_crash(self):
        sim = Scheduler()
        overlay = build(sim, intermediates=1)
        subs, pub = make_world(sim, overlay)
        sim.run_until(5_000)
        overlay.intermediates[0].fail_for(2_000)
        sim.run_until(20_000)
        pub.stop()
        sim.run_until(26_000)
        assert_exactly_once(subs, pub)


class TestClientChurnDuringFailures:
    def test_subscriber_disconnected_across_shb_crash(self):
        sim = Scheduler()
        overlay = build(sim)
        shb = overlay.shbs[0]
        subs, pub = make_world(sim, overlay)
        victim = subs[0]
        sim.run_until(3_000)
        victim.disconnect()
        sim.run_until(4_000)
        shb.fail_for(2_000)
        sim.run_until(7_000)
        for sub in subs:
            if not sub.connected:
                sub.connect(shb)
        sim.run_until(20_000)
        pub.stop()
        sim.run_until(25_000)
        assert_exactly_once(subs, pub)

    def test_churn_while_shb_crashes(self):
        sim = Scheduler()
        overlay = build(sim)
        shb = overlay.shbs[0]
        subs, pub = make_world(sim, overlay, n_subs=6)
        # Staggered disconnect/reconnects crossing a crash window.
        for i, sub in enumerate(subs):
            sim.after(2_000 + 400 * i, sub.disconnect)

        def reconnect(s):
            if not s.connected and not shb.node.is_down:
                s.connect(shb)

        for i, sub in enumerate(subs):
            sim.after(6_500 + 300 * i, reconnect, sub)
            sim.after(12_000 + 100 * i, reconnect, sub)
        sim.after(4_000, lambda: shb.fail_for(3_000))
        sim.run_until(20_000)
        pub.stop()
        sim.run_until(26_000)
        for sub in subs:
            if not sub.connected:
                sub.connect(shb)
        sim.run_until(32_000)
        assert_exactly_once(subs, pub, matches_per_event=3)
