"""Tests for subscription soft-state resync after broker crashes.

Upstream subscription unions are volatile: a recovered PHB or
intermediate must pass knowledge *unfiltered* (cold) until its children
re-sync, so no event matching a still-registered durable subscription
is ever silently filtered to silence.
"""

from repro import (
    DurableSubscriber,
    Eq,
    Node,
    PeriodicPublisher,
    Scheduler,
    build_chain,
    build_two_broker,
)


class TestColdFilters:
    def test_phb_recovery_marks_children_cold(self):
        sim = Scheduler()
        overlay = build_two_broker(sim, ["P1"])
        assert overlay.phb.child_filter_ready == {"shb1": True}
        overlay.phb.fail_for(100)
        sim.run_until(200)
        assert overlay.phb.child_filter_ready == {"shb1": False}
        # The SHB's periodic refresh re-warms it.
        sim.run_until(5_000)
        assert overlay.phb.child_filter_ready == {"shb1": True}

    def test_recovery_empties_unions_and_rewarms_through_the_full_set(self):
        # A restart loses the unions, so the child's digest cannot
        # match: the PHB asks for the full set and warms from it.
        sim = Scheduler()
        overlay = build_two_broker(sim, ["P1"])
        shb = overlay.shbs[0]
        sub = DurableSubscriber(sim, "s1", Node(sim, "c"), Eq("group", 1))
        sub.connect(shb)
        sim.run_until(100)
        assert Eq("group", 1) in overlay.phb.child_engines["shb1"]
        overlay.phb.fail_for(100)
        sim.run_until(300)
        assert len(overlay.phb.child_engines["shb1"]) == 0
        asked = []
        answer = shb._on_subscription_resend
        shb._on_subscription_resend = lambda msg: (asked.append(msg), answer(msg))
        sim.run_until(5_000)
        assert len(asked) == 1
        assert overlay.phb.child_filter_ready["shb1"] is True
        assert Eq("group", 1) in overlay.phb.child_engines["shb1"]

    def test_events_in_cold_window_not_lost(self):
        """Events published after PHB recovery but before the filter
        resync must reach matching subscribers (unfiltered pass)."""
        sim = Scheduler()
        overlay = build_two_broker(sim, ["P1"])
        shb = overlay.shbs[0]
        sub = DurableSubscriber(sim, "s1", Node(sim, "c"), Eq("group", 1),
                                record_events=True)
        sub.connect(shb)
        pub = PeriodicPublisher(sim, overlay.phb, "P1", 100,
                                attribute_fn=lambda i: {"group": i % 4})
        pub.start()
        sim.run_until(3_000)
        overlay.phb.fail_for(500)
        sim.run_until(20_000)
        pub.stop()
        sim.run_until(25_000)
        # Everything the PHB durably accepted and that matches s1 must
        # have been delivered; no silent filtering losses.
        accepted = overlay.phb.pubends["P1"].events_published
        # Groups cycle 0..3 deterministically, but the crash drops some
        # publishes; count matching events from the subscriber itself
        # versus its order/gap counters instead.
        assert sub.stats.order_violations == 0
        assert sub.stats.gaps == 0
        assert sub.duplicate_events == 0
        # The subscriber saw roughly a quarter of accepted events; exact
        # equality requires replaying which publishes were dropped, so
        # assert the strong invariant via a second wildcard subscriber.

    def test_cold_window_strong_invariant_with_witness(self):
        """A witness subscriber (Everything) receives every accepted
        event; every group-1 event it saw must also reach the group-1
        subscriber — even those published during the cold window."""
        from repro.matching.predicates import Everything
        sim = Scheduler()
        overlay = build_two_broker(sim, ["P1"])
        shb = overlay.shbs[0]
        witness = DurableSubscriber(sim, "witness", Node(sim, "c1"),
                                    Everything(), record_events=True)
        target = DurableSubscriber(sim, "target", Node(sim, "c2"),
                                   Eq("group", 1), record_events=True)
        witness.connect(shb)
        target.connect(shb)
        pub = PeriodicPublisher(sim, overlay.phb, "P1", 100,
                                attribute_fn=lambda i: {"group": i % 4})
        pub.start()
        sim.run_until(3_000)
        overlay.phb.fail_for(500)
        sim.run_until(20_000)
        pub.stop()
        sim.run_until(25_000)
        # The group isn't recoverable from an event id, so compare
        # counts: exactly every 4th accepted event matches group 1.
        target_ts = {int(e.split(":")[1]) for e in target.received_event_ids}
        assert target.stats.gaps == 0
        assert target.duplicate_events == 0
        # The witness count is 4x the target count (+/- boundary).
        assert abs(len(witness.received_event_ids) - 4 * len(target_ts)) <= 4

    def test_intermediate_recovery_cold_pass(self):
        sim = Scheduler()
        overlay = build_chain(sim, ["P1"], n_intermediates=1)
        shb = overlay.shbs[0]
        mid = overlay.intermediates[0]
        sub = DurableSubscriber(sim, "s1", Node(sim, "c"), Eq("group", 1),
                                record_events=True)
        sub.connect(shb)
        pub = PeriodicPublisher(sim, overlay.phb, "P1", 100,
                                attribute_fn=lambda i: {"group": i % 4})
        pub.start()
        sim.run_until(3_000)
        mid.fail_for(400)
        sim.run_until(20_000)
        pub.stop()
        sim.run_until(25_000)
        assert sub.stats.order_violations == 0
        assert sub.stats.gaps == 0
        assert sub.duplicate_events == 0
        assert sub.stats.events == pub.published // 4

    def test_sync_message_rewarns_filtering(self):
        """After resync the PHB filters again (traffic efficiency)."""
        sim = Scheduler()
        overlay = build_two_broker(sim, ["P1"])
        shb = overlay.shbs[0]
        sub = DurableSubscriber(sim, "s1", Node(sim, "c"), Eq("group", 99))
        sub.connect(shb)
        pub = PeriodicPublisher(sim, overlay.phb, "P1", 100,
                                attribute_fn=lambda i: {"group": i % 4})
        pub.start()
        overlay.phb.fail_for(200)
        sim.run_until(6_000)   # refresh happened; PHB warm again
        assert overlay.phb.child_filter_ready["shb1"] is True
        # All events filtered to silence at the PHB: the link carries
        # no D events once warm (sample the link counters indirectly
        # via the subscriber having received nothing).
        assert sub.stats.events == 0
