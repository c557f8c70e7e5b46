"""Tests for the paper-workload generators and churn schedules."""

import pytest

from repro import Scheduler, build_two_broker
from repro.sim.scenario import make_subscribers
from repro.workloads.generator import ChurnSchedule, PaperWorkloadSpec, make_publishers


class TestSpec:
    def test_paper_defaults(self):
        spec = PaperWorkloadSpec()
        assert spec.input_rate == 800.0
        assert spec.per_pubend_rate == 200.0
        assert spec.per_subscriber_rate == 200.0
        assert spec.pubend_names() == ["P1", "P2", "P3", "P4"]

    def test_per_subscriber_rate_scales_with_groups(self):
        spec = PaperWorkloadSpec(groups_per_sub=2)
        assert spec.per_subscriber_rate == 400.0

    def test_predicates_cycle_groups(self):
        spec = PaperWorkloadSpec()
        preds = [spec.subscriber_predicate(i) for i in range(8)]
        # Round-robin: subscriber i and i+4 share a group.
        assert preds[0] == preds[4]
        assert preds[0] != preds[1]


class TestGenerators:
    def test_publishers_hit_aggregate_rate(self):
        spec = PaperWorkloadSpec(input_rate=400.0)
        sim = Scheduler()
        overlay = build_two_broker(sim, spec.pubend_names())
        pubs = make_publishers(sim, overlay.phb, spec)
        assert len(pubs) == 4
        sim.run_until(5_000)
        total = sum(p.published for p in pubs)
        assert total == pytest.approx(400 * 5, rel=0.02)

    def test_subscribers_receive_expected_share(self):
        spec = PaperWorkloadSpec(input_rate=200.0)
        sim = Scheduler()
        overlay = build_two_broker(sim, spec.pubend_names())
        make_publishers(sim, overlay.phb, spec)
        subs = make_subscribers(sim, overlay.shbs, spec, subs_per_shb=4)
        sim.run_until(10_000)
        for sub in subs:
            # 1/4 of 200 ev/s = 50 ev/s each; allow pipeline slack.
            assert sub.stats.events == pytest.approx(500, rel=0.1)

    def test_subscribers_spread_over_machines(self):
        spec = PaperWorkloadSpec()
        sim = Scheduler()
        overlay = build_two_broker(sim, spec.pubend_names())
        subs = make_subscribers(sim, overlay.shbs, spec, subs_per_shb=20,
                                subs_per_machine=8)
        machines = {sub.node.name for sub in subs}
        assert len(machines) == 3  # ceil(20 / 8)

    def test_make_subscribers_without_connect(self):
        spec = PaperWorkloadSpec()
        sim = Scheduler()
        overlay = build_two_broker(sim, spec.pubend_names())
        subs = make_subscribers(sim, overlay.shbs, spec, subs_per_shb=2, connect=False)
        assert all(not s.connected for s in subs)


class TestChurn:
    def test_disconnects_and_reconnects_happen(self):
        spec = PaperWorkloadSpec(input_rate=200.0)
        sim = Scheduler()
        overlay = build_two_broker(sim, spec.pubend_names())
        make_publishers(sim, overlay.phb, spec)
        subs = make_subscribers(sim, overlay.shbs, spec, subs_per_shb=4)
        schedule = ChurnSchedule(
            sim, subs, shb_of=lambda s: overlay.shbs[0],
            period_ms=3_000, down_ms=300, start_after_ms=500,
        )
        sim.run_until(10_000)
        assert schedule.disconnects >= 8
        assert schedule.reconnects >= 8
        # Exactly-once still holds under the schedule.
        for sub in subs:
            assert sub.stats.order_violations == 0
            assert sub.stats.gaps == 0

    def test_stop_halts_churn(self):
        spec = PaperWorkloadSpec(input_rate=200.0)
        sim = Scheduler()
        overlay = build_two_broker(sim, spec.pubend_names())
        subs = make_subscribers(sim, overlay.shbs, spec, subs_per_shb=2)
        schedule = ChurnSchedule(
            sim, subs, shb_of=lambda s: overlay.shbs[0],
            period_ms=2_000, down_ms=200, start_after_ms=100,
        )
        schedule.stop()
        sim.run_until(5_000)
        assert schedule.disconnects == 0
