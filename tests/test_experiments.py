"""Smoke tests for the experiment harness (small configurations).

The full paper-scale runs live in ``benchmarks/``; these verify the
harness mechanics and the *qualitative* shapes on scaled-down inputs.
Every run is judged: its verdict must be clean.
"""

import pytest

from repro.broker.shb import SubscriberHostingBroker
from repro.core import messages as M
from repro.sim.experiments import (
    drive_scalability,
    prepare_scalability,
    run_jms_autoack,
    run_latency,
    run_latency_trace,
    run_message_amplification,
    run_shb_failure,
    run_stream_rates,
)
from repro.workloads.generator import PaperWorkloadSpec

SMALL = PaperWorkloadSpec(input_rate=200.0)


class TestScalabilityHarness:
    def test_no_churn_achieves_offered_rate(self):
        result = drive_scalability(prepare_scalability(
            n_shbs=1, subs_per_shb=8, duration_ms=8_000, warmup_ms=2_000, spec=SMALL
        ))
        assert result.violations == []
        assert result.subscribers == 8
        assert result.offered_rate == pytest.approx(8 * 50.0)
        assert result.efficiency > 0.97
        assert 0.0 <= result.phb_idle <= 1.0

    def test_two_shbs_double_aggregate(self):
        one = drive_scalability(
            prepare_scalability(1, 8, duration_ms=6_000, warmup_ms=2_000, spec=SMALL)
        )
        two = drive_scalability(
            prepare_scalability(2, 8, duration_ms=6_000, warmup_ms=2_000, spec=SMALL)
        )
        assert one.violations == [] and two.violations == []
        assert two.achieved_rate == pytest.approx(2 * one.achieved_rate, rel=0.1)

    def test_churn_reduces_rate_but_catchups_complete(self):
        result = drive_scalability(prepare_scalability(
            n_shbs=1, subs_per_shb=8, churn=True, duration_ms=10_000,
            warmup_ms=2_000, spec=SMALL,
            churn_period_ms=5_000, churn_down_ms=500,
        ))
        assert result.violations == []
        assert result.disconnects > 0
        assert result.catchup_count > 0
        assert 0.80 < result.efficiency <= 1.01

    def test_single_broker_variant(self):
        result = drive_scalability(prepare_scalability(
            n_shbs=1, subs_per_shb=8, duration_ms=6_000, warmup_ms=2_000,
            spec=SMALL, single_broker=True,
        ))
        assert result.violations == []
        assert result.single_broker
        assert result.efficiency > 0.97


class TestLatencyHarness:
    def test_latency_dominated_by_phb_logging(self):
        result = run_latency(n_intermediates=3, rate_per_s=40, duration_ms=10_000)
        assert result.violations == []
        assert result.hops == 5
        assert result.samples > 300
        # Logging is the dominant component (44 of 50 ms in the paper).
        assert result.logging_mean_ms > 0.7 * result.mean_ms
        assert result.mean_ms < 80.0

    def test_more_hops_add_latency(self):
        short = run_latency(n_intermediates=0, rate_per_s=40, duration_ms=8_000)
        long = run_latency(n_intermediates=3, rate_per_s=40, duration_ms=8_000)
        assert short.violations == [] and long.violations == []
        assert long.mean_ms > short.mean_ms


class TestStreamRatesHarness:
    def test_latest_delivered_tracks_real_time(self):
        result = run_stream_rates(duration_ms=15_000, subs=4,
                                  churn_period_ms=6_000, churn_down_ms=400,
                                  spec=SMALL)
        assert result.violations == []
        vals = result.latest_delivered_rate.values()[3:]
        assert sum(vals) / len(vals) == pytest.approx(1_000.0, rel=0.05)
        # Released stalls during disconnections: min well below the mean.
        rel_vals = result.released_rate.values()[3:]
        assert min(rel_vals) < 800.0
        assert result.catchup_durations_ms


class TestFailureHarness:
    def test_shb_failure_run_is_exactly_once(self):
        result = run_shb_failure(
            crash_at_ms=5_000, down_ms=4_000, n_subs=4, total_ms=40_000,
            spec=SMALL,
        )
        assert result.violations == []
        assert result.catchup_durations_ms
        # Constream recovery is faster than real time (the 5x slope of
        # Figure 7, bounded by the nack pacing).
        assert result.recovery_slope > 1.5 * result.normal_slope


class TestJMSHarness:
    def test_consumption_bounded_by_commits(self):
        result = run_jms_autoack(5, input_rate=400, duration_ms=6_000)
        assert result.violations == []
        assert result.subscribers == 5
        assert 0 < result.consumed_rate <= result.offered_rate * 1.05
        assert result.commits_per_s > 0

    def test_more_subscribers_more_throughput_sublinear(self):
        small = run_jms_autoack(4, input_rate=400, duration_ms=6_000)
        big = run_jms_autoack(16, input_rate=400, duration_ms=6_000)
        assert small.violations == [] and big.violations == []
        assert big.consumed_rate > small.consumed_rate
        assert big.consumed_rate < 4 * small.consumed_rate


#: Every paper driver, each at a small size.
PAPER_DRIVERS = {
    "scalability": lambda: drive_scalability(prepare_scalability(
        1, 8, churn=True, duration_ms=3_000, warmup_ms=1_000, spec=SMALL,
        churn_period_ms=2_000, churn_down_ms=300,
    )),
    "latency": lambda: run_latency(n_intermediates=3, rate_per_s=40, duration_ms=2_000),
    "latency_trace": lambda: run_latency_trace(
        rate_per_s=40.0, duration_ms=3_000.0, disconnect_at_ms=1_000.0,
        reconnect_at_ms=2_000.0,
    ),
    "stream_rates": lambda: run_stream_rates(
        duration_ms=4_000, subs=4, churn_period_ms=2_000, churn_down_ms=300, spec=SMALL,
    ),
    "shb_failure": lambda: run_shb_failure(
        crash_at_ms=2_000, down_ms=2_000, n_subs=4, total_ms=8_000, spec=SMALL,
    ),
    "jms_autoack": lambda: run_jms_autoack(
        4, input_rate=200, duration_ms=1_000, warmup_ms=1_000
    ),
    "amplification": lambda: run_message_amplification(
        0.0, n_subs=4, duration_ms=2_000, spec=PaperWorkloadSpec(input_rate=200.0, groups_per_sub=4),
    ),
    # Batched constream fan-out sends through the same _do_send.
    "amplification_batched": lambda: run_message_amplification(
        10.0, n_subs=4, duration_ms=2_000, spec=PaperWorkloadSpec(input_rate=200.0, groups_per_sub=4),
    ),
}


@pytest.mark.parametrize("driver", sorted(PAPER_DRIVERS))
def test_a_planted_duplicate_fails_every_paper_driver(monkeypatch, driver):
    """The judge is wired into every driver: one event sent twice to a
    live session must show in ``violations``."""
    planted = []
    original = SubscriberHostingBroker._do_send

    def do_send(self, sub_id, chan, msgs, *rest):
        original(self, sub_id, chan, msgs, *rest)
        events = [m for m in msgs if isinstance(m, M.EventMessage)]
        if (not planted and events
                and chan is not None and self._sessions.get(sub_id) is chan):
            planted.append(events[0])
            chan.send(events[0])

    monkeypatch.setattr(SubscriberHostingBroker, "_do_send", do_send)
    result = PAPER_DRIVERS[driver]()
    assert planted
    assert any("duplicate" in v for v in result.violations), result.violations
