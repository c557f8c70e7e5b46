"""Figure 4: peak event rate vs number of SHBs, with and without churn.

Paper: *"It scales almost linearly from 20K events/s for 1 SHB to
79.2K events/s for 4 SHBs [no churn] ... from 17.6K events/s to 69.6K
events/s (an increase from 88 subscribers to 348 subscribers) [with
churn] ... The CPU idle time at the PHB decreases slightly from 69% to
59% when going from 1 SHB to 4 SHBs."* The 1-broker network is run to
show its capacity matches the 1-SHB network.

Workload: 800 ev/s input over 4 pubends, 200 ev/s per subscriber; with
churn each subscriber periodically disconnects (time-compressed by
default, same down/period ratio as the paper's 5s/300s).
"""

import time

import pytest
from conftest import full_scale, write_result

from repro.metrics.report import format_table
from repro.sim.experiments import drive_scalability, prepare_scalability

# Paper subscriber counts: 100/SHB without churn, 87/SHB (348/4) with.
NO_CHURN_SUBS = 100
CHURN_SUBS = 87
PAPER_NO_CHURN = {1: 20_000, 2: 40_000, 4: 79_200}
PAPER_CHURN = {1: 17_600, 2: 35_000, 4: 69_600}

_results = {}


def measure_scalability_metrics() -> dict:
    """End-to-end simulator throughput, gated by check_baseline.py.

    Runs the 1-SHB no-churn scenario at smoke duration and reports
    delivered *simulated* events per *wall-clock* second — the "how
    fast can the host push the whole pipeline" figure that the
    batch-matching and kernel-overhead work moves.  The simulated-side
    numbers (efficiency) are deterministic; the wall-clock rate swings
    with host load, so check_baseline holds it loosely.
    """
    duration_ms, warmup_ms = 10_000.0, 2_000.0
    # Workload construction (brokers, links, 100 clients) stays outside
    # the timed region: the metric is simulator throughput, not setup.
    setup = prepare_scalability(
        n_shbs=1,
        subs_per_shb=NO_CHURN_SUBS,
        churn=False,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
    )
    start = time.perf_counter()
    result = drive_scalability(setup)
    wall_s = time.perf_counter() - start
    assert not result.violations, result.violations
    delivered = result.achieved_rate * (duration_ms - warmup_ms) / 1000.0
    return {
        "scalability_sim_events_per_wall_s": round(delivered / wall_s, 0),
        "scalability_efficiency_smoke": round(result.efficiency, 4),
    }


def _drive(benchmark, n_shbs, churn, **kwargs):
    """One judged Figure-4 run.  pedantic's setup hook keeps workload
    construction untimed; the benchmarked callable is the drive alone."""
    full = full_scale()
    result = benchmark.pedantic(
        drive_scalability,
        setup=lambda: ((prepare_scalability(
            n_shbs,
            CHURN_SUBS if churn else NO_CHURN_SUBS,
            churn=churn,
            duration_ms=60_000.0 if full else 14_000.0,
            warmup_ms=4_000.0,
            churn_period_ms=300_000.0 if full else 60_000.0,
            churn_down_ms=5_000.0 if full else 1_000.0,
            **kwargs,
        ),), {}),
        rounds=1, iterations=1,
    )
    assert not result.violations, result.violations
    return result


@pytest.mark.parametrize("n_shbs", [1, 2, 4])
def test_scalability_no_churn(benchmark, n_shbs):
    result = _results[("no_churn", n_shbs)] = _drive(benchmark, n_shbs, churn=False)
    assert result.efficiency > 0.95
    # Linear scaling: each SHB adds its full share.
    assert result.achieved_rate == pytest.approx(
        n_shbs * 200.0 * NO_CHURN_SUBS, rel=0.05
    )
    _maybe_report()


@pytest.mark.parametrize("n_shbs", [1, 2, 4])
def test_scalability_with_churn(benchmark, n_shbs):
    result = _results[("churn", n_shbs)] = _drive(benchmark, n_shbs, churn=True)
    assert result.disconnects > 0
    assert result.catchup_count > 0
    assert result.efficiency > 0.90
    _maybe_report()


def test_scalability_batched_delivery(benchmark):
    """Throughput with a 10 ms batch window matches unbatched delivery.

    Batching trades per-message scheduling for per-batch scheduling; it
    must not change how many events subscribers receive.
    """
    result = _drive(benchmark, 1, churn=False, batch_window_ms=10.0)
    assert result.efficiency > 0.95
    assert result.achieved_rate == pytest.approx(200.0 * NO_CHURN_SUBS, rel=0.05)


def test_single_broker_matches_one_shb(benchmark):
    """The 1-broker network has ~the capacity of the 1-SHB network."""
    result = _results[("single", 1)] = _drive(benchmark, 1, churn=False, single_broker=True)
    assert result.efficiency > 0.95
    _maybe_report()


def _maybe_report():
    needed = (
        [("no_churn", n) for n in (1, 2, 4)]
        + [("churn", n) for n in (1, 2, 4)]
        + [("single", 1)]
    )
    if not all(k in _results for k in needed):
        return
    rows = []
    for n in (1, 2, 4):
        r = _results[("no_churn", n)]
        rows.append([f"{n} SHB, no churn", r.subscribers, f"{r.achieved_rate:,.0f}",
                     f"{PAPER_NO_CHURN[n]:,}", f"{r.phb_idle:.0%}", f"{r.shb_idle_mean:.0%}"])
    for n in (1, 2, 4):
        r = _results[("churn", n)]
        rows.append([f"{n} SHB, churn", r.subscribers, f"{r.achieved_rate:,.0f}",
                     f"{PAPER_CHURN[n]:,}", f"{r.phb_idle:.0%}", f"{r.shb_idle_mean:.0%}"])
    s = _results[("single", 1)]
    rows.append(["1 broker (combined)", s.subscribers, f"{s.achieved_rate:,.0f}",
                 "~20,000", f"{s.phb_idle:.0%}", f"{s.shb_idle_mean:.0%}"])

    churn_ratio = (
        _results[("churn", 4)].achieved_rate / _results[("no_churn", 4)].achieved_rate
    )
    table = format_table(
        "Figure 4: aggregate subscriber rate (events/s)",
        ["configuration", "subs", "measured", "paper", "PHB idle", "SHB idle"],
        rows,
    )
    table += (
        f"\n\nchurn/no-churn rate ratio at 4 SHBs: {churn_ratio:.0%} (paper: 88%)"
        f"\nPHB idle trend 1->4 SHBs: "
        f"{_results[('no_churn', 1)].phb_idle:.0%} -> "
        f"{_results[('no_churn', 4)].phb_idle:.0%} (paper: 69% -> 59%)"
    )
    write_result("scalability", table)
