"""Result R1: end-to-end latency over a 5-broker chain.

Paper (Section 5, summary result 1): *"The end-to-end event latency for
a 5 hop broker network is 50ms, of which 44ms is due to event logging
at the PHB."*

The bench publishes at a modest rate through PHB → 3 intermediates →
SHB → subscriber and reports the mean/median/p99 end-to-end latency and
the PHB logging component (publish → durable).

``test_traced_latency_histograms`` measures the same regime through the
sampling tracer instead of attribute-smuggled publish times: per-hop
span histograms, p50/p95/p99 end-to-end, and the catchup lag of a
subscriber that reconnects mid-run.  Its JSON export lands in
``benchmarks/results/latency_metrics.json`` (uploaded as a CI artifact)
and :func:`measure_latency_metrics` feeds ``check_baseline.py``.
"""

from conftest import RESULTS_DIR, full_scale, write_result

from repro.metrics.report import format_table
from repro.sim.experiments import run_latency, run_latency_trace

#: Fixed parameters for the traced bench: deterministic, so the
#: baseline comparison in check_baseline.py is exact.
TRACE_KWARGS = dict(
    n_intermediates=3,
    rate_per_s=100.0,
    duration_ms=20_000.0,
    sample_rate=0.25,
    seed=7,
    disconnect_at_ms=6_000.0,
    reconnect_at_ms=10_000.0,
)


def measure_latency_metrics() -> dict:
    """Baseline-gated numbers for check_baseline.py (deterministic)."""
    result = run_latency_trace(**TRACE_KWARGS)
    assert not result.violations, result.violations
    return {
        "latency_e2e_p50_ms": round(result.e2e_p50_ms, 4),
        "latency_e2e_p99_ms": round(result.e2e_p99_ms, 4),
        "latency_catchup_lag_p99_ms": round(result.catchup_p99_ms, 4),
        "latency_e2e_samples": result.e2e_samples,
        "latency_catchup_samples": result.catchup_samples,
    }


def test_end_to_end_latency(benchmark):
    duration = 60_000.0 if full_scale() else 20_000.0

    result = benchmark.pedantic(
        lambda: run_latency(n_intermediates=3, rate_per_s=50, duration_ms=duration),
        rounds=1,
        iterations=1,
    )
    assert not result.violations, result.violations

    rows = [
        ["end-to-end mean (ms)", f"{result.mean_ms:.1f}", "50"],
        ["end-to-end p50 (ms)", f"{result.p50_ms:.1f}", "-"],
        ["end-to-end p99 (ms)", f"{result.p99_ms:.1f}", "-"],
        ["PHB logging mean (ms)", f"{result.logging_mean_ms:.1f}", "44"],
        ["hops", result.hops, "5"],
        ["samples", result.samples, "-"],
    ]
    write_result(
        "latency",
        format_table("R1: 5-hop end-to-end latency", ["metric", "measured", "paper"], rows),
    )

    # Shape assertions: logging dominates, total in the right regime.
    assert result.hops == 5
    assert result.logging_mean_ms > 0.75 * result.mean_ms
    assert 35.0 < result.mean_ms < 70.0


def test_traced_latency_histograms(benchmark):
    export_path = RESULTS_DIR / "latency_metrics.json"
    RESULTS_DIR.mkdir(exist_ok=True)

    result = benchmark.pedantic(
        lambda: run_latency_trace(export_path=str(export_path), **TRACE_KWARGS),
        rounds=1,
        iterations=1,
    )
    assert not result.violations, result.violations

    rows = [
        ["e2e publish→deliver p50 (ms)", f"{result.e2e_p50_ms:.1f}", "~50"],
        ["e2e publish→deliver p95 (ms)", f"{result.e2e_p95_ms:.1f}", "-"],
        ["e2e publish→deliver p99 (ms)", f"{result.e2e_p99_ms:.1f}", "-"],
        ["e2e samples", result.e2e_samples, "-"],
        ["catchup lag p50 (ms)", f"{result.catchup_p50_ms:.1f}", "-"],
        ["catchup lag p99 (ms)", f"{result.catchup_p99_ms:.1f}", "-"],
        ["catchup samples", result.catchup_samples, "-"],
        ["traces started", result.traces_started, "-"],
    ]
    for name, snap in result.span_histograms.items():
        rows.append(
            [f"span {name} p50/p99 (ms)",
             f"{snap['p50_ms']:.3f} / {snap['p99_ms']:.3f}", "-"]
        )
    write_result(
        "latency_trace",
        format_table(
            "R1b: traced 5-hop latency histograms",
            ["metric", "measured", "paper"],
            rows,
        ),
    )

    # Shape assertions mirroring R1: logging dominates end-to-end, the
    # catchup lag reflects the disconnected span, and the sampler saw a
    # plausible fraction (~25%) of the published events.
    log_snap = result.span_histograms["phb.log"]
    assert result.e2e_samples > 100 and result.catchup_samples > 50
    assert log_snap["p50_ms"] > 0.75 * result.e2e_p50_ms
    assert 35.0 < result.e2e_p50_ms < 70.0
    assert result.catchup_p99_ms > 1_000.0  # includes the disconnected span
    assert export_path.exists()
