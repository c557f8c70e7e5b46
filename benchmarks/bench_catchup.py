"""Figure 5: catchup durations under steady disconnect/reconnect churn.

Paper: *"Catchup durations are usually between 5 and 6 seconds"* for
subscribers that disconnect for 5 s (missing 1000 events) in the
2-broker topology at the churn workload's load level.

The figure's shape: catchup duration is of the same order as the
disconnection itself (recovering N missed events plus the events that
keep arriving while catching up), tightly clustered across subscribers.
We report the duration distribution and its ratio to the disconnection
length; at default (time-compressed) scale subscribers miss 200 events
in 1 s, at REPRO_BENCH_SCALE=full the paper's 5 s / 1000 events.
"""

from conftest import full_scale, write_result

from repro.metrics.report import format_table, percentile
from repro.sim.experiments import run_stream_rates


def test_catchup_durations(benchmark):
    if full_scale():
        kwargs = dict(duration_ms=250_000.0, churn_period_ms=300_000.0,
                      churn_down_ms=5_000.0, subs=88)
    else:
        kwargs = dict(duration_ms=60_000.0, churn_period_ms=30_000.0,
                      churn_down_ms=1_000.0, subs=88)

    result = benchmark.pedantic(
        lambda: run_stream_rates(**kwargs), rounds=1, iterations=1
    )
    assert not result.violations, result.violations
    durations = result.catchup_durations_ms
    assert durations, "no catchups completed"
    down_ms = kwargs["churn_down_ms"]
    mean = sum(durations) / len(durations)
    rows = [
        ["catchups completed", len(durations), "-"],
        ["disconnection length (s)", f"{down_ms / 1000:.1f}", "5.0"],
        ["catchup mean (s)", f"{mean / 1000:.2f}", "5-6"],
        ["catchup p10 (s)", f"{percentile(durations, 10) / 1000:.2f}", "-"],
        ["catchup p90 (s)", f"{percentile(durations, 90) / 1000:.2f}", "-"],
        ["mean / disconnection ratio", f"{mean / down_ms:.2f}", "1.0-1.2"],
    ]
    write_result(
        "catchup",
        format_table("Figure 5: catchup durations", ["metric", "measured", "paper"], rows),
    )

    # Shape: same order as the disconnection, bounded spread.
    assert 0.1 * down_ms < mean < 4.0 * down_ms
    assert percentile(durations, 90) < 8.0 * down_ms
