"""Figures 7 and 8: SHB crash and recovery (Section 5.3).

Setup from the paper: the 2-broker network, 40 durable subscribers at
200 ev/s each spread over 5 client machines (1600 ev/s per machine),
800 ev/s input over 4 pubends.  The SHB is failed for 25 s; subscriber
reconnection is delayed until the constream has nacked and received
everything it missed, then all 40 reconnect at once.

Reported shapes:

* Figure 7 (top): latestDelivered flat while the SHB is down, then a
  much steeper slope (~5x) while the constream nacks, then normal.
* Figure 7 (bottom): released(p) stalls until the subscribers
  reconnect, then advances slightly above normal until catchup ends.
* Figure 8 (top): per-machine rates at 1600 ev/s before the crash, on
  average *higher* during catchup (missed + live traffic).
* Figure 8 (bottom): PHB CPU barely affected (nack consolidation); the
  SHB's idle time drops sharply during catchup.
* Most PFS batch reads reach lastTimestamp (87% in the paper).
"""

from conftest import full_scale, write_result

from repro.metrics.report import format_table
from repro.sim.experiments import run_shb_failure


def test_shb_crash_and_recovery(benchmark):
    if full_scale():
        kwargs = dict(crash_at_ms=30_000.0, down_ms=25_000.0, total_ms=320_000.0)
    else:
        kwargs = dict(crash_at_ms=15_000.0, down_ms=25_000.0, total_ms=260_000.0)

    result = benchmark.pedantic(
        lambda: run_shb_failure(n_subs=40, subs_per_machine=8, **kwargs),
        rounds=1,
        iterations=1,
    )

    assert not result.violations, result.violations

    crash_at, down = kwargs["crash_at_ms"], kwargs["down_ms"]
    recover_at = crash_at + down

    # Figure 7 top: latestDelivered flat during the outage.
    ld = result.latest_delivered
    during = ld.between(crash_at + 2_000, recover_at - 1_000).values()
    assert during and max(during) - min(during) < 100.0, "LD moved while SHB down"

    # Recovery slope well above normal, bounded by nack pacing.
    slope_ratio = result.recovery_slope / result.normal_slope
    assert slope_ratio > 2.0

    # Figure 7 bottom: released stalls at least until reconnection.
    # (The committed-ack rollback at the crash instant may step the
    # gauge down once; the stall is measured strictly inside the
    # outage.)
    rel = result.released
    stall = rel.between(crash_at + 2_000, recover_at - 1_000).values()
    assert stall and max(stall) - min(stall) < 100.0

    # Figure 8 top: machine rates ~1600 before; higher on average during
    # catchup.
    pre_rates = [s.between(5_000, crash_at - 1_000).mean() for s in result.machine_rates]
    for rate in pre_rates:
        assert abs(rate - 1_600.0) < 160.0
    catchup_end = recover_at + max(result.catchup_durations_ms or [0])
    post = [s.between(recover_at + 3_000, catchup_end).mean() for s in result.machine_rates]
    mean_post = sum(post) / len(post)
    mean_pre = sum(pre_rates) / len(pre_rates)
    assert mean_post > mean_pre, "catchup rate should exceed the normal rate"

    # Figure 8 bottom: PHB barely affected; SHB idle drops during catchup.
    phb_normal = result.phb_idle.between(5_000, crash_at - 1_000).mean()
    phb_catchup = result.phb_idle.between(recover_at + 2_000, catchup_end).mean()
    shb_normal = result.shb_idle.between(5_000, crash_at - 1_000).mean()
    shb_catchup = result.shb_idle.between(recover_at + 2_000, catchup_end).mean()
    assert phb_normal - phb_catchup < 0.15, "nack consolidation keeps PHB load low"
    assert shb_catchup < shb_normal, "catchup load is localized to the SHB"

    mean_catchup = (
        sum(result.catchup_durations_ms) / len(result.catchup_durations_ms)
        if result.catchup_durations_ms else 0.0
    )
    rows = [
        ["subscribers / machines", "40 / 5", "40 / 5"],
        ["SHB outage (s)", f"{down / 1000:.0f}", "25"],
        ["disconnected (s, mean)",
         f"{sum(result.disconnected_ms) / len(result.disconnected_ms) / 1000:.1f}",
         "37.55"],
        ["constream recovery slope / normal", f"{slope_ratio:.1f}x", "~5x"],
        ["mean catchup duration (s)", f"{mean_catchup / 1000:.1f}", "116"],
        ["machine rate pre-crash (ev/s)", f"{mean_pre:,.0f}", "1600"],
        ["machine rate during catchup (ev/s)", f"{mean_post:,.0f}", ">1600, varying"],
        ["PHB idle normal -> catchup",
         f"{phb_normal:.0%} -> {phb_catchup:.0%}", "slight drop"],
        ["SHB idle normal -> catchup",
         f"{shb_normal:.0%} -> {shb_catchup:.0%}", "significant drop"],
        ["PFS reads reaching lastTimestamp",
         f"{result.pfs_reads_reaching_last_fraction:.0%}", "87%"],
        ["verdict violations (every oracle family)", len(result.violations), "-"],
    ]
    write_result(
        "shb_failure",
        format_table("Figures 7+8: SHB crash and recovery",
                     ["metric", "measured", "paper"], rows),
    )
