#!/usr/bin/env python3
"""SHB crash and recovery: the Section 5.3 scenario as a narrative.

Fails the subscriber hosting broker for 25 seconds with 40 connected
durable subscribers (8 per client machine).  After recovery the broker
resumes from its *committed* latestDelivered, nacks everything it
missed (the steep slope of Figure 7), and once it has caught up all 40
subscribers reconnect simultaneously and run their catchup streams in
parallel — served by PFS batch reads and consolidated nacks.

Run:  python examples/shb_failure_recovery.py
"""

from repro.sim.experiments import run_shb_failure


def main() -> None:
    print("Running the 2-broker SHB failure experiment "
          "(40 subscribers, 25s outage)...\n")
    result = run_shb_failure(
        crash_at_ms=15_000.0,
        down_ms=25_000.0,
        n_subs=40,
        subs_per_machine=8,
        total_ms=150_000.0,
    )

    print("latestDelivered(P1) timeline (Figure 7, top):")
    for t, v in result.latest_delivered.points[::10]:
        bar = "#" * int(v / 4_000)
        print(f"  t={t / 1000:5.0f}s  {v:8.0f}  {bar}")

    print(f"\nnormal slope:   {result.normal_slope:7.0f} tick-ms/s")
    print(f"recovery slope: {result.recovery_slope:7.0f} tick-ms/s "
          f"({result.recovery_slope / result.normal_slope:.1f}x normal — "
          "the constream nacking what it missed)")

    durations = result.catchup_durations_ms
    print(f"\ncatchup: {len(durations)} streams completed, mean "
          f"{sum(durations) / len(durations) / 1000:.1f}s "
          f"(all {len(result.disconnected_ms)} subscribers were down "
          f"{result.disconnected_ms[0] / 1000:.1f}s)")

    print(f"PFS batch reads reaching lastTimestamp: "
          f"{result.pfs_reads_reaching_last_fraction:.0%} (paper: 87%)")

    pre = result.phb_idle.between(5_000, 14_000).mean()
    during = result.phb_idle.between(42_000, 60_000).mean()
    print(f"\nPHB CPU idle: {pre:.0%} before crash, {during:.0%} during "
          "mass catchup — nack consolidation keeps the PHB almost unaffected")

    shb_pre = result.shb_idle.between(5_000, 14_000).mean()
    shb_during = result.shb_idle.between(42_000, 60_000).mean()
    print(f"SHB CPU idle: {shb_pre:.0%} before, {shb_during:.0%} during "
          "catchup — the cost is localized to the SHB")

    print(f"\nexactly-once, in order and complete across the failure: "
          f"{'yes ✓' if not result.violations else 'NO ✗'}")
    assert not result.violations, result.violations


if __name__ == "__main__":
    main()
