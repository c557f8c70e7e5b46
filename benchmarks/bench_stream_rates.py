"""Figure 6: advance rates of latestDelivered(p) and released(p).

Paper: *"Since latestDelivered(p) is not affected by disconnected
subscribers it steadily advances at a rate close to 1000 tick
milliseconds every second of real time.  The periodic drop in rate to
about 700 tick ms every second, is due to periodic garbage collection
in the Java VM running the SHB.  In comparison, released(p) shows much
larger variation since subscriber disconnection causes it to stop
advancing."*

The bench runs the 2-broker churn experiment near SHB saturation with
periodic injected CPU stalls standing in for the JVM GC pauses, and
reports both rate series.
"""

from conftest import full_scale, write_result

from repro.metrics.report import format_table
from repro.sim.experiments import run_message_amplification, run_stream_rates


def test_stream_advance_rates(benchmark):
    duration = 250_000.0 if full_scale() else 60_000.0
    result = benchmark.pedantic(
        lambda: run_stream_rates(
            duration_ms=duration,
            churn_period_ms=30_000.0,
            churn_down_ms=1_000.0,
            subs=88,                      # near the SHB's capacity
            gc_pause_ms=400.0,            # the paper's GC dips
            gc_period_ms=10_000.0,
        ),
        rounds=1,
        iterations=1,
    )
    assert not result.violations, result.violations
    ld = result.latest_delivered_rate.values()[3:]
    rel = result.released_rate.values()[3:]
    ld_mean = sum(ld) / len(ld)
    rows = [
        ["latestDelivered mean (tick-ms/s)", f"{ld_mean:.0f}", "~1000"],
        ["latestDelivered min (GC dip)", f"{min(ld):.0f}", "~700"],
        ["latestDelivered max", f"{max(ld):.0f}", "~1000+"],
        ["released mean (tick-ms/s)", f"{sum(rel) / len(rel):.0f}", "~1000"],
        ["released min (stall)", f"{min(rel):.0f}", "~500 or less"],
        ["released max (burst)", f"{max(rel):.0f}", "up to ~4000"],
    ]
    write_result(
        "stream_rates",
        format_table("Figure 6: latestDelivered / released advance rates",
                     ["metric", "measured", "paper"], rows),
    )

    # Shapes: LD tracks real time; GC dips visible; released varies more.
    assert abs(ld_mean - 1000.0) < 100.0
    assert min(ld) < 850.0, "GC dips should be visible in the LD rate"
    assert min(rel) < min(ld), "released stalls deeper than latestDelivered"
    assert max(rel) > max(ld), "released bursts above normal during catch-up"


def test_batching_message_amplification(benchmark):
    """Batched delivery collapses per-link messages at full input rate.

    16 subscribers all matching all 800 ev/s is the worst-case fan-out;
    a 10 ms window must cut link transmissions per published event by at
    least 3x without costing a single delivery.
    """
    duration = 30_000.0 if full_scale() else 10_000.0

    def run_pair():
        base = run_message_amplification(0.0, duration_ms=duration)
        batched = run_message_amplification(10.0, duration_ms=duration)
        return base, batched

    base, batched = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert not base.violations and not batched.violations, (
        base.violations + batched.violations
    )
    reduction = base.messages_per_event / batched.messages_per_event
    rows = [
        ["link msgs per event (window 0)", f"{base.messages_per_event:.2f}", "-"],
        ["link msgs per event (window 10ms)", f"{batched.messages_per_event:.2f}", "-"],
        ["reduction", f"{reduction:.1f}x", ">= 3x"],
        ["mean batch size (10ms)", f"{batched.mean_batch_size:.1f}", "> 1"],
        ["events delivered (0 / 10ms)",
         f"{base.events_delivered} / {batched.events_delivered}", "equal"],
    ]
    write_result(
        "batching_amplification",
        format_table("Batching: link messages per published event",
                     ["metric", "measured", "target"], rows),
    )
    assert batched.events_delivered == base.events_delivered
    assert reduction >= 3.0, f"only {reduction:.2f}x message reduction"
