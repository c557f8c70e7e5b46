"""Command-line experiment runner: ``python -m repro <experiment>``.

A thin front-end over :mod:`repro.sim.experiments` for exploring the
reproduction without writing code::

    python -m repro latency
    python -m repro scalability --shbs 4 --subs 100 --churn
    python -m repro stream-rates --gc
    python -m repro failure
    python -m repro jms --subs 200 --input-rate 200

Every command prints the same metrics the corresponding benchmark
asserts on (see ``benchmarks/`` and DESIGN.md §3).
"""

from __future__ import annotations

import argparse
import sys

from .metrics.report import format_table, percentile
from .sim.experiments import (
    drive_scalability,
    prepare_scalability,
    run_jms_autoack,
    run_latency,
    run_shb_failure,
    run_stream_rates,
)


def _cmd_latency(args: argparse.Namespace) -> None:
    result = run_latency(
        n_intermediates=args.hops - 2,
        rate_per_s=args.rate,
        duration_ms=args.duration * 1000.0,
    )
    print(format_table(
        f"End-to-end latency over {result.hops} hops",
        ["metric", "value"],
        [
            ["mean (ms)", f"{result.mean_ms:.1f}"],
            ["p50 (ms)", f"{result.p50_ms:.1f}"],
            ["p99 (ms)", f"{result.p99_ms:.1f}"],
            ["PHB logging (ms)", f"{result.logging_mean_ms:.1f}"],
            ["samples", result.samples],
        ],
    ))


def _cmd_scalability(args: argparse.Namespace) -> None:
    result = drive_scalability(prepare_scalability(
        n_shbs=args.shbs,
        subs_per_shb=args.subs,
        churn=args.churn,
        duration_ms=args.duration * 1000.0,
        single_broker=args.single_broker,
    ))
    print(format_table(
        f"Scalability: {args.shbs} SHB(s), {result.subscribers} subscribers"
        + (" with churn" if args.churn else ""),
        ["metric", "value"],
        [
            ["offered rate (ev/s)", f"{result.offered_rate:,.0f}"],
            ["achieved rate (ev/s)", f"{result.achieved_rate:,.0f}"],
            ["efficiency", f"{result.efficiency:.1%}"],
            ["PHB CPU idle", f"{result.phb_idle:.0%}"],
            ["SHB CPU idle (mean)", f"{result.shb_idle_mean:.0%}"],
            ["disconnects", result.disconnects],
            ["catchups completed", result.catchup_count],
        ],
    ))


def _cmd_stream_rates(args: argparse.Namespace) -> None:
    result = run_stream_rates(
        duration_ms=args.duration * 1000.0,
        subs=args.subs,
        gc_pause_ms=100.0 if args.gc else 0.0,
    )
    ld = result.latest_delivered_rate.values()[3:]
    rel = result.released_rate.values()[3:]
    durations = result.catchup_durations_ms
    print(format_table(
        "Stream advance rates (tick-ms per second)",
        ["metric", "value"],
        [
            ["latestDelivered mean", f"{sum(ld) / len(ld):.0f}"],
            ["latestDelivered min", f"{min(ld):.0f}"],
            ["released mean", f"{sum(rel) / len(rel):.0f}"],
            ["released min", f"{min(rel):.0f}"],
            ["released max", f"{max(rel):.0f}"],
            ["catchups", len(durations)],
            ["catchup mean (ms)",
             f"{sum(durations) / len(durations):.0f}" if durations else "-"],
        ],
    ))


def _cmd_failure(args: argparse.Namespace) -> None:
    result = run_shb_failure(
        crash_at_ms=args.crash_at * 1000.0,
        down_ms=args.down * 1000.0,
        n_subs=args.subs,
        total_ms=args.duration * 1000.0,
    )
    durations = result.catchup_durations_ms
    print(format_table(
        f"SHB failure: {args.down}s outage, {args.subs} subscribers",
        ["metric", "value"],
        [
            ["verdict violations", len(result.violations)],
            ["normal LD slope (tick-ms/s)", f"{result.normal_slope:.0f}"],
            ["recovery LD slope", f"{result.recovery_slope:.0f}"],
            ["catchups completed", len(durations)],
            ["catchup mean (s)",
             f"{sum(durations) / len(durations) / 1000:.1f}" if durations else "-"],
            ["catchup p90 (s)",
             f"{percentile(durations, 90) / 1000:.1f}" if durations else "-"],
            ["PFS reads reaching lastTimestamp",
             f"{result.pfs_reads_reaching_last_fraction:.0%}"],
        ],
    ))


def _cmd_jms(args: argparse.Namespace) -> None:
    result = run_jms_autoack(
        args.subs, input_rate=args.input_rate, duration_ms=args.duration * 1000.0
    )
    print(format_table(
        f"JMS auto-acknowledge: {args.subs} subscribers",
        ["metric", "value"],
        [
            ["offered rate (ev/s)", f"{result.offered_rate:,.0f}"],
            ["consumed rate (ev/s)", f"{result.consumed_rate:,.0f}"],
            ["commit transactions/s", f"{result.commits_per_s:,.0f}"],
            ["coalesced update fraction", f"{result.coalesced_fraction:.1%}"],
        ],
    ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's experiments from the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("latency", help="5-hop end-to-end latency (result R1)")
    p.add_argument("--hops", type=int, default=5)
    p.add_argument("--rate", type=float, default=50.0)
    p.add_argument("--duration", type=float, default=20.0, help="seconds")
    p.set_defaults(fn=_cmd_latency)

    p = sub.add_parser("scalability", help="Figure 4 peak-rate measurement")
    p.add_argument("--shbs", type=int, default=1)
    p.add_argument("--subs", type=int, default=100, help="per SHB")
    p.add_argument("--churn", action="store_true")
    p.add_argument("--single-broker", action="store_true")
    p.add_argument("--duration", type=float, default=15.0, help="seconds")
    p.set_defaults(fn=_cmd_scalability)

    p = sub.add_parser("stream-rates", help="Figure 5/6 catchup + rates")
    p.add_argument("--subs", type=int, default=40)
    p.add_argument("--gc", action="store_true", help="inject GC-style stalls")
    p.add_argument("--duration", type=float, default=60.0, help="seconds")
    p.set_defaults(fn=_cmd_stream_rates)

    p = sub.add_parser("failure", help="Figure 7/8 SHB crash and recovery")
    p.add_argument("--subs", type=int, default=40)
    p.add_argument("--crash-at", type=float, default=15.0, help="seconds")
    p.add_argument("--down", type=float, default=25.0, help="seconds")
    p.add_argument("--duration", type=float, default=260.0, help="seconds")
    p.set_defaults(fn=_cmd_failure)

    p = sub.add_parser("jms", help="Section 5.2 JMS auto-ack throughput")
    p.add_argument("--subs", type=int, default=25)
    p.add_argument("--input-rate", type=float, default=800.0)
    p.add_argument("--duration", type=float, default=15.0, help="seconds")
    p.set_defaults(fn=_cmd_jms)

    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
