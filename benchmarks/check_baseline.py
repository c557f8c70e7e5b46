#!/usr/bin/env python3
"""Smoke benchmark with a checked-in regression baseline.

Runs the message-amplification experiment (the batching tentpole's
headline number) at a short duration and compares the result against
``benchmarks/baseline.json``.  The simulation is deterministic, so the
measured values are exactly reproducible; the 20% tolerance exists so
benign parameter drift (e.g. retuned cost models) doesn't block CI,
while a real batching regression — more link transmissions per event,
smaller batches, or lost deliveries — does.

Usage:
    python benchmarks/check_baseline.py            # compare, exit 1 on regression
    python benchmarks/check_baseline.py --update   # rewrite the baseline
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent))  # for bench_matching

from repro.sim.experiments import run_message_amplification

from bench_latency import measure_latency_metrics
from bench_matching import measure_baseline_metrics as measure_matching_metrics
from bench_pfs_micro import measure_pfs_micro_metrics
from bench_scalability import measure_scalability_metrics
from bench_scale import measure_scale_metrics

BASELINE_PATH = pathlib.Path(__file__).parent / "baseline.json"
TOLERANCE = 0.20
DURATION_MS = 6_000.0

#: metric name -> direction in which the value getting *larger* is bad.
HIGHER_IS_WORSE = {
    "messages_per_event_window0": True,
    "messages_per_event_window10": True,
    "reduction": False,
    "mean_batch_size_window10": False,
    "events_delivered": False,
    # Counting-matcher headline numbers (benchmarks/bench_matching.py):
    # events/sec per workload with the matcher's caches filling
    # (``match`` per event) and memoized (``match_batch``, so a silent
    # de-amortization regresses CI), plus the fan-out aggregation's
    # deterministic work counters.
    "matcher_eps_single_1000": False,
    "matcher_eps_single_10000": False,
    "matcher_eps_multi_1000": False,
    "matcher_eps_multi_10000": False,
    "matcher_batch_eps_multi_10000": False,
    "matcher_aggregate_evals_fanout": True,
    "matcher_active_signatures_fanout": True,
    "matcher_index_keys_fanout": True,
    # End-to-end simulator throughput (bench_scalability): delivered
    # simulated events per wall-clock second, plus the deterministic
    # delivery efficiency of the same smoke run.
    "scalability_sim_events_per_wall_s": False,
    "scalability_efficiency_smoke": False,
    # Scale bench (benchmarks/bench_scale.py): durable fan-out
    # throughput at 10^5 subscribers on the deep forest (wall-clock,
    # held loosely) and the per-subscriber registry/index memory
    # (tracemalloc, deterministic per Python build).
    "scale_sim_events_per_wall_s_100k": False,
    "scale_bytes_per_subscriber": True,
    # Columnar PFS write path (benchmarks/bench_pfs_micro.py): batch
    # appends (pump advances) per wall-clock second on real file I/O —
    # gates the representation collapsing back to per-tick appends.
    "pfs_batch_appends_per_s": False,
    # Traced latency histograms (benchmarks/bench_latency.py): p50/p99
    # publish→deliver and the reconnect catchup lag, simulated time, so
    # deterministic; sample counts gate the tracer itself (a sampling
    # or span-plumbing bug shows up as a collapsed count).
    "latency_e2e_p50_ms": True,
    "latency_e2e_p99_ms": True,
    "latency_catchup_lag_p99_ms": True,
    "latency_e2e_samples": False,
    "latency_catchup_samples": False,
}

#: Per-metric tolerance overrides.  The batching metrics and the
#: matcher's work counters (aggregate evals, active signatures, index
#: keys) are deterministic, so the default 20% only absorbs deliberate
#: retuning.
#: Anything wall-clock (events/sec) swings with host load, so CI holds
#: those loosely — they gate order-of-magnitude collapses, not noise.
TOLERANCES = {name: 0.60 for name in HIGHER_IS_WORSE if "_eps_" in name}
TOLERANCES["scalability_sim_events_per_wall_s"] = 0.60  # wall-clock
TOLERANCES["scalability_efficiency_smoke"] = 0.02       # deterministic
TOLERANCES["scale_sim_events_per_wall_s_100k"] = 0.60   # wall-clock
TOLERANCES["scale_bytes_per_subscriber"] = 0.20         # allocator-level
TOLERANCES["pfs_batch_appends_per_s"] = 0.60            # real file I/O


def measure() -> dict:
    base = run_message_amplification(0.0, duration_ms=DURATION_MS)
    batched = run_message_amplification(10.0, duration_ms=DURATION_MS)
    if base.violations or batched.violations:
        print("FATAL: verdict violated in smoke run:", *base.violations,
              *batched.violations, sep="\n  ", file=sys.stderr)
        sys.exit(2)
    if batched.events_delivered != base.events_delivered:
        print("FATAL: batching changed delivery count "
              f"({base.events_delivered} vs {batched.events_delivered})",
              file=sys.stderr)
        sys.exit(2)
    out = {
        "messages_per_event_window0": round(base.messages_per_event, 4),
        "messages_per_event_window10": round(batched.messages_per_event, 4),
        "reduction": round(base.messages_per_event / batched.messages_per_event, 4),
        "mean_batch_size_window10": round(batched.mean_batch_size, 4),
        "events_delivered": base.events_delivered,
    }
    out.update(measure_matching_metrics())
    out.update(measure_latency_metrics())
    out.update(measure_scalability_metrics())
    out.update(measure_scale_metrics())
    out.update(measure_pfs_micro_metrics())
    return out


def compare(baseline: dict, current: dict, out=None) -> list:
    """Compare ``current`` metrics against ``baseline``; return failures.

    Every gated metric (key of :data:`HIGHER_IS_WORSE`) must be present
    in *both* dicts — a key missing from the baseline means the gate was
    added without refreshing ``baseline.json``, and a key missing from
    the results means a measurement silently stopped producing it; both
    are hard failures with a per-metric message, never a crash or a
    silent skip.
    """
    out = out if out is not None else sys.stdout
    failures = []
    for name, higher_is_worse in HIGHER_IS_WORSE.items():
        old, new = baseline.get(name), current.get(name)
        if old is None:
            failures.append(f"{name}: missing from baseline (run --update)")
            continue
        if new is None:
            failures.append(f"{name}: missing from results (benchmark stopped producing it)")
            continue
        if old == 0:
            # No relative change exists from zero (a fault counter,
            # say): any move in the worse direction is a regression.
            regressed = new > 0 if higher_is_worse else new < 0
            change, bound = f"{new - old:+}", "any"
        else:
            tolerance = TOLERANCES.get(name, TOLERANCE)
            ratio = (new - old) / abs(old)
            regressed = (ratio if higher_is_worse else -ratio) > tolerance
            change, bound = f"{ratio:+.1%}", f"{tolerance:.0%}"
        marker = "REGRESSION" if regressed else "ok"
        print(f"{name:34s} baseline={old:<12} current={new:<12} "
              f"change={change} [{marker} @ {bound}]", file=out)
        if regressed:
            failures.append(f"{name}: {old} -> {new} ({change})")
    return failures


def main(argv) -> int:
    current = measure()
    if "--update" in argv:
        BASELINE_PATH.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --update", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = compare(baseline, current)
    if failures:
        print("\nregressions beyond tolerance:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
