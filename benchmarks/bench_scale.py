#!/usr/bin/env python3
"""Scale bench: 10^4..10^5 durable subscribers on a wide/deep forest.

Not a paper figure — the regime the paper's production deployments
(Summit, with "tens of thousands" of durable clients) imply.  Each
point builds a multi-PHB forest with redundant-path spares via
:func:`repro.sim.experiments.prepare_scale`, registers N durable
subscriptions (headless — a disconnected durable subscription still
costs its registry row, matching work and PFS records, which is the
state under test) plus a handful of live clients, then drives a
publish window and reports:

* ``matched_pairs_per_wall_s`` — durable fan-out throughput: (event,
  subscriber) pairs PFS-logged per wall-clock second, recovered from
  the record format itself (8 + 16n bytes);
* ``bytes_per_subscriber`` — tracemalloc'd memory of the built point
  divided by N (the whole forest amortized over its subscribers);
* a representation comparison: the current registry + sharded-index
  representation vs an emulation of the pre-diet one (dict-based rows,
  one private predicate instance per row, flat PFS index) — the
  ``representation_ratio`` is the headline "bytes/subscriber dropped
  Nx" number.

Usage:
    PYTHONPATH=src python benchmarks/bench_scale.py                  # 10k point
    PYTHONPATH=src python benchmarks/bench_scale.py --points 10000,50000,100000
    PYTHONPATH=src python benchmarks/bench_scale.py --out scale_metrics.json --min-ratio 2.0

``check_baseline.py`` gates ``scale_sim_events_per_wall_s_100k`` (the
100k point, run untraced so tracemalloc overhead doesn't pollute the
wall clock) and ``scale_bytes_per_subscriber`` (the representation
measurement, allocator-deterministic for a given Python build).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc

from repro.sim.experiments import drive_scale, prepare_scale

REPRESENTATION_SUBS = 10_000
REPRESENTATION_GROUPS = 500


def measure_representation(
    n_subscribers: int = REPRESENTATION_SUBS,
    n_groups: int = REPRESENTATION_GROUPS,
) -> dict:
    """Per-subscriber registry/index memory: current vs pre-diet layout.

    Both sides build the same logical state — N durable subscriptions
    over ``n_groups`` distinct predicates, each acked once, each with a
    live PFS last-index entry — so the difference is purely the
    representation: ``__slots__`` rows + interned ids/predicates +
    sharded index vs ``__dict__`` rows + one private predicate copy per
    row + a flat index dict.
    """
    from repro.core.subscription import SubscriptionRegistry
    from repro.matching.predicates import In
    from repro.net.simtime import Scheduler
    from repro.pfs.pfs import _ShardedIndex
    from repro.storage.disk import SimDisk
    from repro.storage.table import PersistentTable

    def build_current():
        sim = Scheduler()
        disk = SimDisk(sim, "bench-rep-store")
        registry = SubscriptionRegistry(
            PersistentTable("bench-rep.subs", disk),
            PersistentTable("bench-rep.released", disk),
        )
        predicates = [In("group", (g,)) for g in range(n_groups)]
        index = _ShardedIndex()
        for i in range(n_subscribers):
            sub = registry.create(
                f"rep-c{i}", predicates[i % n_groups], pfs_from={"p1": 0}
            )
            registry.ack(sub.sub_id, "p1", 0)
            index[sub.num] = 8 + 24 * i
        return registry, index

    def build_legacy():
        # The pre-diet representation, emulated structure for structure:
        # rows with a per-instance __dict__, a private (non-interned)
        # predicate object per row, dirty table rows, a flat
        # {num: last_index} dict.  Using today's (slotted) predicate
        # classes inside it *understates* the legacy cost, so the
        # resulting ratio is conservative.
        class LegacyRow:
            def __init__(self, sub_id, num, predicate, pfs_from):
                self.sub_id = sub_id
                self.num = num
                self.predicate = predicate
                self.released = {}
                self.pfs_from = pfs_from
                self.connected = False

        subs = {}
        by_num = {}
        subs_table = {}
        released_table = {}
        index = {}
        for i in range(n_subscribers):
            row = LegacyRow(f"rep-l{i}", i, In("group", (i % n_groups,)), {"p1": 0})
            row.released["p1"] = 0
            subs[row.sub_id] = row
            by_num[i] = row
            subs_table[row.sub_id] = (row.num, row.predicate, dict(row.pfs_from))
            released_table[f"{row.sub_id}/p1"] = 0
            index[i] = 8 + 24 * i
        return subs, by_num, subs_table, released_table, index

    def traced_bytes(build) -> int:
        tracemalloc.start()
        keep = build()
        current, _peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del keep
        return current

    current_bytes = traced_bytes(build_current)
    legacy_bytes = traced_bytes(build_legacy)
    return {
        "n_subscribers": n_subscribers,
        "n_groups": n_groups,
        "current_bytes_per_subscriber": round(current_bytes / n_subscribers, 1),
        "legacy_bytes_per_subscriber": round(legacy_bytes / n_subscribers, 1),
        "representation_ratio": round(legacy_bytes / current_bytes, 2),
    }


def measure_scale_point(n_subscribers: int, trace: bool = True, **kwargs) -> dict:
    """Build and drive one scale point; tracemalloc the build when asked.

    With ``trace`` the report includes the built point's memory and the
    run's peak; tracing slows the simulation, so wall-clock throughput
    from a traced run is informational — the gated number comes from an
    untraced run (see :func:`measure_scale_metrics`).
    """
    if trace:
        tracemalloc.start()
    t0 = time.perf_counter()
    setup = prepare_scale(n_subscribers, **kwargs)
    build_wall_s = time.perf_counter() - t0
    build_bytes = peak_bytes = 0
    if trace:
        build_bytes, _ = tracemalloc.get_traced_memory()
    result = drive_scale(setup)
    if trace:
        _, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    report = {
        "n_subscribers": result.n_subscribers,
        "n_trees": result.n_trees,
        "n_intermediates": result.n_intermediates,
        "n_shbs": result.n_shbs,
        "connected_clients": result.connected_clients,
        "events_published": result.events_published,
        "pfs_records": result.pfs_records,
        "matched_pairs": result.matched_pairs,
        "client_events": result.client_events,
        "build_wall_s": round(build_wall_s, 2),
        "drive_wall_s": round(result.drive_wall_s, 2),
        "matched_pairs_per_wall_s": round(result.matched_pairs_per_wall_s, 0),
        "traced": trace,
    }
    if trace:
        report["build_bytes"] = build_bytes
        report["bytes_per_subscriber"] = round(build_bytes / n_subscribers, 1)
        report["peak_bytes"] = peak_bytes
    return report


def measure_scale_metrics() -> dict:
    """The two scale metrics check_baseline.py gates.

    The 100k throughput point runs untraced with a trimmed publish
    window (throughput is a rate; the shorter window changes how well
    fixed timer overhead amortizes, which the loose wall-clock
    tolerance absorbs).  The bytes metric uses the representation
    measurement, which is deterministic for a given Python build.
    """
    rep = measure_representation()
    result = drive_scale(prepare_scale(100_000, events_per_pubend=400))
    if result.matched_pairs <= 0 or result.client_events <= 0:
        print("FATAL: scale point delivered nothing "
              f"(pairs={result.matched_pairs}, client_events={result.client_events})",
              file=sys.stderr)
        sys.exit(2)
    return {
        "scale_sim_events_per_wall_s_100k": round(result.matched_pairs_per_wall_s, 0),
        "scale_bytes_per_subscriber": rep["current_bytes_per_subscriber"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--points", default="10000",
                        help="comma-separated subscriber counts (default 10000)")
    parser.add_argument("--out", default=None,
                        help="write the full report as JSON to this path")
    parser.add_argument("--min-ratio", type=float, default=0.0,
                        help="fail unless legacy/current bytes-per-subscriber "
                             "ratio is at least this (CI passes 2.0)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip tracemalloc (pure throughput runs)")
    args = parser.parse_args(argv)

    points = [int(p) for p in args.points.split(",") if p]
    representation = measure_representation()
    print(f"representation @ {representation['n_subscribers']} subs: "
          f"{representation['current_bytes_per_subscriber']:.0f} B/sub now vs "
          f"{representation['legacy_bytes_per_subscriber']:.0f} B/sub pre-diet "
          f"({representation['representation_ratio']:.2f}x)")
    reports = []
    for n in points:
        report = measure_scale_point(n, trace=not args.no_trace)
        reports.append(report)
        line = (f"{n:>7} subs | {report['n_shbs']:>3} SHBs | "
                f"{report['matched_pairs']:>8} pairs | "
                f"build {report['build_wall_s']:6.2f}s | "
                f"drive {report['drive_wall_s']:6.2f}s | "
                f"{report['matched_pairs_per_wall_s']:>8.0f} pairs/wall-s")
        if "bytes_per_subscriber" in report:
            line += f" | {report['bytes_per_subscriber']:7.1f} B/sub built"
        print(line)
        if report["matched_pairs"] <= 0 or report["client_events"] <= 0:
            print(f"FATAL: {n}-sub point delivered nothing", file=sys.stderr)
            return 2
    if args.out:
        payload = {"representation": representation, "points": reports}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"report written to {args.out}")
    if args.min_ratio and representation["representation_ratio"] < args.min_ratio:
        print(f"FATAL: representation ratio "
              f"{representation['representation_ratio']:.2f}x below required "
              f"{args.min_ratio:.2f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
