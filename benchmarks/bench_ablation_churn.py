"""Ablations of catchup under churn: the SHB event cache and the PFS.

Both run the same judged workload — 24 churning subscribers on the
2-broker network, 2 s disconnections — with one SHB option changed.

* **Event cache span** (the paper's future work).  Section 7: *"Future
  work includes experimentally examining the effect of different event
  cache sizes and management policies, on the catchup rate of
  reconnecting subscriptions."*  With the cache bounded to different
  spans we measure mean catchup duration and how much recovery traffic
  escapes to the PHB (nacks served upstream vs from the local cache).
  Expected shape: with a cache covering the disconnection window,
  recovery stays local and the PHB serves almost nothing; with a tiny
  cache every catchup goes to the PHB's log.
* **PFS vs wholesale refiltering** (Section 4.2): the PFS *"avoids
  retrieving and refiltering events that did not match the
  subscriber."*  Catchup driven by PFS batch reads versus the fallback
  that nacks the entire missed span and refilters
  (``use_pfs_for_catchup=False``).  Expected shape: without the PFS,
  every catchup fetches ~4x the events (subscribers match 1/4 of the
  stream) plus all silence ranges, so recovery traffic and SHB work
  rise sharply while exactly-once still holds.
"""

import pytest
from conftest import full_scale, write_result

from repro import Scheduler, build_two_broker
from repro.metrics.report import format_table
from repro.sim.scenario import Scenario, make_subscribers
from repro.workloads.generator import ChurnSchedule, PaperWorkloadSpec, make_publishers

DOWN_MS = 2_000.0
#: Cache spans to sweep, as multiples of the disconnection length.
SPANS = [(0.2, "0.2x down"), (1.0, "1x down"), (8.0, "8x down")]

_cache_rows = []
_pfs_runs = {}


def _run(duration_ms, period_ms, drain_ms, **shb_options):
    """The judged churn run; everything is read ``drain_ms`` after
    publishing stops."""
    spec = PaperWorkloadSpec()
    sim = Scheduler()
    overlay = build_two_broker(sim, spec.pubend_names(), **shb_options)
    shb = overlay.shbs[0]
    publishers = make_publishers(sim, overlay.phb, spec)
    subs = make_subscribers(sim, overlay.shbs, spec, 24)
    churn = ChurnSchedule(sim, subs, shb_of=lambda s: shb, period_ms=period_ms, down_ms=DOWN_MS)
    scn = Scenario(sim, overlay)
    scn.adopt(subs, lambda i: shb)
    sim.run_until(duration_ms)
    for pub in publishers:
        pub.stop()
    sim.run_until(duration_ms + drain_ms)
    result = {
        "durations": [d for _t, d in shb.catchup_durations_ms],
        "phb_nacks": overlay.phb.nacks_served,
        "cache_nacks": shb.cache_served_nacks,
        "ticks_nacked": shb.catchup_ticks_nacked,
        "shb_busy_ms": shb.node.busy.total_busy_ms,
    }
    churn.stop()
    result["violations"] = scn.settle()
    assert not result["violations"], result["violations"]
    assert result["durations"], "churn must produce catchups"
    return result


def _mean_s(result):
    return sum(result["durations"]) / len(result["durations"]) / 1000


@pytest.mark.parametrize("multiple,label", SPANS)
def test_cache_span_vs_catchup(benchmark, multiple, label):
    duration = 120_000.0 if full_scale() else 45_000.0
    r = benchmark.pedantic(
        lambda: _run(duration, duration / 3, 10_000.0,
                     event_cache_span_ms=int(multiple * DOWN_MS)),
        rounds=1, iterations=1,
    )
    local_fraction = r["cache_nacks"] / max(1, r["cache_nacks"] + r["phb_nacks"])
    _cache_rows.append([label, len(r["durations"]), f"{_mean_s(r):.2f}",
                        r["phb_nacks"], r["cache_nacks"], f"{local_fraction:.0%}"])
    if len(_cache_rows) == len(SPANS):
        table = format_table(
            "Ablation: SHB event cache span vs catchup (2s disconnections)",
            ["cache span", "catchups", "mean dur (s)",
             "PHB-served nacks", "cache-served nacks", "served locally"],
            _cache_rows,
        )
        write_result("ablation_cache", table)
        # Shape: a cache covering the outage keeps recovery local.
        small = next(r for r in _cache_rows if r[0] == SPANS[0][1])
        large = next(r for r in _cache_rows if r[0] == SPANS[-1][1])
        assert int(large[3]) < int(small[3]), (
            "a larger cache must offload the PHB"
        )


@pytest.mark.parametrize("use_pfs", [True, False], ids=["pfs", "refilter"])
def test_pfs_vs_refiltering_catchup(benchmark, use_pfs):
    duration = 90_000.0 if full_scale() else 40_000.0
    _pfs_runs["pfs" if use_pfs else "refilter"] = benchmark.pedantic(
        lambda: _run(duration, duration / 2, 15_000.0, use_pfs_for_catchup=use_pfs),
        rounds=1, iterations=1,
    )
    if len(_pfs_runs) == 2:
        pfs, refilter = _pfs_runs["pfs"], _pfs_runs["refilter"]
        table = format_table(
            "Ablation: PFS vs refiltering catchup (2s disconnections)",
            ["mode", "mean catchup (s)", "ticks nacked", "SHB busy ms"],
            [[mode, f"{_mean_s(r):.2f}", r["ticks_nacked"], f"{r['shb_busy_ms']:,.0f}"]
             for mode, r in (("PFS catchup", pfs), ("refiltering catchup", refilter))],
        )
        write_result("ablation_pfs", table)
        # Refiltering must request strictly more recovery data: it
        # nacks every tick of the missed span, where the PFS-driven
        # catchup nacks only this subscriber's matching (Q) ticks.
        assert refilter["ticks_nacked"] > 2 * pfs["ticks_nacked"]
