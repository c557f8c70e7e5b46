"""Matcher microbenchmark: throughput and work of the counting engine.

The matching engine is the per-event CPU floor at every broker role:
the PHB and each intermediate classify each event for all downstream
links at once (link matching), and the SHB constream computes the
full match set per event.  This
bench measures it on two subscription forms:

* single-attribute membership subscriptions (``In("group", ...)``);
* multi-attribute conjunctions (region AND category AND price band) —
  the common content-based form;

each at 1 000, 5 000 and 10 000 subscriptions, plus a PHB-style
fan-out filtering experiment counting the per-subscription work items
behind link matching over per-link signature sets.

Every number is absolute.  The tables that raced this engine against
the pre-PR-3 engine and against its own former single-event loop are
frozen in EXPERIMENTS.md; correctness is the differential suites'
business (``tests/test_matching_batch.py``,
``tests/test_property_matching.py``), not this file's.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Tuple

from conftest import full_scale, write_result

from repro.matching.engine import MatchingEngine, compiled
from repro.matching.links import LinkIndex
from repro.matching.predicates import And, Between, Eq, In, Predicate
from repro.metrics.report import format_table

#: Events per ``match_batch`` call in the steady-state measurement —
#: the order of a constream pump's live run.
BATCH_SIZE = 64


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
N_GROUPS = 16
N_REGIONS = 8
N_CATEGORIES = 12
PRICE_BANDS = [(lo, lo + 14) for lo in range(0, 100, 5)]


def single_attr_subs(n: int, rng: random.Random) -> List[Tuple[str, Predicate]]:
    """``In("group", {g1, g2})`` — the seed workload's subscription form."""
    return [
        (
            f"s{i}",
            In("group", rng.sample(range(N_GROUPS), 2)),
        )
        for i in range(n)
    ]


def multi_attr_subs(n: int, rng: random.Random) -> List[Tuple[str, Predicate]]:
    """Region AND category AND price-band conjunctions."""
    out = []
    for i in range(n):
        lo, hi = rng.choice(PRICE_BANDS)
        out.append(
            (
                f"s{i}",
                And(
                    [
                        Eq("region", rng.randrange(N_REGIONS)),
                        Eq("category", rng.randrange(N_CATEGORIES)),
                        Between("price", lo, hi),
                    ]
                ),
            )
        )
    return out


def make_events(n: int, rng: random.Random) -> List[Dict[str, Any]]:
    return [
        {
            "group": rng.randrange(N_GROUPS),
            "region": rng.randrange(N_REGIONS),
            "category": rng.randrange(N_CATEGORIES),
            "price": rng.randrange(100),
        }
        for i in range(n)
    ]


def _events_per_sec(engine, events: List[Dict[str, Any]]) -> float:
    start = time.perf_counter()
    for attributes in events:
        engine.match(attributes)
    elapsed = time.perf_counter() - start
    return len(events) / elapsed if elapsed > 0 else float("inf")


def _events_per_sec_batch(engine, events: List[Dict[str, Any]], batch_size: int) -> float:
    start = time.perf_counter()
    for i in range(0, len(events), batch_size):
        engine.match_batch(events[i : i + batch_size])
    elapsed = time.perf_counter() - start
    return len(events) / elapsed if elapsed > 0 else float("inf")


def _build(subs) -> MatchingEngine:
    engine = MatchingEngine()
    for sub_id, predicate in subs:
        engine.add(sub_id, predicate)
    return engine


def run_matching_workload(kind: str, n_subs: int, n_events: int, seed: int = 7) -> dict:
    """Events/sec on one workload, first pass and steady state.

    The first pass feeds ``match`` one event at a time right after
    registration, so the probe cache and signature memo are filling;
    the steady pass replays the same events through ``match_batch``
    with every signature memoized — where a long-running broker sits
    until the next subscription change.
    """
    rng = random.Random(seed)
    subs = single_attr_subs(n_subs, rng) if kind == "single" else multi_attr_subs(n_subs, rng)
    events = make_events(n_events, rng)
    engine = _build(subs)
    for attributes in events[:10]:  # lazy index sorts, outside the timed region
        engine.match(attributes)
    first_pass_eps = _events_per_sec(engine, events)
    steady_eps = _events_per_sec_batch(engine, events, BATCH_SIZE)
    return {
        "kind": kind,
        "n_subs": n_subs,
        "first_pass_eps": first_pass_eps,
        "steady_eps": steady_eps,
        "sig_memo_hits": engine.sig_memo_hits,
        "probe_cache_hits": engine.probe_cache_hits,
    }


def run_fanout_filtering(
    n_children: int = 4, subs_per_child: int = 2000, n_events: int = 2000, seed: int = 11
) -> dict:
    """PHB-style fan-out: one union per downstream link in one
    :class:`~repro.matching.links.LinkIndex`, one link match per event.
    Subscribers draw from a shared predicate pool (many subscribers
    want the same content); each link's union holds the distinct
    predicates among them, and sets its bit on each of their distinct
    signatures.

    Work is counted in index-key units: the keys (distinct signatures,
    each shared by every link holding it) the index's counting loop
    touched, plus its residual evaluations.  ``active_signatures``
    sums each link's distinct signatures; ``index_keys`` is the
    index's size, one key per distinct one.
    Deterministic for a seed.
    """
    rng = random.Random(seed)
    pool = multi_attr_subs(200, rng)  # shared pool of distinct predicates
    events = make_events(n_events, rng)

    index = LinkIndex()
    unions = []
    for child in range(n_children):
        union = index.new_union()
        for i in range(subs_per_child):
            union.add(rng.choice(pool)[1])
        unions.append(union)
    for attributes in events:
        index.links_of_batch([attributes])
    matcher = index.matcher
    return {
        "n_links": n_children,
        "subs_total": n_children * subs_per_child,
        "pool_size": len(pool),
        "active_signatures": sum(
            len({compiled(p).signature for p in union.predicates()}) for union in unions
        ),
        "index_keys": len(matcher),
        "aggregate_evals": matcher.candidates_seen + matcher.residual_evals,
    }


def measure_baseline_metrics() -> dict:
    """The headline numbers gated by check_baseline.py.

    Wall-clock rates vary with the host; the fan-out work counters are
    deterministic and are what CI holds tightly.
    """
    runs = {
        (kind, n_subs): run_matching_workload(kind, n_subs, 2000)
        for kind in ("single", "multi")
        for n_subs in (1000, 10_000)
    }
    rows = {
        f"matcher_eps_{kind}_{n_subs}": round(r["first_pass_eps"], 0)
        for (kind, n_subs), r in runs.items()
    }
    rows["matcher_batch_eps_multi_10000"] = round(runs["multi", 10_000]["steady_eps"], 0)
    fan = run_fanout_filtering()
    rows["matcher_aggregate_evals_fanout"] = fan["aggregate_evals"]
    rows["matcher_active_signatures_fanout"] = fan["active_signatures"]
    rows["matcher_index_keys_fanout"] = fan["index_keys"]
    return rows


# ---------------------------------------------------------------------------
# The pytest bench
# ---------------------------------------------------------------------------
def test_counting_matcher_throughput():
    n_events = 10_000 if full_scale() else 3000
    results = [
        run_matching_workload(kind, n_subs, n_events)
        for kind in ("single", "multi")
        for n_subs in (1000, 5000, 10_000)
    ]
    fan = run_fanout_filtering()

    rows = [
        [
            f"{r['kind']}/{r['n_subs']}",
            f"{r['first_pass_eps']:,.0f}",
            f"{r['steady_eps']:,.0f}",
            f"{r['sig_memo_hits']:,}",
        ]
        for r in results
    ]
    rows.append(
        [
            f"fanout link match ({fan['n_links']} links x "
            f"{fan['subs_total'] // fan['n_links']} subs)",
            f"{fan['aggregate_evals']:,} evals",
            f"{fan['active_signatures']} active sigs",
            f"{fan['index_keys']} index keys",
        ]
    )
    write_result(
        "matching",
        format_table(
            "Counting matcher (events/sec; first pass = match() per event "
            f"with caches filling, steady = match_batch({BATCH_SIZE}) memoized)",
            ["workload", "first pass", "steady", "memo hits"],
            rows,
        ),
    )

    by_key = {(r["kind"], r["n_subs"]): r for r in results}
    headline = by_key[("multi", 10_000)]
    # The steady state must be carried by the caches, and the memo must
    # pay where the counting loop dominates.
    assert headline["sig_memo_hits"] >= n_events
    assert headline["probe_cache_hits"] > 0
    assert headline["steady_eps"] > headline["first_pass_eps"]
    # Signature dedup: a link never consults more signatures than the
    # pool has distinct predicates, however many subscribers share them.
    assert fan["active_signatures"] <= fan["n_links"] * fan["pool_size"]
