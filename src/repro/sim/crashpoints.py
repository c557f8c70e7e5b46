"""Deterministic crash-point exploration of the storage stack.

PR 2's chaos soak samples crashes at *random* times, so a crash that
lands exactly between "record appended" and "durable callback fired"
is only hit by luck.  This module instead enumerates every durability
boundary the storage stack crosses during a scripted scenario and
replays the scenario once per boundary, crashing the broker that owns
the storage *at* that boundary — ALICE/CrashMonkey-style systematic
exploration.

Mechanics
---------

* Storage modules (``storage/disk.py``, ``storage/table.py``,
  ``storage/logvolume.py``, ``storage/eventlog.py``, ``pfs/pfs.py``)
  call ``HOOKS.fire(site, owner)`` at each durability boundary, e.g.
  just before and just after a ``PersistentTable`` batch lands in the
  committed view.  ``HOOKS`` is the registry in
  :mod:`repro.util.crashhooks`; with no listener installed (the
  default) ``fire`` is never even called — call sites guard with
  ``if HOOKS.enabled:`` — so the instrumented code is byte-identical
  in behavior to the uninstrumented code (pinned by the determinism
  digest fixtures).

* A **census** run installs a recording listener and replays the
  scripted scenario once, yielding the ordered list of crash points:
  firing ``seq`` (ordinal), ``site`` (e.g. ``pfs.durable.pre``) and
  ``owner`` (the broker whose storage fired).  Sites are free-form —
  when the PFS hot path moved from per-record appends
  (``pfs.write.pre``) to columnar batches (``pfs.write_batch.pre``,
  one firing per pump advance), the census discovered the new
  boundaries without any change here.

* An **injection** run installs a listener armed with one target
  ``seq``.  The simulation prefix is deterministic, so the target
  firing happens at exactly the census-observed boundary; the listener
  raises :class:`SimulatedCrash`, which unwinds out of
  ``Scheduler.run_until`` mid-event — precisely the torn state a real
  crash leaves.  The explorer then crash-stops the owning broker
  (voiding staged writes, exactly like the chaos soak), schedules
  recovery, finishes the script, waits for convergence, and runs the
  oracle suite from :mod:`repro.sim.oracles`.

Run it from the command line::

    PYTHONPATH=src python -m repro.sim.crashpoints --max-points 120 \
        --out explorer_summary.json
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..broker.topology import (
    build_deep_overlay,
    build_star,
    build_two_broker,
    place_durable_subscribers,
)
from ..client.publisher import ReliablePublisher
from ..matching.predicates import In
from ..net.node import Node
from ..net.simtime import Scheduler
from ..util.crashhooks import HOOKS, CrashPointHooks
from .failures import FailureSchedule
from .scenario import Scenario

__all__ = [
    "HOOKS",
    "CrashPoint",
    "CrashPointHooks",
    "SimulatedCrash",
    "CrashOutcome",
    "ExplorationSummary",
    "census",
    "explore",
    "select_points",
]


# ----------------------------------------------------------------------
# Crash points and the listeners that enumerate / arm them
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrashPoint:
    """One numbered durability-boundary firing in the scripted run."""

    seq: int                 # firing ordinal within the run (0-based)
    site: str                # boundary name, e.g. "disk.sync.callback"
    owner: Optional[str]     # name of the broker owning the storage

    def label(self) -> str:
        return f"#{self.seq} {self.site}@{self.owner}"


class SimulatedCrash(Exception):
    """Raised by an armed hook listener to tear the simulation mid-event.

    Deliberately *not* a subclass of any repro error type: nothing in
    ``src/`` catches broad exceptions, so the unwind reaches the
    explorer's ``run_until`` call with all intermediate state torn —
    the same cut a power failure would make.
    """

    def __init__(self, point: CrashPoint) -> None:
        super().__init__(point.label())
        self.point = point


class _CensusListener:
    """Records every firing, in order."""

    def __init__(self) -> None:
        self.points: List[CrashPoint] = []

    def __call__(self, site: str, owner: Optional[str]) -> None:
        self.points.append(CrashPoint(len(self.points), site, owner))


class _InjectListener:
    """Counts firings and raises at the target ordinal, exactly once."""

    def __init__(self, target_seq: int) -> None:
        self.target_seq = target_seq
        self.seq = 0
        self.fired: Optional[CrashPoint] = None

    def __call__(self, site: str, owner: Optional[str]) -> None:
        seq = self.seq
        self.seq += 1
        if seq == self.target_seq and self.fired is None:
            self.fired = CrashPoint(seq, site, owner)
            raise SimulatedCrash(self.fired)


# ----------------------------------------------------------------------
# The scripted scenarios (topology + feed on the shared scaffold)
# ----------------------------------------------------------------------
def _populate(
    scn: Scenario,
    prefix: str,
    homes: Sequence[Sequence[object]],
    groups: Sequence[Sequence[int]],
    publishers: Sequence[Tuple[str, str]],
    publish_until_ms: float,
) -> None:
    """Per tree: subscribers on ``homes[k]``, one publisher, the feed.

    Each tree publishes its own three ``groups[k]`` round-robin at 150
    events/s until ``publish_until_ms``; subscriber *j* of a tree takes
    two adjacent groups, so predicates overlap (PFS records multiplex)
    and never cross trees.  The publishers are *reliable* (go-back-N +
    PHB seq dedup), so PHB-side crash points at the event log and seq
    table are on the exactly-once path, not the fire-and-forget one.
    """
    sim = scn.sim
    for tree_homes, g in zip(homes, groups):
        for j, shb in enumerate(tree_homes):
            n = len(scn.subscribers) + 1
            scn.subscriber(
                f"{prefix}-s{n}", f"{prefix}-m{n}",
                In("group", [g[j % 3], g[(j + 1) % 3]]), shb,
            )
    for tree, (machine, name) in zip(scn.overlay.trees, publishers):
        scn.publishers.append(ReliablePublisher(
            sim, tree.phb, Node(sim, machine), name, tree.pubend_names[0],
            retransmit_ms=400.0,
        ))
    sent = 0

    def feed() -> None:
        nonlocal sent
        if sim.now < publish_until_ms:
            for pub, g in zip(scn.publishers, groups):
                pub.publish({"group": g[sent % 3]})
            sent += 1

    sim.every(1000.0 / 150.0, feed)


#: Publisher stops here; the script keeps running so releases and chops
#: still happen over the full log.
PUBLISH_UNTIL_MS = 2_400.0
#: End of the scripted portion (census enumerates boundaries up to here).
SCRIPT_END_MS = 3_600.0


def _build_scenario() -> Scenario:
    """A compact two-broker run exercising every storage subsystem.

    Three subscribers with overlapping ``In`` predicates, a mid-run
    disconnect/reconnect (so catchup reads and release chops happen
    during the scripted window, not only in the post-crash tail),
    releases flowing (acks every 250 ms), a reliable publisher, and the
    reconnect supervisor so injected crashes always heal.
    """
    sim = Scheduler()
    overlay = build_two_broker(sim, pubends=["P1"])
    shb = overlay.shbs[0]
    scn = Scenario(sim, overlay)
    _populate(
        scn, "xp", [[shb] * 3], [[0, 1, 2]], [("xp-pub-machine", "xp-pub")],
        PUBLISH_UNTIL_MS,
    )
    scn.bounce(scn.subscribers[1], 700.0, 1_500.0)
    scn.start(truth_ms=50.0)
    sim.every(331.0, scn.supervise)
    return scn


#: Publish cutoff / script end for the dynamic-topology scenario.  The
#: tail is long enough for the drain's detach grace (the drained SHB
#: keeps reporting releases for ~2.5 s after its last row drops).
MIGRATION_PUBLISH_UNTIL_MS = 2_600.0
MIGRATION_SCRIPT_END_MS = 6_500.0


def _build_migration_scenario() -> Scenario:
    """Join → mid-catchup migration → drain, under the hook census.

    Exercises every ``migrate.*`` durability boundary plus the storage
    boundaries the handoff crosses (registry, meta-table and CT commits
    on both SHBs) on a PHB → 2-SHB star that grows a third SHB
    mid-script (:meth:`Scenario.script_handoff`).
    """
    sim = Scheduler()
    overlay = build_star(sim, ["P1"], 2)
    source, other = overlay.shbs
    scn = Scenario(sim, overlay)
    _populate(
        scn, "mgx", [[source, source, other]], [[0, 1, 2]],
        [("mgx-pub-machine", "mgx-pub")], MIGRATION_PUBLISH_UNTIL_MS,
    )
    scn.start(truth_ms=50.0)
    scn.script_handoff(
        scn.subscribers[0], source, "mgx-joiner", nap_ms=500.0, join_ms=800.0,
        wake_ms=1_500.0, migrate_ms=1_560.0, drain_ms=2_700.0,
    )
    sim.every(331.0, scn.supervise)
    return scn


#: Publish cutoff / script end for the generated-forest scenario.
SCALE_PUBLISH_UNTIL_MS = 2_400.0
SCALE_SCRIPT_END_MS = 4_500.0


def _build_scale_scenario() -> Scenario:
    """A *generated* multi-PHB forest with redundant-path failover.

    The wide/deep topology generator grows two PHB-rooted trees (two
    intermediate paths each, one spare per tree) through the same
    attach APIs a live join uses; headless durable subscriptions are
    seeded across the forest and two subtrees — one bare SHB, one
    intermediate with its subtree — fail over onto spares *inside the
    scripted window*, so the census enumerates durability boundaries
    while reparenting is in flight.  Each tree publishes a disjoint
    group namespace, so a subscriber's expected set stays confined to
    the tree that can actually reach it.
    """
    sim = Scheduler()
    federation = build_deep_overlay(
        sim, n_trees=2, pubends_per_tree=1, fanout=(2,), shbs_per_leaf=1,
        spares_per_level=1,
    )
    # Tree k publishes groups [3k, 3k+3); predicates never cross trees.
    groups = [list(range(3 * k, 3 * k + 3)) for k in range(2)]
    place_durable_subscribers(
        federation, 6, [In("group", (g,)) for tree in groups for g in tree],
        seed=0, prefix="sx-h",
    )
    scn = Scenario(sim, federation)
    _populate(
        scn, "sx", [tree.shbs for tree in federation.trees], groups,
        [("sx-pub-m1", "sx-pub1"), ("sx-pub-m2", "sx-pub2")],
        SCALE_PUBLISH_UNTIL_MS,
    )
    scn.start(truth_ms=50.0)
    # Scripted churn + two redundant-path failovers inside the window:
    # a bare SHB hops onto tree 1's spare, then a whole intermediate
    # subtree (intermediate + its SHB) hops onto tree 2's spare.
    scn.bounce(scn.subscribers[1], 700.0, 1_500.0)
    sim.at(1_200.0, lambda: federation.fail_over(
        federation.trees[0].shbs[0], federation.spares[(0, 1)][0]
    ))
    sim.at(1_800.0, lambda: federation.fail_over(
        federation.trees[1].intermediates[0], federation.spares[(1, 1)][0]
    ))
    sim.every(331.0, scn.supervise)
    return scn


#: Scenario registry: name -> (builder, end of the scripted window).
#: ``storage`` is the original two-broker script over the storage
#: stack; ``migration`` adds the dynamic-topology handoff windows
#: (``migrate.*`` hook sites); ``scale`` sweeps a *generated* multi-PHB
#: forest while subtrees fail over onto redundant-path spares.
SCENARIOS: Dict[str, Tuple[Callable[[], Scenario], float]] = {
    "storage": (_build_scenario, SCRIPT_END_MS),
    "migration": (_build_migration_scenario, MIGRATION_SCRIPT_END_MS),
    "scale": (_build_scale_scenario, SCALE_SCRIPT_END_MS),
}


def _advance(scn: Scenario, until: float, on_crash) -> None:
    """run_until that converts a SimulatedCrash into a broker crash."""
    while True:
        try:
            scn.sim.run_until(until)
            return
        except SimulatedCrash as exc:
            on_crash(exc.point)


def _play(
    scn: Scenario, script_end_ms: float, grace_ms: float, on_crash
) -> Optional[float]:
    """Play the script, then run on until every subscriber has
    everything: the convergence time, or None past the grace deadline."""
    # The feeder stops itself at the scenario's publish cutoff; the
    # remaining window lets releases, chops and retransmissions (and,
    # in the migration scenario, the drain) play out under hooks.
    _advance(scn, script_end_ms, on_crash)
    return scn.converge(
        script_end_ms + grace_ms, 250.0,
        advance=lambda until: _advance(scn, until, on_crash),
    )


# ----------------------------------------------------------------------
# Census, selection, exploration
# ----------------------------------------------------------------------
def census(scenario: str = "storage") -> List[CrashPoint]:
    """Enumerate every boundary firing in the scripted scenario."""
    listener = _CensusListener()
    builder, script_end_ms = SCENARIOS[scenario]
    scn = builder()
    HOOKS.install(listener)
    try:
        _advance(scn, script_end_ms, on_crash=lambda point: None)
    finally:
        HOOKS.uninstall()
    return listener.points


def select_points(
    points: List[CrashPoint], max_points: Optional[int]
) -> List[CrashPoint]:
    """Deterministic stratified subset: cover every distinct
    (site, owner) boundary kind first, then fill the budget with an
    even stride over the remaining firings so the whole timeline is
    sampled, not just the warm-up."""
    if max_points is None or max_points >= len(points):
        return list(points)
    groups: Dict[Tuple[str, Optional[str]], List[CrashPoint]] = {}
    for p in points:
        groups.setdefault((p.site, p.owner), []).append(p)
    chosen: Dict[int, CrashPoint] = {}
    for key in sorted(groups, key=lambda k: (k[0], k[1] or "")):
        first = groups[key][0]
        chosen[first.seq] = first
        if len(chosen) >= max_points:
            break
    rest = [p for p in points if p.seq not in chosen]
    need = max_points - len(chosen)
    if need > 0 and rest:
        stride = len(rest) / need
        for k in range(need):
            p = rest[min(int(k * stride), len(rest) - 1)]
            chosen[p.seq] = p
    return sorted(chosen.values(), key=lambda p: p.seq)


@dataclass
class CrashOutcome:
    """Result of one injection run."""

    point: CrashPoint
    crashed_broker: Optional[str]
    converged_at_ms: Optional[float]
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> Dict[str, object]:
        return {
            "seq": self.point.seq,
            "site": self.point.site,
            "owner": self.point.owner,
            "crashed_broker": self.crashed_broker,
            "converged_at_ms": self.converged_at_ms,
            "violations": list(self.violations),
        }


@dataclass
class ExplorationSummary:
    """Everything a CI artifact (or a human) needs from one sweep."""

    census_points: int
    distinct_sites: int
    baseline_violations: List[str]
    outcomes: List[CrashOutcome]

    @property
    def violations(self) -> List[Tuple[Optional[CrashPoint], str]]:
        out: List[Tuple[Optional[CrashPoint], str]] = [
            (None, v) for v in self.baseline_violations
        ]
        for outcome in self.outcomes:
            out.extend((outcome.point, v) for v in outcome.violations)
        return out

    def to_json(self) -> Dict[str, object]:
        sites: Dict[str, int] = {}
        for outcome in self.outcomes:
            sites[outcome.point.site] = sites.get(outcome.point.site, 0) + 1
        return {
            "census_points": self.census_points,
            "distinct_sites": self.distinct_sites,
            "explored_points": len(self.outcomes),
            "explored_by_site": dict(sorted(sites.items())),
            "baseline_violations": list(self.baseline_violations),
            "violation_count": len(self.violations),
            "unconverged": [
                o.point.label() for o in self.outcomes
                if o.converged_at_ms is None
            ],
            "outcomes": [o.to_json() for o in self.outcomes if o.violations],
        }


def _explore_one(
    point: CrashPoint,
    down_ms: float,
    grace_ms: float,
    scenario: str = "storage",
) -> CrashOutcome:
    """Replay the scenario, crash at ``point``, recover, run oracles."""
    builder, script_end_ms = SCENARIOS[scenario]
    scn = builder()
    schedule = FailureSchedule(scn.sim)
    listener = _InjectListener(point.seq)
    crashed: List[str] = []

    def on_crash(fired: CrashPoint) -> None:
        broker = scn.broker_of(fired.owner)
        if broker is None:
            crashed.append(f"<unowned:{fired.site}>")
            return
        crashed.append(broker.name)
        schedule.crash_now(broker, down_ms)

    HOOKS.install(listener)
    try:
        converged_at = _play(scn, script_end_ms, grace_ms, on_crash)
    finally:
        HOOKS.uninstall()

    violations = scn.verdict()
    if listener.fired is None:
        violations.append(
            f"{point.label()}: target firing never happened "
            f"(census/injection divergence; saw {listener.seq} firings)"
        )
    elif listener.fired.site != point.site or listener.fired.owner != point.owner:
        violations.append(
            f"{point.label()}: fired as {listener.fired.label()} "
            "(census/injection divergence)"
        )
    if crashed and crashed[0].startswith("<unowned:"):
        violations.append(f"{point.label()}: boundary fired with no owner")
    if converged_at is None:
        violations.append(
            f"{point.label()}: no convergence within {grace_ms:.0f} ms grace"
        )
    return CrashOutcome(
        point=point,
        crashed_broker=crashed[0] if crashed else None,
        converged_at_ms=converged_at,
        violations=violations,
    )


def explore(
    max_points: Optional[int] = None,
    down_ms: float = 450.0,
    grace_ms: float = 20_000.0,
    progress: Optional[Callable[[int, int, CrashOutcome], None]] = None,
    scenario: str = "storage",
    sites: Optional[List[str]] = None,
) -> ExplorationSummary:
    """Census the scenario, then crash it at (a stratified subset of)
    every enumerated boundary and oracle-check each recovery.

    ``scenario`` names a :data:`SCENARIOS` entry; ``sites`` optionally
    restricts the injected points to those whose site name starts with
    one of the given prefixes (e.g. ``["migrate."]`` sweeps only the
    handoff boundaries — the census still enumerates everything, so the
    injection prefix stays deterministic).

    The baseline (no-crash) run is oracle-checked too: a violation
    there means the scenario itself is broken, not recovery.
    """
    points = census(scenario)

    builder, script_end_ms = SCENARIOS[scenario]
    baseline = builder()
    baseline_converged = _play(
        baseline, script_end_ms, grace_ms, on_crash=lambda point: None
    )
    baseline_violations = baseline.verdict()
    if baseline_converged is None:
        baseline_violations.append("baseline run did not converge")

    candidates = points
    if sites:
        candidates = [
            p for p in points
            if any(p.site.startswith(prefix) for prefix in sites)
        ]
    selected = select_points(candidates, max_points)
    outcomes: List[CrashOutcome] = []
    for i, point in enumerate(selected):
        outcome = _explore_one(point, down_ms, grace_ms, scenario)
        outcomes.append(outcome)
        if progress is not None:
            progress(i + 1, len(selected), outcome)

    return ExplorationSummary(
        census_points=len(points),
        distinct_sites=len({(p.site, p.owner) for p in points}),
        baseline_violations=baseline_violations,
        outcomes=outcomes,
    )


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Systematically crash every storage durability "
        "boundary in a scripted pub/sub scenario and verify recovery."
    )
    parser.add_argument(
        "--max-points", type=int, default=None,
        help="bound the injection runs to a stratified subset "
        "(default: every enumerated point — the full sweep)",
    )
    parser.add_argument("--down-ms", type=float, default=450.0,
                        help="how long a crashed broker stays down")
    parser.add_argument("--grace-ms", type=float, default=20_000.0,
                        help="post-script convergence grace window")
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON summary here")
    parser.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default="storage",
        help="which scripted scenario to sweep (default: storage)",
    )
    parser.add_argument(
        "--sites", type=str, default=None,
        help="comma-separated site-name prefixes to restrict injections "
        'to (e.g. "migrate." sweeps only the handoff boundaries)',
    )
    args = parser.parse_args(argv)

    def progress(done: int, total: int, outcome: CrashOutcome) -> None:
        if outcome.violations or done % 25 == 0 or done == total:
            status = "VIOLATION" if outcome.violations else "ok"
            print(f"[{done}/{total}] {outcome.point.label()}: {status}")
            for v in outcome.violations:
                print(f"    {v}")

    sites = (
        [s for s in args.sites.split(",") if s] if args.sites else None
    )
    summary = explore(
        max_points=args.max_points, down_ms=args.down_ms,
        grace_ms=args.grace_ms, progress=progress,
        scenario=args.scenario, sites=sites,
    )
    blob = summary.to_json()
    print(json.dumps({k: blob[k] for k in (
        "census_points", "distinct_sites", "explored_points",
        "violation_count",
    )}))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(blob, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if summary.violations else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
