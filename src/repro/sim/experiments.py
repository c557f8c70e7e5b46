"""The paper's experiments as reusable harness functions.

Each paper figure is a judged :class:`~.scenario.Scenario` run: build
the relevant Figure-3 topology and the Section-5 workload, adopt its
fleet into the scenario, sample the metrics the paper plots, stop the
feed, then drain and judge.  Every result carries ``violations`` —
the verdict of every oracle family, empty when the run delivered
exactly once, in order and completely.  The ``benchmarks/`` directory
is a thin layer over these: one bench per table/figure, printing the
same rows/series the paper reports once the verdict is clean.  See
DESIGN.md §3 for the experiment index.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, TypeVar

from ..broker.base import SUBSCRIPTION_REFRESH_MS, Broker
from ..broker.shb import SubscriberHostingBroker
from ..broker.topology import (
    Federation,
    build_chain,
    build_deep_overlay,
    build_single_broker,
    build_star,
    build_tree,
    build_two_broker,
    place_durable_subscribers,
)
from ..client.publisher import PeriodicPublisher
from ..client.subscriber import DurableSubscriber
from ..jms.ctstore import CheckpointCommitService
from ..jms.session import AUTO_ACKNOWLEDGE, JMSDurableSubscriber
from ..matching.predicates import Eq, Everything, In
from ..metrics.collector import MetricsCollector
from ..metrics.histogram import LatencyHistogram
from ..metrics.report import export_json, percentile
from ..metrics.trace import E2E_CATCHUP_LAG, E2E_PUBLISH_DELIVER, install_tracer
from ..net.link import FaultSpec, link_stats
from ..net.node import Node
from ..net.simtime import Scheduler
from ..util.rate import Series
from ..workloads.generator import ChurnSchedule, PaperWorkloadSpec, make_publishers
from .failures import ChaosSchedule, ProgressWatchdog
from .scenario import Scenario, make_subscribers

_Result = TypeVar("_Result")


def _judged(scn: Scenario, result: _Result) -> _Result:
    """``result``, every number in it already read and the feed
    stopped, with the verdict of the settled run."""
    result.violations = scn.settle()
    return result


# ---------------------------------------------------------------------------
# Scalability (Figure 4)
# ---------------------------------------------------------------------------
@dataclass
class ScalabilityResult:
    n_shbs: int
    subscribers: int
    churn: bool
    offered_rate: float          # events/s the subscribers should receive
    achieved_rate: float         # events/s they actually received
    phb_idle: float              # CPU idle fraction at the PHB
    shb_idle_mean: float         # mean CPU idle fraction across SHBs
    single_broker: bool = False
    disconnects: int = 0
    catchup_count: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def efficiency(self) -> float:
        return self.achieved_rate / self.offered_rate if self.offered_rate else 0.0


@dataclass
class ScalabilitySetup:
    """Everything :func:`drive_scalability` needs, built untimed.

    Splitting construction from driving lets benchmarks keep workload
    assembly (brokers, links, clients, churn schedule) out of the timed
    region; the simulated run is identical either way because nothing
    here advances the clock.
    """

    sim: Scheduler
    overlay: object
    publishers: List[object]
    subscribers: List[DurableSubscriber]
    schedule: Optional[ChurnSchedule]
    spec: PaperWorkloadSpec
    n_shbs: int
    subs_per_shb: int
    churn: bool
    duration_ms: float
    warmup_ms: float
    single_broker: bool


def prepare_scalability(
    n_shbs: int,
    subs_per_shb: int,
    churn: bool = False,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 5_000.0,
    spec: Optional[PaperWorkloadSpec] = None,
    churn_period_ms: float = 60_000.0,
    churn_down_ms: float = 1_000.0,
    single_broker: bool = False,
    batch_window_ms: float = 0.0,
) -> ScalabilitySetup:
    """Build one bar of Figure 4 without running it.

    Churn defaults are time-compressed relative to the paper (which
    used 300 s period / 5 s down over long runs) with the same
    down-to-period ratio, so the steady-state fraction of subscribers
    in catchup matches; pass the paper's values for a full-length run.
    """
    spec = spec or PaperWorkloadSpec()
    sim = Scheduler()
    if single_broker:
        overlay = build_single_broker(
            sim, spec.pubend_names(), batch_window_ms=batch_window_ms
        )
    else:
        overlay = build_star(
            sim, spec.pubend_names(), n_shbs=n_shbs, batch_window_ms=batch_window_ms
        )
    publishers = make_publishers(sim, overlay.phb, spec)
    subscribers = make_subscribers(sim, overlay.shbs, spec, subs_per_shb)
    shb_of = {sub.sub_id: overlay.shbs[i // subs_per_shb] for i, sub in enumerate(subscribers)}
    schedule: Optional[ChurnSchedule] = None
    if churn:
        schedule = ChurnSchedule(
            sim,
            subscribers,
            shb_of=lambda s: shb_of[s.sub_id],
            period_ms=churn_period_ms,
            down_ms=churn_down_ms,
            start_after_ms=warmup_ms,
        )
    return ScalabilitySetup(
        sim=sim,
        overlay=overlay,
        publishers=publishers,
        subscribers=subscribers,
        schedule=schedule,
        spec=spec,
        n_shbs=n_shbs,
        subs_per_shb=subs_per_shb,
        churn=churn,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        single_broker=single_broker,
    )


def _reconnect_catchups(shbs: Sequence[SubscriberHostingBroker], since_ms: float) -> List[float]:
    """Durations of the catchups begun at ``since_ms`` or later: the
    reconnects, when every first connect (which catches up to its
    registration's confirmation) is served before it."""
    return [d for s in shbs for end, d in s.catchup_durations_ms if end - d >= since_ms]


def drive_scalability(setup: ScalabilitySetup) -> ScalabilityResult:
    """Run a prepared Figure-4 scenario: warmup, measure, judge, report."""
    sim = setup.sim
    overlay = setup.overlay
    subscribers = setup.subscribers
    scn = Scenario(sim, overlay)
    scn.adopt(subscribers, lambda i: overlay.shbs[i // setup.subs_per_shb])
    sim.run_until(setup.warmup_ms)
    start_events = sum(s.stats.events for s in subscribers)
    phb_busy_0 = overlay.phb.node.busy.total_busy_ms
    shb_busy_0 = [s.node.busy.total_busy_ms for s in overlay.shbs]
    t0 = sim.now
    sim.run_until(setup.warmup_ms + setup.duration_ms)
    elapsed = sim.now - t0
    achieved = (sum(s.stats.events for s in subscribers) - start_events) * 1000.0 / elapsed
    phb_idle = 1.0 - (overlay.phb.node.busy.total_busy_ms - phb_busy_0) / elapsed
    shb_idles = [
        1.0 - (s.node.busy.total_busy_ms - b0) / elapsed
        for s, b0 in zip(overlay.shbs, shb_busy_0)
    ]
    if setup.schedule is not None:
        setup.schedule.stop()
    for pub in setup.publishers:
        pub.stop()
    # Under churn a subscriber misses events while away and catches up
    # on them after it returns; catch-up deliveries count toward the
    # achieved rate, so the full rate is the offered one.
    offered = setup.spec.per_subscriber_rate * setup.subs_per_shb * setup.n_shbs
    return _judged(scn, ScalabilityResult(
        n_shbs=setup.n_shbs,
        subscribers=setup.subs_per_shb * setup.n_shbs,
        churn=setup.churn,
        offered_rate=offered,
        achieved_rate=achieved,
        phb_idle=phb_idle,
        shb_idle_mean=sum(shb_idles) / len(shb_idles),
        single_broker=setup.single_broker,
        disconnects=setup.schedule.disconnects if setup.schedule else 0,
        catchup_count=len(_reconnect_catchups(
            overlay.shbs, setup.schedule.down_ms if setup.schedule else float("inf"))),
    ))


# ---------------------------------------------------------------------------
# Scale: 10^5 durable subscribers on a wide/deep forest (not a paper
# figure; the regime the paper's Summit deployment targets)
# ---------------------------------------------------------------------------
@dataclass
class ScaleResult:
    """Outcome of one :func:`drive_scale` point.

    ``matched_pairs`` counts (event, subscriber) pairs the SHBs logged
    to their PFSs — the durable fan-out work the system performs for a
    subscriber whether or not a client is connected, recovered from the
    record format itself (8 + 16n bytes per record, paper footnote 2).
    ``matched_pairs_per_wall_s`` is the headline throughput the scale
    bench gates.
    """

    n_subscribers: int
    n_trees: int
    n_intermediates: int
    n_shbs: int
    n_groups: int
    connected_clients: int
    events_published: int
    pfs_records: int
    pfs_bytes: int
    matched_pairs: int
    client_events: int
    sim_ms: float
    drive_wall_s: float

    @property
    def matched_pairs_per_wall_s(self) -> float:
        return self.matched_pairs / self.drive_wall_s if self.drive_wall_s else 0.0


@dataclass
class ScaleSetup:
    """A built (but not yet run) scale scenario.

    Construction — federation wiring, 10^4..10^5 headless durable
    registrations, live clients — is the expensive, *untimed* half;
    benchmarks wrap :func:`prepare_scale` in ``tracemalloc`` to measure
    per-subscriber memory and time only :func:`drive_scale`.
    """

    sim: Scheduler
    federation: Federation
    publishers: List[object]
    clients: List[DurableSubscriber]
    placed: Dict[str, List[str]]
    n_subscribers: int
    n_groups: int
    events_per_pubend: int
    rate_per_s: float
    warmup_ms: float
    drain_ms: float


def scale_topology(n_subscribers: int) -> Dict[str, object]:
    """Topology preset per scale point: wider and deeper as N grows."""
    if n_subscribers <= 10_000:
        # 2 trees x (1 level of 2 intermediates) x 8 SHBs = 32 SHBs.
        return {"n_trees": 2, "fanout": (2,), "shbs_per_leaf": 8,
                "spares_per_level": 1}
    if n_subscribers <= 50_000:
        # 2 trees x (2 x 2 leaf intermediates) x 8 SHBs = 64 SHBs.
        return {"n_trees": 2, "fanout": (2, 2), "shbs_per_leaf": 8,
                "spares_per_level": 1}
    # 2 trees x (2 x 3 levels) x 17 SHBs = 204 SHBs.
    return {"n_trees": 2, "fanout": (2, 3), "shbs_per_leaf": 17,
            "spares_per_level": 1}


def prepare_scale(
    n_subscribers: int,
    n_groups: int = 500,
    connected_clients: int = 24,
    events_per_pubend: int = 800,
    rate_per_s: float = 2_000.0,
    warmup_ms: float = 2_500.0,
    drain_ms: float = 1_500.0,
    seed: int = 0,
    topology: Optional[Dict[str, object]] = None,
    **shb_kwargs: object,
) -> ScaleSetup:
    """Build a scale point: forest, headless durables, live clients.

    ``n_subscribers`` durable subscriptions are placed across the
    forest's SHBs; ``connected_clients`` of the load are real
    :class:`DurableSubscriber` clients (ack timers, client links), the
    rest are registered headless — a disconnected durable subscription
    still costs its registry row, matching work and PFS records, which
    is exactly the per-subscriber state under test.  Subscriptions
    share ``n_groups`` distinct predicates (the shared-signature
    regime), so each event matches ~``N_tree/n_groups`` subscribers in
    its tree.
    """
    topo = dict(topology or scale_topology(n_subscribers))
    sim = Scheduler()
    federation = build_deep_overlay(sim, **topo, **shb_kwargs)  # type: ignore[arg-type]
    predicates = [In("group", (g,)) for g in range(n_groups)]

    headless = n_subscribers - connected_clients
    placed = place_durable_subscribers(
        federation, headless, predicates, seed=seed, prefix="scale-s"
    )

    # Live clients ride on top: seeded placement, 8 per client machine.
    rng_src = random.Random(f"scale-clients:{seed}")
    shbs = federation.shbs
    clients: List[DurableSubscriber] = []
    machines: List[Node] = []
    for i in range(connected_clients):
        m_idx = i // 8
        while m_idx >= len(machines):
            machines.append(Node(sim, f"scale-m{len(machines) + 1}"))
        sub = DurableSubscriber(
            sim, f"scale-live{i}", machines[m_idx],
            predicates[rng_src.randrange(n_groups)],
        )
        sub.connect(shbs[rng_src.randrange(len(shbs))])
        clients.append(sub)

    publishers: List[object] = []
    for tree in federation.trees:
        for pubend in tree.pubend_names:
            pub = PeriodicPublisher(
                sim, tree.phb, pubend, rate_per_s,
                attribute_fn=lambda i: {"group": i % n_groups},
            )
            publishers.append(pub)
    return ScaleSetup(
        sim=sim,
        federation=federation,
        publishers=publishers,
        clients=clients,
        placed=placed,
        n_subscribers=n_subscribers,
        n_groups=n_groups,
        events_per_pubend=events_per_pubend,
        rate_per_s=rate_per_s,
        warmup_ms=warmup_ms,
        drain_ms=drain_ms,
    )


def drive_scale(setup: ScaleSetup) -> ScaleResult:
    """Run a prepared scale point and report durable fan-out throughput.

    The warmup run absorbs subscription-add propagation (10^5 control
    messages crossing the forest) so the timed window measures the
    steady state: publish → disseminate through the intermediate levels
    → match at every SHB → PFS-log each matched subscriber → deliver to
    the connected clients.
    """
    sim = setup.sim
    federation = setup.federation
    sim.run_until(setup.warmup_ms)
    shbs = federation.shbs
    writes_0 = sum(s.pfs.writes for s in shbs)
    bytes_0 = sum(s.pfs.bytes_written for s in shbs)
    publish_ms = setup.events_per_pubend * 1000.0 / setup.rate_per_s
    for pub in setup.publishers:
        pub.start(first_delay_ms=0.0)
    stop_at = setup.warmup_ms + publish_ms
    for pub in setup.publishers:
        sim.at(stop_at, pub.stop)
    t0 = time.perf_counter()
    sim.run_until(stop_at + setup.drain_ms)
    drive_wall_s = time.perf_counter() - t0
    records = sum(s.pfs.writes for s in shbs) - writes_0
    pfs_bytes = sum(s.pfs.bytes_written for s in shbs) - bytes_0
    # Invert the record format (8 + 16n bytes): n summed over records.
    matched_pairs = (pfs_bytes - 8 * records) // 16
    return ScaleResult(
        n_subscribers=setup.n_subscribers,
        n_trees=len(federation.trees),
        n_intermediates=sum(len(t.intermediates) for t in federation.trees),
        n_shbs=len(shbs),
        n_groups=setup.n_groups,
        connected_clients=len(setup.clients),
        events_published=sum(p.published for p in setup.publishers),
        pfs_records=records,
        pfs_bytes=pfs_bytes,
        matched_pairs=int(matched_pairs),
        client_events=sum(s.stats.events for s in setup.clients),
        sim_ms=sim.now,
        drive_wall_s=drive_wall_s,
    )


# ---------------------------------------------------------------------------
# End-to-end latency (Section 5 summary result 1)
# ---------------------------------------------------------------------------
@dataclass
class LatencyResult:
    hops: int
    mean_ms: float
    p50_ms: float
    p99_ms: float
    logging_mean_ms: float       # publish -> durable at the PHB
    samples: int
    violations: List[str] = field(default_factory=list)


def run_latency(
    n_intermediates: int = 3,
    rate_per_s: float = 50.0,
    duration_ms: float = 30_000.0,
    spec_payload: int = 250,
) -> LatencyResult:
    """End-to-end latency over a broker chain (5 brokers by default).

    Events carry their publish time; the subscriber records the
    difference on consumption.  The PHB-side logging component is
    measured at the pubend (publish→durable), reproducing the paper's
    50 ms total / 44 ms logging split.
    """
    sim = Scheduler()
    overlay = build_chain(sim, ["P1"], n_intermediates=n_intermediates)
    latencies: List[float] = []

    machine = Node(sim, "client")
    sub = DurableSubscriber(
        sim, "s1", machine, Everything(),
        on_event=lambda msg: latencies.append(sim.now - msg.event.attributes["pub_time"]),
    )
    sub.connect(overlay.shbs[0])
    scn = Scenario(sim, overlay)
    scn.adopt([sub], lambda i: overlay.shbs[0])
    pub = PeriodicPublisher(
        sim, overlay.phb, "P1", rate_per_s,
        attribute_fn=lambda i: {"group": 0, "pub_time": sim.now},
        payload_bytes=spec_payload,
    )
    pub.start()
    sim.run_until(duration_ms)
    pub.stop()
    sim.run_until(duration_ms + 2_000.0)
    logging = overlay.phb.pubends["P1"].log_latency_ms
    return _judged(scn, LatencyResult(
        hops=n_intermediates + 2,
        mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        p50_ms=percentile(latencies, 50),
        p99_ms=percentile(latencies, 99),
        logging_mean_ms=sum(logging) / len(logging) if logging else 0.0,
        samples=len(latencies),
    ))


# ---------------------------------------------------------------------------
# Traced latency histograms (observability layer over the same chain)
# ---------------------------------------------------------------------------
@dataclass
class LatencyTraceResult:
    """Histogram-based latency result from the sampling tracer.

    Unlike :class:`LatencyResult` (which needs the workload to smuggle
    ``pub_time`` through event attributes), this uses the tracer's
    span records, so it also measures per-hop components and the
    catchup lag of a subscriber that reconnects mid-run.
    """

    sample_rate: float
    traces_started: int
    consumes_observed: int
    e2e_p50_ms: float
    e2e_p95_ms: float
    e2e_p99_ms: float
    e2e_samples: int
    catchup_p50_ms: float
    catchup_p95_ms: float
    catchup_p99_ms: float
    catchup_samples: int
    span_histograms: Dict[str, Dict[str, object]]
    export: Dict[str, object]
    violations: List[str] = field(default_factory=list)


def run_latency_trace(
    n_intermediates: int = 1,
    rate_per_s: float = 100.0,
    duration_ms: float = 20_000.0,
    sample_rate: float = 0.25,
    seed: int = 7,
    disconnect_at_ms: float = 6_000.0,
    reconnect_at_ms: float = 10_000.0,
    export_path: Optional[str] = None,
) -> LatencyTraceResult:
    """Traced latency over a broker chain, with a mid-run reconnect.

    Two Everything() subscribers share one SHB: ``steady`` stays
    connected for the whole run (its consumes populate
    ``e2e.publish_deliver``); ``churner`` disconnects and reconnects,
    so events published while it was away reach it through a catchup
    stream and populate ``e2e.catchup_lag`` — the quantity a
    reconnecting durable subscriber actually experiences (it includes
    the disconnected span).
    """
    sim = Scheduler()
    tracer = install_tracer(sim, sample_rate, seed=seed)
    overlay = build_chain(sim, ["P1"], n_intermediates=n_intermediates)
    shb = overlay.shbs[0]

    steady = DurableSubscriber(sim, "steady", Node(sim, "m-steady"), Everything())
    steady.connect(shb)
    churner = DurableSubscriber(sim, "churner", Node(sim, "m-churner"), Everything())
    churner.connect(shb)
    sim.at(disconnect_at_ms, churner.disconnect)
    sim.at(reconnect_at_ms, lambda: churner.connect(shb))
    scn = Scenario(sim, overlay)
    scn.adopt([steady, churner], lambda i: shb)

    pub = PeriodicPublisher(
        sim, overlay.phb, "P1", rate_per_s,
        attribute_fn=lambda i: {"group": i % 4},
    )
    collector = MetricsCollector(sim, interval_ms=1_000.0)
    collector.latency(
        "phb.log_latency", lambda: overlay.phb.pubends["P1"].log_latency_ms
    )
    collector.counter_rate("published", lambda: float(pub.published))
    collector.cpu_idle("phb_idle", overlay.phb.node)
    collector.start()
    pub.start()
    sim.run_until(duration_ms)
    pub.stop()
    sim.run_until(duration_ms + 5_000.0)  # drain catchup + in-flight
    collector.stop()

    e2e = tracer.histograms.get(E2E_PUBLISH_DELIVER, LatencyHistogram(E2E_PUBLISH_DELIVER))
    lag = tracer.histograms.get(E2E_CATCHUP_LAG, LatencyHistogram(E2E_CATCHUP_LAG))
    export = export_json(
        collector,
        path=export_path,
        tracer=tracer,
        extra={
            "experiment": "run_latency_trace",
            "hops": n_intermediates + 2,
            "rate_per_s": rate_per_s,
            "duration_ms": duration_ms,
            "events_consumed_steady": steady.stats.events,
            "events_consumed_churner": churner.stats.events,
        },
    )
    return _judged(scn, LatencyTraceResult(
        sample_rate=sample_rate,
        traces_started=tracer.started,
        consumes_observed=tracer.consumed,
        e2e_p50_ms=e2e.p50,
        e2e_p95_ms=e2e.p95,
        e2e_p99_ms=e2e.p99,
        e2e_samples=e2e.count,
        catchup_p50_ms=lag.p50,
        catchup_p95_ms=lag.p95,
        catchup_p99_ms=lag.p99,
        catchup_samples=lag.count,
        span_histograms={
            name: hist.snapshot() for name, hist in sorted(tracer.histograms.items())
        },
        export=export,
    ))


# ---------------------------------------------------------------------------
# Catchup durations & stream rates (Figures 5 and 6)
# ---------------------------------------------------------------------------
@dataclass
class StreamRatesResult:
    catchup_durations_ms: List[float]
    latest_delivered_rate: Series       # tick-ms advanced per second
    released_rate: Series
    latest_delivered_value: Series
    released_value: Series
    violations: List[str] = field(default_factory=list)


def run_stream_rates(
    duration_ms: float = 60_000.0,
    churn_period_ms: float = 20_000.0,
    churn_down_ms: float = 1_000.0,
    subs: int = 12,
    gc_pause_ms: float = 0.0,
    gc_period_ms: float = 10_000.0,
    spec: Optional[PaperWorkloadSpec] = None,
    batch_window_ms: float = 0.0,
) -> StreamRatesResult:
    """The 2-broker experiment behind Figures 5 and 6.

    ``gc_pause_ms`` injects periodic SHB CPU stalls reproducing the
    Java-GC dips the paper observes in the latestDelivered rate.
    """
    spec = spec or PaperWorkloadSpec()
    sim = Scheduler()
    overlay = build_two_broker(
        sim, spec.pubend_names(), batch_window_ms=batch_window_ms
    )
    shb = overlay.shbs[0]
    publishers = make_publishers(sim, overlay.phb, spec)
    subscribers = make_subscribers(sim, overlay.shbs, spec, subs)
    churn = ChurnSchedule(
        sim, subscribers, shb_of=lambda s: shb,
        period_ms=churn_period_ms, down_ms=churn_down_ms,
    )
    scn = Scenario(sim, overlay)
    scn.adopt(subscribers, lambda i: shb)
    if gc_pause_ms > 0:
        sim.every(gc_period_ms, lambda: shb.node.stall(gc_pause_ms))
    pubend = spec.pubend_names()[0]
    collector = MetricsCollector(sim, interval_ms=1000.0)
    collector.advance_rate("latestDelivered_rate", lambda: float(shb.latest_delivered(pubend)))
    collector.advance_rate("released_rate", lambda: float(shb.released(pubend)))
    collector.gauge("latestDelivered", lambda: float(shb.latest_delivered(pubend)))
    collector.gauge("released", lambda: float(shb.released(pubend)))
    collector.start()
    sim.run_until(duration_ms)
    for pub in publishers:
        pub.stop()
    churn.stop()
    collector.stop()
    return _judged(scn, StreamRatesResult(
        catchup_durations_ms=_reconnect_catchups([shb], churn_down_ms),
        latest_delivered_rate=collector.get("latestDelivered_rate"),
        released_rate=collector.get("released_rate"),
        latest_delivered_value=collector.get("latestDelivered"),
        released_value=collector.get("released"),
    ))


# ---------------------------------------------------------------------------
# SHB failure and recovery (Figures 7 and 8)
# ---------------------------------------------------------------------------
@dataclass
class FailureResult:
    latest_delivered: Series            # raw value over time (Figure 7 top)
    released: Series                    # raw value over time (Figure 7 bottom)
    machine_rates: List[Series]         # per client machine (Figure 8 top)
    phb_idle: Series                    # Figure 8 bottom
    shb_idle: Series
    catchup_durations_ms: List[float]
    disconnected_ms: List[float]        # how long each subscriber was down
    normal_slope: float                 # tick-ms/s before the crash
    recovery_slope: float               # tick-ms/s while the constream nacks
    pfs_reads_reaching_last_fraction: float
    violations: List[str] = field(default_factory=list)


def run_shb_failure(
    crash_at_ms: float = 20_000.0,
    down_ms: float = 25_000.0,
    n_subs: int = 40,
    subs_per_machine: int = 8,
    total_ms: float = 260_000.0,
    spec: Optional[PaperWorkloadSpec] = None,
) -> FailureResult:
    """Section 5.3: crash the SHB, delay reconnection until the
    constream has recovered, then reconnect all 40 subscribers at once.
    """
    spec = spec or PaperWorkloadSpec()
    sim = Scheduler()
    overlay = build_two_broker(sim, spec.pubend_names())
    shb = overlay.shbs[0]
    publishers = make_publishers(sim, overlay.phb, spec)
    subscribers = make_subscribers(
        sim, overlay.shbs, spec, n_subs, subs_per_machine=subs_per_machine
    )
    scn = Scenario(sim, overlay)
    scn.adopt(subscribers, lambda i: shb)
    machines = list(dict.fromkeys(sub.node for sub in subscribers))
    pubend = spec.pubend_names()[0]

    collector = MetricsCollector(sim, interval_ms=1000.0)
    collector.gauge("latestDelivered", lambda: float(shb.latest_delivered(pubend)))
    collector.gauge("released", lambda: float(shb.released(pubend)))
    for i, machine in enumerate(machines):
        events_of = [s for s in subscribers if s.node is machine]
        collector.counter_rate(
            f"machine{i + 1}_rate", lambda evs=events_of: float(sum(s.stats.events for s in evs))
        )
    collector.cpu_idle("phb_idle", overlay.phb.node)
    collector.cpu_idle("shb_idle", shb.node)
    collector.start()

    # Normal operation, then crash.
    sim.run_until(crash_at_ms)
    ld_before = shb.latest_delivered(pubend)
    disconnect_time = sim.now
    shb.fail_for(down_ms)
    recover_time = crash_at_ms + down_ms

    # After recovery, wait until the constream has nacked and received
    # everything it missed (latestDelivered near the pubend's time),
    # then reconnect all subscribers at once (the paper's test delays
    # reconnection exactly this way).
    sim.run_until(recover_time)
    ld_at_recover = shb.latest_delivered(pubend)
    slope_window_start: Optional[float] = None
    slope_samples: List[Tuple[float, int]] = []
    while sim.now < total_ms:
        sim.run_until(sim.now + 500.0)
        slope_samples.append((sim.now, shb.latest_delivered(pubend)))
        if shb.latest_delivered(pubend) >= int(sim.now) - 2_000:
            break
    constream_caught_up = sim.now
    disconnected_ms = [sim.now - disconnect_time] * len(subscribers)
    for sub in subscribers:
        if not sub.connected:
            sub.connect(shb)

    sim.run_until(total_ms)
    for pub in publishers:
        pub.stop()
    sim.run_until(total_ms + 5_000.0)
    collector.stop()

    # Slopes: normal (before crash) vs constream recovery window.
    normal_slope = ld_before / crash_at_ms * 1000.0
    rec_elapsed = max(1.0, constream_caught_up - recover_time)
    ld_caught_up = slope_samples[-1][1] if slope_samples else shb.latest_delivered(pubend)
    recovery_slope = (ld_caught_up - ld_at_recover) / rec_elapsed * 1000.0
    reads = shb.pfs.reads or 1
    return _judged(scn, FailureResult(
        latest_delivered=collector.get("latestDelivered"),
        released=collector.get("released"),
        machine_rates=[collector.get(f"machine{i + 1}_rate") for i in range(len(machines))],
        phb_idle=collector.get("phb_idle"),
        shb_idle=collector.get("shb_idle"),
        catchup_durations_ms=_reconnect_catchups([shb], crash_at_ms),
        disconnected_ms=disconnected_ms,
        normal_slope=normal_slope,
        recovery_slope=float(recovery_slope),
        pfs_reads_reaching_last_fraction=shb.pfs.reads_reaching_last / reads,
    ))


# ---------------------------------------------------------------------------
# JMS auto-acknowledge (Section 5.2)
# ---------------------------------------------------------------------------
@dataclass
class JMSResult:
    subscribers: int
    offered_rate: float
    consumed_rate: float          # committed consumption throughput
    commits_per_s: float
    coalesced_fraction: float
    violations: List[str] = field(default_factory=list)


def run_jms_autoack(
    n_subs: int,
    input_rate: float,
    duration_ms: float = 20_000.0,
    warmup_ms: float = 4_000.0,
    n_connections: int = 4,
    spec: Optional[PaperWorkloadSpec] = None,
) -> JMSResult:
    """Peak auto-acknowledge throughput at one SHB.

    The offered rate is set above the expected commit capacity so the
    measured consumption rate is the CT-commit bottleneck, as in the
    paper (where it was "the update and commit throughput of the
    database").
    """
    spec = spec or PaperWorkloadSpec(input_rate=input_rate)
    sim = Scheduler()
    overlay = build_two_broker(sim, spec.pubend_names())
    shb = overlay.shbs[0]
    service = CheckpointCommitService(shb, n_connections=n_connections)
    publishers = make_publishers(sim, overlay.phb, spec)
    subscribers: List[JMSDurableSubscriber] = []
    for i in range(n_subs):
        if i % 8 == 0:
            machine = Node(sim, f"jms-client-m{i // 8 + 1}")
        sub = JMSDurableSubscriber(
            sim, f"jms-s{i + 1}", machine, spec.subscriber_predicate(i),
            ack_mode=AUTO_ACKNOWLEDGE,
        )
        sub.connect(shb)
        subscribers.append(sub)
    scn = Scenario(sim, overlay)
    scn.adopt(subscribers, lambda i: shb)
    sim.run_until(warmup_ms)
    consumed_0 = sum(s.events_consumed for s in subscribers)
    commits_0 = service.commits
    t0 = sim.now
    sim.run_until(warmup_ms + duration_ms)
    elapsed = sim.now - t0
    consumed_rate = (sum(s.events_consumed for s in subscribers) - consumed_0) * 1000.0 / elapsed
    commits_rate = (service.commits - commits_0) * 1000.0 / elapsed
    for pub in publishers:
        pub.stop()
    total_updates = service.updates_committed + service.updates_coalesced
    return _judged(scn, JMSResult(
        subscribers=n_subs,
        offered_rate=spec.per_subscriber_rate * n_subs,
        consumed_rate=consumed_rate,
        commits_per_s=commits_rate,
        coalesced_fraction=service.updates_coalesced / total_updates if total_updates else 0.0,
    ))


# ---------------------------------------------------------------------------
# Chaos soak (robustness harness; not a paper figure)
# ---------------------------------------------------------------------------
#: Head-curiosity re-nack policy both soaks run under: exponential
#: backoff + jitter + a retry budget (see CuriosityStream).
_SOAK_NACK_POLICY = dict(
    nack_backoff_factor=2.0,
    nack_backoff_max_ms=4_000.0,
    nack_jitter_ms=20.0,
    nack_retry_budget=64,
)


def _soak_fleet(
    scn: Scenario, spec: PaperWorkloadSpec, subs_per_shb: int,
    sub_prefix: str, machine_prefix: str,
) -> None:
    """What both soaks start with: ``subs_per_shb`` paper-workload
    subscribers on every SHB, reconnect supervision and the judge, with
    a per-subscriber progress watchdog."""
    for s_idx, shb in enumerate(scn.overlay.shbs):
        for j in range(subs_per_shb):
            i = s_idx * subs_per_shb + j
            scn.subscriber(
                f"{sub_prefix}{i + 1}", f"{machine_prefix}{i + 1}",
                spec.subscriber_predicate(i), shb,
            )
    scn.sim.every(331.0, scn.supervise)
    scn.start(watch_ms=250.0)


@dataclass
class ChaosSoakResult:
    """Outcome of one seeded chaos run.

    ``violations`` is the verdict: empty means every invariant held.
    Each entry is a human-readable sentence naming the subscriber (or
    watchdog) and what went wrong, so a failing seed is directly a bug
    report.  Everything else is context for debugging that seed.
    """

    seed: int
    duration_ms: float
    fault_horizon_ms: float
    converged_at_ms: Optional[float]
    events_published: int
    events_delivered: int
    faults: List[object]                  # FaultRecords, in injection order
    violations: List[str]
    link_faults: Dict[str, object] = field(default_factory=dict)
    curiosity: Dict[str, int] = field(default_factory=dict)
    disk: Dict[str, int] = field(default_factory=dict)
    longest_stall_ms: float = 0.0
    stalled_subscribers: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_chaos_soak(
    seed: int,
    duration_ms: float = 30_000.0,
    fanout: Optional[List[int]] = None,
    subs_per_shb: int = 2,
    batch_window_ms: float = 0.0,
    spec: Optional[PaperWorkloadSpec] = None,
    crashes: int = 3,
    partitions: int = 3,
    loss_bursts: int = 4,
    stalls: int = 2,
    client_crashes: int = 2,
    max_down_ms: float = 1_500.0,
    grace_ms: float = 30_000.0,
) -> ChaosSoakResult:
    """Seeded chaos soak: random faults, then prove the guarantees held.

    Builds a PHB → intermediate → SHB tree, runs the paper workload,
    and lets a :class:`~repro.sim.failures.ChaosSchedule` crash brokers,
    partition links, inject loss/duplication/reordering/corruption
    bursts, stall CPUs and crash client machines inside the first 60%
    of the run.  Publishing stops at 80%, and the run then converges
    through a quiet tail (extended up to ``grace_ms`` if needed).

    Invariants checked, per durable subscriber:

    * exactly-once per ``(pubend, tick)`` — no duplicate event ids, no
      order violations;
    * completeness — the received event set equals the predicate-
      matching subset of everything the PHB logged durably (events lost
      to a PHB crash before their sync completed never became durable,
      were never acknowledged, and so are legitimately absent);
    * gap honesty — no early-release policy is configured and no
      ReleaseUpdate is injected, so any GapMessage is a violation;
    * liveness — per-SHB :class:`~repro.sim.failures.ProgressWatchdog`
      probes must advance during the post-fault quiet tail, and the run
      must converge before the grace deadline;

    plus, per SHB, the storage-side oracle families of
    :mod:`repro.sim.oracles`: PFS chain integrity, chop-point agreement
    and monotone committed knowledge.
    """
    fault_horizon = duration_ms * 0.6
    quiet_start = fault_horizon + max_down_ms + 2_500.0
    if quiet_start + 1_000.0 > duration_ms:
        raise ValueError(
            f"duration_ms={duration_ms:.0f} leaves no quiet tail: faults can "
            f"linger until ~{quiet_start:.0f} ms; use a longer run"
        )
    spec = spec or PaperWorkloadSpec(input_rate=200.0, n_pubends=2)
    pubends = spec.pubend_names()
    sim = Scheduler()
    overlay = build_tree(
        sim, pubends, fanout or [2, 2],
        batch_window_ms=batch_window_ms, **_SOAK_NACK_POLICY,
    )
    publishers = make_publishers(sim, overlay.phb, spec)

    scn = Scenario(sim, overlay)
    _soak_fleet(scn, spec, subs_per_shb, "cs", "chaos-m")
    subscribers = scn.subscribers
    for sub in subscribers:
        # A machine crash kills the app process: its CT rolls back
        # to the committed snapshot, like DurableSubscriber.crash().
        sub.node.on_crash(lambda s=sub: setattr(s, "ct", s.committed_ct.copy()))
    watchdogs = [
        ProgressWatchdog(
            sim,
            lambda s=shb: float(sum(s.latest_delivered(p) for p in pubends)),
            interval_ms=250.0,
            name=shb.name,
        )
        for shb in overlay.shbs
    ]

    chaos = ChaosSchedule(
        sim, seed,
        brokers=overlay.all_brokers(),
        links=list(overlay.links),
        client_nodes=[s.node for s in subscribers],
    )
    chaos.generate(
        fault_horizon,
        crashes=crashes, partitions=partitions, loss_bursts=loss_bursts,
        stalls=stalls, client_crashes=client_crashes, max_down_ms=max_down_ms,
    )

    sim.run_until(duration_ms * 0.8)
    for pub in publishers:
        pub.stop()
    sim.run_until(duration_ms)
    violations = scn.finish(duration_ms + grace_ms, stall_window=(quiet_start, duration_ms))
    chaos.stop()
    for wd in watchdogs:
        wd.stop()
        if not wd.progressed_between(quiet_start, duration_ms):
            violations.append(
                f"watchdog {wd.name}: no forward progress in the quiet tail"
                f" [{quiet_start:.0f}, {duration_ms:.0f}] ms"
            )

    curiosity_counters = {"nacks_sent": 0, "renacks": 0, "budget_suppressed": 0}
    for shb in overlay.shbs:
        for cur in shb.head_curiosity.values():
            curiosity_counters["nacks_sent"] += cur.nacks_sent
            curiosity_counters["renacks"] += cur.renacks
            curiosity_counters["budget_suppressed"] += cur.budget_suppressed
    disks = [overlay.phb.disk] + [s.disk for s in overlay.shbs if getattr(s, "disk", None)]
    disk_counters = {
        "crashes": sum(d.crashes for d in disks),
        "writes_lost_in_crash": sum(d.writes_lost_in_crash for d in disks),
    }
    return ChaosSoakResult(
        seed=seed,
        duration_ms=duration_ms,
        fault_horizon_ms=fault_horizon,
        converged_at_ms=scn.converged_at,
        events_published=sum(p.published for p in publishers),
        events_delivered=sum(s.stats.events for s in subscribers),
        faults=list(chaos.records),
        violations=violations,
        link_faults=link_stats(sim).snapshot(),
        curiosity=curiosity_counters,
        disk=disk_counters,
        longest_stall_ms=max((wd.longest_stall_ms for wd in watchdogs), default=0.0),
        stalled_subscribers=scn.stalled,
    )


# ---------------------------------------------------------------------------
# Migration soak (dynamic-topology robustness harness; not a paper figure)
# ---------------------------------------------------------------------------
@dataclass
class MigrationSoakResult:
    """Outcome of one seeded dynamic-topology soak.

    ``violations`` is the verdict — empty means every oracle family
    (exactly-once, completeness, gap honesty, PFS chain integrity,
    chop agreement, knowledge monotonicity) held across the join, the
    mid-catchup migration and the drain.  The rest is context: what
    moved where, which faults fired inside the handoff windows, and
    when the run converged.
    """

    seed: int
    duration_ms: float
    converged_at_ms: Optional[float]
    events_published: int
    events_delivered: int
    joined_shb: str
    drained_shb: str
    migrated_mid_catchup: str
    migrations: int
    migrations_done: int
    source_detached: bool
    faults: List[object]
    violations: List[str]
    stalled_subscribers: List[str] = field(default_factory=list)
    final_placement: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_migration_soak(
    seed: int,
    duration_ms: float = 24_000.0,
    n_shbs: int = 2,
    subs_per_shb: int = 2,
    spec: Optional[PaperWorkloadSpec] = None,
    with_faults: bool = True,
    grace_ms: float = 30_000.0,
) -> MigrationSoakResult:
    """Seeded dynamic-topology soak: join, migrate mid-catchup, drain.

    The scripted sequence over a PHB → ``n_shbs`` SHB star:

    1. one durable subscriber (the *victim*) naps at 15% of the run so
       a backlog accumulates, and reconnects at 40% — entering catchup;
    2. a fresh SHB joins the running overlay at 25%
       (:meth:`~repro.sim.supervisor.Supervisor.join_shb`);
    3. at 42% the victim — still catching up — is migrated from its
       home SHB to the newcomer while the ``"during-migration"`` fault
       phase crashes/lossifies the source, the destination and their
       uplinks inside the handoff window;
    4. at 58% the source SHB is drained into the newcomer (remaining
       subscriptions migrate, the broker detaches) under a
       ``"during-drain"`` loss phase;
    5. publishing stops at 80% and the run converges through a quiet
       tail (extended up to ``grace_ms``).

    Refused clients follow the ``ConnectRefused`` redirect to the
    subscription's new home; every oracle family from
    :mod:`repro.sim.oracles` is checked at the end (the retired source
    included), plus per-subscriber progress watchdogs.
    """
    spec = spec or PaperWorkloadSpec(input_rate=200.0, n_pubends=2)
    sim = Scheduler()
    overlay = build_star(sim, spec.pubend_names(), n_shbs, **_SOAK_NACK_POLICY)
    source = overlay.shbs[0]
    publishers = make_publishers(sim, overlay.phb, spec)

    scn = Scenario(sim, overlay)
    _soak_fleet(scn, spec, subs_per_shb, "ms", "mig-m")
    subscribers = scn.subscribers
    victim = subscribers[0]  # hosted by ``source``

    chaos = ChaosSchedule(
        sim, seed, brokers=overlay.all_brokers(), links=list(overlay.links)
    )

    def plan_faults(joiner: object) -> None:
        uplinks = [
            overlay.link_between(overlay.phb, source),
            overlay.link_between(overlay.phb, joiner),
        ]
        chaos.plan_phase(
            "during-migration", crashes=1, loss_bursts=2,
            window_ms=900.0, max_down_ms=450.0,
            brokers=[source, joiner], links=uplinks,
        )
        chaos.plan_phase(
            "during-drain", loss_bursts=2,
            window_ms=1_200.0, max_down_ms=450.0, links=uplinks,
        )

    t_wake = duration_ms * 0.40
    t_drain = duration_ms * 0.58
    scn.script_handoff(
        victim, source, "shb-joiner",
        nap_ms=duration_ms * 0.15,
        join_ms=duration_ms * 0.25,
        wake_ms=t_wake,
        # Close enough to the wake-up that the victim's catchup (a
        # backlog of a quarter of the run) is still streaming when the
        # handoff starts — the acceptance scenario is "migrate
        # mid-catchup".
        migrate_ms=t_wake + 120.0,
        drain_ms=t_drain,
        on_join=plan_faults if with_faults else None,
        on_phase=chaos.mark_phase,
        **_SOAK_NACK_POLICY,
    )

    sim.run_until(duration_ms * 0.8)
    for pub in publishers:
        pub.stop()
    sim.run_until(duration_ms)
    violations = scn.finish(duration_ms + grace_ms, stall_window=(t_drain, duration_ms * 0.8))
    chaos.stop()
    migrations = scn.supervisor.migrations

    return MigrationSoakResult(
        seed=seed,
        duration_ms=duration_ms,
        converged_at_ms=scn.converged_at,
        events_published=sum(p.published for p in publishers),
        events_delivered=sum(s.stats.events for s in subscribers),
        joined_shb="shb-joiner",
        drained_shb=source.name,
        migrated_mid_catchup=victim.sub_id,
        migrations=len(migrations),
        migrations_done=sum(1 for m in migrations if m.done),
        source_detached=bool(scn.drain is not None and scn.drain.detached),
        faults=list(chaos.records),
        violations=violations,
        stalled_subscribers=scn.stalled,
        final_placement=scn.supervisor.placement(),
    )


# ---------------------------------------------------------------------------
# Union repair: corrupted soft state converges through the digest refresh
# ---------------------------------------------------------------------------
@dataclass
class UnionRepairResult:
    """Outcome of one seeded union-corruption run.

    ``corruptions`` lists ``(kind, parent, child, at_ms)``; ``unrepaired``
    names each one whose parent copy was not equal to the child's union,
    and warm, two refresh intervals later.
    """

    seed: int
    corruptions: List[Tuple[str, str, str, float]]
    unrepaired: List[str]
    add_lost: bool
    converged_at_ms: Optional[float]
    violations: List[str]

    @property
    def ok(self) -> bool:
        return not (self.unrepaired or self.violations) and self.add_lost


def run_union_repair(seed: int, rate_per_s: float = 100.0) -> UnionRepairResult:
    """Corrupt warm subscription unions; the digest refresh repairs them.

    On a PHB → 2 intermediates → 4 SHBs tree with two subscribers per
    SHB (one group each), a warm union is corrupted at the PHB and at an
    intermediate in each of three ways — a predicate dropped, a stale
    predicate added, the union emptied — and one new subscriber's
    immediate ``SubscriptionAdd`` is lost on a lossy uplink.  Corruption is
    illegal state, not a fault the protocol masks: events classified
    against a corrupted warm union may be silenced, so publishing for
    the groups below the corrupted child is paused from just before the
    corruption until the repair deadline.  Within two refresh intervals
    the parent's copy must equal the child's union and be warm again,
    and the run must end with a clean :meth:`Scenario.verdict`.
    """
    rng = random.Random(f"union-repair:{seed}")
    sim = Scheduler()
    overlay = build_tree(sim, ["P1"], [2, 2])
    scn = Scenario(sim, overlay)
    shbs, mids = overlay.shbs, overlay.intermediates
    late_group = 2 * len(shbs)
    spare_group = late_group + 1  # published during a pause; nobody's
    for s_idx, shb in enumerate(shbs):
        for group in (2 * s_idx, 2 * s_idx + 1):
            scn.subscriber(f"ur{group + 1}", f"ur-m{group + 1}", Eq("group", group), shb)
    sim.every(331.0, scn.supervise)
    scn.start()

    repair_ms = 2 * SUBSCRIPTION_REFRESH_MS
    #: (from_ms, until_ms, groups) publishing windows to skip.
    paused: List[Tuple[float, float, Set[int]]] = []

    def group_of(i: int) -> Dict[str, object]:
        group = i % (late_group + 1)
        for lo, hi, groups in paused:
            if lo <= sim.now < hi and group in groups:
                return {"group": spare_group}
        return {"group": group}

    pub = PeriodicPublisher(sim, overlay.phb, "P1", rate_per_s, attribute_fn=group_of)
    pub.start()

    def groups_below(child: Broker) -> Set[int]:
        return {
            group
            for s_idx, shb in enumerate(shbs)
            if child in (shb, overlay.parent_of(shb))
            for group in (2 * s_idx, 2 * s_idx + 1)
        }

    corruptions: List[Tuple[str, str, str, float]] = []
    unrepaired: List[str] = []

    def check(kind: str, parent: Broker, child: Broker) -> None:
        union = parent.child_engines[child.name]
        warm = parent.child_filter_ready[child.name]
        members = child._upstream_set()
        if not warm or members is None or union.keys() != members.keys():
            unrepaired.append(
                f"{kind} at {parent.name}/{child.name}: "
                f"{'warm' if warm else 'cold'}, {len(union)} held"
            )

    def corrupt(kind: str, parent: Broker, child: Broker) -> None:
        union = parent.child_engines[child.name]
        if kind == "drop":
            union.remove(rng.choice(sorted(union.predicates(), key=repr)))
        elif kind == "stale":
            union.add(Eq("group", spare_group))
        else:
            union.replace_all(())
        corruptions.append((kind, parent.name, child.name, sim.now))
        sim.at(sim.now + repair_ms, lambda: check(kind, parent, child))

    # One corruption per window; a window starts mid-interval, so two
    # refresh ticks fall inside its repair deadline.
    t = 2 * SUBSCRIPTION_REFRESH_MS
    for kind in ("drop", "stale", "empty"):
        for at_phb in (True, False):
            mid = rng.choice(mids)
            parent: Broker = overlay.phb if at_phb else mid
            child: Broker = mid if at_phb else rng.choice(
                [s for s in shbs if overlay.parent_of(s) is mid]
            )
            at = t + rng.uniform(100.0, SUBSCRIPTION_REFRESH_MS - 100.0)
            paused.append((at - 200.0, at + repair_ms, groups_below(child)))
            sim.at(at, lambda k=kind, p=parent, c=child: corrupt(k, p, c))
            t += repair_ms + SUBSCRIPTION_REFRESH_MS

    # The lossy add: a new subscriber registers while its SHB's uplink
    # drops everything; its group is never published before the repair.
    shb = rng.choice(shbs)
    mid = overlay.parent_of(shb)
    uplink = overlay.link_between(mid, shb).b_to_a
    at = t + rng.uniform(100.0, SUBSCRIPTION_REFRESH_MS - 100.0)
    paused.append((0.0, at + repair_ms, {late_group}))
    lost: List[bool] = []

    def register_late() -> None:
        uplink.set_faults(FaultSpec(drop_p=1.0), seed)
        scn.subscriber("ur-late", "ur-m-late", Eq("group", late_group), shb)

    def heal() -> None:
        uplink.set_faults(None)
        lost.append(Eq("group", late_group) not in mid.child_engines[shb.name])
        corruptions.append(("lost-add", mid.name, shb.name, at))

    sim.at(at, register_late)
    sim.at(at + 50.0, heal)
    sim.at(at + repair_ms, lambda: check("lost-add", mid, shb))
    end = at + repair_ms + SUBSCRIPTION_REFRESH_MS
    sim.at(end, pub.stop)
    sim.run_until(end)
    violations = scn.finish(end + 20_000.0)
    return UnionRepairResult(
        seed=seed,
        corruptions=corruptions,
        unrepaired=unrepaired,
        add_lost=lost == [True],
        converged_at_ms=scn.converged_at,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Message amplification (batching / coalescing report)
# ---------------------------------------------------------------------------
@dataclass
class AmplificationResult:
    batch_window_ms: float
    subscribers: int
    events_published: int
    events_delivered: int
    link_messages: int           # logical messages handed to links
    link_transmissions: int      # scheduled deliveries (batches count once)
    mean_batch_size: float
    messages_per_event: float    # transmissions per published event
    batch_size_series: Series
    msgs_per_event_series: Series
    violations: List[str] = field(default_factory=list)


def run_message_amplification(
    batch_window_ms: float,
    n_subs: int = 16,
    duration_ms: float = 12_000.0,
    spec: Optional[PaperWorkloadSpec] = None,
) -> AmplificationResult:
    """Link-message amplification at the paper's full input rate.

    Worst case for fan-out amplification: every subscriber matches every
    event (``groups_per_sub == n_groups``), so without batching each of
    the 800 ev/s crosses the SHB→client hop once per subscriber.  The
    result reports how many link transmissions each published event
    costs; a batching window collapses that by roughly
    ``per-link message rate × window``.
    """
    spec = spec or PaperWorkloadSpec(groups_per_sub=4)
    sim = Scheduler()
    overlay = build_two_broker(
        sim, spec.pubend_names(), batch_window_ms=batch_window_ms
    )
    publishers = make_publishers(sim, overlay.phb, spec)
    subscribers = make_subscribers(sim, overlay.shbs, spec, n_subs)
    scn = Scenario(sim, overlay)
    scn.adopt(subscribers, lambda i: overlay.shbs[0])
    collector = MetricsCollector(sim, interval_ms=1000.0)
    collector.link_batching(
        sim, lambda: float(sum(p.published for p in publishers))
    )
    collector.start()
    sim.run_until(duration_ms)
    for pub in publishers:
        pub.stop()
    sim.run_until(duration_ms + 2_000.0)   # drain in-flight batches
    collector.stop()

    stats = link_stats(sim)
    published = sum(p.published for p in publishers)
    return _judged(scn, AmplificationResult(
        batch_window_ms=batch_window_ms,
        subscribers=n_subs,
        events_published=published,
        events_delivered=sum(s.stats.events for s in subscribers),
        link_messages=stats.messages,
        link_transmissions=stats.transmissions,
        mean_batch_size=stats.mean_batch_size,
        messages_per_event=stats.transmissions / published if published else 0.0,
        batch_size_series=collector.get("link.batch_size"),
        msgs_per_event_series=collector.get("link.msgs_per_event"),
    ))
