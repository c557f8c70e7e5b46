"""Periodic metric sampling against the simulation clock.

The paper's figures are all time series sampled from a running system:
aggregate event rates (Figures 4 and 8), catchup durations (Figure 5),
tick-advance rates of latestDelivered/released (Figures 6 and 7) and
CPU idle percentages (Figure 8).  :class:`MetricsCollector` registers
probes of those four shapes and samples them on a fixed interval.

Sampling discipline: every windowed probe (rates, ratios, idle
fractions, latency windows) is *primed* when the collector starts —
the baseline is taken at start time, and the first sample lands one
full interval later.  A collector started mid-run therefore never
reports a first window diluted over ``[0, start]``, and windows with
nothing to report (a zero denominator, no new latency samples) are
skipped rather than recorded as a fabricated ``0.0``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..net.node import Node
from ..net.simtime import PeriodicHandle, Scheduler
from ..util.rate import GaugeRate, Series
from .histogram import LatencyHistogram


class MetricsCollector:
    """Samples registered probes every ``interval_ms`` of virtual time."""

    def __init__(self, scheduler: Scheduler, interval_ms: float = 1000.0) -> None:
        self.scheduler = scheduler
        self.interval_ms = interval_ms
        self.series: Dict[str, Series] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}
        self._probes: List[Callable[[float], None]] = []
        self._primers: List[Callable[[float], None]] = []
        self._timer: Optional[PeriodicHandle] = None

    # ------------------------------------------------------------------
    # Probe registration
    # ------------------------------------------------------------------
    def _series(self, name: str) -> Series:
        if name not in self.series:
            self.series[name] = Series(name)
        return self.series[name]

    def _register_primer(self, primer: Callable[[float], None]) -> None:
        """Primers set window baselines at ``start()``; a probe added to
        an already-running collector is primed immediately instead."""
        if self._timer is not None:
            primer(self.scheduler.now)
        else:
            self._primers.append(primer)

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Sample ``fn()`` directly (e.g. queue depths, counts)."""
        series = self._series(name)
        self._probes.append(lambda now: series.append(now, fn()))

    def counter_rate(self, name: str, fn: Callable[[], float]) -> None:
        """Sample the per-second rate of a cumulative counter.

        This is how the aggregate events/s plots are produced: ``fn``
        returns a total (e.g. events consumed) and the series records
        the window rate.
        """
        series = self._series(name)
        tracker = GaugeRate(name)

        def probe(now: float) -> None:
            value = tracker.sample(now, fn())
            if value is not None:
                series.append(now, value)

        self._probes.append(probe)
        self._register_primer(lambda now: tracker.prime(now, fn()))

    def advance_rate(self, name: str, fn: Callable[[], float]) -> None:
        """Sample how fast a monotone gauge advances (tick-ms per second).

        Figure 6/7's latestDelivered(p) and released(p) plots.
        """
        self.counter_rate(name, fn)  # identical mechanics, distinct intent

    def cpu_idle(self, name: str, node: Node) -> None:
        """Sample a node's CPU idle fraction over each window (Figure 8)."""
        series = self._series(name)
        self._probes.append(lambda now: series.append(now, node.busy.idle_fraction(now)))
        self._register_primer(lambda now: node.busy.prime(now))

    def ratio(
        self, name: str, numerator: Callable[[], float], denominator: Callable[[], float]
    ) -> None:
        """Sample the windowed ratio of two cumulative counters.

        The batching report series are all of this shape: mean batch
        size (messages / transmissions), messages-per-event
        (transmissions / events published) and coalescing ratio (ticks /
        ranges).  Each sample covers only the window since the previous
        one, so the series shows the live ratio, not the lifetime mean.
        A window in which the denominator did not move (e.g. a
        partitioned link transmits nothing) has no ratio and is skipped
        — recording ``0.0`` would conflate an idle window with a
        genuine zero ratio and skew ``summarize_series`` means.
        """
        series = self._series(name)
        num_t = GaugeRate(f"{name}.num")
        den_t = GaugeRate(f"{name}.den")

        def probe(now: float) -> None:
            dn = num_t.sample(now, numerator())
            dd = den_t.sample(now, denominator())
            if dn is None or dd is None or dd == 0.0:
                return
            series.append(now, dn / dd)

        self._probes.append(probe)

        def primer(now: float) -> None:
            num_t.prime(now, numerator())
            den_t.prime(now, denominator())

        self._register_primer(primer)

    def histogram(self, name: str, hist: Optional[LatencyHistogram] = None) -> LatencyHistogram:
        """Register a :class:`LatencyHistogram` for export.

        Pass an externally-fed histogram (e.g. one of the tracer's), or
        omit it to have one created.  Histograms are not sampled on the
        interval — they accumulate wherever they are fed — but they
        ride along in :func:`repro.metrics.report.export_json`.
        """
        if hist is None:
            hist = self.histograms.get(name) or LatencyHistogram(name)
        self.histograms[name] = hist
        return hist

    def latency(self, name: str, fn: Callable[[], List[float]]) -> LatencyHistogram:
        """Consume a growing list of latency samples (ms) each interval.

        ``fn`` returns a cumulative sample list (e.g. a pubend's
        ``log_latency_ms``); each interval the new suffix is folded into
        a registered histogram and the window's mean is appended to the
        series ``name``.  Windows with no new samples are skipped.
        Samples recorded before the collector starts are not counted.
        """
        series = self._series(name)
        hist = self.histogram(name)
        state = {"seen": 0}

        def probe(now: float) -> None:
            values = fn()
            fresh = values[state["seen"]:]
            state["seen"] = len(values)
            if not fresh:
                return
            for v in fresh:
                hist.observe(v)
            series.append(now, sum(fresh) / len(fresh))

        self._probes.append(probe)
        self._register_primer(lambda now: state.__setitem__("seen", len(fn())))
        return hist

    def link_batching(self, scheduler: Scheduler, events_published: Callable[[], float]) -> None:
        """Register the standard batching series from the scheduler's
        shared :class:`~repro.net.link.LinkStats`: ``link.batch_size``
        (messages per transmission) and ``link.msgs_per_event``
        (transmissions per published event)."""
        from ..net.link import link_stats

        stats = link_stats(scheduler)
        self.ratio(
            "link.batch_size", lambda: stats.messages, lambda: stats.transmissions
        )
        self.ratio(
            "link.msgs_per_event", lambda: stats.transmissions, events_published
        )

    def matcher(self, prefix: str, engine) -> None:
        """Register the counting-matcher series for one engine:

        * ``<prefix>.atoms_per_event`` — index probes per match call
          (the counting matcher's unit of work);
        * ``<prefix>.candidates_per_event`` — subscriptions whose
          satisfied-atom count was touched, per match call;
        * ``<prefix>.residual_evals_per_event`` — opaque predicate
          evaluations per match call (scan-bucket + residual pressure);
        * ``<prefix>.scan_subs`` — subscriptions resident in the opaque
          scan bucket.
        """
        events = lambda: float(engine.events_processed)  # noqa: E731
        self.ratio(
            f"{prefix}.atoms_per_event", lambda: float(engine.atoms_examined), events
        )
        self.ratio(
            f"{prefix}.candidates_per_event",
            lambda: float(engine.candidates_seen),
            events,
        )
        self.ratio(
            f"{prefix}.residual_evals_per_event",
            lambda: float(engine.residual_evals),
            events,
        )
        self.gauge(f"{prefix}.scan_subs", lambda: float(engine.scan_count))

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._timer is None:
            now = self.scheduler.now
            for primer in self._primers:
                primer(now)
            self._primers = []
            self._timer = self.scheduler.every(self.interval_ms, self._sample)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _sample(self) -> None:
        now = self.scheduler.now
        for probe in self._probes:
            probe(now)

    def get(self, name: str) -> Series:
        """The series registered as ``name``.

        Raises :class:`KeyError` for unknown names — a misspelled name
        used to fabricate an empty series silently, which made typos in
        experiment report code look like flat-zero measurements.
        """
        try:
            return self.series[name]
        except KeyError:
            raise KeyError(
                f"no metric series named {name!r}; registered: {sorted(self.series)}"
            ) from None
