"""Tests for metric collection and reporting helpers."""

import pytest

from repro.metrics.collector import MetricsCollector
from repro.metrics.report import format_series, format_table, percentile, summarize_series
from repro.net.node import Node
from repro.net.simtime import Scheduler
from repro.util.rate import BusyTracker, GaugeRate, RateCounter, Series


class TestRateHelpers:
    def test_rate_counter_window_rate(self):
        c = RateCounter("x")
        c.record(10)
        # First call has no baseline: it primes and emits nothing
        # (treating time 0 as a previous sample would dilute a counter
        # first consulted mid-run over a window nobody observed).
        assert c.rate(1_000.0) is None
        c.record(5)
        assert c.rate(2_000.0) == pytest.approx(5.0)
        c.record(4)
        assert c.rate(4_000.0) == pytest.approx(2.0)
        assert c.total == 19

    def test_rate_counter_primed(self):
        c = RateCounter("x")
        c.prime(0.0)
        c.record(10)
        assert c.rate(1_000.0) == pytest.approx(10.0)

    def test_rate_counter_zero_window(self):
        c = RateCounter("x")
        c.prime(0.0)
        c.record()
        assert c.rate(0.0) == 0.0

    def test_gauge_rate(self):
        g = GaugeRate("ld")
        assert g.sample(0.0, 100.0) is None  # no baseline yet
        assert g.sample(1_000.0, 1_100.0) == pytest.approx(1_000.0)
        assert g.sample(2_000.0, 1_600.0) == pytest.approx(500.0)

    def test_gauge_rate_primed(self):
        g = GaugeRate("ld")
        g.prime(1_000.0, 500.0)
        assert g.sample(2_000.0, 700.0) == pytest.approx(200.0)

    def test_busy_tracker(self):
        b = BusyTracker()
        b.add_busy(250.0)
        assert b.idle_fraction(1_000.0) == pytest.approx(0.75)
        assert b.idle_fraction(2_000.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            b.add_busy(-1.0)

    def test_series_reductions(self):
        s = Series("x")
        for t, v in [(0, 1.0), (1, 3.0), (2, 5.0)]:
            s.append(t, v)
        assert s.mean() == 3.0
        assert s.min() == 1.0
        assert s.max() == 5.0
        assert len(s.between(1, 2)) == 2


class TestCollector:
    def test_gauge_and_counter_rate_sampling(self):
        sim = Scheduler()
        col = MetricsCollector(sim, interval_ms=100.0)
        state = {"count": 0, "gauge": 0.0}
        sim.every(10, lambda: state.__setitem__("count", state["count"] + 1))
        col.gauge("g", lambda: state["count"])
        col.counter_rate("r", lambda: float(state["count"]))
        col.start()
        sim.run_until(1_000)
        g = col.get("g")
        assert len(g) == 10
        assert g.values()[-1] == pytest.approx(100, abs=2)
        r = col.get("r")
        # ~1 increment per 10ms = 100/s.
        assert r.values()[-1] == pytest.approx(100.0, rel=0.1)

    def test_cpu_idle_probe(self):
        sim = Scheduler()
        node = Node(sim, "n")
        col = MetricsCollector(sim, interval_ms=100.0)
        col.cpu_idle("idle", node)
        col.start()
        sim.every(10, lambda: node.try_submit(5.0, lambda: None))
        sim.run_until(1_000)
        idle = col.get("idle")
        assert idle.values()[-1] == pytest.approx(0.5, abs=0.1)

    def test_matcher_probe(self):
        from repro.matching.engine import MatchingEngine
        from repro.matching.predicates import And, Eq, Everything, Gt, Or

        sim = Scheduler()
        eng = MatchingEngine()
        for name, predicate in (
            ("narrow", And([Eq("g", 1), Gt("x", 5)])),
            ("broad", Eq("g", 1)),
            ("opaque", Or([Eq("g", 2), Gt("x", 8)])),  # scan bucket
        ):
            eng.add(name, predicate)
        col = MetricsCollector(sim, interval_ms=100.0)
        col.matcher("shb.match", eng)
        state = {"i": 0}

        def pump():
            state["i"] += 1
            eng.match({"g": state["i"] % 3, "x": state["i"] % 10})
            eng.matches_any({"g": state["i"] % 3, "x": state["i"] % 10})

        sim.every(10, pump)
        col.start()
        sim.run_until(1_000)
        # The opaque Or is evaluated per match call -> >=1 residual
        # eval per event on average (match + matches_any both count).
        assert col.get("shb.match.residual_evals_per_event").values()[-1] >= 0.5
        assert col.get("shb.match.scan_subs").values()[-1] == 1.0
        # The 13 distinct (attr, value) probes are all cached within
        # the first window, so index work shows up there and a steady
        # window may examine none; a registry change empties the
        # matcher's caches and the next window probes again.
        atoms = col.get("shb.match.atoms_per_event")
        assert eng.atoms_examined > 0 and atoms.values()[0] > 0
        eng.add("late", Eq("g", 0))
        sim.run_until(1_100)
        assert atoms.values()[-1] > 0

    def test_stop(self):
        sim = Scheduler()
        col = MetricsCollector(sim, interval_ms=100.0)
        col.gauge("g", lambda: 1.0)
        col.start()
        sim.run_until(250)
        col.stop()
        sim.run_until(1_000)
        assert len(col.get("g")) == 2

    def test_counter_rate_primed_on_midrun_start(self):
        """Regression: a collector started mid-run used to report a
        first window diluted over everything since time 0."""
        sim = Scheduler()
        state = {"count": 0}
        sim.every(10, lambda: state.__setitem__("count", state["count"] + 1))
        col = MetricsCollector(sim, interval_ms=100.0)
        col.counter_rate("r", lambda: float(state["count"]))
        sim.run_until(5_000)   # 500 increments before the collector starts
        col.start()
        sim.run_until(6_000)
        values = col.get("r").values()
        assert len(values) == 10
        # Every window is ~100/s; the old behavior made the first sample
        # (500 counts + 1 window) / 5.1s ≈ 98... at rate 100 that hides,
        # so check directly: no window may see the pre-start backlog.
        for v in values:
            assert v == pytest.approx(100.0, rel=0.15)

    def test_probe_added_to_running_collector_primes_immediately(self):
        sim = Scheduler()
        state = {"count": 0}
        sim.every(10, lambda: state.__setitem__("count", state["count"] + 1))
        col = MetricsCollector(sim, interval_ms=100.0)
        col.start()
        sim.run_until(2_000)
        col.counter_rate("late", lambda: float(state["count"]))
        sim.run_until(3_000)
        values = col.get("late").values()
        assert values  # the probe did sample
        for v in values:
            assert v == pytest.approx(100.0, rel=0.15)

    def test_ratio_skips_zero_denominator_window(self):
        """Regression: ratio used to append 0.0 when the denominator
        window was empty, conflating idle windows with zero ratios."""
        sim = Scheduler()
        state = {"num": 0.0, "den": 0.0}

        def pump():
            if 300 <= sim.now <= 600:
                return  # stall: neither counter moves
            state["num"] += 20.0
            state["den"] += 10.0

        sim.every(10, pump)
        col = MetricsCollector(sim, interval_ms=100.0)
        col.ratio("r", lambda: state["num"], lambda: state["den"])
        col.start()
        sim.run_until(1_000)
        values = col.get("r").values()
        # Three windows were stalled and must be skipped, not 0.0.
        assert len(values) < 10
        assert values
        for v in values:
            assert v == pytest.approx(2.0)

    def test_get_unknown_series_raises(self):
        sim = Scheduler()
        col = MetricsCollector(sim, interval_ms=100.0)
        col.gauge("present", lambda: 1.0)
        with pytest.raises(KeyError) as exc:
            col.get("presnet")  # typo
        assert "presnet" in str(exc.value)
        assert "present" in str(exc.value)  # registered names aid the fix

    def test_latency_probe(self):
        sim = Scheduler()
        samples = []
        col = MetricsCollector(sim, interval_ms=100.0)
        hist = col.latency("lat", lambda: samples)
        samples.extend([5.0, 5.0])  # pre-start samples must not count
        col.start()
        sim.every(40, lambda: samples.append(10.0))
        sim.run_until(1_000)
        # Probes ran through t=1000; the t=1000 append lands after the
        # t=1000 probe, so 24 of the 25 samples are consumed — and none
        # of the pre-start ones.
        assert hist.count == 24
        assert hist.max == pytest.approx(10.0)
        series = col.get("lat")
        assert series.values()
        for v in series.values():
            assert v == pytest.approx(10.0)

    def test_histogram_registration_reuses_instance(self):
        from repro.metrics.histogram import LatencyHistogram

        sim = Scheduler()
        col = MetricsCollector(sim, interval_ms=100.0)
        h1 = col.histogram("h")
        h2 = col.histogram("h")
        assert h1 is h2
        external = LatencyHistogram("ext")
        assert col.histogram("ext", external) is external
        assert col.histograms["ext"] is external


class TestRatioPartitionRegression:
    def test_link_batch_size_skips_partition_windows(self):
        """Chaos regression for the zero-denominator fix: while the only
        trafficked link is partitioned, no transmissions happen, so the
        batch-size ratio must skip those windows instead of logging 0.0
        (with window 0 every legitimate sample is exactly 1.0)."""
        from repro.broker.topology import build_two_broker
        from repro.client.publisher import PeriodicPublisher
        from repro.sim.failures import FailureSchedule

        sim = Scheduler()
        overlay = build_two_broker(sim, ["P1"])
        pub = PeriodicPublisher(
            sim, overlay.phb, "P1", 100.0, attribute_fn=lambda i: {"g": i % 4}
        )
        col = MetricsCollector(sim, interval_ms=500.0)
        col.link_batching(sim, lambda: float(pub.published))
        faults = FailureSchedule(sim)
        faults.partition_link(overlay.links[0], at_ms=4_100.5, duration_ms=4_000.0)
        pub.start()
        col.start()
        sim.run_until(12_000)
        values = col.get("link.batch_size").values()
        assert values
        # The partition spans ~8 windows; they must be absent entirely.
        assert len(values) < 24
        for v in values:
            assert v >= 1.0  # 0.0 fabrications would fail here


class TestReport:
    def test_format_table_alignment(self):
        out = format_table("Title", ["a", "bee"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert lines[0] == "Title"
        assert "a" in lines[2] and "bee" in lines[2]
        assert len(lines) == 6

    def test_summarize_series(self):
        s = Series("x")
        for i in range(10):
            s.append(i, float(i))
        summary = summarize_series(s, skip_warmup=2)
        assert summary["n"] == 8
        assert summary["min"] == 2.0
        assert summarize_series(Series("empty"))["n"] == 0

    def test_format_series_downsamples(self):
        s = Series("x")
        for i in range(10):
            s.append(i * 1000.0, float(i))
        out = format_series(s, every=2)
        assert out.count("t=") == 5

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100
        assert percentile([], 50) == 0.0
