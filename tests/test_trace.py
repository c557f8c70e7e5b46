"""Tests for the sampled end-to-end event tracer."""

import pytest

from repro.broker.topology import build_chain, build_two_broker
from repro.client.publisher import PeriodicPublisher
from repro.client.subscriber import DurableSubscriber
from repro.matching.predicates import Everything
from repro.metrics import trace as T
from repro.net.node import Node
from repro.net.simtime import Scheduler


#: When the two-broker runs start publishing.
LIVE_AT_MS = 100.0


def _run_two_broker(sample_rate, seed=0, duration_ms=4_000.0, install_late=False):
    sim = Scheduler()
    if not install_late:
        T.install_tracer(sim, sample_rate, seed=seed)
    overlay = build_two_broker(sim, ["P1"])
    sub = DurableSubscriber(sim, "s1", Node(sim, "m1"), Everything())
    sub.connect(overlay.shbs[0])
    pub = PeriodicPublisher(
        sim, overlay.phb, "P1", 100.0, attribute_fn=lambda i: {"g": i % 4}
    )
    if install_late:
        # The singleton is reconfigured in place, so installing after
        # the topology cached its reference must behave identically.
        T.install_tracer(sim, sample_rate, seed=seed)
    # Publishing starts once the subscriber's registration is confirmed
    # and its refilter span is behind it: every event is live.
    sim.run_until(LIVE_AT_MS)
    pub.start()
    sim.run_until(LIVE_AT_MS + duration_ms)
    pub.stop()
    sim.run_until(LIVE_AT_MS + duration_ms + 1_000.0)
    return sim, T.event_tracer(sim), pub, sub


class TestSampling:
    def test_default_off(self):
        sim, tracer, pub, sub = _run_two_broker(0.0)
        assert not tracer.active
        assert tracer.started == 0
        assert tracer.histograms == {}
        assert sub.stats.events == pub.published  # delivery unaffected

    def test_rate_one_traces_everything(self):
        sim, tracer, pub, sub = _run_two_broker(1.0)
        assert tracer.started == pub.published
        e2e = tracer.histograms[T.E2E_PUBLISH_DELIVER]
        assert e2e.count == sub.stats.events

    def test_sample_fraction(self):
        sim, tracer, pub, _ = _run_two_broker(0.25, seed=3, duration_ms=10_000.0)
        assert pub.published == 1_000
        assert 0.15 * pub.published < tracer.started < 0.35 * pub.published

    def test_same_seed_same_decisions(self):
        _, t1, _, _ = _run_two_broker(0.25, seed=5)
        _, t2, _, _ = _run_two_broker(0.25, seed=5)
        assert t1.started == t2.started
        assert [tr.event_id for tr in t1.traces()] == [
            tr.event_id for tr in t2.traces()
        ]

    def test_install_order_irrelevant(self):
        _, early, _, _ = _run_two_broker(0.25, seed=5)
        _, late, _, _ = _run_two_broker(0.25, seed=5, install_late=True)
        assert early.started == late.started

    def test_invalid_rate_rejected(self):
        sim = Scheduler()
        with pytest.raises(ValueError):
            T.install_tracer(sim, 1.5)
        with pytest.raises(ValueError):
            T.install_tracer(sim, -0.1)


class TestSpans:
    def test_two_broker_span_taxonomy(self):
        _, tracer, pub, sub = _run_two_broker(1.0)
        expected = {
            T.SPAN_PUBLISH,
            T.SPAN_PHB_LOG,
            T.SPAN_PHB_FORWARD,
            T.SPAN_SHB_MATCH,
            T.SPAN_DELIVER_CONSTREAM,
            T.SPAN_CLIENT_CONSUME,
            T.E2E_PUBLISH_DELIVER,
        }
        assert expected <= set(tracer.histograms)
        # No intermediate broker, no catchup in this run.
        assert T.SPAN_INTERMEDIATE_FORWARD not in tracer.histograms
        assert T.E2E_CATCHUP_LAG not in tracer.histograms
        # Every consumed event closed a full trace: logging dominates
        # and end-to-end covers each component span.
        e2e = tracer.histograms[T.E2E_PUBLISH_DELIVER]
        log = tracer.histograms[T.SPAN_PHB_LOG]
        assert log.count == pub.published
        assert e2e.p50 >= log.p50
        assert log.p50 > 0.0

    def test_span_ordering_within_trace(self):
        _, tracer, _, _ = _run_two_broker(1.0, duration_ms=1_000.0)
        done = [t for t in tracer.traces() if t.consumes > 0]
        assert done
        for trace in done:
            by_name = {s.name: s for s in trace.spans}
            assert by_name[T.SPAN_PUBLISH].start_ms == trace.start_ms
            assert (
                by_name[T.SPAN_PHB_LOG].end_ms
                <= by_name[T.SPAN_PHB_FORWARD].end_ms
                <= by_name[T.SPAN_SHB_MATCH].end_ms
                <= by_name[T.SPAN_DELIVER_CONSTREAM].end_ms
                <= by_name[T.SPAN_CLIENT_CONSUME].end_ms
            )
            for span in trace.spans:
                assert span.end_ms >= span.start_ms >= trace.start_ms

    def test_chain_has_intermediate_spans(self):
        sim = Scheduler()
        T.install_tracer(sim, 1.0)
        overlay = build_chain(sim, ["P1"], n_intermediates=2)
        sub = DurableSubscriber(sim, "s1", Node(sim, "m1"), Everything())
        sub.connect(overlay.shbs[0])
        pub = PeriodicPublisher(
            sim, overlay.phb, "P1", 50.0, attribute_fn=lambda i: {"g": 0}
        )
        pub.start()
        sim.run_until(3_000.0)
        pub.stop()
        sim.run_until(4_000.0)
        tracer = T.event_tracer(sim)
        inter = tracer.histograms[T.SPAN_INTERMEDIATE_FORWARD]
        # Each traced event crosses two intermediates.
        assert inter.count == 2 * pub.published


class TestCatchupClassification:
    def test_reconnect_lag_split_from_live_delivery(self):
        sim = Scheduler()
        T.install_tracer(sim, 1.0)
        overlay = build_two_broker(sim, ["P1"])
        shb = overlay.shbs[0]
        steady = DurableSubscriber(sim, "steady", Node(sim, "m1"), Everything())
        steady.connect(shb)
        churner = DurableSubscriber(sim, "churner", Node(sim, "m2"), Everything())
        churner.connect(shb)
        sim.at(2_000.0, churner.disconnect)
        sim.at(4_000.0, lambda: churner.connect(shb))
        pub = PeriodicPublisher(
            sim, overlay.phb, "P1", 100.0, attribute_fn=lambda i: {"g": i % 4}
        )
        pub.start()
        sim.run_until(6_000.0)
        pub.stop()
        sim.run_until(9_000.0)
        tracer = T.event_tracer(sim)
        lag = tracer.histograms[T.E2E_CATCHUP_LAG]
        live = tracer.histograms[T.E2E_PUBLISH_DELIVER]
        assert T.SPAN_DELIVER_CATCHUP in tracer.histograms
        assert T.SPAN_CATCHUP_RESOLVE in tracer.histograms
        # ~200 events published during the 2s disconnection reach the
        # churner via catchup; the lag includes the disconnected span.
        assert lag.count > 100
        assert lag.p50 > 500.0  # bulk of the backlog waited out the outage
        assert lag.max > 1_000.0
        # The steady subscriber (plus the churner's live spans) stays in
        # the publish->deliver histogram, with normal latencies.
        assert live.count >= steady.stats.events
        assert live.p99 < 1_000.0
        # Both subscribers observed every event exactly once.
        assert steady.stats.events == pub.published
        assert churner.stats.events + churner.stats.gaps == pub.published


class TestBookkeeping:
    def test_eviction_bounds_memory(self):
        sim, tracer, pub, _ = _run_two_broker(0.0)  # topology only
        sim2 = Scheduler()
        tracer2 = T.install_tracer(sim2, 1.0, max_traces=16)

        class _Event:
            def __init__(self, i):
                self.event_id = f"e{i}"
                self.pubend = "P1"

        for i in range(40):
            assert tracer2.begin(_Event(i))
        assert len(tracer2.traces()) == 16
        assert tracer2.evicted == 24
        assert tracer2.started == 40

    def test_snapshot_shape(self):
        _, tracer, _, _ = _run_two_broker(1.0, duration_ms=1_000.0)
        snap = tracer.snapshot()
        assert snap["sample_rate"] == 1.0
        assert snap["traces_started"] == tracer.started
        assert set(snap["histograms"]) == set(tracer.histograms)
        for hist_snap in snap["histograms"].values():
            assert {"count", "p50_ms", "p99_ms", "buckets"} <= set(hist_snap)

    def test_untraced_event_ids_ignored(self):
        sim = Scheduler()
        tracer = T.install_tracer(sim, 1.0)
        tracer.add_span("ghost", T.SPAN_PHB_LOG, "B1")
        tracer.on_match("ghost", "B1")
        tracer.on_deliver("ghost", "s1", False, 0.0)
        tracer.on_consume("ghost", "s1")
        assert tracer.histograms == {}
        assert tracer.consumed == 0
