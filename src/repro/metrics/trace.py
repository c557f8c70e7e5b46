"""Sampled end-to-end event tracing (publish → hop spans → consume).

The broker overlay is a dataflow graph (Gryphon's information-flow
framing); a trace mirrors one event's path through it.  A publish that
the seeded sampler selects gets a ``trace_id``; every hop then records
a :class:`Span` against the event id:

* ``publish.accept``       client publish → PHB accepts (CPU queue)
* ``phb.log``              event staged → durably logged at the pubend
* ``phb.forward``          durable → handed to the downlink
* ``intermediate.forward`` relay intake → handed to the next downlink
* ``shb.match``            SHB intake → constream matched the event
* ``catchup.resolve``      SHB intake → catchup stream released the event
* ``deliver.constream``    delivery enqueued → sent on the client link
* ``deliver.catchup``      same, via a catchup stream
* ``client.consume``       publish → the subscriber consumed the event

Span closures feed per-span :class:`~repro.metrics.histogram.
LatencyHistogram` instances, plus two end-to-end histograms keyed by
how the event reached each subscriber: ``e2e.publish_deliver``
(consolidated stream) and ``e2e.catchup_lag`` (catchup after a
reconnect; the lag includes the disconnected span, which is the
quantity a reconnecting durable subscriber experiences).

Determinism: the tracer is a pure observer.  It schedules no events,
sends no messages, and with ``sample_rate=0`` (the default) draws no
random numbers — transcripts and determinism digests are byte-identical
whether or not a tracer is installed.  Sampling decisions use a private
``random.Random(f"trace:{seed}")`` so a sampled run is itself exactly
reproducible and perturbs no scenario RNG.

Installation: the tracer is a per-scheduler singleton (the same pattern
as :func:`repro.net.link.link_stats`).  Components cache the accessor's
result at construction; :func:`install_tracer` therefore *reconfigures*
the existing singleton in place, so it works whether it is called
before or after the topology is built.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..net.simtime import Scheduler
from .histogram import LatencyHistogram

# Span taxonomy (one constant per hop; see module docstring).
SPAN_PUBLISH = "publish.accept"
SPAN_PHB_LOG = "phb.log"
SPAN_PHB_FORWARD = "phb.forward"
SPAN_INTERMEDIATE_FORWARD = "intermediate.forward"
SPAN_SHB_MATCH = "shb.match"
SPAN_CATCHUP_RESOLVE = "catchup.resolve"
SPAN_DELIVER_CONSTREAM = "deliver.constream"
SPAN_DELIVER_CATCHUP = "deliver.catchup"
SPAN_CLIENT_CONSUME = "client.consume"

# End-to-end histograms, split by delivery mode per subscriber.
E2E_PUBLISH_DELIVER = "e2e.publish_deliver"
E2E_CATCHUP_LAG = "e2e.catchup_lag"


@dataclass
class Span:
    """One hop of a traced event's path."""

    name: str
    node: str
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass
class Trace:
    """All recorded spans for one sampled event."""

    trace_id: int
    event_id: str
    pubend: str
    start_ms: float
    spans: List[Span] = field(default_factory=list)
    #: Subscribers this event reached through a catchup stream; used to
    #: classify each subscriber's end-to-end observation (the same event
    #: can reach one subscriber live and another via catchup).
    catchup_subs: Set[str] = field(default_factory=set)
    consumes: int = 0


class EventTracer:
    """Per-scheduler sampling tracer (see module docstring)."""

    def __init__(
        self,
        scheduler: Scheduler,
        sample_rate: float = 0.0,
        seed: int = 0,
        max_traces: int = 8192,
    ) -> None:
        self.scheduler = scheduler
        self.sample_rate = 0.0
        self.seed = seed
        self.max_traces = max_traces
        self._rng = random.Random()
        self._traces: "OrderedDict[str, Trace]" = OrderedDict()
        self._arrivals: Dict[str, float] = {}
        self.histograms: Dict[str, LatencyHistogram] = {}
        self.started = 0
        self.consumed = 0
        self.evicted = 0
        self._next_id = 1
        self.configure(sample_rate=sample_rate, seed=seed, max_traces=max_traces)

    def configure(
        self,
        sample_rate: float,
        seed: int = 0,
        max_traces: int = 8192,
    ) -> None:
        """(Re)arm the tracer; resets all recorded state and the RNG."""
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = sample_rate
        self.seed = seed
        self.max_traces = max_traces
        self._rng = random.Random(f"trace:{seed}")
        self._traces = OrderedDict()
        self._arrivals = {}
        self.histograms = {}
        self.started = 0
        self.consumed = 0
        self.evicted = 0
        self._next_id = 1

    # ------------------------------------------------------------------
    # State predicates (hot-path guards)
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Sampling is on (publish sites consult this before drawing)."""
        return self.sample_rate > 0.0

    @property
    def tracing(self) -> bool:
        """At least one live trace exists (hop sites guard on this)."""
        return bool(self._traces)

    def traces(self) -> List[Trace]:
        return list(self._traces.values())

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _hist(self, name: str) -> LatencyHistogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = LatencyHistogram(name)
        return hist

    def begin(self, event, start_ms: Optional[float] = None) -> bool:
        """Sampling decision at publish; returns True iff traced.

        ``start_ms`` is the client-side publish time when known (it may
        precede the PHB accepting the event off its CPU queue); the
        trace's end-to-end clock starts there.
        """
        if self.sample_rate <= 0.0:
            return False
        if self._rng.random() >= self.sample_rate:
            return False
        start = self.scheduler.now if start_ms is None else start_ms
        trace = Trace(self._next_id, event.event_id, event.pubend, start)
        self._next_id += 1
        self.started += 1
        self._traces[event.event_id] = trace
        while len(self._traces) > self.max_traces:
            evicted_id, _ = self._traces.popitem(last=False)
            self._arrivals.pop(evicted_id, None)
            self.evicted += 1
        return True

    def add_span(
        self,
        event_id: str,
        name: str,
        node: str,
        start_ms: Optional[float] = None,
        end_ms: Optional[float] = None,
    ) -> None:
        trace = self._traces.get(event_id)
        if trace is None:
            return
        end = self.scheduler.now if end_ms is None else end_ms
        start = end if start_ms is None else start_ms
        trace.spans.append(Span(name, node, start, end))
        self._hist(name).observe(end - start)

    def mark_events(
        self,
        events: Iterable[object],
        name: str,
        node: str,
        start_ms: Optional[float] = None,
    ) -> None:
        """Record one span per traced event in a forwarded batch."""
        if not self._traces:
            return
        for event in events:
            self.add_span(event.event_id, name, node, start_ms=start_ms)

    def note_arrival(self, event_id: str, now_ms: Optional[float] = None) -> None:
        """Memo an SHB intake time so the match span has a start."""
        if event_id in self._traces:
            self._arrivals[event_id] = (
                self.scheduler.now if now_ms is None else now_ms
            )

    def on_match(self, event_id: str, node: str) -> None:
        """Constream matched the event (span: SHB arrival → now)."""
        if event_id not in self._traces:
            return
        start = self._arrivals.pop(event_id, None)
        self.add_span(event_id, SPAN_SHB_MATCH, node, start_ms=start)

    def on_catchup_resolve(self, event_id: str, node: str) -> None:
        """A catchup stream handed the event off for delivery.

        The span runs from SHB intake (the same arrival memo the match
        span uses) to now, so it captures in-order head-of-line wait:
        an event that arrived early but had to wait for earlier ticks
        before the catchup stream could release it.
        """
        if event_id not in self._traces:
            return
        start = self._arrivals.pop(event_id, None)
        self.add_span(event_id, SPAN_CATCHUP_RESOLVE, node, start_ms=start)

    def on_deliver(
        self, event_id: str, sub_id: str, via_catchup: bool, start_ms: float
    ) -> None:
        """The event left the SHB toward ``sub_id`` (span: enqueue → send)."""
        trace = self._traces.get(event_id)
        if trace is None:
            return
        if via_catchup:
            trace.catchup_subs.add(sub_id)
            self.add_span(event_id, SPAN_DELIVER_CATCHUP, sub_id, start_ms=start_ms)
        else:
            self.add_span(event_id, SPAN_DELIVER_CONSTREAM, sub_id, start_ms=start_ms)

    def on_consume(self, event_id: str, sub_id: str) -> None:
        """The subscriber consumed the event: close the end-to-end span."""
        trace = self._traces.get(event_id)
        if trace is None:
            return
        now = self.scheduler.now
        trace.consumes += 1
        self.consumed += 1
        self.add_span(event_id, SPAN_CLIENT_CONSUME, sub_id, start_ms=trace.start_ms)
        e2e_name = (
            E2E_CATCHUP_LAG if sub_id in trace.catchup_subs else E2E_PUBLISH_DELIVER
        )
        self._hist(e2e_name).observe(now - trace.start_ms)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        return {
            "sample_rate": self.sample_rate,
            "seed": self.seed,
            "traces_started": self.started,
            "consumes_observed": self.consumed,
            "traces_evicted": self.evicted,
            "histograms": {
                name: self.histograms[name].snapshot()
                for name in sorted(self.histograms)
            },
        }


def event_tracer(scheduler: Scheduler) -> EventTracer:
    """The shared :class:`EventTracer` for ``scheduler`` (lazy, default
    off).  Every traced component calls this once at construction — the
    same per-scheduler-singleton pattern as ``link_stats``."""
    tracer = getattr(scheduler, "_event_tracer", None)
    if tracer is None:
        tracer = EventTracer(scheduler)
        scheduler._event_tracer = tracer  # type: ignore[attr-defined]
    return tracer


def install_tracer(
    scheduler: Scheduler,
    sample_rate: float,
    seed: int = 0,
    max_traces: int = 8192,
) -> EventTracer:
    """Arm ``scheduler``'s tracer with a sampling rate and seed.

    Reconfigures the singleton in place, so components that already
    cached it (topology built first) observe the new rate too.
    """
    tracer = event_tracer(scheduler)
    tracer.configure(sample_rate=sample_rate, seed=seed, max_traces=max_traces)
    return tracer
