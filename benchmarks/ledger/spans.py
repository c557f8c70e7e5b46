"""Span tracing from outside the program, for the traced benchmark run.

Nothing under ``src/`` knows about this file.  :func:`install` replaces
public scheduling entry points and a few layer-boundary methods with
wrappers, so that every callback the program runs becomes a *span*
named after the layer that owns it.  Spans nest on an in-memory stack;
a span's self time is its duration minus the time its children cover.
Only per-layer totals are kept, folded in as each span closes, so a
traced run of millions of spans stays in bounded memory.

The owner of a callback is the class of the object it belongs to — the
``self`` of a bound method, or the ``self`` a lambda closed over — and
only then the module the function was written in.  A lambda in
``broker/base.py`` that forwards to ``self._handle_from_parent`` on an
SHB is therefore charged to ``broker.shb``, where its time goes.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer, first match wins.  A layer is the unit the
#: per-layer ``*_self_s`` metrics are reported in.
_LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.net.simtime", "net.simtime"),
    ("repro.net.node", "net.node"),
    ("repro.net.link", "net.link"),
    ("repro.matching", "matching"),
    ("repro.broker.intermediate", "broker.intermediate"),
    ("repro.broker.phb", "broker.phb"),
    ("repro.broker.shb", "broker.shb"),
    ("repro.pfs", "pfs.write"),  # reads are spanned explicitly as pfs.read
    ("repro.core.catchup", "core.catchup"),
    ("repro.core.constream", "core.constream"),
    ("repro.core", "core.other"),
    ("repro.client.subscriber", "client.subscriber"),
    ("repro.client.publisher", "loadgen"),
    ("repro.workloads", "loadgen"),
    ("repro.storage", "storage"),
    ("repro.metrics", "metrics"),
    ("repro.adapters.rt", "adapters.rt"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, layer in _LAYER_PREFIXES]
    + ["pfs.read", "storage.logvolume.flush", "adapters.rt.transport.encode",
       "adapters.rt.transport.decode", "adapters.rt.loop", "ledger.harness", "other"]
))


def _layer_of_module(module: Optional[str]) -> str:
    if module:
        for prefix, layer in _LAYER_PREFIXES:
            if module.startswith(prefix):
                return layer
    return "other"


class Tracer:
    """Parent-stack span recorder with per-layer self-time totals."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []  # open spans: [start, seconds covered by children]
        self._owner_cache: Dict[Any, str] = {}
        #: Instances of the classes named in :func:`install`, so their
        #: public counters can be summed after the run.
        self.instances: Dict[str, List[Any]] = defaultdict(list)
        #: Counts the program keeps no counter for, made by a wrapper.
        self.counts: Dict[str, float] = defaultdict(float)
        # Every wrapper ``span`` returns shares one code object, which
        # is how an already-spanned callback is recognised.
        self._span_code = self.span("other", id).__code__

    # -- spans ---------------------------------------------------------
    def span(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` run inside a span of ``layer``.

        Millions of spans open in a traced run, so they are folded into
        the per-layer totals as they close instead of being kept.
        """
        stack, clock = self._stack, time.perf_counter
        self_s, calls = self.self_s, self.calls

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = clock() - frame[0]
                self_s[layer] += duration - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += duration

        return traced

    def reset(self) -> None:
        """Forget closed spans: the timed region starts here."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    # -- callback ownership --------------------------------------------
    def _layer_of_object(self, obj: Any) -> str:
        cls = type(obj)
        layer = self._owner_cache.get(cls)
        if layer is None:
            layer = self._owner_cache[cls] = _layer_of_module(cls.__module__)
        return layer

    def owner(self, fn: Callable[..., Any]) -> str:
        while isinstance(fn, functools.partial):
            fn = fn.func
        bound_to = getattr(fn, "__self__", None)
        if bound_to is not None and not isinstance(bound_to, types.ModuleType):
            return self._layer_of_object(bound_to)
        code = getattr(fn, "__code__", None)
        if code is not None and "self" in code.co_freevars:
            cell = fn.__closure__[code.co_freevars.index("self")]  # type: ignore[index]
            try:
                return self._layer_of_object(cell.cell_contents)
            except ValueError:  # the cell is still empty
                pass
        key = code if code is not None else type(fn)
        layer = self._owner_cache.get(key)
        if layer is None:
            layer = self._owner_cache[key] = _layer_of_module(getattr(fn, "__module__", None))
        return layer

    def callback(self, fn: Optional[Callable[..., Any]]) -> Optional[Callable[..., Any]]:
        """``fn`` as a span named after its owner (idempotent)."""
        if fn is None or getattr(fn, "__code__", None) is self._span_code:
            return fn
        try:  # the common case, a bound method of an object seen before
            layer = self._owner_cache[fn.__self__.__class__]
        except (AttributeError, KeyError):
            layer = self.owner(fn)
        return self.span(layer, fn)


# ----------------------------------------------------------------------
# Wrapping the program's public entry points
# ----------------------------------------------------------------------
def _wrap_scheduling(tracer: Tracer, cls: type) -> None:
    """at/after/post/every of a Clock: the callback becomes a span."""
    counter = f"{_layer_of_module(cls.__module__)}.timers_scheduled"
    for name in ("at", "after", "post"):
        original = getattr(cls, name)

        def schedule(self, when, fn, *args, _original=original):
            tracer.counts[counter] += 1
            return _original(self, when, tracer.callback(fn), *args)

        setattr(cls, name, functools.wraps(original)(schedule))
    original_every = cls.every

    @functools.wraps(original_every)
    def every(self, interval, fn, *args, **kwargs):
        return original_every(self, interval, tracer.callback(fn), *args, **kwargs)

    cls.every = every


def _wrap_method(
    tracer: Tracer,
    cls: type,
    name: str,
    layer: Optional[str] = None,
    callback: Optional[Tuple[int, str]] = None,
) -> None:
    """Run ``cls.name`` inside a span of ``layer`` and/or span its callback.

    ``callback`` is the (position after ``self``, keyword) of a
    completion callback the method takes — an ``on_durable`` — which
    would otherwise run inside whatever layer happens to fire it.
    """
    original = getattr(cls, name)
    target = tracer.span(layer, original) if layer is not None else original
    if callback is not None:
        position, keyword = callback
        inner = target

        @functools.wraps(original)
        def target(self, *args, **kwargs):
            if keyword in kwargs:
                kwargs[keyword] = tracer.callback(kwargs[keyword])
            elif len(args) > position:
                args = (*args[:position], tracer.callback(args[position]), *args[position + 1:])
            return inner(self, *args, **kwargs)

    setattr(cls, name, target)


def track_instances(tracer: Tracer, cls: type) -> None:
    """Keep every ``cls`` the run creates, to sum its counters afterwards."""
    original = cls.__init__
    bucket = tracer.instances[cls.__name__]

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        bucket.append(self)
        original(self, *args, **kwargs)

    cls.__init__ = init


def install(tracer: Tracer, rt: bool) -> None:
    """Patch the program's classes; call before the scenario is built."""
    from repro.core.catchup import CatchupStream
    from repro.core.constream import ConsolidatedStream
    from repro.core.curiosity import CuriosityStream, NackConsolidator
    from repro.matching.engine import MatchingEngine
    from repro.metrics.trace import EventTracer
    from repro.net.link import LinkEnd
    from repro.net.node import Node
    from repro.net.simtime import Scheduler
    from repro.pfs.pfs import PersistentFilteringSubsystem
    from repro.storage.eventlog import PersistentEventLog
    from repro.storage.logvolume import LogVolume
    from repro.storage.table import PersistentTable

    _wrap_scheduling(tracer, Scheduler)
    _wrap_method(tracer, Scheduler, "run_until", "net.simtime")

    for name in ("submit", "try_submit"):
        original = getattr(Node, name)

        def submit(self, cost_ms, fn, _original=original, _name=name):
            if _name == "submit":  # try_submit forwards to submit
                tracer.counts["net.node.jobs_submitted"] += 1
            return _original(self, cost_ms, tracer.callback(fn))

        setattr(Node, name, functools.wraps(original)(submit))

    original_on_receive = LinkEnd.on_receive

    @functools.wraps(original_on_receive)
    def on_receive(self, handler, recv_cost, batch_handler=None):
        return original_on_receive(
            self, tracer.callback(handler), recv_cost, tracer.callback(batch_handler)
        )

    LinkEnd.on_receive = on_receive

    for name in ("match", "matches_any", "match_at", "match_batch",
                 "matches_any_batch", "match_at_batch", "matches_subscription"):
        _wrap_method(tracer, MatchingEngine, name, "matching")
    _wrap_method(tracer, PersistentFilteringSubsystem, "write", "pfs.write", (3, "on_durable"))
    _wrap_method(tracer, PersistentFilteringSubsystem, "write_batch", "pfs.write", (2, "on_durable"))
    _wrap_method(tracer, PersistentFilteringSubsystem, "chop_below", "pfs.write")
    for name in ("read_batch", "recover"):
        _wrap_method(tracer, PersistentFilteringSubsystem, name, "pfs.read")
    for name in ("pump", "accumulate_many"):
        _wrap_method(tracer, ConsolidatedStream, name, "core.constream")
    _wrap_method(tracer, CatchupStream, "pump", "core.catchup")
    _wrap_method(tracer, LogVolume, "flush", "storage.logvolume.flush")
    _wrap_method(tracer, PersistentTable, "commit", "storage", (0, "on_durable"))
    _wrap_method(tracer, PersistentEventLog, "append", "storage", (1, "on_durable"))
    # The hooks the program calls on every hop whether or not the
    # repo's own event tracer is sampling.
    for name in ("tracing", "active"):
        prop = getattr(EventTracer, name)
        setattr(EventTracer, name, property(tracer.span("metrics", prop.fget)))

    for cls in (Node, MatchingEngine, PersistentFilteringSubsystem, ConsolidatedStream,
                CatchupStream, CuriosityStream, NackConsolidator, LogVolume,
                PersistentTable, PersistentEventLog):
        track_instances(tracer, cls)

    if rt:
        _install_rt(tracer)
    else:
        from repro.storage.disk import SimDisk
        _wrap_method(tracer, SimDisk, "write", callback=(1, "on_durable"))
        track_instances(tracer, SimDisk)


def _install_rt(tracer: Tracer) -> None:
    from repro.adapters.rt import transport
    from repro.adapters.rt.clock import AsyncioClock
    from repro.adapters.rt.storage import RealDisk
    from repro.adapters.rt.transport import TcpConnection

    _wrap_scheduling(tracer, AsyncioClock)

    original_on_message = TcpConnection.on_message

    @functools.wraps(original_on_message)
    def on_message(self, fn):
        return original_on_message(self, tracer.callback(fn))

    TcpConnection.on_message = on_message

    original_encode = transport.encode_frame

    @functools.wraps(original_encode)
    def encode_frame(msg):
        frame = original_encode(msg)
        tracer.counts["adapters.rt.transport.frames_sent"] += 1
        tracer.counts["adapters.rt.transport.bytes_sent"] += len(frame)
        return frame

    # TcpConnection.send looks these up in the module at call time.
    transport.encode_frame = tracer.span("adapters.rt.transport.encode", encode_frame)
    transport.decode_payload = tracer.span(
        "adapters.rt.transport.decode", transport.decode_payload
    )

    original_write = RealDisk.write

    @functools.wraps(original_write)
    def write(self, nbytes, on_durable=None):
        if on_durable is not None:
            staged = time.perf_counter()
            inner = tracer.callback(on_durable)

            def durable():
                tracer.counts["adapters.rt.storage.sync_wait_s"] += time.perf_counter() - staged
                inner()

            on_durable = durable
        return original_write(self, nbytes, on_durable)

    RealDisk.write = tracer.span("adapters.rt", write)
    track_instances(tracer, RealDisk)


# ----------------------------------------------------------------------
# Reading the program's public counters after the run
# ----------------------------------------------------------------------
def raw_counters(tracer: Tracer, brokers: List[Any]) -> Dict[str, Any]:
    """Sums over every tracked instance and over ``brokers``.

    Values are plain sums (and one list), so the dumps of two broker
    incarnations can be added before :func:`derive` takes ratios.
    Keys starting with ``_`` are ingredients, not metrics.
    """
    inst = tracer.instances

    def total(cls: str, attr: str) -> float:
        return float(sum(getattr(obj, attr) for obj in inst[cls]))

    pfs, engine = "PersistentFilteringSubsystem", "MatchingEngine"
    raw: Dict[str, Any] = {
        "net.node.jobs_submitted": tracer.counts["net.node.jobs_submitted"],
        "net.node.modelled_busy_ms": sum(n.busy.total_busy_ms for n in inst["Node"]),
        "matching.events_processed": total(engine, "events_processed"),
        "matching.batch_events": total(engine, "batch_events"),
        "matching.atoms_examined": total(engine, "atoms_examined"),
        "_matching.probe_cache_hits": total(engine, "probe_cache_hits"),
        "_matching.sig_memo_hits": total(engine, "sig_memo_hits"),
        "pfs.writes": total(pfs, "writes"),
        "pfs.batch_appends": total(pfs, "batch_appends"),
        "pfs.bytes_written": total(pfs, "bytes_written"),
        "pfs.reads": total(pfs, "reads"),
        "_pfs.reads_reaching_last": total(pfs, "reads_reaching_last"),
        "pfs.chain_breaks": total(pfs, "chain_breaks"),
        "core.catchup.events_delivered": total("CatchupStream", "events_delivered"),
        "core.catchup.pfs_reads": total("CatchupStream", "pfs_reads"),
        "core.curiosity.nacks_sent": total("CuriosityStream", "nacks_sent"),
        "core.curiosity.ticks_nacked": total("CuriosityStream", "ticks_nacked"),
        "core.curiosity.renacks": total("CuriosityStream", "renacks"),
        "core.curiosity.consolidated_ticks": total("NackConsolidator", "consolidated_ticks"),
        "core.constream.events_delivered": total("ConsolidatedStream", "events_delivered"),
        "core.constream.fanout_batches": total("ConsolidatedStream", "fanout_batches"),
        "core.constream.silences_sent": total("ConsolidatedStream", "silences_sent"),
        "storage.logvolume.bytes_appended": total("LogVolume", "bytes_appended"),
        "storage.table.commits": total("PersistentTable", "commits"),
        "storage.eventlog.appends": total("PersistentEventLog", "appended"),
        "storage.disk.syncs_completed": total("SimDisk", "syncs_completed"),
        "storage.disk.bytes_written": total("SimDisk", "bytes_written"),
        "adapters.rt.storage.syncs": total("RealDisk", "syncs"),
        "_adapters.rt.storage.writes": total("RealDisk", "writes"),
        "adapters.rt.storage.sync_wait_s": tracer.counts["adapters.rt.storage.sync_wait_s"],
        "adapters.rt.transport.frames_sent": tracer.counts["adapters.rt.transport.frames_sent"],
        "adapters.rt.transport.bytes_sent": tracer.counts["adapters.rt.transport.bytes_sent"],
        "adapters.rt.clock.timers_scheduled": tracer.counts["adapters.rt.timers_scheduled"],
        "broker.phb.events_accepted": 0.0,
        "broker.phb.nacks_served": 0.0,
        "broker.intermediate.cache_hits": 0.0,
        "broker.intermediate.cache_miss_ticks": 0.0,
        "broker.shb.events_enqueued": 0.0,
        "broker.shb.delivery_batches": 0.0,
        "broker.shb.cache_served_nacks": 0.0,
        "_core.catchup.durations_ms": [],
    }
    for broker in brokers:
        kind = type(broker).__name__
        if kind == "PublisherHostingBroker":
            raw["broker.phb.events_accepted"] += broker.events_accepted
            raw["broker.phb.nacks_served"] += broker.nacks_served
        elif kind == "IntermediateBroker":
            raw["broker.intermediate.cache_hits"] += broker.cache_hits
            raw["broker.intermediate.cache_miss_ticks"] += broker.cache_miss_ticks
        elif kind == "SubscriberHostingBroker":
            raw["broker.shb.events_enqueued"] += broker.events_enqueued
            raw["broker.shb.delivery_batches"] += broker.delivery_batches
            raw["broker.shb.cache_served_nacks"] += broker.cache_served_nacks
            raw["_core.catchup.durations_ms"].extend(d for _end, d in broker.catchup_durations_ms)
    for layer, seconds in tracer.self_s.items():
        raw[f"_self_s.{layer}"] = seconds
    return raw


def add_raw(total: Dict[str, Any], more: Dict[str, Any]) -> Dict[str, Any]:
    """``total`` with ``more`` added in, key by key."""
    for key, value in more.items():
        total[key] = total[key] + value if key in total else value
    return total


def subtract_raw(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """What ``after`` gained over ``before``: the timed region's share."""
    return {
        key: value[len(before.get(key, [])):] if isinstance(value, list)
        else value - before.get(key, 0.0)
        for key, value in after.items()
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: Layer -> the per-layer metric its self time is reported as.
SELF_TIME_METRIC = {
    "pfs.write": "pfs.write_self_s",
    "pfs.read": "pfs.read_self_s",
    "storage.logvolume.flush": "storage.logvolume.flush_s",
    "adapters.rt.transport.encode": "adapters.rt.transport.encode_s",
    "adapters.rt.transport.decode": "adapters.rt.transport.decode_s",
}


def derive(raw: Dict[str, Any], traced_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics: counts as read, ratios, self times."""
    out = {k: float(v) for k, v in raw.items() if not k.startswith("_")}
    events = raw["matching.events_processed"]
    out["matching.probe_cache_hit_ratio"] = _ratio(raw["_matching.probe_cache_hits"], events)
    out["matching.sig_memo_hit_ratio"] = _ratio(raw["_matching.sig_memo_hits"], events)
    out["pfs.reads_reaching_last_ratio"] = _ratio(raw["_pfs.reads_reaching_last"], raw["pfs.reads"])
    out["adapters.rt.storage.writes_per_sync"] = _ratio(
        raw["_adapters.rt.storage.writes"], raw["adapters.rt.storage.syncs"])
    out["adapters.rt.transport.bytes_per_frame"] = _ratio(
        raw["adapters.rt.transport.bytes_sent"], raw["adapters.rt.transport.frames_sent"])
    durations = raw["_core.catchup.durations_ms"]
    out["core.catchup.streams_completed"] = float(len(durations))
    out["core.catchup.duration_p50_ms"] = statistics.median(durations) if durations else 0.0
    self_sum = 0.0
    for layer in LAYERS:
        seconds = raw.get(f"_self_s.{layer}", 0.0)
        self_sum += seconds
        out[SELF_TIME_METRIC.get(layer, f"{layer}.self_s")] = seconds
    out["trace.self_sum_ratio"] = _ratio(self_sum, traced_wall_s)
    return out
