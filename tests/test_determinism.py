"""Determinism: identical runs produce byte-identical transcripts.

The whole simulation is a deterministic function of its inputs: the
scheduler breaks timestamp ties by insertion order, publishers are
periodic, and the only randomness is what a scenario injects through an
explicitly seeded ``random.Random``.  These tests run each scenario
twice — in the same process, so they also catch accidental dependence
on object identity or hash iteration order — and require the full
delivery transcript and every sampled metric series to serialize to the
same bytes.  Parametrized over batch windows because batching
introduces new scheduling (flush timers, per-batch callbacks) that must
be just as deterministic as the per-message path.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
from typing import List

import pytest

from repro import (
    DurableSubscriber,
    In,
    Node,
    PeriodicPublisher,
    Scheduler,
    build_two_broker,
)
from repro.core import messages as M
from repro.metrics.collector import MetricsCollector

# 0 = per-message path, 1 = sub-tick flush timers, 10 = steady batching.
WINDOWS = [0.0, 1.0, 10.0]


def _record_transcript(sim: Scheduler, sub: DurableSubscriber, out: List[str]) -> None:
    """Wrap ``sub._on_message`` so every consumed message is logged.

    Must be installed before ``connect()`` wires the link handler.
    """
    inner = sub._on_message

    def wrapped(msg: object) -> None:
        if isinstance(msg, M.EventMessage):
            out.append(f"{sim.now:.6f} {sub.sub_id} E {msg.pubend} {msg.t}")
        elif isinstance(msg, M.SilenceMessage):
            out.append(f"{sim.now:.6f} {sub.sub_id} S {msg.pubend} {msg.t}")
        elif isinstance(msg, M.GapMessage):
            out.append(f"{sim.now:.6f} {sub.sub_id} G {msg.pubend} {msg.t}")
        inner(msg)

    sub._on_message = wrapped  # type: ignore[method-assign]


def _serialize_series(collector: MetricsCollector) -> str:
    lines = []
    for name in sorted(collector.series):
        for t, v in collector.get(name).points:
            lines.append(f"{name} {t:.6f} {v!r}")
    return "\n".join(lines)


def _run_quickstart(
    batch_window_ms: float,
    seed: int,
    trace_sample_rate: float = None,
) -> bytes:
    """The quickstart scenario plus seeded random churn.

    ``trace_sample_rate`` installs the event tracer at that rate
    (``None`` leaves it uninstalled entirely); either way the tracer is
    a pure observer and the returned bytes must not depend on it.
    """
    rng = random.Random(seed)
    sim = Scheduler()
    if trace_sample_rate is not None:
        from repro.metrics.trace import install_tracer

        install_tracer(sim, trace_sample_rate, seed=seed)
    overlay = build_two_broker(sim, pubends=["P1"], batch_window_ms=batch_window_ms)
    shb = overlay.shbs[0]
    transcript: List[str] = []

    machine = Node(sim, "client-machine")
    subs = []
    for i in range(4):
        sub = DurableSubscriber(
            sim, f"det-s{i + 1}", machine, In("group", [i % 4, (i + 1) % 4]),
            record_events=True,
        )
        _record_transcript(sim, sub, transcript)
        sub.connect(shb)
        subs.append(sub)

    publisher = PeriodicPublisher(
        sim, overlay.phb, "P1", rate_per_s=100,
        attribute_fn=lambda i: {"group": i % 4},
    )
    publisher.start()

    collector = MetricsCollector(sim, interval_ms=500.0)
    collector.gauge("latestDelivered", lambda: float(shb.latest_delivered("P1")))
    collector.counter_rate(
        "events", lambda: float(sum(s.stats.events for s in subs))
    )
    collector.link_batching(sim, lambda: float(publisher.published))
    collector.start()

    # Seeded churn: each subscriber takes one random nap.
    for sub in subs:
        down_at = rng.uniform(2_000.0, 6_000.0)
        down_for = rng.uniform(500.0, 2_500.0)
        sim.at(down_at, sub.disconnect)
        sim.at(down_at + down_for, lambda s=sub: s.connect(shb))

    sim.run_until(12_000.0)
    publisher.stop()
    sim.run_until(15_000.0)
    collector.stop()

    for sub in subs:
        assert sub.duplicate_events == 0
        assert sub.stats.order_violations == 0
    body = "\n".join(transcript) + "\n---\n" + _serialize_series(collector)
    return body.encode()


def _run_shb_failure(batch_window_ms: float, seed: int) -> bytes:
    """SHB crash/recovery with a seeded crash time and reconnects."""
    rng = random.Random(seed)
    sim = Scheduler()
    overlay = build_two_broker(sim, pubends=["P1"], batch_window_ms=batch_window_ms)
    shb = overlay.shbs[0]
    transcript: List[str] = []

    machine = Node(sim, "client-machine")
    subs = []
    for i in range(3):
        sub = DurableSubscriber(
            sim, f"fail-s{i + 1}", machine, In("group", [i % 4]),
            record_events=True,
        )
        _record_transcript(sim, sub, transcript)
        sub.connect(shb)
        subs.append(sub)

    publisher = PeriodicPublisher(
        sim, overlay.phb, "P1", rate_per_s=100,
        attribute_fn=lambda i: {"group": i % 4},
    )
    publisher.start()

    collector = MetricsCollector(sim, interval_ms=500.0)
    collector.gauge("latestDelivered", lambda: float(shb.latest_delivered("P1")))
    collector.gauge("released", lambda: float(shb.released("P1")))
    collector.start()

    crash_at = rng.uniform(3_000.0, 5_000.0)
    down_for = rng.uniform(1_000.0, 3_000.0)
    sim.at(crash_at, shb.fail_for, down_for)
    # Clients reconnect at staggered random times after recovery.
    for sub in subs:
        back_at = crash_at + down_for + rng.uniform(200.0, 1_500.0)
        sim.at(back_at, lambda s=sub: s.connect(shb) if not s.connected else None)

    sim.run_until(14_000.0)
    publisher.stop()
    sim.run_until(18_000.0)
    collector.stop()

    for sub in subs:
        assert sub.duplicate_events == 0
        assert sub.stats.order_violations == 0
        assert sub.stats.events > 0
    body = "\n".join(transcript) + "\n---\n" + _serialize_series(collector)
    return body.encode()


@pytest.mark.parametrize("window", WINDOWS)
def test_quickstart_deterministic(window):
    first = _run_quickstart(window, seed=1234)
    second = _run_quickstart(window, seed=1234)
    assert first == second


@pytest.mark.parametrize("window", WINDOWS)
def test_shb_failure_deterministic(window):
    first = _run_shb_failure(window, seed=99)
    second = _run_shb_failure(window, seed=99)
    assert first == second


_DIGEST_FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "determinism_digests.json"

# Transcripts are stable across *processes* only under a pinned hash
# seed: same-tick fan-out iterates a set of subscribers, so the order
# (and hence the byte stream) follows the per-process hash seed.  CI
# pins PYTHONHASHSEED=0, which is what the fixtures were captured under.
needs_pinned_hashes = pytest.mark.skipif(
    os.environ.get("PYTHONHASHSEED") != "0",
    reason="digest fixtures require PYTHONHASHSEED=0 (set iteration order)",
)


@needs_pinned_hashes
@pytest.mark.parametrize("window", WINDOWS)
def test_quickstart_matches_recorded_digest(window):
    """Guards the exact legacy path: with fault knobs unset and the
    recorded seed, the transcript must be byte-identical to the digest
    captured before the fault-injection layer existed."""
    digests = json.loads(_DIGEST_FIXTURE.read_text())
    got = hashlib.sha256(_run_quickstart(window, seed=1234)).hexdigest()
    assert got == digests[f"quickstart/w{int(window)}/seed1234"]


@needs_pinned_hashes
@pytest.mark.parametrize("window", WINDOWS)
def test_shb_failure_matches_recorded_digest(window):
    digests = json.loads(_DIGEST_FIXTURE.read_text())
    got = hashlib.sha256(_run_shb_failure(window, seed=99)).hexdigest()
    assert got == digests[f"shb_failure/w{int(window)}/seed99"]


@pytest.mark.parametrize("window", WINDOWS)
def test_tracer_off_is_byte_identical(window):
    """An installed-but-disabled tracer (sample_rate=0, the default)
    adds no scheduler events and draws no randomness: the run's bytes
    match a run with no tracer installed at all."""
    bare = _run_quickstart(window, seed=1234)
    installed = _run_quickstart(window, seed=1234, trace_sample_rate=0.0)
    assert bare == installed


def test_tracer_sampling_is_byte_identical():
    """Even with sampling *on*, the tracer is a pure observer: it uses
    a private RNG and its histograms are not part of the serialized
    body, so transcripts and metric series stay byte-identical."""
    bare = _run_quickstart(0.0, seed=1234)
    traced = _run_quickstart(0.0, seed=1234, trace_sample_rate=1.0)
    assert bare == traced


def test_different_seeds_differ():
    """Sanity check that the seed actually steers the scenario —
    otherwise the byte-equality above would be vacuous."""
    assert _run_quickstart(0.0, seed=1) != _run_quickstart(0.0, seed=2)


@pytest.mark.parametrize("window", WINDOWS)
def test_transcript_same_events_across_windows(window):
    """Batching may change arrival times but never which events arrive.

    Compare the set of (sub, kind=E, pubend, tick) entries against the
    unbatched run: identical membership and identical per-subscriber
    order.
    """
    def event_lines(raw: bytes):
        per_sub = {}
        for line in raw.decode().split("\n---\n")[0].splitlines():
            _t, sub_id, kind, pubend, tick = line.split()
            if kind == "E":
                per_sub.setdefault(sub_id, []).append((pubend, int(tick)))
        return per_sub

    base = event_lines(_run_quickstart(0.0, seed=77))
    other = event_lines(_run_quickstart(window, seed=77))
    assert base == other
