"""The two real-time workloads: a real broker process and a load generator.

The system under test is one unmodified
``python -m repro.adapters.rt.broker_main`` process — localhost TCP,
file-backed journals, real ``fsync``.  This module is the other
process: a single-threaded asyncio load generator holding exactly two
TCP connections, one :class:`ReliablePublisher` and one
:class:`DurableSubscriber`, so with the broker there are as many
runnable threads as the 2-core box has cores.  Publisher, subscriber
and stopwatch share one process and therefore one clock.

``rt-live`` — phase A is an open loop (events are sent on a schedule
whatever the broker does, and timed from when they were *due*), phase
B a closed loop (a flood the publisher's window admits as acks return).
``rt-outage-catchup`` — the subscriber is away while a backlog is
published, the broker is ``SIGKILL``\\ ed and restarted on the same
volumes, and the subscriber must catch up exactly what it is owed.

Every broker gets an ephemeral port and a fresh data directory under
the run's scratch directory, and is reaped with ``SIGKILL`` whatever
happens.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import statistics
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

HOST = "127.0.0.1"
PUBEND = "stream"
GROUPS = 8
PUBLISH_WINDOW = 256
#: Brokers started per run to time set-up; the last one serves the run.
SETUP_SAMPLES = 3
#: An open-loop phase whose generator ran later than this is unresolved.
MAX_LATE_MS = 50.0

#: How much work one ``--seconds`` second buys, per preset.
SIZES: Dict[str, Dict[str, Dict[str, float]]] = {
    "rt-live": {
        # open-loop rate, share of --seconds spent in it, flood events per second
        "smoke": {"rate_per_s": 150.0, "open_share": 0.5, "flood_per_s": 130.0},
        "bench": {"rate_per_s": 150.0, "open_share": 0.8, "flood_per_s": 110.0},
        "full": {"rate_per_s": 150.0, "open_share": 0.6, "flood_per_s": 160.0},
    },
    "rt-outage-catchup": {
        "smoke": {"backlog_per_s": 250.0},
        "bench": {"backlog_per_s": 400.0},
        "full": {"backlog_per_s": 400.0},
    },
}
#: Bursts the closed-loop flood is published in.
FLOOD_BURSTS = 3
#: Outages per run of ``rt-outage-catchup``.
OUTAGE_CYCLES = 3


class Broker:
    """One broker incarnation: spawn, observe through /proc, kill."""

    def __init__(self, proc: asyncio.subprocess.Process, port: int, spawn_s: float,
                 data_dir: str, dump_path: Optional[str]) -> None:
        self.proc = proc
        self.port = port
        self.spawn_s = spawn_s
        self.data_dir = data_dir
        self.dump_path = dump_path

    @classmethod
    async def spawn(cls, data_dir: str, port: int, traced: bool) -> "Broker":
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        args = ["--data-dir", data_dir, "--port", str(port), "--pubends", PUBEND]
        dump_path = None
        if traced:
            dump_path = os.path.join(data_dir, f"trace-{time.monotonic_ns()}.json")
            command = [sys.executable, os.path.join(HERE, "traced_broker.py"), dump_path, *args]
        else:
            command = [sys.executable, "-m", "repro.adapters.rt.broker_main", *args]
        start = time.perf_counter()
        proc = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE, env=env
        )
        try:
            banner = await asyncio.wait_for(proc.stdout.readline(), timeout=60)
            if not banner.startswith(b"LISTENING"):
                raise RuntimeError(f"unexpected broker banner: {banner!r}")
        except BaseException:
            proc.kill()
            await proc.wait()
            raise
        return cls(proc, int(banner.split()[1]), time.perf_counter() - start, data_dir, dump_path)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    async def trace_dump(self) -> Dict[str, Any]:
        """Ask a traced broker for its spans and counters so far."""
        assert self.dump_path is not None
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 30
        while not os.path.exists(self.dump_path):
            if time.perf_counter() > deadline:
                raise TimeoutError("traced broker wrote no dump")
            await asyncio.sleep(0.01)
        with open(self.dump_path) as f:
            return json.load(f)

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGKILL)
        await self.proc.wait()


class Run:
    """State shared by the phases of one rt run."""

    def __init__(self, workload: str, preset: str, seed: int, seconds: float,
                 traced: bool, scratch: str) -> None:
        from repro.adapters.rt.clock import AsyncioClock

        self.size = SIZES[workload][preset]
        self.seconds = seconds
        self.traced = traced
        self.scratch = scratch
        self.rng = random.Random(f"ledger-{workload}:{seed}")
        self.group_offset = self.rng.randrange(GROUPS)
        self.clock = AsyncioClock()
        self.loop = asyncio.get_event_loop()
        self.brokers: List[Broker] = []
        self.received: List[int] = []       # attribute "n" of each delivery, in order
        self.received_at: List[float] = []  # loop time of each delivery
        self.peak_rss_mb = 0.0
        self.dumps: List[Dict[str, Any]] = []
        self.cpu0 = time.process_time()
        self.wall0 = time.perf_counter()

    def attributes(self, n: int) -> Dict[str, Any]:
        """Event ``n``: its number, its group, and seeded filler."""
        return {"n": n, "group": (n + self.group_offset) % GROUPS,
                "tag": self.rng.getrandbits(32)}

    def on_event(self, msg: Any) -> None:
        self.received.append(msg.event.attributes["n"])
        self.received_at.append(self.loop.time())

    async def start_broker(self, data_dir: str, port: int = 0) -> Broker:
        broker = await Broker.spawn(data_dir, port, self.traced)
        self.brokers.append(broker)
        return broker

    async def retire(self, broker: Broker) -> None:
        """Record what the incarnation used, then SIGKILL it."""
        self.peak_rss_mb = max(self.peak_rss_mb, broker.peak_rss_mb())
        if self.traced:
            self.dumps.append(await broker.trace_dump())
        await broker.kill()

    async def wait_until(self, cond: Callable[[], bool], timeout_s: float, what: str) -> None:
        deadline = self.loop.time() + timeout_s
        while not cond():
            if self.loop.time() > deadline:
                raise TimeoutError(f"timed out waiting for {what}")
            await asyncio.sleep(0.002)

    async def set_up(self, predicate: Any) -> Tuple[Broker, Any, Any, float]:
        """Broker up, subscriber registered, publisher attached.

        Done :data:`SETUP_SAMPLES` times on fresh volumes; the median
        is the run's set-up time and the last broker is kept.
        """
        from repro.adapters.rt.transport import open_connection
        from repro.client.publisher import ReliablePublisher
        from repro.client.subscriber import DurableSubscriber

        samples = []
        for i in range(SETUP_SAMPLES):
            data_dir = tempfile.mkdtemp(prefix="broker-", dir=self.scratch)
            start = time.perf_counter()
            broker = await self.start_broker(data_dir)
            sub = DurableSubscriber(
                self.clock, "sub1", node=None, predicate=predicate,
                ack_interval_ms=100.0, on_event=self.on_event, connect_retry_ms=200.0,
            )
            sub.connect_channel(await open_connection(HOST, broker.port))
            await self.wait_until(lambda: sub._first_connect_done, 20, "subscriber registration")
            pub = ReliablePublisher(
                self.clock, None, None, "pub1", PUBEND, window=PUBLISH_WINDOW,
                retransmit_ms=300.0, channel=await open_connection(HOST, broker.port),
            )
            samples.append(time.perf_counter() - start)
            if i < SETUP_SAMPLES - 1:
                sub.disconnect()
                pub.close()
                await broker.kill()
        return broker, sub, pub, statistics.median(samples)

    def result(self, *, e2e: Dict[str, float], owed: List[int], timed_s: float,
               timed_cpu_s: float, phases: Dict[str, float], params: Dict[str, Any],
               layers: Dict[str, float], unresolved: List[str], sub: Any) -> Dict[str, Any]:
        owed_set, received_set = set(owed), set(self.received)
        missing = len(owed_set - received_set)
        surplus = len(self.received) - len(received_set & owed_set)
        in_order = [n for n in self.received if n in owed_set]
        reordered = sum(1 for a, b in zip(in_order, in_order[1:]) if b <= a)
        violations = sub.stats.order_violations + sub.stats.gaps
        failures = []
        if self.received != owed:
            failures.append(
                f"received {len(self.received)} events, owed {len(owed)}: "
                f"{missing} missing, {surplus} duplicate or unowed, {reordered} out of order"
            )
        if violations:
            failures.append(f"{violations} order violations or gaps at the subscriber")
        out: Dict[str, Any] = {
            "e2e": dict(e2e, peak_rss_mb=self.peak_rss_mb),
            "attempted": len(owed),
            "failed": min(len(owed), missing + surplus + reordered + violations),
            "failures": failures,
            "unresolved": unresolved,
            "phases": dict(phases, timed_s=timed_s),
            "params": params,
            "counters": {},
        }
        if self.traced:
            from spans import add_raw, derive

            wall = time.perf_counter() - self.wall0
            raw: Dict[str, Any] = {}
            for dump in self.dumps:
                add_raw(raw, dump["raw"])
            out["layers"] = dict(derive(raw, sum(d["wall_s"] for d in self.dumps)), **layers, **{
                "rt.broker.cpu_s": timed_cpu_s,
                "rt.broker.cpu_util": timed_cpu_s / timed_s,
                "rt.broker.peak_rss_mb": self.peak_rss_mb,
                "loadgen.cpu_util": (time.process_time() - self.cpu0) / wall,
                "client.subscriber.events": len(self.received),
            })
            out["span_calls"] = {}
            for dump in self.dumps:
                add_raw(out["span_calls"], dump["calls"])
        return out

    async def reap(self) -> None:
        for broker in self.brokers:
            await broker.kill()


def _windows(values: List[float], size: int) -> List[List[float]]:
    """``values`` cut into consecutive full windows of ``size``."""
    return [values[i:i + size] for i in range(0, len(values) - size + 1, size)]


async def run_live(run: Run) -> Dict[str, Any]:
    from repro.matching.predicates import Everything
    from repro.metrics.report import percentile

    rate = run.size["rate_per_s"]
    open_n = round(rate * run.size["open_share"] * run.seconds)
    flood_n = round(run.size["flood_per_s"] * run.seconds)
    broker, sub, pub, setup_s = await run.set_up(Everything())

    # Phase A, open loop: event n is due at start + n/rate whether or
    # not the broker keeps up, and its latency counts from then.
    due: List[float] = []
    max_late = 0.0
    start = run.loop.time() + 0.05
    for n in range(open_n):
        due_at = start + n / rate
        delay = due_at - run.loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        max_late = max(max_late, run.loop.time() - due_at)
        due.append(due_at)
        pub.publish(run.attributes(n))
    await run.wait_until(lambda: len(run.received) >= open_n, 60, "open-loop deliveries")
    open_s = run.loop.time() - start
    arrived = dict(zip(run.received, run.received_at))
    latencies = [(arrived[n] - due[n]) * 1000.0 for n in range(open_n) if n in arrived]
    # One second of events per window, the first discarded as warm-up;
    # the run reports the median window, so that one stall of the box
    # (a slow fsync, a descheduled process) does not set the number.
    seconds = _windows(latencies, round(rate))[1:] or [latencies]

    # Phase B, closed loop: bursts published as fast as the publisher's
    # window admits, each timed from its first publish to its last
    # delivery; the median burst is reported.
    burst_n = flood_n // FLOOD_BURSTS
    cpu_before = broker.cpu_s()
    burst_s = []
    for burst in range(FLOOD_BURSTS):
        first = open_n + burst * burst_n
        burst_start = time.perf_counter()
        for n in range(first, first + burst_n):
            pub.publish(run.attributes(n))
        await run.wait_until(lambda: len(run.received) >= first + burst_n, 150, "flood deliveries")
        burst_s.append(time.perf_counter() - burst_start)
    flood_s = sum(burst_s)
    flood_cpu_s = broker.cpu_s() - cpu_before
    flood_n = burst_n * FLOOD_BURSTS
    await asyncio.sleep(0.2)  # a duplicate would arrive about now
    sub.disconnect()
    pub.close()
    await run.retire(broker)

    max_late_ms = max_late * 1000.0
    return run.result(
        e2e={
            "setup_s": setup_s,
            "work_per_wall_s": burst_n / statistics.median(burst_s),
            "deliver_p50_ms": statistics.median(percentile(w, 50) for w in seconds),
            "deliver_p90_ms": statistics.median(percentile(w, 90) for w in seconds),
        },
        owed=list(range(open_n + flood_n)), timed_s=flood_s, timed_cpu_s=flood_cpu_s,
        phases={"open_s": open_s, "flood_s": flood_s},
        params={"open_rate_per_s": rate, "open_events": open_n, "flood_bursts": FLOOD_BURSTS,
                "flood_events_per_burst": burst_n, "publish_window": PUBLISH_WINDOW},
        layers={
            "client.subscriber.deliver_p99_ms": percentile(latencies, 99),
            "loadgen.max_late_ms": max_late_ms,
            "broker.phb.ingest_eps": flood_n / flood_s,
        },
        unresolved=["deliver_p50_ms", "deliver_p90_ms"] if max_late_ms > MAX_LATE_MS else [],
        sub=sub,
    )


async def run_outage(run: Run) -> Dict[str, Any]:
    from repro.adapters.rt.transport import open_connection
    from repro.matching.predicates import In
    from repro.metrics.report import percentile

    backlog = round(run.size["backlog_per_s"] * run.seconds / OUTAGE_CYCLES)
    broker, sub, pub, setup_s = await run.set_up(In("group", (0,)))
    owed: List[int] = []
    cycles: List[Dict[str, float]] = []
    recovery_cpu_s = 0.0
    # The outage is run OUTAGE_CYCLES times on the same volumes and the
    # median cycle reported, for the reason run_live reports windows.
    for cycle in range(OUTAGE_CYCLES):
        sub.disconnect()
        await asyncio.sleep(0.2)
        ingest_start = time.perf_counter()
        for n in range(cycle * backlog, (cycle + 1) * backlog):
            attributes = run.attributes(n)
            if attributes["group"] == 0:
                owed.append(n)
            pub.publish(attributes)
        await run.wait_until(lambda: pub.unacknowledged == 0, 120, "acks for the backlog")
        ingest_s = time.perf_counter() - ingest_start

        # The defining scenario: kill -9 with everything acked, restart
        # on the same volumes and port, reconnect with the checkpoint.
        before = len(run.received)
        await run.retire(broker)
        restart = time.perf_counter()
        restart_loop = run.loop.time()
        broker = await run.start_broker(broker.data_dir, port=broker.port)
        cpu_before = broker.cpu_s()
        pub.rebind(await open_connection(HOST, broker.port, retry_ms=50.0))
        sub.connect_channel(await open_connection(HOST, broker.port, retry_ms=50.0))
        await run.wait_until(lambda: len(run.received) >= len(owed), 150, "catch-up deliveries")
        recovery_s = time.perf_counter() - restart
        recovery_cpu_s += broker.cpu_s() - cpu_before
        waits = [(t - restart_loop) * 1000.0 for t in run.received_at[before:]]
        cycles.append({
            "ingest_s": ingest_s, "restart_s": broker.spawn_s, "recovery_s": recovery_s,
            "wait_p50_ms": percentile(waits, 50), "wait_p90_ms": percentile(waits, 90),
            "wait_p99_ms": percentile(waits, 99),
        })
    await asyncio.sleep(0.2)  # a duplicate would arrive about now
    sub.disconnect()
    pub.close()
    await run.retire(broker)

    def median(field: str) -> float:
        return statistics.median(c[field] for c in cycles)

    return run.result(
        e2e={
            "setup_s": setup_s,
            "work_per_wall_s": backlog / median("recovery_s"),
            "deliver_p50_ms": median("wait_p50_ms"),
            "deliver_p90_ms": median("wait_p90_ms"),
        },
        owed=owed, timed_s=sum(c["recovery_s"] for c in cycles), timed_cpu_s=recovery_cpu_s,
        phases={field: median(field) for field in ("ingest_s", "restart_s", "recovery_s")},
        params={"cycles": OUTAGE_CYCLES, "backlog_events_per_cycle": backlog,
                "owed_events": len(owed), "publish_window": PUBLISH_WINDOW},
        layers={
            "client.subscriber.deliver_p99_ms": median("wait_p99_ms"),
            "loadgen.max_late_ms": 0.0,
            "broker.phb.ingest_eps": backlog / median("ingest_s"),
            "adapters.rt.broker.restart_s": median("restart_s"),
        },
        unresolved=[], sub=sub,
    )


RUNNERS = {"rt-live": run_live, "rt-outage-catchup": run_outage}


def run(workload: str, preset: str, seed: int, seconds: float, traced: bool,
        scratch: str) -> Dict[str, Any]:
    async def main() -> Dict[str, Any]:
        state = Run(workload, preset, seed, seconds, traced, scratch)
        try:
            return await RUNNERS[workload](state)
        finally:
            await state.reap()

    return asyncio.run(main())
