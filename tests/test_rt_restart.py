"""Broker restarts on the real substrate: kill -9, same volumes, catch up.

Each test runs the unmodified ``repro.adapters.rt.broker_main`` as an OS
process, a :class:`ReliablePublisher` and a :class:`DurableSubscriber`
over localhost TCP, ``SIGKILL``\\ s the broker and restarts it on the
same data directory (the last test restarts a :class:`BrokerProcess`
inside this process instead, to look at it).  Both scenarios were latent until the rt broker
stopped sleeping the simulator's CPU model: at 260 events/s the
backlog was never in the PFS, and no registration was ever younger
than a commit interval, when the kill came.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys

from repro.adapters.rt.broker_main import BrokerProcess
from repro.adapters.rt.clock import AsyncioClock
from repro.adapters.rt.transport import open_connection
from repro.client.publisher import ReliablePublisher
from repro.client.subscriber import DurableSubscriber
from repro.matching.predicates import Everything

HOST = "127.0.0.1"
PUBEND = "stream"
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

#: A broker whose tables commit once a minute: whatever registers with
#: it is still uncommitted when the kill comes.  (Not a CLI option —
#: only a test wants a broker that forgets its subscribers.)
SLOW_COMMIT_BROKER = """
import asyncio, sys
from repro.adapters.rt.broker_main import BrokerProcess

async def main():
    broker = BrokerProcess(sys.argv[1], ["stream"], commit_interval_ms=60_000.0)
    print("LISTENING", await broker.serve("127.0.0.1", 0), flush=True)
    await asyncio.Event().wait()

asyncio.run(main())
"""


class Rig:
    """One data directory, successive broker incarnations, two clients."""

    def __init__(self, data_dir: str) -> None:
        self.data_dir = data_dir
        self.env = dict(
            os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
        )
        self.procs = []
        self.port = 0
        self.clock = AsyncioClock()
        self.received = []
        self.sub = DurableSubscriber(
            self.clock, "sub1", node=None, predicate=Everything(), ack_interval_ms=50.0,
            on_event=lambda msg: self.received.append(msg.event.attributes["n"]),
            connect_retry_ms=100.0,
        )
        self.pub = None
        self.published = 0

    async def start_broker(self, script: str = "") -> None:
        command = (
            [sys.executable, "-c", script, self.data_dir] if script else
            [sys.executable, "-m", "repro.adapters.rt.broker_main", "--data-dir",
             self.data_dir, "--port", str(self.port), "--pubends", PUBEND]
        )
        proc = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE, env=self.env
        )
        self.procs.append(proc)
        banner = await asyncio.wait_for(proc.stdout.readline(), timeout=30)
        assert banner.startswith(b"LISTENING"), banner
        self.port = int(banner.split()[1])

    async def kill_broker(self) -> None:
        self.procs[-1].send_signal(signal.SIGKILL)
        await self.procs[-1].wait()

    async def connect_subscriber(self) -> None:
        self.sub.connect_channel(await open_connection(HOST, self.port, retry_ms=50.0))

    async def connect_publisher(self) -> None:
        channel = await open_connection(HOST, self.port, retry_ms=50.0)
        if self.pub is None:
            self.pub = ReliablePublisher(
                self.clock, None, None, "pub1", PUBEND, retransmit_ms=300.0, channel=channel
            )
        else:
            self.pub.rebind(channel)

    async def publish(self, count: int) -> None:
        for n in range(self.published, self.published + count):
            self.pub.publish({"n": n})
        self.published += count
        await self.wait_until(lambda: self.pub.unacknowledged == 0, "acks")

    async def wait_until(self, cond, what: str, timeout_s: float = 20.0) -> None:
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout_s
        while not cond():
            assert loop.time() < deadline, (
                f"timed out waiting for {what}; received {len(self.received)} "
                f"of {self.published} events"
            )
            await asyncio.sleep(0.01)

    async def expect_everything_exactly_once(self) -> None:
        await self.wait_until(lambda: len(self.received) >= self.published, "deliveries")
        await asyncio.sleep(0.2)  # a duplicate would arrive about now
        assert self.received == list(range(self.published))
        assert self.sub.stats.order_violations == 0

    async def close(self) -> None:
        self.sub.disconnect()
        if self.pub is not None:
            self.pub.close()
        for proc in self.procs:
            if proc.returncode is None:
                proc.kill()
                await proc.wait()


def run(scenario, tmp_path) -> None:
    async def main() -> None:
        rig = Rig(str(tmp_path))
        try:
            await scenario(rig)
        finally:
            await rig.close()

    asyncio.run(main())


def test_backlog_logged_before_the_restart_is_caught_up(tmp_path):
    """A subscriber that registered on a fresh broker and never received
    anything has checkpoint 0, and rt ticks are epoch milliseconds: the
    catchup stream's rate estimate must not span 1.8e12 ticks."""

    async def scenario(rig: Rig) -> None:
        await rig.start_broker()
        await rig.connect_subscriber()
        await rig.wait_until(lambda: rig.sub._first_connect_done, "registration")
        rig.sub.disconnect()
        await rig.connect_publisher()
        await rig.publish(120)  # well above the pacer's 16-token burst
        # Let the SHB log the backlog in its PFS and commit
        # latestDelivered (every 100 ms), so that after the restart the
        # catchup stream, not constream nacks, owes the events.
        await asyncio.sleep(0.5)
        await rig.kill_broker()
        await rig.start_broker()
        await rig.connect_subscriber()
        await rig.expect_everything_exactly_once()

    run(scenario, tmp_path)


def test_registration_lost_in_the_kill_does_not_silence_later_events(tmp_path):
    """The registry row was not committed when the kill came, so the
    restarted SHB is suspect and announces no union — which the
    restarted PHB must read as cold (pass everything), not as empty
    (silence everything), until the subscriber re-registers."""

    async def scenario(rig: Rig) -> None:
        await rig.start_broker(SLOW_COMMIT_BROKER)
        await rig.connect_subscriber()
        await rig.wait_until(lambda: rig.sub._first_connect_done, "registration")
        await rig.connect_publisher()
        await rig.publish(5)
        await rig.wait_until(lambda: len(rig.received) == 5, "live deliveries")
        rig.sub.disconnect()
        await rig.publish(5)
        await rig.kill_broker()
        await rig.start_broker()
        await rig.connect_publisher()
        await rig.publish(5)  # while nobody is registered at the SHB
        await rig.connect_subscriber()
        await rig.expect_everything_exactly_once()

    run(scenario, tmp_path)


def test_restarted_broker_recovers_the_tail_before_the_clock_reaches_it(tmp_path):
    """A burst is stamped one tick per event, so the log's newest
    timestamp runs seconds ahead of the clock.  The restarted PHB must
    say where its log ends at once: left to the silence flush, the SHB
    would learn of the tail it missed only when the clock got there."""
    burst = 3_000

    async def first_life() -> None:
        # Tables that never commit: the SHB restarts from cursor 0.
        broker = BrokerProcess(str(tmp_path), [PUBEND], commit_interval_ms=60_000.0)
        durable = []
        for n in range(burst):
            broker.phb.pubends[PUBEND].publish({"n": n}, on_durable=lambda: durable.append(1))
        while len(durable) < burst:
            await asyncio.sleep(0.01)

    async def second_life() -> None:
        broker = BrokerProcess(str(tmp_path), [PUBEND])
        newest = broker.phb.pubends[PUBEND].log.max_timestamp
        constream = broker.shb.constreams[PUBEND]
        assert constream.delivered_cursor == 0
        assert newest > broker.clock.now + 1_500
        await asyncio.sleep(0.5)  # gap check 50 ms + nack poll 20 ms + one reply
        assert constream.delivered_cursor >= newest
        assert broker.clock.now < newest
        broker.close()

    asyncio.run(first_life())  # the loop dies with everything on it: kill -9
    asyncio.run(second_life())
