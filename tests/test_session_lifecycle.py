"""Client session lifecycle: one rule on both substrates.

A session is a port ``Connection`` — an ``adapters.sim.dial`` channel in
the simulator, a TCP connection on the rt substrate — and the channel
object is the session's identity at the SHB.  A graceful disconnect
sends ``DisconnectRequest`` and keeps consuming what is already in
flight; the old channel closes when the next session opens.  A session
the client already left can therefore neither end the one it is in
(its close is ignored) nor be ended by a late request (the SHB acts on
a ``DisconnectRequest`` only from the session's own channel).
"""

from __future__ import annotations

import asyncio

from repro import (
    DurableSubscriber,
    Everything,
    Node,
    PeriodicPublisher,
    Scheduler,
    build_star,
    build_two_broker,
)
from repro.adapters.rt.broker_main import BrokerProcess
from repro.adapters.rt.transport import open_connection
from repro.client.publisher import ReliablePublisher
from repro.core import messages as M
from repro.core.events import Event

HOST = "127.0.0.1"
PUBEND = "stream"


def _publisher(sim, overlay, rate):
    pub = PeriodicPublisher(sim, overlay.phb, "P1", rate, attribute_fn=lambda i: {"group": 0})
    pub.start()
    return pub


class TestSimSessions:
    def test_graceful_disconnect_consumes_the_tail_then_the_next_session_closes_it(self):
        sim = Scheduler()
        overlay = build_two_broker(sim, ["P1"])
        shb = overlay.shbs[0]
        pub = _publisher(sim, overlay, rate=1_000)
        sub = DurableSubscriber(sim, "s1", Node(sim, "client"), Everything(), record_events=True)
        tails = []

        def reconnect(old, consumed_at_disconnect):
            # Events the SHB sent before it read the DisconnectRequest
            # arrived on the old channel, still open, and were consumed.
            assert not old.link.down
            tails.append(sub.stats.events - consumed_at_disconnect)
            sub.connect(shb)
            assert old.link.down

        def on_event(_msg):
            # Leave mid-burst, ten times, coming back 100 ms later.
            if sub.connected and sub.stats.events % 250 == 125 and len(tails) < 10:
                sim.after(100.0, reconnect, sub._send, sub.stats.events)
                sub.disconnect()

        sub.on_event = on_event
        sub.connect(shb)
        sim.run_until(3_000.0)
        pub.stop()
        sim.run_until(6_000.0)
        assert len(tails) == 10 and all(tail > 0 for tail in tails)
        assert sub.stats.events == pub.published
        assert sub.duplicate_events == 0
        assert sub.stats.order_violations == 0

    def test_session_table_holds_only_live_sessions(self):
        sim = Scheduler()
        overlay = build_two_broker(sim, ["P1"])
        shb = overlay.shbs[0]
        pub = _publisher(sim, overlay, rate=100)
        sub = DurableSubscriber(sim, "s1", Node(sim, "client"), Everything())
        sub.connect(shb)
        for _ in range(10):
            sim.run_until(sim.now + 300.0)
            sub.disconnect()
            sim.run_until(sim.now + 100.0)
            sub.connect(shb)
        sim.run_until(sim.now + 300.0)
        pub.stop()
        assert shb.connected_count == 1
        assert len(shb._session_subs) == 1

    def test_crash_of_a_left_shb_does_not_end_the_current_session(self):
        sim = Scheduler()
        overlay = build_star(sim, ["P1"], n_shbs=2)
        shb1, shb2 = overlay.shbs
        pub = _publisher(sim, overlay, rate=100)
        sub = DurableSubscriber(sim, "s1", Node(sim, "client"), Everything(), record_events=True)
        sub.connect(shb1)
        sim.run_until(1_000.0)
        sub.disconnect()
        sub.connect(shb2)
        sim.run_until(2_000.0)
        shb1.fail_for(500.0)
        sim.run_until(6_000.0)
        assert sub.connected
        assert shb2.connected_count == 1
        # Acks still flow, so release at the new home keeps up.
        assert shb2.released("P1") > shb2.latest_delivered("P1") - 1_000
        pub.stop()
        sim.run_until(8_000.0)
        assert sub.stats.events == pub.published
        assert sub.duplicate_events == 0


class _StubChannel:
    """A channel whose messages the test delivers by hand, in any order
    two independent connections could produce."""

    def __init__(self) -> None:
        self.sent = []
        self.deliver = None

    def send(self, msg) -> None:
        self.sent.append(msg)

    def on_message(self, fn) -> None:
        self.deliver = fn

    def on_close(self, fn) -> None:
        pass

    def close(self) -> None:
        pass


def test_disconnect_request_read_off_a_replaced_session_is_ignored():
    sim = Scheduler()
    shb = build_two_broker(sim, ["P1"]).shbs[0]
    a, b = _StubChannel(), _StubChannel()
    shb.attach_client(a)
    shb.attach_client(b)
    a.deliver(M.ConnectRequest("s1", predicate=Everything()))
    sim.run_until(50.0)  # the registration's coverage confirmation
    (accept,) = a.sent
    b.deliver(M.ConnectRequest("s1", checkpoint=accept.checkpoint, predicate=Everything()))
    a.deliver(M.DisconnectRequest("s1"))
    assert isinstance(b.sent[-1], M.ConnectAccept)
    assert shb.connected_count == 1
    assert shb._sessions["s1"] is b
    b.deliver(M.DisconnectRequest("s1"))
    assert shb.connected_count == 0


def test_client_drops_what_a_replaced_session_delivers_late():
    """The old session's tail that this process consumes only after the
    reconnect went out would advance the CT past the one the reconnect
    presented, and the new session resends from there: dropped.  Seen
    as a duplicate in Fig. 4 churn past the saturation point, where a
    backlogged client machine still held old-session messages."""
    sim = Scheduler()
    sub = DurableSubscriber(sim, "s1", node=None, predicate=Everything())
    a, b = _StubChannel(), _StubChannel()
    sub.connect_channel(a)
    a.deliver(M.ConnectAccept("s1", {"P1": 0}))
    a.deliver(M.EventMessage("P1", 5, Event("P1", 5, {})))
    sub.disconnect()
    a.deliver(M.EventMessage("P1", 6, Event("P1", 6, {})))  # the tail: consumed
    sub.connect_channel(b)
    (request,) = [m for m in b.sent if isinstance(m, M.ConnectRequest)]
    assert request.checkpoint == {"P1": 6}
    a.deliver(M.EventMessage("P1", 7, Event("P1", 7, {})))  # too late
    assert sub.ct.as_dict() == {"P1": 6}
    assert sub.stats.events == 2


def test_rt_reconnect_right_after_a_graceful_disconnect(tmp_path):
    """Over real TCP: the old connection stays open for its tail after
    the disconnect and is closed by the next session; delivery across
    the switch is exactly once and in order."""

    async def main() -> None:
        broker = BrokerProcess(str(tmp_path), [PUBEND])
        port = await broker.serve(HOST, 0)
        received = []
        sub = DurableSubscriber(
            broker.clock, "sub1", node=None, predicate=Everything(), ack_interval_ms=50.0,
            on_event=lambda msg: received.append(msg.event.attributes["n"]),
            connect_retry_ms=100.0,
        )
        pub = None
        try:
            sub.connect_channel(await open_connection(HOST, port))
            await _until(lambda: sub._first_connect_done)
            pub = ReliablePublisher(
                broker.clock, None, None, "pub1", PUBEND, retransmit_ms=300.0,
                channel=await open_connection(HOST, port),
            )
            for n in range(100):
                pub.publish({"n": n})
            await _until(lambda: len(received) >= 50)
            first = sub._send
            sub.disconnect()
            assert not first.closed
            sub.connect_channel(await open_connection(HOST, port))
            assert first.closed
            for n in range(100, 200):
                pub.publish({"n": n})
            await _until(lambda: len(received) >= 200)
            await asyncio.sleep(0.2)  # a duplicate would arrive about now
            assert received == list(range(200))
            assert sub.stats.order_violations == 0
            assert broker.shb.connected_count == 1
        finally:
            sub.disconnect()
            if pub is not None:
                pub.close()
            broker.close()

    asyncio.run(main())


async def _until(cond, timeout_s: float = 20.0) -> None:
    deadline = asyncio.get_event_loop().time() + timeout_s
    while not cond():
        assert asyncio.get_event_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.01)
