"""Port contracts, asserted against both adapter families.

The ports (:mod:`repro.port`) promise the protocol classes a substrate
they can't tell apart: virtual or wall-clock timers, a costed or a
measured CPU, link-or-TCP channels, modelled-or-real group commit.
Each test here states one clause of that promise and runs it against
the **sim** family (:class:`~repro.net.simtime.Scheduler`,
:class:`~repro.net.node.Node`, :class:`~repro.net.link.Link` via
:func:`~repro.adapters.sim.channel_pair`,
:class:`~repro.storage.disk.SimDisk`) and the **rt** family
(:class:`~repro.adapters.rt.clock.AsyncioClock`,
:class:`~repro.adapters.rt.executor.LoopExecutor`,
:class:`~repro.adapters.rt.transport.TcpConnection`,
:class:`~repro.adapters.rt.storage.RealDisk`) through one harness.

The harness hides the only real difference — how time passes.  The sim
family steps the scheduler (catching callback exceptions into
``fam.errors``, where the kernel would surface them to ``run()``'s
caller); the rt family spins a private asyncio loop with an exception
handler doing the same.  Timings use short intervals and generous
deadlines so the rt half stays robust on a loaded CI box.

Substrate-specific clauses (exact virtual-time grids and service
times; one loop callback per burst of jobs; TCP frame corruption;
fsync-before-callback; torn-tail truncation) live in the
non-parametrized classes at the bottom.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.adapters.rt.clock import AsyncioClock
from repro.adapters.rt.executor import LoopExecutor
from repro.adapters.rt.storage import RealDisk
from repro.adapters.rt.transport import (
    TcpListener,
    encode_frame,
    open_connection,
)
from repro.adapters.sim import SimDisk, channel_pair
from repro.net.link import Link
from repro.net.node import Node
from repro.net.simtime import Scheduler
from repro.port.clock import Clock, PeriodicTimerHandle, TimerHandle
from repro.port.executor import Executor
from repro.port.storage import StableStorage
from repro.port.transport import Connection
from repro.storage.logvolume import LogVolume
from repro.util.errors import NodeDownError


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------
class SimFamily:
    """The discrete-event substrate driven by stepping the scheduler."""

    name = "sim"
    #: SimDisk models crashes (``crash_reset`` voids staged writes);
    #: for RealDisk process death *is* the crash, so the call is a no-op.
    models_crash = True

    def __init__(self) -> None:
        self.scheduler = Scheduler()
        self.clock = self.scheduler
        self.errors = []

    def run_for(self, ms: float) -> None:
        deadline = self.scheduler.now + ms
        while True:
            try:
                self.scheduler.run_until(deadline)
                return
            except Exception as exc:  # a callback raised mid-run
                self.errors.append(exc)

    def run_until(self, cond, timeout_ms: float = 5000.0) -> bool:
        deadline = self.scheduler.now + timeout_ms
        while not cond() and self.scheduler.now < deadline:
            try:
                if not self.scheduler.step():
                    break
            except Exception as exc:
                self.errors.append(exc)
        return cond()

    def make_storage(self):
        return SimDisk(self.scheduler, sync_interval_ms=5.0, sync_duration_ms=2.0)

    def make_executor(self):
        return Node(self.scheduler, "machine")

    def make_channel_pair(self):
        a = Node(self.scheduler, "a")
        b = Node(self.scheduler, "b")
        link = Link(self.scheduler, a, b, latency_ms=1.0)
        return channel_pair(link, a, b, lambda m: 0.01, lambda m: 0.01)

    def close(self) -> None:
        pass


class RtFamily:
    """The asyncio substrate driven by a private real-time loop."""

    name = "rt"
    models_crash = False

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.errors = []
        self.loop.set_exception_handler(
            lambda loop, ctx: self.errors.append(ctx.get("exception"))
        )
        self.clock = AsyncioClock(self.loop)
        self._cleanup = []

    def run_for(self, ms: float) -> None:
        self.loop.run_until_complete(asyncio.sleep(ms / 1000.0))

    def run_until(self, cond, timeout_ms: float = 5000.0) -> bool:
        async def wait() -> None:
            deadline = self.loop.time() + timeout_ms / 1000.0
            while not cond() and self.loop.time() < deadline:
                await asyncio.sleep(0.002)

        self.loop.run_until_complete(wait())
        return cond()

    def make_storage(self):
        return RealDisk(self.clock, sync_interval_ms=5.0)

    def make_executor(self):
        return LoopExecutor(self.clock, "machine")

    def make_channel_pair(self):
        listener = TcpListener()
        accepted = []
        listener.on_connection(accepted.append)
        self._cleanup.append(listener.close)

        async def setup():
            port = await listener.start()
            client = await open_connection("127.0.0.1", port)
            while not accepted:
                await asyncio.sleep(0.002)
            return client, accepted[0]

        client, server = self.loop.run_until_complete(setup())
        self._cleanup.append(client.close)
        self._cleanup.append(server.close)
        return client, server

    def close(self) -> None:
        for fn in self._cleanup:
            fn()
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self.loop.run_until_complete(self.loop.shutdown_asyncgens())
        self.loop.close()
        asyncio.set_event_loop(None)


@pytest.fixture(params=["sim", "rt"])
def fam(request):
    family = SimFamily() if request.param == "sim" else RtFamily()
    yield family
    family.close()


@pytest.fixture
def rt():
    family = RtFamily()
    yield family
    family.close()


# ---------------------------------------------------------------------------
# The ports are runtime-checkable and both families satisfy them
# ---------------------------------------------------------------------------
class TestPortShapes:
    def test_adapters_satisfy_port_protocols(self, fam):
        assert isinstance(fam.clock, Clock)
        assert isinstance(fam.make_storage(), StableStorage)
        assert isinstance(fam.make_executor(), Executor)
        a, b = fam.make_channel_pair()
        assert isinstance(a, Connection)
        assert isinstance(b, Connection)

    def test_timer_handles_satisfy_port_protocols(self, fam):
        once = fam.clock.after(1.0, lambda: None)
        periodic = fam.clock.every(1.0, lambda: None)
        assert isinstance(once, TimerHandle)
        assert isinstance(periodic, PeriodicTimerHandle)
        once.cancel()
        periodic.cancel()


# ---------------------------------------------------------------------------
# Clock
# ---------------------------------------------------------------------------
class TestClockContract:
    def test_now_is_monotone_milliseconds(self, fam):
        t0 = fam.clock.now
        fam.run_for(10.0)
        t1 = fam.clock.now
        assert t1 >= t0
        # 10ms elapsed should read as ~10 units, not ~0.01 (seconds).
        assert t1 - t0 >= 5.0

    def test_after_fires_once_with_args(self, fam):
        fired = []
        fam.clock.after(5.0, fired.append, "x")
        assert fired == []  # never synchronously
        assert fam.run_until(lambda: fired == ["x"])
        fam.run_for(20.0)
        assert fired == ["x"]

    def test_at_fires_no_earlier_than_deadline(self, fam):
        fired = []
        target = fam.clock.now + 15.0
        fam.clock.at(target, lambda: fired.append(fam.clock.now))
        assert fam.run_until(lambda: fired)
        # 1ms of slack for the rt loop's float second conversion.
        assert fired[0] >= target - 1.0

    def test_post_is_fire_and_forget(self, fam):
        fired = []
        assert fam.clock.post(fam.clock.now + 5.0, fired.append, 7) is None
        assert fam.run_until(lambda: fired == [7])

    def test_cancel_prevents_firing_and_is_idempotent(self, fam):
        fired = []
        handle = fam.clock.after(5.0, fired.append, 1)
        handle.cancel()
        handle.cancel()
        fam.run_for(25.0)
        assert fired == []

    def test_equal_deadline_callbacks_fire_in_scheduling_order(self, fam):
        order = []
        target = fam.clock.now + 10.0
        fam.clock.at(target, order.append, "first")
        fam.clock.at(target, order.append, "second")
        fam.clock.post(target, order.append, "third")
        assert fam.run_until(lambda: len(order) == 3)
        assert order == ["first", "second", "third"]

    def test_every_repeats_until_cancelled(self, fam):
        fired = []
        handle = fam.clock.every(5.0, lambda: fired.append(fam.clock.now))
        assert fam.run_until(lambda: len(fired) >= 3)
        handle.cancel()
        assert handle.cancelled
        count = len(fired)
        fam.run_for(30.0)
        assert len(fired) == count

    def test_every_first_delay_overrides_first_gap(self, fam):
        fired = []
        t0 = fam.clock.now
        handle = fam.clock.every(
            50.0, lambda: fired.append(fam.clock.now), first_delay=5.0
        )
        assert fam.run_until(lambda: fired)
        handle.cancel()
        # Fired on the short first_delay, well before one full interval.
        assert fired[0] - t0 < 50.0

    def test_every_raise_without_hook_kills_periodic(self, fam):
        calls = []

        def boom() -> None:
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("tick failed")

        handle = fam.clock.every(5.0, boom)
        fam.run_until(lambda: handle.dead, timeout_ms=500.0)
        assert handle.dead
        count = len(calls)
        fam.run_for(30.0)
        assert len(calls) == count  # silent-death fix: it stays stopped...
        assert any(isinstance(e, RuntimeError) for e in fam.errors)  # ...loudly
        handle.cancel()  # and post-death cancel is safe

    def test_every_on_error_hook_keeps_periodic_alive(self, fam):
        calls, caught = [], []

        def boom() -> None:
            calls.append(1)
            raise RuntimeError("tick failed")

        handle = fam.clock.every(5.0, boom, on_error=caught.append)
        assert fam.run_until(lambda: len(calls) >= 3)
        handle.cancel()
        assert not handle.dead
        assert len(caught) == len(calls)
        assert all(isinstance(e, RuntimeError) for e in caught)


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------
class TestExecutorContract:
    def test_jobs_run_in_submission_order_never_synchronously(self, fam):
        ex = fam.make_executor()
        ran = []
        for i in range(5):
            ex.submit(0.1, lambda i=i: ran.append(i))
        assert ran == []  # submit only enqueues
        assert fam.run_until(lambda: len(ran) == 5)
        assert ran == [0, 1, 2, 3, 4]

    def test_submit_inside_a_job_is_not_reentrant(self, fam):
        ex = fam.make_executor()
        order = []

        def outer() -> None:
            order.append("outer-start")
            ex.submit(0.1, lambda: order.append("inner"))
            assert ex.try_submit(0.1, lambda: order.append("inner-2"))
            order.append("outer-end")

        ex.submit(0.1, outer)
        ex.submit(0.1, lambda: order.append("next"))
        assert fam.run_until(lambda: len(order) == 5)
        # Run to completion, then FIFO: work queued before the job ran
        # precedes what the job itself queued.
        assert order == ["outer-start", "outer-end", "next", "inner", "inner-2"]

    def test_crash_drops_queued_work_and_rejects_submissions(self, fam):
        ex = fam.make_executor()
        ran, events = [], []
        ex.on_crash(lambda: events.append("crash"))
        ex.on_recover(lambda: events.append("recover"))
        ex.submit(0.1, lambda: ran.append("lost"))
        ex.crash()
        assert ex.is_down and events == ["crash"]
        with pytest.raises(NodeDownError):
            ex.submit(0.1, lambda: ran.append("refused"))
        assert ex.try_submit(0.1, lambda: ran.append("refused")) is False
        fam.run_for(20.0)
        assert ran == []  # queued before the crash: never runs
        ex.recover()
        assert not ex.is_down and events == ["crash", "recover"]
        ex.submit(0.1, lambda: ran.append("after"))
        assert fam.run_until(lambda: ran == ["after"])

    def test_crash_inside_a_job_drops_the_rest_of_the_queue(self, fam):
        ex = fam.make_executor()
        ran = []

        def dies() -> None:
            ran.append("dies")
            ex.crash()

        ex.submit(0.1, dies)
        ex.submit(0.1, lambda: ran.append("lost"))
        fam.run_for(20.0)
        assert ran == ["dies"]
        assert fam.errors == []

    def test_fail_for_recovers_by_itself(self, fam):
        ex = fam.make_executor()
        ex.fail_for(10.0)
        assert ex.is_down
        assert fam.run_until(lambda: not ex.is_down)

    def test_a_raising_job_does_not_wedge_the_queue(self, fam):
        ex = fam.make_executor()
        ran = []

        def boom() -> None:
            raise RuntimeError("job failed")

        ex.submit(0.1, boom)
        ex.submit(0.1, lambda: ran.append("after"))
        assert fam.run_until(lambda: ran == ["after"])
        assert any(isinstance(e, RuntimeError) for e in fam.errors)

    def test_negative_cost_is_rejected(self, fam):
        ex = fam.make_executor()
        with pytest.raises(ValueError):
            ex.submit(-1.0, lambda: None)

    def test_busy_time_is_monotone(self, fam):
        ex = fam.make_executor()
        samples = [ex.busy.total_busy_ms]
        for _ in range(4):
            ex.submit(0.5, lambda: samples.append(ex.busy.total_busy_ms))
        assert fam.run_until(lambda: len(samples) == 5)
        fam.run_for(5.0)
        samples.append(ex.busy.total_busy_ms)
        assert samples == sorted(samples)
        assert samples[-1] > samples[0]


# ---------------------------------------------------------------------------
# StableStorage
# ---------------------------------------------------------------------------
class TestStorageContract:
    def test_callbacks_fire_in_write_order_never_synchronously(self, fam):
        disk = fam.make_storage()
        fired = []
        for i in range(3):
            disk.write(10, lambda i=i: fired.append(i))
        assert fired == []  # durability is never instantaneous
        assert fam.run_until(lambda: len(fired) == 3)
        assert fired == [0, 1, 2]

    def test_write_without_callback_is_legal(self, fam):
        disk = fam.make_storage()
        disk.write(10)
        fired = []
        disk.write(10, lambda: fired.append(1))
        assert fam.run_until(lambda: fired == [1])

    def test_group_commit_batches_neighbouring_writes(self, fam):
        disk = fam.make_storage()
        fired = []
        disk.write(10, lambda: fired.append("a"))
        disk.write(10, lambda: fired.append("b"))
        assert fam.run_until(lambda: len(fired) == 2)
        assert fired == ["a", "b"]

    def test_crash_semantics(self, fam):
        disk = fam.make_storage()
        fired = []
        if fam.models_crash:
            # Sim: staged-but-unsynced writes die with the crash — their
            # callbacks must never fire (un-acked = recoverable, acked =
            # durable; firing after a crash would forge an ack).
            disk.write(10, lambda: fired.append("lost"))
            disk.crash_reset()
            fam.run_for(50.0)
            assert fired == []
        else:
            # Rt: process death is the crash, so crash_reset is a no-op
            # and the device keeps working afterwards.
            disk.crash_reset()
            disk.write(10, lambda: fired.append("ok"))
            assert fam.run_until(lambda: fired == ["ok"])


# ---------------------------------------------------------------------------
# Transport
# ---------------------------------------------------------------------------
class TestTransportContract:
    def test_fifo_delivery_and_integrity_both_directions(self, fam):
        a, b = fam.make_channel_pair()
        at_b, at_a = [], []
        b.on_message(at_b.append)
        a.on_message(at_a.append)
        sent_down = [{"n": i, "blob": ("x" * i, i)} for i in range(5)]
        sent_up = [f"ack-{i}" for i in range(5)]
        for msg in sent_down:
            a.send(msg)
        for msg in sent_up:
            b.send(msg)
        assert fam.run_until(lambda: len(at_b) == 5 and len(at_a) == 5)
        assert at_b == sent_down  # order preserved, payloads intact
        assert at_a == sent_up

    def test_close_notifies_the_peer(self, fam):
        a, b = fam.make_channel_pair()
        closed = []
        a.on_message(lambda m: None)
        b.on_message(lambda m: None)
        b.on_close(lambda: closed.append("b"))
        a.close()
        assert fam.run_until(lambda: "b" in closed)

    def test_send_after_close_is_silent_loss_not_an_error(self, fam):
        a, b = fam.make_channel_pair()
        a.on_message(lambda m: None)
        b.on_message(lambda m: None)
        a.close()
        fam.run_for(10.0)
        a.send({"dropped": True})  # loss is legal; raising is not
        fam.run_for(10.0)


# ---------------------------------------------------------------------------
# Substrate-specific clauses
# ---------------------------------------------------------------------------
class TestSimClockExactness:
    """Virtual time makes the grid contract exactly checkable."""

    def test_every_firings_land_on_the_anchor_grid(self):
        sched = Scheduler()
        fired = []
        sched.every(0.1, lambda: fired.append(sched.now))
        sched.run_until(100.0)
        assert len(fired) == 1000
        # The satellite drift fix: the 1000th firing is exactly on the
        # grid, not 1000 accumulated float additions away from it.
        assert fired[-1] == 100.0
        assert all(abs(t - 0.1 * (i + 1)) < 1e-9 for i, t in enumerate(fired))


class TestSimExecutorExactness:
    """The costed FIFO node: service time is the model, to the tick."""

    def test_completion_at_exactly_now_plus_cost_over_speed(self):
        sched = Scheduler()
        node = Node(sched, "fast", speed=2.0)
        done = []
        sched.run_until(7.0)
        node.submit(5.0, lambda: done.append(sched.now))
        node.submit(3.0, lambda: done.append(sched.now))
        sched.run()
        assert done == [7.0 + 5.0 / 2.0, 7.0 + 5.0 / 2.0 + 3.0 / 2.0]
        assert node.busy.total_busy_ms == 4.0  # modelled, not measured


class TestRtExecutorSpecifics:
    """The loop executor: no modelled service time, no per-job timer."""

    def test_a_burst_of_jobs_schedules_no_timer_per_job(self, rt):
        scheduled = []
        schedule = rt.clock._schedule
        rt.clock._schedule = lambda *a: scheduled.append(a) or schedule(*a)
        ex = rt.make_executor()
        ran = []
        start = rt.loop.time()
        for i in range(200):
            # 200 jobs x 50 modelled ms: the sim would take 10 s.
            ex.submit(50.0, lambda i=i: ran.append(i))
        assert rt.run_until(lambda: len(ran) == 200)
        assert rt.loop.time() - start < 2.0  # the cost was not slept
        assert ran == list(range(200))
        assert len(scheduled) <= 1  # O(1) Clock timers, not N

    def test_a_self_refilling_queue_starves_neither_timers_nor_sockets(self, rt):
        ex = rt.make_executor()
        a, b = rt.make_channel_pair()
        got, fired = [], []
        b.on_message(got.append)

        def again() -> None:
            ex.submit(0.0, again)

        ex.submit(0.0, again)
        rt.clock.after(5.0, fired.append, "timer")
        a.send("over the socket")
        assert rt.run_until(lambda: fired and got, timeout_ms=2000.0)
        ex.crash()

    def test_busy_is_the_measured_time_not_the_modelled_cost(self, rt):
        ex = rt.make_executor()
        done = []

        def spin() -> None:
            end = rt.loop.time() + 0.01
            while rt.loop.time() < end:
                pass
            done.append(True)

        ex.submit(10_000.0, spin)
        assert rt.run_until(lambda: done)
        rt.run_for(5.0)
        assert 8.0 <= ex.busy.total_busy_ms < 1_000.0


class TestRtTransportSpecifics:
    """TCP framing: corruption severs, retries ride out dead windows."""

    def test_corrupt_frame_closes_connection_without_delivery(self):
        async def main():
            listener = TcpListener()
            accepted, delivered = [], []
            listener.on_connection(accepted.append)
            port = await listener.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                while not accepted:
                    await asyncio.sleep(0.002)
                accepted[0].on_message(delivered.append)
                good = encode_frame({"n": 1})
                writer.write(good)
                await writer.drain()
                deadline = asyncio.get_event_loop().time() + 5.0
                while not delivered and asyncio.get_event_loop().time() < deadline:
                    await asyncio.sleep(0.002)
                assert delivered == [{"n": 1}]
                # Flip one payload byte: header CRC mismatch => the
                # stream has lost sync and the session must die rather
                # than deliver garbage.
                bad = good[:-1] + bytes([good[-1] ^ 0xFF])
                writer.write(bad)
                await writer.drain()
                deadline = asyncio.get_event_loop().time() + 5.0
                while not accepted[0].closed and asyncio.get_event_loop().time() < deadline:
                    await asyncio.sleep(0.002)
                assert accepted[0].closed
                assert delivered == [{"n": 1}]
            finally:
                writer.close()
                listener.close()

        asyncio.run(main())

    def test_open_connection_retries_until_listener_appears(self):
        async def main():
            probe = TcpListener()
            port = await probe.start()
            probe.close()  # free the port; we now know it is connectable
            await asyncio.sleep(0.05)

            async def connect():
                return await open_connection(
                    "127.0.0.1", port, retry_ms=25.0, timeout_ms=5000.0
                )

            task = asyncio.ensure_future(connect())
            await asyncio.sleep(0.1)  # several refused attempts happen here
            assert not task.done()
            listener = TcpListener()
            accepted = []
            listener.on_connection(accepted.append)
            await listener.start(port=port)
            client = await task
            try:
                client.send({"hello": True})
                got = []
                while not accepted:
                    await asyncio.sleep(0.002)
                accepted[0].on_message(got.append)
                deadline = asyncio.get_event_loop().time() + 5.0
                while not got and asyncio.get_event_loop().time() < deadline:
                    await asyncio.sleep(0.002)
                assert got == [{"hello": True}]
            finally:
                client.close()
                listener.close()

        asyncio.run(main())


class TestRtStorageSpecifics:
    """RealDisk: the fsync happens before any callback; torn tails heal."""

    def test_data_is_on_disk_before_the_callback_fires(self, tmp_path):
        async def main():
            clock = AsyncioClock(asyncio.get_event_loop())
            disk = RealDisk(clock, sync_interval_ms=5.0)
            path = os.path.join(str(tmp_path), "vol.log")
            volume = LogVolume.at_path(path)
            disk.attach_volume(volume)
            stream = volume.stream("s")
            record = b"needle-0123456789"
            observed = []

            def on_durable() -> None:
                # An independent reader must already see the record: the
                # contract is flush+fsync strictly before the ack.
                with open(path, "rb") as fh:
                    observed.append(record in fh.read())

            stream.append(record)
            disk.write(len(record), on_durable)
            deadline = asyncio.get_event_loop().time() + 5.0
            while not observed and asyncio.get_event_loop().time() < deadline:
                await asyncio.sleep(0.002)
            assert observed == [True]
            disk.close()

        asyncio.run(main())

    def test_torn_tail_truncates_to_complete_frames_on_reopen(self, tmp_path):
        path = os.path.join(str(tmp_path), "vol.log")
        volume = LogVolume.at_path(path)
        stream = volume.stream("s")
        records = [b"rec-%d" % i for i in range(3)]
        for record in records:
            stream.append(record)
        volume.flush()
        volume.close()
        with open(path, "ab") as fh:
            # Half a frame header: what a kill -9 mid-append leaves.
            fh.write(b"GLV1\x00\x00")
        reopened = LogVolume.at_path(path)
        recovered = reopened.stream("s")
        assert len(recovered) == 3
        assert [recovered.read(i) for i in range(3)] == records
        # The healed log accepts appends exactly where the acked
        # prefix ended.
        assert recovered.append(b"rec-3") == 3
        reopened.close()
