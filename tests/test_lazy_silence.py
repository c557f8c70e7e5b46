"""Lazy silence: an S-only head update toward a child waits.

A PHB or intermediate holds the S ranges of a head update that carries
no D and no L tick for a child.  The child's next head update with a D
or L tick carries them, or a flush sends them one
:data:`~repro.core.pubend.SILENCE_INTERVAL_MS` later.  Three rules keep
this exact:

1. nothing overtakes a held range: every other message to the child
   (a nack reply, old knowledge, a ``SubscriptionSynced``) goes out
   behind it;
2. a held range dies with the union it was classified under: it is
   voided, never sent, when the child's union widens, is replaced by a
   full set, goes cold, or is unwired, and when the broker recovers;
3. a subscription re-created from a checkpoint trusts no silence
   classified before its filter applied: its ``pfs_from`` reaches every
   D tick the PHB hid from its SHB until then.
"""

from collections import Counter

import pytest

from repro import DurableSubscriber, In, Node, PeriodicPublisher, Scheduler, build_star
from repro.broker.base import Broker
from repro.broker.shb import SubscriberHostingBroker
from repro.core import messages as M
from repro.core.events import Event
from repro.core.pubend import SILENCE_INTERVAL_MS
from repro.matching.engine import union_digest
from repro.matching.predicates import Eq

from .test_work_budget import N_EVENTS, T0, fanout_forest, publish_events

LATENCY_MS = 1.0
COST_MS = 0.1


def around(ms):
    """An arrival time: ``ms`` plus the child's receive CPU."""
    return pytest.approx(ms, abs=0.1)


class Relay(Broker):
    """A parent that only forwards what a test hands it."""

    def _handle_from_child(self, child, msg):
        if isinstance(msg, M.SubscriptionAdd):
            self._on_subscription_add(child, msg)
        elif isinstance(msg, M.SubscriptionSync):
            self._on_subscription_sync(child, msg)


class Child(Broker):
    """A child that records what arrives, with its arrival time."""

    def __init__(self, scheduler, name="child"):
        super().__init__(scheduler, name)
        self.received = []

    def _handle_from_parent(self, msg):
        self.received.append((self.scheduler.now, msg))

    def knowledge(self):
        return [(t, m) for t, m in self.received if isinstance(m, M.KnowledgeUpdate)]

    def heard_of(self, tick):
        """Arrival time of the first update saying anything about ``tick``."""
        for t, update in self.knowledge():
            if any(s <= tick <= e for s, e in update.s_ranges + update.l_ranges):
                return t
            if any(event.timestamp == tick for event in update.d_events):
                return t
        return None


@pytest.fixture
def env():
    sim = Scheduler()
    parent = Relay(sim, "parent")
    child = Child(sim)
    Broker.connect(parent, child, latency_ms=LATENCY_MS)
    parent.child_engines["child"].add(Eq("g", 1))
    return sim, parent, child


def head(parent, update):
    parent._forward("child", update, COST_MS, parent.scheduler.now, "", head=True)


def silence(lo, hi):
    return M.KnowledgeUpdate("P1", s_ranges=[(lo, hi)])


def event(tick):
    return Event("P1", tick, {"g": 1})


class TestHolding:
    def test_silence_waits_one_flush_interval(self, env):
        sim, parent, child = env
        sim.at(10.0, lambda: head(parent, silence(1, 9)))
        sim.run_until(10.0 + SILENCE_INTERVAL_MS)
        assert child.heard_of(5) is None
        sim.run_until(100.0)
        arrived = child.heard_of(5)
        assert arrived == around(10.0 + SILENCE_INTERVAL_MS + COST_MS + LATENCY_MS)
        assert len(child.knowledge()) == 1

    def test_held_silence_rides_with_the_next_d_tick(self, env):
        sim, parent, child = env
        sim.at(10.0, lambda: head(parent, silence(1, 9)))
        sim.at(12.0, lambda: head(parent, silence(10, 11)))
        sim.at(15.0, lambda: head(parent, M.KnowledgeUpdate(
            "P1", [event(15)], s_ranges=[(12, 14)]
        )))
        sim.run_until(100.0)
        [(arrived, update)] = child.knowledge()
        # The D tick's delivery time is what it was without holding.
        assert arrived == around(15.0 + COST_MS + LATENCY_MS)
        assert update.s_ranges == [(1, 14)]
        assert [e.timestamp for e in update.d_events] == [15]

    def test_l_ticks_are_never_held(self, env):
        sim, parent, child = env
        sim.at(10.0, lambda: head(parent, silence(5, 9)))
        sim.at(11.0, lambda: head(parent, M.KnowledgeUpdate("P1", l_ranges=[(1, 4)])))
        sim.run_until(100.0)
        [(arrived, update)] = child.knowledge()
        assert arrived == around(11.0 + COST_MS + LATENCY_MS)
        assert update.l_ranges == [(1, 4)] and update.s_ranges == [(5, 9)]

    def test_a_nack_reply_goes_out_behind_held_silence(self, env):
        sim, parent, child = env
        sim.at(10.0, lambda: head(parent, silence(5, 9)))
        sim.at(11.0, lambda: parent._forward(
            "child", M.KnowledgeUpdate("P1", [event(3)]), COST_MS, 11.0, ""
        ))
        sim.run_until(100.0)
        updates = [update for _t, update in child.knowledge()]
        assert updates[0].s_ranges == [(5, 9)] and not updates[0].d_events
        assert [e.timestamp for e in updates[1].d_events] == [3]
        assert child.heard_of(5) < 11.0 + SILENCE_INTERVAL_MS


class TestNothingOvertakesHeldSilence:
    def test_subscription_synced_arrives_after_held_silence(self, env):
        """Coverage confirmation's FIFO argument: once the ack is in,
        every update classified under the older union has arrived."""
        sim, parent, child = env
        sim.at(10.0, lambda: head(parent, silence(1, 9)))
        sim.at(11.0, lambda: parent._ack_child_sync("child", 7))
        sim.run_until(100.0)
        kinds = [type(m) for _t, m in child.received]
        assert kinds == [M.KnowledgeUpdate, M.SubscriptionSynced]
        assert child.heard_of(5) < 11.0 + SILENCE_INTERVAL_MS


VOIDING = {
    "widen": lambda sim, parent, child: child.send_up(M.SubscriptionAdd(Eq("g", 0))),
    "full set": lambda sim, parent, child: child.send_up(
        M.SubscriptionSync(1, predicates=(Eq("g", 1),))
    ),
    "cold": lambda sim, parent, child: child.send_up(
        M.SubscriptionSync(1, count=1, digest=union_digest([Eq("g", 2)]))
    ),
    "recover": lambda sim, parent, child: (parent.crash(), parent.recover()),
}


class TestHeldSilenceDiesWithItsUnion:
    @pytest.mark.parametrize("action", sorted(VOIDING))
    def test_voided(self, env, action):
        sim, parent, child = env
        sim.at(10.0, lambda: head(parent, silence(1, 9)))
        sim.at(12.0, lambda: VOIDING[action](sim, parent, child))
        sim.run_until(200.0)
        assert child.heard_of(5) is None
        assert parent._held_silence == {}

    def test_unchanged_union_keeps_it(self, env):
        sim, parent, child = env
        sim.at(10.0, lambda: head(parent, silence(1, 9)))
        # Re-adding a predicate the union holds does not widen it.
        sim.at(12.0, lambda: child.send_up(M.SubscriptionAdd(Eq("g", 1))))
        sim.run_until(200.0)
        assert child.heard_of(5) is not None

    def test_voided_on_unwire(self, env):
        """A same-named child wired again must not get the old child's
        held silence."""
        sim, parent, child = env
        sim.at(10.0, lambda: head(parent, silence(1, 9)))
        successor = Child(sim)

        def rewire():
            parent.unwire_child("child")
            Broker.connect(parent, successor, latency_ms=LATENCY_MS)

        sim.at(12.0, rewire)
        sim.run_until(200.0)
        assert child.heard_of(5) is None
        assert successor.heard_of(5) is None


class TestCheckpointedRegistration:
    def test_refilters_up_to_its_registration_time(self, monkeypatch):
        sim = Scheduler()
        overlay = build_star(sim, ["P1"], n_shbs=2)
        machine = Node(sim, "client")
        pub = PeriodicPublisher(
            sim, overlay.phb, "P1", 100, attribute_fn=lambda i: {"group": i % 4}
        )
        pub.start()
        shb_a, shb_b = overlay.shbs
        registered = {}
        register = SubscriberHostingBroker._register

        def recording_register(self, sub_id, predicate, checkpoint=None):
            registered[sub_id] = self.constreams["P1"].delivered_cursor
            register(self, sub_id, predicate, checkpoint)

        acked = {}
        synced = SubscriberHostingBroker._on_subscription_synced

        def recording_synced(self, ack):
            pending = set(self._cover_pending)
            synced(self, ack)
            for sub_id in pending - set(self._cover_pending):
                acked[sub_id] = max(ack.hidden_to.get("P1", 0), ack.hidden_floor)

        monkeypatch.setattr(SubscriberHostingBroker, "_register", recording_register)
        monkeypatch.setattr(
            SubscriberHostingBroker, "_on_subscription_synced", recording_synced
        )
        roamer = DurableSubscriber(sim, "roamer", machine, In("group", [0, 2]),
                                   record_events=True)
        roamer.connect(shb_a)
        sim.run_until(1_000)
        roamer.disconnect()
        sim.run_until(2_000)
        # shb_b hosts nothing yet: the PHB hides every event from it.
        hidden = overlay.phb._hidden[shb_b.name]["P1"]
        roamer.connect(shb_b)
        newcomer = DurableSubscriber(sim, "newcomer", machine, In("group", [1]))
        newcomer.connect(shb_b)
        sim.run_until(2_100)

        # A checkpointed registration and a brand-new one alike: the
        # refilter span reaches the confirmation's bound on what was
        # hidden, and that bound holds everything hidden before the
        # subscription's filter reached the PHB.
        for sub_id in ("roamer", "newcomer"):
            pfs_from = shb_b.registry.get(sub_id).pfs_from["P1"]
            assert pfs_from == max(registered[sub_id], acked[sub_id])
            assert pfs_from >= hidden > 0
        shb_a.unsubscribe("roamer")
        pub.stop()
        sim.run_until(5_000)
        assert roamer.stats.events == pub.published // 2
        assert roamer.duplicate_events == 0 and roamer.stats.gaps == 0


#: Knowledge updates reaching the work-budget forest's SHBs, by kind.
#: Before lazy silence: S only {publishing 1 506, whole run 2 968},
#: with D 296.
S_ONLY = {"publishing": 172, "whole run": 1_480}
WITH_D = 296


def test_s_only_updates_at_the_shbs_are_pinned(monkeypatch):
    counts = Counter()
    intake = SubscriberHostingBroker._handle_from_parent_batch

    def counting(self, msgs):
        for msg in msgs:
            if isinstance(msg, M.KnowledgeUpdate):
                if msg.d_events:
                    counts["with D"] += 1
                elif not msg.l_ranges:
                    counts["whole run"] += 1
                    counts["publishing"] += T0 <= self.scheduler.now < T0 + 5.0 * N_EVENTS
        return intake(self, msgs)

    monkeypatch.setattr(SubscriberHostingBroker, "_handle_from_parent_batch", counting)
    sim, federation = fanout_forest()
    publish_events(sim, federation.trees[0])
    assert counts.pop("with D") == WITH_D
    assert dict(counts) == S_ONLY
