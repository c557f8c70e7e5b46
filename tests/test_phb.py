"""Tests for the publisher hosting broker (dissemination + nack service)."""

import contextlib

import pytest

from repro.broker.base import Broker
from repro.broker.phb import PublisherHostingBroker
from repro.core import messages as M
from repro.core.pubend import SILENCE_INTERVAL_MS
from repro.matching.engine import union_digest
from repro.matching.predicates import Eq
from repro.net.link import Link
from repro.net.node import Node
from repro.net.simtime import Scheduler
from repro.util.errors import ConfigurationError
from repro.util.intervals import IntervalSet


class FakeChild(Broker):
    """A broker that records everything its parent sends it."""

    def __init__(self, scheduler, name):
        super().__init__(scheduler, name)
        self.received = []

    def _handle_from_parent(self, msg):
        self.received.append(msg)

    def _handle_from_child(self, child, msg):  # pragma: no cover
        raise AssertionError("leaf")

    def knowledge(self):
        return [m for m in self.received if isinstance(m, M.KnowledgeUpdate)]


@pytest.fixture
def env():
    sim = Scheduler()
    phb = PublisherHostingBroker(sim, "phb")
    phb.create_pubend("P1")
    child = FakeChild(sim, "child")
    Broker.connect(phb, child, latency_ms=1.0)
    phb.register_release_child("P1", "child")
    return sim, phb, child


class TestDissemination:
    def test_published_event_reaches_child(self, env):
        sim, phb, child = env
        # Child has a matching subscription below it.
        phb.child_engines["child"].add(Eq("g", 0))
        phb.publish("P1", {"g": 0})
        sim.run_until(100)
        events = [e for u in child.knowledge() for e in u.d_events]
        assert len(events) == 1
        assert events[0].attributes["g"] == 0

    def test_non_matching_event_filtered_to_silence(self, env):
        sim, phb, child = env
        phb.child_engines["child"].add(Eq("g", 1))
        phb.publish("P1", {"g": 0})
        sim.run_until(100)
        updates = child.knowledge()
        assert all(not u.d_events for u in updates)
        # The event's tick is covered by silence.
        covered = IntervalSet()
        for u in updates:
            for s, e in u.s_ranges:
                covered.add(s, e)
        assert covered.max() >= 1

    def test_subscription_add_from_child_updates_filter(self, env):
        sim, phb, child = env
        child.send_up(M.SubscriptionAdd(Eq("g", 0)))
        sim.run_until(10)
        assert Eq("g", 0) in phb.child_engines["child"]
        # Nothing but a full set narrows the copy.
        child.send_up(M.SubscriptionSync(1, predicates=()))
        sim.run_until(20)
        assert Eq("g", 0) not in phb.child_engines["child"]

    def test_silence_flows_without_events(self, env):
        sim, phb, child = env
        sim.run_until(200)
        covered = IntervalSet()
        for u in child.knowledge():
            for s, e in u.s_ranges:
                covered.add(s, e)
        # Silence trails the clock by at most one pubend flush interval
        # plus one lazy-silence hold, and the 1 ms link.
        assert covered and covered.max() >= 200 - 2 * SILENCE_INTERVAL_MS - 1


class TestDigestRefresh:
    def synced(self, child):
        return [m for m in child.received if isinstance(m, M.SubscriptionSynced)]

    def test_matching_want_ack_digest_is_acked(self, env):
        sim, phb, child = env
        child.send_up(M.SubscriptionAdd(Eq("g", 0)))
        digest = union_digest([Eq("g", 0)])
        child.send_up(M.SubscriptionSync(5, want_ack=True, count=1, digest=digest))
        sim.run_until(10)
        assert phb.child_filter_ready["child"] is True
        assert self.synced(child) == [M.SubscriptionSynced(5)]

    def test_mismatched_want_ack_install_is_finalized_by_the_full_set(self, env):
        # A migration destination's confirmation refresh whose digest
        # disagrees (its immediate add was lost): the PHB goes cold and
        # asks for the full set, and acking the full set's later epoch
        # covers the digest's — the install is finalized all the same.
        sim, phb, child = env
        predicates = (Eq("g", 0),)
        child.send_up(M.SubscriptionSync(
            5, want_ack=True, count=1, digest=union_digest(predicates)
        ))
        sim.run_until(10)
        assert phb.child_filter_ready["child"] is False
        assert [m for m in child.received if isinstance(m, M.SubscriptionResend)] == [
            M.SubscriptionResend(5, want_ack=True)
        ]
        assert self.synced(child) == []
        child.send_up(M.SubscriptionSync(6, want_ack=True, predicates=predicates))
        sim.run_until(20)
        assert phb.child_filter_ready["child"] is True
        (ack,) = self.synced(child)
        assert ack.epoch >= 5


class TestNackService:
    def test_nack_answered_from_log(self, env):
        sim, phb, child = env
        phb.child_engines["child"].add(Eq("g", 0))
        phb.publish("P1", {"g": 0})
        sim.run_until(100)
        child.received.clear()
        child.send_up(M.Nack("P1", [(1, 90)]))
        sim.run_until(200)
        events = [e for u in child.knowledge() for e in u.d_events]
        assert len(events) == 1

    def test_nack_for_released_ticks_answers_l(self, env):
        sim, phb, child = env
        sim.run_until(100)
        child.send_up(M.ReleaseUpdate("P1", released=50, latest_delivered=80))
        sim.run_until(150)
        assert phb.pubends["P1"].lost_below == 51
        child.received.clear()
        child.send_up(M.Nack("P1", [(1, 60)]))
        sim.run_until(250)
        l_ranges = [r for u in child.knowledge() for r in u.l_ranges]
        assert (1, 50) in l_ranges

    def test_nack_for_unknown_pubend_ignored(self, env):
        sim, phb, child = env
        child.send_up(M.Nack("P9", [(1, 10)]))
        sim.run_until(50)  # no crash, no reply


class _Acks:
    """A publisher session's send end: records what the PHB acks."""

    def __init__(self):
        self.acks = []

    def send(self, msg):
        self.acks.append(msg)


class TestUnknownPubend:
    """A request naming no hosted pubend is dropped before any floor moves."""

    def test_reliable_request_does_not_poison_the_seq_floor(self, env):
        sim, phb, _child = env
        session = _Acks()
        # Over TCP a raise here would end the session; the floors are
        # what outlive it, so they are what is checked.
        with contextlib.suppress(KeyError):
            phb._on_publisher_message(session, M.PublishRequest(
                {"g": 0}, 250, publisher="pub1", seq=1, pubend="NOPE"
            ))
        phb._on_publisher_message(session, M.PublishRequest(
            {"g": 0}, 250, publisher="pub1", seq=1, pubend="P1"
        ))
        sim.run_until(100)
        assert session.acks == [M.PublishAck("pub1", 1)]
        assert phb.duplicates_rejected == 0

    def test_unknown_pubend_is_dropped_without_raising(self, env):
        sim, phb, _child = env
        session = _Acks()
        phb._on_publisher_message(session, M.PublishRequest(
            {"g": 0}, 250, publisher="pub1", seq=1, pubend="NOPE"
        ))
        phb._on_publisher_message(session, M.PublishRequest({"g": 0}, 250, pubend="NOPE"))
        phb.publish("NOPE", {"g": 0})
        sim.run_until(100)
        assert phb.events_accepted == 0
        assert session.acks == []
        assert phb._accepted_seqs == {} and phb._pub_seqs == {}


class TestReleaseProtocol:
    def test_release_chops_log(self, env):
        sim, phb, child = env
        phb.child_engines["child"].add(Eq("g", 0))
        phb.publish("P1", {"g": 0})
        sim.run_until(100)
        t = phb.pubends["P1"].log.max_timestamp
        child.send_up(M.ReleaseUpdate("P1", released=t, latest_delivered=t))
        sim.run_until(200)
        assert phb.pubends["P1"].log.live_event_count == 0

    def test_release_blocked_until_all_children_report(self):
        sim = Scheduler()
        phb = PublisherHostingBroker(sim, "phb")
        phb.create_pubend("P1")
        c1, c2 = FakeChild(sim, "c1"), FakeChild(sim, "c2")
        Broker.connect(phb, c1)
        Broker.connect(phb, c2)
        phb.register_release_child("P1", "c1")
        phb.register_release_child("P1", "c2")
        phb.publish("P1", {"g": 0})
        sim.run_until(100)
        c1.send_up(M.ReleaseUpdate("P1", 90, 90))
        sim.run_until(150)
        assert phb.pubends["P1"].log.live_event_count == 1  # c2 silent
        c2.send_up(M.ReleaseUpdate("P1", 90, 90))
        sim.run_until(200)
        assert phb.pubends["P1"].log.live_event_count == 0


class TestStructure:
    def test_duplicate_pubend_rejected(self):
        sim = Scheduler()
        phb = PublisherHostingBroker(sim, "phb")
        phb.create_pubend("P1")
        with pytest.raises(ConfigurationError):
            phb.create_pubend("P1")

    def test_phb_has_no_parent(self):
        sim = Scheduler()
        phb = PublisherHostingBroker(sim, "phb")
        with pytest.raises(ConfigurationError):
            phb._handle_from_parent(object())

    def test_crash_loses_staged_recover_resumes(self):
        sim = Scheduler()
        phb = PublisherHostingBroker(sim, "phb")
        phb.create_pubend("P1")
        child = FakeChild(sim, "child")
        Broker.connect(phb, child)
        phb.register_release_child("P1", "child")
        phb.child_engines["child"].add(Eq("g", 0))
        phb.publish("P1", {"g": 0})
        sim.run_until(1)     # publish CPU done; event staged for the log
        phb.crash()          # before the log sync: event lost
        sim.run_until(100)
        phb.recover()
        sim.run_until(150)
        phb.publish("P1", {"g": 0})
        sim.run_until(300)
        events = [e for u in child.knowledge() for e in u.d_events]
        assert len(events) == 1  # only the post-recovery event
        assert phb.pubends["P1"].events_lost_in_crash == 1
