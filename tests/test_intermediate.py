"""Tests for intermediate brokers: filtering, caching, nack consolidation."""

import pytest

from repro.broker.base import Broker
from repro.broker.intermediate import IntermediateBroker
from repro.core import messages as M
from repro.core.events import Event
from repro.matching.engine import union_digest
from repro.matching.predicates import Eq, Everything
from repro.net.simtime import Scheduler


def ev(t, g=0):
    return Event("P1", t, {"g": g})


class FakeRoot(Broker):
    def __init__(self, scheduler, name="root"):
        super().__init__(scheduler, name)
        self.received = []

    def _handle_from_parent(self, msg):  # pragma: no cover
        raise AssertionError("root")

    def _handle_from_child(self, child, msg):
        self.received.append((child, msg))


class FakeLeaf(Broker):
    def __init__(self, scheduler, name):
        super().__init__(scheduler, name)
        self.received = []

    def _handle_from_parent(self, msg):
        self.received.append(msg)

    def _handle_from_child(self, child, msg):  # pragma: no cover
        raise AssertionError("leaf")

    def events(self):
        return [e for m in self.received if isinstance(m, M.KnowledgeUpdate)
                for e in m.d_events]


@pytest.fixture
def env():
    sim = Scheduler()
    root = FakeRoot(sim)
    mid = IntermediateBroker(sim, "mid")
    leaf_a = FakeLeaf(sim, "a")
    leaf_b = FakeLeaf(sim, "b")
    Broker.connect(root, mid)
    Broker.connect(mid, leaf_a)
    Broker.connect(mid, leaf_b)
    return sim, root, mid, leaf_a, leaf_b


def knowledge(*, d=(), s=(), l=()):
    return M.KnowledgeUpdate("P1", d_events=list(d), s_ranges=list(s), l_ranges=list(l))


class TestForwarding:
    def test_head_knowledge_forwarded_to_all_children(self, env):
        sim, root, mid, a, b = env
        mid.child_engines["a"].add(Everything())
        mid.child_engines["b"].add(Everything())
        root.send_to_child("mid", knowledge(d=[ev(5)], s=[(1, 4)]))
        sim.run_until(50)
        assert [e.timestamp for e in a.events()] == [5]
        assert [e.timestamp for e in b.events()] == [5]

    def test_per_child_filtering(self, env):
        sim, root, mid, a, b = env
        mid.child_engines["a"].add(Eq("g", 0))
        mid.child_engines["b"].add(Eq("g", 1))
        root.send_to_child("mid", knowledge(d=[ev(5, g=0)], s=[(1, 4)]))
        sim.run_until(50)
        assert [e.timestamp for e in a.events()] == [5]
        assert b.events() == []
        # b still learns the tick as silence (the filtered single-tick
        # range is coalesced with the adjacent silence before sending).
        assert any(s <= 5 <= e for m in b.received for (s, e) in m.s_ranges)

    def test_old_knowledge_not_rebroadcast(self, env):
        sim, root, mid, a, b = env
        mid.child_engines["a"].add(Everything())
        mid.child_engines["b"].add(Everything())
        root.send_to_child("mid", knowledge(s=[(1, 50)]))
        sim.run_until(20)
        a.received.clear()
        b.received.clear()
        # A re-send of already-forwarded ticks (e.g. a nack reply meant
        # for someone else) is not broadcast as head knowledge.
        root.send_to_child("mid", knowledge(d=[ev(30)]))
        sim.run_until(50)
        assert a.events() == []
        assert b.events() == []

    def test_subscription_propagation(self, env):
        sim, root, mid, a, b = env
        a.send_up(M.SubscriptionAdd(Eq("g", 0)))
        sim.run_until(20)
        assert Eq("g", 0) in mid.child_engines["a"]
        assert [m for _c, m in root.received] == [M.SubscriptionAdd(Eq("g", 0))]
        # A predicate some child already holds goes up only once, and a
        # duplicated add changes nothing.
        b.send_up(M.SubscriptionAdd(Eq("g", 0)))
        a.send_up(M.SubscriptionAdd(Eq("g", 0)))
        sim.run_until(40)
        assert Eq("g", 0) in mid.child_engines["b"]
        assert len(root.received) == 1

    def test_full_set_replaces_the_union_and_warms_the_child(self, env):
        sim, root, mid, a, b = env
        mid.child_filter_ready["a"] = False  # as after mid's recovery
        mid.child_engines["a"].add(Eq("g", 9))  # withdrawn below since
        a.send_up(M.SubscriptionSync(7, predicates=(Eq("g", 0), Eq("g", 1))))
        sim.run_until(20)
        assert mid.child_filter_ready["a"] is True
        assert set(mid.child_engines["a"].predicates()) == {Eq("g", 0), Eq("g", 1)}
        assert Eq("g", 9) not in mid.links.members
        # An overtaken full set is ignored.
        a.send_up(M.SubscriptionSync(6, predicates=()))
        sim.run_until(40)
        assert len(mid.child_engines["a"]) == 2


def resends(leaf):
    return [m for m in leaf.received if isinstance(m, M.SubscriptionResend)]


class TestDigestRefresh:
    def test_matching_digest_warms_a_cold_child(self, env):
        sim, root, mid, a, b = env
        mid.child_filter_ready["a"] = False
        mid.child_engines["a"].add(Eq("g", 0))
        a.send_up(M.SubscriptionSync(7, count=1, digest=union_digest([Eq("g", 0)])))
        sim.run_until(20)
        assert mid.child_filter_ready["a"] is True
        assert mid._applied_sub_epoch["a"] == 7
        assert resends(a) == []

    def test_mismatch_goes_cold_and_asks_for_the_full_set(self, env):
        sim, root, mid, a, b = env
        mid.child_engines["a"].add(Eq("g", 0))
        predicates = (Eq("g", 0), Eq("g", 1))
        a.send_up(M.SubscriptionSync(
            7, want_ack=True, count=2, digest=union_digest(predicates)
        ))
        sim.run_until(20)
        assert mid.child_filter_ready["a"] is False
        assert resends(a) == [M.SubscriptionResend(7, want_ack=True)]
        # The full set answers it and warms the child.
        a.send_up(M.SubscriptionSync(8, want_ack=True, predicates=predicates))
        sim.run_until(40)
        assert mid.child_filter_ready["a"] is True
        assert set(mid.child_engines["a"].predicates()) == set(predicates)

    def test_stale_epoch_digest_is_ignored(self, env):
        sim, root, mid, a, b = env
        mid.child_engines["a"].add(Eq("g", 0))
        a.send_up(M.SubscriptionSync(9, count=1, digest=union_digest([Eq("g", 0)])))
        a.send_up(M.SubscriptionSync(8, digest=0))  # overtaken, mismatched
        sim.run_until(20)
        assert mid.child_filter_ready["a"] is True
        assert resends(a) == []

    def test_periodic_refresh_is_one_digest(self, env):
        sim, root, mid, a, b = env
        mid.child_engines["a"].add(Eq("g", 0))
        mid.child_engines["b"].add(Eq("g", 1))
        mid.child_engines["b"].add(Eq("g", 0))  # held by both: counted once
        root.received.clear()
        mid._refresh_upstream()
        sim.run_until(20)
        (sync,) = [m for _c, m in root.received]
        assert (sync.count, sync.digest) == (
            2, union_digest([Eq("g", 0), Eq("g", 1)])
        )

    def test_resend_while_a_child_is_cold_keeps_want_ack(self, env):
        sim, root, mid, a, b = env
        mid.child_filter_ready["a"] = False
        root.received.clear()
        root.send_to_child("mid", M.SubscriptionResend(3, want_ack=True))
        sim.run_until(20)
        assert root.received == []  # held back: the union is incomplete
        a.send_up(M.SubscriptionSync(4, predicates=(Eq("g", 0),)))
        sim.run_until(40)
        (sent,) = [m for _c, m in root.received]
        assert sent.predicates == (Eq("g", 0),)
        assert sent.want_ack is True and sent.digest is None


class TestNackHandling:
    def test_cache_answers_without_upstream(self, env):
        sim, root, mid, a, b = env
        mid.child_engines["a"].add(Everything())
        mid.child_engines["b"].add(Everything())
        root.send_to_child("mid", knowledge(d=[ev(5)], s=[(1, 4), (6, 10)]))
        sim.run_until(20)
        root.received.clear()
        a.received.clear()
        a.send_up(M.Nack("P1", [(1, 10)]))
        sim.run_until(50)
        assert [e.timestamp for e in a.events()] == [5]
        assert not any(isinstance(m, M.Nack) for _c, m in root.received)
        assert mid.cache_hits == 1

    def test_cache_miss_forwards_upstream(self, env):
        sim, root, mid, a, b = env
        a.send_up(M.Nack("P1", [(100, 110)]))
        sim.run_until(50)
        nacks = [m for _c, m in root.received if isinstance(m, M.Nack)]
        assert nacks and nacks[0].ranges == [(100, 110)]

    def test_consolidation_suppresses_duplicate_nacks(self, env):
        sim, root, mid, a, b = env
        a.send_up(M.Nack("P1", [(100, 110)]))
        sim.run_until(20)
        b.send_up(M.Nack("P1", [(100, 110)]))
        sim.run_until(50)
        nacks = [m for _c, m in root.received if isinstance(m, M.Nack)]
        assert len(nacks) == 1

    def test_reply_routed_to_all_interested_children(self, env):
        sim, root, mid, a, b = env
        mid.child_engines["a"].add(Everything())
        mid.child_engines["b"].add(Everything())
        # Advance head past 110 so the reply counts as old knowledge.
        root.send_to_child("mid", knowledge(s=[(111, 200)]))
        sim.run_until(10)
        a.send_up(M.Nack("P1", [(100, 110)]))
        b.send_up(M.Nack("P1", [(100, 110)]))
        sim.run_until(30)
        a.received.clear()
        b.received.clear()
        root.send_to_child("mid", knowledge(d=[ev(105)], s=[(100, 104), (106, 110)]))
        sim.run_until(60)
        assert [e.timestamp for e in a.events()] == [105]
        assert [e.timestamp for e in b.events()] == [105]

    def test_reply_not_routed_to_uninterested_child(self, env):
        sim, root, mid, a, b = env
        mid.child_engines["a"].add(Everything())
        mid.child_engines["b"].add(Everything())
        root.send_to_child("mid", knowledge(s=[(111, 200)]))
        sim.run_until(10)
        a.send_up(M.Nack("P1", [(100, 110)]))
        sim.run_until(30)
        b.received.clear()
        root.send_to_child("mid", knowledge(d=[ev(105)], s=[(100, 104), (106, 110)]))
        sim.run_until(60)
        assert b.events() == []


class TestRelease:
    def test_aggregates_minimum_across_children(self, env):
        sim, root, mid, a, b = env
        mid.register_release_child("P1", "a")
        mid.register_release_child("P1", "b")
        a.send_up(M.ReleaseUpdate("P1", 50, 80))
        sim.run_until(20)
        # Only one child reported: nothing forwarded yet.
        assert not any(isinstance(m, M.ReleaseUpdate) for _c, m in root.received)
        b.send_up(M.ReleaseUpdate("P1", 30, 90))
        sim.run_until(40)
        ups = [m for _c, m in root.received if isinstance(m, M.ReleaseUpdate)]
        assert ups and (ups[-1].released, ups[-1].latest_delivered) == (30, 80)

    def test_duplicate_aggregate_not_resent(self, env):
        sim, root, mid, a, b = env
        mid.register_release_child("P1", "a")
        mid.register_release_child("P1", "b")
        a.send_up(M.ReleaseUpdate("P1", 50, 80))
        b.send_up(M.ReleaseUpdate("P1", 30, 90))
        sim.run_until(20)
        count = len([m for _c, m in root.received if isinstance(m, M.ReleaseUpdate)])
        a.send_up(M.ReleaseUpdate("P1", 50, 80))  # unchanged
        sim.run_until(40)
        count2 = len([m for _c, m in root.received if isinstance(m, M.ReleaseUpdate)])
        assert count2 == count


class TestCacheBound:
    def test_cache_trimmed_to_span(self, monkeypatch):
        monkeypatch.setattr("repro.broker.intermediate.RELAY_CACHE_SPAN_MS", 100)
        sim = Scheduler()
        root = FakeRoot(sim)
        mid = IntermediateBroker(sim, "mid")
        leaf = FakeLeaf(sim, "a")
        Broker.connect(root, mid)
        Broker.connect(mid, leaf)
        mid.child_engines["a"].add(Everything())
        root.send_to_child("mid", knowledge(d=[ev(50)], s=[(1, 49)]))
        sim.run_until(10)
        root.send_to_child("mid", knowledge(d=[ev(500)], s=[(51, 499)]))
        sim.run_until(20)
        relay = mid._relay("P1")
        # Old event fell out of the bounded cache.
        assert relay.cache.event_at(50) is None
        assert relay.cache.event_at(500) is not None
