"""Scale topology generators: forests, headless durables, failover.

Covers the wide/deep overlay generator (:func:`build_deep_overlay`),
deterministic seeded subscriber placement, headless durable
registration (:meth:`SubscriberHostingBroker.register_durable`),
redundant-path failover onto spares, and — because generated
topologies must be exactly as deterministic as the hand-built ones —
a byte-identical double run plus a recorded digest on a deep forest.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import random
from typing import List

import pytest

from repro import DurableSubscriber, In, Node, PeriodicPublisher, Scheduler
from repro.broker.topology import build_deep_overlay, place_durable_subscribers
from repro.core import messages as M
from repro.metrics.collector import MetricsCollector
from repro.util.errors import ProtocolError


def _small_forest(sim, **kwargs):
    kwargs.setdefault("n_trees", 2)
    kwargs.setdefault("pubends_per_tree", 1)
    kwargs.setdefault("fanout", (2,))
    kwargs.setdefault("shbs_per_leaf", 2)
    kwargs.setdefault("spares_per_level", 1)
    return build_deep_overlay(sim, **kwargs)


class TestBuildDeepOverlay:
    def test_shape_and_naming(self):
        sim = Scheduler()
        fed = _small_forest(sim)
        assert len(fed.trees) == 2
        # Per tree: 2 intermediates + 1 spare, 2 leaves x 2 SHBs.
        for k, tree in enumerate(fed.trees):
            assert tree.phb.name == f"phb{k + 1}"
            assert tree.pubend_names == [f"p{k + 1}.1"]
            assert len(tree.intermediates) == 3  # 2 live + 1 spare
            assert len(tree.shbs) == 4
        assert len(fed.shbs) == 8
        assert set(fed.spares) == {(0, 1), (1, 1)}
        # Spares are childless and cold at their parent.
        for (k, _level), spares in fed.spares.items():
            for spare in spares:
                assert not spare.child_names
                parent = fed.trees[k].parent_of(spare)
                assert parent.child_filter_ready[spare.name] is False

    def test_star_per_tree_with_empty_fanout(self):
        sim = Scheduler()
        fed = build_deep_overlay(sim, n_trees=1, fanout=(), shbs_per_leaf=3)
        tree = fed.trees[0]
        assert tree.phb.name == "phb"
        assert tree.pubend_names == ["p1"]
        assert not tree.intermediates
        assert [s.name for s in tree.shbs] == ["shb1", "shb2", "shb3"]
        assert all(s.parent_name == "phb" for s in tree.shbs)

    def test_lookup_helpers(self):
        sim = Scheduler()
        fed = _small_forest(sim)
        shb = fed.shbs[5]
        assert fed.shb_by_name(shb.name) is shb
        assert fed.broker_by_name(shb.name) is shb
        assert fed.tree_of(shb) is fed.trees[1]


class TestPlacement:
    def test_same_seed_places_identically(self):
        placements = []
        for _ in range(2):
            sim = Scheduler()
            fed = _small_forest(sim)
            preds = [In("group", (g,)) for g in range(4)]
            placements.append(
                place_durable_subscribers(fed, 40, preds, seed=9)
            )
        assert placements[0] == placements[1]

    def test_different_seeds_place_differently(self):
        sim = Scheduler()
        fed_a = _small_forest(sim)
        fed_b = _small_forest(Scheduler())
        preds = [In("group", (g,)) for g in range(4)]
        a = place_durable_subscribers(fed_a, 40, preds, seed=1)
        b = place_durable_subscribers(fed_b, 40, preds, seed=2)
        assert a != b

    def test_every_subscriber_lands_exactly_once(self):
        sim = Scheduler()
        fed = _small_forest(sim)
        preds = [In("group", (g,)) for g in range(4)]
        placed = place_durable_subscribers(fed, 30, preds, seed=3)
        all_ids = [s for ids in placed.values() for s in ids]
        assert sorted(all_ids) == sorted(f"sub{i}" for i in range(30))
        for shb_name, ids in placed.items():
            shb = fed.shb_by_name(shb_name)
            for sub_id in ids:
                assert sub_id in shb.registry


class TestRegisterDurable:
    def _star(self):
        sim = Scheduler()
        fed = build_deep_overlay(sim, n_trees=1, fanout=(), shbs_per_leaf=2)
        return sim, fed, fed.trees[0]

    def test_duplicate_refused(self):
        _sim, fed, _tree = self._star()
        shb = fed.shbs[0]
        shb.register_durable("h1", In("group", (0,)))
        with pytest.raises(ProtocolError):
            shb.register_durable("h1", In("group", (1,)))

    def test_draining_refused(self):
        _sim, fed, _tree = self._star()
        shb = fed.shbs[0]
        shb.begin_drain()
        with pytest.raises(ProtocolError):
            shb.register_durable("h1", In("group", (0,)))

    def test_headless_durable_is_matched_and_pfs_logged(self):
        sim, fed, tree = self._star()
        shb = fed.shbs[0]
        shb.register_durable("h1", In("group", (0,)))
        pub = PeriodicPublisher(
            sim, tree.phb, "p1", rate_per_s=100,
            attribute_fn=lambda i: {"group": i % 2},
        )
        pub.start()
        sim.run_until(3_000.0)
        pub.stop()
        sim.run_until(4_000.0)
        # No client ever connected, yet the subscription was matched
        # and its Q ticks durably logged (8 + 16n byte records).
        assert shb.pfs.writes > 0
        pairs = (shb.pfs.bytes_written - 8 * shb.pfs.writes) // 16
        assert pairs > 0
        # Never-acking headless durables pin the release floor at
        # their registration cursor.
        assert shb.registry.min_released("p1") == 0

    def test_mid_stream_registration_owes_nothing_below_cursor(self):
        sim, fed, tree = self._star()
        shb = fed.shbs[0]
        pub = PeriodicPublisher(
            sim, tree.phb, "p1", rate_per_s=100,
            attribute_fn=lambda i: {"group": 0},
        )
        pub.start()
        sim.run_until(3_000.0)
        cursor = shb.constreams["p1"].delivered_cursor
        assert cursor > 0
        shb.register_durable("late", In("group", (0,)))
        sub = shb.registry.get("late")
        # Registered at the current cursor: acked there (owed nothing
        # below) and PFS coverage claimed from there.
        assert sub.released_for("p1") == cursor
        assert sub.pfs_from["p1"] >= cursor
        assert shb.registry.min_released("p1") == cursor
        pub.stop()


class TestFailOver:
    def test_subtree_moves_onto_spare_and_delivery_continues(self):
        sim = Scheduler()
        fed = build_deep_overlay(
            sim, n_trees=1, fanout=(2,), shbs_per_leaf=2, spares_per_level=1,
        )
        tree = fed.trees[0]
        spare = fed.spares[(0, 1)][0]
        # A live subscriber on an SHB whose uplink we will fail over.
        shb = tree.shbs[0]
        machine = Node(sim, "fo-machine")
        sub = DurableSubscriber(
            sim, "fo-s1", machine, In("group", (0,)), record_events=True
        )
        sub.connect(shb)
        pub = PeriodicPublisher(
            sim, tree.phb, "p1", rate_per_s=100,
            attribute_fn=lambda i: {"group": i % 2},
        )
        pub.start()
        sim.run_until(3_000.0)
        before = sub.stats.events
        assert before > 0

        fed.fail_over(shb, spare)
        assert spare not in fed.spares[(0, 1)]
        assert shb.parent_name == spare.name
        assert spare.name in {b.name for b in tree.intermediates}

        sim.run_until(8_000.0)
        pub.stop()
        sim.run_until(10_000.0)
        assert sub.stats.events > before          # delivery resumed
        assert sub.duplicate_events == 0
        assert sub.stats.order_violations == 0

    def test_failover_races_in_flight_forward_job(self):
        # A dissemination forward is a queued CPU job holding the child
        # name; failing the child over between submit and execution must
        # drop the forward (the resync re-nacks it), not KeyError the
        # parent.  run_until(2000) parks exactly such a job: the publish
        # at t=2000 is logged but its forward to t1.ib1 has not fired.
        sim = Scheduler()
        fed = build_deep_overlay(
            sim, n_trees=1, fanout=(2,), shbs_per_leaf=2, spares_per_level=1,
        )
        tree = fed.trees[0]
        machine = Node(sim, "fo-machine")
        sub = DurableSubscriber(
            sim, "fo-s2", machine, In("group", (0, 1)), record_events=True
        )
        sub.connect(tree.shbs[0])
        pub = PeriodicPublisher(
            sim, tree.phb, "p1", rate_per_s=100,
            attribute_fn=lambda i: {"group": i % 2},
        )
        pub.start()
        sim.run_until(2_000.0)
        fed.fail_over(tree.intermediates[0], fed.spares[(0, 1)][0])
        sim.run_until(6_000.0)
        pub.stop()
        sim.run_until(8_000.0)
        assert sub.stats.events == pub.published
        assert sub.duplicate_events == 0
        assert sub.stats.order_violations == 0
        assert sub.stats.gaps == 0


# ---------------------------------------------------------------------------
# Determinism on generated topologies
# ---------------------------------------------------------------------------
class TestWarmForest:
    """Every link of the generated forest warms, spares included, and no
    link filters a subtree failed over onto a spare before its union
    arrives."""

    def test_scale_registrations_confirmed_before_warmup_ends(self, monkeypatch):
        from collections import Counter

        from repro.broker.base import Broker
        from repro.broker.shb import SubscriberHostingBroker
        from repro.sim.experiments import prepare_scale

        rounds = Counter()
        send_union_up = Broker._send_union_up

        def counting(self, want_ack=False):
            epoch = send_union_up(self, want_ack)
            if want_ack and epoch is not None and isinstance(self, SubscriberHostingBroker):
                rounds[self.name] += 1
            return epoch

        monkeypatch.setattr(Broker, "_send_union_up", counting)
        setup = prepare_scale(20_000, seed=3)
        fed = setup.federation
        setup.sim.run_until(setup.warmup_ms)
        cold = [
            f"{b.name}->{child}"
            for b in fed.all_brokers()
            for child, warm in b.child_filter_ready.items()
            if not warm
        ]
        assert cold == []
        assert all(not shb._cover_pending for shb in fed.shbs)
        for client in setup.clients:
            shb = next(s for s in fed.shbs if client.sub_id in s.registry)
            assert client.connected
            assert not any(shb.in_catchup(client.sub_id, p) for p in shb.pubend_names)
        # One confirming refresh per SHB for the 19 976 placements made
        # in one loop, and one per live client (their connects reach
        # their SHBs at distinct instants).
        assert len(rounds) == 64
        assert sum(rounds.values()) == 64 + len(setup.clients)

    def test_moved_subtree_is_never_filtered_before_its_union_arrives(self):
        sim = Scheduler()
        fed = build_deep_overlay(
            sim, n_trees=1, fanout=(2, 2), shbs_per_leaf=1, spares_per_level=1,
        )
        tree = fed.trees[0]
        spare = fed.spares[(0, 2)][0]
        ib1 = tree.parent_of(spare)
        # An SHB outside ib1's subtree, holding the only group-7 predicate.
        shb = next(
            s for s in tree.shbs if tree.parent_of(tree.parent_of(s)) is not ib1
        )
        sub = DurableSubscriber(
            sim, "fo-moved", Node(sim, "fo-machine"), In("group", (7,)),
            record_events=True,
        )
        sub.connect(shb)
        pub = PeriodicPublisher(
            sim, tree.phb, "p1", rate_per_s=200, attribute_fn=lambda i: {"group": i % 8},
        )
        pub.start()
        sim.run_until(3_000.0)
        # The childless spare announced a wildcard: it is warm, and so
        # is its parent.
        assert ib1.child_filter_ready[spare.name]
        assert tree.phb.child_filter_ready[ib1.name]

        fed.fail_over(shb, spare)
        path = [(spare, shb), (ib1, spare), (tree.phb, ib1)]
        filtered = []

        def probe():
            for parent, child in path:
                union = parent.child_engines[child.name]
                if (
                    parent.child_filter_ready[child.name]
                    and not union.accepts_all()
                    and sub.predicate not in union
                ):
                    filtered.append((sim.now, parent.name, child.name))

        probe()
        timer = sim.every(0.5, probe)
        sim.run_until(3_000.0 + 2 * 2_000.0)
        timer.cancel()
        assert filtered == []
        assert all(parent.child_filter_ready[child.name] for parent, child in path)
        pub.stop()
        sim.run_until(10_000.0)
        assert sub.stats.events == pub.published // 8
        assert sub.duplicate_events == 0
        assert sub.stats.order_violations == 0
        assert sub.stats.gaps == 0


def _record_transcript(sim: Scheduler, sub: DurableSubscriber, out: List[str]):
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


def _run_deep_forest(seed: int) -> bytes:
    """A generated 2-tree forest under load, churn and failover.

    Exercises the whole generated-topology stack — attach-grown trees,
    headless placement, live clients, a mid-run fail_over — and
    serializes the delivery transcript, metric series and final
    registry floors.
    """
    rng = random.Random(seed)
    sim = Scheduler()
    fed = build_deep_overlay(
        sim, n_trees=2, pubends_per_tree=1, fanout=(2,), shbs_per_leaf=2,
        spares_per_level=1,
    )
    predicates = [In("group", (g,)) for g in range(4)]
    place_durable_subscribers(fed, 12, predicates, seed=seed, prefix="deep-h")

    transcript: List[str] = []
    machine = Node(sim, "deep-machine")
    subs = []
    for i, shb in enumerate([fed.trees[0].shbs[0], fed.trees[1].shbs[-1]]):
        sub = DurableSubscriber(
            sim, f"deep-s{i + 1}", machine, In("group", (i, (i + 1) % 4)),
            record_events=True,
        )
        _record_transcript(sim, sub, transcript)
        sub.connect(shb)
        subs.append(sub)

    publishers = []
    for tree in fed.trees:
        for pubend in tree.pubend_names:
            pub = PeriodicPublisher(
                sim, tree.phb, pubend, rate_per_s=100,
                attribute_fn=lambda i: {"group": i % 4},
            )
            pub.start()
            publishers.append(pub)

    collector = MetricsCollector(sim, interval_ms=500.0)
    for k, tree in enumerate(fed.trees):
        pubend = tree.pubend_names[0]
        shb = tree.shbs[0]
        collector.gauge(
            f"latestDelivered.{pubend}",
            lambda s=shb, p=pubend: float(s.latest_delivered(p)),
        )
    collector.start()

    # Seeded churn plus a mid-run failover of a live subtree.
    down_at = rng.uniform(2_000.0, 4_000.0)
    down_for = rng.uniform(500.0, 1_500.0)
    sim.at(down_at, subs[0].disconnect)
    sim.at(down_at + down_for, lambda: subs[0].connect(fed.trees[0].shbs[0]))
    shb_fo = fed.trees[0].shbs[0]
    spare = fed.spares[(0, 1)][0]
    sim.at(rng.uniform(4_500.0, 6_000.0), lambda: fed.fail_over(shb_fo, spare))

    sim.run_until(9_000.0)
    for pub in publishers:
        pub.stop()
    sim.run_until(12_000.0)
    collector.stop()

    for sub in subs:
        assert sub.duplicate_events == 0
        assert sub.stats.order_violations == 0
        assert sub.stats.events > 0

    floors = []
    for shb in sorted(fed.shbs, key=lambda s: s.name):
        for pubend in sorted(shb.pubend_names):
            floors.append(f"{shb.name} {pubend} {shb.registry.min_released(pubend)}")
    series = []
    for name in sorted(collector.series):
        for t, v in collector.get(name).points:
            series.append(f"{name} {t:.6f} {v!r}")
    body = "\n".join(transcript) + "\n---\n" + "\n".join(series) \
        + "\n---\n" + "\n".join(floors)
    return body.encode()


def test_deep_forest_deterministic():
    assert _run_deep_forest(seed=7) == _run_deep_forest(seed=7)


_DIGEST_FIXTURE = (
    pathlib.Path(__file__).parent / "fixtures" / "determinism_digests.json"
)

needs_pinned_hashes = pytest.mark.skipif(
    os.environ.get("PYTHONHASHSEED") != "0",
    reason="digest fixtures require PYTHONHASHSEED=0 (set iteration order)",
)


@needs_pinned_hashes
def test_deep_forest_matches_recorded_digest():
    """Generated topologies are part of the pinned determinism surface:
    the same seed must produce this byte stream forever."""
    digests = json.loads(_DIGEST_FIXTURE.read_text())
    got = hashlib.sha256(_run_deep_forest(seed=7)).hexdigest()
    assert got == digests["deep_forest/seed7"]
