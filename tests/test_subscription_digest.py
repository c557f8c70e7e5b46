"""The subscription refresh as a digest, over distinct predicates.

Every refresh interval each uplink carries one digest
``SubscriptionSync``; the full set travels, as one sync, only when the
parent's copy disagrees.  Unions above the SHB are sets of distinct
predicates keyed by canonical bytes, and immediate adds only widen
them.  Covered here: the digest's properties (incremental upkeep,
order independence, the same value in every process), the refresh's
message budget on a fixed tree, convergence from corrupted unions and
from equal predicates that encode differently, and widen-only intake
on a duplicating, reordering uplink.  The per-broker intake rules are
unit-tested in ``test_intermediate.py`` and ``test_phb.py``.
"""

import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.broker.base import SUBSCRIPTION_REFRESH_MS
from repro.broker.topology import build_tree, build_two_broker
from repro.client.publisher import PeriodicPublisher
from repro.core import messages as M
from repro.core import subscription
from repro.matching.engine import PredicateSet, union_digest
from repro.matching.links import LinkIndex
from repro.matching.predicates import And, Between, Eq, Exists, In, Not
from repro.net.link import FaultSpec
from repro.net.simtime import Scheduler
from repro.sim.experiments import run_union_repair
from repro.sim.scenario import Scenario

PREDICATES = [
    Eq("g", 0),
    Eq("g", 1),
    In("sym", ["a", "b", "c"]),
    Between("x", 1, 5),
    And([Eq("g", 1), Exists("y")]),
    Not(Eq("g", 2)),
    Eq("g", 1.0),  # equal to Eq("g", 1), encoded differently
]

OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "replace_all"]),
        st.integers(0, len(PREDICATES)),
        st.integers(0, len(PREDICATES) - 1),
    ),
    max_size=40,
)


class TestDigest:
    @settings(max_examples=200, deadline=None)
    @given(OPS)
    def test_incremental_digest_equals_from_scratch(self, ops):
        counted = PredicateSet()  # an SHB's: one reference per subscription
        union = LinkIndex().new_union()  # a parent's copy: a plain set
        refs = Counter()
        for op, i, p in ops:
            predicate = PREDICATES[p]
            if op == "add":
                assert counted.add(predicate) is (refs[p] == 0)
                refs[p] += 1
                union.add(predicate)
            elif op == "remove":
                assert counted.remove(predicate) is (refs[p] == 1)
                refs[p] = max(refs[p] - 1, 0)
                union.remove(predicate)
            else:
                union.replace_all(
                    PREDICATES[(p + j) % len(PREDICATES)] for j in range(i)
                )
            held = [PREDICATES[k] for k, n in refs.items() if n]
            assert len(counted) == len(held)
            assert counted.digest == union_digest(held)
            assert union.digest == union_digest(union.predicates())
        fresh = LinkIndex().new_union()
        fresh.replace_all(union.predicates())
        assert fresh.digest == union.digest

    @given(st.permutations(range(len(PREDICATES))))
    def test_order_independent(self, order):
        assert union_digest(PREDICATES[i] for i in order) == union_digest(PREDICATES)

    def test_sets_that_differ_digest_differently(self):
        digests = {
            union_digest(PREDICATES),
            union_digest(PREDICATES[1:]),
            union_digest(PREDICATES + [Eq("g", 3)]),
            union_digest(PREDICATES[:-1]),  # without Eq("g", 1.0)
            union_digest([]),
        }
        assert len(digests) == 5
        # A set: a member named twice counts once.
        assert union_digest(PREDICATES + PREDICATES[:2]) == union_digest(PREDICATES)

    def _run(self, script, hashseed="0"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
        return subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True,
        ).stdout.strip()

    def test_same_digest_under_every_hash_seed(self):
        script = (
            "from repro.matching.engine import union_digest\n"
            "from repro.matching.predicates import In\n"
            "p = In('sym', [f'v{i}' for i in range(24)])\n"
            "print(union_digest([p]), '|', repr(p))\n"
        )
        runs = [self._run(script, seed).split(" | ") for seed in ("0", "1")]
        assert runs[0][0] == runs[1][0]
        # Not vacuous: the set's repr does follow the hash seed.
        assert runs[0][1] != runs[1][1]

    def test_broker_imports_leave_hashlib_unloaded(self):
        # hashlib loads OpenSSL (megabytes of RSS); the digest is zlib's.
        script = (
            "import sys\n"
            "import repro.broker.phb, repro.broker.intermediate, repro.broker.shb\n"
            "print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n"
        )
        assert self._run(script) == "[]"


class TestRefreshBudget:
    """One digest sync, and no full set, per uplink per interval."""

    N_SUBSCRIPTIONS = 40
    INTERVALS = 5

    def test_one_digest_sync_and_no_full_set_per_interval(self):
        sim = Scheduler()
        overlay = build_tree(sim, ["P1"], [2, 2])  # PHB, 2 intermediates, 4 SHBs
        for i in range(self.N_SUBSCRIPTIONS):
            overlay.shbs[i % 4].register_durable(f"b{i}", Eq("group", i % 7))
        # Past the first refresh: every union has been compared once.
        sim.run_until(SUBSCRIPTION_REFRESH_MS + 500.0)
        sent = {}
        for link in overlay.links:
            uplink = link.b_to_a  # child -> parent
            counter = sent[uplink.sender.name] = Counter()

            def counting(msg, send=uplink.send, counter=counter):
                if isinstance(msg, M.SubscriptionSync) and msg.digest is None:
                    counter["full set"] += 1
                else:
                    counter[type(msg).__name__] += 1
                send(msg)

            uplink.send = counting
        sim.run_until(sim.now + self.INTERVALS * SUBSCRIPTION_REFRESH_MS)
        assert len(sent) == 6
        for name, counter in sent.items():
            assert counter["SubscriptionSync"] == self.INTERVALS, name
            assert counter["full set"] == 0, name
        for parent in [overlay.phb, *overlay.intermediates]:
            assert all(parent.child_filter_ready.values())


class TestEqualButDifferentlyEncoded:
    def test_one_full_set_converges(self, monkeypatch):
        # The parent's copy holds Eq("x", 1) while the child's set is
        # Eq("x", 1.0): equal predicates, different canonical bytes,
        # so different digests.  One mismatch and one full set make the
        # copy match; no second resend follows.
        sim = Scheduler()
        overlay = build_two_broker(sim, ["P1"])
        phb, shb = overlay.phb, overlay.shbs[0]
        link = overlay.link_between(phb, shb)
        shb.register_durable("s", Eq("x", 1))
        sim.run_until(SUBSCRIPTION_REFRESH_MS + 100.0)
        assert phb.child_filter_ready[shb.name] is True
        link.b_to_a.set_faults(FaultSpec(drop_p=1.0), 0)
        shb.unsubscribe("s")
        # A registry interns equal predicates to the first one its
        # process saw; an SHB in a process that saw Eq("x", 1.0) first
        # keeps that encoding.
        monkeypatch.setattr(subscription, "_PREDICATE_POOL", {})
        shb.register_durable("s", Eq("x", 1.0))  # its add is lost
        assert repr(next(shb.registry.all()).predicate) == repr(Eq("x", 1.0))
        sim.run_until(sim.now + 10.0)
        link.b_to_a.set_faults(None)
        resends = []

        def watching(msg, send=link.a_to_b.send):
            if isinstance(msg, M.SubscriptionResend):
                resends.append(sim.now)
            send(msg)

        link.a_to_b.send = watching
        sim.run_until(sim.now + 5 * SUBSCRIPTION_REFRESH_MS)
        assert len(resends) == 1, resends
        assert phb.child_filter_ready[shb.name] is True


def run_widen_only(seed: int, churn_ms: float = 8_000.0):
    """``(superset violations, verdict, uplink faults)`` of one run.

    On PHB → intermediate → 2 SHBs, one SHB's uplink duplicates and
    reorders.  That SHB keeps one headless subscription with predicate
    P and, at random intervals, drops it (the last with P) and
    registers a new one with P, so each churn sends an immediate add
    of P.  Every millisecond, while the parent's copy of the SHB's
    union is warm, it must hold every predicate the SHB holds.
    Connected subscribers on both SHBs are judged by the scenario.
    """
    rng = random.Random(f"widen-only:{seed}")
    sim = Scheduler()
    overlay = build_tree(sim, ["P1"], [1, 2])
    shb, other = overlay.shbs
    mid = overlay.intermediates[0]
    uplink = overlay.link_between(mid, shb).b_to_a
    uplink.set_faults(FaultSpec(dup_p=0.3, reorder_p=0.5), seed)
    scn = Scenario(sim, overlay)
    scn.subscriber("wo1", "wo-m1", Eq("group", 1), shb)
    scn.subscriber("wo2", "wo-m2", Eq("group", 0), other)
    scn.start()
    pub = PeriodicPublisher(
        sim, overlay.phb, "P1", 100.0, attribute_fn=lambda i: {"group": i % 3}
    )
    pub.start()
    shb.register_durable("w", Eq("group", 0))

    def churn() -> None:
        shb.unsubscribe("w")
        shb.register_durable("w", Eq("group", 0))  # a new, equal predicate
        sim.at(sim.now + rng.uniform(5.0, 300.0), churn)

    missing = []

    def sample() -> None:
        if mid.child_filter_ready[shb.name]:
            lacking = shb.distinct.keys() - mid.child_engines[shb.name].keys()
            if lacking:
                missing.append(f"{sim.now:.0f} ms: warm copy lacks {sorted(lacking)}")

    start = SUBSCRIPTION_REFRESH_MS + 100.0
    end = start + churn_ms
    sim.at(start, churn)
    sim.at(start, lambda: sim.every(1.0, sample))
    sim.run_until(end)
    pub.stop()
    uplink.set_faults(None)
    violations = scn.finish(end + 20_000.0)
    return missing, violations, (uplink.duplicated, uplink.reordered)


class TestWidenOnly:
    def test_warm_copy_holds_every_predicate(self):
        missing, violations, (duplicated, reordered) = run_widen_only(seed=1)
        assert duplicated > 0 and reordered > 0
        assert missing == []
        assert violations == []

    @pytest.mark.soak
    @pytest.mark.parametrize("seed", range(2, 14))
    def test_widen_only_soak(self, seed):
        missing, violations, _faults = run_widen_only(seed)
        assert (missing, violations) == ([], [])


class TestUnionRepair:
    KINDS = ["drop", "drop", "stale", "stale", "empty", "empty", "lost-add"]

    def test_corrupted_unions_repair_within_two_intervals(self):
        result = run_union_repair(seed=1)
        assert [c[0] for c in result.corruptions] == self.KINDS
        assert {c[1] for c in result.corruptions[:6:2]} == {"phb"}
        assert result.add_lost, "the lossy uplink never ate the immediate add"
        assert result.unrepaired == []
        assert result.violations == []
        assert result.converged_at_ms is not None

    @pytest.mark.soak
    @pytest.mark.parametrize("seed", range(2, 14))
    def test_union_repair_soak(self, seed):
        result = run_union_repair(seed)
        assert result.ok, (result.unrepaired, result.violations, result.add_lost)
