"""The subscription refresh as a digest.

Every refresh interval each uplink carries one digest
``SubscriptionSync``; the full set travels only when the parent's copy
disagrees.  Covered here: the digest's properties (incremental upkeep,
order independence, the same value in every process), the refresh's
message budget on a fixed tree, and convergence from corrupted unions.
The per-broker intake rules are unit-tested in ``test_intermediate.py``
and ``test_phb.py``.
"""

import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.broker.base import SUBSCRIPTION_REFRESH_MS
from repro.broker.topology import build_tree
from repro.core import messages as M
from repro.matching.engine import MatchingEngine, union_digest
from repro.matching.predicates import And, Between, Eq, Exists, In, Not
from repro.net.simtime import Scheduler
from repro.sim.experiments import run_union_repair

PREDICATES = [
    Eq("g", 0),
    Eq("g", 1),
    In("sym", ["a", "b", "c"]),
    Between("x", 1, 5),
    And([Eq("g", 1), Exists("y")]),
    Not(Eq("g", 2)),
]

OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "replace_all"]),
        st.integers(0, 7),
        st.integers(0, len(PREDICATES) - 1),
    ),
    max_size=40,
)


def pairs_of(engine):
    return [(s, engine.filter_of(s)) for s in engine.subscription_ids()]


class TestDigest:
    @settings(max_examples=200, deadline=None)
    @given(OPS)
    def test_incremental_digest_equals_from_scratch(self, ops):
        engine = MatchingEngine()
        assert engine.digest == 0
        for op, i, p in ops:
            if op == "add":
                # Re-adding an id with another predicate replaces it.
                engine.add(f"s{i}", PREDICATES[p])
            elif op == "remove":
                engine.remove(f"s{i}")
            else:
                engine.replace_all(
                    {f"s{j}": PREDICATES[(p + j) % len(PREDICATES)] for j in range(i)}
                )
            assert engine.digest == union_digest(pairs_of(engine))
        fresh = MatchingEngine()
        for sub_id, predicate in pairs_of(engine):
            fresh.add(sub_id, predicate)
        assert fresh.digest == engine.digest

    @given(st.permutations(range(len(PREDICATES))))
    def test_order_independent(self, order):
        pairs = [(f"s{i}", p) for i, p in enumerate(PREDICATES)]
        assert union_digest(pairs[i] for i in order) == union_digest(pairs)

    def test_sets_that_differ_digest_differently(self):
        pairs = [(f"s{i}", p) for i, p in enumerate(PREDICATES)]
        digests = {
            union_digest(pairs),
            union_digest(pairs[1:]),
            union_digest(pairs + [("stale", Eq("g", 0))]),
            union_digest([("s0", Eq("g", 1))] + pairs[1:]),
            union_digest([]),
        }
        assert len(digests) == 5

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
            "print(union_digest([('shb1/s1', p)]), '|', repr(p))\n"
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

    def test_one_sync_and_no_tagged_add_per_uplink_per_interval(self):
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
                if isinstance(msg, M.SubscriptionAdd) and msg.epoch is not None:
                    counter["tagged add"] += 1
                else:
                    counter[type(msg).__name__] += 1
                send(msg)

            uplink.send = counting
        sim.run_until(sim.now + self.INTERVALS * SUBSCRIPTION_REFRESH_MS)
        assert len(sent) == 6
        for name, counter in sent.items():
            assert counter["SubscriptionSync"] == self.INTERVALS, name
            assert counter["tagged add"] == 0, name
        for parent in [overlay.phb, *overlay.intermediates]:
            assert all(parent.child_filter_ready.values())


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
