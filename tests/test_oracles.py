"""The oracle families must *report*, not only return ``[]``.

Every harness observes ``sim/oracles.py`` returning no violations; these
tests doctor a clean one-second two-broker run after the fact, one
defect per family (PROTOCOL.md §7.1), and require the defect to be
named.
"""

import pytest

from repro.broker.topology import build_two_broker
from repro.client.publisher import PeriodicPublisher
from repro.matching.predicates import Eq
from repro.net.simtime import Scheduler
from repro.pfs.records import PFSRecord
from repro.sim.scenario import Scenario


@pytest.fixture
def run():
    """A converged run: two subscribers with disjoint predicates."""
    sim = Scheduler()
    overlay = build_two_broker(sim, pubends=["P1"])
    shb = overlay.shbs[0]
    scn = Scenario(sim, overlay)
    for g in (0, 1):
        scn.subscriber(f"s{g}", f"m{g}", Eq("group", g), shb)
    sim.every(50.0, scn.record_truth)
    scn.probe(shb)
    pub = PeriodicPublisher(
        sim, overlay.phb, "P1", rate_per_s=100.0,
        attribute_fn=lambda n: {"group": n % 2},
    )
    pub.start()
    sim.run_until(1_000.0)
    pub.stop()
    assert scn.converge(5_000.0, 100.0) is not None
    assert scn.verdict() == []
    assert all(len(scn.expected(sub)) > 10 for sub in scn.subscribers)
    return scn


def _reported(scn, fragment):
    violations = scn.verdict()
    assert any(fragment in v for v in violations), violations
    return violations


# -- family 1: exactly-once --------------------------------------------------
def test_duplicate_is_reported(run):
    run.subscribers[0].duplicate_events = 1
    _reported(run, "s0: 1 duplicate events")


def test_order_violation_is_reported(run):
    run.subscribers[1].stats.order_violations = 2
    _reported(run, "s1: 2 order violations")


# -- family 2: completeness and gap honesty ----------------------------------
def test_gap_is_reported(run):
    sub = run.subscribers[0]
    sub.stats.gaps = 1
    sub.stats.gap_ranges.append(("P1", 5, 9))
    _reported(run, "s0: 1 gap messages")


def test_missing_durable_match_is_reported(run):
    sub = run.subscribers[0]
    sub.received_event_id_set.pop()
    _reported(run, "s0: 1 durably logged matching events never delivered")


def test_delivered_event_absent_from_the_log_is_reported(run):
    run.subscribers[0].received_event_id_set.add("never-logged")
    _reported(run, "s0: 1 delivered events that are not durably logged matches")


def test_delivered_non_match_that_is_in_the_log_is_reported(run):
    """The false positive the whole-log comparison missed: s0 receives
    an event the PHB did log durably — but for s1's predicate."""
    s0, s1 = run.subscribers
    foreign = next(iter(run.expected(s1)))
    assert foreign in run.truth and foreign not in run.expected(s0)
    s0.received_event_id_set.add(foreign)
    violations = _reported(
        run, "s0: 1 delivered events that are not durably logged matches"
    )
    assert not any(v.startswith("s1:") for v in violations)


# -- family 3: PFS backpointer chains ----------------------------------------
def test_climbing_backpointer_is_reported(run):
    shb = run.overlay.shbs[0]
    state = shb.pfs._pubends["P1"]
    num = sorted(state.last_index)[0]
    # Forge the newest record of the chain: its backpointer names itself.
    index = state.stream.next_index
    newest = state.last_timestamp + 1
    assert state.stream.append(PFSRecord(newest, ((num, index),)).encode()) == index
    state.last_index[num] = index
    _reported(run, f"backpointer at index {index} does not decrease")


# -- family 4: chop-point agreement ------------------------------------------
def test_pfs_chopped_past_committed_latest_delivered_is_reported(run):
    shb = run.overlay.shbs[0]
    committed = shb.constreams["P1"].committed_latest_delivered
    shb.pfs._pubends["P1"].chopped_from_ts = committed + 2
    _reported(run, f"shb1/P1: PFS chopped from {committed + 2} beyond committed")


# -- family 5: monotone knowledge --------------------------------------------
def test_regressing_committed_latest_delivered_is_reported(run):
    shb = run.overlay.shbs[0]
    high = run.probes[0].high_water["P1"]
    assert high > 0
    shb.meta_table._committed["latestDelivered:P1"] = high - 1
    _reported(run, f"committed latestDelivered regressed {high} -> {high - 1}")
