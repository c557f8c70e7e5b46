"""A new subscription is owed every matching event above the CT it is
handed (PAPER.md, feature 5), however the uplinks batch.

The SHB answers a first connect with a CT at its constream's cursor,
which lags the clock: ticks above it may already be classified as
silence under a union without the new subscription.  Every registration
therefore waits for coverage confirmation, and the ticks between the CT
and the confirmation are refiltered.  Before that, a subscriber
connecting at 500 ms lost 2 events at (W=25 ms, R=100 ev/s), 3 at
(50, 100) and 17 at (25, 1 000), with no gap to show for it.

Each run is judged by ``Scenario.verdict()``: the judge owes the
subscriber everything above its first accepted CT.
"""

import random

import pytest

from repro import In, PeriodicPublisher, Scheduler, build_star
from repro.sim.scenario import Scenario


def run_window(window_ms, rate, connect_ms=500.0, groups=(0, 2)):
    """One subscriber connecting mid-run to a 2-SHB star; the verdict."""
    sim = Scheduler()
    overlay = build_star(sim, ["P1"], n_shbs=2, batch_window_ms=window_ms)
    pub = PeriodicPublisher(
        sim, overlay.phb, "P1", rate, attribute_fn=lambda i: {"group": i % 4}
    )
    pub.start()
    scn = Scenario(sim, overlay)
    scn.start(truth_ms=20.0)
    sim.at(connect_ms, lambda: scn.subscriber(
        "new", "m-new", In("group", list(groups)), overlay.shbs[0]
    ))
    sim.run_until(connect_ms + 1_000.0)
    pub.stop()
    # Drain first: settle() judges convergence against truth sampled
    # every 20 ms, so it must not start with events still in flight.
    sim.run_until(connect_ms + 1_500.0)
    return scn, scn.settle()


@pytest.mark.parametrize("window_ms,rate", [(25.0, 1_000), (0.0, 100), (50.0, 100)])
def test_new_subscription_loses_nothing_above_its_ct(window_ms, rate):
    scn, violations = run_window(window_ms, rate)
    assert violations == []
    (sub,) = scn.subscribers
    # Connected mid-run: owed only what lies above its CT, and that is
    # not nothing.
    ct = sub.first_ct["P1"]
    assert 400 < ct < 500
    assert len(scn.expected(sub)) > rate // 4
    assert sub.stats.events == len(scn.expected(sub))


@pytest.mark.soak
@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("rate", [100, 1_000])
@pytest.mark.parametrize("window_ms", [0.0, 5.0, 25.0, 50.0])
def test_registration_window_sweep(window_ms, rate, seed):
    rng = random.Random(f"registration-window:{seed}")
    connect_ms = rng.uniform(300.0, 700.0)
    groups = sorted(rng.sample(range(4), 2))
    _scn, violations = run_window(window_ms, rate, connect_ms, groups)
    assert violations == []


def test_row_committed_before_its_confirmation_is_confirmed_again():
    """A crash between the commit of a new row and its confirmation:
    the recovered row is still provisional, so the recovery confirms it
    again and a connect refilters what was hidden from it, rather than
    trusting the silence its SHB logged in between."""
    sim = Scheduler()
    overlay = build_star(sim, ["P1"], n_shbs=2, batch_window_ms=25.0)
    shb = overlay.shbs[0]
    pub = PeriodicPublisher(
        sim, overlay.phb, "P1", 1_000, attribute_fn=lambda i: {"group": i % 4}
    )
    pub.start()
    scn = Scenario(sim, overlay)
    scn.start(truth_ms=20.0)
    # The SHB hosts group 1 only, so the PHB hides groups 0 and 2 from
    # it until the new subscription's filter arrives.
    scn.subscriber("old", "m-old", In("group", [1]), shb)

    def register() -> None:
        shb._on_subscription_synced = lambda ack: None  # confirmations lost
        shb.register_durable("new", In("group", [0, 2]))
        shb._commit_tables()

    def crash() -> None:
        assert not shb.registry.get("new").confirmed
        del shb._on_subscription_synced
        shb.fail_for(50.0)

    sim.at(500.0, register)
    # By now the hidden ticks are logged as silence and committed.
    sim.at(900.0, crash)
    sim.at(1_000.0, lambda: scn.subscriber("new", "m-new", In("group", [0, 2]), shb))
    sim.run_until(2_000.0)
    pub.stop()
    sim.run_until(2_500.0)
    assert scn.settle() == []
    new = scn.subscribers[-1]
    assert shb.registry.get("new").confirmed
    assert new.first_ct["P1"] < 500
    assert new.stats.events == len(scn.expected(new)) > 0
