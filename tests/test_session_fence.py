"""The session fence: a delivery queued for one session never goes out
on the next.

The SHB queues each delivery as a job on its executor and sends it when
the job runs.  Past the CPU saturation point the queue outlives a
client's absence: the client leaves, comes back, leaves and comes back
again before the broker has read the first reconnect.  The first
reconnect then starts a catch-up whose deliveries are queued behind the
second reconnect; resolved at send time they would go out on the newest
session, which is catching up the same ticks from its own checkpoint,
and the client would see every one of them twice.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import (
    DurableSubscriber,
    Everything,
    Node,
    PeriodicPublisher,
    Scheduler,
    build_two_broker,
)
from repro.sim.experiments import prepare_scalability


@pytest.mark.parametrize("batch_window_ms", [0.0, 5.0])
def test_deliveries_queued_for_a_replaced_session_are_dropped(batch_window_ms):
    sim = Scheduler()
    overlay = build_two_broker(sim, ["P1"], batch_window_ms=batch_window_ms)
    shb = overlay.shbs[0]
    pub = PeriodicPublisher(sim, overlay.phb, "P1", 1_000, attribute_fn=lambda i: {"group": 0})
    sub = DurableSubscriber(sim, "s1", Node(sim, "client"), Everything(), record_events=True)
    sub.connect(shb)
    pub.start()
    # The SHB's CPU stops for 400 ms; meanwhile the client leaves and
    # returns twice, so both reconnects wait in the same queue.
    sim.at(1_000.0, shb.node.stall, 400.0)
    for t, step in ((1_050.0, sub.disconnect), (1_100.0, lambda: sub.connect(shb)),
                    (1_150.0, sub.disconnect), (1_200.0, lambda: sub.connect(shb))):
        sim.at(t, step)
    sim.run_until(2_000.0)
    pub.stop()
    sim.run_until(5_000.0)
    assert pub.published == 2_000
    assert sub.duplicate_events == 0
    assert sub.stats.order_violations == 0
    assert sub.stats.events == pub.published


@pytest.mark.soak
def test_fig4_churn_past_the_saturation_point_delivers_exactly_once():
    """Paper Fig. 4's churn on one SHB with 80 subscribers, each away
    1 s in every 4 s: the broker runs past its CPU cliff, and every
    client must still hold exactly the events it is owed, in order."""
    setup = prepare_scalability(
        1, 80, churn=True, churn_period_ms=4_000, churn_down_ms=1_000, duration_ms=20_000
    )
    sim, shb, subscribers = setup.sim, setup.overlay.shbs[0], setup.subscribers
    sim.run_until(setup.warmup_ms + setup.duration_ms)
    setup.schedule.stop()
    for pub in setup.publishers:
        pub.stop()
    for sub in subscribers:  # whoever churn left away comes back
        if not sub.connected:
            sub.connect(shb)
    # Publisher ``base`` stamps its event ``seq`` with group
    # ``(seq + base) mod n_groups`` (workloads.make_publishers).
    n_groups = setup.spec.n_groups
    published = Counter(
        (seq + base) % n_groups
        for base, pub in enumerate(setup.publishers)
        for seq in range(pub.published)
    )
    owed = sum(published[g] for sub in subscribers for g in sub.predicate.values)
    deadline = sim.now + 600_000.0
    while sim.now < deadline and (
        shb.active_catchup_count or sum(s.stats.events for s in subscribers) < owed
    ):
        sim.run_until(sim.now + 1_000.0)
    assert sum(s.stats.events for s in subscribers) == owed
    assert sum(s.stats.order_violations for s in subscribers) == 0
