"""Work budgets: deterministic work counters on a fixed forest, exactly.

A change that adds a message, a CPU job or a PFS write per event fails
here in seconds on any machine, with the counter named in the failure;
one that removes some updates the budget in its diff.  The forest is
the PHB → 2 intermediates → 8 SHBs shape of the scale runs, plus one
childless spare under the PHB; 100 headless durable subscriptions over
64 groups, so most updates reach some children as D and others as S;
then 200 events, one every 5 ms, after the first subscription refresh.

Link matching is budgeted per broker: every update a PHB or
intermediate filters is classified once for all its child links, not
once per child.  So is subscription intake: each broker's link index
holds one key per distinct signature its links hold, however many links
hold it; each distinct predicate object is decomposed once per process,
however many levels it crosses; and each uplink carries one
``SubscriptionAdd`` per distinct predicate below it, not one per
subscription.
"""

from collections import Counter

from repro.broker.base import SUBSCRIPTION_REFRESH_MS
from repro.broker.topology import build_deep_overlay, place_durable_subscribers
from repro.core import messages as M
from repro.matching import engine
from repro.matching.predicates import In
from repro.net.link import LinkEnd, link_stats
from repro.net.node import Node
from repro.net.simtime import Scheduler

N_EVENTS = 200
#: The first publish: after the first subscription refresh.
T0 = SUBSCRIPTION_REFRESH_MS + 500.0

#: With one add per subscription per level (before distinct-predicate
#: unions) it was {link messages 4 940, jobs 9 623, busy 446.572 ms}:
#: the 36 adds not sent, each one message, one receive job and 0.05 ms
#: of receive CPU.  Before lazy silence, when every S-only update went
#: to its child at once as its own message, it was {link messages
#: 4 904, jobs 9 587, busy 444.772 ms}.  Before every registration
#: waited for coverage confirmation, it was {link messages 3 232, jobs
#: 6 244, busy 311.072 ms}: each SHB now sends one confirming refresh,
#: relayed and acked through its intermediate, and the spare announces
#: its wildcard (a digest, the resend it draws, the full set).
BUDGET = {
    "link messages": 3_275,
    "jobs submitted": 6_303,
    "modelled busy ms": 315.802,
    "pfs writes": 296,
}

#: Warm-up ``SubscriptionAdd``s by sending level: one per distinct
#: (uplink, predicate) pair.  One per subscription per level, it was
#: 100 + 100.
ADDS = {"shb": 94, "intermediate": 70}

#: Updates each filtering broker classified: those with D events and a
#: warm child.  The spare has no children, so it classifies nothing;
#: the PHB filters nothing toward its wildcard.
CLASSIFIED = {"phb": 200, "ib1": 96, "ib2": 124, "spare1.1": 0}

#: Link-index keys per filtering broker: the distinct signatures its
#: child links hold, the spare's wildcard among the PHB's.  Keyed per
#: (link, signature), the index held {phb 70, ib1 42, ib2 52, spare1.1
#: 0}; before the spare announced its wildcard, the PHB held 49.
INDEX_KEYS = {"phb": 50, "ib1": 31, "ib2": 39, "spare1.1": 0}

#: Distinct predicate objects placed, each decomposed once.  Before the
#: shared compiled record, each add at each level decomposed its
#: predicate again: 300 (100 subscriptions at the SHB, its intermediate
#: and the PHB).
DECOMPOSITIONS = 49


def fanout_forest():
    """The fixed forest with its 100 subscriptions placed."""
    sim = Scheduler()
    federation = build_deep_overlay(
        sim, n_trees=1, fanout=(2,), shbs_per_leaf=4, spares_per_level=1
    )
    place_durable_subscribers(
        federation, 100, [In("group", (g,)) for g in range(64)], seed=0
    )
    return sim, federation


def publish_events(sim, tree):
    """One event every 5 ms after the first refresh, then a drain."""
    for i in range(N_EVENTS):
        sim.at(T0 + 5.0 * i, lambda i=i: tree.phb.publish("p1", {"group": i % 64}))
    sim.run_until(T0 + 3_000.0)


def test_fanout_forest_work_budget(monkeypatch):
    jobs = [0]
    submit = Node.submit

    def counting_submit(self, cost_ms, fn):
        jobs[0] += 1
        return submit(self, cost_ms, fn)

    monkeypatch.setattr(Node, "submit", counting_submit)
    adds = Counter()
    link_send = LinkEnd.send

    def counting_send(self, msg):
        if isinstance(msg, M.SubscriptionAdd):
            adds["shb" if self.sender.name.startswith("shb") else "intermediate"] += 1
        return link_send(self, msg)

    monkeypatch.setattr(LinkEnd, "send", counting_send)
    engine._compiled.clear()  # every predicate below starts uncompiled
    decompositions = engine.decompositions
    sim, federation = fanout_forest()
    tree = federation.trees[0]
    filtering = [tree.phb, *tree.intermediates]
    filtered = {broker.name: 0 for broker in filtering}
    for broker in filtering:
        make_filter = broker._link_filter

        def counting_filter(update, broker=broker, make_filter=make_filter):
            # An update needs classifying when it carries D events and
            # some child's union is warm (none below holds a wildcard).
            warm = any(broker.child_filter_ready.values())
            filtered[broker.name] += bool(update.d_events) and warm
            return make_filter(update)

        broker._link_filter = counting_filter

    publish_events(sim, tree)

    nodes = {broker.node for broker in federation.all_brokers()}
    measured = {
        "link messages": link_stats(sim).messages,
        "jobs submitted": jobs[0],
        "modelled busy ms": round(sum(n.busy.total_busy_ms for n in nodes), 6),
        "pfs writes": sum(shb.pfs.writes for shb in tree.shbs),
    }
    assert measured == BUDGET
    assert adds == ADDS
    classified = {broker.name: broker.links.classifications for broker in filtering}
    assert classified == filtered == CLASSIFIED

    predicates = {id(s.predicate) for shb in tree.shbs for s in shb.registry.all()}
    # And the spare's announced wildcard, once.
    assert engine.decompositions - decompositions - 1 == len(predicates) == DECOMPOSITIONS
    held = {
        broker.name: len({
            engine.compiled(predicate).signature
            for union in broker.child_engines.values()
            for predicate in union.predicates()
        })
        for broker in filtering
    }
    index_keys = {broker.name: len(broker.links.matcher) for broker in filtering}
    assert index_keys == held == INDEX_KEYS
