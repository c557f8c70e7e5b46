"""In-order knowledge intake: what it may share, and what it may not do.

Head knowledge — an update wholly above the receiver's cursor — is
relayed as the instance received (``split_update`` returns it, a
wildcard ``_filter_for_child`` ships it), so one ``KnowledgeUpdate``
object is held at once by a parent's link, every sibling's forward
job, the relay caches' events and the SHB constreams.  The first test
pins the invariant that makes this safe; the second pins, as counts,
the work the in-order path must not do.
"""

from repro.broker.intermediate import IntermediateBroker
from repro.broker.shb import SubscriberHostingBroker
from repro.broker.topology import build_tree
from repro.client.publisher import PeriodicPublisher
from repro.core import messages as M
from repro.core.tickmap import TickMap
from repro.matching.predicates import Everything, In
from repro.net.link import LinkEnd
from repro.net.simtime import Scheduler
from repro.sim.crashpoints import _populate
from repro.sim.scenario import Scenario
from repro.util.intervals import IntervalSet


def _fingerprint(update):
    return (
        update.pubend,
        tuple(e.event_id for e in update.d_events),
        tuple(update.s_ranges),
        tuple(update.l_ranges),
    )


def test_nothing_on_the_receive_path_mutates_a_knowledge_update(monkeypatch):
    """Fingerprint every update as it is sent; re-check them all at the end.

    PHB → ib1 → {ib2, ib3} → one SHB each, with a wildcard subscriber
    under ib2 (the received instance travels every hop unchanged) and
    filtered ones under ib3; a subscriber bounce, an SHB crash and a
    crash of the top relay make nack replies (old and straddling updates)
    flow through the same code.  A receiver that appends to, coalesces
    or clips a payload in place changes a fingerprint taken earlier.
    """
    sent = []  # (the object itself, its fingerprint when sent)
    real_send = LinkEnd.send

    def send(self, msg):
        if isinstance(msg, M.KnowledgeUpdate):
            sent.append((msg, _fingerprint(msg)))
        real_send(self, msg)

    monkeypatch.setattr(LinkEnd, "send", send)

    sim = Scheduler()
    overlay = build_tree(sim, ["P1"], [1, 2, 1])
    wild, filtered = overlay.shbs
    scn = Scenario(sim, overlay)
    # The crash-point scenarios' fleet and 150 events/s reliable feed.
    _populate(
        scn, "ii", [[wild, filtered, filtered]], [[0, 1, 2]],
        [("ii-pub-machine", "ii-pub")], publish_until_ms=2_400.0,
    )
    scn.subscriber("ii-all", "ii-m-all", Everything(), wild)
    scn.bounce(scn.subscribers[0], 700.0, 1_500.0)
    sim.at(1_000.0, lambda: filtered.fail_for(400.0))
    sim.at(1_700.0, lambda: overlay.intermediates[0].fail_for(300.0))  # ib1, the top relay
    sim.every(50.0, scn.record_truth)
    sim.every(331.0, scn.supervise)
    sim.run_until(3_600.0)
    assert scn.converge(deadline_ms=30_000.0, step_ms=500.0) is not None
    assert scn.verdict() == []

    # The run really did what the invariant is about ...
    assert overlay.phb.nacks_served > 0
    assert sum(ib.cache_hits for ib in overlay.intermediates) > 0
    assert sum(len(s.catchup_durations_ms) for s in overlay.shbs) > 0
    assert len({id(u) for u, _fp in sent}) < len(sent), "no instance was shared"
    # ... and no payload changed after it was handed to a link.
    changed = [fp for u, fp in sent if _fingerprint(u) != fp]
    assert changed == []


def test_in_order_intake_does_no_set_algebra(monkeypatch):
    """The deterministic work guard next to the wall-clock claim.

    N in-order single-event updates through one intermediate with four
    filtering children into four SHB constreams: no update is clipped,
    knowledge intake (the intermediate's ``_on_knowledge``, the SHB's
    ``_handle_from_parent_batch``) builds no interval set while nobody
    has nacked,
    and ``advance`` reads each D tick out of the map exactly once.
    """
    n_events = 120
    sim = Scheduler()
    overlay = build_tree(sim, ["P1"], [1, 4])
    (mid,) = overlay.intermediates
    for k, shb in enumerate(overlay.shbs):
        shb.register_durable(f"s{k}", In("group", [k, (k + 1) % 4]))
    sim.run_until(3_000.0)  # subscription unions reach the intermediate
    assert all(mid.child_filter_ready[c] for c in mid.child_names)
    assert not any(mid.child_engines[c].accepts_all() for c in mid.child_names)

    clips = []
    real_clip = M.clip_update
    monkeypatch.setattr(
        M, "clip_update", lambda *a: clips.append(a) or real_clip(*a)
    )

    # Interval sets built while a broker's knowledge intake is on the stack.
    depth = 0
    sets_built = []
    hooked = set()
    real_init = IntervalSet.__init__

    def counting_init(self, intervals=()):
        if depth:
            sets_built.append(self)
        real_init(self, intervals)

    monkeypatch.setattr(IntervalSet, "__init__", counting_init)
    for cls, name in (
        (IntermediateBroker, "_on_knowledge"),
        (SubscriberHostingBroker, "_handle_from_parent_batch"),
    ):
        def intake(self, arg, _real=getattr(cls, name), _name=name):
            nonlocal depth
            hooked.add(_name)
            depth += 1
            try:
                _real(self, arg)
            finally:
                depth -= 1
        monkeypatch.setattr(cls, name, intake)

    # Reads and removals of D ticks in each constream's map.
    class CountingDict(dict):
        touched = 0

        def __getitem__(self, key):
            CountingDict.touched += 1
            return dict.__getitem__(self, key)

        def __delitem__(self, key):
            CountingDict.touched += 1
            dict.__delitem__(self, key)

        def pop(self, *args):
            CountingDict.touched += 1
            return dict.pop(self, *args)

    for shb in overlay.shbs:
        shb.constreams["P1"].knowledge.tickmap._d = CountingDict()
    walks = []
    real_runs_between = TickMap.runs_between
    monkeypatch.setattr(
        TickMap, "runs_between",
        lambda self, a, b: walks.append((a, b)) or real_runs_between(self, a, b),
    )

    pub = PeriodicPublisher(sim, overlay.phb, "P1", 100.0, lambda i: {"group": i % 4})
    pub.start(first_delay_ms=0.0)
    sim.at(sim.now + n_events * 10.0 - 5.0, pub.stop)
    sim.run_until(sim.now + n_events * 10.0 + 2_000.0)

    assert pub.published == n_events
    d_ticks_consumed = sum(
        shb.constreams["P1"].engine.events_processed for shb in overlay.shbs
    )
    assert d_ticks_consumed == 2 * n_events  # each group has two takers
    assert all(shb.constreams["P1"].knowledge.tickmap.d_count == 0 for shb in overlay.shbs)
    assert sum(r.consolidator.pending_requesters for r in mid._relays.values()) == 0

    assert clips == []
    assert hooked == {"_on_knowledge", "_handle_from_parent_batch"}
    assert sets_built == []
    assert walks == []
    assert CountingDict.touched == d_ticks_consumed
