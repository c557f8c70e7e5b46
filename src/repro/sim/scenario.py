"""The scaffold every experiment is built on and judged by.

A scenario — each paper figure and the chaos and migration soaks in
:mod:`.experiments`, the crash-point scenarios in :mod:`.crashpoints` —
supplies a topology, a publisher feed and its faults.  :class:`Scenario`
supplies the rest: recording durable subscribers with a home SHB (its
own, or a fleet it adopts), the ground-truth recorder over every PHB
log, the reconnect supervisor, the scripted join →
migrate-mid-catchup → drain handoff, the convergence loop and the
verdict (every oracle family of :mod:`.oracles`).

A paper figure runs build → ``adopt`` its fleet (which arms the
judge) → sample its series → stop its feed → ``settle``.  Judging
changes no modelled result: ``adopt`` only sets ``record_events``, and
``start`` only schedules read-only callbacks on the scheduler.

It is a toolbox, not a fixed sequence: callbacks scheduled for the same
instant fire in registration order and the crash-point census counts
firings, so each scenario registers ``start``, ``probe``,
``script_handoff`` and ``supervise`` itself, in the order it needs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..broker.base import Broker
from ..broker.shb import SubscriberHostingBroker
from ..client.publisher import ReliablePublisher
from ..client.subscriber import DurableSubscriber
from ..net.node import Node
from ..net.simtime import Scheduler
from ..workloads.generator import PaperWorkloadSpec
from .failures import PerSubscriberWatchdog
from .oracles import KnowledgeMonotonicityProbe, check_all
from .supervisor import DrainHandle, Supervisor

__all__ = ["Scenario", "make_subscribers"]

#: Simulated time a paper figure's drain (:meth:`Scenario.settle`) may
#: take to converge.
SETTLE_LIMIT_MS = 600_000.0


def make_subscribers(
    scheduler: Scheduler,
    shbs: Sequence[SubscriberHostingBroker],
    spec: PaperWorkloadSpec,
    subs_per_shb: int,
    subs_per_machine: int = 8,
    connect: bool = True,
) -> List[DurableSubscriber]:
    """Create (and connect) ``subs_per_shb`` paper-workload durable
    subscribers on every SHB, spread over sim client machines.

    The failure experiment runs 8 subscribers per client machine; the
    same layout is used everywhere so client CPU is modelled uniformly.
    """
    subscribers: List[DurableSubscriber] = []
    for shb in shbs:
        for i in range(subs_per_shb):
            if i % subs_per_machine == 0:
                machine = Node(scheduler, f"client-{shb.name}-m{i // subs_per_machine + 1}")
            sub = DurableSubscriber(
                scheduler, f"{shb.name}-s{i + 1}", machine, spec.subscriber_predicate(i)
            )
            if connect:
                sub.connect(shb)
            subscribers.append(sub)
    return subscribers


class Scenario:
    def __init__(self, sim: Scheduler, overlay: object) -> None:
        self.sim = sim
        self.overlay = overlay            # an Overlay or a Federation
        self.subscribers: List[DurableSubscriber] = []
        #: sub_id -> the SHB ``supervise`` reconnects it to.
        self.home: Dict[str, SubscriberHostingBroker] = {}
        #: Scripted disconnects ``supervise`` must not undo.
        self.napping: Set[str] = set()
        #: Reliable publishers whose windows must drain before the run
        #: counts as settled.
        self.publishers: List[ReliablePublisher] = []
        #: event_id -> (pubend, tick, attributes) of all durably logged.
        self.truth: Dict[str, Tuple[str, int, Dict[str, object]]] = {}
        #: PHB event log -> the highest tick ``record_truth`` has read.
        self._truth_cursor: Dict[object, int] = {}
        #: (predicate, first CT) -> (len(truth) when computed,
        #: ``expected`` of it).
        self._expected: Dict[object, Tuple[int, Dict[str, int]]] = {}
        self.probes: List[KnowledgeMonotonicityProbe] = []
        #: Set by ``start(watch_ms=...)``.
        self.watchdog: Optional[PerSubscriberWatchdog] = None
        #: Set by ``script_handoff``.
        self.supervisor: Optional[Supervisor] = None
        self.drain: Optional[DrainHandle] = None
        #: Set by ``finish``.
        self.converged_at: Optional[float] = None
        self.stalled: List[str] = []

    # ------------------------------------------------------------------
    # Fleet, ground truth, probes
    # ------------------------------------------------------------------
    def subscriber(
        self, sub_id: str, machine: str, predicate: object,
        shb: SubscriberHostingBroker,
    ) -> DurableSubscriber:
        """A connected, recording durable subscriber on its own machine."""
        sub = DurableSubscriber(
            self.sim, sub_id, Node(self.sim, machine), predicate,
            record_events=True, connect_retry_ms=400.0,
        )
        sub.connect(shb)
        self.subscribers.append(sub)
        self.home[sub_id] = shb
        return sub

    def adopt(
        self,
        subscribers: Sequence[DurableSubscriber],
        home_of: Callable[[int], SubscriberHostingBroker],
    ) -> None:
        """Judge a fleet built elsewhere (``make_subscribers``, a JMS
        fleet): subscriber ``i`` records its deliveries and is homed on
        ``home_of(i)`` — nothing else about it changes — and the judge
        is armed (:meth:`start`)."""
        for i, sub in enumerate(subscribers):
            sub.record_events = True
            self.subscribers.append(sub)
            self.home[sub.sub_id] = home_of(i)
        self.start()

    def start(self, truth_ms: float = 100.0, watch_ms: Optional[float] = None) -> None:
        """Arm the judge: the truth recorder, with ``watch_ms`` a
        per-subscriber progress watchdog (an aggregate probe hides one
        wedged subscriber behind everyone else's advance), and a
        knowledge probe per SHB — read-only callbacks on the scheduler."""
        self.sim.every(truth_ms, self.record_truth)
        if watch_ms is not None:
            self.watchdog = PerSubscriberWatchdog(
                self.sim,
                {s.sub_id: (lambda s=s: float(s.stats.events)) for s in self.subscribers},
                interval_ms=watch_ms,
            )
        for shb in self.overlay.shbs:
            self.probe(shb)

    def record_truth(self) -> None:
        """Record what every PHB durably logged since the last call.

        The durable log is the oracle for completeness, but release
        chops it from the front, so scenarios sample it well inside one
        250 ms ack interval (a tick is released only after every
        subscriber acked it).  Durable events enter a log in tick order,
        so each log is read from a cursor; the order is asserted.
        """
        for tree in self.overlay.trees:
            for pubend in tree.phb.pubends.values():
                log = pubend.log
                cursor = self._truth_cursor.get(log, -1)
                for ev in log.read_range(cursor + 1, 2 ** 60):
                    assert ev.timestamp > cursor, (pubend.name, ev.timestamp, cursor)
                    cursor = ev.timestamp
                    self.truth.setdefault(ev.event_id, (pubend.name, ev.timestamp, ev.attributes))
                assert log.max_timestamp in (None, cursor), (
                    f"{pubend.name}: durable tick {log.max_timestamp} "
                    f"logged out of order (read up to {cursor})"
                )
                self._truth_cursor[log] = cursor

    def expected(self, sub: DurableSubscriber) -> Dict[str, int]:
        """event_id -> tick of every durably logged event matching sub
        above its first accepted CT (all of them until it has one).

        Shared by every subscriber with the same predicate and first CT
        until truth grows; callers must not mutate it."""
        size = len(self.truth)
        start = sub.first_ct or {}
        key = (sub.predicate, tuple(sorted(start.items())))
        memo = self._expected.get(key)
        if memo is None or memo[0] != size:
            memo = size, {
                eid: tick
                for eid, (pubend, tick, attrs) in self.truth.items()
                if tick > start.get(pubend, 0) and sub.predicate.matches(attrs)
            }
            self._expected[key] = memo
        return memo[1]

    def behind(self) -> Set[str]:
        """Subscribers still missing durable matches.  Judged against
        each one's *own* expected set — predicates differ, so raw event
        counts are not comparable across subscribers."""
        return {
            sub.sub_id for sub in self.subscribers
            if set(self.expected(sub)) - sub.received_event_id_set
        }

    def probe(self, shb: SubscriberHostingBroker) -> None:
        """Sample ``shb``'s committed latestDelivered for oracle family 5."""
        self.probes.append(
            KnowledgeMonotonicityProbe(self.sim, shb, shb.pubend_names)
        )

    def broker_of(self, name: Optional[str]) -> Optional[Broker]:
        for broker in [*self.overlay.all_brokers(), *self.overlay.retired]:
            if broker.name == name:
                return broker
        return None

    # ------------------------------------------------------------------
    # Reconnects and scripted churn
    # ------------------------------------------------------------------
    def supervise(self) -> None:
        """Reconnect every dropped subscriber whose home SHB is up.

        A subscriber refused with a redirect (migrated away, or its
        home drained) is re-homed first; the connect-retry knob covers
        the race where the SHB dies in between.
        """
        for sub in self.subscribers:
            if sub.connected or sub.node.is_down or sub.sub_id in self.napping:
                continue
            if sub.last_refusal is not None:
                _reason, redirect = sub.last_refusal
                sub.last_refusal = None
                for shb in self.overlay.shbs:
                    if shb.name == redirect:
                        self.home[sub.sub_id] = shb
                        break
            shb = self.home[sub.sub_id]
            if not shb.node.is_down:
                sub.connect(shb)

    def bounce(self, sub: DurableSubscriber, down_at_ms: float, up_at_ms: float) -> None:
        """One scripted disconnect/reconnect, so catchup reads and
        release chops fall inside the scripted window."""
        self.sim.at(down_at_ms, sub.disconnect)
        self.sim.at(up_at_ms, lambda: (
            sub.connect(self.home[sub.sub_id]) if not sub.connected else None
        ))

    def script_handoff(
        self,
        victim: DurableSubscriber,
        source: SubscriberHostingBroker,
        joiner_name: str,
        nap_ms: float,
        join_ms: float,
        wake_ms: float,
        migrate_ms: float,
        drain_ms: float,
        on_join: Optional[Callable[[SubscriberHostingBroker], None]] = None,
        on_phase: Optional[Callable[[str], None]] = None,
        **joiner_kwargs: object,
    ) -> None:
        """Join → migrate-mid-catchup → drain, on a single-tree overlay.

        ``victim`` (hosted by ``source``) naps so a backlog accumulates;
        a fresh SHB joins; the victim wakes into catchup and is migrated
        to the newcomer while still catching up; ``source`` is then
        drained into the newcomer and detached.  ``on_join(joiner)``
        and ``on_phase("during-migration" | "during-drain")`` let a soak
        aim fault phases at the handoff windows.
        """
        self.supervisor = supervisor = Supervisor(self.overlay)
        joined: List[SubscriberHostingBroker] = []

        def nap() -> None:
            self.napping.add(victim.sub_id)
            victim.disconnect()

        def join() -> None:
            joined.append(supervisor.join_shb(joiner_name, **joiner_kwargs))
            self.probe(joined[0])
            if on_join is not None:
                on_join(joined[0])

        def wake() -> None:
            self.napping.discard(victim.sub_id)
            shb = self.home[victim.sub_id]
            if not (victim.connected or victim.node.is_down or shb.node.is_down):
                victim.connect(shb)

        def migrate() -> None:
            if on_phase is not None:
                on_phase("during-migration")
            supervisor.migrate(victim.sub_id, source, joined[0])

        def drain() -> None:
            if on_phase is not None:
                on_phase("during-drain")
            self.drain = supervisor.drain_shb(source, joined[0])

        self.sim.at(nap_ms, nap)
        self.sim.at(join_ms, join)
        self.sim.at(wake_ms, wake)
        self.sim.at(migrate_ms, migrate)
        self.sim.at(drain_ms, drain)

    # ------------------------------------------------------------------
    # Convergence and verdict
    # ------------------------------------------------------------------
    def _handoff_violations(self) -> List[str]:
        if self.supervisor is None:
            return []
        violations: List[str] = []
        if self.drain is None or not self.drain.detached:
            violations.append("drain never detached the source broker")
        undone = [m.handoff_id for m in self.supervisor.migrations if not m.done]
        if undone:
            violations.append(f"unfinished migrations: {undone}")
        return violations

    def settled(self) -> bool:
        """Publishers drained, any scripted handoff finished, everyone
        connected and holding every durable match."""
        return (
            not any(p.unacknowledged for p in self.publishers)
            and not self._handoff_violations()
            and all(s.connected for s in self.subscribers)
            and not self.behind()
        )

    def converge(
        self,
        deadline_ms: float,
        step_ms: float,
        advance: Optional[Callable[[float], None]] = None,
    ) -> Optional[float]:
        """Run until ``settled``; the time it held, or None at the deadline."""
        advance = advance or self.sim.run_until
        while True:
            if self.settled():
                return self.sim.now
            if self.sim.now >= deadline_ms:
                return None
            advance(min(self.sim.now + step_ms, deadline_ms))

    def verdict(self) -> List[str]:
        """Every oracle family, plus "the scripted handoff finished"."""
        # Events durably logged (and delivered) in the last instants may
        # postdate the last sampling tick.
        self.record_truth()
        return check_all(
            self.overlay, self.subscribers, self.expected, self.probes
        ) + self._handoff_violations()

    def finish(
        self,
        deadline_ms: float,
        stall_window: Optional[Tuple[float, float]] = None,
    ) -> List[str]:
        """Converge (until ``deadline_ms`` at most), then judge: the
        verdict, convergence, and — with a watchdog — per-subscriber
        progress inside ``stall_window``.  Empty means every check held."""
        grace_ms = deadline_ms - self.sim.now
        self.converged_at = self.converge(deadline_ms, 500.0)
        if self.watchdog is not None:
            self.watchdog.stop()
        violations = self.verdict()
        if self.converged_at is None:
            violations.append(f"no convergence within {grace_ms:.0f} ms grace after the run")
        if self.watchdog is not None and stall_window is not None:
            t0, t1 = stall_window
            self.stalled = self.watchdog.stalled_subscribers(t0, t1, behind=self.behind())
            for name in self.stalled:
                violations.append(
                    f"subscriber {name}: no forward progress in"
                    f" [{t0:.0f}, {t1:.0f}] ms and still missing events"
                )
        return violations

    def settle(self) -> List[str]:
        """A paper figure's judged tail, once its numbers are read and
        its feed has stopped: everyone reconnects home, the run
        converges, then :meth:`finish`."""
        self.supervise()
        return self.finish(self.sim.now + SETTLE_LIMIT_MS)
