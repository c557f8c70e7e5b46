"""Dynamic-topology supervisor: broker join/leave and subscriber migration.

The paper's deployment story (Section 6) assumes the broker overlay is
fixed for the life of the system; real deployments grow, shrink and
rebalance.  This module adds the *control plane* for three supervised
mutations of a running overlay, each built so that no durable
subscriber ever loses exactly-once delivery:

* **join** — admit a new SHB (or intermediate) under a parent.  The
  newcomer is fast-forwarded to the pubends' current dissemination
  points before wiring (it hosts nothing, so it owes no history), then
  reaches steady state through the ordinary epoch-tagged subscription
  sync and release reporting.

* **migration** — hand a durable subscription from one SHB to another
  with a three-phase, epoch-verified flow (request → install → commit;
  see ``SubscriberHostingBroker._on_migrate_*``).  The supervisor is a
  plain client of both SHBs and drives each phase with periodic
  retransmission: every handler is idempotent and epoch-guarded, so
  duplication, reordering and retries — including those injected by the
  lossy-link fault model — are harmless.  The destination owns the
  subscription durably *before* the source withdraws it, so a crash at
  any point leaves at least one SHB that can serve the subscriber.

* **drain / leave** — quiesce an SHB (stop admitting subscriptions,
  migrate every hosted one away, then detach) or an intermediate
  (reparent its children to the grandparent, then detach).  Detaching
  releases the departed broker's filter-union and release-aggregation
  state upstream so the tree's release protocol keeps advancing.

Placement is pluggable: :func:`least_loaded_policy` (the default used
by :meth:`Supervisor.rebalance`) evens out subscriber counts, which is
what the Zipf-skew experiment exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..adapters.sim import SimChannel, dial
from ..broker.base import Broker
from ..broker.intermediate import IntermediateBroker
from ..broker.shb import SubscriberHostingBroker
from ..broker.topology import (
    Overlay,
    attach_intermediate,
    attach_shb,
    detach_broker,
)
from ..core import messages as M
from ..net.node import Node
from ..net.simtime import PeriodicHandle
from ..util.errors import ConfigurationError

ShbRef = Union[str, SubscriberHostingBroker]

#: How often a handoff phase is re-sent until its acknowledgment lands.
RETRY_MS = 150.0


@dataclass
class MigrationHandle:
    """Observable state of one supervised handoff."""

    handoff_id: str
    sub_id: str
    source: str
    dest: str
    epoch: int
    #: request → install → commit → done (or done with found=False when
    #: the source no longer hosts the subscription).
    phase: str = "request"
    done: bool = False
    found: bool = True
    offer: Optional[M.MigrateOffer] = None
    on_done: Optional[Callable[["MigrationHandle"], None]] = None
    _timer: Optional[PeriodicHandle] = None


@dataclass
class DrainHandle:
    """Observable state of one supervised SHB drain."""

    broker: str
    dest: str
    done: bool = False
    detached: bool = False
    migrations: List[MigrationHandle] = field(default_factory=list)
    on_done: Optional[Callable[["DrainHandle"], None]] = None


def least_loaded_policy(
    placement: Dict[str, List[str]],
) -> List[Tuple[str, str, str]]:
    """Default placement policy: even out subscriber counts.

    Given the current placement (SHB name → hosted sub ids), plan
    ``(sub_id, source, dest)`` moves from the most- to the least-loaded
    SHB until no pair differs by more than one — the classic fix for a
    Zipf-skewed arrival pattern that piled subscribers onto one broker.
    """
    loads = {name: list(subs) for name, subs in placement.items()}
    moves: List[Tuple[str, str, str]] = []
    while True:
        hottest = max(loads, key=lambda n: (len(loads[n]), n))
        coldest = min(loads, key=lambda n: (len(loads[n]), n))
        if len(loads[hottest]) - len(loads[coldest]) <= 1:
            return moves
        sub_id = loads[hottest].pop()
        loads[coldest].append(sub_id)
        moves.append((sub_id, hottest, coldest))


class Supervisor:
    """Orchestrates join, drain and migration on a running overlay.

    Purely additive: an overlay that never instantiates a Supervisor
    schedules no extra events and draws no randomness, so baseline
    determinism digests are untouched.
    """

    def __init__(
        self,
        overlay: Overlay,
        detach_grace_ms: float = 2_500.0,
    ) -> None:
        self.overlay = overlay
        self.scheduler = overlay.scheduler
        self.node = Node(self.scheduler, "supervisor")
        #: How long a drained SHB keeps reporting after its last row
        #: drops before it is detached.  Must cover the handoff release
        #: pins (``SubscriberHostingBroker.migration_pin_ms``): detach
        #: removes the broker from its parent's release aggregation, so
        #: detaching while a pin is still the binding floor would reopen
        #: the window the pin closes.
        self.detach_grace_ms = detach_grace_ms
        self._channels: Dict[str, SimChannel] = {}
        self._epoch_counter = 0
        self._handoff_seq = 0
        self.migrations: List[MigrationHandle] = []
        self._active: Dict[str, MigrationHandle] = {}

    # ------------------------------------------------------------------
    # Join / leave
    # ------------------------------------------------------------------
    def join_shb(
        self,
        name: str,
        parent: Optional[Broker] = None,
        **kwargs: object,
    ) -> SubscriberHostingBroker:
        """Admit a new SHB into the running overlay (see attach_shb)."""
        return attach_shb(self.overlay, name, parent=parent, **kwargs)

    def join_intermediate(
        self, name: str, parent: Optional[Broker] = None, **kwargs: object
    ) -> IntermediateBroker:
        return attach_intermediate(self.overlay, name, parent=parent, **kwargs)

    def drain_shb(
        self,
        shb: ShbRef,
        dest: ShbRef,
        on_done: Optional[Callable[[DrainHandle], None]] = None,
    ) -> DrainHandle:
        """Quiesce an SHB: migrate every subscription to ``dest``, detach.

        The SHB stops admitting new subscriptions immediately; each
        hosted subscription is handed to ``dest`` through the ordinary
        migration flow, and once the registry is durably empty the
        broker is detached from the tree (moving to ``overlay.retired``
        for post-hoc auditing).
        """
        source = self._resolve(shb)
        target = self._resolve(dest)
        if source is target:
            raise ConfigurationError("cannot drain an SHB into itself")
        source.begin_drain()
        handle = DrainHandle(source.name, target.name, on_done=on_done)
        self._drain_step(handle, source, target)
        return handle

    def _drain_step(
        self,
        handle: DrainHandle,
        source: SubscriberHostingBroker,
        target: SubscriberHostingBroker,
    ) -> None:
        subs = [sub.sub_id for sub in source.registry.all()]
        if not subs:

            def _detach() -> None:
                detach_broker(self.overlay, source)
                handle.detached = True
                handle.done = True
                if handle.on_done is not None:
                    handle.on_done(handle)

            if self.detach_grace_ms > 0:
                self.scheduler.at(self.scheduler.now + self.detach_grace_ms, _detach)
            else:
                _detach()
            return
        pending = {"n": len(subs)}

        def migrated(_m: MigrationHandle) -> None:
            pending["n"] -= 1
            if pending["n"] == 0:
                # Go around again: a subscription may have reconnected
                # (and thus stayed) or a migration may have found
                # nothing; the drain converges because the draining SHB
                # refuses subscriptions it does not already host.
                self._drain_step(handle, source, target)

        for sub_id in subs:
            handle.migrations.append(
                self.migrate(sub_id, source, target, on_done=migrated)
            )

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def migrate(
        self,
        sub_id: str,
        source: ShbRef,
        dest: ShbRef,
        on_done: Optional[Callable[[MigrationHandle], None]] = None,
    ) -> MigrationHandle:
        """Hand ``sub_id`` from ``source`` to ``dest`` (asynchronous).

        Returns immediately; the handoff advances as the scheduler
        runs.  Every phase is retried every ``RETRY_MS`` until its
        acknowledgment arrives, riding out lossy links and crashes of
        either SHB (the handlers are idempotent and epoch-guarded).
        """
        src = self._resolve(source)
        dst = self._resolve(dest)
        if src is dst:
            raise ConfigurationError("source and destination SHB are the same")
        self._handoff_seq += 1
        handle = MigrationHandle(
            handoff_id=f"handoff-{self._handoff_seq}",
            sub_id=sub_id,
            source=src.name,
            dest=dst.name,
            epoch=self._next_epoch(),
            on_done=on_done,
        )
        self.migrations.append(handle)
        self._active[handle.handoff_id] = handle
        handle._timer = self.scheduler.every(
            RETRY_MS, lambda: self._drive(handle)
        )
        self._drive(handle)
        return handle

    def _next_epoch(self) -> int:
        # Strictly increasing across all handoffs (clamped to sim time
        # like every other epoch in the system), so a subscription that
        # migrates A→B→A always presents a fresh epoch to A.
        self._epoch_counter = max(self._epoch_counter + 1, int(self.scheduler.now))
        return self._epoch_counter

    def _drive(self, handle: MigrationHandle) -> None:
        """(Re)send the current phase's message — the retry engine."""
        if handle.done:
            self._finish(handle)
            return
        if handle.phase == "request":
            self._send_to(
                handle.source,
                M.MigrateRequest(
                    handle.handoff_id, handle.sub_id, handle.epoch, handle.dest
                ),
            )
        elif handle.phase == "install":
            offer = handle.offer
            assert offer is not None
            self._send_to(
                handle.dest,
                M.MigrateInstall(
                    handle.handoff_id,
                    handle.sub_id,
                    handle.epoch,
                    source=handle.source,
                    predicate=offer.predicate,
                    released_ct=dict(offer.released_ct),
                    jms_ct=dict(offer.jms_ct),
                ),
            )
        elif handle.phase == "commit":
            self._send_to(
                handle.source,
                M.MigrateCommit(
                    handle.handoff_id, handle.sub_id, handle.epoch, handle.dest
                ),
            )

    def _on_message(self, msg: object) -> None:
        handoff_id = getattr(msg, "handoff_id", None)
        if handoff_id is None:
            return
        handle = self._active.get(handoff_id)
        if handle is None:
            return  # late duplicate of a finished handoff
        if isinstance(msg, M.MigrateOffer) and handle.phase == "request":
            if not msg.found:
                handle.found = False
                handle.done = True
                self._finish(handle)
                return
            handle.offer = msg
            handle.phase = "install"
            self._drive(handle)
        elif isinstance(msg, M.MigrateInstalled) and handle.phase == "install":
            handle.phase = "commit"
            self._drive(handle)
        elif isinstance(msg, M.MigrateDone) and handle.phase == "commit":
            handle.done = True
            self._finish(handle)

    def _finish(self, handle: MigrationHandle) -> None:
        if handle._timer is not None:
            handle._timer.cancel()
            handle._timer = None
        self._active.pop(handle.handoff_id, None)
        if handle.on_done is not None:
            callback, handle.on_done = handle.on_done, None
            callback(handle)

    # ------------------------------------------------------------------
    # Placement / rebalancing
    # ------------------------------------------------------------------
    def placement(self) -> Dict[str, List[str]]:
        """Current placement: SHB name → hosted subscription ids."""
        return {
            shb.name: sorted(sub.sub_id for sub in shb.registry.all())
            for shb in self.overlay.shbs
            if not shb.draining
        }

    def rebalance(
        self,
        policy: Callable[
            [Dict[str, List[str]]], List[Tuple[str, str, str]]
        ] = least_loaded_policy,
        on_done: Optional[Callable[[MigrationHandle], None]] = None,
    ) -> List[MigrationHandle]:
        """Apply a placement policy's planned moves as migrations."""
        return [
            self.migrate(sub_id, src, dst, on_done=on_done)
            for sub_id, src, dst in policy(self.placement())
        ]

    # ------------------------------------------------------------------
    # Control sessions
    # ------------------------------------------------------------------
    def _resolve(self, ref: ShbRef) -> SubscriberHostingBroker:
        if isinstance(ref, SubscriberHostingBroker):
            return ref
        for shb in [*self.overlay.shbs, *self.overlay.retired]:
            if shb.name == ref and isinstance(shb, SubscriberHostingBroker):
                return shb
        raise ConfigurationError(f"no SHB named {ref}")

    def _send_to(self, shb_name: str, msg: object) -> None:
        """Send on the control session, dialling a new one whenever
        the last one's link is severed (client links are not restored).

        While the node is down the send is simply skipped — the retry
        timer tries again.
        """
        shb = self._resolve(shb_name)
        if shb.node.is_down:
            return
        chan = self._channels.get(shb.name)
        if chan is None or chan.link.down:
            chan, shb_side = dial(self.node, shb, shb.costs.shb_client_recv_cost)
            shb.attach_client(shb_side)
            chan.on_message(self._on_message)
            self._channels[shb.name] = chan
        chan.send(msg)
