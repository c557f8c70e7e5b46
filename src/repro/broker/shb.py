"""The subscriber hosting broker (Section 4).

The SHB hosts durable subscribers.  Per pubend it runs:

* one **consolidated stream** for all connected non-catchup
  subscribers (knowledge accumulates into it exactly as the paper's
  istream→constream pipeline; the istream's curiosity survives as this
  broker's per-pubend head-knowledge gap check),
* one **catchup stream** per connected subscriber still recovering the
  past, fed by PFS batch reads and flow-controlled nacks,
* the **PFS** write path (from the constream) and read path (from
  catchup streams),
* **release** bookkeeping: ``released(s,p)`` acks from clients,
  ``released(p)`` reports upstream, and PFS chopping.

Persistent state (tables + PFS log volume on the SHB's disk) survives
crashes; everything else is volatile and rebuilt in :meth:`recover`,
after which the constream nacks forward from the durable
``latestDelivered`` and subscribers re-enter through catchup — the
exact scenario of Figures 7 and 8.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core import messages as M
from ..core.catchup import CatchupStream
from ..core.constream import ConsolidatedStream
from ..core.curiosity import CuriosityStream, NackConsolidator
from ..core.subscription import SubscriptionRegistry
from ..core.tickmap import TickMap
from ..matching.engine import MatchingEngine, PredicateSet
from ..matching.predicates import Predicate
from ..pfs.pfs import PersistentFilteringSubsystem
from ..port.clock import Clock, PeriodicTimerHandle
from ..port.executor import Executor
from ..port.transport import Connection
from ..storage.disk import SimDisk
from ..storage.logvolume import LogVolume
from ..storage.table import PersistentTable
from ..util.crashhooks import HOOKS
from ..util.errors import ProtocolError
from ..util.intervals import IntervalSet
from .base import SUBSCRIPTION_REFRESH_MS, Broker

#: Timer periods no caller varies: release reports up the tree, the
#: head gap check, and the head curiosity's base re-nack interval.
RELEASE_REPORT_INTERVAL_MS = 250.0
GAP_CHECK_INTERVAL_MS = 50.0
HEAD_NACK_RETRY_MS = 250.0


class SubscriberHostingBroker(Broker):
    """Hosts durable subscribers; implements Section 4 end to end."""

    def __init__(
        self,
        scheduler: Clock,
        name: str,
        pubend_names: List[str],
        node: Optional[Executor] = None,
        disk: Optional[SimDisk] = None,
        commit_interval_ms: float = 250.0,
        event_cache_span_ms: int = 120_000,
        use_pfs_for_catchup: bool = True,
        batch_window_ms: float = 0.0,
        nack_backoff_factor: float = 1.0,
        nack_backoff_max_ms: Optional[float] = None,
        nack_jitter_ms: float = 0.0,
        nack_retry_budget: Optional[int] = None,
        pfs_volume: Optional[LogVolume] = None,
        journal_volume: Optional[LogVolume] = None,
    ) -> None:
        super().__init__(scheduler, name, node)
        #: Delivery batching (0 = the seed's one-job-per-message path).
        #: When positive, constream fan-out hands each subscriber its
        #: events per pump as one CPU job, and simulated client links
        #: are created with the same batching window (adapters.sim.dial).
        self.batch_window_ms = batch_window_ms
        self.pubend_names = sorted(pubend_names)
        #: One durable device for PFS records and tables (the paper used
        #: DB2 plus the Log Volume on the same machine's SSA disks).
        self.disk = disk if disk is not None else SimDisk(scheduler, f"{name}-store")
        self.commit_interval_ms = commit_interval_ms
        self.event_cache_span_ms = event_cache_span_ms
        #: Ablation switch (benchmarks/bench_ablation_*.py): force
        #: catchup streams to recover by wholesale refiltering instead
        #: of PFS reads.
        self.use_pfs_for_catchup = use_pfs_for_catchup
        #: Re-nack policy for the head curiosity streams.  The defaults
        #: reproduce fixed-interval retries exactly; chaos scenarios
        #: turn on backoff + jitter + a budget (see CuriosityStream).
        self.nack_backoff_factor = nack_backoff_factor
        self.nack_backoff_max_ms = nack_backoff_max_ms
        self.nack_jitter_ms = nack_jitter_ms
        self.nack_retry_budget = nack_retry_budget

        # -- persistent stores (survive crashes) -----------------------
        # File-backed ``journal_volume``/``pfs_volume`` (the rt
        # substrate) make this state survive real process death, not
        # just the simulated kind.  Stream creation order is fixed —
        # journals first, then ``pfs:{p}`` sorted — because a LogVolume
        # numbers streams by creation order and a recovered volume must
        # repeat it.  The tables replay their journals here; the PFS
        # index is rebuilt by the crash hooks a boot fires
        # (adapters/rt/broker_main.py).

        def _journal(key: str) -> Optional[object]:
            if journal_volume is None:
                return None
            return journal_volume.stream(f"journal:{key}")

        self.meta_table = PersistentTable(
            f"{name}.meta", self.disk, journal=_journal("meta")
        )
        self.subs_table = PersistentTable(
            f"{name}.subs", self.disk, journal=_journal("subs")
        )
        self.released_table = PersistentTable(
            f"{name}.released", self.disk, journal=_journal("released")
        )
        self.pfs_volume = pfs_volume if pfs_volume is not None else LogVolume.in_memory()
        self.pfs = PersistentFilteringSubsystem(self.pfs_volume, self.disk)
        if pfs_volume is not None:
            for p in self.pubend_names:
                self.pfs._state(p)
        self._own_storage(self.disk, self.pfs_volume)
        if journal_volume is not None:
            self._own_storage(journal_volume)

        # -- volatile state (rebuilt on recovery) -----------------------
        self.registry = SubscriptionRegistry(self.subs_table, self.released_table)
        self.engine = MatchingEngine()
        self.constreams: Dict[str, ConsolidatedStream] = {}
        self.catchups: Dict[Tuple[str, str], CatchupStream] = {}
        self.head_curiosity: Dict[str, CuriosityStream] = {}
        self.consolidators: Dict[str, NackConsolidator] = {}
        self._sessions: Dict[str, Connection] = {}
        self._session_subs: Dict[Connection, Set[str]] = {}
        self._timers: List[PeriodicTimerHandle] = []
        self.catchup_durations_ms: List[Tuple[float, float]] = []  # (end time, duration)
        self.catchup_ticks_nacked = 0  # recovery request volume (ablations)
        self.events_enqueued = 0
        self.gaps_enqueued = 0
        self.delivery_batches = 0  # batched-fanout CPU jobs issued
        self._client_extensions: Dict[type, object] = {}
        #: True while the registry is known to be missing rows: the
        #: recovered PFS holds records for subscriber nums the committed
        #: registry cannot name (the rows died uncommitted in the
        #: crash).  While suspect, this SHB must not report release —
        #: see _report_release.  Cleared by
        #: _maybe_clear_suspect once re-registrations cover every
        #: PFS-referenced num.
        self.registry_suspect = False
        # -- dynamic topology (supervised join / drain / migration) ----
        #: While True this SHB refuses *new* subscriptions (existing
        #: ones still reconnect until they are migrated away).
        self.draining = False
        #: In-flight outbound handoffs: sub_id -> (handoff epoch, dest).
        #: Connects for these are refused with a redirect so the client
        #: does not race the handoff.  Volatile: a crash aborts the
        #: attempt and the supervisor retries with a higher epoch.
        self._migrating: Dict[str, Tuple[int, str]] = {}
        #: Set by jms.ctstore.CheckpointCommitService when the JMS CT
        #: layer is in use; migration hands its rows off through it.
        self.ct_service: Optional[object] = None
        #: Release epochs (see messages.ReleaseUpdate.epoch): bumped per
        #: pubend when a migration install may lower this SHB's release
        #: floor.  Volatile; the floor keeps post-recovery epochs above
        #: anything reported in a previous life.
        self._release_epoch: Dict[str, int] = {}
        self._release_epoch_floor = 0
        #: Handoff release pins: pubend -> [(expires_at_ms, floor)].
        #: Dropping a migrated-out row raises this SHB's release floor
        #: immediately, but the destination's covering report reaches
        #: the root asynchronously over lossy links; until it lands, the
        #: pubend could release past the handed-off floor and chop
        #: events the subscriber still needs.  Each pin keeps the old
        #: floor in this SHB's reports across that propagation window
        #: (residual-window analysis in PROTOCOL.md §8).
        self._migration_pins: Dict[str, List[Tuple[float, int]]] = {}
        #: How long a handoff release pin outlives the row drop.  Must
        #: exceed the destination's report propagation delay (report
        #: period + per-hop latency + any fault-induced stall).
        self.migration_pin_ms = 2_000.0
        #: Registrations awaiting root coverage confirmation (see
        #: _confirm): sub_id -> (the refresh epoch counter at
        #: enrollment, what to run once confirmed).  Volatile: the
        #: recovery re-enrolls every row stored unconfirmed, and an
        #: install retry brings its continuation back.
        self._cover_pending: Dict[str, Tuple[int, Optional[Callable[[], None]]]] = {}
        #: A confirming refresh is posted for this instant.
        self._cover_round_due = False

        self.node.on_crash(self._on_node_crash)
        self._build_volatile()

    # ------------------------------------------------------------------
    # Volatile state construction (initial boot and post-crash recovery)
    # ------------------------------------------------------------------
    def _build_volatile(self) -> None:
        self.engine = MatchingEngine()
        #: The distinct predicates of the hosted subscriptions, counted
        #: per subscription: the set announced upstream.
        self.distinct = PredicateSet()
        for sub in self.registry.all():
            self.engine.add(sub.sub_id, sub.predicate)
            self.distinct.add(sub.predicate)
            sub.connected = False
        self.constreams = {}
        self.head_curiosity = {}
        self.consolidators = {}
        self.catchups = {}
        self._sessions = {}
        self._session_subs = {}
        #: Connects waiting for their registration's confirmation:
        #: sub_id -> (session channel, request).
        self._parked: Dict[str, Tuple[Connection, M.ConnectRequest]] = {}
        # The SHB's volatile event cache ("caching events at
        # intermediate brokers and SHBs", Section 1): recent knowledge
        # answers most catchup nacks locally, keeping mass catchup off
        # the PHB (the localization Figure 8 demonstrates).
        self.event_cache: Dict[str, TickMap] = {}
        self.cache_served_nacks = 0
        for pubend in self.pubend_names:
            self.event_cache[pubend] = TickMap()
            constream = ConsolidatedStream(
                pubend,
                self.scheduler,
                self.registry,
                self.engine,
                self.pfs,
                self.meta_table,
                deliver=self._deliver,
                deliver_batch=self._deliver_batch if self.batch_window_ms > 0 else None,
            )
            self.constreams[pubend] = constream
            jitter_rng = (
                random.Random(f"{self.name}:{pubend}:nack-jitter")
                if self.nack_jitter_ms > 0.0
                else None
            )
            self.head_curiosity[pubend] = CuriosityStream(
                self.scheduler,
                pubend,
                send_nack=lambda ranges, p=pubend: self.send_up(M.Nack(p, ranges.as_tuples())),
                retry_ms=HEAD_NACK_RETRY_MS,
                backoff_factor=self.nack_backoff_factor,
                backoff_max_ms=self.nack_backoff_max_ms,
                jitter_ms=self.nack_jitter_ms,
                retry_budget=self.nack_retry_budget,
                rng=jitter_rng,
            )
            self.consolidators[pubend] = NackConsolidator(self.scheduler)
        self._timers = [
            self.scheduler.every(self.commit_interval_ms, self._commit_tables),
            self.scheduler.every(RELEASE_REPORT_INTERVAL_MS, self._report_release),
            self.scheduler.every(GAP_CHECK_INTERVAL_MS, self._gap_check),
            # Soft-state refresh: upstream subscription unions are
            # volatile (a recovered parent holds them cold until this
            # refresh re-syncs them).
            self.scheduler.every(SUBSCRIPTION_REFRESH_MS, self._refresh_upstream),
        ]

    def _teardown_volatile(self) -> None:
        for timer in self._timers:
            timer.cancel()
        self._timers = []
        for constream in self.constreams.values():
            constream.close()
        for catchup in list(self.catchups.values()):
            catchup.close()
        for curiosity in self.head_curiosity.values():
            curiosity.close()

    # ------------------------------------------------------------------
    # Client attachment
    # ------------------------------------------------------------------
    def attach_client(self, chan: Connection) -> None:
        """Wire a client session: a port channel from the sim's ``dial``
        or the rt listener.

        The channel object is the session's identity: ``_sessions``
        maps each connected subscription to the channel it connected
        on, and ``_session_subs`` holds the reverse for the channel's
        close.
        """
        chan.on_message(lambda msg: self._on_client_message(chan, msg))
        chan.on_close(lambda: self._client_link_down(chan))

    def register_client_extension(self, msg_type: type, handler) -> None:
        """Install a handler for an extension client message type.

        Used by layers built on top of the core protocol — the JMS
        durable-subscription layer registers its checkpoint-commit
        messages here.
        """
        self._client_extensions[msg_type] = handler

    def _on_client_message(self, chan: Connection, msg: object) -> None:
        if isinstance(msg, M.ConnectRequest):
            self._on_connect(chan, msg)
        elif isinstance(msg, M.AckCheckpoint):
            self._on_ack(msg)
        elif isinstance(msg, M.DisconnectRequest):
            # Only the session's own channel may end it: a request read
            # off a replaced session (two TCP connections are not
            # ordered against each other) must not end the new one.
            if chan in (self._sessions.get(msg.sub_id), self._parked.get(msg.sub_id, (None,))[0]):
                self._disconnect_sub(msg.sub_id)
        elif isinstance(msg, M.MigrateRequest):
            self._on_migrate_request(chan, msg)
        elif isinstance(msg, M.MigrateInstall):
            self._on_migrate_install(chan, msg)
        elif isinstance(msg, M.MigrateCommit):
            self._on_migrate_commit(chan, msg)
        else:
            handler = self._client_extensions.get(type(msg))
            if handler is not None:
                handler(chan, msg)

    def _on_connect(self, chan: Connection, req: M.ConnectRequest) -> None:
        refusal = self._connect_refusal(req.sub_id)
        if refusal is not None:
            chan.send(refusal)
            return
        if req.sub_id not in self.registry:
            if req.predicate is None:
                raise ProtocolError(f"first connect of {req.sub_id} must carry a predicate")
            # A new subscriber, one from another SHB presenting its CT
            # (reconnect-anywhere, the paper's feature 5), or one whose
            # row died uncommitted in a crash of this SHB.
            self._register(req.sub_id, req.predicate, req.checkpoint)
        if req.sub_id in self._cover_pending:
            # Not covered yet: handled again once confirmed.  A later
            # connect (a retried first ConnectRequest, a reconnect)
            # replaces this one.
            self._parked[req.sub_id] = (chan, req)
            return
        # Covered: the CT is the client's checkpoint or, on a first
        # connect, the one its registration acked.  Ticks in (CT,
        # pfs_from] are refiltered, never read as PFS silence.
        sub = self.registry.get(req.sub_id)
        if req.checkpoint is None:
            checkpoint = {p: sub.released_for(p) for p in self.pubend_names}
        else:
            checkpoint = dict(req.checkpoint)
        refilter_until = {
            p: sub.pfs_from[p]
            for p in self.pubend_names
            if checkpoint.get(p, 0) < sub.pfs_from.get(p, 0)
        }
        if sub.connected:
            # Stale session (e.g. client crashed and reconnected before
            # we noticed); the new session replaces it.
            self._disconnect_sub(sub.sub_id)
        sub.connected = True
        self._sessions[sub.sub_id] = chan
        self._session_subs.setdefault(chan, set()).add(sub.sub_id)
        chan.send(M.ConnectAccept(sub.sub_id, checkpoint))
        for pubend in self.pubend_names:
            constream = self.constreams[pubend]
            start = checkpoint.get(pubend, constream.delivered_cursor)
            if start >= constream.delivered_cursor and pubend not in refilter_until:
                # Already at (or ahead of — see ConsolidatedStream.
                # add_non_catchup) the consolidated stream's cursor.
                constream.add_non_catchup(sub.sub_id, floor=start)
            else:
                self._start_catchup(
                    sub.sub_id, pubend, start,
                    refilter_until=refilter_until.get(pubend, 0),
                )

    def _on_ack(self, ack: M.AckCheckpoint) -> None:
        for pubend, t in ack.checkpoint.items():
            if pubend in self.constreams and ack.sub_id in self.registry:
                self.registry.ack(ack.sub_id, pubend, t)

    def _client_link_down(self, chan: Connection) -> None:
        for sub_id in list(self._session_subs.get(chan, ())):
            self._disconnect_sub(sub_id)
        for sub_id, (parked, _req) in list(self._parked.items()):
            if parked is chan:
                del self._parked[sub_id]

    def _disconnect_sub(self, sub_id: str) -> None:
        self._parked.pop(sub_id, None)
        sub = self.registry.get(sub_id)
        if sub is not None:
            sub.connected = False
        chan = self._sessions.pop(sub_id, None)
        if chan is not None:
            subs = self._session_subs[chan]
            subs.discard(sub_id)
            if not subs:
                del self._session_subs[chan]
        for pubend in self.pubend_names:
            self.constreams[pubend].remove_subscriber(sub_id)
            catchup = self.catchups.pop((sub_id, pubend), None)
            if catchup is not None:
                catchup.close()
                self.consolidators[pubend].drop_requester((sub_id, pubend))

    def unsubscribe(self, sub_id: str) -> None:
        """Destroy a durable subscription entirely."""
        self._disconnect_sub(sub_id)
        self._drop(sub_id)

    def register_durable(self, sub_id: str, predicate: object) -> None:
        """Register a durable subscription with no client session.

        A durable subscription exists independently of any connection —
        the paper's defining property.  Once registered, every matched
        event is logged to the PFS on the subscriber's behalf until a
        client eventually connects (``ConnectRequest`` with this
        ``sub_id`` and a CT) and drains it through catchup.

        This is :meth:`_register` without the session plumbing.  The
        scale harness uses it to host 10^5 subscriptions without 10^5
        client objects: a disconnected durable subscription costs its
        registry row, its matching-engine entry and its PFS records.
        """
        if self.draining:
            raise ProtocolError(f"{self.name} is draining; no new subscriptions")
        if sub_id in self.registry:
            raise ProtocolError(f"{sub_id} is already registered at {self.name}")
        self._register(sub_id, predicate)

    def _register(
        self, sub_id: str, predicate: Predicate, checkpoint: Optional[Dict[str, int]] = None
    ) -> None:
        """Create a durable subscription here, announce it upstream and
        enroll it for coverage confirmation (:meth:`_confirm`).

        The row is acked at ``checkpoint``, or for a new subscriber at
        the constream's cursor (§4.1): the CT it is owed from.  Its
        ``pfs_from`` — where PFS records start covering it — is
        provisional until confirmation: the registration cursor, or
        ``pfs.last_timestamp`` if a recovery replay runs ahead of it
        (those records were written under the old life's nums, and a
        re-created subscription may be handed a recycled one).
        """
        cursors = {p: self.constreams[p].delivered_cursor for p in self.pubend_names}
        pfs_from = {p: max(t, self.pfs.last_timestamp(p)) for p, t in cursors.items()}
        sub = self.registry.create(sub_id, predicate, pfs_from=pfs_from)
        for pubend, t in (cursors if checkpoint is None else checkpoint).items():
            if pubend in self.constreams:
                self.registry.ack(sub_id, pubend, t)
        self.engine.add(sub.sub_id, sub.predicate)
        if self.distinct.add(sub.predicate):
            self.send_up(M.SubscriptionAdd(sub.predicate))
        self._maybe_clear_suspect()
        self._confirm(sub_id)

    def _confirm(self, sub_id: str, then: Optional[Callable[[], None]] = None) -> None:
        """Enroll ``sub_id`` for coverage confirmation: the ack of any
        refresh sent from now on confirms it, and one refresh posted
        for this instant carries every registration made in it.
        ``then`` runs once it is confirmed."""
        if not self._cover_round_due:
            self._cover_round_due = True
            self.scheduler.post(
                self.scheduler.now, lambda: self._cover_round_due and self._refresh_upstream()
            )
        self._cover_pending[sub_id] = (self._sub_epoch_counter, then)

    def _refresh_upstream(self) -> None:
        """The refresh toward the parent.  While a registration awaits
        confirmation it carries ``want_ack``, so an ack lost in a crash
        upstream is asked for again at the next interval."""
        self._cover_round_due = False
        self._send_union_up(want_ack=bool(self._cover_pending))

    def _drop(self, sub_id: str) -> None:
        """Destroy a registered subscription here.

        Nothing is sent: if it held the last reference to its
        predicate, our digest changes and the parent's next sync
        narrows its copy.
        """
        sub = self.registry.get(sub_id)
        if sub is not None:
            self.registry.drop(sub_id)
            self.engine.remove(sub_id)
            self.distinct.remove(sub.predicate)

    # ------------------------------------------------------------------
    # Dynamic topology: supervised join / drain / migration
    # ------------------------------------------------------------------
    def fast_forward(self, cursors: Dict[str, int]) -> None:
        """Supervised-join bootstrap: adopt current dissemination cursors.

        A freshly admitted SHB starts its constreams at tick 0; the
        head gap check would immediately nack each pubend's *entire
        history* upstream.  Since a joining SHB hosts no subscriptions
        yet, it owes that history to nobody — the supervisor hands it
        the pubends' current dissemination points and delivery begins
        there.  New subscriptions then get their registration cursors
        (``pfs_from``) at or above these values, exactly as on any
        long-running SHB.
        """
        if len(self.registry):
            raise ProtocolError(
                f"{self.name}: fast_forward while hosting subscriptions"
            )
        for pubend, cursor in cursors.items():
            constream = self.constreams.get(pubend)
            if constream is not None:
                constream.fast_forward(cursor)
        self.meta_table.commit()

    def begin_drain(self) -> None:
        """Supervised drain, step 1: stop admitting new subscriptions."""
        self.draining = True

    def _connect_refusal(self, sub_id: str) -> Optional[M.ConnectRefused]:
        """Why a connect cannot be served here, if it cannot."""
        inflight = self._migrating.get(sub_id)
        if inflight is not None:
            return M.ConnectRefused(sub_id, "migrating", redirect_to=inflight[1])
        if sub_id not in self.registry:
            tomb = self.meta_table.get(f"migrated_out:{sub_id}")
            if tomb is not None:
                return M.ConnectRefused(sub_id, "migrated", redirect_to=tomb[0])
            if self.draining:
                return M.ConnectRefused(sub_id, "draining")
        return None

    def _migration_epoch(self, sub_id: str) -> int:
        """Highest handoff epoch this SHB has acted on for ``sub_id``.

        Persisted (meta table) so a retry of a superseded attempt is
        still recognized as stale after any number of crashes on either
        side; messages below it are dropped, making the whole handoff
        flow idempotent under duplication, reordering and retransmission.
        """
        return self.meta_table.get(f"migrateEpoch:{sub_id}", 0)

    def _note_migration_epoch(self, sub_id: str, epoch: int) -> None:
        if epoch > self._migration_epoch(sub_id):
            self.meta_table.put(f"migrateEpoch:{sub_id}", epoch)

    def _on_migrate_request(self, chan: Connection, req: M.MigrateRequest) -> None:
        """Source side, phase 1: snapshot the subscription's durable state.

        Read-only except for the in-flight marker — the subscription
        keeps delivering here until the commit; a stale snapshot only
        makes the destination's floors conservative (the client's own
        CT is the exactly-once authority on reconnect).
        """
        if req.epoch < self._migration_epoch(req.sub_id):
            return  # stale retry of a superseded attempt
        if HOOKS.enabled:
            HOOKS.fire("migrate.offer.pre", self.name)
        sub = self.registry.get(req.sub_id)
        if sub is None:
            chan.send(
                M.MigrateOffer(req.handoff_id, req.sub_id, req.epoch, found=False)
            )
            return
        self._note_migration_epoch(req.sub_id, req.epoch)
        self._migrating[req.sub_id] = (req.epoch, req.dest)
        jms_ct: Dict[str, int] = {}
        if self.ct_service is not None:
            jms_ct = self.ct_service.export_ct(req.sub_id)  # type: ignore[attr-defined]
        chan.send(
            M.MigrateOffer(
                req.handoff_id,
                req.sub_id,
                req.epoch,
                found=True,
                predicate=sub.predicate,
                released_ct={p: sub.released_for(p) for p in self.pubend_names},
                jms_ct=jms_ct,
            )
        )

    def _on_migrate_install(self, chan: Connection, msg: M.MigrateInstall) -> None:
        """Destination side, phase 2: adopt the subscription durably.

        Idempotent: re-creation is guarded by the registry, acks are
        monotone, and the PFS cursor never regresses — so a duplicated
        or retried install re-acks without double-registering.

        The ack is *not* sent from this method.  The registry row's
        provisional ``pfs_from`` (this SHB's delivery cursor) is an
        overclaim: ticks above the cursor may already be in flight from
        upstream classified as silence under the pre-install union —
        they carry no PFS record here, and once the source withdraws,
        nobody else holds them either.  So the install waits for
        coverage confirmation like every registration (:meth:`_confirm`);
        only when the root confirms it (:meth:`_on_subscription_synced`)
        is ``pfs_from`` finalized past the suspect span and
        MigrateInstalled sent —
        still from a registry-commit durability callback, so the
        supervisor never commits the source-side withdrawal unless this
        SHB can survive a crash and still cover the subscription.
        """
        if msg.epoch < self._migration_epoch(msg.sub_id):
            return  # superseded (e.g. the subscription migrated onward)
        if HOOKS.enabled:
            HOOKS.fire("migrate.install.pre", self.name)
        self._note_migration_epoch(msg.sub_id, msg.epoch)
        handoff_id, sub_id, epoch = msg.handoff_id, msg.sub_id, msg.epoch

        def installed() -> None:
            if epoch >= self._migration_epoch(sub_id):  # else superseded meanwhile
                self.meta_table.put(f"migrated_in:{sub_id}", epoch)
                self._commit_install(handoff_id, sub_id, epoch, chan)

        if sub_id not in self.registry:
            assert msg.predicate is not None
            self._register(sub_id, msg.predicate, msg.released_ct)
        else:  # a retried install
            for pubend, t in msg.released_ct.items():
                if pubend in self.constreams:
                    self.registry.ack(sub_id, pubend, t)
        if self.ct_service is not None and msg.jms_ct:
            self.ct_service.install_ct(sub_id, msg.jms_ct)  # type: ignore[attr-defined]
        # A tombstone from a previous residency is void: the
        # subscription lives here again.
        self.meta_table.delete(f"migrated_out:{sub_id}")
        # The installed floor may sit below everything this SHB already
        # reported released: bump the release epoch so upstream
        # aggregators accept the regression (safe — the source still
        # holds the same floor until the commit, so the pubend's Tr
        # never passed it).
        for pubend in self.pubend_names:
            self._bump_release_epoch(pubend)
        confirmed = self.meta_table.get_committed(f"migrated_in:{sub_id}")
        if (
            confirmed is not None
            and confirmed >= epoch
            and sub_id not in self._cover_pending
        ):
            # Retry of a handoff whose coverage was already confirmed
            # durably (migrated_in is written only at finalization):
            # just re-ack; a lost MigrateInstalled heals here.
            self._commit_install(handoff_id, sub_id, epoch, chan)
            return
        # Stage the adoption durably and await confirmation (a retry
        # re-enrolls with the newest epoch and reply end, healing a
        # lost ack).
        self._confirm(sub_id, installed)
        self.meta_table.commit()
        self.registry.commit()

    def _on_migrate_commit(self, chan: Connection, msg: M.MigrateCommit) -> None:
        """Source side, phase 3: withdraw the migrated subscription.

        The tombstone commits *before* the registry row drop: a crash
        between the two leaves "row + tombstone", which recovery
        reconciles by finishing the drop — never "no row, no tombstone",
        which would let a reconnecting client silently re-create the
        subscription here while the destination also owns it.
        """
        if msg.epoch < self._migration_epoch(msg.sub_id):
            return  # a newer handoff owns this subscription's fate
        if HOOKS.enabled:
            HOOKS.fire("migrate.commit.pre", self.name)
        self._note_migration_epoch(msg.sub_id, msg.epoch)
        handoff_id, sub_id, epoch = msg.handoff_id, msg.sub_id, msg.epoch

        def done() -> None:
            if HOOKS.enabled:
                HOOKS.fire("migrate.commit.durable", self.name)
            chan.send(M.MigrateDone(handoff_id, sub_id, epoch))

        if sub_id not in self.registry:
            # Duplicate commit: the withdrawal already happened; re-ack
            # once the tombstone is durable.
            if self.meta_table.get_committed(f"migrated_out:{sub_id}") is not None:
                done()
            else:
                self.meta_table.put(f"migrated_out:{sub_id}", (msg.dest, epoch))
                self.meta_table.commit(done)
            return
        # A client connected *here* right now must learn its session is
        # over — _disconnect_sub only drops server-side state, and a
        # client left believing it is connected would wedge silently.
        session = self._sessions.get(sub_id)
        if session is not None:
            session.send(M.ConnectRefused(sub_id, "migrated", redirect_to=msg.dest))
        self._disconnect_sub(sub_id)
        self._pin_release_floors(sub_id)
        self.meta_table.put(f"migrated_out:{sub_id}", (msg.dest, epoch))

        def tombstone_durable() -> None:
            if HOOKS.enabled:
                HOOKS.fire("migrate.commit.tombstone", self.name)
            self._drop(sub_id)
            self._migrating.pop(sub_id, None)
            self.registry.commit(done)

        self.meta_table.commit(tombstone_durable)

    def _reconcile_migrations(self) -> None:
        """Recovery reconciliation for interrupted handoffs.

        A durable ``migrated_out`` tombstone whose registry row
        survived (the crash hit between the tombstone commit and the
        row-drop commit) is finished now; a tombstone superseded by a
        later inbound migration (``migrated_in`` with a higher epoch
        whose tombstone delete died in the crash) is discarded so it
        cannot refuse the subscription's reconnects.
        """
        for key, value in list(self.meta_table.items()):
            if not key.startswith("migrated_out:"):
                continue
            sub_id = key[len("migrated_out:"):]
            if sub_id not in self.registry:
                continue
            _dest, epoch = value
            if epoch >= self.meta_table.get(f"migrated_in:{sub_id}", -1):
                self._pin_release_floors(sub_id)
                self._drop(sub_id)
            else:
                self.meta_table.delete(key)

    def _pin_release_floors(self, sub_id: str) -> None:
        """Pin the departing subscription's release floors for a while.

        Called just before a migrated-out row is dropped; see the
        ``_migration_pins`` comment for why the floors must outlive the
        row.  Volatile by design: across a source crash the registry-
        suspect hold (and the destination's already-propagating report)
        cover the same window.
        """
        sub = self.registry.get(sub_id)
        if sub is None:
            return
        expires = self.scheduler.now + self.migration_pin_ms
        for pubend in self.pubend_names:
            self._migration_pins.setdefault(pubend, []).append(
                (expires, sub.released_for(pubend))
            )

    def _release_epoch_for(self, pubend: str) -> int:
        return max(self._release_epoch.get(pubend, 0), self._release_epoch_floor)

    def _bump_release_epoch(self, pubend: str) -> None:
        # Clamped to sim time so epochs stay monotone across crashes
        # (the recovery floor is also sim time).
        self._release_epoch[pubend] = max(
            self._release_epoch_for(pubend) + 1, int(self.scheduler.now)
        )

    # ------------------------------------------------------------------
    # Catchup streams
    # ------------------------------------------------------------------
    def _start_catchup(
        self, sub_id: str, pubend: str, start: int, refilter_until: int = 0
    ) -> None:
        sub = self.registry.get(sub_id)
        assert sub is not None
        key = (sub_id, pubend)

        def deliver(msg: object) -> None:
            on_sent = None
            if isinstance(msg, M.EventMessage):
                on_sent = lambda: self._catchup_delivery_sent(key)
            self._deliver(sub_id, msg, via_catchup=True, on_sent=on_sent)

        def send_nack(ranges: IntervalSet) -> None:
            self._catchup_nack(key, pubend, ranges)

        def on_switchover() -> None:
            self._on_switchover(key)

        caches_valid = refilter_until == 0
        if caches_valid and not self.use_pfs_for_catchup:
            # Ablation: ignore the PFS — recover the whole missed span
            # by nack + refilter (what the system would do without the
            # paper's novel feature 2).  Caches stay valid: the
            # subscription was registered while they filled.
            refilter_until = 2**60
        stream = CatchupStream(
            self.scheduler,
            pubend,
            sub,
            start,
            self.pfs,
            self.constreams[pubend],
            deliver=deliver,
            send_nack=send_nack,
            on_switchover=on_switchover,
            run_costed=self._run_control,
            refilter_until=refilter_until,
            caches_valid=caches_valid,
        )
        # A trivial catchup (e.g. a pure-silence span) can complete
        # synchronously inside the constructor; record its duration but
        # don't track the already-closed stream.
        if not stream.closed:
            self.catchups[key] = stream
        else:
            self.catchup_durations_ms.append(
                (self.scheduler.now, stream.catchup_duration_ms)
            )

    def _run_control(self, cost_ms: float, fn) -> None:
        """Run protocol control work (PFS reads) synchronously, charging
        its CPU cost as accounting-only load.

        Control work must not wait behind the bulk delivery queue: in a
        real broker it runs on other processors (the testbed machines
        were 6-way SMPs); gating the catchup control loop behind queued
        deliveries creates a latency-equals-progress equilibrium where
        streams chase the moving target forever.
        """
        self.node.try_submit(cost_ms, lambda: None)
        fn()

    def _catchup_delivery_sent(self, key: Tuple[str, str]) -> None:
        stream = self.catchups.get(key)
        if stream is not None:
            stream.on_delivery_sent()

    def _catchup_nack(self, key: Tuple[str, str], pubend: str, ranges: IntervalSet) -> None:
        # Serve what the local event cache knows; only the remainder
        # travels upstream (consolidated).  The cache holds knowledge
        # filtered by this SHB's *historical* subscription union, so it
        # must not answer a reconnect-anywhere stream's refilter span.
        stream = self.catchups.get(key)
        refilter_below = 0
        if stream is not None and not stream.caches_valid:
            refilter_below = stream.refilter_until + 1
        reply, unresolved = self.event_cache[pubend].answer(pubend, ranges, refilter_below)
        if not reply.is_empty():
            self.cache_served_nacks += 1
            # Serve synchronously: the stream's curiosity must see these
            # ticks resolved *before* its next retry window, or overload
            # turns into a renack storm (the reply waiting in the CPU
            # queue while the same ticks are re-requested).  The real
            # CPU cost is charged where it is paid: per delivered
            # message in _deliver, plus a small accounting charge for
            # the cache lookup itself.
            self.node.try_submit(
                self.costs.serve_nack_per_event_ms * max(1, len(reply.d_events)),
                lambda: None,
            )
            if stream is not None:
                stream.on_knowledge(reply)
        if unresolved:
            consolidator = self.consolidators[pubend]
            consolidator.register(key, unresolved)
            due = consolidator.to_forward(unresolved)
            if due:
                self.send_up(M.Nack(pubend, due.as_tuples(), refilter_below=refilter_below))

    def _on_switchover(self, key: Tuple[str, str]) -> None:
        sub_id, pubend = key
        catchup = self.catchups.pop(key, None)
        if catchup is not None:
            self.catchup_durations_ms.append((self.scheduler.now, catchup.catchup_duration_ms))
            self.catchup_ticks_nacked += catchup.curiosity.ticks_nacked
            self.consolidators[pubend].drop_requester(key)
        if sub_id in self._sessions:
            self.constreams[pubend].add_non_catchup(sub_id)

    def in_catchup(self, sub_id: str, pubend: str) -> bool:
        """The paper's ``catchup(s, p)`` predicate."""
        sub = self.registry.get(sub_id)
        if sub is None or not sub.connected:
            return True  # becomes true the instant the subscriber disconnects
        return (sub_id, pubend) in self.catchups

    # ------------------------------------------------------------------
    # Delivery (shared by constream and catchup streams)
    # ------------------------------------------------------------------
    def _deliver(
        self, sub_id: str, msg: object, via_catchup: bool = False, on_sent=None
    ) -> None:
        if isinstance(msg, M.EventMessage):
            cost = (
                self.costs.catchup_deliver_event_ms
                if via_catchup
                else self.costs.deliver_event_ms
            )
            self.events_enqueued += 1
        else:
            cost = self.costs.deliver_control_ms
            if isinstance(msg, M.GapMessage):
                self.gaps_enqueued += 1
        enqueued_ms = self.scheduler.now
        chan = self._sessions.get(sub_id)
        self.node.submit(
            cost,
            lambda: self._do_send(sub_id, chan, [msg], on_sent, via_catchup, enqueued_ms),
        )

    def _deliver_batch(self, sub_id: str, msgs: List[M.EventMessage]) -> None:
        """Batched constream fan-out: one CPU job for a subscriber's
        whole per-pump event list.  The messages then enter the client
        link inside one batching window, so they also travel as one
        transmission."""
        self.events_enqueued += len(msgs)
        self.delivery_batches += 1
        cost = self.costs.deliver_event_ms * len(msgs)
        enqueued_ms = self.scheduler.now
        chan = self._sessions.get(sub_id)
        self.node.submit(
            cost, lambda: self._do_send(sub_id, chan, msgs, None, False, enqueued_ms)
        )

    def _do_send(
        self,
        sub_id: str,
        chan: Optional[Connection],
        msgs: List[object],
        on_sent,
        via_catchup: bool,
        enqueued_ms: float,
    ) -> None:
        # Session fence: a job queued for one session never goes out on
        # the next, which catches these ticks up from its own checkpoint.
        if chan is not None and self._sessions.get(sub_id) is chan:
            tracer = self._tracer
            for msg in msgs:
                chan.send(msg)
                if isinstance(msg, M.EventMessage) and tracer.tracing:
                    tracer.on_deliver(
                        msg.event.event_id, sub_id, via_catchup, enqueued_ms
                    )
        if on_sent is not None:
            on_sent()

    # ------------------------------------------------------------------
    # Knowledge intake from the parent
    # ------------------------------------------------------------------
    def _handle_from_parent(self, msg: object) -> None:
        self._handle_from_parent_batch([msg])

    def _handle_from_parent_batch(self, msgs: List[object]) -> None:
        """The one intake from the parent: a batched link transmission,
        or a single message.  Every knowledge update is folded into its
        constream, then each constream pumps once over the combined
        doubt-horizon advance (instead of once per update).
        """
        per_pubend: Dict[str, List[M.KnowledgeUpdate]] = {}
        for msg in msgs:
            if isinstance(msg, M.KnowledgeUpdate):
                if msg.pubend in self.constreams:
                    per_pubend.setdefault(msg.pubend, []).append(msg)
            elif isinstance(msg, M.SubscriptionSynced):
                self._on_subscription_synced(msg)
            elif isinstance(msg, M.SubscriptionResend):
                self._on_subscription_resend(msg)
        for pubend, updates in per_pubend.items():
            constream = self.constreams[pubend]
            fresh: List[M.KnowledgeUpdate] = []
            for update in updates:
                self._cache_knowledge(pubend, update)
                # The cursor is stable across the loop: it only advances
                # in a pump, and the single pump happens below.
                old, new = M.split_update(update, constream.delivered_cursor)
                if not new.is_empty():
                    fresh.append(new)
                if not old.is_empty():
                    self._route_to_catchups(pubend, old)
            if fresh:
                constream.accumulate_many(fresh)

    def _on_subscription_synced(self, ack: M.SubscriptionSynced) -> None:
        """Root coverage confirmation: finalize pending registrations.

        The ack bounds, per pubend, the D ticks some hop turned into S
        under a union that lacked the confirmed subscriptions (see
        :class:`~repro.core.messages.SubscriptionSynced`); raising
        ``pfs_from`` to that bound puts every such tick below the
        coverage claim, where a connect refilters raw events instead of
        trusting PFS silence.  Then each registration's continuation
        runs and its parked connect, if any, is served.
        """
        due = [
            sub_id
            for sub_id, (enrolled_at, _then) in self._cover_pending.items()
            if enrolled_at < ack.epoch
        ]
        hidden_floor = max(ack.hidden_floor, self._hidden_floor)
        floor = {p: max(ack.hidden_to.get(p, 0), hidden_floor) for p in self.pubend_names}
        for sub_id in due:
            _enrolled_at, then = self._cover_pending.pop(sub_id)
            if sub_id not in self.registry:
                continue  # withdrawn while awaiting confirmation
            self.registry.set_pfs_from(sub_id, floor)
            if then is not None:
                then()
            parked = self._parked.pop(sub_id, None)
            if parked is not None:
                self._on_connect(*parked)

    def _commit_install(
        self, handoff_id: str, sub_id: str, epoch: int, chan: Connection
    ) -> None:
        """Commit the install; once durable, acknowledge it to the supervisor."""

        def installed_durable() -> None:
            if HOOKS.enabled:
                HOOKS.fire("migrate.install.durable", self.name)
            # Report the (possibly regressed, epoch-bumped) floor
            # eagerly: the sooner the root sees this SHB covering the
            # subscription, the shorter the source's pin has to bridge.
            self._report_release()
            chan.send(M.MigrateInstalled(handoff_id, sub_id, epoch))

        self.meta_table.commit()
        self.registry.commit(installed_durable)

    def _cache_knowledge(self, pubend: str, update: M.KnowledgeUpdate) -> None:
        # Every update comes through here exactly once: memo
        # traced-event arrival times so the constream's match span
        # starts at SHB intake.
        tracer = self._tracer
        if tracer.tracing and update.d_events:
            for event in update.d_events:
                tracer.note_arrival(event.event_id)
        cache = self.event_cache[pubend]
        cache.absorb(update)
        cache.keep_span(self.event_cache_span_ms)

    def _route_to_catchups(self, pubend: str, old: M.KnowledgeUpdate) -> None:
        consolidator = self.consolidators[pubend]
        hi = old.max_tick()
        assert hi is not None
        for key in consolidator.route(0, hi):
            catchup = self.catchups.get(key)  # type: ignore[arg-type]
            interest = consolidator.interest_of(key)
            if catchup is None or interest is None:
                continue
            pieces = M.clip_update_to_set(old, interest)
            if not pieces.is_empty():
                catchup.on_knowledge(pieces)
        consolidator.satisfy_update(old)

    def _handle_from_child(self, child: str, msg: object) -> None:  # pragma: no cover
        raise ProtocolError("SHBs are leaves of the broker tree")

    # ------------------------------------------------------------------
    # Periodic maintenance
    # ------------------------------------------------------------------
    def _gap_check(self) -> None:
        """The istream's curiosity: nack Q gaps in head knowledge."""
        for pubend, constream in self.constreams.items():
            knowledge = constream.knowledge
            frontier = knowledge.frontier
            unknown = knowledge.unknown_up_to(frontier)
            self.head_curiosity[pubend].set_want(unknown)

    def _upstream_set(self) -> PredicateSet:
        """The hosted subscriptions' distinct predicates.

        Also while the registry is suspect: a lost row's subscription
        comes back only by registering again, and its connect then
        refilters from its CT up to the confirmation, so silence the
        narrower union caused in between is never trusted.
        """
        return self.distinct

    def _commit_tables(self) -> None:
        self.meta_table.commit()
        self.registry.commit()

    def _report_release(self) -> None:
        if self.registry_suspect:
            # released(p) = min over *all hosted* subscriptions — a
            # registry missing rows would overstate it, letting the
            # pubend convert to L (and this PFS chop away) ticks a lost
            # subscription has not acknowledged.  The parent simply
            # keeps our pre-crash release floor until re-registrations
            # account for every subscription the PFS knows about.
            return
        for pubend, constream in self.constreams.items():
            # Both values are capped at the *committed* latestDelivered:
            # the pubend may release (convert to L) only ticks that a
            # post-crash recovery of this SHB will never replay.
            committed_ld = constream.committed_latest_delivered
            released = min(constream.released, committed_ld)
            pins = self._migration_pins.get(pubend)
            if pins:
                now = self.scheduler.now
                pins[:] = [(exp, floor) for exp, floor in pins if exp > now]
                if pins:
                    released = min(released, *(floor for _exp, floor in pins))
                else:
                    del self._migration_pins[pubend]
            self.send_up(
                M.ReleaseUpdate(
                    pubend, released, committed_ld,
                    epoch=self._release_epoch_for(pubend),
                )
            )
            if released > 0:
                self.pfs.chop_below(pubend, released + 1)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _on_node_crash(self) -> None:
        self._teardown_volatile()
        self._migrating.clear()  # in-flight handoffs die with the node
        self._migration_pins.clear()
        self._cover_pending.clear()  # unconfirmed rows re-enroll at recovery
        self._cover_round_due = False
        self.disk.crash_reset()
        self.meta_table.crash_reset()
        self.pfs.crash_reset()
        self.registry.crash_reset()

    def _on_node_recover(self) -> None:
        """Rebuild from persistent state (Section 4.1 recovery).

        The constream resumes from the committed ``latestDelivered``;
        the head gap check will nack everything the broker missed while
        down; subscribers reconnect on their own and go through catchup.

        If the recovered PFS references subscriber nums the committed
        registry cannot name, subscription rows died uncommitted in the
        crash: enter suspect mode (hold release reports) until the
        owners reconnect and re-register.
        """
        known = {sub.num for sub in self.registry.all()}
        self.registry_suspect = bool(self.pfs.live_subscriber_nums() - known)
        # Release epochs were volatile; restarting them at sim time keeps
        # them monotone from the parent's point of view (its stored
        # epochs are all below the crash time).
        self._release_epoch = {}
        self._release_epoch_floor = int(self.scheduler.now)
        self._build_volatile()
        self._reconcile_migrations()
        for sub_id in self.registry.unconfirmed():  # committed provisional
            self._confirm(sub_id)
        self._refresh_upstream()

    def _maybe_clear_suspect(self) -> None:
        """Leave suspect mode once every PFS-referenced num is claimed.

        Re-registrations recycle nums from zero, so once the registry
        again covers everything the PFS mentions, this SHB can speak
        for its full subscription population: resume release reporting
        immediately.
        """
        if not self.registry_suspect:
            return
        known = {sub.num for sub in self.registry.all()}
        if self.pfs.live_subscriber_nums() - known:
            return
        self.registry_suspect = False
        self._report_release()

    def _on_uplink_restored(self) -> None:
        """Partition toward the parent healed: re-sync eagerly.

        Everything this SHB said during the outage is gone — refresh
        the subscription union, re-report release levels, and re-nack
        outstanding curiosity instead of waiting out retry windows.
        """
        if self.node.is_down:
            return
        self._refresh_upstream()
        self._report_release()
        for curiosity in self.head_curiosity.values():
            curiosity.kick()
        for consolidator in self.consolidators.values():
            consolidator.reset_suppression()
        for catchup in self.catchups.values():
            catchup.curiosity.kick()

    # ------------------------------------------------------------------
    # Introspection for experiments
    # ------------------------------------------------------------------
    def latest_delivered(self, pubend: str) -> int:
        return self.constreams[pubend].latest_delivered

    def released(self, pubend: str) -> int:
        return self.constreams[pubend].released

    @property
    def active_catchup_count(self) -> int:
        return len(self.catchups)

    @property
    def connected_count(self) -> int:
        return len(self._sessions)
