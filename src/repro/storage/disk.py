"""Simulated durable storage device with group commit.

The paper attributes 44 of the 50 ms end-to-end latency to "event
logging at the PHB": events become deliverable only once the disk sync
covering them completes, and syncs are batched (group commit) so
throughput stays high.  The SHB's PFS and table commits behave the same
way on a second device.

:class:`SimDisk` models exactly that contract:

* :meth:`write` stages ``nbytes`` and registers a completion callback,
* a sync cycle starts every ``sync_interval_ms`` if anything is staged
  and takes ``sync_duration_ms`` plus a bandwidth term,
* all callbacks staged before the cycle began fire when it completes,
* total bytes written are accounted (the PFS microbenchmark's
  "25x less data" claim is a statement about this counter).

Writes staged while a sync is in flight join the *next* cycle, so the
mean time from write to durability under light load is roughly
``(sync_interval + sync_duration)/2 + sync_duration``; the defaults
(6, 27) land near the paper's 44 ms PHB logging latency.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..net.simtime import Scheduler
from ..util.crashhooks import HOOKS


class SimDisk:
    """A group-commit disk attached to the simulation clock."""

    def __init__(
        self,
        scheduler: Scheduler,
        name: str = "disk",
        sync_interval_ms: float = 6.0,
        sync_duration_ms: float = 27.0,
        bandwidth_bytes_per_ms: float = 20_000.0,
    ) -> None:
        if sync_interval_ms <= 0 or sync_duration_ms < 0:
            raise ValueError("invalid sync parameters")
        if bandwidth_bytes_per_ms <= 0:
            raise ValueError("bandwidth must be positive")
        self.scheduler = scheduler
        self.name = name
        #: Name of the broker whose crash voids this device's staged
        #: writes (set by ``Broker._own_storage``); the crash-point
        #: explorer uses it to decide *whom* to crash when a hook on
        #: this device fires.  Purely diagnostic otherwise.
        self.owner: Optional[str] = None
        self.sync_interval_ms = sync_interval_ms
        self.sync_duration_ms = sync_duration_ms
        self.bandwidth_bytes_per_ms = bandwidth_bytes_per_ms
        self.bytes_written = 0
        self.syncs_completed = 0
        self.crashes = 0
        #: Writes staged (or mid-sync) at crash time whose callbacks
        #: therefore never fired — the chaos soak checks these are
        #: recovered via nacks, never acknowledged as durable.
        self.writes_lost_in_crash = 0
        self._staged: List[Tuple[int, Optional[Callable[[], None]]]] = []
        self._sync_scheduled = False
        self._sync_in_flight = False
        self._inflight_writes = 0
        self._epoch = 0  # bumped on crash; in-flight syncs are voided

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def write(self, nbytes: int, on_durable: Optional[Callable[[], None]] = None) -> None:
        """Stage ``nbytes``; ``on_durable`` fires when they hit the platter."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._staged.append((nbytes, on_durable))
        self._arm_sync()

    def _arm_sync(self) -> None:
        if self._sync_scheduled or self._sync_in_flight:
            return
        self._sync_scheduled = True
        self.scheduler.after(self.sync_interval_ms, self._begin_sync)

    def _begin_sync(self) -> None:
        self._sync_scheduled = False
        if self._sync_in_flight or not self._staged:
            return
        if HOOKS.enabled:
            # Crash here: the batch is still staged, nothing in flight.
            HOOKS.fire("disk.sync.begin", self.owner)
        batch, self._staged = self._staged, []
        batch_bytes = sum(n for n, _ in batch)
        duration = self.sync_duration_ms + batch_bytes / self.bandwidth_bytes_per_ms
        self._sync_in_flight = True
        self._inflight_writes = len(batch)
        self.scheduler.after(duration, self._complete_sync, self._epoch, batch, batch_bytes)

    def _complete_sync(
        self,
        epoch: int,
        batch: List[Tuple[int, Optional[Callable[[], None]]]],
        batch_bytes: int,
    ) -> None:
        if epoch != self._epoch:
            return  # the device crashed while this sync was in flight
        if HOOKS.enabled:
            # Crash here: the platter write "happened" but no caller has
            # been told — fired before the in-flight counters are
            # cleared so ``crash_reset`` still counts the batch as lost.
            HOOKS.fire("disk.sync.complete.pre", self.owner)
        self._sync_in_flight = False
        self._inflight_writes = 0
        self.bytes_written += batch_bytes
        self.syncs_completed += 1
        for _n, cb in batch:
            if HOOKS.enabled:
                # Crash between callbacks: a *prefix* of the batch has
                # been acknowledged durable — the torn cut ordered
                # journaling permits.
                HOOKS.fire("disk.sync.callback", self.owner)
            if cb is not None:
                cb()
            if epoch != self._epoch:
                # A callback crashed the device (directly or via an
                # injected crash while this frame survived): the rest
                # of the batch must never be acknowledged.
                return
        if HOOKS.enabled:
            HOOKS.fire("disk.sync.complete.post", self.owner)
        if self._staged:
            self._arm_sync()

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash_reset(self) -> None:
        """Drop all staged-but-unsynced writes (their callbacks never fire).

        Called by the owning broker's crash handler: data acknowledged
        durable stays durable; everything else — including a sync that
        was in flight when the machine died — is lost, exactly the
        write-ahead-log contract the protocol is built on.
        """
        self._epoch += 1
        self.crashes += 1
        self.writes_lost_in_crash += len(self._staged) + self._inflight_writes
        self._staged.clear()
        self._sync_scheduled = False
        self._sync_in_flight = False
        self._inflight_writes = 0
