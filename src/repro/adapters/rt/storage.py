"""The StableStorage port over real files.

:class:`RealDisk` implements the group-commit write/sync-callback
contract (see :mod:`repro.port.storage`) against file-backed
:class:`~repro.storage.logvolume.LogVolume`\\ s:

* writers stage their content first (journal/log appends land in the
  volumes' buffered files), then call :meth:`write`,
* a pending sync is armed on the Clock (``sync_interval_ms`` batches
  neighbouring writes into one fsync — the same group commit the paper
  measured at 19.5 ms on its SSA disks),
* the sync ``flush()``\\ es every attached volume (``flush + fsync``,
  see :class:`~repro.storage.logvolume.FileBackend`), then fires the
  staged callbacks **in write order**.

Because the fsync happens before any callback, everything a callback
acks is on the platter; because a ``kill -9`` between staging and sync
kills the callbacks with the process, nothing un-synced is ever acked.
Recovery is reopening the volume files: ``FileBackend`` truncates any
torn tail, and whatever survives is exactly the acked prefix (plus
possibly some un-acked records, which the protocol's idempotent
replays skip-ack).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ...storage.logvolume import LogVolume


class RealDisk:
    """Group-commit stable storage flushing real file-backed volumes."""

    def __init__(self, clock, sync_interval_ms: float = 5.0) -> None:
        self._clock = clock
        self.sync_interval_ms = sync_interval_ms
        self.owner: Optional[str] = None
        self._volumes: List[LogVolume] = []
        self._staged: List[Optional[Callable[[], None]]] = []
        self._sync_armed = False
        self.writes = 0
        self.bytes_written = 0
        self.syncs = 0

    def attach_volume(self, volume: LogVolume) -> None:
        """Cover ``volume``'s appends with this disk's sync cycle."""
        if volume not in self._volumes:
            self._volumes.append(volume)

    # -- StableStorage contract ----------------------------------------
    def write(self, nbytes: int, on_durable: Optional[Callable[[], None]] = None) -> None:
        self.writes += 1
        self.bytes_written += nbytes
        if on_durable is not None:
            self._staged.append(on_durable)
        if not self._sync_armed:
            self._sync_armed = True
            self._clock.after(self.sync_interval_ms, self._sync)

    def _sync(self) -> None:
        self._sync_armed = False
        callbacks, self._staged = self._staged, []
        for volume in self._volumes:
            volume.flush()
        self.syncs += 1
        for cb in callbacks:
            if cb is not None:
                cb()

    def crash_reset(self) -> None:
        """No-op: a real crash is process death (see module docstring)."""

    def close(self) -> None:
        self._sync()
        for volume in self._volumes:
            volume.close()
