"""Crash-consistent key/value tables — the DB2 stand-in.

Section 4.1: *"The latestDelivered(p) and released(s, p) timestamps are
maintained in persistent storage since they need to survive SHB
crashes.  Our implementation maintains these in database tables."* The
JMS layer additionally stores per-subscriber checkpoint tokens in
tables and commits them transactionally (Section 5.2).

:class:`PersistentTable` provides the contract the protocol needs:

* reads see the caller's own uncommitted writes (read-your-writes),
  including batches whose covering disk sync is still in flight,
* :meth:`commit` makes the current dirty set durable atomically — its
  ``on_durable`` callback fires once the backing
  :class:`~repro.storage.disk.SimDisk` sync covering it completes,
* a crash (:meth:`crash_reset`) discards dirty *and* in-flight commits
  whose sync had not completed; committed state survives.

Sizes are estimated so the disk byte accounting stays meaningful.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..util.crashhooks import HOOKS
from .disk import SimDisk

#: Rough per-row cost of a table write (key + value + index overhead).
ROW_BYTES = 64


class PersistentTable:
    """A named table of ``str -> value`` with transactional commits.

    In the simulation the "durable" contents live in ``_committed`` —
    they survive a *simulated* crash (``crash_reset``) but not the
    process.  Passing a ``journal``
    (:class:`~repro.storage.logvolume.LogStream`, typically file-backed)
    makes commits real: each transaction is appended to the journal
    *before* the covering ``disk.write``, so the sync that fires
    ``on_durable`` has already fsynced it, and a fresh process replays
    the journal into ``_committed`` at construction.  A torn journal
    tail is a transaction whose sync never completed — whose callback
    therefore never fired — so losing it is exactly the contract.
    """

    def __init__(
        self,
        name: str,
        disk: Optional[SimDisk] = None,
        journal: Optional[object] = None,
    ) -> None:
        self.name = name
        self._disk = disk
        self._journal = journal
        self._committed: Dict[str, Any] = {}
        self._dirty: Dict[str, Any] = {}
        self._deleted: set = set()
        #: Commit batches handed to the disk but not yet synced, oldest
        #: first.  Part of the read overlay: a transaction the caller
        #: committed must stay visible to its own reads while the sync
        #: is in flight (read-your-writes), even though a crash in that
        #: window would discard it.
        self._inflight: List[Tuple[Dict[str, Any], set]] = []
        self.commits = 0
        self._commit_epoch = 0  # bumped on crash; stale syncs are ignored
        if journal is not None:
            self._replay_journal()

    def _replay_journal(self) -> None:
        """Rebuild ``_committed`` from the journal (process restart)."""
        journal = self._journal
        assert journal is not None
        for index in range(journal.chopped_below, journal.next_index):  # type: ignore[attr-defined]
            batch, deleted = pickle.loads(journal.read(index))  # type: ignore[attr-defined]
            self._committed.update(batch)
            for key in deleted:
                self._committed.pop(key, None)

    @property
    def owner(self) -> Optional[str]:
        """The broker whose crash discards this table's volatile state."""
        return self._disk.owner if self._disk is not None else None

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        self._dirty[key] = value
        self._deleted.discard(key)

    def get(self, key: str, default: Any = None) -> Any:
        if key in self._dirty:
            return self._dirty[key]
        if key in self._deleted:
            return default
        for batch, deleted in reversed(self._inflight):
            if key in batch:
                return batch[key]
            if key in deleted:
                return default
        return self._committed.get(key, default)

    def get_committed(self, key: str, default: Any = None) -> Any:
        """Read only the durably committed value (what a crash preserves).

        Protocol decisions that must remain valid across a crash — the
        release report, notably — must be based on this view, not on
        the dirty or in-flight overlays.
        """
        return self._committed.get(key, default)

    def delete(self, key: str) -> None:
        self._dirty.pop(key, None)
        if key in self._committed or any(
            key in batch for batch, _deleted in self._inflight
        ):
            self._deleted.add(key)

    def items(self) -> Iterator[Tuple[str, Any]]:
        """Iterate the table as the caller currently sees it.

        Ordering is committed-insertion order, then each in-flight
        batch in commit order, then dirty-insertion order — with a key
        re-yielding at its *newest* layer, mirroring :meth:`get`.
        """
        view: Dict[str, Any] = dict(self._committed)
        for batch, deleted in self._inflight:
            for key in batch:
                view.pop(key, None)
            view.update(batch)
            for key in deleted:
                view.pop(key, None)
        for key in self._dirty:
            view.pop(key, None)
        view.update(self._dirty)
        for key in self._deleted:
            view.pop(key, None)
        return iter(view.items())

    def committed_items(self) -> Iterator[Tuple[str, Any]]:
        """Iterate only durably committed rows (what a crash preserves)."""
        return iter(self._committed.copy().items())

    @property
    def dirty_row_count(self) -> int:
        return len(self._dirty) + len(self._deleted)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self, on_durable: Optional[Callable[[], None]] = None) -> int:
        """Atomically persist the dirty set.

        Returns the number of rows in the transaction.  With no disk
        attached (unit tests, the real-file JMS path measures elsewhere)
        the commit applies synchronously.
        """
        rows = len(self._dirty) + len(self._deleted)
        if rows == 0:
            if on_durable is not None:
                if self._disk is None:
                    on_durable()
                else:
                    self._disk.write(0, on_durable)
            return 0
        if HOOKS.enabled:
            # Crash here: the transaction is still only dirty state.
            HOOKS.fire("table.commit.pre", self.owner)
        batch = dict(self._dirty)
        deleted = set(self._deleted)
        self._dirty = {}
        self._deleted = set()
        entry = (batch, deleted)
        self._inflight.append(entry)
        epoch = self._commit_epoch
        if self._journal is not None:
            # Stage the transaction's content before the covering
            # disk.write: the sync that fires ``apply`` fsyncs it.
            self._journal.append(  # type: ignore[attr-defined]
                pickle.dumps((batch, sorted(deleted)), protocol=pickle.HIGHEST_PROTOCOL)
            )

        def apply() -> None:
            if epoch != self._commit_epoch:
                return  # crashed before this sync completed
            if HOOKS.enabled:
                # Crash here: the sync completed but the transaction is
                # not yet reflected in the committed view.
                HOOKS.fire("table.apply.pre", self.owner)
            self._inflight.remove(entry)
            self._committed.update(batch)
            for key in deleted:
                self._committed.pop(key, None)
            self.commits += 1
            if HOOKS.enabled:
                # Crash here: committed, but the caller was never told.
                HOOKS.fire("table.apply.post", self.owner)
            if on_durable is not None:
                on_durable()

        if self._disk is None:
            apply()
        else:
            self._disk.write(rows * ROW_BYTES, apply)
        if HOOKS.enabled:
            HOOKS.fire("table.commit.post", self.owner)
        return rows

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash_reset(self) -> None:
        """Simulate a crash: lose dirty state and in-flight commits."""
        self._commit_epoch += 1
        self._dirty = {}
        self._deleted = set()
        self._inflight = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PersistentTable {self.name} rows={len(self._committed)} dirty={self.dirty_row_count}>"
