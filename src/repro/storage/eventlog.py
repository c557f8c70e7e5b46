"""The per-pubend persistent event log at the publisher hosting broker.

This is the *only* place an event is persistently logged in the whole
system (novel feature 1 in the paper's introduction).  The log is an
ordered stream indexed by event timestamp; the release protocol chops a
growing prefix, after which reads of chopped timestamps report "lost"
(the L tick) rather than returning data.

Durability follows the group-commit contract of
:class:`~repro.storage.disk.SimDisk`: :meth:`append` stages the event
and invokes ``on_durable`` when the covering sync completes.  The
pubend publishes knowledge about an event only after this callback —
that ordering is what makes PHB-side logging sufficient for
exactly-once delivery, and what contributes the 44 ms of the paper's
50 ms end-to-end latency.
"""

from __future__ import annotations

import bisect
import pickle
from typing import Callable, Dict, List, Optional

from ..core.events import Event
from ..util.crashhooks import HOOKS
from ..util.errors import StorageError
from .disk import SimDisk


class PersistentEventLog:
    """Ordered event storage for one pubend, chopped from the front.

    With a ``journal`` (:class:`~repro.storage.logvolume.LogStream`,
    file-backed) the log survives real process death: each event is
    appended to the journal before the covering ``disk.write`` (the
    sync firing ``on_durable`` fsyncs it) and chops are journalled the
    same way; a fresh process replays the journal at construction.  A
    torn tail is an event whose ``on_durable`` never fired — recovered
    by publisher retransmission, exactly the crash contract.
    """

    def __init__(
        self,
        pubend: str,
        disk: Optional[SimDisk] = None,
        journal: Optional[object] = None,
    ) -> None:
        self.pubend = pubend
        self._disk = disk
        self._journal = journal
        self._events: Dict[int, Event] = {}
        self._timestamps: List[int] = []  # sorted (appends are monotonic)
        self._chopped_below = 0  # all ticks < this are lost (L)
        self._durable_epoch = 0
        self.appended = 0
        self.bytes_logged = 0
        if journal is not None:
            self._replay_journal()

    def _replay_journal(self) -> None:
        """Rebuild the durable view from the journal (process restart)."""
        journal = self._journal
        assert journal is not None
        for index in range(journal.chopped_below, journal.next_index):  # type: ignore[attr-defined]
            kind, value = pickle.loads(journal.read(index))  # type: ignore[attr-defined]
            if kind == "ev":
                if value.timestamp >= self._chopped_below:
                    self._events[value.timestamp] = value
                    self._timestamps.append(value.timestamp)
                    self.appended += 1
            elif kind == "chop" and value > self._chopped_below:
                cut = bisect.bisect_left(self._timestamps, value)
                for t in self._timestamps[:cut]:
                    del self._events[t]
                del self._timestamps[:cut]
                self._chopped_below = value

    @property
    def owner(self) -> Optional[str]:
        """The broker whose crash voids staged appends (via the disk)."""
        return self._disk.owner if self._disk is not None else None

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def append(self, event: Event, on_durable: Optional[Callable[[], None]] = None) -> None:
        """Log ``event``; ``on_durable`` fires when it is crash-safe."""
        if event.pubend != self.pubend:
            raise StorageError(f"event for {event.pubend} appended to log of {self.pubend}")
        if self._timestamps and event.timestamp <= self._timestamps[-1]:
            raise StorageError(
                f"non-monotonic append: {event.timestamp} after {self._timestamps[-1]}"
            )
        if event.timestamp < self._chopped_below:
            raise StorageError(f"append below chop point {self._chopped_below}")
        if self._journal is not None:
            self._journal.append(  # type: ignore[attr-defined]
                pickle.dumps(("ev", event), protocol=pickle.HIGHEST_PROTOCOL)
            )
        epoch = self._durable_epoch

        def durable() -> None:
            if epoch != self._durable_epoch:
                return  # lost in a crash before the sync completed
            if HOOKS.enabled:
                # Crash here: the sync completed but the event never
                # entered the durable view — it must be recovered via
                # publisher retransmission, never half-applied.
                HOOKS.fire("eventlog.durable.pre", self.owner)
            self._events[event.timestamp] = event
            self._timestamps.append(event.timestamp)
            self.appended += 1
            self.bytes_logged += event.size_bytes
            if HOOKS.enabled:
                # Crash here: durably logged, but knowledge of it was
                # never disseminated (on_durable unfired).
                HOOKS.fire("eventlog.durable.post", self.owner)
            if on_durable is not None:
                on_durable()

        if self._disk is None:
            durable()
        else:
            self._disk.write(event.size_bytes, durable)

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, timestamp: int) -> Optional[Event]:
        """The durable event at ``timestamp``, or None (silence or lost)."""
        return self._events.get(timestamp)

    def read_range(self, start: int, end: int) -> List[Event]:
        """All durable events with ``start <= timestamp <= end``."""
        lo = bisect.bisect_left(self._timestamps, start)
        hi = bisect.bisect_right(self._timestamps, end)
        return [self._events[t] for t in self._timestamps[lo:hi]]

    @property
    def chopped_below(self) -> int:
        """Every tick strictly below this value has been released (L)."""
        return self._chopped_below

    @property
    def max_timestamp(self) -> Optional[int]:
        return self._timestamps[-1] if self._timestamps else None

    @property
    def live_event_count(self) -> int:
        return len(self._timestamps)

    # ------------------------------------------------------------------
    # Release / failure
    # ------------------------------------------------------------------
    def chop_below(self, timestamp: int) -> int:
        """Discard every event with timestamp ``< timestamp``.

        Returns the number of events discarded.  Invoked by the release
        protocol once the prefix has been converted to L ticks.
        """
        if timestamp <= self._chopped_below:
            return 0
        if HOOKS.enabled:
            # Crash here: the release decision was made but no event
            # has been discarded yet.
            HOOKS.fire("eventlog.chop.pre", self.owner)
        if self._journal is not None:
            self._journal.append(  # type: ignore[attr-defined]
                pickle.dumps(("chop", timestamp), protocol=pickle.HIGHEST_PROTOCOL)
            )
        cut = bisect.bisect_left(self._timestamps, timestamp)
        for t in self._timestamps[:cut]:
            del self._events[t]
        del self._timestamps[:cut]
        self._chopped_below = timestamp
        if HOOKS.enabled:
            # Crash here: the prefix is gone; the release bound must
            # already cover it or recovery would resurrect L as data.
            HOOKS.fire("eventlog.chop.post", self.owner)
        return cut

    def crash_reset(self) -> None:
        """Lose staged (unsynced) appends; durable contents survive."""
        self._durable_epoch += 1
