"""The Persistent Filtering Subsystem (Section 4.2).

The PFS stores, durably, *which events matched which durable
subscribers*, so a reconnecting subscriber's catchup stream learns its
missed Q ticks without retrieving and refiltering events.

Write path (used by the consolidated stream): logically one record per
timestamp that is Q for at least one subscriber — the record holds the
timestamp and the matching subscriber list with per-subscriber
backpointers (:mod:`repro.pfs.records`).  Timestamps with no matches
write nothing.  Physically the constream hands the PFS one
:meth:`~PersistentFilteringSubsystem.write_batch` per pump advance and
the whole advance lands as a single columnar
:class:`~repro.pfs.records.PFSRecordBatch` append; the row-record
:meth:`~PersistentFilteringSubsystem.write` path remains for
single-tick writers and on-disk compatibility.  All pubends known to
the SHB share one :class:`~repro.storage.logvolume.LogVolume`, one log
stream each.

Read path (used by catchup streams): a *batch read* for subscriber *s*
after timestamp *a* walks the backpointer chain from ``lastIndex(s)``
newest→oldest, retaining the **oldest** ``buffer_qs`` Q ticks (a ring
buffer filled newest-first ends holding the oldest visited — delivery
must proceed in timestamp order, so the oldest portion is what the
caller needs next).  Ticks of the covered span that are not Q are S;
ticks above the covered span are unknown to this read and will be
picked up by the next one.

Durability: records are appended to the (volume-backed) stream
immediately but count as durable only when the attached
:class:`~repro.storage.disk.SimDisk` sync covering them completes; the
consolidated stream advances ``latestDelivered`` only then.  A crash
discards appends beyond the durable horizon.  ``lastIndex`` /
``lastTimestamp`` metadata is kept in memory and rebuilt on recovery by
scanning the live (unchopped) portion of each stream — the paper keeps
it in a DB table; rebuilding from the log is equivalent because the
live stream is bounded by the release protocol (see DESIGN.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional

from ..core.subscription import SHARD_BITS
from ..storage.disk import SimDisk
from ..storage.logvolume import LogStream, LogVolume
from ..util.crashhooks import HOOKS
from ..util.errors import RecordNotFoundError, StorageError
from .records import NO_PREVIOUS, PFSRecord, PFSRecordBatch, decode_record

#: Footnote-2 component sizes: the logical per-tick disk footprint is
#: ``8 + 16n`` bytes regardless of the physical record representation.
_TS_SIZE = 8
_ENTRY_SIZE = 16


class _ShardedIndex:
    """``subscriber_num -> newest record index``, sharded by num range.

    Representation-only replacement for the flat ``last_index`` dict:
    nums ``[k << SHARD_BITS, (k+1) << SHARD_BITS)`` live in shard ``k``,
    and each shard tracks a *floor* — a stale-safe lower bound on the
    smallest record index any of its entries points at.  Entries only
    ever move to newer (larger) indexes, so the floor set when a shard
    first gains a member stays a valid lower bound until a prune
    recomputes it.  :meth:`prune_below` — the chop-time stale-entry
    sweep that used to walk every hosted subscriber — skips any shard
    whose floor already clears the chop point, touching only shards
    with entries old enough to matter.
    """

    __slots__ = ("_shards", "_floor")

    def __init__(self) -> None:
        self._shards: Dict[int, Dict[int, int]] = {}
        self._floor: Dict[int, int] = {}

    def get(self, num: int, default: Optional[int] = None) -> Optional[int]:
        shard = self._shards.get(num >> SHARD_BITS)
        if shard is None:
            return default
        return shard.get(num, default)

    def __getitem__(self, num: int) -> int:
        shard = self._shards.get(num >> SHARD_BITS)
        if shard is None:
            raise KeyError(num)
        return shard[num]

    def __setitem__(self, num: int, index: int) -> None:
        sid = num >> SHARD_BITS
        shard = self._shards.get(sid)
        if shard is None:
            shard = self._shards[sid] = {}
            self._floor[sid] = index
        elif index < self._floor[sid]:
            self._floor[sid] = index
        shard[num] = index

    def __contains__(self, num: int) -> bool:
        shard = self._shards.get(num >> SHARD_BITS)
        return shard is not None and num in shard

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards.values())

    def __iter__(self):
        for shard in self._shards.values():
            yield from shard

    def keys(self):
        return iter(self)

    def items(self):
        for shard in self._shards.values():
            yield from shard.items()

    def clear(self) -> None:
        self._shards.clear()
        self._floor.clear()

    def prune_below(self, last_chopped_index: int) -> None:
        """Drop entries pointing at or below the chopped index."""
        for sid in list(self._shards):
            if self._floor[sid] > last_chopped_index:
                continue
            shard = self._shards[sid]
            stale = [num for num, idx in shard.items() if idx <= last_chopped_index]
            for num in stale:
                del shard[num]
            if shard:
                self._floor[sid] = min(shard.values())
            else:
                del self._shards[sid]
                del self._floor[sid]


@dataclass
class PFSReadResult:
    """Outcome of one batch read for a subscriber.

    The read speaks for the tick span ``(after, covered_to]`` — within
    it, ``q_ticks`` are Q *for ticks >= known_from* and every other
    tick is S.  Ticks below ``known_from`` were chopped (released);
    the PFS knows nothing about them (the pubend will answer L).
    ``logged_from`` is the oldest tick the log can hold a record for —
    the later of ``known_from`` and the first tick ever logged for the
    pubend: silence below it is inferred, not observed, so a density
    taken from this read must not count those ticks.
    ``reached_last_timestamp`` is True when the read consumed the chain
    all the way to the newest record (87% of reads do in the paper's
    failure experiment); False means the ring buffer overflowed.
    """

    after: int
    covered_to: int
    q_ticks: List[int]
    known_from: int
    reached_last_timestamp: bool
    records_visited: int
    logged_from: int = 0

    @property
    def q_count(self) -> int:
        return len(self.q_ticks)


@dataclass(slots=True)
class _PubendState:
    stream: LogStream
    last_timestamp: int = 0                 # newest Q tick written
    first_timestamp: int = 0                # oldest Q tick the live log held (0: none)
    #: sub_num -> index of the newest record carrying that subscriber,
    #: sharded by num range (see :class:`_ShardedIndex`).
    last_index: _ShardedIndex = field(default_factory=_ShardedIndex)
    durable_next_index: int = 0             # appends below this are synced
    chopped_from_ts: int = 0                # ticks below this were chopped


class PersistentFilteringSubsystem:
    """One SHB's PFS across all pubends it knows."""

    def __init__(self, volume: Optional[LogVolume] = None, disk: Optional[SimDisk] = None) -> None:
        self.volume = volume if volume is not None else LogVolume.in_memory()
        self.disk = disk
        self._pubends: Dict[str, _PubendState] = {}
        self.writes = 0
        self.bytes_written = 0
        #: Physical appends/bytes of columnar batch records.  ``writes``
        #: and ``bytes_written`` stay *logical* (one footnote-2 record
        #: per Q tick) whichever representation carried them, so every
        #: paper-facing accounting is representation-independent.
        self.batch_appends = 0
        self.batch_bytes_appended = 0
        self.reads = 0
        self.reads_reaching_last = 0
        #: Batch reads that hit a backpointer-chain break (a record
        #: missing or lacking the subscriber — a chop racing the walk)
        #: and degraded to a truncated result instead of failing.
        self.chain_breaks = 0

    @property
    def owner(self) -> Optional[str]:
        """The broker whose crash discards un-synced PFS appends."""
        if self.disk is not None and self.disk.owner is not None:
            return self.disk.owner
        return self.volume.owner

    def _state(self, pubend: str) -> _PubendState:
        state = self._pubends.get(pubend)
        if state is None:
            stream = self.volume.stream(f"pfs:{pubend}")
            state = _PubendState(stream=stream, durable_next_index=stream.next_index)
            self._pubends[pubend] = state
        return state

    # ------------------------------------------------------------------
    # Write API (constream)
    # ------------------------------------------------------------------
    def write(
        self,
        pubend: str,
        timestamp: int,
        subscriber_nums: Iterable[int],
        on_durable: Optional[Callable[[], None]] = None,
    ) -> int:
        """Log a Q tick for the given subscribers; returns record bytes.

        Timestamps must be strictly increasing per pubend (the
        constream delivers in order).  ``on_durable`` fires when the
        record is crash-safe.
        """
        subs = list(subscriber_nums)
        state = self._state(pubend)
        if not subs:
            raise ValueError("PFS write requires at least one matching subscriber")
        if timestamp < state.chopped_from_ts:
            raise StorageError(
                f"PFS write at {timestamp} below chop point {state.chopped_from_ts}"
            )
        if timestamp <= state.last_timestamp:
            # Replay after an SHB crash: the constream resumes from the
            # committed latestDelivered, which can trail the PFS durable
            # horizon (records become durable before latestDelivered is
            # committed).  Matching is deterministic, so the identical
            # record is already durably in the stream — report success.
            if timestamp >= state.chopped_from_ts:
                if on_durable is not None:
                    on_durable()
                return 0
            raise StorageError(
                f"non-monotonic PFS write: {timestamp} <= {state.last_timestamp}"
            )
        if HOOKS.enabled:
            # Crash here: nothing of this record exists anywhere.
            HOOKS.fire("pfs.write.pre", self.owner)
        record = PFSRecord.build(timestamp, subs, state.last_index)
        index = state.stream.append(record.encode())
        for num in subs:
            state.last_index[num] = index
        state.last_timestamp = timestamp
        if not state.first_timestamp:
            state.first_timestamp = timestamp
        self.writes += 1
        self.bytes_written += record.size_bytes
        if HOOKS.enabled:
            # Crash here: appended and indexed in memory, but the
            # covering sync never started — the record must vanish.
            HOOKS.fire("pfs.write.post", self.owner)

        def durable() -> None:
            if HOOKS.enabled:
                # Crash here: synced, but the durable horizon was never
                # advanced — recovery truncates the record away and the
                # constream replay re-writes it.
                HOOKS.fire("pfs.durable.pre", self.owner)
            state.durable_next_index = max(state.durable_next_index, index + 1)
            if HOOKS.enabled:
                # Crash here: durable, but latestDelivered never
                # advanced past it.
                HOOKS.fire("pfs.durable.post", self.owner)
            if on_durable is not None:
                on_durable()

        if self.disk is None:
            durable()
        else:
            self.disk.write(record.size_bytes, durable)
        return record.size_bytes

    def write_batch(
        self,
        pubend: str,
        items: List,
        on_durable: Optional[Callable[[int], None]] = None,
    ) -> int:
        """Log one pump advance's Q ticks as a single columnar append.

        ``items`` is ``[(timestamp, subscriber_nums), ...]`` in strictly
        ascending tick order, every nums list non-empty.  Logically this
        is exactly ``write(pubend, t, nums)`` per item — same counters,
        same per-tick disk traffic (one logical 8+16n write each, so
        sync batching and ack order are byte-identical to the row path),
        same replay idempotence — but the stream carries ONE
        :class:`~repro.pfs.records.PFSRecordBatch` instead of one row
        record per tick.  ``on_durable`` receives each tick's timestamp
        as it becomes crash-safe, in tick order.

        Returns the physical bytes appended (0 for a pure replay).
        """
        state = self._state(pubend)
        n = len(items)
        i = 0
        # Replay prefix after an SHB crash: the identical ticks are
        # already durably in the stream (matching is deterministic), so
        # acknowledge them synchronously without re-appending.
        while i < n:
            timestamp, nums = items[i]
            if not nums:
                raise ValueError("PFS write requires at least one matching subscriber")
            if timestamp < state.chopped_from_ts:
                raise StorageError(
                    f"PFS write at {timestamp} below chop point {state.chopped_from_ts}"
                )
            if timestamp > state.last_timestamp:
                break
            if on_durable is not None:
                on_durable(timestamp)
            i += 1
        if i == n:
            return 0
        fresh = items[i:] if i else items
        if HOOKS.enabled:
            # Crash here: nothing of this advance exists anywhere.
            HOOKS.fire("pfs.write_batch.pre", self.owner)
        batch = PFSRecordBatch.build(fresh, state.last_index)
        index = state.stream.append(batch.encode())
        for num, _prev in batch.sub_table:
            state.last_index[num] = index
        state.last_timestamp = batch.newest_timestamp
        if not state.first_timestamp:
            state.first_timestamp = fresh[0][0]
        self.writes += len(fresh)
        self.bytes_written += batch.logical_size_bytes
        self.batch_appends += 1
        self.batch_bytes_appended += batch.size_bytes
        if HOOKS.enabled:
            # Crash here: appended and indexed in memory, but no sync
            # covers any tick of the batch — the whole record vanishes.
            HOOKS.fire("pfs.write_batch.post", self.owner)
        if self.disk is None:
            for timestamp, _nums in fresh:
                self._tick_durable(state, index, timestamp, on_durable)
        else:
            for timestamp, nums in fresh:
                self.disk.write(
                    _TS_SIZE + _ENTRY_SIZE * len(nums),
                    lambda t=timestamp: self._tick_durable(state, index, t, on_durable),
                )
        return batch.size_bytes

    def _tick_durable(
        self,
        state: "_PubendState",
        index: int,
        timestamp: int,
        on_durable: Optional[Callable[[int], None]],
    ) -> None:
        """One batch tick's sync completed (ticks share the batch index).

        The first tick's ack already makes the whole batch record
        durable — a crash between two ticks' acks keeps the full batch,
        which is safe because replayed writes at or below
        ``last_timestamp`` are acknowledged without re-appending.
        """
        if HOOKS.enabled:
            # Crash here: synced, durable horizon not yet advanced.
            HOOKS.fire("pfs.durable.pre", self.owner)
        state.durable_next_index = max(state.durable_next_index, index + 1)
        if HOOKS.enabled:
            # Crash here: durable, latestDelivered never advanced.
            HOOKS.fire("pfs.durable.post", self.owner)
        if on_durable is not None:
            on_durable(timestamp)

    def flush(self) -> None:
        """Flush the backing volume (real-file microbenchmark mode)."""
        self.volume.flush()

    # ------------------------------------------------------------------
    # Read API (catchup streams)
    # ------------------------------------------------------------------
    def last_timestamp(self, pubend: str) -> int:
        return self._state(pubend).last_timestamp

    def live_subscriber_nums(self) -> set:
        """Subscriber nums referenced by any live (unchopped) record.

        After :meth:`recover` this is exact (the index maps were just
        rebuilt by a full scan).  The SHB compares it against its
        registry at recovery: a num the registry cannot name proves
        durable subscriptions were lost with an uncommitted table —
        the signal for suspect-registry mode.
        """
        nums: set = set()
        for state in self._pubends.values():
            nums.update(state.last_index.keys())
        return nums

    def read_batch(
        self,
        pubend: str,
        subscriber_num: int,
        after: int,
        buffer_qs: int = 5000,
    ) -> PFSReadResult:
        """Batch-read subscriber ``subscriber_num``'s ticks after ``after``.

        See the module docstring for the exact semantics of the result.

        A walk can cross a *concurrent* ``chop_below`` — a reconnect
        racing a release: the chain enters records the chop has already
        discarded (or that no longer carry the subscriber after a
        recovery rebuilt the index maps).  That is not corruption of
        anything the subscriber still needs — everything at or below
        the break was released — so instead of failing the catchup
        stream the batch is truncated: ``known_from`` is raised to the
        oldest tick the walk could still vouch for, the caller nacks
        the unknown span below it, and the pubend answers L (a gap)
        for whatever was genuinely released.
        """
        if buffer_qs <= 0:
            raise ValueError("buffer_qs must be positive")
        state = self._state(pubend)
        self.reads += 1
        ring: Deque[int] = deque(maxlen=buffer_qs)
        visited = 0
        pushed = 0
        truncated = False
        index = state.last_index.get(subscriber_num, NO_PREVIOUS)
        done = False
        while not done and index != NO_PREVIOUS and index >= state.stream.chopped_below:
            try:
                record = decode_record(state.stream.read(index))
            except RecordNotFoundError:
                truncated = True
                break
            if type(record) is PFSRecordBatch:
                # Intra-batch traversal: the subscriber's chain inside
                # the batch is its member ticks, walked newest→oldest.
                # ``visited`` counts *logical* (per-tick) records so
                # the catchup CPU model is representation-independent.
                prev = record.prev_index_of(subscriber_num)
                if prev is None:
                    # Stale index entry (chop/recovery race): the batch
                    # does not carry this subscriber at all.
                    visited += 1
                    truncated = True
                    break
                for i in reversed(record.ticks_for(subscriber_num)):
                    t = record.timestamps[i]
                    if t < state.chopped_from_ts:
                        # The row representation would have chopped
                        # this tick's record; a straddling batch keeps
                        # it physically, but the walk must not visit
                        # or vouch for released ticks.
                        done = True
                        break
                    visited += 1
                    if t <= after:
                        done = True
                        break
                    ring.append(t)
                    pushed += 1
                else:
                    index = prev
                continue
            visited += 1
            if record.timestamp <= after:
                break
            ring.append(record.timestamp)
            pushed += 1
            prev = record.prev_index_of(subscriber_num)
            if prev is None:
                # The record does not carry this subscriber — a stale
                # index entry left by a chop/recovery race.  The tick
                # just pushed is not a Q for the subscriber: retract it
                # before truncating, or it would be vouched as Q.
                ring.pop()
                pushed -= 1
                truncated = True
                break
            index = prev
        overflowed = pushed > buffer_qs
        known_from = state.chopped_from_ts
        if truncated:
            self.chain_breaks += 1
            boundary = min(ring) if ring else state.last_timestamp + 1
            known_from = max(known_from, boundary)
        q_ticks = sorted(t for t in ring if t >= known_from)
        covered_to = q_ticks[-1] if overflowed and q_ticks else state.last_timestamp
        if not overflowed:
            self.reads_reaching_last += 1
        return PFSReadResult(
            after=after,
            covered_to=max(covered_to, after),
            q_ticks=q_ticks,
            known_from=known_from,
            reached_last_timestamp=not overflowed,
            records_visited=visited,
            logged_from=max(known_from, state.first_timestamp),
        )

    # ------------------------------------------------------------------
    # Release / chop
    # ------------------------------------------------------------------
    def chop_below(self, pubend: str, timestamp: int) -> int:
        """Discard records whose tick is below ``timestamp``.

        Invoked as the release point advances; returns records chopped.
        """
        state = self._state(pubend)
        if timestamp <= state.chopped_from_ts:
            return 0
        if HOOKS.enabled:
            # Crash here: the release advanced but nothing was chopped.
            HOOKS.fire("pfs.chop.pre", self.owner)
        stream = state.stream
        chopped = 0
        last_chopped_index = None
        index = stream.chopped_below
        while index < min(stream.next_index, state.durable_next_index):
            record = decode_record(stream.read(index))
            if type(record) is PFSRecordBatch:
                # A batch is discarded only when its *newest* tick is
                # below the chop point; a straddling batch stays whole
                # (readers filter its released ticks via known_from).
                if record.newest_timestamp >= timestamp:
                    break
                chopped += record.n_ticks
            else:
                if record.timestamp >= timestamp:
                    break
                chopped += 1
            last_chopped_index = index
            index += 1
        if last_chopped_index is not None:
            stream.chop(last_chopped_index)
            # Drop stale lastIndex entries that now point below the chop
            # (per-shard floors let untouched num ranges skip the sweep).
            state.last_index.prune_below(last_chopped_index)
        state.chopped_from_ts = timestamp
        if HOOKS.enabled:
            # Crash here: records gone, index maps pruned — catchup
            # walks that raced this chop must degrade, not fail.
            HOOKS.fire("pfs.chop.post", self.owner)
        return chopped

    # ------------------------------------------------------------------
    # Failure / recovery
    # ------------------------------------------------------------------
    def crash_reset(self) -> None:
        """Discard appends that never reached the disk."""
        for state in self._pubends.values():
            state.stream.crash_truncate(state.durable_next_index)
        self.recover()

    def recover(self) -> None:
        """Rebuild lastIndex/lastTimestamp by scanning the live streams."""
        for state in self._pubends.values():
            state.last_index.clear()
            state.last_timestamp = state.chopped_from_ts
            state.first_timestamp = 0
            stream = state.stream
            for index in range(stream.chopped_below, stream.next_index):
                record = decode_record(stream.read(index))
                if type(record) is PFSRecordBatch:
                    oldest, newest = record.oldest_timestamp, record.newest_timestamp
                else:
                    oldest = newest = record.timestamp
                if not state.first_timestamp:
                    state.first_timestamp = oldest
                for num in record.subscribers():
                    state.last_index[num] = index
                state.last_timestamp = max(state.last_timestamp, newest)
            state.durable_next_index = stream.next_index
