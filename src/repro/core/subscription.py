"""Durable subscription records and the SHB's persistent registry.

A durable subscription survives disconnection: the SHB must remember —
across its own crashes — which subscriptions it hosts, their filters,
their numeric ids (used in PFS records) and their per-pubend released
(acknowledged) timestamps.  Section 4.1 keeps ``released(s, p)`` in
database tables; :class:`SubscriptionRegistry` stores everything in
:class:`~repro.storage.table.PersistentTable` rows with the same crash
semantics.

Representation notes (scale work, representation-only — nothing here
changes protocol behaviour):

* :class:`DurableSubscription` rows are ``__slots__`` dataclasses and
  their ``sub_id`` strings are interned, so 10^5 hosted subscriptions
  do not pay a per-row ``__dict__``.
* Predicates are deduplicated through :func:`intern_predicate`: 10k
  subscribers sharing 500 distinct filters reference 500 predicate
  objects, not 10k equal copies (and so 500 compiled records, see
  :func:`repro.matching.engine.compiled`).
* Registration-cursor maps (``pfs_from``) are deduplicated through
  :func:`intern_cursor_map` and shared copy-on-write between the row
  and its persisted table value — most subscriptions registered at the
  same delivery cursor reference one map.
* ``released(s, p)`` lives in a registry-level column store (pubend ->
  subscriber num -> tick) instead of a per-row dict: one dict entry
  per (row, pubend) rather than a whole dict object per row.
* ``min_released`` is sharded by subscriber-num range (see
  :data:`SHARD_BITS`): each shard caches its own minimum and an ack
  only invalidates the acking subscriber's shard, so the periodic
  release report touches the shards with fresh acks instead of walking
  every hosted row.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..matching.predicates import Predicate
from ..storage.table import PersistentTable
from ..util.errors import SubscriptionError

#: Subscriber-num shard width: nums ``[k << SHARD_BITS, (k+1) << SHARD_BITS)``
#: share shard ``k``.  256 is wide enough that shard overhead is noise at
#: 10^2 subscribers and narrow enough that 10^5 subscribers spread over
#: ~400 independently-cached shards.
SHARD_BITS = 8

#: Canonical instance per distinct (value-equal) predicate.  Bounded:
#: real deployments have orders of magnitude fewer distinct filters than
#: subscribers, which is the entire point of interning them.
_PREDICATE_POOL: Dict[Predicate, Predicate] = {}
_PREDICATE_POOL_CAP = 1 << 16


def intern_predicate(predicate: Predicate) -> Predicate:
    """Return the canonical shared instance for a value-equal predicate.

    Predicates are frozen dataclasses (hashable by value), so equal
    filters can share one object.  Unhashable predicates — which also
    get no shared signature in :func:`repro.matching.engine.compiled` —
    are returned as-is, as is everything once the pool is full.
    """
    try:
        pooled = _PREDICATE_POOL.get(predicate)
        if pooled is not None:
            return pooled
        if len(_PREDICATE_POOL) < _PREDICATE_POOL_CAP:
            _PREDICATE_POOL[predicate] = predicate
        return predicate
    except TypeError:
        return predicate


#: Canonical instance per distinct pubend->tick map.  Registration
#: cursors repeat massively (every subscription registered at the same
#: delivery cursor gets the same map), so rows share one frozen-by-
#: convention dict instead of each holding a private copy.  Holders
#: must treat an interned map as immutable: raising a cursor goes
#: through copy-on-write (see :meth:`SubscriptionRegistry.set_pfs_from`).
_MAP_POOL: Dict[tuple, Dict[str, int]] = {}
_MAP_POOL_CAP = 1 << 16

#: A key no pubend has, in a persisted ``pfs_from`` while it is provisional.
_UNCONFIRMED = ""


def intern_cursor_map(cursors: Dict[str, int]) -> Dict[str, int]:
    """Return the canonical shared instance for a value-equal cursor map."""
    key = tuple(sorted(cursors.items()))
    pooled = _MAP_POOL.get(key)
    if pooled is not None:
        return pooled
    canonical = {sys.intern(p): t for p, t in cursors.items()}
    if len(_MAP_POOL) < _MAP_POOL_CAP:
        _MAP_POOL[key] = canonical
    return canonical


def _shard_of(num: int) -> int:
    return num >> SHARD_BITS


@dataclass(slots=True)
class DurableSubscription:
    """An SHB's record of one durable subscription."""

    sub_id: str
    num: int                      # compact id used inside PFS records
    predicate: Predicate
    #: released(s, p) column store, *shared with the hosting registry*
    #: (pubend -> subscriber num -> highest acknowledged timestamp).
    #: The row holds a pointer so released_for() stays a row method;
    #: the registry owns all mutation.
    released_columns: Dict[str, Dict[int, int]] = field(default_factory=dict)
    #: Tick from which this SHB's PFS covers the subscription, per
    #: pubend: the constream's delivery cursor at the moment the
    #: subscription entered the matching engine.  Ticks below it were
    #: matched (and PFS-recorded) without this subscription, so the
    #: PFS's "no record ⇒ silence" claim is meaningless there — a
    #: catchup starting below it must refilter raw events instead of
    #: trusting PFS silence.  Nonzero after a mid-stream registration:
    #: reconnect-anywhere, or re-registration after this SHB lost an
    #: uncommitted registry in a crash.
    pfs_from: Dict[str, int] = field(default_factory=dict)
    confirmed: bool = False  # pfs_from is final (see set_pfs_from)
    connected: bool = False

    def released_for(self, pubend: str) -> int:
        column = self.released_columns.get(pubend)
        return column.get(self.num, 0) if column is not None else 0


class SubscriptionRegistry:
    """All durable subscriptions hosted by one SHB, crash-persistent.

    Rows live in two tables sharing the SHB's table disk:

    * ``subs``   — ``sub_id -> (num, predicate, initial CT)``,
    * ``released`` — ``"{sub_id}/{pubend}" -> released(s, p)``.

    Acks are written dirty and committed in batches by the SHB (the
    experiments commit every 250 ms); a crash rolls back to the last
    commit, which only ever *under*-reports acknowledgments — safe,
    because redelivery below a subscriber's true CT is filtered by the
    subscriber's own token.
    """

    def __init__(self, subs_table: PersistentTable, released_table: PersistentTable) -> None:
        self._subs_table = subs_table
        self._released_table = released_table
        self._subs: Dict[str, DurableSubscription] = {}
        #: released(s, p) column store: pubend -> num -> tick.  Shared
        #: by reference with every hosted row (see DurableSubscription).
        self._released: Dict[str, Dict[int, int]] = {}
        self._next_num = 0
        #: Bumped on every membership change (create/drop/crash reset);
        #: lets per-match-set caches (constream num fan-out) detect that
        #: a ``sub_id -> num`` mapping they memoized may be stale.
        self.version = 0
        #: shard id -> {num -> row} membership, keyed by num range.
        self._shards: Dict[int, Dict[int, DurableSubscription]] = {}
        #: pubend -> shard id -> cached min released over that shard.
        #: Invalidation: membership changes clear whole pubend caches;
        #: an ack evicts only the acking row's shard (and only when the
        #: raised value could have been the shard minimum — acks are
        #: monotone, so a row strictly above the cached min cannot be).
        self._min_cache: Dict[str, Dict[int, int]] = {}
        #: The last provisional map and its stored (marked) form.
        self._marked: tuple = (None, None)
        self._load()

    def _load(self) -> None:
        """Rebuild in-memory state from committed rows (recovery path)."""
        for sub_id, row in self._subs_table.committed_items():
            if len(row) != 3:
                raise SubscriptionError(
                    f"registry row of {sub_id} has {len(row)} fields, not (num, predicate, pfs_from)"
                )
            num, predicate, pfs_from = row
            pfs_from = dict(pfs_from)
            confirmed = pfs_from.pop(_UNCONFIRMED, None) is None
            sub_id = sys.intern(sub_id)
            sub = DurableSubscription(
                sub_id, num, intern_predicate(predicate),
                released_columns=self._released,
                pfs_from=intern_cursor_map(pfs_from),
                confirmed=confirmed,
            )
            self._subs[sub_id] = sub
            self._shards.setdefault(_shard_of(num), {})[num] = sub
            self._next_num = max(self._next_num, num + 1)
        for key, value in self._released_table.committed_items():
            sub_id, pubend = key.rsplit("/", 1)
            sub = self._subs.get(sub_id)
            if sub is not None:
                self._released.setdefault(sys.intern(pubend), {})[sub.num] = value

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def create(
        self,
        sub_id: str,
        predicate: Predicate,
        pfs_from: Optional[Dict[str, int]] = None,
    ) -> DurableSubscription:
        """Register a brand-new durable subscription.

        ``pfs_from``: per-pubend registration cursor (see
        :class:`DurableSubscription`); persisted with the row so a
        reconnect after any number of SHB crashes still knows where
        PFS coverage for this subscription begins.  Provisional until
        :meth:`set_pfs_from` confirms it.
        """
        if sub_id in self._subs:
            raise SubscriptionError(f"subscription {sub_id} already exists")
        sub_id = sys.intern(sub_id)
        predicate = intern_predicate(predicate)
        sub = DurableSubscription(
            sub_id, self._next_num, predicate,
            released_columns=self._released,
            pfs_from=intern_cursor_map(pfs_from or {}),
        )
        self._next_num += 1
        self.version += 1
        self._subs[sub_id] = sub
        self._shards.setdefault(_shard_of(sub.num), {})[sub.num] = sub
        self._min_cache.clear()
        self._put_row(sub)
        return sub

    def _put_row(self, sub: DurableSubscription) -> None:
        # A confirmed row's table value references the same interned
        # map as the row object; set_pfs_from replaces both
        # copy-on-write, so neither is ever mutated in place.
        stored = sub.pfs_from
        if not sub.confirmed:
            if self._marked[0] is not stored:  # rows mostly share a cursor
                self._marked = (stored, intern_cursor_map({**stored, _UNCONFIRMED: 0}))
            stored = self._marked[1]
        self._subs_table.put(sub.sub_id, (sub.num, sub.predicate, stored))

    def set_pfs_from(self, sub_id: str, pfs_from: Dict[str, int]) -> None:
        """Confirm the row's coverage, raising its PFS-coverage cursors
        (monotone, persisted).

        Every registration finalizes its coverage claim only after the
        subscription's filter is confirmed applied at the tree root
        (see SHB._on_subscription_synced); the raised cursors and the
        confirmation must reach the same row the recovery path reloads,
        so the row is rewritten.  The caller commits.
        """
        sub = self._subs.get(sub_id)
        if sub is None:
            raise SubscriptionError(f"unknown subscription {sub_id}")
        updated = dict(sub.pfs_from)
        changed = not sub.confirmed
        for pubend, t in pfs_from.items():
            if t > updated.get(pubend, 0):
                updated[sys.intern(pubend)] = t
                changed = True
        if changed:
            # Copy-on-write: interned maps are shared across rows (and
            # with the persisted table value), so never mutate in place.
            sub.pfs_from = intern_cursor_map(updated)
            sub.confirmed = True
            self._put_row(sub)

    def unconfirmed(self) -> List[str]:
        """The rows whose coverage is not confirmed yet."""
        return [sub.sub_id for sub in self._subs.values() if not sub.confirmed]

    def drop(self, sub_id: str) -> None:
        """Destroy a durable subscription (unsubscribe)."""
        sub = self._subs.pop(sub_id, None)
        if sub is None:
            return
        self.version += 1
        shard = self._shards.get(_shard_of(sub.num))
        if shard is not None:
            shard.pop(sub.num, None)
            if not shard:
                del self._shards[_shard_of(sub.num)]
        self._min_cache.clear()
        self._subs_table.delete(sub_id)
        for pubend, column in self._released.items():
            if column.pop(sub.num, None) is not None:
                self._released_table.delete(f"{sub_id}/{pubend}")

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, sub_id: str) -> Optional[DurableSubscription]:
        return self._subs.get(sub_id)

    def by_num(self, num: int) -> Optional[DurableSubscription]:
        shard = self._shards.get(_shard_of(num))
        return shard.get(num) if shard is not None else None

    def all(self) -> Iterator[DurableSubscription]:
        return iter(self._subs.values())

    def __len__(self) -> int:
        return len(self._subs)

    def __contains__(self, sub_id: str) -> bool:
        return sub_id in self._subs

    # ------------------------------------------------------------------
    # Acknowledgments
    # ------------------------------------------------------------------
    def ack(self, sub_id: str, pubend: str, timestamp: int) -> None:
        """Record released(s, p) = timestamp (monotone; stale acks ignored)."""
        sub = self._subs.get(sub_id)
        if sub is None:
            raise SubscriptionError(f"unknown subscription {sub_id}")
        column = self._released.setdefault(sys.intern(pubend), {})
        previous = column.get(sub.num, -1)
        if timestamp <= previous:
            return
        column[sub.num] = timestamp
        self._released_table.put(f"{sub_id}/{pubend}", timestamp)
        cache = self._min_cache.get(pubend)
        if cache is not None:
            shard_id = _shard_of(sub.num)
            cached = cache.get(shard_id)
            # released_for() treats a missing entry as 0, so the row's
            # effective old value is max(previous, 0).
            if cached is not None and max(previous, 0) <= cached:
                del cache[shard_id]

    def min_released(self, pubend: str) -> Optional[int]:
        """``min over all hosted subscriptions of released(s, p)``.

        Includes disconnected subscriptions — that is the whole point
        of the release protocol.  None when the SHB hosts none.
        Computed per num-range shard with cached shard minima; only
        shards invalidated since the last call are rescanned.
        """
        if not self._subs:
            return None
        cache = self._min_cache.setdefault(pubend, {})
        column = self._released.get(pubend, {})
        best: Optional[int] = None
        for shard_id, members in self._shards.items():
            m = cache.get(shard_id)
            if m is None:
                m = min(column.get(num, 0) for num in members)
                cache[shard_id] = m
            if best is None or m < best:
                best = m
        return best

    def commit(self, on_durable=None) -> None:
        """Batch-commit registry and ack tables."""
        self._subs_table.commit()
        self._released_table.commit(on_durable)

    def crash_reset(self) -> None:
        self._subs_table.crash_reset()
        self._released_table.crash_reset()
        self._subs.clear()
        self._released.clear()
        self._shards.clear()
        self._min_cache.clear()
        self._next_num = 0
        self.version += 1
        self._load()
