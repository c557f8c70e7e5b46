"""Invariant oracles for the robustness scenarios (``sim/scenario.py``).

Each oracle inspects the *final* state of a run (after the injected
faults, recovery, and convergence) and returns a list of
human-readable violation strings — empty means the invariant held.
The families, matching PROTOCOL.md §7.1:

1. **Exactly-once delivery** — no duplicate event ids, no per-pubend
   timestamp order violations at any subscriber.
2. **Completeness and gap honesty** — a subscriber receives exactly
   the durably-logged events that match its predicate: none missing,
   and none extra (an event the durable log never contained, or one its
   predicate does not match); the scenarios release a tick only after
   *every* subscriber has acked it, so a ``GapMessage`` (an admission
   of loss) is always a violation.
3. **PFS backpointer-chain integrity** — from every live
   ``last_index`` entry, the per-subscriber chain must walk down
   decodable records that all contain the subscriber, with strictly
   decreasing indexes and timestamps, terminating at ⊥ or the chop
   point.
4. **Chop-point agreement** — the PHB event log is never chopped past
   the released bound, the released bound never passes any SHB's
   *committed* latestDelivered, and a PFS chop never passes committed
   latestDelivered + 1.
5. **Monotone knowledge** — the committed latestDelivered sampled
   throughout the run (including across the crash) never regresses,
   and the post-recovery volatile latestDelivered ends at or above
   every committed sample.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..pfs.records import NO_PREVIOUS, PFSRecordBatch, decode_record

__all__ = [
    "KnowledgeMonotonicityProbe",
    "all_shbs",
    "check_all",
    "check_chop_agreement",
    "check_delivery",
    "check_pfs_chains",
]


# ----------------------------------------------------------------------
# 1 + 2: exactly-once, completeness, gap honesty
# ----------------------------------------------------------------------
def check_delivery(
    subscribers: List[object],
    expected_of: Callable[[object], Dict[str, int]],
) -> List[str]:
    """``expected_of(sub)`` maps event id → tick for every durably
    logged event matching ``sub``'s predicate."""
    violations: List[str] = []
    for sub in subscribers:
        if sub.duplicate_events:
            violations.append(
                f"{sub.sub_id}: {sub.duplicate_events} duplicate events"
            )
        if sub.stats.order_violations:
            violations.append(
                f"{sub.sub_id}: {sub.stats.order_violations} order violations"
            )
        if sub.stats.gaps:
            violations.append(
                f"{sub.sub_id}: {sub.stats.gaps} gap messages although every "
                f"released tick was fully acked (ranges "
                f"{sub.stats.gap_ranges[:3]})"
            )
        expected = expected_of(sub)
        missing = sorted(set(expected) - sub.received_event_id_set)
        if missing:
            ticks = sorted(expected[eid] for eid in missing)
            violations.append(
                f"{sub.sub_id}: {len(missing)} durably logged matching "
                f"events never delivered (ticks {ticks[:5]}...)"
            )
        extra = sub.received_event_id_set - set(expected)
        if extra:
            violations.append(
                f"{sub.sub_id}: {len(extra)} delivered events that are not "
                f"durably logged matches (e.g. {sorted(extra)[:3]})"
            )
    return violations


# ----------------------------------------------------------------------
# 3: PFS backpointer-chain integrity
# ----------------------------------------------------------------------
def check_pfs_chains(shb: object) -> List[str]:
    violations: List[str] = []
    for pubend, state in sorted(shb.pfs._pubends.items()):
        stream = state.stream
        if state.durable_next_index > stream.next_index:
            violations.append(
                f"{shb.name}/{pubend}: durable_next_index "
                f"{state.durable_next_index} beyond stream next_index "
                f"{stream.next_index}"
            )
        for num in sorted(state.last_index):
            index = state.last_index[num]
            prev_ts: Optional[int] = None
            hops = 0
            while index != NO_PREVIOUS and index >= stream.chopped_below:
                if index >= stream.next_index:
                    violations.append(
                        f"{shb.name}/{pubend}/sub{num}: chain points at "
                        f"index {index} beyond next_index {stream.next_index}"
                    )
                    break
                try:
                    record = decode_record(stream.read(index))
                except Exception as exc:  # noqa: BLE001 - oracle boundary
                    violations.append(
                        f"{shb.name}/{pubend}/sub{num}: unreadable record "
                        f"at index {index}: {exc!r}"
                    )
                    break
                # The logical chain: the subscriber's ticks within this
                # record, newest to oldest (a row record has one; a
                # columnar batch any number), then the pre-record
                # backpointer.  Timestamps must strictly decrease across
                # the whole walk.
                if isinstance(record, PFSRecordBatch):
                    ticks = [
                        record.timestamps[i]
                        for i in reversed(record.ticks_for(num))
                    ]
                else:
                    ticks = [record.timestamp]
                bad_ts = False
                for t in ticks:
                    if prev_ts is not None and t >= prev_ts:
                        violations.append(
                            f"{shb.name}/{pubend}/sub{num}: non-decreasing "
                            f"timestamp {t} at index {index}"
                        )
                        bad_ts = True
                        break
                    prev_ts = t
                if bad_ts:
                    break
                prev = record.prev_index_of(num)
                if prev is None:
                    violations.append(
                        f"{shb.name}/{pubend}/sub{num}: record at index "
                        f"{index} does not contain the subscriber"
                    )
                    break
                if prev != NO_PREVIOUS and prev >= index:
                    violations.append(
                        f"{shb.name}/{pubend}/sub{num}: backpointer at "
                        f"index {index} does not decrease ({prev})"
                    )
                    break
                index = prev
                hops += 1
                if hops > stream.next_index + 1:
                    violations.append(
                        f"{shb.name}/{pubend}/sub{num}: backpointer cycle"
                    )
                    break
    return violations


# ----------------------------------------------------------------------
# 4: chop-point agreement across event log / PFS / release tables
# ----------------------------------------------------------------------
def all_shbs(overlay: object) -> List[object]:
    """Every SHB the run ever had — live plus retired.

    Dynamic-topology runs detach drained brokers into
    ``overlay.retired``; their final durable state must still satisfy
    every invariant, so the oracles audit them too.
    """
    shbs: List[object] = []
    for tree in overlay.trees:
        shbs.extend(tree.shbs)
        shbs.extend(b for b in tree.retired if hasattr(b, "constreams"))
    return shbs


def check_chop_agreement(overlay: object) -> List[str]:
    violations: List[str] = []
    for tree in overlay.trees:  # each tree checks on its own
        for name, pubend in sorted(tree.phb.pubends.items()):
            released_bound = pubend.lost_below - 1
            log_chop = pubend.log.chopped_below
            if log_chop > released_bound + 1:
                violations.append(
                    f"phb/{name}: event log chopped below {log_chop} but "
                    f"released bound is only {released_bound}"
                )
            for shb in all_shbs(tree):
                if name not in shb.constreams:
                    continue
                committed_ld = shb.constreams[name].committed_latest_delivered
                # The released bound must trail every *live* SHB's durable
                # replay point.  A retired SHB's cursor froze at detach and
                # it will never replay — the tree legitimately releases
                # past it, so only the SHB-local PFS check applies there.
                if shb in tree.shbs and released_bound > committed_ld:
                    violations.append(
                        f"phb/{name}: released bound {released_bound} beyond "
                        f"{shb.name}'s committed latestDelivered {committed_ld}"
                    )
                state = shb.pfs._pubends.get(name)
                if state is not None and state.chopped_from_ts > committed_ld + 1:
                    violations.append(
                        f"{shb.name}/{name}: PFS chopped from "
                        f"{state.chopped_from_ts} beyond committed "
                        f"latestDelivered {committed_ld}"
                    )
    return violations


# ----------------------------------------------------------------------
# 5: monotone knowledge
# ----------------------------------------------------------------------
class KnowledgeMonotonicityProbe:
    """Samples each pubend's *committed* latestDelivered over the run.

    The committed value lives in the SHB's meta table, survives crashes
    by construction, and every put is the max seen so far — so any
    regression between consecutive samples (the crash boundary
    included) is a durability bug.  Sampling reads the committed view
    directly off the table, so it works while the broker is down and
    perturbs nothing.
    """

    def __init__(
        self,
        scheduler: object,
        shb: object,
        pubends: List[str],
        interval_ms: float = 100.0,
    ) -> None:
        self.shb = shb
        self.pubends = list(pubends)
        self.high_water: Dict[str, int] = {p: 0 for p in self.pubends}
        self.violations: List[str] = []
        scheduler.every(interval_ms, self._sample)

    def _sample(self) -> None:
        for pubend in self.pubends:
            value = self.shb.meta_table.get_committed(
                f"latestDelivered:{pubend}", 0
            )
            if value < self.high_water[pubend]:
                self.violations.append(
                    f"{self.shb.name}/{pubend}: committed latestDelivered "
                    f"regressed {self.high_water[pubend]} -> {value}"
                )
            self.high_water[pubend] = max(self.high_water[pubend], value)

    def check_final(self) -> List[str]:
        self._sample()
        violations = list(self.violations)
        for pubend in self.pubends:
            live = (
                self.shb.constreams[pubend].latest_delivered
                if pubend in self.shb.constreams else 0
            )
            if live < self.high_water[pubend]:
                violations.append(
                    f"{self.shb.name}/{pubend}: post-recovery "
                    f"latestDelivered {live} below committed high-water "
                    f"{self.high_water[pubend]}"
                )
        return violations


# ----------------------------------------------------------------------
# Entry point (``Scenario.verdict``)
# ----------------------------------------------------------------------
def check_all(
    overlay: object,
    subscribers: List[object],
    expected_of: Callable[[object], Dict[str, int]],
    probes: Sequence[KnowledgeMonotonicityProbe] = (),
) -> List[str]:
    """Run every oracle family over every SHB the run ever had.

    Retired (drained) SHBs are audited too: their PFS chains must still
    decode and their chop points must still agree with their own frozen
    cursors.
    """
    violations = check_delivery(subscribers, expected_of)
    for shb in all_shbs(overlay):
        violations.extend(check_pfs_chains(shb))
    violations.extend(check_chop_agreement(overlay))
    for probe in probes:
        violations.extend(probe.check_final())
    return violations
