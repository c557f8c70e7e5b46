"""TickMap: the in-memory representation of one knowledge stream.

Conceptually a knowledge stream assigns a :class:`~repro.core.ticks.Tick`
to *every* integer timestamp.  A :class:`TickMap` stores that total
function compactly:

* an L *prefix*: every tick below :attr:`lost_below` is lost,
* a set of D points, each carrying its event,
* an :class:`~repro.util.intervals.IntervalSet` of all known (S or D)
  ticks — S ticks are the known ticks that are not D points,
* everything else is Q.

Accumulation is monotone (see :mod:`repro.core.ticks`): Q→{S,D,L}; a
D arriving for a tick recorded as S *upgrades* it (an upstream filter
union can classify a tick S for one stream while a finer downstream
refiltering reveals the event — the map keeps the stronger fact and
counts the upgrade for diagnostics).  An S arriving for a known D is
ignored for the same reason.

The map also implements the two cursor-style queries every stream
needs: the *doubt horizon* ("highest timestamp such that all ticks up
to it are not Q", Section 4.1) and ordered run iteration for in-order
delivery.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..util.intervals import Interval, IntervalSet
from .events import Event
from .messages import KnowledgeUpdate
from .ticks import Tick


@dataclass(frozen=True)
class Run:
    """A maximal run of consecutive ticks with the same kind.

    ``event`` is set only for D runs, which always have length 1
    (timestamps are fine-grained enough that no two events share one).
    """

    start: int
    end: int
    kind: Tick
    event: Optional[Event] = None

    def __len__(self) -> int:
        return self.end - self.start + 1


class TickMap:
    """Compact storage for one knowledge stream's tick assignments."""

    def __init__(self, lost_below: int = 0) -> None:
        self._known = IntervalSet()  # S and D ticks at/above the L prefix
        self._d: Dict[int, Event] = {}
        self._d_times: List[int] = []  # sorted
        self._lost_below = lost_below
        self.s_over_d_conflicts = 0
        self.d_over_s_upgrades = 0

    # ------------------------------------------------------------------
    # Accumulation (monotone)
    # ------------------------------------------------------------------
    def set_d(self, t: int, event: Event) -> bool:
        """Record an event at tick ``t``.  Returns True if new knowledge."""
        if t < self._lost_below:
            return False  # already released; stale information
        if t in self._d:
            return False  # idempotent re-delivery
        if t in self._known:
            self.d_over_s_upgrades += 1  # S being refined to D
        else:
            self._known.add(t)
        self._d[t] = event
        bisect.insort(self._d_times, t)
        return True

    def set_s(self, start: int, end: int) -> None:
        """Record silence for every tick in ``[start, end]``.

        Ticks already known as D keep their event; ticks below the L
        prefix are ignored.
        """
        start = max(start, self._lost_below)
        if start > end:
            return
        # Count (for diagnostics) D points that an S assertion covers.
        lo = bisect.bisect_left(self._d_times, start)
        hi = bisect.bisect_right(self._d_times, end)
        if lo < hi:
            self.s_over_d_conflicts += hi - lo
        self._known.add(start, end)

    def set_lost_below(self, t: int) -> None:
        """Extend the L prefix: every tick ``< t`` becomes lost.

        Knowledge below the new prefix is discarded (it can never be
        queried as anything but L again).
        """
        if t <= self._lost_below:
            return
        self._lost_below = t
        self._known.chop_below(t)
        cut = bisect.bisect_left(self._d_times, t)
        for old in self._d_times[:cut]:
            del self._d[old]
        del self._d_times[:cut]

    def absorb(self, update: KnowledgeUpdate) -> None:
        """Fold a knowledge update into the map (idempotent, monotone)."""
        for _start, end in update.l_ranges:
            # L is globally a prefix of time (the release protocol only
            # converts prefixes), so an L range extends the prefix.
            self.set_lost_below(end + 1)
        for start, end in update.s_ranges:
            self.set_s(start, end)
        for event in update.d_events:
            self.set_d(event.timestamp, event)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def lost_below(self) -> int:
        return self._lost_below

    def kind(self, t: int) -> Tick:
        """The tick kind assigned to timestamp ``t``."""
        if t < self._lost_below:
            return Tick.L
        if t in self._d:
            return Tick.D
        if t in self._known:
            return Tick.S
        return Tick.Q

    def event_at(self, t: int) -> Optional[Event]:
        return self._d.get(t)

    def doubt_horizon(self, base: int) -> int:
        """Highest ``h >= base`` such that no tick in ``(base, h]`` is Q."""
        h = base
        if h + 1 < self._lost_below:
            h = self._lost_below - 1
        iv = self._known.interval_containing(h + 1)
        if iv is not None:
            h = iv.end
        return h

    def max_known(self) -> int:
        """The largest non-Q tick (or ``lost_below - 1`` if none)."""
        if self._known:
            return self._known.max()
        return self._lost_below - 1

    def unknown_within(self, start: int, end: int) -> IntervalSet:
        """The Q ticks inside ``[start, end]`` — what a nack asks for."""
        start = max(start, self._lost_below)
        if start > end:
            return IntervalSet()
        return self._known.complement_within(start, end)

    def events_between(self, start: int, end: int) -> List[Event]:
        """All D events with ``start <= t <= end``, ascending."""
        lo = bisect.bisect_left(self._d_times, start)
        hi = bisect.bisect_right(self._d_times, end)
        return [self._d[t] for t in self._d_times[lo:hi]]

    def runs_between(self, start: int, end: int) -> Iterator[Run]:
        """Yield maximal same-kind runs covering ``[start, end]`` in order.

        D runs are single ticks with their event attached; Q runs are
        included so a delivery loop can stop at the first one and a
        catchup stream can turn them into nacks.
        """
        if start > end:
            return
        cursor = start
        if cursor < self._lost_below:
            l_end = min(end, self._lost_below - 1)
            yield Run(cursor, l_end, Tick.L)
            cursor = l_end + 1
        if cursor > end:
            return
        for iv in self._known.intersect_span(cursor, end):
            if iv.start > cursor:
                yield Run(cursor, iv.start - 1, Tick.Q)
            yield from self._runs_within_known(iv, max_end=end)
            cursor = iv.end + 1
        if cursor <= end:
            yield Run(cursor, end, Tick.Q)

    def take_resolved(self, base: int, limit: Optional[int] = None) -> List[Run]:
        """Consume ``(base, min(doubt_horizon(base), limit)]`` in one pass.

        Returns that span's L/S/D runs in order and forgets every tick
        at or below its end — the same runs and the same map afterwards
        as :meth:`doubt_horizon` + :meth:`runs_between` +
        :meth:`forget_below`, without the temporary interval set and
        the second walk.  By the doubt horizon's definition the span
        is the L prefix above ``base`` followed by (part of) the one
        known interval that starts where the prefix ends, so a single
        walk over that interval's D points covers it.  Nothing is
        assumed about the map below ``base``: whatever is still stored
        there goes out with the same chop.  Returns ``[]`` and leaves
        the map alone when nothing above ``base`` is resolved.
        """
        runs: List[Run] = []
        top = self.max_known()  # the horizon can never lie above it
        if limit is None or limit > top:
            limit = top
        if limit <= base:
            return runs
        cursor = base + 1
        if cursor < self._lost_below:
            l_end = min(self._lost_below - 1, limit)
            runs.append(Run(cursor, l_end, Tick.L))
            cursor = l_end + 1
            if cursor > limit:
                return runs
        iv = self._known.interval_containing(cursor)
        if iv is None:
            return runs
        end = min(iv.end, limit)
        times = self._d_times
        pop_event = self._d.pop
        lo = bisect.bisect_left(times, cursor)
        hi = bisect.bisect_right(times, end, lo)
        for t in times[lo:hi]:
            if t > cursor:
                runs.append(Run(cursor, t - 1, Tick.S))
            runs.append(Run(t, t, Tick.D, pop_event(t)))
            cursor = t + 1
        if cursor <= end:
            runs.append(Run(cursor, end, Tick.S))
        for t in times[:lo]:
            pop_event(t)
        del times[:hi]
        self._known.chop_below(end + 1)
        return runs

    def _runs_within_known(self, iv: Interval, max_end: int) -> Iterator[Run]:
        """Split one known interval into alternating S runs and D points."""
        cursor = iv.start
        lo = bisect.bisect_left(self._d_times, iv.start)
        hi = bisect.bisect_right(self._d_times, iv.end)
        for t in self._d_times[lo:hi]:
            if t > cursor:
                yield Run(cursor, t - 1, Tick.S)
            yield Run(t, t, Tick.D, self._d[t])
            cursor = t + 1
        if cursor <= min(iv.end, max_end):
            yield Run(cursor, iv.end, Tick.S)

    def classify_within(
        self, start: int, end: int
    ) -> "tuple[List[Event], List[tuple[int, int]], List[tuple[int, int]], IntervalSet]":
        """Bucket ``[start, end]`` into ``(d_events, s_ranges, l_ranges, q_set)``.

        The shape a cache-serving broker needs to answer a nack: the D
        events to ship, maximal (already coalesced) S and L ranges, and
        the Q remainder it must ask upstream about.  Built from
        :meth:`runs_between`, so each contiguous run of silence is one
        range, not one per tick.
        """
        d_events: List[Event] = []
        s_ranges: List[tuple[int, int]] = []
        l_ranges: List[tuple[int, int]] = []
        q_set = IntervalSet()
        for run in self.runs_between(start, end):
            if run.kind is Tick.D:
                d_events.append(run.event)  # type: ignore[arg-type]
            elif run.kind is Tick.S:
                s_ranges.append((run.start, run.end))
            elif run.kind is Tick.L:
                l_ranges.append((run.start, run.end))
            else:
                q_set.add(run.start, run.end)
        return d_events, s_ranges, l_ranges, q_set

    def answer(
        self, pubend: str, ranges: IntervalSet, refilter_below: int = 0
    ) -> Tuple[KnowledgeUpdate, IntervalSet]:
        """Answer a nack for ``ranges`` from this map as a cache.

        Returns ``(reply, unresolved)``: the coalesced knowledge the map
        holds for those ticks, and the ticks it must ask upstream about
        — its Q ticks plus every tick below ``refilter_below``.  Those
        are never cache-served: a cache's S ticks were filtered under a
        subscription union that may not include the (roaming)
        requester, so only the pubend may answer them.
        """
        reply = KnowledgeUpdate(pubend)
        unresolved = IntervalSet()
        for iv in ranges:
            cacheable_start = max(iv.start, refilter_below)
            if cacheable_start > iv.start:
                unresolved.add(iv.start, min(iv.end, cacheable_start - 1))
            if cacheable_start > iv.end:
                continue
            d_events, s_ranges, l_ranges, q_set = self.classify_within(
                cacheable_start, iv.end
            )
            reply.d_events.extend(d_events)
            reply.s_ranges.extend(s_ranges)
            reply.l_ranges.extend(l_ranges)
            unresolved.update(q_set)
        reply.coalesce()
        return reply, unresolved

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def keep_span(self, span: int) -> None:
        """Bound a cache: forget ticks more than ``span`` below the newest."""
        floor = self.max_known() - span
        if floor > 0:
            self.forget_below(floor)

    def forget_below(self, t: int) -> None:
        """Drop storage for ticks below ``t`` *without* declaring them L.

        Used once a consumer's cursor has passed ``t``; queries below
        the cursor are the caller's bug, and would now read Q.
        """
        self._known.chop_below(t)
        cut = bisect.bisect_left(self._d_times, t)
        for old in self._d_times[:cut]:
            del self._d[old]
        del self._d_times[:cut]

    @property
    def d_count(self) -> int:
        return len(self._d)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TickMap L<{self._lost_below} known={self._known.as_tuples()!r} "
            f"d={len(self._d)}>"
        )
