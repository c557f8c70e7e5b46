"""Closed integer interval sets.

Timestamps in the stream protocol are integers ("time ticks", see
Section 2 of the paper), and nearly every protocol component reasons
about *ranges* of ticks: knowledge streams hold ranges of S/L ticks,
curiosity streams track ranges that need to be nacked, catchup streams
track ranges still to be recovered, and the release protocol chops
prefixes of ranges.

:class:`IntervalSet` is the shared representation: a normalized,
sorted, non-overlapping, non-adjacent list of closed intervals
``[start, end]`` over ``int``.  All mutating operations keep the
normal form, and all operations are ``O(k log n)`` or better where *k*
is the number of touched intervals.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple


@dataclass(frozen=True, order=True)
class Interval:
    """A closed integer interval ``[start, end]`` with ``start <= end``."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"empty interval [{self.start}, {self.end}]")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def __contains__(self, t: int) -> bool:
        return self.start <= t <= self.end

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share at least one tick."""
        return self.start <= other.end and other.start <= self.end

    def adjacent_or_overlaps(self, other: "Interval") -> bool:
        """True when the union of the two intervals is a single interval."""
        return self.start <= other.end + 1 and other.start <= self.end + 1

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """The overlap of the two intervals, or None when disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.end + 1))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.start},{self.end}]"


class IntervalSet:
    """A set of integers stored as sorted disjoint closed intervals.

    The empty set is falsy.  Iteration yields :class:`Interval` objects
    in ascending order.  Instances are mutable; use :meth:`copy` to
    snapshot.
    """

    __slots__ = ("_ivs", "_count")

    def __init__(self, intervals: Iterable[Tuple[int, int]] = ()) -> None:
        self._ivs: List[Interval] = []
        self._count = 0  # total ticks, maintained incrementally
        for start, end in intervals:
            self.add(start, end)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def single(cls, t: int) -> "IntervalSet":
        """The set containing exactly one tick."""
        return cls([(t, t)])

    @classmethod
    def span(cls, start: int, end: int) -> "IntervalSet":
        """The set containing every tick in ``[start, end]``."""
        return cls([(start, end)])

    def copy(self) -> "IntervalSet":
        out = IntervalSet()
        out._ivs = list(self._ivs)
        out._count = self._count
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self._ivs)

    def __len__(self) -> int:
        """Number of disjoint intervals (not the number of ticks)."""
        return len(self._ivs)

    def tick_count(self) -> int:
        """Total number of integer ticks contained in the set (O(1))."""
        return self._count

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._ivs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._ivs == other._ivs

    def __hash__(self) -> int:  # pragma: no cover - sets are mutable
        raise TypeError("IntervalSet is unhashable")

    def __contains__(self, t: int) -> bool:
        return self.interval_containing(t) is not None

    def min(self) -> int:
        """Smallest tick in the set (raises on empty)."""
        if not self._ivs:
            raise ValueError("empty IntervalSet has no minimum")
        return self._ivs[0].start

    def max(self) -> int:
        """Largest tick in the set (raises on empty)."""
        if not self._ivs:
            raise ValueError("empty IntervalSet has no maximum")
        return self._ivs[-1].end

    def intervals(self) -> List[Interval]:
        """A snapshot list of the intervals (ascending)."""
        return list(self._ivs)

    def interval_containing(self, t: int) -> Optional[Interval]:
        """The interval that contains tick ``t``, or None."""
        ivs = self._ivs
        if not ivs:
            return None
        last = ivs[-1]
        if t >= last.start:
            # In-order streams ask about the tail: no bisect needed.
            return last if t <= last.end else None
        i = bisect.bisect_right(ivs, t, key=lambda iv: iv.start) - 1
        if i >= 0 and t <= ivs[i].end:
            return ivs[i]
        return None

    def as_tuples(self) -> List[Tuple[int, int]]:
        """``[(start, end), ...]`` — convenient for messages/serialization."""
        return [(iv.start, iv.end) for iv in self._ivs]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, start: int, end: Optional[int] = None) -> None:
        """Insert every tick in ``[start, end]`` (or just ``start``)."""
        if end is None:
            end = start
        elif start > end:
            raise ValueError(f"empty interval [{start}, {end}]")
        ivs = self._ivs
        if not ivs or start > ivs[-1].end + 1:
            # In-order accumulation: the new ticks land past the tail.
            ivs.append(Interval(start, end))
            self._count += end - start + 1
            return
        last = ivs[-1]
        if start >= last.start:
            # ... or extend it (nothing before the tail can be touched).
            if end > last.end:
                ivs[-1] = Interval(last.start, end)
                self._count += end - last.end
            return
        new = Interval(start, end)
        # Find the window of intervals that the new interval merges with.
        lo = bisect.bisect_left(ivs, new.start, key=lambda iv: iv.end + 1)
        hi = bisect.bisect_right(ivs, new.end + 1, lo=lo, key=lambda iv: iv.start)
        replaced = 0
        if lo < hi:
            for iv in ivs[lo:hi]:
                replaced += iv.end - iv.start + 1
            new = Interval(min(new.start, ivs[lo].start), max(new.end, ivs[hi - 1].end))
        ivs[lo:hi] = [new]
        self._count += (new.end - new.start + 1) - replaced

    def update(self, other: "IntervalSet") -> None:
        """In-place union with another set (linear merge-walk)."""
        if not other._ivs:
            return
        if not self._ivs:
            self._ivs = list(other._ivs)
            self._count = other._count
            return
        if len(other._ivs) <= 2:
            # Cheap path for tiny right-hand sides.
            for iv in other._ivs:
                self.add(iv.start, iv.end)
            return
        merged: List[Interval] = []
        count = 0
        i = j = 0
        a, b = self._ivs, other._ivs
        current: Optional[Interval] = None
        while i < len(a) or j < len(b):
            if j >= len(b) or (i < len(a) and a[i].start <= b[j].start):
                nxt = a[i]
                i += 1
            else:
                nxt = b[j]
                j += 1
            if current is None:
                current = nxt
            elif nxt.start <= current.end + 1:
                if nxt.end > current.end:
                    current = Interval(current.start, nxt.end)
            else:
                merged.append(current)
                count += current.end - current.start + 1
                current = nxt
        if current is not None:
            merged.append(current)
            count += current.end - current.start + 1
        self._ivs = merged
        self._count = count

    def remove(self, start: int, end: Optional[int] = None) -> None:
        """Delete every tick in ``[start, end]`` from the set."""
        if end is None:
            end = start
        ivs = self._ivs
        lo = bisect.bisect_left(ivs, start, key=lambda iv: iv.end)
        hi = bisect.bisect_right(ivs, end, lo=lo, key=lambda iv: iv.start)
        if lo >= hi:
            return
        removed = 0
        for iv in ivs[lo:hi]:
            removed += iv.end - iv.start + 1
        replacement: List[Interval] = []
        first, last = ivs[lo], ivs[hi - 1]
        if first.start < start:
            replacement.append(Interval(first.start, start - 1))
        if last.end > end:
            replacement.append(Interval(end + 1, last.end))
        ivs[lo:hi] = replacement
        for iv in replacement:
            removed -= iv.end - iv.start + 1
        self._count -= removed

    def difference_update(self, other: "IntervalSet") -> None:
        """In-place subtraction of another set (linear merge-walk)."""
        if not self._ivs or not other._ivs:
            return
        if len(other._ivs) <= 2:
            # Cheap path for tiny right-hand sides.
            for iv in other._ivs:
                self.remove(iv.start, iv.end)
            return
        b = other._ivs
        out: List[Interval] = []
        count = 0
        j = 0
        for iv in self._ivs:
            cursor = iv.start
            # Skip subtrahend intervals entirely before this interval.
            while j < len(b) and b[j].end < iv.start:
                j += 1
            k = j
            while k < len(b) and b[k].start <= iv.end and cursor <= iv.end:
                if b[k].start > cursor:
                    out.append(Interval(cursor, b[k].start - 1))
                    count += b[k].start - cursor
                cursor = max(cursor, b[k].end + 1)
                k += 1
            if cursor <= iv.end:
                out.append(Interval(cursor, iv.end))
                count += iv.end - cursor + 1
        self._ivs = out
        self._count = count

    def chop_below(self, t: int) -> None:
        """Remove every tick strictly less than ``t``.

        Mirrors the release protocol's prefix truncation.
        """
        ivs = self._ivs
        cut = 0
        for iv in ivs:
            if iv.end >= t:
                break
            self._count -= iv.end - iv.start + 1
            cut += 1
        if cut:
            del ivs[:cut]
        if ivs and ivs[0].start < t:
            first = ivs[0]
            ivs[0] = Interval(t, first.end)
            self._count -= t - first.start

    def clear(self) -> None:
        self._ivs.clear()
        self._count = 0

    # ------------------------------------------------------------------
    # Set algebra (non-mutating)
    # ------------------------------------------------------------------
    def union(self, other: "IntervalSet") -> "IntervalSet":
        out = self.copy()
        out.update(other)
        return out

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        out = self.copy()
        out.difference_update(other)
        return out

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Ticks present in both sets (merge-walk, linear in intervals)."""
        out = IntervalSet()
        a, b = self._ivs, other._ivs
        i = j = 0
        while i < len(a) and j < len(b):
            hit = a[i].intersect(b[j])
            if hit is not None:
                out.add(hit.start, hit.end)
            if a[i].end < b[j].end:
                i += 1
            else:
                j += 1
        return out

    def intersect_span(self, start: int, end: int) -> "IntervalSet":
        """Ticks of this set falling inside ``[start, end]``."""
        out = IntervalSet()
        if start > end:
            return out
        ivs = self._ivs
        lo = bisect.bisect_left(ivs, start, key=lambda iv: iv.end)
        for iv in ivs[lo:]:
            if iv.start > end:
                break
            out.add(max(iv.start, start), min(iv.end, end))
        return out

    def complement_within(self, start: int, end: int) -> "IntervalSet":
        """Ticks of ``[start, end]`` *not* present in this set.

        Used to turn "these ticks are Q" into "everything else is S".
        """
        out = IntervalSet()
        if start > end:
            return out
        cursor = start
        for iv in self.intersect_span(start, end):
            if iv.start > cursor:
                out.add(cursor, iv.start - 1)
            cursor = iv.end + 1
        if cursor <= end:
            out.add(cursor, end)
        return out

    def ticks(self) -> Iterator[int]:
        """Iterate individual ticks in ascending order (use sparingly)."""
        for iv in self._ivs:
            yield from iv

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IntervalSet({self.as_tuples()!r})"


def coalesce_ranges(ranges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Normalize ``(start, end)`` pairs: sort, merge overlap and adjacency.

    The dissemination paths build range lists incrementally (per-tick
    appends when filtering D events down to S for a child, per-interval
    appends when answering nacks), which leaves many adjacent fragments;
    a run of silence then ships as many messages' worth of ranges.
    Coalescing before transmission turns each maximal run back into a
    single ``(start, end)`` pair.  Ticks covered are preserved exactly.
    """
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(ranges):
        if start > end:
            raise ValueError(f"empty range ({start}, {end})")
        if merged and start <= merged[-1][1] + 1:
            last_start, last_end = merged[-1]
            if end > last_end:
                merged[-1] = (last_start, end)
        else:
            merged.append((start, end))
    return merged
