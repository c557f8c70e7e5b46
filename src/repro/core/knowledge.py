"""Knowledge streams: a TickMap plus an in-order consumption cursor.

Every consumer of tick knowledge — the SHB's istream, the consolidated
stream and each catchup stream — follows the same discipline: knowledge
accumulates out of order, but *consumption* is strictly in timestamp
order up to the doubt horizon.  :class:`KnowledgeStream` packages that
pattern: :meth:`accumulate` folds in a :class:`KnowledgeUpdate`,
:meth:`advance` returns the newly-resolved runs in order and moves the
cursor, and consumed storage is forgotten to keep memory bounded.
"""

from __future__ import annotations

from typing import List, Optional

from ..util.intervals import IntervalSet
from .messages import KnowledgeUpdate
from .tickmap import Run, TickMap


class KnowledgeStream:
    """One pubend's knowledge with an in-order consumption cursor.

    ``consumed`` is the timestamp of the last tick handed to the
    consumer; it equals the stream's doubt horizon after every
    :meth:`advance`.
    """

    def __init__(self, pubend: str, consumed: int = 0) -> None:
        self.pubend = pubend
        self.tickmap = TickMap()
        self.consumed = consumed

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def accumulate(self, update: KnowledgeUpdate) -> None:
        """Fold a knowledge update into the map (idempotent, monotone)."""
        if update.pubend != self.pubend:
            raise ValueError(f"update for {update.pubend} on stream {self.pubend}")
        self.tickmap.absorb(update)

    def accumulate_silence(self, start: int, end: int) -> None:
        self.tickmap.set_s(start, end)

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    @property
    def doubt_horizon(self) -> int:
        """Highest tick with everything in ``(consumed, tick]`` known."""
        return self.tickmap.doubt_horizon(self.consumed)

    @property
    def frontier(self) -> int:
        """The largest tick the stream knows anything about."""
        return max(self.tickmap.max_known(), self.consumed)

    def unknown_up_to(self, end: int) -> IntervalSet:
        """Q ranges between the cursor and ``end`` — nack candidates."""
        return self.tickmap.unknown_within(self.consumed + 1, end)

    def advance(self, limit: Optional[int] = None) -> List[Run]:
        """Consume every newly-resolved run, in order, up to ``limit``.

        Returns the consumed runs (D runs carry their events; S and L
        runs are coalesced).  The cursor moves to the end of the last
        returned run; consumed storage is forgotten.  One pass over the
        map (:meth:`TickMap.take_resolved`), which assumes nothing
        about what is stored at or below the cursor.
        """
        runs = self.tickmap.take_resolved(self.consumed, limit)
        if runs:
            self.consumed = runs[-1].end
        return runs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KnowledgeStream {self.pubend} consumed={self.consumed} dh={self.doubt_horizon}>"
