"""Curiosity streams: turning Q ticks into nacks, with consolidation.

Section 3: *"Intermediate knowledge streams serve as caches of data
that increase scalability of recovery, by responding to nacks, and
curiosity streams consolidate nacks from multiple SHBs."*

A :class:`CuriosityStream` tracks the tick ranges its owner *wants*
(is curious about), emits nacks for them through a caller-supplied
send function, and retries on a timer until the knowledge arrives.
Retry pacing is what prevents a storm of duplicate nacks: a range that
has been nacked recently is not re-nacked until ``retry_ms`` passes.

Consolidation across multiple downstream requesters (the intermediate
broker's job) is provided by :class:`NackConsolidator`, which remembers
which downstream links asked for which ranges so replies can be routed
back, while forwarding each range upstream only once per retry window.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional

from ..port.clock import Clock, PeriodicTimerHandle
from ..util.intervals import IntervalSet

if TYPE_CHECKING:
    from .messages import KnowledgeUpdate


class CuriosityStream:
    """Tracks wanted tick ranges for one pubend and emits paced nacks.

    Re-nack pacing hardens against lossy links: when the same ranges
    keep being re-nacked without progress (the retry *streak*), the
    retry interval grows by ``backoff_factor`` per streak step up to
    ``backoff_max_ms``, optionally jittered by up to ``jitter_ms`` (to
    de-synchronize recovering streams), and once the streak exceeds
    ``retry_budget`` further re-nacks are suppressed until knowledge
    for a tracked range actually arrives.  The defaults (factor 1.0,
    no jitter, no budget) reproduce the fixed-interval behavior
    exactly, draw no random numbers, and leave healthy-run transcripts
    untouched.
    """

    def __init__(
        self,
        scheduler: Clock,
        pubend: str,
        send_nack: Callable[[IntervalSet], None],
        poll_ms: float = 20.0,
        retry_ms: float = 1000.0,
        backoff_factor: float = 1.0,
        backoff_max_ms: Optional[float] = None,
        jitter_ms: float = 0.0,
        retry_budget: Optional[int] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if jitter_ms < 0.0:
            raise ValueError("jitter_ms must be non-negative")
        self.scheduler = scheduler
        self.pubend = pubend
        self._send_nack = send_nack
        self.poll_ms = poll_ms
        self.retry_ms = retry_ms
        self.backoff_factor = backoff_factor
        self.backoff_max_ms = (
            backoff_max_ms if backoff_max_ms is not None else retry_ms * 8.0
        )
        self.jitter_ms = jitter_ms
        self.retry_budget = retry_budget
        self._rng = rng
        self._wanted = IntervalSet()
        # Recently-nacked ranges, kept in two generations rotated every
        # ``retry_ms``: a range is suppressed for between one and two
        # retry periods after its nack.  Two normalized sets make the
        # re-nack check two set differences regardless of how many
        # nacks were sent — this is on the critical path of mass
        # catchup with hundreds of concurrent streams.
        self._gen_cur = IntervalSet()
        self._gen_prev = IntervalSet()
        self._rotated_at = scheduler.now
        self._rotation_interval = retry_ms
        self._dirty = True  # something changed since the last poll
        self._timer: Optional[PeriodicTimerHandle] = None
        # Ranges nacked at least once and not yet resolved: a due range
        # intersecting this set is a *retry*, which advances the streak.
        self._renacked = IntervalSet()
        self._retry_streak = 0
        self.nacks_sent = 0
        self.ticks_nacked = 0
        self.ranges_nacked = 0  # interval fragments across all nacks
        self.renacks = 0  # nacks that repeated an already-nacked range
        self.budget_suppressed = 0  # re-nacks withheld by the retry budget

    # ------------------------------------------------------------------
    # Interest management
    # ------------------------------------------------------------------
    def want(self, start: int, end: int) -> None:
        """Declare curiosity about every tick in ``[start, end]``."""
        self._wanted.add(start, end)
        self._dirty = True
        self._ensure_timer()

    def want_set(self, ranges: IntervalSet) -> None:
        """Declare curiosity about ``ranges``, nacked at once: a catchup
        window must keep pace with a live stream to meet its target."""
        self._wanted.update(ranges)
        self._dirty = True
        if self._wanted:
            self._ensure_timer()
            self.scheduler.post(self.scheduler.now, self._poll)

    def set_want(self, ranges: IntervalSet) -> None:
        """Replace the wanted set wholesale.

        Convenient for owners that recompute their Q gaps from scratch
        (the SHB's head-knowledge gap check): ranges that became known
        since the last call drop out automatically.
        """
        self._wanted = ranges.copy()
        self._dirty = True
        if self._renacked:
            # Ranges that dropped out of the recomputed want set were
            # satisfied some other way — that counts as progress.
            pruned = self._renacked.intersection(self._wanted)
            if pruned.tick_count() != self._renacked.tick_count():
                self._retry_streak = 0
            self._renacked = pruned
        if self._wanted:
            self._ensure_timer()

    def resolve(self, start: int, end: int) -> None:
        """Knowledge for ``[start, end]`` arrived; stop asking for it."""
        self._wanted.remove(start, end)
        self._dirty = True
        if self._renacked and self._renacked.intersection(
            IntervalSet.span(start, end)
        ):
            self._renacked.remove(start, end)
            self._retry_streak = 0  # progress: retries are working again

    def resolve_below(self, t: int) -> None:
        """Everything below ``t`` is resolved (cursor advanced past it)."""
        self._wanted.chop_below(t)
        self._dirty = True
        if self._renacked and self._renacked.min() < t:
            self._renacked.chop_below(t)
            self._retry_streak = 0

    @property
    def outstanding(self) -> IntervalSet:
        """Ranges still wanted (snapshot)."""
        return self._wanted.copy()

    @property
    def outstanding_ticks(self) -> int:
        return self._wanted.tick_count()

    # ------------------------------------------------------------------
    # Nack pacing
    # ------------------------------------------------------------------
    def _ensure_timer(self) -> None:
        if self._timer is None:
            self._timer = self.scheduler.every(self.poll_ms, self._poll, first_delay=0.0)

    def _poll(self) -> None:
        now = self.scheduler.now
        if now - self._rotated_at >= self._rotation_interval:
            self._gen_prev = self._gen_cur
            self._gen_cur = IntervalSet()
            self._rotated_at = now
            self._dirty = True
        if not self._wanted:
            if not self._gen_cur and not self._gen_prev and self._timer is not None:
                self._timer.cancel()
                self._timer = None
            return
        if not self._dirty:
            return
        self._dirty = False
        due = self._wanted.difference(self._gen_cur)
        due.difference_update(self._gen_prev)
        if not due:
            return
        repeats = due.intersection(self._renacked) if self._renacked else IntervalSet()
        if repeats:
            self._retry_streak += 1
            if self.retry_budget is not None and self._retry_streak > self.retry_budget:
                # Budget exhausted: withhold the repeats (fresh curiosity
                # still flows).  Knowledge arriving for a tracked range
                # resets the streak and re-arms retries.
                self.budget_suppressed += 1
                self._gen_cur.update(repeats)
                due.difference_update(repeats)
                if not due:
                    self._rotation_interval = self._next_interval()
                    return
            else:
                self.renacks += 1
        self.nacks_sent += 1
        self.ticks_nacked += due.tick_count()
        self.ranges_nacked += len(due)
        self._gen_cur.update(due)
        self._renacked.update(due)
        self._send_nack(due)
        self._rotation_interval = self._next_interval()

    def _next_interval(self) -> float:
        interval = self.retry_ms
        if self.backoff_factor > 1.0 and self._retry_streak:
            interval = min(
                self.retry_ms * self.backoff_factor**self._retry_streak,
                self.backoff_max_ms,
            )
        if self.jitter_ms > 0.0 and self._rng is not None:
            interval += self._rng.uniform(0.0, self.jitter_ms)
        return interval

    def kick(self) -> None:
        """Forget suppression and re-nack everything outstanding now.

        Called when a severed upstream link is restored: nacks in flight
        on the old connection died with it, so waiting out the retry
        window would only add latency to recovery.
        """
        if not self._wanted:
            return
        self._gen_cur.clear()
        self._gen_prev.clear()
        self._retry_streak = 0
        self._rotation_interval = self.retry_ms
        self._rotated_at = self.scheduler.now
        self._dirty = True
        self._ensure_timer()

    @property
    def coalescing_ratio(self) -> float:
        """Mean ticks carried per transmitted nack range.

        ``IntervalSet`` normalization means a contiguous run of doubt
        ships as one range however it accumulated; this reports how much
        that collapses the wire traffic (1.0 = no coalescing win).
        """
        if self.ranges_nacked == 0:
            return 0.0
        return self.ticks_nacked / self.ranges_nacked

    def close(self) -> None:
        """Stop the nack timer (stream discarded on catchup switchover)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._wanted.clear()
        self._gen_cur.clear()
        self._gen_prev.clear()
        self._renacked.clear()
        self._retry_streak = 0


class NackConsolidator:
    """Consolidates nacks from multiple downstream requesters.

    Used by intermediate brokers and by the SHB itself (whose istream,
    constream-recovery and many catchup streams all generate curiosity
    for the same upstream link).  ``register`` records who asked for
    what; ``to_forward`` computes the portion not already forwarded
    within the retry window; ``route`` answers which requesters care
    about an arriving knowledge range.
    """

    def __init__(self, scheduler: Clock, retry_ms: float = 1000.0) -> None:
        self.scheduler = scheduler
        self.retry_ms = retry_ms
        self._interest: Dict[Hashable, IntervalSet] = {}
        # Two-generation suppression of duplicate upstream forwards
        # (same scheme as CuriosityStream; see there).
        self._fwd_cur = IntervalSet()
        self._fwd_prev = IntervalSet()
        self._rotated_at = scheduler.now
        self.consolidated_ticks = 0
        self.forwarded_ticks = 0

    def register(self, requester: Hashable, ranges: IntervalSet) -> None:
        """Record that ``requester`` wants ``ranges``."""
        self._interest.setdefault(requester, IntervalSet()).update(ranges)

    def to_forward(self, ranges: IntervalSet) -> IntervalSet:
        """The sub-ranges that must be forwarded upstream now.

        Ranges already forwarded within the retry window are suppressed
        (this is the nack consolidation the paper credits for the low
        PHB overhead during mass catchup, Figure 8).
        """
        now = self.scheduler.now
        if now - self._rotated_at >= self.retry_ms:
            self._fwd_prev = self._fwd_cur
            self._fwd_cur = IntervalSet()
            self._rotated_at = now
        asked = ranges.tick_count()
        due = ranges.difference(self._fwd_cur)
        due.difference_update(self._fwd_prev)
        if due:
            self._fwd_cur.update(due)
            self.forwarded_ticks += due.tick_count()
        self.consolidated_ticks += asked - due.tick_count()
        return due

    def interest_of(self, requester: Hashable) -> Optional[IntervalSet]:
        """The ranges ``requester`` is still waiting for (live view)."""
        return self._interest.get(requester)

    def route(self, start: int, end: int) -> List[Hashable]:
        """Requesters whose registered interest intersects ``[start, end]``."""
        span = IntervalSet.span(start, end)
        out = []
        for requester, interest in self._interest.items():
            if interest.intersection(span):
                out.append(requester)
        return out

    def satisfy(self, start: int, end: int) -> None:
        """Knowledge for ``[start, end]`` was delivered to requesters."""
        self.satisfy_set(IntervalSet.span(start, end))

    def satisfy_set(self, ranges: IntervalSet) -> None:
        """Batch form of :meth:`satisfy` — one pass per requester."""
        empty = []
        for requester, interest in self._interest.items():
            interest.difference_update(ranges)
            if not interest:
                empty.append(requester)
        for requester in empty:
            del self._interest[requester]
        # The answered ranges are no longer in flight: a *later* nack
        # for them (a slower requester that registered after the reply
        # passed) must be forwarded, not suppressed.
        self._fwd_cur.difference_update(ranges)
        self._fwd_prev.difference_update(ranges)

    def satisfy_update(self, update: "KnowledgeUpdate") -> None:
        """Every tick ``update`` covers was delivered to requesters.

        With no registered interest and nothing forwarded recently —
        the steady state of in-order dissemination — there is nothing
        to satisfy, and the covered set is never built.
        """
        if not (self._interest or self._fwd_cur or self._fwd_prev):
            return
        covered = IntervalSet(update.s_ranges + update.l_ranges)
        for event in update.d_events:
            covered.add(event.timestamp)
        self.satisfy_set(covered)

    def drop_requester(self, requester: Hashable) -> None:
        self._interest.pop(requester, None)

    def reset_suppression(self) -> None:
        """Forget the forwarded-recently window (upstream link restored).

        Forwards suppressed because "we already asked" are wrong once
        the connection that carried the ask is gone; the next
        :meth:`to_forward` after this sends everything due again.
        """
        self._fwd_cur.clear()
        self._fwd_prev.clear()
        self._rotated_at = self.scheduler.now

    @property
    def pending_requesters(self) -> int:
        return len(self._interest)
