"""Link matching: which child links want this event?

A PHB or intermediate broker filters every knowledge update toward each
of its child links: a D tick that matches no subscription below a link
is sent there as S.  Asking each link separately repeats the same
match once per child.  Gryphon's brokers instead *link-match*: one
match of the event against the union of all downstream subscriptions,
annotated with the links that want it (Banavar et al., "An Efficient
Multicast Protocol for Content-Based Publish-Subscribe Systems",
ICDCS 1999).

Here that is one :class:`LinkIndex` per broker: a single
:class:`~repro.matching.counting.CountingMatcher` whose keys are
``(link bit, signature)``.  Each child link's union is a
:class:`LinkUnion` — its ``sub_id -> predicate`` map, digest and
:class:`~repro.matching.aggregate.SubscriptionAggregate` — and the
aggregate registers only its covering antichain in the shared matcher.
Covering and parking therefore stay per link; only the index is
shared.  :meth:`LinkIndex.links_of_batch` answers, per event, the
bitmask of links with at least one matching subscription.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional, Sequence, Tuple

from .aggregate import SubscriptionAggregate
from .counting import CountingMatcher
from .engine import SubscriptionSet
from .predicates import Atom, Predicate


class LinkUnion(SubscriptionSet):
    """The union of every subscription below one child link.

    A member of its broker's :class:`LinkIndex`: ``bit`` is the link's
    bit in :meth:`LinkIndex.links_of_batch` masks.
    """

    def __init__(self, matcher: CountingMatcher, bit: int) -> None:
        super().__init__()
        self.bit = bit
        self._aggregate = SubscriptionAggregate(matcher, bit)

    def _index(
        self, sub_id: str, predicate: Predicate,
        atoms: Tuple[Atom, ...], residual: Optional[Predicate],
    ) -> None:
        self._aggregate.add(sub_id, atoms, residual)

    def _unindex(self, sub_id: str) -> None:
        self._aggregate.remove(sub_id)

    def accepts_all(self) -> bool:
        """True when a wildcard subscription is below the link, so every
        event passes and per-event filtering can be skipped outright."""
        return self._aggregate.accepts_all()

    @property
    def aggregate_signatures(self) -> int:
        """Deduplicated subscription signatures below the link."""
        return self._aggregate.signature_count

    @property
    def aggregate_active(self) -> int:
        """Signatures registered in the link index (the covering
        antichain); the rest are absorbed by broader ones."""
        return self._aggregate.active_count


class LinkIndex:
    """One counting index over every child link's active signatures."""

    def __init__(self) -> None:
        self.matcher = CountingMatcher()
        self._bits_used = 0
        #: :meth:`links_of_batch` calls: one per classified update.
        self.classifications = 0

    def new_union(self) -> LinkUnion:
        """An empty union on the lowest free link bit."""
        bit = ~self._bits_used & (self._bits_used + 1)
        self._bits_used |= bit
        return LinkUnion(self.matcher, bit)

    def drop_union(self, union: LinkUnion) -> None:
        """Take ``union``'s signatures out of the index and free its bit."""
        union.replace_all({})
        self._bits_used &= ~union.bit

    def links_of_batch(self, batch: Sequence[Mapping[str, Any]]) -> List[int]:
        """Per event, the OR of the bits of every link with a matching
        subscription."""
        self.classifications += 1
        masks: List[int] = []
        for keys in self.matcher.match_batch(batch):
            mask = 0
            for bit, _signature in keys:
                mask |= bit
            masks.append(mask)
        return masks
