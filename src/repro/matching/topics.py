"""Topic (subject) matching on top of the content predicate language.

JMS-style applications address events by hierarchical topic strings
such as ``trades.nyse.IBM``.  A topic subscription pattern supports the
conventional wildcards:

* ``*`` matches exactly one segment,
* ``#`` (only as the final segment) matches zero or more segments.

Topics are carried in the reserved event attribute ``"topic"`` so topic
and content predicates compose freely (e.g. topic pattern AND a price
range).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .predicates import Decomposition, EqAtom, Predicate

#: The reserved attribute carrying an event's topic string.
TOPIC_ATTR = "topic"

SEGMENT_WILDCARD = "*"
TAIL_WILDCARD = "#"


def topic_pattern_matches(pattern: str, topic: str) -> bool:
    """Evaluate a wildcard pattern against a concrete topic string."""
    p_segs = pattern.split(".")
    t_segs = topic.split(".")
    for i, p in enumerate(p_segs):
        if p == TAIL_WILDCARD:
            if i != len(p_segs) - 1:
                raise ValueError(f"'#' only allowed as final segment: {pattern!r}")
            return True
        if i >= len(t_segs):
            return False
        if p != SEGMENT_WILDCARD and p != t_segs[i]:
            return False
    return len(p_segs) == len(t_segs)


@dataclass(frozen=True)
class Topic(Predicate):
    """A subscription predicate over the event's topic attribute."""

    pattern: str

    def __post_init__(self) -> None:
        segs = self.pattern.split(".")
        if not all(segs):
            raise ValueError(f"empty segment in topic pattern {self.pattern!r}")
        if TAIL_WILDCARD in segs[:-1]:
            raise ValueError(f"'#' only allowed as final segment: {self.pattern!r}")

    @property
    def is_literal(self) -> bool:
        """True when the pattern contains no wildcards."""
        return SEGMENT_WILDCARD not in self.pattern and TAIL_WILDCARD not in self.pattern

    def matches(self, attributes: Mapping[str, Any]) -> bool:
        topic = attributes.get(TOPIC_ATTR)
        if not isinstance(topic, str):
            return False
        return topic_pattern_matches(self.pattern, topic)

    def decompose(self) -> Decomposition:
        # Literal topics are plain equalities; wildcard patterns stay
        # opaque (segment matching is not an attribute atom).
        if self.is_literal:
            return (EqAtom(TOPIC_ATTR, frozenset((self.pattern,))),), None
        return (), self
