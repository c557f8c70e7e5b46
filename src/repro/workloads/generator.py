"""Workload generation for the paper's evaluation scenarios.

Section 5.1: *"The input event rate in all topologies is 800 events/s,
distributed equally over 4 pubends, and subscriptions are such that
each subscriber receives 200 events/s."*

The standard construction: events carry a ``group`` attribute cycling
over ``n_groups`` values; a subscriber subscribing to
``groups_per_sub`` groups receives ``input_rate × groups_per_sub /
n_groups`` events per second.  The paper's parameters (800 ev/s,
4 groups, 1 group per subscriber) give exactly 200 ev/s per subscriber
and ``n = subscribers / 4`` matches per event — which is also what
makes the PFS record 25× smaller than per-subscriber event logging at
100 subscribers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from ..broker.phb import PublisherHostingBroker
from ..broker.shb import SubscriberHostingBroker
from ..client.publisher import PeriodicPublisher
from ..client.subscriber import DurableSubscriber
from ..matching.predicates import In, Predicate
from ..port import Clock


@dataclass(frozen=True)
class PaperWorkloadSpec:
    """The Section 5.1 workload knobs, defaulting to the paper's values."""

    input_rate: float = 800.0       # events/s across all pubends
    n_pubends: int = 4
    n_groups: int = 4
    groups_per_sub: int = 1
    payload_bytes: int = 250        # 418 bytes on the wire with headers

    @property
    def per_pubend_rate(self) -> float:
        return self.input_rate / self.n_pubends

    @property
    def per_subscriber_rate(self) -> float:
        return self.input_rate * self.groups_per_sub / self.n_groups

    def pubend_names(self) -> List[str]:
        return [f"P{i + 1}" for i in range(self.n_pubends)]

    def subscriber_predicate(self, index: int) -> Predicate:
        """Groups assigned round-robin so load is even across groups."""
        groups = [(index + k) % self.n_groups for k in range(self.groups_per_sub)]
        return In("group", groups)


def make_publishers(
    scheduler: Clock,
    phb: PublisherHostingBroker,
    spec: PaperWorkloadSpec,
) -> List[PeriodicPublisher]:
    """One steady-rate publisher per pubend; groups cycle per pubend.

    Publisher phases are staggered so the aggregate arrival process is
    smooth rather than batched.
    """
    publishers = []
    for i, pubend in enumerate(spec.pubend_names()):
        def attr_fn(seq: int, base: int = i) -> Dict[str, object]:
            return {"group": (seq + base) % spec.n_groups}

        pub = PeriodicPublisher(
            scheduler, phb, pubend, spec.per_pubend_rate, attr_fn,
            payload_bytes=spec.payload_bytes,
        )
        interval = 1000.0 / spec.per_pubend_rate
        pub.start(first_delay_ms=interval * (i + 1) / (spec.n_pubends + 1))
        publishers.append(pub)
    return publishers


class ChurnSchedule:
    """Independent periodic disconnect/reconnect churn (Section 5.1).

    *"each subscriber independently disconnects every 300s, remains
    disconnected for 5s (so it misses 1000 events), and then
    reconnects."*  First disconnects are staggered uniformly across the
    period so, at scale, there is nearly always some subscriber in
    catchup — the paper notes that with 348 subscribers at least one is
    always catching up.
    """

    def __init__(
        self,
        scheduler: Clock,
        subscribers: Sequence[DurableSubscriber],
        shb_of: Callable[[DurableSubscriber], SubscriberHostingBroker],
        period_ms: float = 300_000.0,
        down_ms: float = 5_000.0,
        start_after_ms: float = 5_000.0,
    ) -> None:
        self.scheduler = scheduler
        self.shb_of = shb_of
        self.period_ms = period_ms
        self.down_ms = down_ms
        self.disconnects = 0
        self.reconnects = 0
        self._stopped = False
        n = max(1, len(subscribers))
        for i, sub in enumerate(subscribers):
            offset = start_after_ms + (i * period_ms) / n
            scheduler.after(offset, self._disconnect, sub)

    def stop(self) -> None:
        self._stopped = True

    def _disconnect(self, sub: DurableSubscriber) -> None:
        if self._stopped:
            return
        if sub.connected:
            sub.disconnect()
            self.disconnects += 1
        self.scheduler.after(self.down_ms, self._reconnect, sub)

    def _reconnect(self, sub: DurableSubscriber) -> None:
        if self._stopped:
            return
        shb = self.shb_of(sub)
        if not sub.connected and not shb.node.is_down:
            sub.connect(shb)
            self.reconnects += 1
        self.scheduler.after(self.period_ms - self.down_ms, self._disconnect, sub)
