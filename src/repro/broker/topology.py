"""Overlay topology builders.

Figure 3 of the paper shows the evaluation topologies: a single broker
(publisher and subscribers on one machine), a 2-broker network (PHB +
SHB), and 2-SHB / 4-SHB networks; the latency experiment uses a 5-hop
chain.  These builders assemble the corresponding broker trees, create
the pubends, wire the links and perform the release-protocol child
registration the aggregators require.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.release import EarlyReleasePolicy
from ..net.link import Link
from ..net.node import Node
from ..net.simtime import Scheduler
from ..storage.disk import SimDisk
from ..util.errors import ConfigurationError
from .base import Broker
from .intermediate import IntermediateBroker
from .phb import PublisherHostingBroker
from .shb import SubscriberHostingBroker


@dataclass
class Overlay:
    """A built broker overlay plus its bookkeeping."""

    scheduler: Scheduler
    phb: PublisherHostingBroker
    shbs: List[SubscriberHostingBroker] = field(default_factory=list)
    intermediates: List[IntermediateBroker] = field(default_factory=list)
    links: List[Link] = field(default_factory=list)
    #: Brokers removed from the tree by :func:`detach_broker`.  Kept
    #: (rather than dropped) so the oracles can still audit their
    #: final durable state after a drain.
    retired: List[Broker] = field(default_factory=list)

    @property
    def pubend_names(self) -> List[str]:
        return sorted(self.phb.pubends)

    @property
    def trees(self) -> List["Overlay"]:
        """A single tree is the forest of one (see :class:`Federation`)."""
        return [self]

    def all_brokers(self) -> List[Broker]:
        return [self.phb, *self.intermediates, *self.shbs]

    def shb_by_name(self, name: str) -> SubscriberHostingBroker:
        for shb in self.shbs:
            if shb.name == name:
                return shb
        raise ConfigurationError(f"no SHB named {name}")

    def broker_by_name(self, name: str) -> Broker:
        for broker in self.all_brokers():
            if broker.name == name:
                return broker
        raise ConfigurationError(f"no broker named {name}")

    def parent_of(self, broker: Broker) -> Optional[Broker]:
        if broker.parent_name is None:
            return None
        return self.broker_by_name(broker.parent_name)

    def link_between(self, parent: Broker, child: Broker) -> Link:
        """The link whose endpoints are these two brokers' nodes.

        Prefers a live link; falls back to a severed one (a detach must
        find the link even if a fault already cut it).
        """
        found: Optional[Link] = None
        for link in self.links:
            ends = (link.a_to_b.sender, link.a_to_b.receiver)
            if ends in ((parent.node, child.node), (child.node, parent.node)):
                if not link.down:
                    return link
                found = link
        if found is not None:
            return found
        raise ConfigurationError(f"no link {parent.name} <-> {child.name}")


def _register_release_children(overlay: Overlay) -> None:
    """Register every downstream link as a release-aggregation child."""
    for pubend in overlay.pubend_names:
        for child in overlay.phb.child_names:
            overlay.phb.register_release_child(pubend, child)
        for broker in overlay.intermediates:
            for child in broker.child_names:
                broker.register_release_child(pubend, child)


def build_two_broker(
    scheduler: Scheduler,
    pubends: List[str],
    policy: Optional[EarlyReleasePolicy] = None,
    batch_window_ms: float = 0.0,
    **shb_kwargs: object,
) -> Overlay:
    """The paper's 2-broker network: one PHB directly feeding one SHB."""
    return build_star(
        scheduler, pubends, n_shbs=1, policy=policy,
        batch_window_ms=batch_window_ms, **shb_kwargs,
    )


def build_star(
    scheduler: Scheduler,
    pubends: List[str],
    n_shbs: int,
    policy: Optional[EarlyReleasePolicy] = None,
    batch_window_ms: float = 0.0,
    **shb_kwargs: object,
) -> Overlay:
    """One PHB with ``n_shbs`` SHB children (the scalability topologies).

    ``batch_window_ms`` configures batching on every broker link *and*
    on the SHBs (whose client links inherit it); 0 keeps the unbatched
    per-message paths everywhere.
    """
    if n_shbs < 1:
        raise ConfigurationError("need at least one SHB")
    return build_tree(
        scheduler, pubends, [n_shbs], policy=policy,
        batch_window_ms=batch_window_ms, **shb_kwargs,
    )


def build_chain(
    scheduler: Scheduler,
    pubends: List[str],
    n_intermediates: int,
    policy: Optional[EarlyReleasePolicy] = None,
    batch_window_ms: float = 0.0,
    **shb_kwargs: object,
) -> Overlay:
    """PHB → k intermediates → SHB (the 5-hop latency topology uses k=3:
    publisher→PHB, three broker hops, SHB→subscriber are the 5 hops)."""
    return build_tree(
        scheduler, pubends, [1] * (n_intermediates + 1), policy=policy,
        batch_window_ms=batch_window_ms, **shb_kwargs,
    )


def build_single_broker(
    scheduler: Scheduler,
    pubends: List[str],
    policy: Optional[EarlyReleasePolicy] = None,
    batch_window_ms: float = 0.0,
    **shb_kwargs: object,
) -> Overlay:
    """The paper's 1-broker network: PHB and SHB roles on one machine.

    Both roles share a single :class:`~repro.net.node.Node` and a
    single disk, connected by a loopback link with negligible latency.
    The node gets a modest speed bump over a plain SHB: the testbed
    machines were 6-way SMPs, so publisher-side work overlaps with
    delivery work across processors instead of strictly serializing
    behind it as a single service queue would — this is what lets the
    paper observe that "the capacity of the 1 SHB network is similar to
    the 1 broker network".
    """
    node = Node(scheduler, "broker1", speed=1.35)
    disk = SimDisk(scheduler, "broker1-disk")
    shb_kwargs.setdefault("batch_window_ms", batch_window_ms)
    phb = PublisherHostingBroker(scheduler, "phb", node=node, disk=disk)
    for pubend in pubends:
        phb.create_pubend(pubend, policy=policy)
    shb = SubscriberHostingBroker(
        scheduler, "shb1", pubends, node=node, disk=disk, **shb_kwargs
    )
    overlay = Overlay(scheduler, phb, shbs=[shb])
    overlay.links.append(
        Broker.connect(phb, shb, latency_ms=0.05, batch_window_ms=batch_window_ms)
    )
    _register_release_children(overlay)
    return overlay


def build_tree(
    scheduler: Scheduler,
    pubends: List[str],
    fanout: List[int],
    policy: Optional[EarlyReleasePolicy] = None,
    batch_window_ms: float = 0.0,
    **shb_kwargs: object,
) -> Overlay:
    """A uniform tree: PHB → fanout[0] intermediates → ... → SHB leaves.

    ``fanout`` gives the branching at each internal level; the last
    level's children are SHBs.  ``build_tree(s, ps, [2, 2])`` yields a
    PHB, 2 intermediates and 4 SHBs.
    """
    if not fanout:
        raise ConfigurationError("fanout must have at least one level")
    shb_kwargs.setdefault("batch_window_ms", batch_window_ms)
    phb = PublisherHostingBroker(scheduler, "phb")
    for pubend in pubends:
        phb.create_pubend(pubend, policy=policy)
    overlay = Overlay(scheduler, phb)
    frontier: List[Broker] = [phb]
    for level, width in enumerate(fanout):
        is_leaf_level = level == len(fanout) - 1
        next_frontier: List[Broker] = []
        for parent in frontier:
            for j in range(width):
                if is_leaf_level:
                    name = f"shb{len(overlay.shbs) + 1}"
                    child: Broker = SubscriberHostingBroker(
                        scheduler, name, pubends, **shb_kwargs
                    )
                    overlay.shbs.append(child)  # type: ignore[arg-type]
                else:
                    name = f"ib{len(overlay.intermediates) + 1}"
                    child = IntermediateBroker(scheduler, name)
                    overlay.intermediates.append(child)  # type: ignore[arg-type]
                overlay.links.append(
                    Broker.connect(parent, child, batch_window_ms=batch_window_ms)
                )
                next_frontier.append(child)
        frontier = next_frontier
    _register_release_children(overlay)
    return overlay


# ----------------------------------------------------------------------
# Dynamic topology: incremental attach / detach on a running overlay
# ----------------------------------------------------------------------
def attach_shb(
    overlay: Overlay,
    name: str,
    parent: Optional[Broker] = None,
    batch_window_ms: float = 0.0,
    **shb_kwargs: object,
) -> SubscriberHostingBroker:
    """Admit a new SHB under ``parent`` (default: the PHB) mid-run.

    Before wiring, the fresh SHB is fast-forwarded to each pubend's
    current dissemination point (it hosts no subscriptions, so it owes
    no history to anyone) — otherwise its head gap check would nack the
    entire past the moment knowledge starts flowing.  The parent's
    release aggregator registers the new child, which holds the release
    aggregate until the newcomer's first report arrives — a stall, never
    an unsafe release.
    """
    parent = parent if parent is not None else overlay.phb
    shb_kwargs.setdefault("batch_window_ms", batch_window_ms)
    shb = SubscriberHostingBroker(
        overlay.scheduler, name, overlay.pubend_names, **shb_kwargs,
    )
    shb.fast_forward(
        {p: overlay.phb.pubends[p].disseminated for p in overlay.pubend_names}
    )
    overlay.shbs.append(shb)
    overlay.links.append(
        Broker.connect(parent, shb, batch_window_ms=batch_window_ms)
    )
    for pubend in overlay.pubend_names:
        parent.register_release_child(pubend, shb.name)  # type: ignore[union-attr]
    return shb


def attach_intermediate(
    overlay: Overlay,
    name: str,
    parent: Optional[Broker] = None,
    batch_window_ms: float = 0.0,
) -> IntermediateBroker:
    """Admit a new (childless) intermediate under ``parent`` mid-run."""
    parent = parent if parent is not None else overlay.phb
    mid = IntermediateBroker(overlay.scheduler, name)
    overlay.intermediates.append(mid)
    overlay.links.append(
        Broker.connect(parent, mid, batch_window_ms=batch_window_ms)
    )
    # Cold until its first sync, sent now: a childless intermediate
    # announces a wildcard (IntermediateBroker._upstream_set).
    parent.child_filter_ready[mid.name] = False
    for pubend in overlay.pubend_names:
        parent.register_release_child(pubend, mid.name)  # type: ignore[union-attr]
    mid._refresh_upstream()
    return mid


def _sever_uplink(overlay: Overlay, parent: Broker, broker: Broker) -> None:
    """The wiring-level cut shared by detach and reparent: sever the
    link, forget both sides' wiring, drop the child from the parent's
    release aggregation (whose pinned minimum would otherwise freeze
    release for the whole tree) and purge per-child relay state."""
    link = overlay.link_between(parent, broker)
    link.sever()
    overlay.links.remove(link)
    parent.unwire_child(broker.name)
    broker.unwire_parent()
    for pubend in overlay.pubend_names:
        parent.unregister_release_child(pubend, broker.name)  # type: ignore[union-attr]
    if isinstance(parent, IntermediateBroker):
        parent.forget_child(broker.name)
        parent._resend_release()


def detach_broker(overlay: Overlay, broker: Broker) -> None:
    """Remove a (quiesced) leaf broker from the tree permanently.

    The caller is responsible for the protocol-level drain — an SHB
    must host no subscriptions, an intermediate no children; this is
    the wiring-level removal (:func:`_sever_uplink`).  The broker
    object moves to ``overlay.retired`` so oracles can still audit its
    final durable state.
    """
    if isinstance(broker, SubscriberHostingBroker) and len(broker.registry):
        raise ConfigurationError(
            f"{broker.name} still hosts subscriptions; migrate them first"
        )
    if broker.child_names:
        raise ConfigurationError(
            f"{broker.name} still has children; reparent them first"
        )
    parent = overlay.parent_of(broker)
    if parent is None:
        raise ConfigurationError(f"{broker.name} has no parent to detach from")
    _sever_uplink(overlay, parent, broker)
    if isinstance(broker, SubscriberHostingBroker):
        overlay.shbs.remove(broker)
    else:
        overlay.intermediates.remove(broker)  # type: ignore[arg-type]
    overlay.retired.append(broker)


def reparent_broker(
    overlay: Overlay,
    broker: Broker,
    new_parent: Broker,
    batch_window_ms: float = 0.0,
) -> Link:
    """Move ``broker`` (and its whole subtree) under ``new_parent``.

    Used when draining an intermediate: its children hop up to the
    grandparent.  The old uplink is severed and both sides unwired;
    the new link's restore hooks plus the child's eager
    ``_on_uplink_restored``-style resync (triggered here explicitly)
    re-warm the new parent's filter union and release state.
    """
    old_parent = overlay.parent_of(broker)
    if old_parent is not None:
        _sever_uplink(overlay, old_parent, broker)
    new_link = Broker.connect(new_parent, broker, batch_window_ms=batch_window_ms)
    overlay.links.append(new_link)
    # The new parent's union for this child starts *empty* but wiring
    # marks it warm — it would D→S-filter every event the subtree's
    # existing subscriptions are owed until the refresh lands.  Cold
    # passes knowledge unfiltered (correct, merely unoptimized) until
    # the child's epoch sync below warms it.
    new_parent.child_filter_ready[broker.name] = False
    for pubend in overlay.pubend_names:
        new_parent.register_release_child(pubend, broker.name)  # type: ignore[union-attr]
    # Eager resync toward the new parent: refresh the subscription
    # union, re-report release floors, re-nack outstanding curiosity.
    broker._on_uplink_restored()
    return new_link


# ----------------------------------------------------------------------
# Scale topologies: wide/deep forests of PHB-rooted trees
# ----------------------------------------------------------------------
@dataclass
class Federation:
    """A forest of PHB-rooted trees sharing one scheduler.

    The dissemination tree is single-parent (every broker has exactly
    one uplink), so "multiple PHBs" is necessarily a *forest*: one tree
    per PHB, each owning a disjoint set of pubends.  Redundant paths
    live inside each tree as childless **spare** intermediates — warm
    standbys a subtree can be moved onto with :func:`reparent_broker`
    when a link or an intermediate fails.
    """

    scheduler: Scheduler
    trees: List[Overlay] = field(default_factory=list)
    #: Childless standby intermediates, per tree index and level
    #: (1-based): redundant-path failover targets for that level's
    #: subtrees.
    spares: Dict[Tuple[int, int], List[IntermediateBroker]] = field(
        default_factory=dict
    )

    @property
    def shbs(self) -> List[SubscriberHostingBroker]:
        return [shb for tree in self.trees for shb in tree.shbs]

    @property
    def pubend_names(self) -> List[str]:
        return sorted(p for tree in self.trees for p in tree.pubend_names)

    @property
    def retired(self) -> List[Broker]:
        return [b for tree in self.trees for b in tree.retired]

    def all_brokers(self) -> List[Broker]:
        return [b for tree in self.trees for b in tree.all_brokers()]

    def shb_by_name(self, name: str) -> SubscriberHostingBroker:
        for tree in self.trees:
            for shb in tree.shbs:
                if shb.name == name:
                    return shb
        raise ConfigurationError(f"no SHB named {name}")

    def broker_by_name(self, name: str) -> Broker:
        for tree in self.trees:
            for broker in tree.all_brokers():
                if broker.name == name:
                    return broker
        raise ConfigurationError(f"no broker named {name}")

    def tree_of(self, broker: Broker) -> Overlay:
        for tree in self.trees:
            if broker in tree.all_brokers() or broker in tree.retired:
                return tree
        raise ConfigurationError(f"{broker.name} belongs to no tree")

    def fail_over(self, broker: Broker, spare: IntermediateBroker) -> Link:
        """Move ``broker``'s subtree onto a spare (redundant-path failover)."""
        tree = self.tree_of(broker)
        for level_spares in self.spares.values():
            if spare in level_spares:
                level_spares.remove(spare)
                break
        return reparent_broker(tree, broker, spare)


def build_deep_overlay(
    scheduler: Scheduler,
    n_trees: int = 1,
    pubends_per_tree: int = 1,
    fanout: Sequence[int] = (2,),
    shbs_per_leaf: int = 2,
    spares_per_level: int = 0,
    policy: Optional[EarlyReleasePolicy] = None,
    batch_window_ms: float = 0.0,
    **shb_kwargs: object,
) -> Federation:
    """A parameterized wide/deep forest, grown with the attach APIs.

    Each of ``n_trees`` trees is rooted at its own PHB (``phb1``,
    ``phb2``, ...) owning ``pubends_per_tree`` disjoint pubends
    (``p<tree>.<k>``).  ``fanout`` gives the branching at each
    intermediate level; every leaf-level intermediate then carries
    ``shbs_per_leaf`` SHBs.  ``fanout=()`` hangs the SHBs directly off
    the PHB (a star per tree).

    ``spares_per_level`` attaches that many *childless* intermediates
    at each level (round-robin over the level's parents): redundant
    paths that filter nothing (each announces a wildcard) until a
    failover moves a subtree onto them via :meth:`Federation.fail_over`.

    ``build_deep_overlay(s, n_trees=2, fanout=(2, 3), shbs_per_leaf=4)``
    yields 2 trees × (1 PHB + 2 + 6 intermediates + 24 SHBs).  The
    whole forest is grown through :func:`attach_intermediate` /
    :func:`attach_shb` — the same code path a live join takes — so
    generated topologies exercise exactly the supervised-join wiring.
    """
    if n_trees < 1:
        raise ConfigurationError("need at least one tree")
    if shbs_per_leaf < 1:
        raise ConfigurationError("need at least one SHB per leaf")
    federation = Federation(scheduler)
    for k in range(n_trees):
        tag = f"t{k + 1}" if n_trees > 1 else ""
        phb = PublisherHostingBroker(
            scheduler, f"phb{k + 1}" if n_trees > 1 else "phb"
        )
        for j in range(pubends_per_tree):
            name = f"p{k + 1}.{j + 1}" if n_trees > 1 else f"p{j + 1}"
            phb.create_pubend(name, policy=policy)
        tree = Overlay(scheduler, phb)
        federation.trees.append(tree)
        prefix = f"{tag}." if tag else ""
        frontier: List[Broker] = [phb]
        for level, width in enumerate(fanout):
            next_frontier: List[Broker] = []
            for parent in frontier:
                for _ in range(width):
                    mid = attach_intermediate(
                        tree, f"{prefix}ib{len(tree.intermediates) + 1}",
                        parent=parent, batch_window_ms=batch_window_ms,
                    )
                    next_frontier.append(mid)
            for m in range(spares_per_level):
                spare = attach_intermediate(
                    tree, f"{prefix}spare{level + 1}.{m + 1}",
                    parent=frontier[m % len(frontier)],
                    batch_window_ms=batch_window_ms,
                )
                federation.spares.setdefault((k, level + 1), []).append(spare)
            frontier = next_frontier
        for parent in frontier:
            for _ in range(shbs_per_leaf):
                attach_shb(
                    tree, f"{prefix}shb{len(tree.shbs) + 1}",
                    parent=parent, batch_window_ms=batch_window_ms,
                    **shb_kwargs,
                )
    return federation


def place_durable_subscribers(
    federation: Federation,
    n_subscribers: int,
    predicates: Sequence[object],
    seed: int = 0,
    prefix: str = "sub",
) -> Dict[str, List[str]]:
    """Deterministically place ``n_subscribers`` durable subscriptions.

    Each subscription ``{prefix}{i}`` is registered *headless* (no
    client session — see
    :meth:`SubscriberHostingBroker.register_durable`) at a seeded
    random SHB with a seeded random predicate from ``predicates``.
    Placement depends only on ``(seed, n_subscribers, len(predicates),
    SHB order)``, so two runs over identically built federations place
    identically.  Returns ``{shb name: [sub ids]}``.
    """
    shbs = federation.shbs
    if not shbs:
        raise ConfigurationError("federation has no SHBs")
    rng = random.Random(f"placement:{seed}")
    placed: Dict[str, List[str]] = {shb.name: [] for shb in shbs}
    n_shbs = len(shbs)
    n_preds = len(predicates)
    for i in range(n_subscribers):
        shb = shbs[rng.randrange(n_shbs)]
        predicate = predicates[rng.randrange(n_preds)]
        sub_id = f"{prefix}{i}"
        shb.register_durable(sub_id, predicate)
        placed[shb.name].append(sub_id)
    return placed
