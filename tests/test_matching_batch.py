"""Differential property suite for the matching engine's one path.

The engine matches streams: ``match_batch``, ``matches_any_batch`` and
``match_at_batch`` are the algorithm, and ``match`` / ``matches_any`` /
``match_at`` are the batch of one over the same matcher caches.  These tests
drive seeded subscription churn (adds, removes, bulk refreshes)
interleaved with event batches, asserting after every step
that all six entry points agree with the naive model (evaluate every
predicate tree per event).

Churn matters because it is exactly what invalidates the matcher's
caches (probe cache, signature memo): a stale entry surviving an
add/remove is the bug class this suite exists to catch.  The predicate
generator covers the decomposable forms (equality, membership, ranges),
the opaque ones (``Or`` mixing attributes, negated ``Exists``), and
``Nothing()`` — the NeverAtom corner, whose atom indexes nowhere and
must never surface from a batch.

The link-matching section drives union churn — immediate adds, which
only widen (duplicates included), full sets, which also narrow, and
digest mismatches that turn a link cold — through a PHB's own
subscription intake over five child links (a wildcard link, an opaque-residual
link with unhashable predicates among them, an empty link, a link
mixing broad ``Eq`` predicates with narrower conjunctions over them,
and a mixed one).  After every step, the mask of
``LinkIndex.links_of_batch`` must equal the OR of the bits of the links
with a matching predicate, the index must hold one key per distinct
signature some link holds and count
every predicate some link holds, every union's digest must equal its
from-scratch digest (also across a
cleared compiled-predicate memo), and each child's filtered update
must equal a naive per-child reference for warm, cold and
``keep_below`` children, with children that keep the same events
sharing one instance that delivery leaves unchanged.

Batch sizes {1, 7, 64} cover the degenerate single-event batch, a
size that straddles churn boundaries, and one larger than most event
streams between churn steps (forcing ragged final chunks).  The quick
tests run one seed per batch size; the full sweep across every
(seed, batch size) pair is ``@pytest.mark.soak``.
"""

from __future__ import annotations

import copy
import random
from typing import Dict

import pytest

from repro.broker.base import Broker
from repro.broker.intermediate import IntermediateBroker
from repro.broker.phb import PublisherHostingBroker
from repro.core import messages as M
from repro.core.events import Event
from repro.matching import engine as engine_mod
from repro.matching.engine import MatchingEngine, compiled, union_digest
from repro.matching.predicates import (
    And, Between, Eq, Everything, Exists, Gt, In, Ne, Nothing, Or,
    Predicate, Prefix,
)
from repro.matching.topics import Topic
from repro.metrics.trace import SPAN_PHB_FORWARD
from repro.net.simtime import Scheduler

BATCH_SIZES = [1, 7, 64]
SEEDS = [13, 52, 907]
N_STEPS = 80


def _random_predicate(rng: random.Random) -> Predicate:
    """Every predicate family, weighted toward the hot decomposable
    forms but with the opaque and NeverAtom corners always in play."""
    roll = rng.random()
    if roll < 0.20:
        return Eq("g", rng.randrange(6))
    if roll < 0.34:
        return In("g", rng.sample(range(6), rng.randrange(1, 4)))
    if roll < 0.44:
        return Gt("x", rng.randrange(8))
    if roll < 0.52:
        return Between("x", rng.randrange(4), rng.randrange(4, 9))
    if roll < 0.66:
        return And(
            [Eq("g", rng.randrange(6)), Between("x", rng.randrange(4), rng.randrange(4, 9))]
        )
    if roll < 0.72:
        return Or([Eq("g", rng.randrange(6)), Gt("x", rng.randrange(8))])  # opaque
    if roll < 0.78:
        return Ne("g", rng.randrange(6))
    if roll < 0.82:
        return Prefix("sym", rng.choice(["IBM", "MS", "A"]))
    if roll < 0.86:
        return Topic(rng.choice(["a.b", "a.*", "a.#", "b.c"]))
    if roll < 0.90:
        return Exists("opt")
    if roll < 0.93:
        return ~Exists("opt")  # opaque Not
    if roll < 0.96:
        return Everything()
    return Nothing()  # NeverAtom: indexed nowhere, matches nothing


def _random_event(rng: random.Random) -> Dict[str, object]:
    attrs: Dict[str, object] = {
        "g": rng.randrange(7),
        "x": rng.randrange(10),
        "sym": rng.choice(["IBM.N", "MSFT", "AAPL", ""]),
        "_topic": rng.choice(["a.b", "a.b.c", "b.c", "a"]),
    }
    if rng.random() < 0.3:
        attrs["opt"] = rng.randrange(3)
    if rng.random() < 0.1:
        attrs["g"] = None
    if rng.random() < 0.05:
        attrs["x"] = [1, 2]  # unhashable: must bypass the probe cache
    return attrs


def _churn_step(rng: random.Random, eng: MatchingEngine, model: Dict[str, Predicate]) -> None:
    op = rng.random()
    if op < 0.55 or not model:
        sid = f"s{rng.randrange(40)}"
        pred = _random_predicate(rng)
        eng.add(sid, pred)
        model[sid] = pred
    elif op < 0.85:
        sid = rng.choice(list(model))
        eng.remove(sid)
        del model[sid]
    else:
        staged = dict(model)
        for sid in list(staged):
            r = rng.random()
            if r < 0.15:
                del staged[sid]
            elif r < 0.3:
                staged[sid] = _random_predicate(rng)
        staged[f"s{rng.randrange(40)}"] = _random_predicate(rng)
        # A bulk refresh: every delta applied between two batches.
        for sid in [s for s in model if s not in staged]:
            eng.remove(sid)
        for sid, pred in staged.items():
            if model.get(sid) is not pred:
                eng.add(sid, pred)
        model.clear()
        model.update(staged)


def _drive(seed: int, batch_size: int, n_steps: int) -> None:
    rng = random.Random(seed)
    eng, model = MatchingEngine(), {}
    for step in range(n_steps):
        _churn_step(rng, eng, model)
        batch = [_random_event(rng) for _ in range(batch_size)]
        tag = f"seed={seed} bs={batch_size} step={step}"

        naive = [_model_match(model, attrs) for attrs in batch]
        naive_any = [bool(expected) for expected in naive]
        ids = [f"p:{step}:{i}" for i in range(batch_size)]
        assert eng.match_batch(batch) == naive, f"{tag}: match_batch"
        assert [eng.match(attrs) for attrs in batch] == naive, f"{tag}: match"
        assert eng.matches_any_batch(batch) == naive_any, f"{tag}: matches_any_batch"
        assert [eng.matches_any(attrs) for attrs in batch] == naive_any, (
            f"{tag}: matches_any"
        )
        # First half through match_at, then the whole batch (hits for
        # that half, misses for the rest) through match_at_batch.
        half = batch_size // 2
        assert [eng.match_at(i, a) for i, a in zip(ids[:half], batch)] == naive[:half], (
            f"{tag}: match_at"
        )
        assert eng.match_at_batch(list(zip(ids, batch))) == naive, f"{tag}: match_at_batch"


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_equals_single_under_churn(batch_size):
    _drive(SEEDS[0], batch_size, N_STEPS)


@pytest.mark.soak
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_batch_equals_single_full_sweep(seed, batch_size):
    _drive(seed, batch_size, 4 * N_STEPS)


def _warm_engine(seed: int, steps: int):
    rng = random.Random(seed)
    eng, model = MatchingEngine(), {}
    for _ in range(steps):
        _churn_step(rng, eng, model)
    return rng, eng, model


def _model_match(model: Dict[str, Predicate], attrs) -> frozenset:
    """The naive model: evaluate every predicate tree."""
    return frozenset(sid for sid, p in model.items() if p.matches(attrs))


def test_single_event_calls_share_the_batch_caches():
    """One implementation: ``match`` is the batch of one, so an event
    shape a batch has already probed costs a single call two cache hits
    per indexed attribute and no index work at all."""
    eng = MatchingEngine()
    eng.add("narrow", And([Eq("g", 1), Gt("x", 5)]))
    eng.add("broad", Eq("g", 2))
    events = [{"g": g, "x": x} for g in range(3) for x in (1, 9)]
    eng.match_batch(events)
    for attrs in events:
        before = (eng.atoms_examined, eng.probe_cache_hits, eng.sig_memo_hits)
        eng.match(dict(attrs))
        assert eng.atoms_examined == before[0]
        assert eng.probe_cache_hits == before[1] + 2  # g and x are both indexed
        assert eng.sig_memo_hits == before[2] + 1
    assert eng.events_processed == eng.batch_events == 2 * len(events)
    # ...and a registry change empties both caches for every entry point.
    eng.add("late", Eq("g", 0))
    before = eng.atoms_examined
    assert eng.match(events[0]) == {"late"}
    assert eng.atoms_examined > before


def test_match_at_batch_equals_match_at():
    """``match_at_batch`` and ``match_at`` both return what the model
    says, whichever of the two saw an event first."""
    rng, eng, model = _warm_engine(SEEDS[2], 20)
    events = [(f"p:{i}", _random_event(rng)) for i in range(30)]
    expected = [_model_match(model, attrs) for _, attrs in events]
    assert [eng.match_at(eid, attrs) for eid, attrs in events[:10]] == expected[:10]
    assert eng.match_at_batch(events) == expected


def test_never_atom_only_engine_batches_empty():
    """An engine holding only ``Nothing()`` subscriptions: the batch
    path must surface no keys (NeverAtom indexes nowhere) while an
    ``Everything()`` arriving mid-stream flips every later answer."""
    eng = MatchingEngine()
    eng.add("never1", Nothing())
    eng.add("never2", And([Eq("g", 1), Nothing()]))
    batch = [{"g": 1}, {"g": 2}]
    assert eng.match_batch(batch) == [set(), set()]
    assert eng.matches_any_batch(batch) == [False, False]
    eng.add("all", Everything())
    assert eng.match_batch(batch) == [{"all"}, {"all"}]
    assert eng.matches_any_batch(batch) == [True, True]


# ---------------------------------------------------------------------------
# Link matching: one classification per update for every child link
# ---------------------------------------------------------------------------
#: The children of the PHB under test, by the shape of their union.
LINKS = ("wild", "opaque", "empty", "parked", "mixed")


def _link_predicate(rng: random.Random, link: str) -> Predicate:
    if link == "opaque":  # every signature is residual-only
        return rng.choice([
            Or([Eq("g", rng.randrange(6)), Gt("x", rng.randrange(8))]),
            ~Exists("opt"),
            Eq("x", [1, 2]),  # unhashable: a signature private to its sub
        ])
    if link == "parked":  # narrow conjunctions next to the Eq("g", k) they refine
        if rng.random() < 0.2:
            return Eq("g", rng.randrange(3))
        return And([Eq("g", rng.randrange(3)), Between("x", rng.randrange(4), rng.randrange(4, 9))])
    return _random_predicate(rng)


def _link_phb():
    """A PHB with one intermediate child per entry of :data:`LINKS`;
    the children have no uplink to send on, so no subscription refresh
    of theirs disturbs the model."""
    sim = Scheduler()
    phb = PublisherHostingBroker(sim, "phb")
    for link in LINKS:
        child = IntermediateBroker(sim, link)
        Broker.connect(phb, child)
        child.unwire_parent()
    return sim, phb


def _random_update(rng: random.Random, base: int):
    """Ticks ``base .. base+11`` as D, S, L or unknown; S and L runs are
    sometimes split into single ticks so filtering has to coalesce."""
    update = M.KnowledgeUpdate("P1")
    for t in range(base, base + 12):
        roll = rng.random()
        if roll < 0.55:
            update.d_events.append(Event("P1", t, _random_event(rng)))
        else:
            ranges = update.s_ranges if roll < 0.85 else update.l_ranges
            if ranges and ranges[-1][1] == t - 1 and rng.random() < 0.5:
                ranges[-1] = (ranges[-1][0], t)
            elif roll < 0.95:
                ranges.append((t, t))
    return update


def _naive_filtered(update, predicates, warm: bool, keep_below: int):
    """The per-child reference: evaluate every predicate below the link."""
    if not warm:
        return update
    out = M.KnowledgeUpdate(
        update.pubend, s_ranges=list(update.s_ranges), l_ranges=list(update.l_ranges)
    )
    for event in update.d_events:
        t = event.timestamp
        if t < keep_below or any(p.matches(event.attributes) for p in predicates):
            out.d_events.append(event)
        else:
            out.s_ranges.append((t, t))
    return out.coalesce()


def _held_signatures(phb, model: Dict[str, Dict[bytes, Predicate]]) -> set:
    """The distinct signatures some link holds, as one set; an
    unhashable predicate's key is private to its link."""
    held = set()
    for link, members in model.items():
        bit = phb.child_engines[link].bit
        for pred in members.values():
            rec = compiled(pred)
            held.add(rec.signature or ("sub", bit, rec.canonical))
    return held


def _drive_links(seed: int, n_steps: int) -> None:
    rng = random.Random(seed)
    sim, phb = _link_phb()
    # link -> canonical bytes -> predicate: each link's set
    model: Dict[str, Dict[bytes, Predicate]] = {link: {} for link in LINKS}
    warm = {link: True for link in LINKS}
    epoch = {link: 0 for link in LINKS}
    wild = Everything()

    def full_set(link: str, staged: Dict[bytes, Predicate]) -> None:
        epoch[link] += 1
        phb._handle_from_child(
            link, M.SubscriptionSync(epoch[link], predicates=tuple(staged.values()))
        )
        model[link] = dict(staged)
        warm[link] = True

    def add(link: str, pred: Predicate) -> None:
        phb._handle_from_child(link, M.SubscriptionAdd(pred))
        model[link].setdefault(compiled(pred).canonical, pred)

    add("wild", wild)
    for k in range(3):
        add("parked", Eq("g", k))

    for step in range(n_steps):
        tag = f"seed={seed} step={step}"
        for link in LINKS:
            if link == "empty":
                continue
            op = rng.random()
            members = model[link]
            if op < 0.45 or not members:
                add(link, _link_predicate(rng, link))
            elif op < 0.6:
                # A duplicated or late immediate add: only ever widens.
                add(link, rng.choice(list(members.values())))
            elif op < 0.92 or not warm[link]:
                staged = {
                    k: p for k, p in members.items() if p is wild or rng.random() < 0.8
                }
                pred = _link_predicate(rng, link)
                staged[compiled(pred).canonical] = pred
                full_set(link, staged)  # narrows too; re-warms a cold link
            else:
                # A digest that disagrees with the parent's copy: the
                # link goes cold until the next full set.
                epoch[link] += 1
                phb._handle_from_child(link, M.SubscriptionSync(
                    epoch[link], count=len(members),
                    digest=phb.child_engines[link].digest ^ 1,
                ))
                warm[link] = False
            assert phb.child_filter_ready[link] is warm[link], f"{tag}: {link} warmth"

        update = _random_update(rng, 1 + 12 * step)
        attrs = [e.attributes for e in update.d_events]

        # Index level: bit c of the mask is "any predicate below c
        # matches", and the index holds each distinct signature once.
        masks = phb.links.links_of_batch(attrs)
        naive_masks = [0] * len(attrs)
        for link in LINKS:
            bit = phb.child_engines[link].bit
            for i, a in enumerate(attrs):
                if any(p.matches(a) for p in model[link].values()):
                    naive_masks[i] |= bit
        assert masks == naive_masks, f"{tag}: link masks"
        assert len(phb.links.matcher) == len(_held_signatures(phb, model)), f"{tag}: index keys"
        held = set().union(*(members.keys() for members in model.values()))
        assert phb.links.members.keys() == held, f"{tag}: members"
        digests = {link: phb.child_engines[link].digest for link in LINKS}
        for link in LINKS:
            assert phb.child_engines[link].keys() == model[link].keys(), f"{tag}: {link}"
            assert digests[link] == union_digest(model[link].values()), f"{tag}: {link} digest"
        if step % 10 == 5:
            # A cold compiled-predicate memo changes no answer and no digest.
            engine_mod._compiled.clear()
            assert phb.links.links_of_batch(attrs) == masks, f"{tag}: masks after clear"
            assert {link: phb.child_engines[link].digest for link in LINKS} == digests

        # Broker level: each child's update equals the naive reference.
        before = phb.links.classifications
        mid = update.d_events[len(update.d_events) // 2].timestamp if update.d_events else 0
        keep_below = {link: rng.choice([0, 0, mid, 2**40]) for link in LINKS}
        links = phb._link_filter(update)
        outs = {link: links.for_child(link, keep_below=keep_below[link]) for link in LINKS}
        assert phb.links.classifications - before <= 1, f"{tag}: one classification"
        kept_of = {}
        for link in LINKS:
            ref = _naive_filtered(update, model[link].values(), warm[link], keep_below[link])
            assert outs[link] == ref, f"{tag}: {link} filtered update"
            if warm[link]:
                kept_of[link] = tuple(
                    e.timestamp < keep_below[link]
                    or any(p.matches(e.attributes) for p in model[link].values())
                    for e in update.d_events
                )
        # Children keeping the same events of the same input share one
        # instance, and delivering it changes nothing.
        for a in kept_of:
            for b in kept_of:
                if kept_of[a] == kept_of[b]:
                    assert outs[a] is outs[b], f"{tag}: {a} and {b} not shared"
        snapshots = {id(out): (out, copy.deepcopy(out)) for out in outs.values()}
        for link in LINKS:
            if not outs[link].is_empty():
                phb._forward(link, outs[link], 0.01, sim.now, SPAN_PHB_FORWARD)
        sim.run_until(sim.now + 10.0)
        for out, snapshot in snapshots.values():
            assert out == snapshot, f"{tag}: a delivered update was mutated"


def test_link_matching_equals_naive_per_link_under_churn():
    _drive_links(SEEDS[0], N_STEPS)


@pytest.mark.soak
@pytest.mark.parametrize("seed", list(range(24)))
def test_link_matching_full_sweep(seed):
    _drive_links(1_000 + seed, 4 * N_STEPS)
