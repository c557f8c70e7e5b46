"""Model-based property test for the counting matcher.

The :class:`MatchingEngine` is a compact encoding of a simple object —
a map ``sub_id -> Predicate`` queried by "which entries match this
event" (``match``) and "does any entry match" (``matches_any``).  The
naive model holds the same map in a plain dict and answers both by
evaluating every predicate tree.  Each test drives the real engine and
the model through the same randomized churn (adds, replaces, removes,
bulk refreshes) and checks full agreement after every
step, against a stream of randomized events.

This exercises the machinery the unit tests can't reach exhaustively:
atom interning/refcounting across shared predicates and sorted-bound-list
maintenance under removal.
Randomness comes from an explicitly seeded ``random.Random`` so
failures replay exactly; the seeds are part of the test matrix.
"""

from __future__ import annotations

import random
from typing import Dict

import pytest

from repro.matching.engine import MatchingEngine
from repro.matching.predicates import (
    And, Between, Eq, Everything, Exists, Gt, In, Le, Ne, Nothing, Or,
    Predicate, Prefix,
)
from repro.matching.topics import Topic

SEEDS = [7, 42, 1001]
N_STEPS = 300
EVENTS_PER_CHECK = 6


def _random_predicate(rng: random.Random) -> Predicate:
    """Draw from every predicate form, weighted toward conjunctions."""
    roll = rng.random()
    if roll < 0.18:
        return Eq("g", rng.randrange(6))
    if roll < 0.32:
        return In("g", rng.sample(range(6), rng.randrange(1, 4)))
    if roll < 0.44:
        return Gt("x", rng.randrange(8))
    if roll < 0.52:
        return Between("x", rng.randrange(4), rng.randrange(4, 9))
    if roll < 0.68:
        return And(
            [Eq("g", rng.randrange(6)), Between("x", rng.randrange(4), rng.randrange(4, 9))]
        )
    if roll < 0.74:
        return Or([Eq("g", rng.randrange(6)), Eq("g", rng.randrange(6))])
    if roll < 0.80:
        return Or([Eq("g", rng.randrange(6)), Gt("x", rng.randrange(8))])  # opaque
    if roll < 0.85:
        return Ne("g", rng.randrange(6))
    if roll < 0.89:
        return Prefix("sym", rng.choice(["IBM", "MS", "A"]))
    if roll < 0.92:
        return Topic(rng.choice(["a.b", "a.*", "a.#", "b.c"]))
    if roll < 0.95:
        return Exists("opt")
    if roll < 0.97:
        return ~Exists("opt")  # opaque Not
    if roll < 0.99:
        return Everything()
    return Nothing()


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
        attrs["g"] = None  # the pre-PR engine's blind spot
    return attrs


def _check_agreement(eng: MatchingEngine, model: Dict[str, Predicate], rng, tag: str) -> None:
    assert len(eng) == len(model)
    for _ in range(EVENTS_PER_CHECK):
        attrs = _random_event(rng)
        expected = {sid for sid, p in model.items() if p.matches(attrs)}
        assert eng.match(attrs) == expected, f"{tag}: match diverged on {attrs}"
        assert eng.matches_any(attrs) == bool(expected), (
            f"{tag}: matches_any diverged on {attrs}"
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_naive_model_under_churn(seed):
    rng = random.Random(seed)
    eng, model = MatchingEngine(), {}
    for step in range(N_STEPS):
        op = rng.random()
        if op < 0.55 or not model:
            sid = f"s{rng.randrange(40)}"  # collisions exercise replace
            pred = _random_predicate(rng)
            eng.add(sid, pred)
            model[sid] = pred
        elif op < 0.85:
            sid = rng.choice(list(model))
            eng.remove(sid)
            del model[sid]
        else:
            # Bulk refresh: re-state a mutated version of the full set.
            staged = dict(model)
            for sid in list(staged):
                r = rng.random()
                if r < 0.15:
                    del staged[sid]
                elif r < 0.3:
                    staged[sid] = _random_predicate(rng)
            staged[f"s{rng.randrange(40)}"] = _random_predicate(rng)
            for sid in [s for s in model if s not in staged]:
                eng.remove(sid)
            for sid, pred in staged.items():
                if model.get(sid) is not pred:
                    eng.add(sid, pred)
            model = staged
        _check_agreement(eng, model, rng, f"seed={seed} step={step}")


@pytest.mark.parametrize("seed", SEEDS)
def test_match_at_tracks_churn(seed):
    """``match_at`` answers track subscription churn exactly."""
    rng = random.Random(seed)
    eng, model = MatchingEngine(), {}
    events = {f"p:{i}": _random_event(rng) for i in range(12)}
    for step in range(120):
        sid = f"s{rng.randrange(15)}"
        if rng.random() < 0.6 or sid not in model:
            pred = _random_predicate(rng)
            eng.add(sid, pred)
            model[sid] = pred
        else:
            eng.remove(sid)
            del model[sid]
        eid = rng.choice(list(events))
        attrs = events[eid]
        expected = frozenset(s for s, p in model.items() if p.matches(attrs))
        assert eng.match_at(eid, attrs) == expected, f"seed={seed} step={step}"
