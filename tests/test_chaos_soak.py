"""Seeded chaos soak: random faults, provable guarantees.

The smoke tests (tier 1) run a few fixed seeds at a short horizon; the
``soak`` marker opts into the long many-seed sweep used before releases
(``pytest -m soak``).  A failing seed is a reproducible bug report:
rerun ``run_chaos_soak(seed)`` and the identical fault schedule plays
back.
"""

import pytest

from repro.sim.experiments import run_chaos_soak

SMOKE_SEEDS = [3, 7, 24]
SMOKE_MS = 13_000.0
#: seed -> (published, delivered, converged_at_ms, faults) at SMOKE_MS:
#: the harness scaffold (``sim/scenario.py``) must not move these.
SMOKE_FINGERPRINTS = {
    3: (2080, 4160, 13_000.0, 14),
    7: (1860, 3702, 13_000.0, 14),
}


@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_chaos_smoke(seed):
    result = run_chaos_soak(seed, duration_ms=SMOKE_MS)
    assert result.ok, f"seed {seed}: " + "; ".join(result.violations)
    assert result.events_published > 0
    assert result.events_delivered > 0
    assert len(result.faults) > 0
    if seed in SMOKE_FINGERPRINTS:
        assert (
            result.events_published, result.events_delivered,
            result.converged_at_ms, len(result.faults),
        ) == SMOKE_FINGERPRINTS[seed]


def test_chaos_smoke_with_batching():
    """Fault injection composes with link batching windows."""
    result = run_chaos_soak(SMOKE_SEEDS[0], duration_ms=SMOKE_MS,
                            batch_window_ms=10.0)
    assert result.ok, "; ".join(result.violations)


def test_chaos_same_seed_is_deterministic():
    a = run_chaos_soak(5, duration_ms=SMOKE_MS)
    b = run_chaos_soak(5, duration_ms=SMOKE_MS)
    assert a.ok and b.ok
    assert [(f.kind, f.target, f.at_ms) for f in a.faults] == [
        (f.kind, f.target, f.at_ms) for f in b.faults
    ]
    assert (a.events_published, a.events_delivered) == (
        b.events_published, b.events_delivered
    )
    assert a.link_faults == b.link_faults


def test_chaos_actually_injects_faults():
    """The soak is vacuous if the schedule never bites: check the fault
    counters show real loss/corruption/duplication somewhere across the
    smoke seeds (each individual seed draws its own mix)."""
    totals = {"fault_dropped": 0, "corrupt_dropped": 0,
              "duplicated": 0, "reordered": 0}
    crashes = 0
    for seed in SMOKE_SEEDS:
        r = run_chaos_soak(seed, duration_ms=SMOKE_MS)
        for key in totals:
            totals[key] += r.link_faults[key]
        crashes += sum(1 for f in r.faults if f.kind == "crash")
    assert totals["fault_dropped"] > 0
    assert totals["corrupt_dropped"] > 0
    assert totals["duplicated"] > 0
    assert totals["reordered"] > 0
    assert crashes > 0


@pytest.mark.soak
@pytest.mark.parametrize("seed", range(1, 26))
def test_chaos_soak_long(seed):
    result = run_chaos_soak(seed, duration_ms=20_000.0)
    assert result.ok, f"seed {seed}: " + "; ".join(result.violations)
