"""Seeded dynamic-topology soaks and handoff-window crash sweeps.

Tier 1 runs one seeded migration soak (join + mid-catchup migration +
drain under faults, every oracle family checked) and a small crash-point
sweep over the handoff durability boundaries.  The full stratified
sweep and the many-seed soak ride the ``soak`` marker and the
``robustness`` CI job (``python -m repro.sim.crashpoints
--scenario migration --sites migrate.``).
"""

import pytest

from repro.sim import crashpoints
from repro.sim.experiments import run_migration_soak


def _fingerprint(result):
    """What the harness scaffold (``sim/scenario.py``) must not move."""
    return (
        result.events_published, result.events_delivered,
        result.converged_at_ms, len(result.faults), result.migrations,
    )


def test_migration_soak_faultless():
    result = run_migration_soak(seed=1, with_faults=False)
    assert result.ok, "; ".join(result.violations)
    assert result.migrations_done == result.migrations > 0
    assert result.source_detached
    assert result.stalled_subscribers == []
    assert _fingerprint(result) == (3840, 3840, 24_000.0, 0, 2)


def test_migration_soak_with_faults():
    result = run_migration_soak(seed=7)
    assert result.ok, "; ".join(result.violations)
    assert result.migrations_done == result.migrations > 0
    assert result.source_detached
    assert _fingerprint(result) == (3840, 3840, 24_000.0, 5, 2)


def test_migration_soak_same_seed_is_deterministic():
    a = run_migration_soak(seed=3)
    b = run_migration_soak(seed=3)
    assert a.ok and b.ok
    assert [(f.kind, f.target, f.at_ms) for f in a.faults] == [
        (f.kind, f.target, f.at_ms) for f in b.faults
    ]
    assert a.final_placement == b.final_placement


def test_crash_sweep_handoff_boundaries_smoke():
    """Crashing at the install staging and the commit tombstone — the
    two ends of the handoff's durability window — loses nothing."""
    summary = crashpoints.explore(
        scenario="migration",
        sites=["migrate.install.pre", "migrate.commit.tombstone"],
    )
    assert len(summary.outcomes) > 0
    assert summary.violations == []


@pytest.mark.soak
def test_crash_sweep_all_handoff_sites():
    summary = crashpoints.explore(scenario="migration", sites=["migrate."])
    assert len(summary.outcomes) >= 12
    assert summary.violations == []


@pytest.mark.soak
@pytest.mark.parametrize("seed", range(1, 13))
def test_migration_soak_many_seeds(seed):
    result = run_migration_soak(seed=seed)
    assert result.ok, f"seed {seed}: " + "; ".join(result.violations)
