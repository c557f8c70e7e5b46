"""Tests for the crash-point explorer (sim/crashpoints.py).

The explorer is itself test infrastructure, so these tests pin the
properties the rest of the suite leans on: hooks are off by default
(the digest fixtures depend on that), the census is deterministic and
large enough to be worth exploring, the stratified selector covers
every boundary kind, and a bounded smoke sweep recovers cleanly from
every injected crash.  The full sweep over every census point is the
opt-in soak (`pytest -m soak tests/test_crashpoints.py`).
"""

import hashlib

import pytest

from repro.sim import crashpoints as cp


def census_fingerprint(points):
    """``(len, sha256 prefix)`` of a census — what the scaffold the
    scenarios are built on (``sim/scenario.py``) must not move.
    Independent of ``PYTHONHASHSEED``."""
    labels = "\n".join(p.label() for p in points)
    return len(points), hashlib.sha256(labels.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Hook registry
# ---------------------------------------------------------------------------
class TestHooks:
    def test_hooks_disabled_by_default(self):
        # The storage modules guard every fire() with `if HOOKS.enabled`;
        # a listener left installed would perturb (and slow) every other
        # test and break the determinism digests.
        assert cp.HOOKS.enabled is False

    def test_install_uninstall_cycle(self):
        seen = []
        cp.HOOKS.install(lambda site, owner: seen.append((site, owner)))
        try:
            assert cp.HOOKS.enabled is True
            cp.HOOKS.fire("x.y", "b1")
            assert seen == [("x.y", "b1")]
        finally:
            cp.HOOKS.uninstall()
        assert cp.HOOKS.enabled is False

    def test_double_install_rejected(self):
        cp.HOOKS.install(lambda site, owner: None)
        try:
            with pytest.raises(RuntimeError):
                cp.HOOKS.install(lambda site, owner: None)
        finally:
            cp.HOOKS.uninstall()


# ---------------------------------------------------------------------------
# Census + selection
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def census_points():
    return cp.census()


class TestCensus:
    def test_enumerates_at_least_100_points(self, census_points):
        assert len(census_points) >= 100

    def test_covers_every_storage_subsystem(self, census_points):
        prefixes = {p.site.split(".")[0] for p in census_points}
        assert {"disk", "table", "logstream", "eventlog", "pfs"} <= prefixes

    def test_census_is_deterministic(self, census_points):
        again = cp.census()
        assert [(p.seq, p.site, p.owner) for p in again] == [
            (p.seq, p.site, p.owner) for p in census_points
        ]

    def test_census_fingerprint_is_pinned(self, census_points):
        assert census_fingerprint(census_points) == (4315, "fdb6543ea00f")

    def test_every_point_has_an_owner(self, census_points):
        # A boundary with no owner cannot be crashed meaningfully; all
        # storage in the scripted scenario belongs to a named broker.
        assert all(p.owner for p in census_points)


class TestSelectPoints:
    def test_covers_every_site_owner_kind(self, census_points):
        kinds = {(p.site, p.owner) for p in census_points}
        selected = cp.select_points(census_points, max_points=len(kinds) + 10)
        assert {(p.site, p.owner) for p in selected} == kinds

    def test_respects_budget_and_spreads_over_timeline(self, census_points):
        selected = cp.select_points(census_points, max_points=60)
        assert len(selected) == 60
        # Stratified fill reaches past the warm-up into the scripted tail.
        assert selected[-1].seq > len(census_points) // 2

    def test_unbounded_returns_everything(self, census_points):
        assert cp.select_points(census_points, None) == list(census_points)


# ---------------------------------------------------------------------------
# Exploration smoke (bounded) + summary shape
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_summary():
    return cp.explore(max_points=12)


class TestExploreSmoke:
    def test_no_violations_across_smoke_points(self, smoke_summary):
        assert smoke_summary.baseline_violations == []
        for outcome in smoke_summary.outcomes:
            assert outcome.ok, outcome.violations

    def test_every_smoke_point_converged(self, smoke_summary):
        for outcome in smoke_summary.outcomes:
            assert outcome.converged_at_ms is not None
            assert outcome.crashed_broker is not None

    def test_summary_json_shape(self, smoke_summary):
        blob = smoke_summary.to_json()
        assert blob["census_points"] >= 100
        assert blob["explored_points"] == 12
        assert blob["violation_count"] == 0
        assert blob["unconverged"] == []
        assert sum(blob["explored_by_site"].values()) == 12


# ---------------------------------------------------------------------------
# Generated-forest ("scale") scenario
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def scale_census():
    return cp.census("scale")


class TestScaleScenario:
    def test_census_covers_both_trees_and_failover_window(self, scale_census):
        owners = {p.owner for p in scale_census}
        assert {"phb1", "phb2"} <= owners
        assert any(o and o.startswith("t1.") for o in owners)
        assert any(o and o.startswith("t2.") for o in owners)
        # Both spares take a subtree mid-script, so boundaries keep
        # firing after the first failover at 1.2 s of simulated time.
        assert len(scale_census) > 1_000

    def test_census_is_deterministic(self, scale_census):
        again = cp.census("scale")
        assert [(p.seq, p.site, p.owner) for p in again] == [
            (p.seq, p.site, p.owner) for p in scale_census
        ]

    def test_census_fingerprint_is_pinned(self, scale_census):
        assert census_fingerprint(scale_census) == (11931, "dbf8a2a5510c")

    def test_smoke_sweep_recovers(self):
        summary = cp.explore(max_points=6, scenario="scale")
        assert summary.baseline_violations == []
        for outcome in summary.outcomes:
            assert outcome.ok, outcome.violations
            assert outcome.converged_at_ms is not None


def test_migration_census_fingerprint_is_pinned():
    # The migration scenario's sweeps live in tests/test_migration_soak.py.
    assert census_fingerprint(cp.census("migration")) == (8017, "905af4ab8929")


# ---------------------------------------------------------------------------
# Opt-in full sweep
# ---------------------------------------------------------------------------
@pytest.mark.soak
def test_full_sweep_every_census_point():
    """Crash at every enumerated boundary (several minutes)."""
    summary = cp.explore(max_points=None)
    bad = [o for o in summary.outcomes if not o.ok]
    assert summary.baseline_violations == []
    assert not bad, [
        (o.point.label(), o.violations) for o in bad[:10]
    ]
