"""Tests for the benchmark regression gate (`benchmarks/check_baseline.py`).

The gate's job is to make silent metric loss impossible: a metric named
in ``HIGHER_IS_WORSE`` that is missing from either ``baseline.json`` or
the measured results must produce a clear per-metric failure (and a
nonzero exit from ``main``), never a crash or a silent skip.
"""

import io
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "benchmarks"))

import check_baseline


def _full_metrics(value: float = 100.0) -> dict:
    return {name: value for name in check_baseline.HIGHER_IS_WORSE}


class TestCompare:
    def test_identical_metrics_pass(self):
        metrics = _full_metrics()
        failures = check_baseline.compare(metrics, metrics, out=io.StringIO())
        assert failures == []

    def test_missing_from_baseline_fails_per_metric(self):
        current = _full_metrics()
        baseline = dict(current)
        del baseline["events_delivered"]
        failures = check_baseline.compare(baseline, current, out=io.StringIO())
        assert len(failures) == 1
        assert "events_delivered" in failures[0]
        assert "missing from baseline" in failures[0]

    def test_missing_from_results_fails_per_metric_not_crash(self):
        baseline = _full_metrics()
        current = dict(baseline)
        del current["latency_e2e_p50_ms"]
        del current["reduction"]
        failures = check_baseline.compare(baseline, current, out=io.StringIO())
        assert len(failures) == 2
        assert any("latency_e2e_p50_ms" in f and "missing from results" in f
                   for f in failures)
        assert any("reduction" in f and "missing from results" in f
                   for f in failures)

    def test_regression_beyond_tolerance_fails(self):
        baseline = _full_metrics(100.0)
        current = dict(baseline)
        # events_delivered is higher-is-better with the default 20%
        # tolerance; a 50% drop must fail.
        current["events_delivered"] = 50.0
        failures = check_baseline.compare(baseline, current, out=io.StringIO())
        assert len(failures) == 1
        assert "events_delivered" in failures[0]

    def test_zero_baseline_is_compared_absolutely(self):
        baseline = _full_metrics(100.0)
        baseline["latency_e2e_p99_ms"] = 0.0      # lower is better
        baseline["events_delivered"] = 0.0        # higher is better
        current = dict(baseline)
        assert check_baseline.compare(baseline, current, out=io.StringIO()) == []
        current["latency_e2e_p99_ms"] = 3.0       # grew from nothing: worse
        current["events_delivered"] = 5.0         # grew from nothing: better
        failures = check_baseline.compare(baseline, current, out=io.StringIO())
        assert len(failures) == 1
        assert "latency_e2e_p99_ms: 0.0 -> 3.0" in failures[0]

    def test_improvement_passes(self):
        baseline = _full_metrics(100.0)
        current = dict(baseline)
        current["events_delivered"] = 150.0       # higher is better
        current["latency_e2e_p99_ms"] = 50.0      # lower is better
        failures = check_baseline.compare(baseline, current, out=io.StringIO())
        assert failures == []

    def test_main_exits_nonzero_on_missing_metric(self, tmp_path, monkeypatch):
        baseline = _full_metrics()
        current = dict(baseline)
        del current["events_delivered"]
        path = tmp_path / "baseline.json"
        import json
        path.write_text(json.dumps(baseline))
        monkeypatch.setattr(check_baseline, "BASELINE_PATH", path)
        monkeypatch.setattr(check_baseline, "measure", lambda: current)
        assert check_baseline.main([]) == 1
