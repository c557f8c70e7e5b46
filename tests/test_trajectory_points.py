"""Trajectory points (``benchmarks/results/BENCH_*.json``) reproduce.

A trajectory point quotes ledger runs.  The modelled fields of a
simulator run — ``deliver_p50_ms``, ``deliver_p90_ms`` and the counter
vector — are a pure function of (commit, workload, preset, seed,
seconds), so a run is only worth quoting with those recorded, and two
runs of the same code and configuration that disagree on them show
that one of them came from somewhere else.

A run record is any mapping in a point that carries an ``e2e`` mapping
(a ``benchmarks/ledger/run.py --out`` line) or a numeric
``deliver_p50_ms`` (a hand-assembled row).  Every run record must carry
the ledger's identifying fields; the ledger writes them all, so quoting
its ``--out`` lines verbatim passes.  Runs from a dirty tree or an
unknown commit are not grouped: their commit does not name their code.

The points recorded before this check existed were hand-assembled and
carry none of it.  They are listed in :data:`GRANDFATHERED`, which may
only shrink: a listed file must exist, and no point after
``BENCH_35`` may be listed.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, Iterator, List, Tuple

import pytest

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "results")

#: Hand-assembled points, exempt from the check.  Only ever remove names.
GRANDFATHERED = frozenset({
    "BENCH_15.json", "BENCH_20.json", "BENCH_30.json", "BENCH_34.json", "BENCH_35.json",
})
#: The last point recorded before the check; later ones are never exempt.
LAST_GRANDFATHERED = 35

#: What a run record must carry to be identified and compared.
REQUIRED = ("commit", "dirty", "workload", "preset", "seed", "seconds", "params", "counters")
#: The run's configuration: equal keys must give equal modelled fields.
KEY = ("commit", "workload", "preset", "seed", "seconds")
MODELLED = ("deliver_p50_ms", "deliver_p90_ms")


def _points() -> List[str]:
    return sorted(name for name in os.listdir(RESULTS) if re.fullmatch(r"BENCH_\d+\.json", name))


def _run_records(node: Any, path: str = "") -> Iterator[Tuple[str, Dict[str, Any]]]:
    """Every run record in a parsed point, with its JSON path."""
    if isinstance(node, dict):
        p50 = node.get("deliver_p50_ms")
        if isinstance(node.get("e2e"), dict) or (
            isinstance(p50, (int, float)) and not isinstance(p50, bool)
        ):
            yield path, node
            return
        for key, value in node.items():
            yield from _run_records(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _run_records(value, f"{path}[{i}]")


def _modelled(record: Dict[str, Any]) -> Tuple[Any, ...]:
    e2e = record.get("e2e", record)
    return (*(e2e.get(name) for name in MODELLED), record.get("counters"))


def check_points(points: Dict[str, Any]) -> List[str]:
    """Problems across ``points`` (name -> parsed JSON); empty when clean."""
    problems: List[str] = []
    seen: Dict[Tuple[Any, ...], Tuple[str, Tuple[Any, ...]]] = {}
    for name, point in sorted(points.items()):
        for path, record in _run_records(point):
            where = f"{name}{path}"
            missing = [field for field in REQUIRED if field not in record]
            if missing:
                problems.append(f"{where}: run record lacks {', '.join(missing)}")
                continue
            if (
                not record["workload"].startswith("sim-")
                or record["dirty"] is not False
                or record["commit"] in (None, "unknown")
                or record.get("failed", 0)
            ):
                continue
            key = tuple(record[field] for field in KEY)
            modelled = _modelled(record)
            first = seen.setdefault(key, (where, modelled))
            if first[1] != modelled:
                problems.append(
                    f"{where} and {first[0]}: same {dict(zip(KEY, key))} "
                    f"but modelled fields {modelled} != {first[1]}"
                )
    return problems


def _load(name: str) -> Any:
    with open(os.path.join(RESULTS, name)) as f:
        return json.load(f)


def test_every_recorded_point_reproduces():
    points = {name: _load(name) for name in _points() if name not in GRANDFATHERED}
    assert check_points(points) == []


def test_grandfathered_list_only_shrinks():
    present = set(_points())
    assert GRANDFATHERED <= present, f"drop {sorted(GRANDFATHERED - present)} from the list"
    numbers = [int(re.search(r"\d+", name).group()) for name in GRANDFATHERED]
    assert max(numbers) <= LAST_GRANDFATHERED


def test_a_hand_assembled_point_is_rejected():
    """BENCH_35's rows carry no commit, params or counters."""
    problems = check_points({"BENCH_35.json": _load("BENCH_35.json")})
    assert any("sim_fanout_preset_full_100k" in p and "lacks commit" in p for p in problems)


def _record(**overrides: Any) -> Dict[str, Any]:
    record = {
        "commit": "c0ffee", "dirty": False, "workload": "sim-fanout", "preset": "full",
        "seed": 3, "seconds": 10.0, "traced": False, "params": {"subscribers": 100_000},
        "failed": 0, "counters": {"pairs": 10},
        "e2e": {"setup_s": 9.5, "deliver_p50_ms": 141.71, "deliver_p90_ms": 154.21},
    }
    record.update(overrides)
    return record


@pytest.mark.parametrize(
    "other, flagged",
    [
        # BENCH_34/35: one commit, one configuration, two p50/p90 pairs.
        (_record(e2e={"setup_s": 7.9, "deliver_p50_ms": 217.17, "deliver_p90_ms": 276.96}), True),
        (_record(counters={"pairs": 11}), True),
        ({k: v for k, v in _record().items() if k != "params"}, True),
        # Wall-clock fields may differ; modelled ones may not.
        (_record(e2e={"setup_s": 13.1, "deliver_p50_ms": 141.71, "deliver_p90_ms": 154.21}), False),
        (_record(traced=True), False),
        # Different code or configuration, or code no commit names.
        (_record(commit="decade", counters={"pairs": 11}), False),
        (_record(seed=4, counters={"pairs": 11}), False),
        (_record(dirty=True, counters={"pairs": 11}), False),
        (_record(workload="rt-live", counters={"pairs": 11}), False),
    ],
)
def test_conflicting_runs_are_flagged(other, flagged):
    point = {"runs": [_record(), other]}
    assert bool(check_points({"BENCH_99.json": point})) is flagged
