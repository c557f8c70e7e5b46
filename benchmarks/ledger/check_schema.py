#!/usr/bin/env python3
"""Self-test of the benchmark: does ``run.py`` print what BENCHMARK.json names?

Runs ``run.py --smoke`` (every workload at toy size, one untraced and
one traced repetition each; under 30 s) and asserts, per workload, that

* every end-to-end and per-layer metric of ``BENCHMARK.json`` is
  printed on a ``metric`` line with the unit the file gives it,
* nothing is printed under a name the file does not have,
* the last line of the block is one JSON object with exactly the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics``, and the run
  was correct.

Not a tier-1 test (``testpaths = ["tests"]``): it is the benchmark
checking itself, run by hand or by whoever edits this directory.

    python3 benchmarks/ledger/check_schema.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    problems = []
    if done.returncode != 0:
        problems.append(f"run.py --smoke exited {done.returncode}: {done.stderr.strip()[-500:]}")
    printed = {w["name"]: {} for w in spec["workloads"]}
    verdicts = {}
    for line in done.stdout.splitlines():
        if line.startswith("metric "):
            _, workload, name, value, unit = line.split()[:5]
            float(value)
            if workload not in printed:
                problems.append(f"metric line for unknown workload: {line}")
            else:
                printed[workload][name] = unit
        elif line.startswith("{"):
            verdict = json.loads(line)
            if sorted(verdict) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"result line has keys {sorted(verdict)}")
            verdicts[len(verdicts)] = verdict
    for workload, seen in printed.items():
        for name in sorted(set(units) - set(seen)):
            problems.append(f"{workload}: {name} is not printed")
        for name in sorted(set(seen) - set(units)):
            problems.append(f"{workload}: {name} is printed but BENCHMARK.json does not name it")
        for name, unit in seen.items():
            if name in units and unit != units[name]:
                problems.append(f"{workload}: {name} printed in {unit}, declared in {units[name]}")
    if len(verdicts) != len(printed):
        problems.append(f"{len(verdicts)} result lines for {len(printed)} workloads")
    for verdict in verdicts.values():
        if not verdict.get("correct") or verdict.get("failed"):
            problems.append(f"a smoke run was not correct: failed={verdict.get('failed')}")
        if set(verdict.get("metrics", {})) != set(units):
            problems.append("a result line does not carry every metric")
    for problem in problems:
        print(f"check_schema: {problem}")
    print(f"check_schema: {len(units)} metrics x {len(printed)} workloads, "
          f"{'FAILED' if problems else 'ok'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
