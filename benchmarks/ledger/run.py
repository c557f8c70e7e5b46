#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric by name.

    python3 benchmarks/ledger/run.py [--workload W] [--seed N] [--seconds S]
                                     [--reps K] [--trace [0|1]] [--out FILE]
                                     [--preset smoke|bench|full] [--smoke] [--aa [N]]

Each repetition runs in a fresh subprocess; a measurement is the median
of its repetitions.  End-to-end metrics come from untraced repetitions
only; ``--trace`` adds one traced repetition
per workload for the per-layer metrics (``--trace 1`` prints only
those, ``--trace 0`` only the end-to-end ones — the two forms the
driver calls).  Every metric is printed on its own line, by name, with
its unit; the last line of a workload's block is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is
non-zero if any run lost, duplicated or reordered a delivery, timed
out, or — for the simulator — two runs of one seed disagreed on any
deterministic counter.

Names, units, directions and bounds are read from ``BENCHMARK.json`` at
the repository root, which is the contract; see ``README.md`` here for
what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: A repetition that runs longer than this is killed and counts as failed.
HARD_TIMEOUT_S = 120.0
PRESET_SECONDS = {"smoke": 2.0, "full": 25.0}  # "bench" takes run_seconds


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ----------------------------------------------------------------------
# The child: one repetition of one workload, in this process
# ----------------------------------------------------------------------
def child_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    traced = args.traced == 1
    if args.workload.startswith("sim-"):
        tracer = None
        if traced:  # before the scenario is built
            import spans

            tracer = spans.Tracer()
            spans.install(tracer, rt=False)
        import simload

        result = simload.RUNNERS[args.workload](args.preset, args.seed, args.seconds, tracer)
    else:
        import rtload

        result = rtload.run(
            args.workload, args.preset, args.seed, args.seconds, traced, args.scratch
        )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


# ----------------------------------------------------------------------
# The parent: repetitions, checks, aggregation, printing
# ----------------------------------------------------------------------
def header_fields() -> Dict[str, Any]:
    """What stays the same for every repetition this process launches."""

    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "-C", ROOT, *argv], capture_output=True, text=True, timeout=10
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "python": f"{platform.python_implementation()} {platform.python_version()} "
                  f"({platform.python_compiler()})",
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
    }


class Ledger:
    """Runs repetitions and keeps the run record."""

    def __init__(self, spec: Dict[str, Any], preset: str, seconds: float,
                 out: Optional[str]) -> None:
        self.spec = spec
        self.preset = preset
        self.seconds = seconds
        self.header = header_fields()
        self.out = open(out, "w") if out else None
        os.makedirs(os.path.join(ROOT, ".ledger_scratch"), exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".ledger_scratch"))

    def close(self) -> None:
        if self.out:
            self.out.close()
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.scratch))  # unless another run shares it
        except OSError:
            pass

    def repetition(self, workload: str, seed: int, traced: bool) -> Dict[str, Any]:
        """One fresh subprocess; a hang or crash becomes a failed run."""
        command = [
            sys.executable, os.path.abspath(__file__), "--child", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(self.seconds), "--preset", self.preset,
            "--traced", "1" if traced else "0", "--scratch", self.scratch,
        ]
        load = os.getloadavg()[0]
        env = dict(os.environ, PYTHONHASHSEED="0")
        started = time.perf_counter()
        proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, start_new_session=True,
        )
        try:
            stdout, stderr = proc.communicate(timeout=HARD_TIMEOUT_S)
            problem = None if proc.returncode == 0 else (
                f"exit status {proc.returncode}: " + " ".join(stderr.strip().splitlines()[-1:]))
        except subprocess.TimeoutExpired:
            problem = f"timed out after {HARD_TIMEOUT_S:.0f} s"
            stdout = ""
        finally:
            try:  # the child's brokers share its process group
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.communicate()
        if problem is None:
            try:
                result = json.loads(stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problem = "printed no result"
        if problem is not None:
            result = {"e2e": {}, "attempted": 1, "failed": 1, "failures": [problem],
                      "unresolved": [], "phases": {}, "params": {}, "counters": {}}
        result["wall_s"] = time.perf_counter() - started
        if self.out:
            record = dict(self.header, load_1m=load, workload=workload, preset=self.preset,
                          seed=seed, seconds=self.seconds, traced=traced, **result)
            self.out.write(json.dumps(record) + "\n")
            self.out.flush()
        return result


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and count, as the driver computes them."""
    summary: Dict[str, Any] = {"median": statistics.median(values), "n": len(values),
                               "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / summary["median"])
    return summary


def e2e_summaries(spec: Dict[str, Any], runs: List[Dict[str, Any]],
                  failures: List[str]) -> Dict[str, Dict[str, Any]]:
    """Per end-to-end metric, over the untraced runs that resolved it."""
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        have = [r for r in runs if name in r["e2e"]]
        resolved = [r["e2e"][name] for r in have if name not in r["unresolved"]]
        if not have:
            failures.append(f"{name}: no run produced it")
            continue
        out[name] = summarize(resolved or [r["e2e"][name] for r in have])
        out[name]["unresolved"] = not resolved
    return out


def layer_values(spec: Dict[str, Any], traced: Dict[str, Any], untraced: Dict[str, Any],
                 failures: List[str]) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload bypasses reads 0."""
    layers = dict(traced.get("layers", {}))
    # Reference seconds where the workload has them: the two runs are
    # minutes apart on a host whose speed drifts.
    key = "timed_ref_s" if "timed_ref_s" in traced["phases"] else "timed_s"
    if traced["phases"].get(key) and untraced["phases"].get(key):
        layers["trace.overhead_ratio"] = traced["phases"][key] / untraced["phases"][key]
    names = {m["name"] for m in spec["per_layer"]}
    for extra in sorted(set(layers) - names):
        failures.append(f"per-layer value {extra} is not named in BENCHMARK.json")
    return {name: float(layers.get(name, 0.0)) for name in sorted(names)}


def check_runs(runs_by_seed: Dict[int, List[Dict[str, Any]]]) -> Tuple[int, int, List[str]]:
    """Delivery failures, plus determinism of the simulator's counters."""
    attempted = failed = 0
    failures: List[str] = []
    for seed, runs in runs_by_seed.items():
        for r in runs:
            attempted += r["attempted"]
            failed += r["failed"]
            failures.extend(f"seed {seed}: {f}" for f in r["failures"])
        vectors = {json.dumps(r["counters"], sort_keys=True) for r in runs if r["counters"]}
        if len(vectors) > 1:
            failures.append(
                f"seed {seed}: {len(vectors)} different counter vectors from one seed: "
                + " | ".join(sorted(vectors)))
            failed += 1
    return attempted, failed, failures


def default_reps(workload: str) -> int:
    """Fresh processes per measurement when ``--reps`` is not given.

    A simulator repetition is seconds of CPU-bound Python, and on a
    shared box whole processes run 10-20 % slow now and then, so a
    measurement is the median of three, each doing a third of the work
    ``--seconds`` stands for (see ``simload.SIZES``).  The rt workloads
    wait on timers and fsync, not on the CPU, and already report medians
    of windows, bursts and outages taken inside one repetition.
    """
    return 3 if workload.startswith("sim-") else 1


def run_workload(ledger: Ledger, workload: str, seed: int, reps: Optional[int],
                 trace: str) -> bool:
    spec = ledger.spec
    reps = reps or default_reps(workload)
    print(f"== {workload}  preset={ledger.preset} seed={seed} seconds={ledger.seconds:g} "
          f"reps={reps} trace={trace}")
    untraced = [ledger.repetition(workload, seed, False)
                for _ in range(reps if trace != "1" else 1)]
    traced = ledger.repetition(workload, seed, True) if trace != "0" else None

    attempted, failed, failures = check_runs({seed: untraced + ([traced] if traced else [])})
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace != "1":
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, s in e2e_summaries(spec, untraced, failures).items():
            note = f"n={s['n']}"
            if "q1" in s:
                note += f" q1={s['q1']!r} q3={s['q3']!r} spread={s['spread']:.4f}"
            if s["unresolved"]:
                note += " unresolved: the load generator ran late"
            print(f"metric {workload} {name} {s['median']!r} {units[name]} {note}")
            metrics[name] = {"value": s["median"], "unit": units[name]}
    if traced is not None:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name, value in layer_values(spec, traced, untraced[0], failures).items():
            print(f"metric {workload} {name} {value!r} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
    for failure in failures:
        print(f"FAILED {workload}: {failure}")
    correct = not failures and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return correct


def run_aa(ledger: Ledger, workloads: List[str], seed: int, reps: Optional[int],
           per_set: int) -> Tuple[bool, Dict[str, Any]]:
    """Two interleaved sets of measurements of the same code, seed by seed.

    A measurement is what one driver call makes: ``reps`` repetitions of
    one seed, reduced to their medians.
    """
    spec = ledger.spec
    document: Dict[str, Any] = {"header": ledger.header, "preset": ledger.preset,
                                "seconds": ledger.seconds, "measurements_per_set": per_set,
                                "seeds": [seed + i for i in range(per_set)], "workloads": {}}
    ok = True
    for workload in workloads:
        n_reps = reps or default_reps(workload)
        sets: Tuple[List[Dict[str, float]], List[Dict[str, float]]] = ([], [])
        by_seed: Dict[int, List[Dict[str, Any]]] = {}
        failures: List[str] = []
        for i in range(per_set):
            for side in sets:
                runs = [ledger.repetition(workload, seed + i, False) for _ in range(n_reps)]
                by_seed.setdefault(seed + i, []).extend(runs)
                side.append({name: s["median"]
                             for name, s in e2e_summaries(spec, runs, failures).items()})
        attempted, failed, run_failures = check_runs(by_seed)
        failures.extend(run_failures)
        rows = {}
        print(f"== A/A {workload}  {per_set} + {per_set} measurements of {n_reps} repetitions, "
              f"seeds {seed}..{seed + per_set - 1}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not all(name in m for side in sets for m in side):
                continue
            a, b = (summarize([m[name] for m in side]) for side in sets)
            difference = abs(b["median"] - a["median"]) / a["median"]
            within = difference <= metric["bound"]
            ok = ok and within
            rows[name] = {"unit": metric["unit"], "a": a, "b": b,
                          "relative_difference": difference, "bound": metric["bound"],
                          "within_bound": within}
            print(f"aa {workload} {name} a={a['median']!r} b={b['median']!r} {metric['unit']} "
                  f"spread_a={a['spread']:.4f} spread_b={b['spread']:.4f} "
                  f"diff={difference:.4f} bound={metric['bound']} "
                  f"{'ok' if within else 'EXCEEDED'}")
        for failure in failures:
            print(f"FAILED {workload}: {failure}")
        ok = ok and not failures and failed == 0
        document["workloads"][workload] = {
            "repetitions_per_measurement": n_reps, "attempted": attempted, "failed": failed,
            "failures": failures, "metrics": rows}
    return ok, document


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="size of the timed work")
    parser.add_argument("--reps", type=int,
                        help="untraced repetitions per measurement (default: 3 sim, 1 rt)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="add a traced repetition; 1 = print per-layer metrics only")
    parser.add_argument("--preset", choices=("smoke", "bench", "full"), default="bench")
    parser.add_argument("--smoke", action="store_true", help="--preset smoke --trace --reps 1")
    parser.add_argument("--aa", nargs="?", type=int, const=5, metavar="N",
                        help="compare two interleaved sets of N measurements of this code")
    parser.add_argument("--out", help="write the run record (--aa: the comparison) here")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--scratch", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)  # progress shows when redirected

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: the program is not here: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; BENCHMARK.json names {names}")
    workloads = [args.workload] if args.workload else names
    if args.smoke:
        args.preset, args.trace, args.reps = "smoke", "both", 1
    seconds = args.seconds or PRESET_SECONDS.get(args.preset, float(spec["run_seconds"]))

    ledger = Ledger(spec, args.preset, seconds, None if args.aa else args.out)
    try:
        if args.aa:
            ok, document = run_aa(ledger, workloads, args.seed, args.reps, max(args.aa, 5))
            if args.out:
                with open(args.out, "w") as f:
                    json.dump(document, f, indent=1, sort_keys=True)
                    f.write("\n")
            return 0 if ok else 1
        results = [run_workload(ledger, w, args.seed, args.reps, args.trace) for w in workloads]
        return 0 if all(results) else 1
    finally:
        ledger.close()


if __name__ == "__main__":
    sys.exit(main())
