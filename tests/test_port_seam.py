"""Import lint for the Executor seam (an AST walk, nothing is imported).

Two things must stay true for the real broker to measure its CPU
instead of sleeping the simulator's model of one:

* nothing under ``adapters/rt/`` builds the costed ``net.node.Node`` or
  reaches for ``broker.costs`` — the ``CostModel`` lives only in the
  sim adapter family;
* ``broker/``, ``client/`` and ``jms/`` name the ``Executor`` port, not
  ``net.node.Node``, wherever a signature takes a machine.

And for protocol code to depend on ports, not on the simulator:

* nothing outside ``sim/`` imports ``repro.sim`` (the package root's
  re-exports and the CLI aside) — the crash-point hook registry that
  six storage/PFS/SHB modules fire lives in ``util/crashhooks.py``, and
  ``python -m repro.sim.crashpoints`` runs without runpy finding the
  module already imported.

* protocol code names the ``port.Clock`` it runs on, not the sim
  ``Scheduler``; the modules that still import ``net.simtime`` are an
  allow-list that may only shrink.

* protocol code talks over ``port.Connection`` sessions, not sim
  links: clients dial through ``adapters.sim.dial`` and brokers attach
  channels; the modules that still import ``net.link`` are an
  allow-list that may only shrink.

* the real broker process recovers its brokers through the same crash
  hooks as the simulator: it sets no broker attribute and calls no
  broker internal.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys
from typing import Iterator, Tuple

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Protocol-package modules allowed to import the sim node, and why.
SIM_NODE_IMPORTERS = {
    "broker/base.py": "default executor of a broker built without one (the sim's)",
    "broker/topology.py": "the simulator's topology builders construct sim machines",
}

#: Protocol-package modules still typed against the sim Clock
#: (``net.simtime.Scheduler`` / ``PeriodicHandle``) instead of the
#: ``port.Clock`` port.  Each entry is open work; none may be added.
SIM_CLOCK_IMPORTERS = {
    "broker/topology.py",
    "metrics/collector.py",
    "metrics/trace.py",
    "storage/disk.py",
}

#: Protocol-package modules that still import the sim ``net.link``.
#: Each entry is open work; none may be added.
SIM_LINK_IMPORTERS = {
    "broker/base.py",
    "broker/topology.py",
    "metrics/collector.py",
}


def _modules(*packages: str) -> Iterator[Tuple[str, ast.Module]]:
    for package in packages:
        for path in sorted((SRC / package).rglob("*.py")):
            yield str(path.relative_to(SRC)), ast.parse(path.read_text(), filename=str(path))


def _imported_modules(tree: ast.Module) -> Iterator[Tuple[str, Tuple[str, ...]]]:
    """(dotted module as written, imported names) of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.module or "", tuple(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()


def _imports_sim_node(tree: ast.Module) -> bool:
    return any(
        module.endswith("net.node") or (module.endswith("net") and "node" in names)
        for module, names in _imported_modules(tree)
    )


def test_rt_adapters_never_build_the_costed_node_or_import_the_cost_model():
    offences = []
    for name, tree in _modules("adapters/rt"):
        for module, names in _imported_modules(tree):
            if module.endswith("broker.costs") or (module.endswith("broker") and "costs" in names):
                offences.append(f"{name}: imports the CostModel module")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called in ("Node", "CostModel"):
                offences.append(f"{name}:{node.lineno}: constructs {called}")
    assert not offences, "\n".join(offences)


def test_the_real_broker_runs_on_the_loop_executor():
    tree = ast.parse((SRC / "adapters/rt/broker_main.py").read_text())
    built = {
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "LoopExecutor" in built


@pytest.mark.parametrize("package", ["broker", "client", "jms"])
def test_protocol_signatures_name_the_executor_port(package):
    offences = []
    for name, tree in _modules(package):
        if _imports_sim_node(tree) and name not in SIM_NODE_IMPORTERS:
            offences.append(f"{name}: imports net.node")
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                where = f"{name}:{arg.lineno}: {node.name}({arg.arg}: {annotation})"
                if "Node" in annotation.replace("NodeDownError", ""):
                    offences.append(f"{where} names the sim Node")
                elif arg.arg in ("node", "client_node") and "Executor" not in annotation:
                    offences.append(f"{where} does not name the Executor port")
    assert not offences, "\n".join(offences)


def _chain(expr: ast.expr) -> Iterator[ast.expr]:
    """``expr`` and every expression it reaches through ``.attr`` / ``[key]``."""
    while True:
        yield expr
        if not isinstance(expr, (ast.Attribute, ast.Subscript)):
            return
        expr = expr.value


def test_the_real_broker_boots_through_recovery_not_patches():
    """``BrokerProcess`` builds and wires the brokers, then recovers them
    through the executor's crash hooks.  It sets no broker attribute and
    calls no broker internal: a restart step the protocol needs belongs
    in the recovery hooks, where the simulator's crashes run it too."""
    tree = ast.parse((SRC / "adapters/rt/broker_main.py").read_text())
    brokers = {
        ast.unparse(target)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func).endswith("Broker")
        for target in node.targets
    }
    assert brokers == {"self.phb", "self.shb"}
    offences = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            for target in getattr(node, "targets", None) or [node.target]:
                if any(ast.unparse(e) in brokers for e in list(_chain(target))[1:]):
                    offences.append(f"{node.lineno}: sets {ast.unparse(target)}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, receiver = node.func.attr, ast.unparse(node.func.value)
            internal = attr.startswith("_") and not attr.startswith("__") and receiver != "self"
            if internal or attr in ("announce_head", "resync_upstream"):
                offences.append(f"{node.lineno}: calls {receiver}.{attr}()")
    assert not offences, "\n".join(offences)


def test_the_allow_list_is_not_stale():
    for name in SIM_NODE_IMPORTERS:
        assert _imports_sim_node(ast.parse((SRC / name).read_text())), (
            f"{name} no longer imports net.node; drop it from SIM_NODE_IMPORTERS"
        )


def _absolute_imports(name: str, tree: ast.Module) -> Iterator[str]:
    """Every import of module ``name`` (a path under SRC) as an absolute
    dotted name, relative imports resolved."""
    package = ["repro", *pathlib.PurePath(name).parts[:-1]]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - (node.level - 1)] if node.level else []
            module = ".".join([*base, *([node.module] if node.module else [])])
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _protocol_packages():
    """Every package but the simulator, its substrate and the adapters."""
    return sorted(
        p.name for p in SRC.iterdir()
        if p.is_dir() and p.name not in ("sim", "net", "adapters", "port", "__pycache__")
    )


def _check_shrink_only(target: str, allowed: set, port: str) -> None:
    """Protocol-package modules importing ``target`` (or a name in it)
    are exactly ``allowed``: no new importer, no stale entry."""
    importers = {
        name for name, tree in _modules(*_protocol_packages())
        if any(
            module == target or module.startswith(f"{target}.")
            for module in _absolute_imports(name, tree)
        )
    }
    assert importers <= allowed, (
        f"type these against {port} instead: {sorted(importers - allowed)}"
    )
    stale = allowed - importers
    assert not stale, f"no longer import {target}; drop from the allow-list: {sorted(stale)}"


def test_protocol_code_names_the_clock_port():
    _check_shrink_only("repro.net.simtime", SIM_CLOCK_IMPORTERS, "port.Clock")


def test_protocol_code_talks_over_the_transport_port():
    _check_shrink_only("repro.net.link", SIM_LINK_IMPORTERS, "port.Connection")


def test_nothing_outside_sim_imports_the_simulator_package():
    packages = sorted(
        p.name for p in SRC.iterdir() if p.is_dir() and p.name not in ("sim", "__pycache__")
    )
    assert {"storage", "pfs", "core", "broker", "client", "util", "adapters"} <= set(packages)
    offences = [
        f"{name}: imports {module}"
        for name, tree in _modules(*packages)
        for module in _absolute_imports(name, tree)
        if module == "repro.sim" or module.startswith("repro.sim.")
    ]
    assert not offences, "\n".join(offences)


def test_crashpoints_cli_runs_clean_under_warnings_as_errors():
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning",
         "-m", "repro.sim.crashpoints", "--max-points", "3"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert done.returncode == 0, done.stderr
