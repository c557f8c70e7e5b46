"""The frozen benchmark ledger still fits the program it wraps.

``benchmarks/ledger/spans.py`` patches classes under ``src/`` by bare
``getattr(cls, name)`` — ``MatchingEngine.match``, ``PFS.write``, the
Scheduler's scheduling calls, the rt adapters — and feature PRs may not
edit it.  A PR that deletes or renames a name it wraps would otherwise
fail only in the driver's traced repetition; installing the wrappers
here fails it in tier-1.  A subprocess, because the wrappers replace
methods on the classes for the life of the process.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent

_INSTALL = """
import sys
sys.path[:0] = [{ledger!r}, {src!r}]
import spans
spans.install(spans.Tracer(), rt=True)
"""


def test_ledger_wrappers_install_on_this_tree():
    script = _INSTALL.format(
        ledger=str(ROOT / "benchmarks" / "ledger"), src=str(ROOT / "src")
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr


_OWNERS = """
import sys
sys.path[:0] = [{ledger!r}, {src!r}]
import spans
tracer = spans.Tracer()
spans.install(tracer, rt=False)
from repro.broker.intermediate import IntermediateBroker
from repro.broker.phb import PublisherHostingBroker
from repro.core.messages import KnowledgeUpdate
from repro.net.simtime import Scheduler

sim = Scheduler()
for broker in (IntermediateBroker(sim, "mid"), PublisherHostingBroker(sim, "phb")):
    jobs = []
    broker.node.submit = lambda cost_ms, fn: jobs.append(fn)
    broker._forward("child", KnowledgeUpdate("P1"), 0.1, sim.now, "span")
    print(type(broker).__name__, tracer.owner(jobs[0]))
"""


def test_shared_forward_jobs_are_charged_to_the_submitting_role():
    """``Broker._forward`` lives in broker/base.py, a module no layer is
    named after; its job is charged to the role whose ``self`` it
    closes over.  A helper that stopped closing over ``self`` would move
    per-layer self time into ``other``."""
    script = _OWNERS.format(
        ledger=str(ROOT / "benchmarks" / "ledger"), src=str(ROOT / "src")
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == [
        "IntermediateBroker broker.intermediate",
        "PublisherHostingBroker broker.phb",
    ]
