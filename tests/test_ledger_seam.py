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
