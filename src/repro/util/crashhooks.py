"""Crash-point hook registry (stdlib only).

Storage, PFS and SHB code calls ``HOOKS.fire(site, owner)`` at each
durability boundary; :mod:`repro.sim.crashpoints` installs the
listeners that enumerate those firings or crash at one of them.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["HOOKS", "CrashPointHooks"]


class CrashPointHooks:
    """Process-global crash-point hook registry.

    ``enabled`` is False unless a listener is installed; call sites
    guard with ``if HOOKS.enabled:`` so the disabled cost is one
    attribute check and the simulation's event/RNG stream is untouched.
    """

    __slots__ = ("enabled", "_listener")

    def __init__(self) -> None:
        self.enabled = False
        self._listener: Optional[Callable[[str, Optional[str]], None]] = None

    def install(self, listener: Callable[[str, Optional[str]], None]) -> None:
        if self._listener is not None:
            raise RuntimeError("a crash-point listener is already installed")
        self._listener = listener
        self.enabled = True

    def uninstall(self) -> None:
        self._listener = None
        self.enabled = False

    def fire(self, site: str, owner: Optional[str]) -> None:
        listener = self._listener
        if listener is not None:
            listener(site, owner)


#: The registry every instrumented module reports to.
HOOKS = CrashPointHooks()
