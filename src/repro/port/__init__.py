"""Substrate ports: the seam between protocol code and the world.

The durable-subscription protocol (brokers, pubends, PFS, clients) is
substrate-independent: it touches time, the CPU, the network, and
stable storage only through four narrow interfaces.  This package names
those interfaces explicitly:

* :class:`~repro.port.clock.Clock` — virtual or wall-clock time with
  ``now``/``at``/``after``/``every``/``post`` scheduling,
* :class:`~repro.port.executor.Executor` — one machine's serial CPU:
  ``submit(cost_ms, fn)`` FIFO, run-to-completion, never re-entrant,
  with crash/recover listeners and a ``busy`` tracker,
* :class:`~repro.port.transport.Connection` /
  :class:`~repro.port.transport.Listener` — an ordered, framed,
  severable message channel,
* :class:`~repro.port.storage.StableStorage` — the write/sync-callback
  contract under which a completion callback *means* the bytes survive
  a crash.

The discrete-event simulation (`net/simtime`, `net/node`, `net/link`,
`storage/disk`) is one adapter family (see
:mod:`repro.adapters.sim`); the real-time asyncio backend
(:mod:`repro.adapters.rt`) is the other.  Tier-1 tests run the sim;
``examples/rt_quickstart.py`` runs the identical protocol classes over
real TCP and real fsyncs.
"""

from .clock import Clock
from .executor import Executor
from .storage import StableStorage
from .transport import Connection, Listener

__all__ = ["Clock", "Connection", "Executor", "Listener", "StableStorage"]
