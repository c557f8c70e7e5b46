"""Real-time asyncio adapters for the substrate ports.

The same protocol classes that run on the discrete-event simulation run
here against wall-clock time, localhost TCP and real fsyncs:

* :class:`~repro.adapters.rt.clock.AsyncioClock` — the Clock port on an
  asyncio event loop (epoch milliseconds, so event timestamps stay
  monotone across broker restarts),
* :class:`~repro.adapters.rt.executor.LoopExecutor` — the Executor
  port: jobs run back to back on the loop, no modelled service time is
  slept, busy time is measured,
* :class:`~repro.adapters.rt.transport.TcpConnection` /
  :class:`~repro.adapters.rt.transport.TcpListener` — length-prefixed,
  CRC-checked frames over asyncio streams,
* :class:`~repro.adapters.rt.storage.RealDisk` — group-commit
  StableStorage flushing file-backed log volumes with real ``fsync``.

``broker_main`` hosts a single-broker (PHB+SHB) process over TCP; see
``examples/rt_quickstart.py`` for the kill-9-and-catch-up demo.
"""
