"""Run the broker (PHB + SHB roles) as a real OS process.

This is the rt substrate's analogue of the simulator's single-broker
topology: one process hosts a :class:`PublisherHostingBroker` and a
:class:`SubscriberHostingBroker` sharing one executor on an
:class:`~repro.adapters.rt.clock.AsyncioClock`, joined by an in-process
loopback link.  The *protocol* classes are the exact ones the
simulation runs — only the four ports differ:

* **Clock** — the asyncio event loop (epoch milliseconds, so event
  timestamps and release epochs stay monotone across restarts),
* **Executor** — a :class:`~repro.adapters.rt.executor.LoopExecutor`:
  jobs run back to back on the loop and their busy time is measured;
  the simulator's ``CostModel`` service times are not slept,
* **Transport** — TCP on localhost; each accepted connection's first
  message routes it (``PublishRequest`` → PHB, anything else → SHB),
* **StableStorage** — a :class:`~repro.adapters.rt.storage.RealDisk`
  fsyncing three file-backed volumes: the PHB journal (pub seqs +
  per-pubend event logs), the SHB journal (meta/subs/released tables)
  and the PFS volume.

``kill -9`` at any moment and restart with the same ``--data-dir``:
the journals replay at construction, torn tails truncate to the acked
prefix, the brokers boot through the crash-recovery hooks a simulated
crash fires, and the protocol's own recovery (publisher retransmission,
subscriber catchup) covers the rest — that is the contract the
quickstart (examples/rt_quickstart.py) asserts end to end.

Usage::

    python -m repro.adapters.rt.broker_main --port 7461 --data-dir /tmp/bk
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
from typing import List

from ...broker.base import Broker
from ...broker.phb import PublisherHostingBroker
from ...broker.shb import SubscriberHostingBroker
from ...core import messages as M
from ...storage.logvolume import LogVolume
from .clock import AsyncioClock
from .executor import LoopExecutor
from .storage import RealDisk
from .transport import TcpConnection, TcpListener


#: Events one nack reply may carry.  The cap bounds a reply's size, and
#: what it leaves out waits for the requester's next nack, 250–500 ms
#: later; the protocol default (375) is the value that gives the
#: simulated 2003 testbed the recovery slope of the paper's Figure 7.
#: Here a reply crosses an in-process link, so the cap only has to keep
#: one reply from holding the loop for long.
NACK_REPLY_MAX_EVENTS = 8192


class BrokerProcess:
    """One-process PHB+SHB broker over the rt adapters."""

    def __init__(
        self,
        data_dir: str,
        pubends: List[str],
        sync_interval_ms: float = 5.0,
        commit_interval_ms: float = 100.0,
    ) -> None:
        self.clock = AsyncioClock()
        self.disk = RealDisk(self.clock, sync_interval_ms=sync_interval_ms)
        os.makedirs(data_dir, exist_ok=True)
        self.phb_journal = LogVolume.at_path(os.path.join(data_dir, "phb-journal.log"))
        self.shb_journal = LogVolume.at_path(os.path.join(data_dir, "shb-journal.log"))
        self.pfs_volume = LogVolume.at_path(os.path.join(data_dir, "pfs.log"))
        for volume in (self.phb_journal, self.shb_journal, self.pfs_volume):
            self.disk.attach_volume(volume)

        # Both roles share one executor, as in the paper's 1-broker
        # topology; the loopback link between them carries knowledge
        # down and nacks/acks/subscriptions up.
        node = LoopExecutor(self.clock, "broker")
        self.phb = PublisherHostingBroker(
            self.clock, "phb", node=node, disk=self.disk,
            journal_volume=self.phb_journal,
            nack_reply_max_events=NACK_REPLY_MAX_EVENTS,
        )
        for pubend in sorted(pubends):  # sorted: journal stream order is fixed
            self.phb.create_pubend(pubend)
        self.shb = SubscriberHostingBroker(
            self.clock, "shb", sorted(pubends), node=node, disk=self.disk,
            commit_interval_ms=commit_interval_ms,
            pfs_volume=self.pfs_volume,
            journal_volume=self.shb_journal,
        )
        Broker.connect(self.phb, self.shb, latency_ms=0.1)
        for pubend in sorted(pubends):
            self.phb.register_release_child(pubend, self.shb.name)
        # Boot: a restart is a crash this process did not witness, so
        # both roles recover through the hooks a simulated crash fires
        # (docs/PROTOCOL.md §11.3); a first boot takes the same path.
        # After wiring: cold-marking walks the children and the SHB's
        # refresh needs its uplink.
        node.crash()
        node.recover()
        self.listener = TcpListener()
        self.listener.on_connection(self._route)

    def _route(self, conn: TcpConnection) -> None:
        """Peek at a session's first message to pick its role."""

        def first(msg: object) -> None:
            if isinstance(msg, M.PublishRequest):
                self.phb.attach_publisher(conn)
            else:
                self.shb.attach_client(conn)
            conn.deliver(msg)

        conn.on_message(first)

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> int:
        return await self.listener.start(host, port)

    def close(self) -> None:
        self.listener.close()
        self.disk.close()


async def _amain(args: argparse.Namespace) -> None:
    broker = BrokerProcess(
        args.data_dir,
        args.pubends.split(","),
        sync_interval_ms=args.sync_interval_ms,
    )
    port = await broker.serve(args.host, args.port)
    # The orchestrator (and a human) learns readiness from this line.
    print(f"LISTENING {port}", flush=True)
    try:
        await asyncio.Event().wait()
    finally:
        broker.close()


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--data-dir", required=True, help="directory for the durable volumes")
    parser.add_argument("--pubends", default="stream", help="comma-separated pubend names")
    parser.add_argument("--sync-interval-ms", type=float, default=5.0)
    args = parser.parse_args(argv)
    try:
        asyncio.run(_amain(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
