"""Launch the rt broker with the benchmark's span wrappers installed.

Used only by traced runs: ``traced_broker.py DUMP_PATH <broker_main
arguments>``.  It patches the program's public entry points (see
``spans.py``), then hands over to the unmodified
``repro.adapters.rt.broker_main.main``.  On ``SIGUSR1`` it writes the
per-layer span totals and the broker objects' public counters to
``DUMP_PATH`` and carries on, so the load generator can collect them
just before it kills the process.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    dump_path, broker_args = sys.argv[1], sys.argv[2:]
    from repro.adapters.rt import broker_main

    tracer = spans.Tracer()
    spans.install(tracer, rt=True)
    spans.track_instances(tracer, broker_main.BrokerProcess)
    start = time.perf_counter()

    def dump(_signum: int, _frame: object) -> None:
        wall = time.perf_counter() - start
        raw = spans.raw_counters(tracer, [
            broker for process in tracer.instances["BrokerProcess"]
            for broker in (process.phb, process.shb)
        ])
        # Whatever no span covers: select() waits and asyncio's own work.
        raw["_self_s.adapters.rt.loop"] = wall - sum(tracer.self_s.values())
        document = {"wall_s": wall, "raw": raw, "calls": dict(tracer.calls)}
        with open(dump_path + ".tmp", "w") as f:
            json.dump(document, f)
        os.replace(dump_path + ".tmp", dump_path)

    signal.signal(signal.SIGUSR1, dump)
    return broker_main.main(broker_args)


if __name__ == "__main__":
    sys.exit(main())
