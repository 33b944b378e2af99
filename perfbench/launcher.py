"""Traced launcher for the live server.

Runs ``repro serve`` (through :func:`repro.cli.main`, so flags and
defaults are the CLI's) after wrapping the live layers' entry points with
a :class:`~perfbench.tracer.Tracer`.  Two signals frame the measurement
window:

* ``SIGUSR1`` zeroes the per-layer totals and snapshots the counters;
* ``SIGUSR2`` writes the totals, the counter deltas and the kept spans to
  ``--trace-out`` (the spans go to ``<trace-out>.spans.jsonl``).

Usage: ``python -m perfbench.launcher --trace-out FILE -- <serve flags>``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys

from perfbench.tracer import LIVE_TARGETS, TimedOs, Tracer, install

#: Spans kept for the span file.  Writing them blocks the server's event
#: loop; a cap keeps that pause near 0.1 s.  A pause of seconds lets the
#: open-loop client begin more transactions than the server's admission
#: limit (256), and the server then stops reading the COMMITs that would
#: free the slots (see perfbench/README.md).
KEEP_SPANS = 20_000


def _counters(server) -> dict:
    counters = server.counters()
    return {
        "blocks_written": counters["log.blocks_written"],
        "fsyncs": counters["log.fsyncs"],
        "flushes": server.manager.scheduler.completed,
        "peak_backlog": server.manager.scheduler.peak_backlog,
    }


class WindowProbe:
    """Resets and dumps the tracer on the window signals."""

    def __init__(self, tracer: Tracer, out_path: str):
        self.tracer = tracer
        self.out_path = out_path
        self.server = None
        self.start_counters = None
        self.start_latency = None

    def attach(self, server) -> None:
        self.server = server
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGUSR1, self.reset)
        loop.add_signal_handler(signal.SIGUSR2, self.dump)

    def reset(self) -> None:
        tracer = self.tracer
        tracer.self_seconds.clear()
        tracer.calls.clear()
        tracer.layer_calls.clear()
        tracer.spans.clear()
        tracer.dropped = 0
        self.start_counters = _counters(self.server)
        self.start_latency = self.server.storage.write_latency()

    def dump(self) -> None:
        end = _counters(self.server)
        window = {k: end[k] - self.start_counters[k] for k in end}
        window["peak_backlog"] = end["peak_backlog"]
        latency = self.server.storage.write_latency()
        # Window-only write-to-durable distribution: subtract the start.
        latency.counts = [a - b for a, b in zip(latency.counts, self.start_latency.counts)]
        latency.count -= self.start_latency.count
        out = {
            "layers": dict(self.tracer.self_seconds),
            "calls": dict(self.tracer.calls),
            "layer_calls": dict(self.tracer.layer_calls),
            "counters": window,
            "write_to_durable_p50_s": latency.percentile(50.0),
            "spans_dropped": self.tracer.dropped,
        }
        self.tracer.write(self.out_path + ".spans.jsonl")
        tmp = self.out_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(out, f)
        os.replace(tmp, self.out_path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.launcher")
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    tracer = Tracer(keep=KEEP_SPANS)
    install(tracer, LIVE_TARGETS)

    import repro.live.storage as storage
    from repro.cli import main as cli_main
    from repro.live.server import LiveServer

    timed_os = TimedOs(tracer, os)
    storage.os = timed_os
    attach_storage = storage.LiveLogStorage.attach

    def attach(self, manager):
        attach_storage(self, manager)
        timed_os.fds.update(drive._fd for drive in self.drives)

    storage.LiveLogStorage.attach = attach

    probe = WindowProbe(tracer, args.trace_out)
    start_server = LiveServer.start

    async def start(self):
        await start_server(self)
        probe.attach(self)

    LiveServer.start = start
    return cli_main(["serve"] + serve_args)


if __name__ == "__main__":
    sys.exit(main())
