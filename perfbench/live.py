"""The live workloads: ``live-paced`` (open loop) and ``live-deep`` (closed).

Both run the unmodified ``python -m repro serve`` with its defaults (EL,
128+128 blocks, 5 ms group commit, fsync on) and drive it from this
process over two connections with :mod:`perfbench.client`.

A run: set-up samples (spawn to port banner), a one-second warm-up, the
measurement window of ``--seconds``, then a SIGKILL under load and an
audit of every acknowledged update against a restart over the files.
Transactions due inside the window count as attempted; those due after it
are cut by the kill on purpose and are not counted.

On a shared virtual machine the CPU slows by up to 1.7x in bursts caused
by other tenants, and that only ever adds time.  So in the open loop the
window is cut into equal intervals and latency is that of the best
interval; CPU per commit is the whole window's; restarts are scaled to
reference speed (see common.SpeedGauge) and the median is kept.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.client import (
    PipelinedConnection, TrafficSource, TxRecord, closed_loop, open_loop,
    poisson_schedule,
)
from perfbench.common import (
    SpeedGauge, child_env, commit_latency_layers, failed_fraction, median,
    median_pass, percentile, scaled_setups,
    proc_cpu_seconds, proc_peak_rss_mb, proc_write_bytes,
)
from perfbench import simpaper

HOST = "127.0.0.1"
CONNECTIONS = 2
PACED_TPS = 500.0
DEEP_CALLERS = 128
WARMUP_SECONDS = 1.0
#: Window transactions must all resolve within this long after the window.
SETTLE_SECONDS = 15.0
#: Spawn-to-banner samples per run, of servers killed at once.
SETUP_SPAWNS = 7
#: The window is measured in intervals of this length (about 1000
#: transactions each, so an interval's p99 has ten samples beyond it).
INTERVAL_SECONDS = 2.0
#: Timed restarts over the killed server's files; the median counts.  They
#: follow untimed warm-up restarts, the first of which is the audit: the
#: first passes run slower while the allocator grows the heap to the
#: database file's size.
RESTARTS = 11
RESTART_WARMUPS = 2
RESTART_PARTS = ("read_log_s", "load_db_s", "replay_s")
#: The live workloads time the first 50 simulated seconds of the paper's
#: runs as a simulator reference.  It is the same job on every run (the
#: paper's seed), so it varies only with the simulator's speed.
PAPER_SLICE_SECONDS = 50.0
PAPER_SLICE_SEED = 0
PAPER_SLICE_REPEATS = 2
#: What ``repro serve`` runs with when given no flags.
SERVER_FLAGS = {
    "technique": "el", "sizes": "128,128", "group_commit_ms": 5.0,
    "fsync": True, "max_inflight": 256, "num_objects": 1_000_000,
}

#: Layers whose spans run on the log-write threads, not the event loop.
WRITE_THREAD_LAYERS = ("live.storage.pump", "live.storage.pwrite", "live.storage.fsync")
LATENCY_FIGURES = ("commit_p50_ms", "commit_p99_ms")
CLIENT_LAYERS = ("client.begin_rtt_ms", "client.update_rtt_ms",
                 "client.commit_wait_ms", "client.late_p99_ms")

_BANNER = re.compile(r"serving \w+ on 127\.0\.0\.1:(\d+)")


class ServerProcess:
    """``repro serve`` (or the traced launcher) as a child process."""

    def __init__(self, log_dir: Path, trace_out: Optional[Path] = None):
        log_dir.mkdir(parents=True, exist_ok=True)
        serve = ["--port", "0", "--log-dir", str(log_dir)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"] + serve
        else:
            cmd = [sys.executable, "-m", "perfbench.launcher",
                   "--trace-out", str(trace_out), "--"] + serve
        self.log_dir = log_dir
        self._stderr = open(log_dir / "server.stderr", "w")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._stderr, text=True,
            env=child_env(),
        )
        self.pid = self.process.pid
        line = self.process.stdout.readline()
        match = _BANNER.search(line)
        if match is None:
            self.kill()
            raise RuntimeError(
                f"server did not announce a port: {line!r} "
                f"(stderr in {log_dir / 'server.stderr'})"
            )
        self.port = int(match.group(1))
        self.setup_s = time.perf_counter() - started

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self.process.stdout.close()
        self._stderr.close()


@dataclass
class Sample:
    """The server's /proc counters at one instant."""

    at: float
    cpu_s: float
    write_bytes: int

    @classmethod
    def take(cls, pid: int, at: float) -> "Sample":
        return cls(at, proc_cpu_seconds(pid), proc_write_bytes(pid))


async def _drive(workload: str, seed: int, seconds: float,
                 server: ServerProcess, trace_out: Optional[Path]) -> Dict:
    """Warm up, measure one window, then SIGKILL the server under load."""
    loop = asyncio.get_running_loop()
    conns = [await PipelinedConnection.open(HOST, server.port)
             for _ in range(CONNECTIONS)]
    source = TrafficSource(seed)
    stop = asyncio.Event()
    records: List[TxRecord] = []
    begin = loop.time()
    if workload == "live-paced":
        load = asyncio.ensure_future(open_loop(
            conns, source, poisson_schedule(seed, PACED_TPS, begin, math.inf),
            stop, records,
        ))
    else:
        load = asyncio.ensure_future(
            closed_loop(conns, source, DEEP_CALLERS, stop, records)
        )
    window_start = begin + WARMUP_SECONDS
    await asyncio.sleep(window_start - loop.time())
    if trace_out is not None:
        server.process.send_signal(signal.SIGUSR1)
    samples = [Sample.take(server.pid, loop.time())]
    intervals = max(1, round(seconds / INTERVAL_SECONDS))
    for index in range(1, intervals + 1):
        await asyncio.sleep(window_start + seconds * index / intervals - loop.time())
        samples.append(Sample.take(server.pid, loop.time()))
    peak_rss_mb = proc_peak_rss_mb(server.pid)
    if trace_out is not None:
        server.process.send_signal(signal.SIGUSR2)
        await _wait_for(trace_out)
    window = [r for r in records if window_start <= r.due < window_start + seconds]
    deadline = loop.time() + SETTLE_SECONDS
    while any(r.outcome is None for r in window) and loop.time() < deadline:
        await asyncio.sleep(0.01)
    server.kill()
    stop.set()
    await load
    for conn in conns:
        await conn.close()
    return {
        "window": window,
        "records": records,
        "samples": samples,
        "peak_rss_mb": peak_rss_mb,
        "acked": source.acked,
        "protocol_errors": sum(c.protocol_errors for c in conns),
        "cut_by_kill": sum(1 for r in records if r.outcome == "lost"),
    }


async def _wait_for(path: Path, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise RuntimeError(f"traced server wrote no {path.name}")
        await asyncio.sleep(0.01)


def restart(log_dir: Path, acked=None) -> Dict:
    """One timed restart over the files; with ``acked``, also the audit."""
    from repro.live.storage import FileBackedDatabase, read_log_directory
    from repro.recovery.single_pass import SinglePassRecovery
    from repro.recovery.verify import RecoveryVerifier

    t0 = time.perf_counter()
    images = read_log_directory(log_dir)
    t1 = time.perf_counter()
    stable = FileBackedDatabase.load_snapshot(log_dir / "db.dat")
    t2 = time.perf_counter()
    recovery = SinglePassRecovery(images)
    state = recovery.recover(stable)
    t3 = time.perf_counter()
    out = dict(zip(RESTART_PARTS, (t1 - t0, t2 - t1, t3 - t2)))
    if acked is not None:
        audit = RecoveryVerifier(acked).check_crash_consistency(
            math.inf, state, scan=recovery.scan, stable=stable
        )
        out.update(lost=len(audit.lost_updates), phantoms=len(audit.phantom_objects),
                   unreadable_blocks=audit.unreadable_blocks, acked_updates=len(acked))
    return out


def check_run(protocol_errors: int, window: List[TxRecord], audit: Dict) -> List[str]:
    """The live output checks; an empty list means the run was correct."""
    problems = []
    if protocol_errors:
        problems.append(f"{protocol_errors} protocol errors")
    failed = [r for r in window if r.outcome != "ok"]
    if failed:
        outcomes = sorted({str(r.outcome) for r in failed})
        problems.append(f"{len(failed)} window transactions failed: {outcomes}")
    if not any(r.outcome == "ok" for r in window):
        problems.append("no transaction committed in the window")
    if audit["lost"] or audit["phantoms"]:
        problems.append(
            f"recovery lost {audit['lost']} acknowledged updates and "
            f"produced {audit['phantoms']} phantom objects"
        )
    return problems


def _figures(driven: Dict, a: Sample, b: Sample) -> Dict[str, float]:
    """Throughput, CPU per commit and latency between two samples."""
    acks = sum(1 for r in driven["records"]
               if r.done is not None and a.at <= r.done < b.at)
    latencies = [r.latency for r in driven["window"]
                 if r.outcome == "ok" and a.at <= r.due < b.at]
    return {
        "committed_tps": acks / (b.at - a.at),
        "server_cpu_ms_per_commit": 1000 * (b.cpu_s - a.cpu_s) / max(acks, 1),
        "disk_write_bytes_per_commit": (b.write_bytes - a.write_bytes) / max(acks, 1),
        "commit_p50_ms": 1000 * percentile(latencies, 50) if latencies else math.inf,
        "commit_p99_ms": 1000 * percentile(latencies, 99) if latencies else math.inf,
    }


def _client_layers(window: List[TxRecord]) -> Dict[str, float]:
    ok = [r for r in window if r.outcome == "ok"]
    if not ok:
        return {name: 0.0 for name in CLIENT_LAYERS}
    return {
        "client.begin_rtt_ms": 1000 * percentile([r.begin_rtt for r in ok], 50),
        "client.update_rtt_ms": 1000 * percentile(
            [rtt for r in ok for rtt in r.update_rtts], 50),
        "client.commit_wait_ms": 1000 * percentile([r.commit_wait for r in ok], 50),
        "client.late_p99_ms": 1000 * percentile(
            [r.started - r.due for r in window], 99),
    }


def measure(workload: str, seed: int, seconds: float, run_dir: Path,
            trace_out: Optional[Path] = None) -> Dict:
    """Set-up samples, one window under load, the kill; raw figures."""
    spares = iter(range(SETUP_SPAWNS))

    def start() -> float:
        spare = ServerProcess(run_dir / f"setup{next(spares)}")
        spare.kill()
        return spare.setup_s

    setups = scaled_setups(start, SETUP_SPAWNS)
    log_dir = run_dir / "log"
    server = ServerProcess(log_dir, trace_out)
    try:
        driven = asyncio.run(_drive(workload, seed, seconds, server, trace_out))
    finally:
        server.kill()
    window = driven["window"]
    samples = driven["samples"]
    return {
        "log_dir": log_dir,
        "acked": driven["acked"],
        "window": window,
        "protocol_errors": driven["protocol_errors"],
        "attempted": len(window),
        "failed": sum(1 for r in window if r.outcome != "ok"),
        "setups": setups,
        "whole": _figures(driven, samples[0], samples[-1]),
        "intervals": [_figures(driven, a, b) for a, b in zip(samples, samples[1:])],
        "server_cpu_s": samples[-1].cpu_s - samples[0].cpu_s,
        "peak_rss_mb": driven["peak_rss_mb"],
        "client": _client_layers(window),
        "cut_by_kill": driven["cut_by_kill"],
    }


def load_figures(workload: str, raw: Dict) -> Dict[str, float]:
    """Latency and CPU per commit as reported for ``workload``.

    CPU per commit is the whole window's.  In the open loop, latency is
    milliseconds against 2 s intervals, so each interval is an independent
    sample and the best one is the least disturbed.  In the closed loop,
    latency is set by the 128 callers over throughput and spans much of an
    interval, so the whole window counts.
    """
    whole = raw["whole"]
    figures = {"server_cpu_ms_per_commit": whole["server_cpu_ms_per_commit"]}
    for name in LATENCY_FIGURES:
        figures[name] = (min(f[name] for f in raw["intervals"])
                         if workload == "live-paced" else whole[name])
    return figures


def reference_work(log_dir: Path, acked) -> Dict:
    """After the kill: the paper slice and timed restarts over the files.

    The first, untimed restart also audits the acknowledged updates.
    Nothing else of the benchmark runs now, so restarts are scaled to
    reference speed.
    """
    slices = simpaper.paper_runs(PAPER_SLICE_SEED, runtime=PAPER_SLICE_SECONDS,
                                 repeats=PAPER_SLICE_REPEATS)
    audit = restart(log_dir, acked)
    for _ in range(RESTART_WARMUPS - 1):
        restart(log_dir)
    restarts = []
    gauge = SpeedGauge(large=True)
    for _ in range(RESTARTS):
        # A restarted process would not hold the client's records, so their
        # garbage collection is kept out of the timed passes.
        gc.collect()
        gc.disable()
        try:
            passed = restart(log_dir)
        finally:
            gc.enable()
        factor = gauge.factor()
        restarts.append({part: passed[part] * factor for part in RESTART_PARTS})
    middle = median_pass(restarts)
    return {
        "slices": slices,
        "audit": {k: audit[k] for k in ("lost", "phantoms", "unreadable_blocks", "acked_updates")},
        "recovery": middle,
    }


def per_layer(server_trace: Dict, recovery: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced live window."""
    layers = server_trace["layers"]
    calls = server_trace["calls"]
    counters = server_trace["counters"]
    appends = calls.get("Generation.append", 0)
    migrations = calls.get("Generation.append_migrated", 0)
    p50 = server_trace["write_to_durable_p50_s"]
    return {
        "core.manager.self_s": layers.get("core.manager", 0.0),
        "core.manager.calls": server_trace["layer_calls"].get("core.manager", 0),
        "core.generation.self_s": layers.get("core.generation", 0.0),
        "core.generation.appends": appends,
        "core.generation.migrations": migrations,
        "core.generation.fresh_fraction": appends / max(appends + migrations, 1),
        "core.generation.blocks_sealed": counters["blocks_written"],
        "core.tables.self_s": layers.get("core.tables", 0.0),
        "core.flushqueue.self_s": layers.get("core.flushqueue", 0.0),
        "core.flushqueue.flushes": counters["flushes"],
        "core.flushqueue.backlog_calls": calls.get("FlushScheduler.backlog", 0),
        "core.flushqueue.peak_backlog": counters["peak_backlog"],
        "db.install.self_s": layers.get("db.install", 0.0),
        "db.installs": calls.get("FileBackedDatabase.install", 0),
        "records.codec.self_s": layers.get("records.codec", 0.0),
        "records.codec.records_encoded": calls.get("RecordCodec.encode", 0),
        "live.protocol.self_s": layers.get("live.protocol", 0.0),
        "live.server.self_s": layers.get("live.server", 0.0),
        "live.clock.self_s": layers.get("live.clock", 0.0),
        "live.clock.timers": calls.get("RealTimeScheduler.at", 0)
        + calls.get("RealTimeScheduler.after", 0),
        "live.storage.encode_slot_s": layers.get("live.storage.encode_slot", 0.0),
        "live.storage.pwrite_s": layers.get("live.storage.pwrite", 0.0),
        "live.storage.fsync_s": layers.get("live.storage.fsync", 0.0),
        "live.storage.fsyncs": counters["fsyncs"],
        "live.storage.blocks_per_fsync": counters["blocks_written"] / max(counters["fsyncs"], 1),
        "live.storage.write_to_durable_ms": 1000 * p50 if p50 is not None else 0.0,
        "recovery.read_log_s": recovery["read_log_s"],
        "recovery.load_db_s": recovery["load_db_s"],
        "recovery.replay_s": recovery["replay_s"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        run_dir: Path) -> Dict:
    """The whole live workload; the report :mod:`perfbench.run` prints."""
    raw = measure(workload, seed, seconds, run_dir / "plain")
    reference = reference_work(raw["log_dir"], raw["acked"])
    problems = check_run(raw["protocol_errors"], raw["window"], reference["audit"])
    problems += simpaper.check_outputs(PAPER_SLICE_SEED, reference["slices"], None)
    el, fw = (simpaper.best(reference["slices"][t]) for t in ("el", "fw"))
    report = {
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "end_to_end": {
            "setup_s": median(raw["setups"]),
            "sim_el_wall_s": el["wall_s"],
            "sim_fw_wall_s": fw["wall_s"],
            "peak_rss_mb": raw["peak_rss_mb"],
            "committed_tps": raw["whole"]["committed_tps"],
            **load_figures(workload, raw),
            "disk_write_bytes_per_commit": raw["whole"]["disk_write_bytes_per_commit"],
            "recovery_s": sum(reference["recovery"].values()),
            "failed_fraction": failed_fraction(raw["failed"], raw["attempted"]),
        },
        "context": {
            "server_flags": SERVER_FLAGS,
            "connections": CONNECTIONS,
            "offered": ({"open_loop_tps": PACED_TPS} if workload == "live-paced"
                        else {"closed_loop_callers": DEEP_CALLERS}),
            "warmup_s": WARMUP_SECONDS,
            "window_s": seconds,
            "setup_samples_s": raw["setups"],
            "intervals": raw["intervals"],
            "audit": reference["audit"],
            "recovery_parts_s": reference["recovery"],
            "cut_by_kill": raw["cut_by_kill"],
            "client": raw["client"],
            "paper_slice_s": PAPER_SLICE_SECONDS,
        },
    }
    if trace:
        trace_out = out_dir / f"server-trace-{workload}-seed{seed}.json"
        if trace_out.exists():
            trace_out.unlink()
        traced = measure(workload, seed, seconds, run_dir / "traced", trace_out)
        problems += check_run(traced["protocol_errors"], traced["window"],
                              restart(traced["log_dir"], traced["acked"]))
        server_trace = json.loads(trace_out.read_text())
        layers = per_layer(server_trace, reference["recovery"])
        layers.update(traced["client"])
        layers.update(commit_latency_layers(report["end_to_end"]))
        report["per_layer"] = layers
        report["context"]["trace"] = {
            "overhead_server_cpu_s": traced["server_cpu_s"] - raw["server_cpu_s"],
            "overhead_commit_p50_ms": load_figures(workload, traced)["commit_p50_ms"]
            - load_figures(workload, raw)["commit_p50_ms"],
            "server_cpu_s_untraced": raw["server_cpu_s"],
            "server_cpu_s_traced": traced["server_cpu_s"],
            "committed_tps_traced": traced["whole"]["committed_tps"],
            # The loop thread's layers cover its wall time: busy + idle
            # should be about the window's length.
            "loop_busy_s": sum(v for k, v in server_trace["layers"].items()
                               if k not in WRITE_THREAD_LAYERS + ("live.idle",)),
            "loop_idle_s": server_trace["layers"].get("live.idle", 0.0),
            "layer_self_s": server_trace["layers"],
            "spans_dropped": server_trace["spans_dropped"],
        }
    report["problems"] = problems
    report["correct"] = not problems
    return report


def cleanup(run_dir: Path) -> None:
    shutil.rmtree(run_dir, ignore_errors=True)
