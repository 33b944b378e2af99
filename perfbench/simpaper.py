"""The ``sim-paper`` workload: the paper's 5 % operating point, simulated.

Each technique runs twice, alternating, each run in its own child
interpreter (``python -m perfbench.simpaper child ...``) so that its peak
RSS and CPU time are its own.  The child prints a ``ready`` line once the
:class:`Simulation` is built (the parent times spawn-to-ready as set-up),
then one JSON result.  It times every 5 simulated seconds separately and
scales each slice to reference CPU speed (:class:`SpeedGauge`); the parent
keeps each slice's faster run (:func:`best`).

The output check: every result field except wall time must hash to the
digest recorded for the seed in ``digests.json`` (seeds beyond the recorded
range are folded into it, see :func:`input_seed`).  Seed 0 must also match
the paper: EL 18+16 at 12.87 writes/s, FW 123 at 11.63 writes/s, no kills.
Other seeds may kill a few FW transactions (123 blocks is the minimum for
seed 0); their kill counts are part of the digested output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.common import (
    WORK, SpeedGauge, child_env, commit_latency_layers, failed_fraction, median,
    median_pass, percentile, scaled_setups,
)

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: The paper's configurations at the 5 % point (100 TPS, 500 s).
TECHNIQUES = {
    "el": {"technique": "el", "generation_sizes": (18, 16), "recirculation": False},
    "fw": {"technique": "fw", "generation_sizes": (123,), "recirculation": False},
}
PAPER_SEED0_WPS = {"el": 12.87, "fw": 11.63}
PAPER_RUNTIME = 500.0
#: Identical runs of each technique per benchmark run (see best()).
REPEATS = 2
#: Recovery over the final log is repeated and the median pass kept.
RECOVERY_REPEATS = 15
#: Set-up-only children per benchmark run, EL and FW alternating.
SETUP_SPAWNS = 7
#: Simulated seconds per separately timed (and speed-scaled) slice of a run.
CHUNK_SECONDS = 5.0


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------

def _build(technique: str, seed: int, runtime: float):
    from repro.harness.config import SimulationConfig, Technique
    from repro.harness.simulator import Simulation

    spec = TECHNIQUES[technique]
    config = SimulationConfig(
        technique=Technique(spec["technique"]),
        generation_sizes=spec["generation_sizes"],
        recirculation=spec["recirculation"],
        runtime=runtime,
        seed=seed,
    )
    return Simulation(config)


def result_digest(result_dict: Dict) -> str:
    """SHA-256 over every result field except the wall time."""
    fields = {k: v for k, v in result_dict.items() if k != "wall_seconds"}
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True).encode()
    ).hexdigest()


def _observe_commit_wall(sim) -> List[float]:
    """Wall-clock ms from each commit request to its acknowledgement.

    The list is in acknowledgement order, which repeats exactly across
    identical runs.  The generator hands the manager its callbacks by
    attribute lookup at each step, so instance attributes are enough.
    """
    generator = sim.generator
    request_commit, handle_ack = generator._request_commit, generator._handle_ack
    requested: Dict[int, float] = {}
    latencies: List[float] = []
    clock = time.perf_counter

    def on_request(run) -> None:
        requested[run.tid] = clock()
        request_commit(run)

    def on_ack(tid: int, ack_time: float) -> None:
        handle_ack(tid, ack_time)
        started = requested.pop(tid, None)
        if started is not None:
            latencies.append((clock() - started) * 1000.0)

    generator._request_commit = on_request
    generator._handle_ack = on_ack
    return latencies


def _time_recovery(sim) -> Dict[str, float]:
    """Recovery over the run's final durable log and stable database.

    Returns the parts of the median of several passes, at reference speed.
    """
    from repro.recovery.single_pass import SinglePassRecovery

    passes = []
    gauge = SpeedGauge(large=True)
    for _ in range(RECOVERY_REPEATS):
        # A restarted process would not hold the simulation's objects, so
        # their garbage collection is kept out of the timed passes.
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            images = sim.capture_durable_log()
            t1 = time.perf_counter()
            stable = sim.capture_stable_database()
            t2 = time.perf_counter()
            SinglePassRecovery(images).recover(stable)
            t3 = time.perf_counter()
        finally:
            gc.enable()
        factor = gauge.factor()
        passes.append({"read_log_s": (t1 - t0) * factor,
                       "load_db_s": (t2 - t1) * factor,
                       "replay_s": (t3 - t2) * factor})
    return median_pass(passes)


def _trace_counters(sim) -> Dict[str, float]:
    manager = sim.manager
    return {
        "events": sim.sim.events_executed,
        "blocks_sealed": sum(g.blocks_written for g in manager.generations),
        "flushes": manager.scheduler.completed,
        "peak_backlog": manager.scheduler.peak_backlog,
    }


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def child_main(args: argparse.Namespace) -> int:
    tracer = None
    if args.trace_out:
        from perfbench.tracer import SIM_TARGETS, Tracer, install

        tracer = Tracer()
        install(tracer, SIM_TARGETS)
    sim = _build(args.technique, args.seed, args.runtime)
    commit_wall = _observe_commit_wall(sim)
    print(json.dumps({"ready": True}), flush=True)
    chunk_wall: List[float] = []
    chunk_cpu: List[float] = []
    raw_wall = 0.0
    scaled = 0
    steps = max(1, round(args.runtime / CHUNK_SECONDS))
    gauge = SpeedGauge()
    for step in range(1, steps + 1):
        t0, c0 = time.perf_counter(), _cpu_seconds()
        if step < steps:
            sim.run_until(args.runtime * step / steps)
        else:
            result = sim.run()  # the remainder, then result collection
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        factor = gauge.factor()
        raw_wall += wall
        chunk_wall.append(wall * factor)
        chunk_cpu.append(cpu * factor)
        for index in range(scaled, len(commit_wall)):
            commit_wall[index] *= factor
        scaled = len(commit_wall)
    result_dict = result.to_dict()
    out = {
        "technique": args.technique,
        "seed": args.seed,
        "runtime": args.runtime,
        "wall_s": sum(chunk_wall),
        "cpu_s": sum(chunk_cpu),
        "chunk_wall_s": chunk_wall,
        "chunk_cpu_s": chunk_cpu,
        "raw_wall_s": raw_wall,
        "begun": result.transactions_begun,
        "committed": result.transactions_committed,
        "killed": result.transactions_killed,
        "failed": result.failed,
        "bandwidth_wps": result.total_bandwidth_wps,
        "log_bytes": sum(g.bytes_written for g in result.generations),
        "commit_wall_ms": [round(x, 6) for x in commit_wall],
        "digest": result_digest(result_dict),
        "recovery": _time_recovery(sim),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = dict(tracer.self_seconds)
        out["calls"] = dict(tracer.calls)
        out["layer_calls"] = dict(tracer.layer_calls)
        out["counters"] = _trace_counters(sim)
        out["spans_dropped"] = tracer.dropped
        tracer.write(args.trace_out)
    print(json.dumps(out), flush=True)
    return 0


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class SimChild:
    """One child interpreter running (or just setting up) a simulation."""

    def __init__(self, technique: str, seed: int, *, runtime: float,
                 trace_out: Optional[Path] = None):
        cmd = [sys.executable, "-m", "perfbench.simpaper", "child",
               "--technique", technique, "--seed", str(seed),
               "--runtime", repr(runtime)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
            cwd=str(WORK.parent),
        )
        self.setup_s: Optional[float] = None

    def wait_ready(self) -> float:
        line = self.process.stdout.readline()
        if not line or not json.loads(line).get("ready"):
            self.close()
            raise RuntimeError(f"simulation child failed to start: {line!r}")
        self.setup_s = time.perf_counter() - self.started
        return self.setup_s

    def result(self, timeout: float = 170.0) -> Dict:
        out, _ = self.process.communicate(timeout=timeout)
        if self.process.returncode != 0:
            raise RuntimeError(f"simulation child exited {self.process.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def run_technique(technique: str, seed: int, *, runtime: float = PAPER_RUNTIME,
                  trace_out: Optional[Path] = None) -> Dict:
    """Spawn, wait for set-up, run to completion; the child's result dict."""
    child = SimChild(technique, seed, runtime=runtime, trace_out=trace_out)
    try:
        setup = child.wait_ready()
        result = child.result()
    finally:
        child.close()
    result["setup_s"] = setup
    return result


def setup_samples(seed: int, count: int = SETUP_SPAWNS) -> List[float]:
    """Spawn-to-ready times of set-up-only children, at reference speed."""
    techniques = itertools.cycle(TECHNIQUES)

    def start() -> float:
        child = SimChild(next(techniques), seed, runtime=PAPER_RUNTIME)
        try:
            return child.wait_ready()
        finally:
            child.close()

    return scaled_setups(start, count)


def paper_runs(seed: int, *, runtime: float = PAPER_RUNTIME, repeats: int = REPEATS,
               trace_dir: Optional[Path] = None) -> Dict[str, List[Dict]]:
    """``repeats`` identical runs of each technique, EL and FW alternating.

    Runs never overlap; alternating spreads each technique's repeats over
    the whole measurement.
    """
    runs: Dict[str, List[Dict]] = {technique: [] for technique in TECHNIQUES}
    for _ in range(repeats):
        for technique in TECHNIQUES:
            trace_out = None
            if trace_dir is not None:
                trace_out = trace_dir / f"spans-sim-{technique}-seed{seed}.jsonl"
            runs[technique].append(
                run_technique(technique, seed, runtime=runtime, trace_out=trace_out)
            )
    return runs


def best(runs: List[Dict]) -> Dict:
    """Timings of identical runs, each piece at its best repeat.

    Every 5-simulated-second slice counts at its fastest scaled repeat,
    every transaction's commit at its fastest repeat, and recovery at the
    faster repeat's median pass: interference from other tenants only ever
    adds time.
    """
    first = runs[0]
    return {
        "wall_s": sum(min(c) for c in zip(*(r["chunk_wall_s"] for r in runs))),
        "cpu_s": sum(min(c) for c in zip(*(r["chunk_cpu_s"] for r in runs))),
        "commit_wall_ms": [min(c) for c in zip(*(r["commit_wall_ms"] for r in runs))],
        "recovery": min((r["recovery"] for r in runs),
                        key=lambda parts: sum(parts.values())),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "begun": first["begun"],
        "committed": first["committed"],
        "log_bytes": first["log_bytes"],
    }


def load_digests() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def check_outputs(seed: int, runs: Dict[str, List[Dict]],
                  digests: Optional[Dict[str, Dict[str, str]]]) -> List[str]:
    """Problems with the simulator's outputs; empty when they are right.

    Repeats of one technique must agree with each other.  With
    ``digests`` (for the paper's 500 s runs) they must also match the
    digest recorded for the seed.
    """
    problems = []
    for technique, results in runs.items():
        for result in results:
            if result["failed"] is not None:
                problems.append(f"{technique}: run failed: {result['failed']}")
        produced = {r["digest"] for r in results}
        if len(produced) > 1:
            problems.append(f"{technique}: repeats of one seed differ")
        if digests is None:
            continue
        recorded = digests.get(str(seed), {}).get(technique)
        result = results[0]
        if recorded is None:
            problems.append(f"{technique}: no digest recorded for seed {seed}")
        elif produced != {recorded}:
            problems.append(
                f"{technique}: result digest {result['digest'][:12]} differs "
                f"from the recorded {recorded[:12]}"
            )
        if seed == 0 and round(result["bandwidth_wps"], 2) != PAPER_SEED0_WPS[technique]:
            problems.append(
                f"{technique}: {result['bandwidth_wps']:.3f} writes/s, paper "
                f"figure is {PAPER_SEED0_WPS[technique]}"
            )
        if seed == 0 and result["killed"]:
            problems.append(f"{technique}: {result['killed']} transactions killed")
    return problems


def failed_transactions(runs: Dict[str, List[Dict]]) -> int:
    """Simulated transactions lost to a failed run (none when runs finish).

    Kills by the log manager are the model's output, not failures of the
    benchmark: FW 123 is the paper's minimum size for seed 0 and kills a
    few transactions on some other seeds.  They are covered by the digest.
    """
    return sum(r["begun"] - r["committed"] for results in runs.values()
               for r in results[:1] if r["failed"] is not None)


def end_to_end(runs: Dict[str, List[Dict]], setups: List[float]) -> Dict[str, float]:
    el, fw = best(runs["el"]), best(runs["fw"])
    commits = el["committed"] + fw["committed"]
    attempted = el["begun"] + fw["begun"]
    commit_wall = el["commit_wall_ms"] + fw["commit_wall_ms"]
    return {
        "setup_s": median(setups),
        "sim_el_wall_s": el["wall_s"],
        "sim_fw_wall_s": fw["wall_s"],
        "peak_rss_mb": max(el["peak_rss_mb"], fw["peak_rss_mb"]),
        "committed_tps": commits / (el["wall_s"] + fw["wall_s"]),
        "commit_p50_ms": percentile(commit_wall, 50),
        "commit_p99_ms": percentile(commit_wall, 99),
        "server_cpu_ms_per_commit": 1000.0 * (el["cpu_s"] + fw["cpu_s"]) / commits,
        "disk_write_bytes_per_commit": (el["log_bytes"] + fw["log_bytes"]) / commits,
        "recovery_s": sum(el["recovery"].values()) + sum(fw["recovery"].values()),
        "failed_fraction": failed_fraction(failed_transactions(runs), attempted),
    }


def per_layer(traced: Dict[str, Dict]) -> Dict[str, float]:
    """Per-layer metrics summed over one traced EL and one traced FW run."""
    def total(key: str, name: str) -> float:
        return sum(r[key].get(name, 0) for r in traced.values())

    def counter(name: str) -> float:
        return sum(r["counters"][name] for r in traced.values())

    appends = total("calls", "Generation.append")
    migrations = total("calls", "Generation.append_migrated")
    return {
        "sim.engine.self_s": total("layers", "sim.engine"),
        "sim.engine.events": counter("events"),
        "workload.generator.self_s": total("layers", "workload.generator"),
        "core.manager.self_s": total("layers", "core.manager"),
        "core.manager.calls": total("layer_calls", "core.manager"),
        "core.generation.self_s": total("layers", "core.generation"),
        "core.generation.appends": appends,
        "core.generation.migrations": migrations,
        "core.generation.fresh_fraction": appends / (appends + migrations),
        "core.generation.blocks_sealed": counter("blocks_sealed"),
        "core.tables.self_s": total("layers", "core.tables"),
        "core.flushqueue.self_s": total("layers", "core.flushqueue"),
        "core.flushqueue.flushes": counter("flushes"),
        "core.flushqueue.backlog_calls": total("calls", "FlushScheduler.backlog"),
        "core.flushqueue.peak_backlog": max(
            r["counters"]["peak_backlog"] for r in traced.values()
        ),
        "db.install.self_s": total("layers", "db.install"),
        "db.installs": total("calls", "StableDatabase.install"),
        "recovery.read_log_s": total("recovery", "read_log_s"),
        "recovery.load_db_s": total("recovery", "load_db_s"),
        "recovery.replay_s": total("recovery", "replay_s"),
    }


def input_seed(seed: int, digests: Dict[str, Dict[str, str]]) -> int:
    """The simulation seed for a benchmark seed: one with a recorded digest.

    Digests are recorded for seeds 0..N-1; any other seed is folded into
    that range, so every seed gives the same inputs each time and every
    run's outputs are checked.
    """
    return seed % len(digests)


def run(seed: int, trace: bool, out_dir: Path) -> Dict:
    """The whole workload: the repeated paper pair, checks, the traced pair."""
    digests = load_digests()
    seed = input_seed(seed, digests)
    setups = setup_samples(seed)
    runs = paper_runs(seed)
    problems = check_outputs(seed, runs, digests)
    report = {
        "problems": problems,
        "attempted": sum(results[0]["begun"] for results in runs.values()),
        "failed": failed_transactions(runs),
        "end_to_end": end_to_end(runs, setups),
        "context": {
            "configs": {k: {**v, "generation_sizes": list(v["generation_sizes"])}
                        for k, v in TECHNIQUES.items()},
            "runtime_s": PAPER_RUNTIME,
            "simulation_seed": seed,
            "repeats": REPEATS,
            "setup_samples_s": setups,
            "bandwidth_wps": {k: r[0]["bandwidth_wps"] for k, r in runs.items()},
            "killed": {k: r[0]["killed"] for k, r in runs.items()},
            "digests": {k: r[0]["digest"] for k, r in runs.items()},
            "raw_wall_s": {k: [x["raw_wall_s"] for x in r] for k, r in runs.items()},
        },
    }
    if trace:
        traced_runs = paper_runs(seed, repeats=1, trace_dir=out_dir)
        problems += check_outputs(seed, traced_runs, digests)
        traced = {technique: results[0] for technique, results in traced_runs.items()}
        traced_wall = sum(r["raw_wall_s"] for r in traced.values())
        untraced_wall = sum(min(x["raw_wall_s"] for x in r) for r in runs.values())
        self_total = sum(sum(r["layers"].values()) for r in traced.values())
        report["per_layer"] = per_layer(traced)
        report["per_layer"].update(commit_latency_layers(report["end_to_end"]))
        report["context"]["trace"] = {
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "overhead_wall_s": traced_wall - untraced_wall,
            "overhead_cpu_s": sum(r["cpu_s"] for r in traced.values())
            - sum(best(r)["cpu_s"] for r in runs.values()),
            "self_time_coverage": self_total / traced_wall,
            "spans_dropped": sum(r["spans_dropped"] for r in traced.values()),
        }
    report["correct"] = not problems
    return report


def record_digests(seeds: List[int]) -> None:
    """Run the paper pair for each seed and store its digests."""
    digests = load_digests() if DIGESTS.exists() else {}
    for seed in seeds:
        results = {k: r[0] for k, r in paper_runs(seed, repeats=1).items()}
        digests[str(seed)] = {k: r["digest"] for k, r in results.items()}
        kills = {k: r["killed"] for k, r in results.items()}
        wps = {k: round(r["bandwidth_wps"], 3) for k, r in results.items()}
        print(f"seed {seed}: {wps} kills {kills}", flush=True)
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.simpaper")
    sub = parser.add_subparsers(dest="cmd", required=True)
    child = sub.add_parser("child", help="run one simulation (internal)")
    child.add_argument("--technique", choices=sorted(TECHNIQUES), required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--runtime", type=float, default=PAPER_RUNTIME)
    child.add_argument("--trace-out", default="")
    record = sub.add_parser("record-digests",
                            help="store result digests for seeds FIRST..LAST")
    record.add_argument("first", type=int)
    record.add_argument("last", type=int)
    args = parser.parse_args(argv)
    if args.cmd == "child":
        return child_main(args)
    record_digests(list(range(args.first, args.last + 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
