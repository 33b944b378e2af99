"""Serial vs parallel Figure-4-style sweep: speedup, determinism, caching.

Not a paper artifact: this bench measures the parallel execution layer
itself.  It runs the same reduced-scale minimum-space sweep three ways —
serial with a cold cache, ``jobs=4`` with a cold cache, and serial again
with the warm per-run cache — asserts the three result documents are
byte-identical, and appends a machine-readable trajectory entry to
``results/BENCH_sweep.json``.

The multiprocess speedup assertion is gated on the CPUs actually available
(cgroup-limited CI containers often expose a single core, where fan-out
cannot beat serial and speculation only adds work); the cache-replay
speedup holds everywhere.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.harness.experiments import run_figures_4_5_6
from repro.harness.scale import Scale
from repro.harness.sweep import SweepCache

JOBS = 4

#: Reduced Figure-4 sweep: real searches, short simulated span.
BENCH_SCALE = Scale(
    label="bench-parallel",
    runtime=20.0,
    mix_points=(0.05, 0.40),
    gen0_candidates=(16, 20),
    gen0_refine_radius=0,
)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _timed_sweep(directory: Path, jobs: int):
    cache = SweepCache(directory)
    started = time.perf_counter()
    result = run_figures_4_5_6(BENCH_SCALE, seed=0, cache=cache, jobs=jobs)
    return result, time.perf_counter() - started, cache


def test_sweep_parallel_speedup(publish, append_trajectory, tmp_path):
    serial_result, serial_seconds, _ = _timed_sweep(tmp_path / "serial", 1)
    parallel_result, parallel_seconds, parallel_cache = _timed_sweep(
        tmp_path / "parallel", JOBS
    )
    # Re-running over the warm per-run cache replays every probe from disk.
    # Drop the figure-level document first so the rerun actually re-walks
    # the searches (hitting the per-run entries) instead of short-circuiting.
    warm_cache = SweepCache(tmp_path / "parallel")
    figure_doc = warm_cache._path(f"figures456-{BENCH_SCALE.label}-seed0")
    assert figure_doc.is_file()
    figure_doc.unlink()
    started = time.perf_counter()
    warm_result = run_figures_4_5_6(BENCH_SCALE, seed=0, cache=warm_cache, jobs=1)
    warm_seconds = time.perf_counter() - started

    serial_doc = json.dumps(serial_result.to_dict(), sort_keys=True)
    parallel_doc = json.dumps(parallel_result.to_dict(), sort_keys=True)
    warm_doc = json.dumps(warm_result.to_dict(), sort_keys=True)
    assert serial_doc == parallel_doc, "parallel sweep altered the result"
    assert serial_doc == warm_doc, "cache replay altered the result"

    cpus = _available_cpus()
    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    cache_speedup = serial_seconds / warm_seconds if warm_seconds else 0.0
    run_files = list((tmp_path / "parallel").glob("*-run-*.json"))

    entry = {
        "bench": "sweep_parallel",
        "scale": BENCH_SCALE.label,
        "jobs": JOBS,
        "cpus_available": cpus,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "warm_cache_seconds": round(warm_seconds, 3),
        "speedup": round(speedup, 2),
        "cache_speedup": round(cache_speedup, 2),
        "cached_runs": len(run_files),
        "cache_hits": parallel_cache.hits,
        "byte_identical": serial_doc == parallel_doc,
    }
    append_trajectory("sweep", entry)

    publish(
        "bench_sweep_parallel",
        "\n".join(
            [
                f"Figure-4-style sweep, serial vs --jobs {JOBS} "
                f"({cpus} CPU(s) available):",
                f"  serial (cold cache)   : {serial_seconds:7.2f} s",
                f"  jobs={JOBS} (cold cache)   : {parallel_seconds:7.2f} s "
                f"(speedup {speedup:.2f}x)",
                f"  serial (warm cache)   : {warm_seconds:7.2f} s "
                f"(speedup {cache_speedup:.2f}x)",
                f"  per-run cache entries : {len(run_files)}",
                "  result documents      : byte-identical across all three",
            ]
        ),
    )

    # Determinism and caching must hold unconditionally; the multiprocess
    # speedup needs actual cores to show up.
    assert cache_speedup >= 2.0, "warm per-run cache should replay >=2x faster"
    if cpus >= JOBS:
        assert speedup >= 2.0, (
            f"expected >=2x wall-clock speedup at jobs={JOBS} on {cpus} CPUs, "
            f"got {speedup:.2f}x"
        )
