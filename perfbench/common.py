"""Helpers shared by the workloads: paths, child environments, /proc, stats."""

from __future__ import annotations

import gc
import heapq
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (gitignored): run directories, traces
#: and one JSON result file per run.
WORK = ROOT / ".perfbench"

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: The calibration work takes REFERENCE_CALIBRATION_S at the reference CPU
#: speed (about an undisturbed 2.0 GHz Xeon vCPU).
CALIBRATION_ITEMS = 3000
REFERENCE_CALIBRATION_S = 0.0035
#: The large calibration, at the same reference speed.  Its working set of
#: a few MB is like that of a start-up or a restart, so it also feels the
#: cache contention that other tenants cause.
LARGE_CALIBRATION_ITEMS = 30000
REFERENCE_LARGE_CALIBRATION_S = 0.039


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def calibration_seconds(items: int = CALIBRATION_ITEMS) -> float:
    """Wall time of fixed calibration work: the CPU's speed right now.

    The work mixes what the simulator and the server spend their time
    on: small objects, dict inserts and lookups, and a bounded heap.  The
    garbage collector is paused, so that a collection of the caller's own
    objects does not count as a slow CPU.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[int, _Item] = {}
        heap: list = []
        for i in range(items):
            item = _Item(i, i * 7919 % 10007)
            table[item.value] = item
            heapq.heappush(heap, (item.value, i, item))
            if len(heap) > 256:
                heapq.heappop(heap)
        for i in range(items):
            table.get(i)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class SpeedGauge:
    """Scales CPU-bound timings to the reference CPU speed.

    On a shared virtual machine the CPU slows by up to 1.7x in bursts of
    seconds to minutes that other tenants cause.  The gauge times the
    calibration work before and after each piece of work; :meth:`factor`
    (called right after the piece) returns the reference time over the mean
    calibration time around it, and a time multiplied by it is the time at
    reference speed.  Only use it where no other process of the benchmark
    runs concurrently.  With ``large``, the gauge uses the large calibration,
    for pieces of tenths of a second that touch megabytes.
    """

    def __init__(self, large: bool = False) -> None:
        self._items = LARGE_CALIBRATION_ITEMS if large else CALIBRATION_ITEMS
        self._reference = REFERENCE_LARGE_CALIBRATION_S if large else REFERENCE_CALIBRATION_S
        self._before = calibration_seconds(self._items)

    def factor(self) -> float:
        after = calibration_seconds(self._items)
        mean = (self._before + after) / 2
        self._before = after
        return self._reference / mean


def scaled_setups(start: Callable[[], float], count: int) -> List[float]:
    """Set-up times of ``count`` start-ups, each at reference speed.

    ``start`` starts the program, waits until it is ready, stops it again
    and returns the seconds it took to become ready.  Nothing else of the
    benchmark may run meanwhile.
    """
    gauge = SpeedGauge(large=True)
    return [start() * gauge.factor() for _ in range(count)]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def median_pass(passes: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """The pass whose parts sum to the median total (upper for an even count)."""
    ordered = sorted(passes, key=lambda parts: sum(parts.values()))
    return ordered[len(ordered) // 2]


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a process (all its threads)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    # After the command name: state is field 3, utime 14, stime 15.
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def proc_write_bytes(pid: int) -> int:
    """Bytes the process caused to be sent to storage (``/proc/<pid>/io``)."""
    with open(f"/proc/{pid}/io") as f:
        for line in f:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/io has no write_bytes")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM")


def commit_latency_layers(end_to_end: Dict[str, float]) -> Dict[str, float]:
    """Commit latency percentiles, reported with the per-layer metrics.

    The live figures follow fsync time on the shared disk, which moves them
    by up to 2x from run to run, so they are not end-to-end metrics.
    """
    return {"commit.p50_ms": end_to_end["commit_p50_ms"],
            "commit.p99_ms": end_to_end["commit_p99_ms"]}


def failed_fraction(failed: int, attempted: int) -> float:
    """Failure rate as the rule-of-succession estimate (failed+1)/(attempted+2).

    A run with no failures still reports a positive rate that shrinks as
    more transactions are attempted, so the metric is never zero and one
    failure in a run moves it visibly.
    """
    return (failed + 1) / (attempted + 2)


def context(seed: int, workload: str, extra: Dict[str, object]) -> Dict[str, object]:
    """What every result is stored with: seed, machine and program settings."""
    info: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "kernel": platform.release(),
    }
    info.update(extra)
    return info


def check_sources() -> None:
    """Exit non-zero unless the program's sources sit in this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
