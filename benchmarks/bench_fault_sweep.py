"""E-fault: throughput/commit-latency versus injected disk-fault rate.

Not a paper artifact: this bench exercises the fault-injection and
self-healing layer.  It sweeps EL and FW over the default fault-rate
grid — every faulty run also verifies crash consistency at three crash
points — renders the degradation curve, and appends a machine-readable
trajectory entry to ``results/BENCH_faults.json``.  A single
crash-consistency violation anywhere in the sweep fails the bench.
"""

from __future__ import annotations

import time

from repro.harness.faultsweep import DEFAULT_RATES, FAULT_SWEEP, run_fault_sweep


def test_fault_sweep(publish, append_trajectory, scale, cache):
    started = time.perf_counter()
    result = run_fault_sweep(scale, seed=0, cache=cache)
    elapsed = time.perf_counter() - started

    publish("fault_sweep", result.render(**FAULT_SWEEP))

    entry = {
        "bench": "fault_sweep",
        "scale": result.scale_label,
        "runtime": result.runtime,
        "rates": list(DEFAULT_RATES),
        "wall_seconds": round(elapsed, 3),
        "violations": result.header["violations"],
        "points": [
            {
                "technique": p["technique"],
                "fault_rate": p["fault_rate"],
                "throughput_tps": round(p["throughput_tps"], 3),
                "mean_commit_latency_ms": round(p["mean_commit_latency"] * 1000, 3),
                "write_retries": p["write_retries"],
                "blocks_retired": p["blocks_retired"],
                "records_healed": p["records_healed"],
                "deferred_acks": p["deferred_acks"],
                "flush_requeues": p["flush_requeues"],
                "crash_checks": p["crash_checks"],
                "violations": p["violations"],
            }
            for p in result.rows
        ],
    }
    append_trajectory("faults", entry)

    violations = result.header["violations"]
    assert violations == 0, f"{violations} crash-consistency violation(s)"
    baseline = {p["technique"]: p for p in result.select(fault_rate=0.0)}
    for point in result.rows:
        # Self-healing must keep the log alive: no run may collapse.
        base = baseline[point["technique"]]
        assert point["committed"] > 0.5 * base["committed"], (
            f"{point['technique']} at rate {point['fault_rate']} collapsed: "
            f"{point['committed']} vs baseline {base['committed']}"
        )
