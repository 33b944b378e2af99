"""E-shard: aggregate log bandwidth versus shard count (weak scaling).

Not a paper artifact: the paper's techniques saturate one log disk; this
bench measures how far the sharded multi-disk log raises that ceiling.
It sweeps EL and FW over 1/2/4 shards with the offered load scaled to
100 TPS per shard, renders the scaling table, and appends a
machine-readable trajectory entry to ``results/BENCH_shards.json``.

The acceptance bar: aggregate committed block-writes/s must scale at
least 1.8x from 1 to 2 shards and keep growing monotonically through 4,
for both techniques.
"""

from __future__ import annotations

import time

from repro.harness.shardsweep import (
    DEFAULT_SHARD_COUNTS,
    SHARD_SWEEP,
    run_shard_sweep,
)


def test_shard_scaling(publish, append_trajectory, scale, cache):
    started = time.perf_counter()
    result = run_shard_sweep(scale, seed=0, cache=cache)
    elapsed = time.perf_counter() - started

    publish("shard_scaling", result.render(**SHARD_SWEEP))
    scaling = {
        (p["technique"], p["shards"]): p["bandwidth_scaling"] for p in result.rows
    }

    entry = {
        "bench": "shard_scaling",
        "scale": result.scale_label,
        "runtime": result.runtime,
        "shard_counts": list(DEFAULT_SHARD_COUNTS),
        "wall_seconds": round(elapsed, 3),
        "points": [
            {
                "technique": p["technique"],
                "shards": p["shards"],
                "arrival_rate": p["arrival_rate"],
                "committed": p["committed"],
                "killed": p["killed"],
                "throughput_tps": round(p["throughput_tps"], 3),
                "bandwidth_wps": round(p["bandwidth_wps"], 3),
                "mean_commit_latency_ms": round(p["mean_commit_latency"] * 1000, 3),
                "single_shard_commits": p["single_shard_commits"],
                "cross_shard_commits": p["cross_shard_commits"],
                "recirculated_records": p["recirculated_records"],
            }
            for p in result.rows
        ],
        "scaling": {
            technique: {
                "1_to_2": round(scaling[technique, 2], 3),
                "2_to_4": round(scaling[technique, 4], 3),
            }
            for technique in ("el", "fw")
        },
    }
    append_trajectory("shards", entry)

    for point in result.rows:
        assert point["failed"] is None, (
            f"{point['technique']} at {point['shards']} shards failed: "
            f"{point['failed']}"
        )
    for technique in ("el", "fw"):
        ratio_12 = scaling[technique, 2]
        assert ratio_12 >= 1.8, (
            f"{technique} aggregate bandwidth scaled only {ratio_12:.2f}x "
            f"from 1 to 2 shards (need >= 1.8x)"
        )
        points = sorted(result.select(technique=technique), key=lambda p: p["shards"])
        bandwidths = [p["bandwidth_wps"] for p in points]
        assert bandwidths == sorted(bandwidths), (
            f"{technique} aggregate bandwidth is not monotone over "
            f"{[p['shards'] for p in points]} shards: {bandwidths}"
        )
    # EL's operating point must stay healthy per shard: weak scaling means
    # no shard runs beyond the paper's reference load, so no kills and no
    # recirculation storms.
    for point in result.select(technique="el"):
        assert point["killed"] == 0, (
            f"el at {point['shards']} shards killed {point['killed']} transactions"
        )
