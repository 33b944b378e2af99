"""E-shard: weak-scaling throughput of the sharded multi-disk log.

The paper's Figure 5 shows both techniques capped by one log disk's
bandwidth.  This driver measures how far the sharded log raises that cap:
each sweep point runs ``n`` shards with the offered load scaled to
``n × 100`` TPS (weak scaling — every shard sees the paper's reference
load), so aggregate committed log bandwidth should grow close to
linearly while per-shard behaviour stays at the paper's operating point.

Each point records the cross-shard commit protocol's footprint too: how
many commits spanned several shards (each of which paid a vote-table
round) versus committed on one shard at today's single-disk latency.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.constants import ARRIVAL_RATE_TPS
from repro.harness.scale import Scale
from repro.harness.simulator import Simulation
from repro.harness.sweep import SweepCache, SweepTable, reference_config, run_sweep

#: Shard counts swept by default; 1 is the single-disk paper baseline.
DEFAULT_SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4)

#: Techniques the sweep covers (the hybrid manager does not shard).
DEFAULT_TECHNIQUES: Tuple[str, ...] = ("el", "fw")

SHARD_SWEEP = dict(
    title=(
        "E-shard: weak-scaling aggregate log bandwidth vs shard count "
        "({runtime:g}s, seed {seed}, {tps_per_shard:g} TPS per shard)"
    ),
    x_column=("tech", "technique"),
    columns=[
        ("shards", "shards"),
        ("rate", "arrival_rate", "{:.0f}".format),
        ("tps", "throughput_tps", "{:.1f}".format),
        ("wps", "bandwidth_wps"),
        ("lat ms", "mean_commit_latency", lambda v: f"{v * 1000:.1f}"),
        ("x-shard", "cross_shard_commits"),
        ("killed", "killed"),
        ("scaling", "bandwidth_scaling", lambda v: "-" if v is None else f"{v:.2f}x"),
    ],
)


def run_shard_sweep(
    scale: Optional[Scale] = None,
    seed: int = 0,
    cache: Optional[SweepCache] = None,
    shard_counts: Tuple[int, ...] = DEFAULT_SHARD_COUNTS,
    techniques: Tuple[str, ...] = DEFAULT_TECHNIQUES,
) -> SweepTable:
    """Sweep the shard count for each technique under weak scaling.

    One row per (technique, shard count).  ``bandwidth_wps`` is the
    aggregate committed log-block writes per second over all shards;
    ``bandwidth_scaling`` is its ratio to the technique's previous shard
    count in the sweep (``None`` on the first).  FW runs at the paper's
    34-block reference size and kills its long transactions by design,
    at every shard count alike.
    """

    def compute(scale, cache, runner):
        rows = []
        for technique in techniques:
            previous = None
            for shards in shard_counts:
                # Weak scaling: each shard runs at the paper's 100 TPS.
                config = reference_config(
                    technique,
                    scale.runtime,
                    seed,
                    arrival_rate=ARRIVAL_RATE_TPS * shards,
                    shards=shards,
                )
                simulation = Simulation(config)
                run = simulation.run()
                manager = simulation.manager
                bandwidth = run.total_bandwidth_wps
                rows.append(
                    {
                        "technique": technique,
                        "shards": shards,
                        "arrival_rate": config.arrival_rate,
                        "committed": run.transactions_committed,
                        "killed": run.transactions_killed,
                        "unfinished": run.transactions_unfinished,
                        "throughput_tps": run.transactions_committed / run.runtime,
                        "bandwidth_wps": bandwidth,
                        "bandwidth_scaling": (
                            bandwidth / previous if previous else None
                        ),
                        "mean_commit_latency": run.mean_commit_latency,
                        "max_commit_latency": run.max_commit_latency,
                        "single_shard_commits": getattr(
                            manager, "single_shard_commits", run.transactions_committed
                        ),
                        "cross_shard_commits": getattr(
                            manager, "cross_shard_commits", 0
                        ),
                        "forwarded_records": run.forwarded_records,
                        "recirculated_records": run.recirculated_records,
                        "flushes_completed": run.flushes_completed,
                        "demand_flushes": run.demand_flushes,
                        "failed": run.failed,
                    }
                )
                previous = bandwidth
        header = {"shard_counts": list(shard_counts), "tps_per_shard": ARRIVAL_RATE_TPS}
        return header, rows

    key = (
        f"-n{','.join(str(n) for n in shard_counts)}-t{','.join(techniques)}"
    )
    return run_sweep("eshard", key, scale, seed, cache, None, compute)
