"""Smoke test for the E-shard sweep driver."""

from __future__ import annotations

import pytest

from repro.harness.config import SimulationConfig
from repro.harness.scale import Scale
from repro.harness.shardsweep import SHARD_SWEEP, run_shard_sweep
from repro.harness.simulator import run_simulation
from repro.harness.sweep import SweepCache, SweepTable

SCALE = Scale(
    label="shard-smoke",
    runtime=10.0,
    mix_points=(0.05,),
    gen0_candidates=(18,),
    gen0_refine_radius=0,
)


@pytest.fixture(scope="module")
def cache(tmp_path_factory) -> SweepCache:
    return SweepCache(tmp_path_factory.mktemp("shard-cache"))


@pytest.fixture(scope="module")
def sweep(cache) -> SweepTable:
    return run_shard_sweep(SCALE, seed=0, cache=cache, shard_counts=(1, 2), techniques=("el",))


class TestRunShardSweep:
    def test_one_shard_matches_a_plain_run(self, sweep):
        one, two = sweep.rows
        assert (one["shards"], two["shards"]) == (1, 2)
        plain = run_simulation(
            SimulationConfig.ephemeral((18, 16), runtime=SCALE.runtime, seed=0)
        )
        assert one["arrival_rate"] == 100.0
        assert one["committed"] == plain.transactions_committed
        assert one["killed"] == plain.transactions_killed
        assert one["unfinished"] == plain.transactions_unfinished
        assert one["bandwidth_wps"] == plain.total_bandwidth_wps
        assert one["mean_commit_latency"] == plain.mean_commit_latency
        assert one["max_commit_latency"] == plain.max_commit_latency
        assert one["forwarded_records"] == plain.forwarded_records
        assert one["recirculated_records"] == plain.recirculated_records
        assert one["flushes_completed"] == plain.flushes_completed
        assert one["demand_flushes"] == plain.demand_flushes
        assert one["failed"] == plain.failed
        assert one["single_shard_commits"] == plain.transactions_committed
        assert one["cross_shard_commits"] == 0
        assert one["bandwidth_scaling"] is None
        assert two["bandwidth_scaling"] == two["bandwidth_wps"] / one["bandwidth_wps"]

    def test_second_call_hits_the_cache(self, sweep, cache):
        hits = cache.hits
        again = run_shard_sweep(
            SCALE, seed=0, cache=cache, shard_counts=(1, 2), techniques=("el",)
        )
        assert cache.hits == hits + 1
        assert again == sweep

    def test_round_trip_is_exact(self, sweep):
        assert SweepTable.from_dict(sweep.to_dict()) == sweep

    def test_text_reports_scaling(self, sweep):
        text = sweep.render(**SHARD_SWEEP)
        assert "E-shard" in text
        assert f"{sweep.rows[1]['bandwidth_scaling']:.2f}x" in text
