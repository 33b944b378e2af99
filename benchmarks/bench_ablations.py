"""Ablations over EL's design choices (DESIGN.md extensions).

Not a paper figure: these benches quantify the paper's qualitative design
arguments and its §6 proposals on our simulator —

* recirculation on/off at the same footprint,
* demand-flush vs keep-in-log for committed-unflushed records at a head,
* the lifetime-hint placement policy,
* the EL-FW hybrid's memory-for-bandwidth trade,
* Poisson vs deterministic arrivals.
"""

from __future__ import annotations

import pytest

from repro.core.interface import UnflushedHeadPolicy
from repro.harness.config import SimulationConfig, Technique
from repro.harness.simulator import run_simulation
from repro.metrics.report import format_series


@pytest.fixture(scope="module")
def runtime(scale):
    return min(scale.runtime, 120.0)


def test_ablation_recirculation(benchmark, runtime, publish):
    sizes = (18, 10)
    with_recirc = benchmark.pedantic(
        run_simulation,
        args=(
            SimulationConfig.ephemeral(
                sizes, recirculation=True, long_fraction=0.05, runtime=runtime
            ),
        ),
        rounds=2,
        iterations=1,
    )
    without = run_simulation(
        SimulationConfig.ephemeral(
            sizes, recirculation=False, long_fraction=0.05, runtime=runtime
        )
    )
    publish(
        "ablation_recirculation",
        format_series(
            f"Recirculation ablation at {sizes} blocks (5% mix)",
            "recirculation",
            ["kills", "total w/s", "recirculated"],
            [
                ("on", with_recirc.transactions_killed,
                 round(with_recirc.total_bandwidth_wps, 2),
                 with_recirc.recirculated_records),
                ("off", without.transactions_killed,
                 round(without.total_bandwidth_wps, 2),
                 without.recirculated_records),
            ],
        ),
    )
    # At a footprint below the no-recirc minimum, recirculation is what
    # keeps transactions alive.
    assert with_recirc.no_kills
    assert without.transactions_killed > 0


def test_ablation_unflushed_head_policy(benchmark, runtime, publish):
    base = SimulationConfig.ephemeral(
        (18, 12), recirculation=True, long_fraction=0.05, runtime=runtime,
        flush_write_seconds=0.045,
    )
    keep = benchmark.pedantic(run_simulation, args=(base,), rounds=2, iterations=1)
    flush = run_simulation(
        base.replace(unflushed_head_policy=UnflushedHeadPolicy.DEMAND_FLUSH)
    )
    publish(
        "ablation_unflushed_policy",
        format_series(
            "Committed-unflushed records at a head (45 ms flushes)",
            "policy",
            ["demand flushes", "recirculated", "total w/s", "kills"],
            [
                ("keep-in-log", keep.demand_flushes, keep.recirculated_records,
                 round(keep.total_bandwidth_wps, 2), keep.transactions_killed),
                ("demand-flush", flush.demand_flushes, flush.recirculated_records,
                 round(flush.total_bandwidth_wps, 2), flush.transactions_killed),
            ],
        ),
    )
    # Demand-flushing at the head trades random database I/O for log
    # bandwidth: more demand flushes, fewer recirculated records.
    assert flush.demand_flushes > keep.demand_flushes
    assert flush.recirculated_records <= keep.recirculated_records


def test_ablation_lifetime_placement(benchmark, runtime, publish):
    base = SimulationConfig.ephemeral(
        (18, 16), recirculation=True, long_fraction=0.2, runtime=runtime
    )
    plain = benchmark.pedantic(run_simulation, args=(base,), rounds=2, iterations=1)
    placed = run_simulation(base.replace(placement_boundaries=(5.0,)))
    publish(
        "ablation_placement",
        format_series(
            "Lifetime-hint placement (20% long transactions)",
            "policy",
            ["forwarded", "total w/s", "kills"],
            [
                ("none", plain.forwarded_records,
                 round(plain.total_bandwidth_wps, 2), plain.transactions_killed),
                ("hint>=5s -> gen1", placed.forwarded_records,
                 round(placed.total_bandwidth_wps, 2), placed.transactions_killed),
            ],
        ),
    )
    # "Rather than letting the transaction's records progress through
    # successively older generations, it directly adds the transaction's
    # log records to the tail of a generation in which the records are
    # unlikely to reach the head": forwarding traffic must drop.
    assert placed.forwarded_records < plain.forwarded_records


def test_ablation_hybrid_memory_bandwidth(benchmark, runtime, publish):
    el = benchmark.pedantic(
        run_simulation,
        args=(
            SimulationConfig.ephemeral(
                (18, 16), recirculation=True, long_fraction=0.05, runtime=runtime
            ),
        ),
        rounds=2,
        iterations=1,
    )
    hybrid = run_simulation(
        SimulationConfig(
            technique=Technique.HYBRID,
            generation_sizes=(24, 40),
            recirculation=True,
            long_fraction=0.05,
            runtime=runtime,
        )
    )
    publish(
        "ablation_hybrid",
        format_series(
            "EL vs EL-FW hybrid (5% mix)",
            "technique",
            ["peak RAM bytes", "total w/s", "kills"],
            [
                ("EL", el.memory_peak_bytes,
                 round(el.total_bandwidth_wps, 2), el.transactions_killed),
                ("hybrid", hybrid.memory_peak_bytes,
                 round(hybrid.total_bandwidth_wps, 2), hybrid.transactions_killed),
            ],
        ),
    )
    # "This can drastically reduce main memory consumption ... but at a
    # price of higher bandwidth."
    assert hybrid.memory_peak_bytes < el.memory_peak_bytes
    assert hybrid.total_bandwidth_wps > el.total_bandwidth_wps
    assert hybrid.failed is None


def test_ablation_generation_count(benchmark, runtime, publish):
    """Two vs three generations on a three-lifetime-class workload.

    "The optimal number of generations and their sizes depends on the
    application" — with a 60-second lifetime class in the mix, a third
    generation isolates the very-long records so the middle queue stops
    recirculating them.
    """
    from repro.core.sizing import recommend_generation_sizes
    from repro.workload.spec import TransactionType, WorkloadMix

    mix = WorkloadMix(
        [
            TransactionType("short", 0.80, 1.0, 2, 100),
            TransactionType("medium", 0.17, 10.0, 4, 100),
            TransactionType("long", 0.03, 60.0, 6, 100),
        ]
    )
    rows = []
    results = {}
    for count in (2, 3):
        advice = recommend_generation_sizes(mix, 100.0, generations=count)
        config = SimulationConfig(
            generation_sizes=advice.generation_sizes,
            recirculation=True,
            mix=mix,
            arrival_rate=100.0,
            runtime=runtime,
        )
        if count == 2:
            result = benchmark.pedantic(
                run_simulation, args=(config,), rounds=2, iterations=1
            )
        else:
            result = run_simulation(config)
        results[count] = result
        rows.append(
            (
                f"{count} generations {list(advice.generation_sizes)}",
                advice.total_blocks,
                result.transactions_killed,
                round(result.total_bandwidth_wps, 2),
                result.recirculated_records,
            )
        )
    publish(
        "ablation_generations",
        format_series(
            "Generation count on a 3-lifetime-class workload (advisor-sized)",
            "configuration",
            ["blocks", "kills", "total w/s", "recirculated"],
            rows,
        ),
    )
    assert results[2].no_kills and results[3].no_kills


def test_ablation_poisson_arrivals(benchmark, runtime, publish):
    base = SimulationConfig.ephemeral(
        (20, 16), recirculation=True, long_fraction=0.05, runtime=runtime
    )
    deterministic = benchmark.pedantic(
        run_simulation, args=(base,), rounds=2, iterations=1
    )
    poisson = run_simulation(base.replace(poisson_arrivals=True))
    publish(
        "ablation_arrivals",
        format_series(
            "Deterministic vs Poisson arrivals (future-work model)",
            "arrivals",
            ["begun", "committed", "kills", "total w/s"],
            [
                ("deterministic", deterministic.transactions_begun,
                 deterministic.transactions_committed,
                 deterministic.transactions_killed,
                 round(deterministic.total_bandwidth_wps, 2)),
                ("poisson", poisson.transactions_begun,
                 poisson.transactions_committed,
                 poisson.transactions_killed,
                 round(poisson.total_bandwidth_wps, 2)),
            ],
        ),
    )
    assert poisson.transactions_begun == pytest.approx(
        deterministic.transactions_begun, rel=0.15
    )
