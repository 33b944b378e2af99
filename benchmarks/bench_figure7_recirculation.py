"""E4 / Figure 7 — EL disk bandwidth vs. space with recirculation.

Generation 0 stays at its no-recirculation optimum while the last
generation shrinks until a transaction is killed; the series reports the
last generation's bandwidth and the total (paper: space falls 34 -> 28
blocks while bandwidth rises 12.87 -> 12.99 w/s against FW's 123 blocks at
11.63 w/s).
"""

from __future__ import annotations

import pytest

from repro.harness.config import SimulationConfig
from repro.harness.experiments import FIGURE_7, run_figure_7
from repro.harness.simulator import run_simulation


@pytest.fixture(scope="module")
def fig7(scale, cache):
    return run_figure_7(scale, cache=cache)


def test_figure7_bandwidth_vs_space(benchmark, fig7, scale, publish):
    feasible = fig7.select(kills=0)
    best = min(feasible, key=lambda p: p["total_blocks"])
    config = SimulationConfig.ephemeral(
        (fig7.header["gen0_blocks"], best["gen1_blocks"]),
        recirculation=True,
        long_fraction=0.05,
        runtime=scale.runtime,
    )
    result = benchmark.pedantic(run_simulation, args=(config,), rounds=2, iterations=1)
    assert result.no_kills
    assert result.recirculated_records > 0

    publish("figure7_recirculation", fig7.render(**FIGURE_7))

    assert len(feasible) >= 2
    largest = max(feasible, key=lambda p: p["total_blocks"])
    smallest = min(feasible, key=lambda p: p["total_blocks"])
    # Recirculation trades space for bandwidth: shrinking the last
    # generation increases its write rate.
    assert smallest["last_generation_wps"] >= largest["last_generation_wps"]
    assert smallest["total_wps"] >= largest["total_wps"]
    # The recirculating minimum beats the no-recirculation total (34-ish).
    assert smallest["total_blocks"] < largest["total_blocks"]
    # EL stays far below FW's space at a modest bandwidth premium.
    assert smallest["total_blocks"] * 3 < fig7.header["fw_blocks"]
    assert smallest["total_wps"] < fig7.header["fw_bandwidth_wps"] * 1.35
