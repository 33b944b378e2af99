"""E2 / Figure 5 — log disk bandwidth vs. transaction mix.

Shares the Figure 4 sweep (cached) and benchmarks the FW baseline run at
its own minimum-space point, then prints and checks the bandwidth series.
"""

from __future__ import annotations

import pytest

from repro.harness.config import SimulationConfig
from repro.harness.experiments import FIGURE_5, run_figures_4_5_6
from repro.harness.simulator import run_simulation


@pytest.fixture(scope="module")
def fig456(scale, cache):
    return run_figures_4_5_6(scale, cache=cache)


def test_figure5_disk_bandwidth(benchmark, fig456, scale, publish):
    base = min(fig456.rows, key=lambda p: p["long_fraction"])
    config = SimulationConfig.firewall(
        base["fw_blocks"], long_fraction=base["long_fraction"], runtime=scale.runtime
    )
    result = benchmark.pedantic(run_simulation, args=(config,), rounds=2, iterations=1)
    assert result.no_kills

    publish("figure5_bandwidth", fig456.render(**FIGURE_5))

    for point in fig456.rows:
        # EL always pays some bandwidth for forwarding.
        assert point["el_bandwidth_wps"] > point["fw_bandwidth_wps"]
    # At the 5% mix the premium is modest ("only an 11% increase").
    base = min(fig456.rows, key=lambda p: p["long_fraction"])
    assert base["bandwidth_increase"] < 0.30
    # "The amount of extra bandwidth required by EL decreases as the
    # fraction of long-lived transactions decreases": the premium grows
    # with the long fraction ("the increase in bandwidth is greater").
    assert (
        fig456.rows[0]["bandwidth_increase"]
        < fig456.rows[-1]["bandwidth_increase"] + 0.05
    )
