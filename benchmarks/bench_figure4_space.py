"""E1 / Figure 4 — minimum disk space vs. transaction mix, FW vs. EL.

Regenerates the Figure 4 series (minimum blocks with zero kills, found by
the automated reduce-space-until-kill search) and benchmarks one
representative run: EL at its 5 %-mix minimum-space configuration.
"""

from __future__ import annotations

import pytest

from repro.harness.config import SimulationConfig
from repro.harness.experiments import FIGURE_4, run_figures_4_5_6
from repro.harness.simulator import run_simulation


@pytest.fixture(scope="module")
def fig456(scale, cache):
    return run_figures_4_5_6(scale, cache=cache)


def test_figure4_disk_space(benchmark, fig456, scale, publish):
    base = min(fig456.rows, key=lambda p: p["long_fraction"])
    config = SimulationConfig.ephemeral(
        (base["el_gen0"], base["el_gen1"]),
        recirculation=False,
        long_fraction=base["long_fraction"],
        runtime=scale.runtime,
    )
    result = benchmark.pedantic(run_simulation, args=(config,), rounds=2, iterations=1)
    assert result.no_kills

    publish("figure4_space", fig456.render(**FIGURE_4))

    # Shape assertions from the paper.
    for point in fig456.rows:
        assert point["el_blocks"] < point["fw_blocks"], (
            f"EL must need less space than FW at mix {point['long_fraction']:.0%}"
        )
    # "It reduces disk space by a factor of 3.6" at the 5% mix; allow a
    # generous band since simulated spans differ from the paper's 500s.
    assert 2.0 <= base["space_ratio"] <= 6.0
    # "EL's relative advantage over FW diminishes" with more long txs.
    assert fig456.rows[0]["space_ratio"] > fig456.rows[-1]["space_ratio"]
