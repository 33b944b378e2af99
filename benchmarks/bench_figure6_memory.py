"""E3 / Figure 6 — main-memory requirements vs. transaction mix.

FW is charged 22 bytes per transaction, EL 40 bytes per transaction plus
40 per unflushed object (the paper's estimates), observed at peak over the
same minimum-space runs as Figures 4 and 5.
"""

from __future__ import annotations

import pytest

from repro.harness.config import SimulationConfig
from repro.harness.experiments import FIGURE_6, run_figures_4_5_6
from repro.harness.simulator import run_simulation


@pytest.fixture(scope="module")
def fig456(scale, cache):
    return run_figures_4_5_6(scale, cache=cache)


def test_figure6_memory(benchmark, fig456, scale, publish):
    top = max(fig456.rows, key=lambda p: p["long_fraction"])
    config = SimulationConfig.ephemeral(
        (top["el_gen0"], top["el_gen1"]),
        recirculation=False,
        long_fraction=top["long_fraction"],
        runtime=scale.runtime,
    )
    result = benchmark.pedantic(run_simulation, args=(config,), rounds=2, iterations=1)
    assert result.memory_peak_bytes > 0

    publish("figure6_memory", fig456.render(**FIGURE_6))

    for point in fig456.rows:
        # EL keeps more state in RAM than FW at every mix...
        assert point["el_memory_peak_bytes"] > point["fw_memory_peak_bytes"]
        # ... but "memory requirements are modest": tens of KB, not MB.
        assert point["el_memory_peak_bytes"] < 200_000
    # Memory grows with the fraction of long transactions for both.
    assert (
        fig456.rows[-1]["fw_memory_peak_bytes"]
        > fig456.rows[0]["fw_memory_peak_bytes"]
    )
    assert (
        fig456.rows[-1]["el_memory_peak_bytes"]
        > fig456.rows[0]["el_memory_peak_bytes"]
    )
