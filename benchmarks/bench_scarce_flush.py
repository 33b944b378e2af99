"""E5 / §4 narrative — EL under scarce flushing bandwidth.

Flush transfers take 45 ms (10 drives -> 222 flushes/s) against ~210
updates/s.  The paper reports: 31 blocks (20 + 11), 13.96 writes/s, and the
mean oid distance between successive flushes dropping from ~235,000 to
~109,000 as the backlog makes flushing more sequential.
"""

from __future__ import annotations

import pytest

from repro.harness.config import SimulationConfig
from repro.harness.experiments import SCARCE_FLUSH, run_scarce_flush
from repro.harness.simulator import run_simulation


@pytest.fixture(scope="module")
def scarce(scale, cache):
    return run_scarce_flush(scale, cache=cache)


def test_scarce_flush_bandwidth(benchmark, scarce, scale, publish):
    (row,) = scarce.rows
    config = SimulationConfig.ephemeral(
        (row["gen0_blocks"], row["gen1_blocks"]),
        recirculation=True,
        long_fraction=0.05,
        runtime=scale.runtime,
        flush_write_seconds=0.045,
    )
    result = benchmark.pedantic(run_simulation, args=(config,), rounds=2, iterations=1)
    assert result.no_kills

    publish("scarce_flush", scarce.render(**SCARCE_FLUSH))

    # Space stays small even when flushing can barely keep up.
    assert row["total_blocks"] < 60
    # "a significant increase in locality": flushing turns more sequential.
    assert row["locality_gain"] > 1.3
    # "This negative feedback provides some stability": the run completes
    # without kills and with a bounded backlog.
    assert result.flush_peak_backlog > 0
