"""E6 — the abstract's headline claims, recomputed from our sweeps.

"It reduces disk space by a factor of 3.6 with only an 11% increase in
bandwidth" (no recirculation) and "a factor of 4.4 reduction in disk space
and a 12% increase in bandwidth" (with recirculation), both at the 5% mix.
"""

from __future__ import annotations

from repro.harness.config import SimulationConfig
from repro.harness.experiments import HEADLINE, headline_claims
from repro.harness.simulator import run_simulation


def test_headline_claims(benchmark, scale, cache, publish):
    table = headline_claims(scale, cache=cache)
    (claims,) = table.rows

    config = SimulationConfig.ephemeral(
        (18, 16), recirculation=False, long_fraction=0.05, runtime=scale.runtime
    )
    result = benchmark.pedantic(run_simulation, args=(config,), rounds=2, iterations=1)
    assert result.no_kills

    publish("headline_claims", table.render(**HEADLINE))

    assert 2.0 <= claims["no_recirc_space_ratio"] <= 6.5
    assert 0.0 < claims["no_recirc_bandwidth_increase"] <= 0.30
    assert claims["recirc_space_ratio"] >= claims["no_recirc_space_ratio"]
    assert 0.0 < claims["recirc_bandwidth_increase"] <= 0.35
