"""Smoke-scale tests for the figure drivers (E1-E6 plumbing)."""

from __future__ import annotations

import pytest

from repro.harness.experiments import (
    FIGURE_4,
    FIGURE_5,
    FIGURE_6,
    FIGURE_7,
    HEADLINE,
    SCARCE_FLUSH,
    headline_claims,
    run_figure_7,
    run_figures_4_5_6,
    run_scarce_flush,
)
from repro.harness.scale import Scale
from repro.harness.sweep import SweepCache, SweepTable


@pytest.fixture(scope="module")
def tiny_scale() -> Scale:
    return Scale(
        label="test-tiny",
        runtime=20.0,
        mix_points=(0.05, 0.40),
        gen0_candidates=(16, 18),
        gen0_refine_radius=0,
    )


@pytest.fixture(scope="module")
def cache(tmp_path_factory) -> SweepCache:
    return SweepCache(tmp_path_factory.mktemp("sweep-cache"))


@pytest.fixture(scope="module")
def fig456(tiny_scale, cache) -> SweepTable:
    return run_figures_4_5_6(tiny_scale, seed=0, cache=cache)


class TestFigures456:
    def test_one_point_per_mix(self, fig456, tiny_scale):
        assert [p["long_fraction"] for p in fig456.rows] == list(tiny_scale.mix_points)

    def test_el_beats_fw_on_space(self, fig456):
        for point in fig456.rows:
            assert point["el_blocks"] < point["fw_blocks"]

    def test_el_costs_more_bandwidth_and_memory(self, fig456):
        for point in fig456.rows:
            assert point["el_bandwidth_wps"] > point["fw_bandwidth_wps"]
            assert point["el_memory_peak_bytes"] > point["fw_memory_peak_bytes"]

    def test_advantage_shrinks_with_long_fraction(self, fig456):
        # "As the proportion of 10s transactions increases, EL's relative
        # advantage over FW diminishes."
        ratios = [p["space_ratio"] for p in fig456.rows]
        assert ratios[0] > ratios[-1]

    def test_updates_per_second_column(self, fig456):
        assert fig456.rows[0]["updates_per_second"] == pytest.approx(210.0)
        assert fig456.rows[-1]["updates_per_second"] == pytest.approx(280.0)

    def test_figure_text_rendering(self, fig456):
        assert "Figure 4" in fig456.render(**FIGURE_4)
        assert "Figure 5" in fig456.render(**FIGURE_5)
        assert "Figure 6" in fig456.render(**FIGURE_6)

    def test_serialisation_round_trip(self, fig456):
        restored = SweepTable.from_dict(fig456.to_dict())
        assert restored.rows == fig456.rows
        assert restored == fig456

    def test_cache_hit_on_second_call(self, tiny_scale, cache):
        before = cache.hits
        again = run_figures_4_5_6(tiny_scale, seed=0, cache=cache)
        assert cache.hits > before
        assert len(again.rows) == 2


class TestFigure7:
    def test_sweep_shrinks_until_kill(self, fig456, tiny_scale, cache):
        result = run_figure_7(tiny_scale, seed=0, cache=cache)
        assert result.header["gen0_blocks"] == min(
            fig456.rows, key=lambda p: p["long_fraction"]
        )["el_gen0"]
        totals = [p["total_blocks"] for p in result.rows]
        assert totals == sorted(totals, reverse=True)
        assert result.select(kills=0)
        minimum = result.header["minimum_total_blocks"]
        assert minimum == min(p["total_blocks"] for p in result.select(kills=0))
        assert minimum <= totals[0]
        # Recirculation lets EL go below the no-recirc minimum.
        reference = min(fig456.rows, key=lambda p: p["long_fraction"])
        assert minimum <= reference["el_blocks"]

    def test_text_rendering(self, tiny_scale, cache):
        result = run_figure_7(tiny_scale, seed=0, cache=cache)
        text = result.render(**FIGURE_7)
        assert "Figure 7" in text
        assert "FW reference" in text

    def test_serialisation(self, tiny_scale, cache):
        result = run_figure_7(tiny_scale, seed=0, cache=cache)
        restored = SweepTable.from_dict(result.to_dict())
        assert restored.rows == result.rows
        assert restored == result


class TestScarceFlushAndHeadlines:
    def test_scarce_flush_locality_improves(self, tiny_scale, cache):
        result = run_scarce_flush(tiny_scale, seed=0, cache=cache)
        (row,) = result.rows
        # "As a backlog accumulates, disk I/O for flushing becomes less
        # random and more sequential."
        assert row["mean_seek_distance_scarce"] < row["mean_seek_distance_baseline"]
        assert row["locality_gain"] > 1.0
        assert "Scarce" in result.render(**SCARCE_FLUSH)
        restored = SweepTable.from_dict(result.to_dict())
        assert restored == result

    def test_headline_claims(self, tiny_scale, cache):
        table = headline_claims(tiny_scale, seed=0, cache=cache)
        (claims,) = table.rows
        assert claims["no_recirc_space_ratio"] > 2.0
        assert claims["recirc_space_ratio"] >= claims["no_recirc_space_ratio"]
        assert 0.0 < claims["no_recirc_bandwidth_increase"] < 0.5
        assert "space ratio" in table.render(**HEADLINE)
