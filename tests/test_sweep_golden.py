"""Golden-text tests: every ``repro figure`` rendering from fabricated rows.

The expected strings were captured from the per-driver result classes the
:class:`~repro.harness.sweep.SweepTable` renderer replaced, fed the same
rows, so a layout change in any figure fails here.
"""

from __future__ import annotations

import pytest

from repro.errors import SearchError
from repro.harness import experiments
from repro.harness.experiments import (
    FIGURE_4,
    FIGURE_5,
    FIGURE_6,
    FIGURE_7,
    HEADLINE,
    SCARCE_FLUSH,
    headline_claims,
    mix_row,
)
from repro.harness.scale import Scale
from repro.harness.sweep import SweepCache, SweepTable

SCALE = Scale(
    label="golden",
    runtime=20.0,
    mix_points=(0.05, 0.2, 0.4),
    gen0_candidates=(18,),
    gen0_refine_radius=0,
)

FIG456 = SweepTable(
    "figures456",
    "golden",
    20.0,
    0,
    rows=[
        mix_row(0.05, 210.0, 123, 11.63, 3784, 18, 16, 12.87, 13840),
        mix_row(0.2, 240.0, 140, 12.051, 6000, 18, 30, 14.449, 25000),
        mix_row(0.4, 280.0, 158, 12.88, 10956, 16, 67, 18.16, 48400),
    ],
)


def _fig7_row(gen1, kills, last_wps, total_wps, recirculated):
    return {
        "gen1_blocks": gen1,
        "total_blocks": 18 + gen1,
        "kills": kills,
        "last_generation_wps": last_wps,
        "total_wps": total_wps,
        "recirculated_records": recirculated,
    }


def _fig7(rows):
    header = {
        "long_fraction": 0.05,
        "gen0_blocks": 18,
        "gen1_start": rows[0]["gen1_blocks"],
        "fw_blocks": 123,
        "fw_bandwidth_wps": 11.63,
        "minimum_total_blocks": min(
            (row["total_blocks"] for row in rows if row["kills"] == 0), default=0
        ),
    }
    return SweepTable("figure7", "golden", 20.0, 0, header, rows)


FIG7 = _fig7(
    [
        _fig7_row(16, 0, 1.4, 12.87, 0),
        _fig7_row(13, 0, 1.456, 12.93, 120),
        _fig7_row(10, 0, 1.52, 12.99, 480),
        _fig7_row(9, 3, 9.5, 21.0, 9000),
    ]
)

SCARCE = SweepTable(
    "scarce-flush",
    "golden",
    20.0,
    0,
    rows=[
        {
            "long_fraction": 0.05,
            "gen0_blocks": 20,
            "gen1_blocks": 11,
            "total_blocks": 31,
            "bandwidth_wps": 13.96,
            "mean_seek_distance_scarce": 109123.4,
            "flush_peak_backlog": 79,
            "recirculated_records": 1234,
            "mean_seek_distance_baseline": 235456.7,
            "locality_gain": 235456.7 / 109123.4,
        }
    ],
)

GOLDEN_4 = """\
Figure 4: Disk Space Requirements vs. Tx Mix (blocks)
10s-tx %  FW blocks  EL blocks  EL gen0  EL gen1  FW/EL ratio
--------  ---------  ---------  -------  -------  -----------
      5%        123         34       18       16         3.62
     20%        140         48       18       30         2.92
     40%        158         83       16       67         1.90"""

GOLDEN_5 = """\
Figure 5: Disk Bandwidth vs. Tx Mix (log block writes/s)
10s-tx %  FW w/s  EL w/s  increase %
--------  ------  ------  ----------
      5%   11.63   12.87       10.70
     20%   12.05   14.45       19.90
     40%   12.88   18.16       41.00"""

GOLDEN_6 = """\
Figure 6: Memory Requirements vs. Tx Mix (bytes, peak)
10s-tx %  FW bytes  EL bytes
--------  --------  --------
      5%      3784     13840
     20%      6000     25000
     40%     10956     48400"""

GOLDEN_7 = """\
Figure 7: EL Disk Bandwidth vs. Space (recirculation on, gen0=18 blocks; \
FW reference: 123 blocks at 11.63 w/s)
total blocks  gen1 blocks  last-gen w/s  total w/s  kills
------------  -----------  ------------  ---------  -----
          34           16          1.40      12.87      0
          31           13          1.46      12.93      0
          28           10          1.52      12.99      0
          27            9          9.50      21.00      3"""

GOLDEN_SCARCE = """\
Scarce flushing bandwidth (45 ms transfers, 10 drives -> 222 flush/s):
  minimum EL space     : 31 blocks (20 + 11)   [paper: 31 = 20 + 11]
  log bandwidth        : 13.96 writes/s   [paper: 13.96]
  mean oid seek (45ms) : 109,123   [paper: ~109,000]
  mean oid seek (25ms) : 235,457   [paper: ~235,000]
  flush backlog peak   : 79"""

GOLDEN_HEADLINE = """\
Headline claims (5% 10s-transaction mix):
  EL (no recirc): space ratio 3.6x [paper: 3.6x], bandwidth +11% [paper: +11%]
  EL (recirc)   : space ratio 4.4x [paper: 4.4x], bandwidth +12% [paper: +12%]"""


@pytest.fixture
def fabricated_sweeps(monkeypatch):
    """Make headline_claims read the fabricated Figures 4-6 and 7 tables."""

    def use(fig7: SweepTable) -> None:
        monkeypatch.setattr(experiments, "run_figures_4_5_6", lambda *a, **k: FIG456)
        monkeypatch.setattr(experiments, "run_figure_7", lambda *a, **k: fig7)

    return use


class TestGoldenText:
    @pytest.mark.parametrize(
        "view, expected",
        [(FIGURE_4, GOLDEN_4), (FIGURE_5, GOLDEN_5), (FIGURE_6, GOLDEN_6)],
        ids=["figure4", "figure5", "figure6"],
    )
    def test_figures_4_5_6(self, view, expected):
        assert FIG456.render(**view) == expected

    def test_figure_7(self):
        assert FIG7.render(**FIGURE_7) == GOLDEN_7

    def test_scarce_flush(self):
        assert SCARCE.render(**SCARCE_FLUSH) == GOLDEN_SCARCE

    def test_headline(self, fabricated_sweeps, tmp_path):
        fabricated_sweeps(FIG7)
        claims = headline_claims(SCALE, seed=0, cache=SweepCache(tmp_path))
        assert claims.render(**HEADLINE) == GOLDEN_HEADLINE

    def test_rendering_survives_the_cache_round_trip(self):
        for table, view in ((FIG456, FIGURE_4), (FIG7, FIGURE_7), (SCARCE, SCARCE_FLUSH)):
            restored = SweepTable.from_dict(table.to_dict())
            assert restored == table
            assert restored.render(**view) == table.render(**view)


class TestHeadlineWithoutFeasibleFigure7:
    def test_descriptive_error_names_the_start_sizes(self, fabricated_sweeps, tmp_path):
        fabricated_sweeps(_fig7([_fig7_row(16, 4, 30.0, 40.0, 9000)]))
        with pytest.raises(SearchError, match=r"gen0=18, gen1=16"):
            headline_claims(SCALE, seed=0, cache=SweepCache(tmp_path))
