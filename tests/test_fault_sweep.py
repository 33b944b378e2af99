"""Tests for the E-fault sweep driver."""

from __future__ import annotations

from repro.cli import _chaos_plan, build_parser
from repro.faults.plan import FaultPlan
from repro.harness.faultsweep import (
    FAULT_SWEEP,
    fault_plan_for_rate,
    run_fault_sweep,
)
from repro.harness.scale import Scale
from repro.harness.sweep import SweepCache, SweepTable

RATES = (0.0, 0.1)


class TestFaultPlanForRate:
    def test_zero_rate_is_perfect_hardware(self):
        assert fault_plan_for_rate(0.0, 25.0) is None

    def test_proportional_plan(self):
        plan = fault_plan_for_rate(0.1, 100.0)
        assert isinstance(plan, FaultPlan)
        assert plan.transient_write_rate == 0.1
        assert plan.torn_write_rate == 0.05
        assert plan.latent_error_rate == 0.01
        assert plan.flush_fault_rate == 0.1
        assert plan.crash_times == (30.0, 60.0, 90.0)
        assert plan.max_retries == FaultPlan().max_retries

    def test_chaos_uses_the_same_proportions(self):
        args = build_parser().parse_args(
            ["chaos", "--rate", "0.1", "--crashes", "3", "--runtime", "40",
             "--max-retries", "0"]
        )
        plan = _chaos_plan(args)
        sweep_plan = fault_plan_for_rate(0.1, 40.0)
        for name in ("transient_write_rate", "torn_write_rate",
                     "latent_error_rate", "flush_fault_rate"):
            assert getattr(plan, name) == getattr(sweep_plan, name)
        # Chaos keeps its own crash spacing and retry budget.
        assert plan.crash_times == (10.0, 20.0, 30.0)
        assert plan.max_retries == 0


class TestRunFaultSweep:
    def test_smoke_sweep_shape_and_consistency(self, tmp_path):
        cache = SweepCache(tmp_path)
        result = run_fault_sweep(
            Scale.smoke(), seed=0, cache=cache, rates=RATES
        )
        assert result.header["violations"] == 0
        assert result.header["rates"] == list(RATES)
        assert len(result.rows) == 2 * len(RATES)  # el and fw
        for technique in ("el", "fw"):
            points = result.select(technique=technique)
            assert [p["fault_rate"] for p in points] == list(RATES)
            baseline, faulty = points
            assert baseline["violations"] == 0 and baseline["crash_checks"] == 0
            assert faulty["crash_checks"] == 3
            assert faulty["violations"] == 0
            assert faulty["write_faults"] > 0
            assert baseline["write_faults"] == 0
            assert baseline["committed"] > 0 and faulty["committed"] > 0

    def test_sweep_cached_and_round_trips(self, tmp_path):
        cache = SweepCache(tmp_path)
        first = run_fault_sweep(Scale.smoke(), seed=0, cache=cache, rates=RATES)
        hits_before = cache.hits
        second = run_fault_sweep(
            Scale.smoke(), seed=0, cache=cache, rates=RATES
        )
        assert cache.hits == hits_before + 1
        assert second.to_dict() == first.to_dict()

    def test_text_table_mentions_verdict(self, tmp_path):
        result = run_fault_sweep(
            Scale.smoke(), seed=0, cache=SweepCache(tmp_path), rates=RATES
        )
        text = result.render(**FAULT_SWEEP)
        assert "crash consistency: OK" in text
        assert text.count("el") >= len(RATES)

    def test_from_dict_rebuilds_points(self):
        result = SweepTable(
            "efault",
            "smoke",
            25.0,
            0,
            header={"rates": [0.1], "violations": 0, "verdict": "OK"},
            rows=[
                {
                    "technique": "el",
                    "fault_rate": 0.1,
                    "committed": 10,
                    "killed": 1,
                    "unfinished": 0,
                    "throughput_tps": 0.4,
                    "mean_commit_latency": 0.05,
                    "max_commit_latency": 0.2,
                    "violations": 0,
                }
            ],
        )
        rebuilt = SweepTable.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.header["violations"] == 0
