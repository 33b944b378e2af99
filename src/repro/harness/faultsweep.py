"""E-fault: behaviour under injected disk faults.

The paper evaluates EL and FW on perfect hardware; this driver measures
what the reproduction's fault layer costs and guarantees.  One sweep
runs each technique over a grid of disk-fault rates; every faulty run
also schedules three whole-system crashes and verifies crash
consistency at each, so a sweep doubles as the chaos acceptance test:

* throughput and commit latency versus fault rate (the degradation
  curve — retries, stabilising demand-flushes and deferred
  acknowledgements all tax the log),
* self-healing counters (retired blocks, healed records, requeued
  flushes) at each rate,
* the number of crash-consistency violations, which must be zero.

A rate ``r`` drives the whole plan through
:meth:`~repro.faults.plan.FaultPlan.proportional` — one knob,
proportional pressure everywhere.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.faults.crash import run_crash_consistency
from repro.faults.plan import FaultPlan
from repro.harness.scale import Scale
from repro.harness.simulator import run_simulation
from repro.harness.sweep import SweepCache, SweepTable, reference_config, run_sweep

#: Fault rates swept by default; 0.0 is the perfect-hardware baseline.
DEFAULT_RATES: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.10, 0.20)

#: Techniques the sweep covers (the hybrid manager has no fault support).
DEFAULT_TECHNIQUES: Tuple[str, ...] = ("el", "fw")

#: Fault-injection counters copied into every row (0 on perfect hardware).
FAULT_COUNTERS: Tuple[str, ...] = (
    "write_faults",
    "write_retries",
    "failed_writes",
    "latent_faults",
    "blocks_retired",
    "records_healed",
    "records_stabilised",
    "deferred_acks",
    "flush_requeues",
)

FAULT_SWEEP = dict(
    title=(
        "E-fault: throughput and healing vs disk-fault rate "
        "({runtime:g}s, seed {seed})\ncrash consistency: {verdict}"
    ),
    x_column=("tech", "technique"),
    columns=[
        ("rate", "fault_rate"),
        ("tps", "throughput_tps", "{:.1f}".format),
        ("lat ms", "mean_commit_latency", lambda v: f"{v * 1000:.1f}"),
        ("retry", "write_retries"),
        ("remap", "blocks_retired"),
        ("heal", "records_healed"),
        ("defer", "deferred_acks"),
        ("viol", "violations"),
    ],
)


def fault_plan_for_rate(rate: float, runtime: float) -> Optional[FaultPlan]:
    """The proportional fault plan for one sweep point (``None`` at 0),
    crashing at 30 %, 60 % and 90 % of the run."""
    if rate <= 0.0:
        return None
    return FaultPlan.proportional(
        rate, crash_times=(0.3 * runtime, 0.6 * runtime, 0.9 * runtime)
    )


def run_fault_sweep(
    scale: Optional[Scale] = None,
    seed: int = 0,
    cache: Optional[SweepCache] = None,
    rates: Tuple[float, ...] = DEFAULT_RATES,
    techniques: Tuple[str, ...] = DEFAULT_TECHNIQUES,
) -> SweepTable:
    """Sweep fault rate for each technique; verify crashes along the way.

    One row per (technique, rate); the header's ``violations`` totals the
    crash-consistency violations of the whole sweep, which must be 0.
    """

    def compute(scale, cache, runner):
        rows = []
        for technique in techniques:
            for rate in rates:
                config = reference_config(technique, scale.runtime, seed)
                plan = fault_plan_for_rate(rate, scale.runtime)
                if plan is None:
                    run = run_simulation(config)
                    checks = 0
                    violations = 0
                else:
                    chaos = run_crash_consistency(config.replace(faults=plan))
                    run = chaos.result
                    checks = len(chaos.checks)
                    violations = chaos.violations
                faults = run.faults or {}
                rows.append(
                    {
                        "technique": technique,
                        "fault_rate": rate,
                        "committed": run.transactions_committed,
                        "killed": run.transactions_killed,
                        "unfinished": run.transactions_unfinished,
                        "throughput_tps": run.transactions_committed / run.runtime,
                        "mean_commit_latency": run.mean_commit_latency,
                        "max_commit_latency": run.max_commit_latency,
                        **{name: faults.get(name, 0) for name in FAULT_COUNTERS},
                        "crash_checks": checks,
                        "violations": violations,
                    }
                )
        violations = sum(row["violations"] for row in rows)
        header = {
            "rates": list(rates),
            "violations": violations,
            "verdict": "OK" if violations == 0 else f"{violations} VIOLATIONS",
        }
        return header, rows

    key = f"-r{','.join(f'{r:g}' for r in rates)}-t{','.join(techniques)}"
    return run_sweep("efault", key, scale, seed, cache, None, compute)
