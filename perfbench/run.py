"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-paper --seed 0 --seconds 10 --trace 0

Workloads: ``sim-paper`` (the paper's 5 % point in the simulator),
``live-paced`` (open loop at 500 TPS against ``repro serve``) and
``live-deep`` (128 closed-loop callers; left out of ``BENCHMARK.json``
while the program loses acknowledged updates on it, see the README).
``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` also makes a traced pass and reports the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when an output check fails.  Every result is also stored, with its
seed, machine and server settings, under ``.perfbench/results/``.

See ``perfbench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

WORKLOADS = ("sim-paper", "live-paced", "live-deep")


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the live measurement window; sim-paper "
                        "always simulates the paper's 500 s")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from perfbench.common import WORK, check_sources, context
    check_sources()
    from perfbench import live, simpaper

    spec = _benchmark_spec()
    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / "runs" / f"{args.workload}-{os.getpid()}"
    try:
        if args.workload == "sim-paper":
            report = simpaper.run(args.seed, bool(args.trace), out_dir)
        else:
            report = live.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), out_dir, run_dir)
    finally:
        live.cleanup(run_dir)

    if args.trace:
        # A layer the workload never calls into reads zero.
        values = {m["name"]: report["per_layer"].get(m["name"], 0.0)
                  for m in spec["per_layer"]}
        wanted = spec["per_layer"]
    else:
        values = report["end_to_end"]
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    info = context(args.seed, args.workload, report.pop("context"))
    stored = dict(report, context=info, metrics=metrics, trace=args.trace)
    result_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"context: {json.dumps(info, sort_keys=True)}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
