"""Seconds-long runs of every workload through the command line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import simpaper

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", ["live-paced", "live-deep"])
def test_live_workload_end_to_end(workload):
    result = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_live_paced_traced():
    result = _run("live-paced", trace=1)
    assert set(result["metrics"]) == _names("per_layer")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["sim.engine.self_s"] == 0
    assert values["live.storage.fsyncs"] > 0
    assert values["records.codec.records_encoded"] > 0


def test_sim_paper_end_to_end():
    result = _run("sim-paper", trace=0)
    assert result["correct"]
    assert set(result["metrics"]) == _names("end_to_end")


def test_sim_traced_layers_cover_the_run(tmp_path):
    runs = simpaper.paper_runs(0, runtime=20.0, repeats=1, trace_dir=tmp_path)
    traced = {technique: results[0] for technique, results in runs.items()}
    layers = simpaper.per_layer(traced)
    sim_layers = _names("per_layer") - {
        n for n in _names("per_layer")
        if n.startswith(("live.", "client.", "records.", "commit."))
    }
    assert sim_layers <= set(layers)
    assert layers["sim.engine.events"] > 0
    assert layers["sim.engine.self_s"] > 0
    for result in traced.values():
        covered = sum(result["layers"].values())
        assert 0.9 * result["raw_wall_s"] < covered <= result["raw_wall_s"]
