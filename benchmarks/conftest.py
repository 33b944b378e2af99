"""Shared fixtures for the benchmark harness.

Each bench regenerates one evaluation artifact from the paper (figures 4-7,
the scarce-flush narrative, the headline claims) at the scale selected by
the environment (see :class:`repro.harness.scale.Scale`), prints the
series the paper reports, and saves it under ``results/``.

The expensive sweeps are shared through the on-disk cache, so running the
figure-5 bench after the figure-4 bench reuses the same minimum-space runs,
exactly as the figures share runs in the paper.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.harness.scale import Scale
from repro.harness.sweep import SweepCache


def pytest_addoption(parser):
    parser.addoption(
        "--results-dir",
        action="store",
        default="results",
        help="directory the rendered figure tables are written to",
    )


@pytest.fixture(scope="session")
def scale() -> Scale:
    return Scale.from_env()


@pytest.fixture(scope="session")
def cache() -> SweepCache:
    return SweepCache()


@pytest.fixture(scope="session")
def results_dir(request) -> Path:
    path = Path(request.config.getoption("--results-dir"))
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture(scope="session")
def publish(results_dir, scale, request):
    """Print a rendered artifact and persist it under results/.

    Output is emitted with pytest's capture suspended, so
    ``pytest benchmarks/ --benchmark-only | tee ...`` records the
    regenerated figures even without ``-s``.
    """
    capmanager = request.config.pluginmanager.getplugin("capturemanager")

    def _publish(name: str, text: str) -> None:
        rendered = f"\n===== {name} [scale: {scale.label}] =====\n{text}\n"
        if capmanager is not None:
            with capmanager.global_and_fixture_disabled():
                sys.stdout.write(rendered)
                sys.stdout.flush()
        else:  # pragma: no cover - capture plugin disabled
            sys.stdout.write(rendered)
        (results_dir / f"{name}.txt").write_text(
            f"scale: {scale.label}\n\n{text}\n", encoding="utf-8"
        )

    return _publish


@pytest.fixture(scope="session")
def append_trajectory(results_dir):
    """Append one machine-readable entry to ``results/BENCH_<name>.json``.

    The file holds a JSON list, one entry per bench run; an unreadable
    file starts a fresh list.
    """

    def _append(name: str, entry: dict) -> None:
        path = results_dir / f"BENCH_{name}.json"
        trajectory = []
        if path.is_file():
            try:
                trajectory = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                trajectory = []
        trajectory.append(entry)
        path.write_text(
            json.dumps(trajectory, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )

    return _append
