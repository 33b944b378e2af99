"""Sweep results: one table type, one on-disk cache, one driver sequence.

Every experiment driver returns a :class:`SweepTable` — header values plus
rows of plain column dicts — and renders it with :meth:`SweepTable.render`.
The drivers run many simulations; a small on-disk cache makes re-rendering
a figure (or running the figure-5 bench after the figure-4 bench, which
share the same sweep) cheap.  Entries are keyed by an explicit string that
includes every parameter that affects the result plus a format version, so
stale entries are never silently reused.  :func:`run_sweep` owns the
sequence every driver shares: default scale, cache lookup, compute, cache
store, run manifest.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.harness.config import SimulationConfig
from repro.harness.scale import Scale
from repro.metrics.report import format_series
from repro.obs.manifest import (
    RunManifest,
    aggregate_worker_manifests,
    default_manifest_path,
    describe_code,
)

#: Bump when result formats or simulation semantics change.
#: v4: filenames carry a digest of the raw key (collision fix) and the
#: per-run cache keys results by config fingerprint.
#: v5: every sweep is stored as one :class:`SweepTable` document.
CACHE_VERSION = 5

#: Accepted by every driver: where to drop the experiment's run manifest.
ManifestDir = Optional[Union[str, Path]]

#: A rendered column: ``(label, key)`` or ``(label, key, fmt)``, where
#: ``fmt`` maps the row's value to the printed cell.
Column = Tuple[Any, ...]


def default_cache_dir() -> Path:
    """Cache location: ``$REPRO_CACHE_DIR`` or ``.repro_cache/`` in the cwd."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.cwd() / ".repro_cache"


class SweepCache:
    """A tiny key → JSON document store on disk."""

    def __init__(self, directory: Optional[Path] = None, enabled: bool = True):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        #: Entries found truncated/corrupt and moved aside (kept for
        #: post-mortems as ``*.corrupt``; the result is recomputed).
        self.corrupt_entries = 0
        #: Counter updates only; file operations are already atomic
        #: (``os.replace``) so concurrent sweep threads can share one cache.
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path:
        # Sanitisation alone is lossy ("a:b" and "a_b" both become "a_b"),
        # so the filename also carries a short digest of the raw key.
        safe = "".join(c if c.isalnum() or c in "-._" else "_" for c in key)
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:8]
        return self.directory / f"v{CACHE_VERSION}-{safe[:96]}-{digest}.json"

    def get(self, key: str) -> Optional[dict]:
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            # A truncated or corrupt entry (killed writer, disk fault).
            # Quarantine it instead of retrying it forever: the caller
            # recomputes and overwrites the slot with a good document.
            self._quarantine(path)
            with self._lock:
                self.misses += 1
            return None
        if not isinstance(document, dict):
            self._quarantine(path)
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return document

    def quarantine(self, key: str) -> Optional[Path]:
        """Move ``key``'s entry aside as ``*.corrupt``; returns the new path.

        For callers that discover an entry is semantically broken (parses
        as JSON but doesn't deserialise) after :meth:`get` accepted it.
        """
        return self._quarantine(self._path(key))

    def _quarantine(self, path: Path) -> Optional[Path]:
        target = path.with_suffix(".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            return None  # a concurrent reader already moved or removed it
        with self._lock:
            self.corrupt_entries += 1
        return target

    def put(self, key: str, document: dict) -> None:
        if not self.enabled:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        # Unique tmp name so concurrent writers of the same key never
        # interleave; the final os.replace is atomic either way.
        tmp = path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)

    def get_or_compute(self, key: str, compute: Callable[[], dict]) -> dict:
        """Fetch ``key`` or compute, store and return it."""
        cached = self.get(key)
        if cached is not None:
            return cached
        document = compute()
        self.put(key, document)
        return document

    def clear(self) -> int:
        """Delete every cache file; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for pattern in ("*.json", "*.corrupt"):
                for path in self.directory.glob(pattern):
                    path.unlink()
                    removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SweepCache {self.directory} hits={self.hits} misses={self.misses}>"


@dataclass
class SweepTable:
    """One sweep's outcome: header values plus one plain dict per row.

    Derived quantities (ratios, totals, verdicts) are stored as columns or
    header values when the table is built, so the cached document carries
    them and nothing recomputes them on the way to the screen.
    """

    name: str
    scale_label: str
    runtime: float
    seed: int
    header: Dict[str, Any] = field(default_factory=dict)
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def select(self, **match: Any) -> List[Dict[str, Any]]:
        """The rows whose columns equal every ``match`` value, in order."""
        return [
            row
            for row in self.rows
            if all(row[key] == value for key, value in match.items())
        ]

    def render(
        self,
        title: str,
        x_column: Optional[Column] = None,
        columns: Sequence[Column] = (),
    ) -> str:
        """The table as text: ``title``, then one line per row.

        ``title`` is a format string over the table's fields, its header
        values and, for a one-row table, that row's columns, so a summary
        such as the scarce-flush result renders from its title alone
        (``x_column=None`` prints no table).
        """
        values = {
            "name": self.name,
            "scale_label": self.scale_label,
            "runtime": self.runtime,
            "seed": self.seed,
            **self.header,
        }
        if len(self.rows) == 1:
            values.update(self.rows[0])
        text = title.format(**values)
        if x_column is None:
            return text
        specs = [x_column, *columns]
        return format_series(
            text,
            x_column[0],
            [spec[0] for spec in columns],
            [[_cell(spec, row) for spec in specs] for row in self.rows],
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepTable":
        return cls(**data)


def _cell(spec: Column, row: Dict[str, Any]) -> Any:
    value = row[spec[1]]
    return spec[2](value) if len(spec) > 2 else value


def reference_config(
    technique: str, runtime: float, seed: int, **overrides: Any
) -> SimulationConfig:
    """The paper's EL reference sizes (18 + 16 blocks) or FW at the same
    34-block budget, so the two techniques' curves compare."""
    if technique == "fw":
        return SimulationConfig.firewall(34, runtime=runtime, seed=seed, **overrides)
    return SimulationConfig.ephemeral((18, 16), runtime=runtime, seed=seed, **overrides)


def run_sweep(
    name: str,
    key: str,
    scale: Optional[Scale],
    seed: int,
    cache: Optional[SweepCache],
    manifest_dir: ManifestDir,
    compute: Callable[[Scale, SweepCache, Any], Tuple[dict, List[dict]]],
    jobs: int = 1,
) -> SweepTable:
    """Return the ``name`` sweep's table, from the cache when it has one.

    ``key`` carries the parameters beyond scale and seed.  On a miss,
    ``compute(scale, cache, runner)`` returns the header and rows, run
    through one :class:`~repro.harness.parallel.ParallelRunner` of ``jobs``
    workers, and the table is cached.  Either way a run manifest is written
    when ``manifest_dir`` is given.
    """
    # parallel imports SweepCache from this module.
    from repro.harness.parallel import ParallelRunner

    scale = scale or Scale.from_env()
    cache = cache or SweepCache()
    full_key = f"{name}-{scale.label}-seed{seed}{key}"
    document = cache.get(full_key)
    runner = None
    if document is not None:
        table = SweepTable.from_dict(document)
    else:
        with ParallelRunner(jobs=jobs, cache=cache) as runner:
            header, rows = compute(scale, cache, runner)
        table = SweepTable(name, scale.label, scale.runtime, seed, header, rows)
        cache.put(full_key, table.to_dict())
    _publish_manifest(table, manifest_dir, runner)
    return table


def _publish_manifest(table: SweepTable, manifest_dir: ManifestDir, runner) -> None:
    """Write a reproducibility manifest for one sweep's table.

    The full table document rides in the manifest's ``counters`` block, so
    two sweeps (different seeds, code revisions, scales) can be diffed as
    JSON without re-running anything.  When the sweep was computed through
    a runner, its per-worker manifests are aggregated into a ``parallel``
    block so the manifest also attributes wall-clock cost.
    """
    if manifest_dir is None:
        return
    label = f"{table.name}-{table.scale_label}"
    counters = table.to_dict()
    if runner is not None:
        counters["parallel"] = {
            "jobs": runner.jobs,
            "runs_executed": runner.runs_executed,
            "cache_hits": runner.cache_hits,
            "timeouts": runner.timeouts,
            "retries_used": runner.retries_used,
            "workers": aggregate_worker_manifests(runner.worker_manifests),
        }
    manifest = RunManifest(
        label=label,
        seed=table.seed,
        config={
            "experiment": table.name,
            "scale": table.scale_label,
            "runtime": table.runtime,
        },
        code=describe_code(),
        counters=counters,
    )
    manifest.write(default_manifest_path(manifest_dir, label, table.seed))
