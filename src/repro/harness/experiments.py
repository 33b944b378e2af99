"""Drivers that regenerate every evaluation artifact in the paper.

* :func:`run_figures_4_5_6` — one minimum-space sweep over the transaction
  mix yields Figure 4 (disk space), Figure 5 (log bandwidth) and Figure 6
  (main memory) simultaneously, exactly as in the paper where the three
  figures describe the same set of minimum-space runs.
* :func:`run_figure_7` — EL disk bandwidth (last generation and total)
  versus total space with recirculation enabled, generation 0 pinned.
* :func:`run_scarce_flush` — the §4 narrative experiment with 45 ms flush
  transfers: space, bandwidth, and the flush-locality shift.
* :func:`headline_claims` — the abstract's space-ratio / bandwidth-increase
  claims, derived from the other results.

Each driver returns a :class:`~repro.harness.sweep.SweepTable`; the
``FIGURE_*``, ``SCARCE_FLUSH`` and ``HEADLINE`` mappings are the keyword
arguments of :meth:`SweepTable.render` that print each artifact.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.errors import SearchError
from repro.harness.config import SimulationConfig
from repro.harness.parallel import ParallelRunner
from repro.harness.scale import Scale
from repro.harness.search import SpaceSearch
from repro.harness.sweep import ManifestDir, SweepCache, SweepTable, run_sweep

_MIX_COLUMN = ("10s-tx %", "long_fraction", "{:.0%}".format)

FIGURE_4 = dict(
    title="Figure 4: Disk Space Requirements vs. Tx Mix (blocks)",
    x_column=_MIX_COLUMN,
    columns=[
        ("FW blocks", "fw_blocks"),
        ("EL blocks", "el_blocks"),
        ("EL gen0", "el_gen0"),
        ("EL gen1", "el_gen1"),
        ("FW/EL ratio", "space_ratio"),
    ],
)
FIGURE_5 = dict(
    title="Figure 5: Disk Bandwidth vs. Tx Mix (log block writes/s)",
    x_column=_MIX_COLUMN,
    columns=[
        ("FW w/s", "fw_bandwidth_wps"),
        ("EL w/s", "el_bandwidth_wps"),
        ("increase %", "bandwidth_increase", lambda v: round(100 * v, 1)),
    ],
)
FIGURE_6 = dict(
    title="Figure 6: Memory Requirements vs. Tx Mix (bytes, peak)",
    x_column=_MIX_COLUMN,
    columns=[
        ("FW bytes", "fw_memory_peak_bytes"),
        ("EL bytes", "el_memory_peak_bytes"),
    ],
)
FIGURE_7 = dict(
    title=(
        "Figure 7: EL Disk Bandwidth vs. Space "
        "(recirculation on, gen0={gen0_blocks} blocks; "
        "FW reference: {fw_blocks} blocks at {fw_bandwidth_wps:.2f} w/s)"
    ),
    x_column=("total blocks", "total_blocks"),
    columns=[
        ("gen1 blocks", "gen1_blocks"),
        ("last-gen w/s", "last_generation_wps"),
        ("total w/s", "total_wps"),
        ("kills", "kills"),
    ],
)
SCARCE_FLUSH = dict(
    title="\n".join(
        [
            "Scarce flushing bandwidth (45 ms transfers, 10 drives -> 222 flush/s):",
            "  minimum EL space     : {total_blocks} blocks "
            "({gen0_blocks} + {gen1_blocks})   [paper: 31 = 20 + 11]",
            "  log bandwidth        : {bandwidth_wps:.2f} writes/s   [paper: 13.96]",
            "  mean oid seek (45ms) : {mean_seek_distance_scarce:,.0f}   "
            "[paper: ~109,000]",
            "  mean oid seek (25ms) : {mean_seek_distance_baseline:,.0f}   "
            "[paper: ~235,000]",
            "  flush backlog peak   : {flush_peak_backlog}",
        ]
    )
)
HEADLINE = dict(
    title="\n".join(
        [
            "Headline claims (5% 10s-transaction mix):",
            "  EL (no recirc): space ratio {no_recirc_space_ratio:.1f}x "
            "[paper: 3.6x], bandwidth +{no_recirc_bandwidth_increase:.0%} "
            "[paper: +11%]",
            "  EL (recirc)   : space ratio {recirc_space_ratio:.1f}x "
            "[paper: 4.4x], bandwidth +{recirc_bandwidth_increase:.0%} "
            "[paper: +12%]",
        ]
    )
)


def _nearest_mix(fig456: SweepTable, long_fraction: float) -> dict:
    return min(fig456.rows, key=lambda row: abs(row["long_fraction"] - long_fraction))


# ======================================================================
# Figures 4, 5, 6 — one sweep over the transaction mix
# ======================================================================
def mix_row(
    long_fraction: float,
    updates_per_second: float,
    fw_blocks: int,
    fw_bandwidth_wps: float,
    fw_memory_peak_bytes: int,
    el_gen0: int,
    el_gen1: int,
    el_bandwidth_wps: float,
    el_memory_peak_bytes: int,
) -> dict:
    """One Figures 4-6 row: both minimum-space outcomes for one mix, plus
    EL's total space, the FW/EL space ratio (the paper's headline factor)
    and EL's bandwidth increase over FW as a fraction (0.11 = +11 %)."""
    row = dict(locals())
    el_blocks = el_gen0 + el_gen1
    row["el_blocks"] = el_blocks
    row["space_ratio"] = fw_blocks / el_blocks if el_blocks else 0.0
    row["bandwidth_increase"] = (
        el_bandwidth_wps / fw_bandwidth_wps - 1.0 if fw_bandwidth_wps else 0.0
    )
    return row


def _figures_456_row(
    scale: Scale, seed: int, fraction: float, runner: ParallelRunner
) -> dict:
    """Both minimum-space searches for one transaction mix."""
    fw_template = SimulationConfig.firewall(
        log_blocks=64,  # replaced by the search
        long_fraction=fraction,
        runtime=scale.runtime,
        seed=seed,
    )
    fw = SpaceSearch(fw_template, parallel=runner).fw_minimum()
    el_template = SimulationConfig.ephemeral(
        (18, 16),  # replaced by the search
        recirculation=False,
        long_fraction=fraction,
        runtime=scale.runtime,
        seed=seed,
    )
    el = SpaceSearch(el_template, parallel=runner).el_minimum(
        scale.gen0_candidates, refine_radius=scale.gen0_refine_radius
    )
    mix = fw_template.workload_mix()
    return mix_row(
        long_fraction=fraction,
        updates_per_second=(
            fw_template.arrival_rate * mix.mean_updates_per_transaction()
        ),
        fw_blocks=fw.sizes[0],
        fw_bandwidth_wps=fw.result.total_bandwidth_wps,
        fw_memory_peak_bytes=fw.result.memory_peak_bytes,
        el_gen0=el.sizes[0],
        el_gen1=el.sizes[1],
        el_bandwidth_wps=el.result.total_bandwidth_wps,
        el_memory_peak_bytes=el.result.memory_peak_bytes,
    )


def run_figures_4_5_6(
    scale: Optional[Scale] = None,
    seed: int = 0,
    cache: Optional[SweepCache] = None,
    manifest_dir: ManifestDir = None,
    jobs: int = 1,
) -> SweepTable:
    """Minimum-space sweep over the mix for both techniques (E1–E3).

    ``jobs`` > 1 runs the independent searches concurrently (one driver
    thread per mix point, simulation probes fanned across a process pool)
    and turns the searches speculative; the result is identical to a serial
    sweep — the same seeds produce the same runs — only faster.
    """

    def compute(scale, cache, runner):
        def row(fraction):
            return _figures_456_row(scale, seed, fraction, runner)

        if runner.jobs > 1 and len(scale.mix_points) > 1:
            with ThreadPoolExecutor(
                max_workers=min(len(scale.mix_points), runner.jobs)
            ) as pool:
                return {}, list(pool.map(row, scale.mix_points))
        return {}, [row(fraction) for fraction in scale.mix_points]

    return run_sweep(
        "figures456", "", scale, seed, cache, manifest_dir, compute, jobs
    )


# ======================================================================
# Figure 7 — recirculation: bandwidth vs space
# ======================================================================
def run_figure_7(
    scale: Optional[Scale] = None,
    seed: int = 0,
    cache: Optional[SweepCache] = None,
    long_fraction: float = 0.05,
    gen0_blocks: Optional[int] = None,
    gen1_start: Optional[int] = None,
    manifest_dir: ManifestDir = None,
    jobs: int = 1,
) -> SweepTable:
    """Shrink the last generation with recirculation enabled (E4).

    ``gen0_blocks`` defaults to the no-recirculation optimum for the same
    mix ("the size of the first generation remained fixed at 18 blocks, for
    which the minimum space was obtained in the case of no recirculation"),
    taken from the Figures 4–6 sweep.  Rows run from the largest total
    down; the header's ``minimum_total_blocks`` is the smallest total
    without kills (0 when there is none).
    """
    key = f"-mix{long_fraction}"
    if gen0_blocks is not None or gen1_start is not None:
        key += f"-g0{gen0_blocks}-g1{gen1_start}"

    def compute(scale, cache, runner):
        fig456 = run_figures_4_5_6(scale, seed=seed, cache=cache, jobs=jobs)
        reference = _nearest_mix(fig456, long_fraction)
        gen0 = gen0_blocks if gen0_blocks is not None else reference["el_gen0"]
        start_gen1 = gen1_start if gen1_start is not None else reference["el_gen1"]

        def configure(gen1: int) -> SimulationConfig:
            return SimulationConfig.ephemeral(
                (gen0, gen1),
                recirculation=True,
                long_fraction=long_fraction,
                runtime=scale.runtime,
                seed=seed,
            )

        floor = 3  # gap + 1
        gen1_values = list(range(start_gen1, floor - 1, -1))
        rows = []
        for index, gen1 in enumerate(gen1_values):
            if runner.jobs > 1:
                # Speculatively run the next few shrink steps as a batch;
                # the walk below consumes them from the per-run cache.  At
                # most jobs-1 probes past the stopping point are wasted.
                runner.run_many(
                    [configure(g) for g in gen1_values[index : index + runner.jobs]]
                )
            run = runner.run_one(configure(gen1))
            rows.append(
                {
                    "gen1_blocks": gen1,
                    "total_blocks": gen0 + gen1,
                    "kills": run.transactions_killed,
                    "last_generation_wps": run.last_generation_bandwidth_wps,
                    "total_wps": run.total_bandwidth_wps,
                    "recirculated_records": run.recirculated_records,
                }
            )
            if not run.no_kills:
                break  # one infeasible point past the minimum, as in the paper
        feasible = [row["total_blocks"] for row in rows if row["kills"] == 0]
        header = {
            "long_fraction": long_fraction,
            "gen0_blocks": gen0,
            "gen1_start": start_gen1,
            "fw_blocks": reference["fw_blocks"],
            "fw_bandwidth_wps": reference["fw_bandwidth_wps"],
            "minimum_total_blocks": min(feasible, default=0),
        }
        return header, rows

    return run_sweep("figure7", key, scale, seed, cache, manifest_dir, compute, jobs)


# ======================================================================
# §4 narrative — scarce flushing bandwidth
# ======================================================================
def run_scarce_flush(
    scale: Optional[Scale] = None,
    seed: int = 0,
    cache: Optional[SweepCache] = None,
    long_fraction: float = 0.05,
    manifest_dir: ManifestDir = None,
    jobs: int = 1,
) -> SweepTable:
    """The 45 ms flush-transfer experiment (E5).

    One row: the minimum-space EL configuration under 45 ms transfers, its
    flush locality, and the locality at the plentiful 25 ms baseline (same
    mix and sizes, recirculation on).  ``locality_gain`` is baseline /
    scarce mean seek distance (> 1 = more sequential).
    """

    def compute(scale, cache, runner):
        template = SimulationConfig.ephemeral(
            (20, 11),
            recirculation=True,
            long_fraction=long_fraction,
            runtime=scale.runtime,
            seed=seed,
            flush_write_seconds=0.045,
        )
        # The paper's operating point recirculates unflushed updates "until
        # they are eventually flushed" and concludes "the extra disk space
        # and bandwidth are not prohibitive".  Encode both halves: the log
        # must survive without kills and without demand flushes (random
        # database I/O), and its bandwidth must stay within 25% of the same
        # mix's plentiful-flush EL bandwidth — otherwise the search walks
        # into a degenerate tiny-log/huge-recirculation regime the paper
        # never considers.
        fig456 = run_figures_4_5_6(scale, seed=seed, cache=cache, jobs=jobs)
        bandwidth_cap = _nearest_mix(fig456, long_fraction)["el_bandwidth_wps"] * 1.25
        search = SpaceSearch(
            template,
            feasible_fn=lambda result: (
                result.no_kills
                and result.demand_flushes == 0
                and result.total_bandwidth_wps <= bandwidth_cap
            ),
            parallel=runner,
        )
        # A gen0 that blows the bandwidth cap does so at any gen1; don't let
        # the bracket chase infeasibility into absurd sizes.
        search.MAX_BLOCKS = 256
        outcome = search.el_minimum(
            scale.gen0_candidates, refine_radius=scale.gen0_refine_radius
        )
        baseline = runner.run_one(
            SimulationConfig.ephemeral(
                outcome.sizes,
                recirculation=True,
                long_fraction=long_fraction,
                runtime=scale.runtime,
                seed=seed,
                flush_write_seconds=0.025,
            )
        )
        scarce_seek = outcome.result.flush_mean_seek_distance
        baseline_seek = baseline.flush_mean_seek_distance
        row = {
            "long_fraction": long_fraction,
            "gen0_blocks": outcome.sizes[0],
            "gen1_blocks": outcome.sizes[1],
            "total_blocks": outcome.sizes[0] + outcome.sizes[1],
            "bandwidth_wps": outcome.result.total_bandwidth_wps,
            "mean_seek_distance_scarce": scarce_seek,
            "flush_peak_backlog": outcome.result.flush_peak_backlog,
            "recirculated_records": outcome.result.recirculated_records,
            "mean_seek_distance_baseline": baseline_seek,
            "locality_gain": baseline_seek / scarce_seek if scarce_seek else 0.0,
        }
        return {}, [row]

    return run_sweep(
        "scarce-flush",
        f"-mix{long_fraction}",
        scale,
        seed,
        cache,
        manifest_dir,
        compute,
        jobs,
    )


# ======================================================================
# Headline claims (abstract / §4)
# ======================================================================
def headline_claims(
    scale: Optional[Scale] = None,
    seed: int = 0,
    cache: Optional[SweepCache] = None,
    manifest_dir: ManifestDir = None,
    jobs: int = 1,
) -> SweepTable:
    """Recompute the abstract's claims from the figure sweeps (E6).

    One row at the 5 % mix: "It reduces disk space by a factor of 3.6 with
    only an 11% increase in bandwidth" (``no_recirc_*``, Figures 4-5) and
    "a factor of 4.4 reduction in disk space and a 12% increase in
    bandwidth" (``recirc_*``, Figure 7's smallest total without kills).
    """

    def compute(scale, cache, runner):
        fig456 = run_figures_4_5_6(scale, seed=seed, cache=cache, jobs=jobs)
        fig7 = run_figure_7(scale, seed=seed, cache=cache, jobs=jobs)
        base = min(fig456.rows, key=lambda row: row["long_fraction"])
        feasible = fig7.select(kills=0)
        if not feasible:
            raise SearchError(
                "Figure 7 has no point without kills: its start sizes "
                f"(gen0={fig7.header['gen0_blocks']}, "
                f"gen1={fig7.header['gen1_start']}) already kill "
                "transactions; start it from larger sizes"
            )
        best = min(feasible, key=lambda row: row["total_blocks"])
        fw_wps = fig7.header["fw_bandwidth_wps"]
        row = {
            "no_recirc_space_ratio": base["space_ratio"],
            "no_recirc_bandwidth_increase": base["bandwidth_increase"],
            "recirc_space_ratio": fig7.header["fw_blocks"] / best["total_blocks"],
            "recirc_bandwidth_increase": (
                best["total_wps"] / fw_wps - 1.0 if fw_wps else 0.0
            ),
        }
        return {}, [row]

    return run_sweep("headline", "", scale, seed, cache, manifest_dir, compute, jobs)
