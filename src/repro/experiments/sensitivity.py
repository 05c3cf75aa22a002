"""Sensitivity analyses (extension experiments).

The paper's results rest on fab and system parameters it does not vary;
these harnesses quantify how the headline conclusion — GA-CDP designs
cut embodied carbon substantially while meeting constraints — responds
to the big unknowns:

* **grid intensity** (:func:`grid_sensitivity`) — a fab on coal vs
  renewables rescales CFPA; does the *relative* GA saving survive?
* **defect density** (:func:`yield_sensitivity`) — yield drives Eq. 2's
  denominator; poor yield amplifies every area saving;
* **DRAM bandwidth** (:func:`bandwidth_sensitivity`) — the performance
  model's main exogenous constant moves the FPS-feasible frontier.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.carbon.act import GRID_PROFILES
from repro.core.baselines import smallest_exact_meeting_fps
from repro.core.designer import CarbonAwareDesigner
from repro.dataflow import performance as performance_module
from repro.dataflow.performance import clear_performance_cache, evaluate_network
from repro.engine.grid import ExecutionPlan, GridConfig, GridRunner
from repro.errors import ExperimentError
from repro.experiments.common import (
    DEFAULT_SETTINGS,
    ExperimentSettings,
    shared_predictor,
)
from repro.experiments.report import render_table
from repro.nn.zoo import workload


@dataclass(frozen=True)
class SensitivityResult:
    """One sweep: parameter value -> (exact gCO2, GA gCO2, saving %)."""

    parameter: str
    rows: Tuple[Tuple[float, float, float, float], ...]

    def render(self) -> str:
        return render_table(
            [self.parameter, "exact_gCO2", "ga_gCO2", "saving_%"],
            [list(row) for row in self.rows],
            title=f"Sensitivity — {self.parameter}",
        )

    def savings(self) -> Tuple[float, ...]:
        return tuple(row[3] for row in self.rows)


def _ga_vs_exact(
    settings: ExperimentSettings,
    network: str,
    node_nm: int,
    grid: str | float,
    seed_offset: int,
) -> Tuple[float, float, float]:
    predictor = shared_predictor()
    library = settings.library()
    exact = smallest_exact_meeting_fps(
        network, library, node_nm, predictor, 30.0, grid=grid
    )
    ga = CarbonAwareDesigner(
        network=network,
        node_nm=node_nm,
        min_fps=30.0,
        max_drop_percent=2.0,
        library=library,
        predictor=predictor,
        ga_config=settings.ga_config(seed_offset=seed_offset),
        grid=grid,
        # no cache_dir: the yield sweep patches DEFAULT_YIELD_MODEL, which
        # changes fitness without changing the cache fingerprint
        engine=settings.engine(),
    ).run().best
    saving = 100.0 * (1.0 - ga.carbon_g / exact.carbon_g)
    return exact.carbon_g, ga.carbon_g, saving


def _reject_fitness_cache(
    settings: ExperimentSettings, sweep: str
) -> ExperimentSettings:
    """Disable the on-disk fitness cache for a global-patching sweep.

    The yield and bandwidth sweeps patch module globals
    (``DEFAULT_YIELD_MODEL`` / ``DRAM_BANDWIDTH_GB_S``) that the disk
    cache's context fingerprint cannot see: fitness computed under a
    patched global would be stored — and later served — under the
    *unpatched* context, silently corrupting both this sweep and every
    later run sharing the directory.  So ``cache_dir`` is stripped,
    with a loud warning, before any cell runs.
    """
    if settings.cache_dir is None:
        return settings
    warnings.warn(
        f"{sweep} patches module globals the on-disk cache cannot "
        f"fingerprint; ignoring cache_dir={settings.cache_dir!r} for this "
        "sweep (persisted results would be computed under patched models "
        "and corrupt later runs)",
        RuntimeWarning,
        stacklevel=3,
    )
    return replace(settings, cache_dir=None)


def _patch_local_settings(settings: ExperimentSettings) -> ExperimentSettings:
    """Keep a global-patching cell's fitness workers in-process.

    The warm shared process pool either misses a module-global patch
    (workers forked before it) or outlives it (workers forked during
    it), so cells that patch globals must not fan fitness evaluation
    out to it; thread mode shares the patched interpreter and returns
    bit-identical results.
    """
    if settings.engine_mode == "process":
        return replace(settings, engine_mode="thread")
    return settings


def _patch_safe_runner(runner: GridRunner, n_cells: int) -> GridRunner:
    """Demote thread-mode grids to serial for global-patching cells.

    Process shards isolate a cell's module-global patch per worker and
    serial applies it one cell at a time, but concurrent threads in one
    interpreter would race on the shared global.
    """
    if runner.resolved_mode(n_cells) == "thread":
        return GridRunner(GridConfig(mode="serial"))
    return runner


def _yield_cell(
    settings: ExperimentSettings,
    network: str,
    node_nm: int,
    base_density: float,
    multiplier: float,
    seed_offset: int,
) -> Tuple[float, float, float]:
    """One yield-sweep cell: the Murphy-model swap happens *inside* the
    cell (restored under try/finally), so the patch travels with the
    cell into whichever grid worker runs it."""
    from repro.carbon import act as act_module
    from repro.carbon.wafer import murphy_yield

    settings = _patch_local_settings(settings)
    scaled_density = base_density * multiplier

    def scaled_murphy(area_mm2, _density, _d=scaled_density):
        return murphy_yield(area_mm2, _d)

    original = act_module.DEFAULT_YIELD_MODEL
    act_module.DEFAULT_YIELD_MODEL = scaled_murphy
    try:
        return _ga_vs_exact(settings, network, node_nm, "taiwan", seed_offset)
    finally:
        act_module.DEFAULT_YIELD_MODEL = original


def _bandwidth_cell(
    settings: ExperimentSettings,
    network: str,
    node_nm: int,
    bandwidth: float,
    seed_offset: int,
) -> Tuple[float, float, float]:
    """One bandwidth-sweep cell: patches DRAM bandwidth around its own
    run and clears the performance cache on both sides, leaving the
    executing process (a reusable grid worker or the parent) clean."""
    settings = _patch_local_settings(settings)
    original = performance_module.DRAM_BANDWIDTH_GB_S
    performance_module.DRAM_BANDWIDTH_GB_S = bandwidth
    clear_performance_cache()
    try:
        return _ga_vs_exact(settings, network, node_nm, "taiwan", seed_offset)
    finally:
        performance_module.DRAM_BANDWIDTH_GB_S = original
        clear_performance_cache()


def grid_sensitivity(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    network: str = "vgg16",
    node_nm: int = 7,
    runner: Optional[GridRunner] = None,
) -> SensitivityResult:
    """GA-CDP saving across fab electricity grids."""
    settings.library()  # build before any pool forks, so workers inherit
    profiles = sorted(GRID_PROFILES.items())
    cells = [
        (settings, network, node_nm, name, 300 + index)
        for index, (name, _intensity) in enumerate(profiles)
    ]
    runner = runner if runner is not None else settings.grid_runner()
    results = runner.run(ExecutionPlan.for_cells(_ga_vs_exact, cells))

    rows = [
        (intensity, round(exact_g, 3), round(ga_g, 3), round(saving, 1))
        for (_name, intensity), (exact_g, ga_g, saving) in zip(profiles, results)
    ]
    rows.sort(key=lambda row: row[0])
    return SensitivityResult("grid_gCO2_per_kWh", tuple(rows))


def yield_sensitivity(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    network: str = "vgg16",
    node_nm: int = 7,
    defect_multipliers: Tuple[float, ...] = (0.5, 1.0, 2.0, 4.0),
    runner: Optional[GridRunner] = None,
) -> SensitivityResult:
    """GA-CDP saving as defect density scales around the node default.

    Implemented by swapping :data:`repro.carbon.act.DEFAULT_YIELD_MODEL`
    for a density-scaled Murphy model under try/finally — the node
    database itself stays immutable.  The swap lives inside each grid
    cell so sharded and serial execution patch identically.
    """
    from repro.carbon.nodes import technology_node

    settings = _reject_fitness_cache(settings, "yield_sensitivity")
    settings.library()  # build before any pool forks, so workers inherit
    base_density = technology_node(node_nm).defect_density_per_cm2
    cells = [
        (settings, network, node_nm, base_density, multiplier, 400 + index)
        for index, multiplier in enumerate(defect_multipliers)
    ]
    runner = runner if runner is not None else settings.grid_runner()
    results = _patch_safe_runner(runner, len(cells)).run(
        ExecutionPlan.for_cells(_yield_cell, cells)
    )

    rows = [
        (multiplier, round(exact_g, 3), round(ga_g, 3), round(saving, 1))
        for multiplier, (exact_g, ga_g, saving) in zip(
            defect_multipliers, results
        )
    ]
    return SensitivityResult("defect_density_multiplier", tuple(rows))


def bandwidth_sensitivity(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    network: str = "vgg16",
    node_nm: int = 7,
    bandwidths_gb_s: Tuple[float, ...] = (6.4, 12.8, 25.6, 51.2),
    runner: Optional[GridRunner] = None,
) -> SensitivityResult:
    """Exact-family FPS and GA saving across DRAM bandwidths."""
    if not bandwidths_gb_s:
        raise ExperimentError("need at least one bandwidth")
    settings = _reject_fitness_cache(settings, "bandwidth_sensitivity")
    settings.library()  # build before any pool forks, so workers inherit
    cells = [
        (settings, network, node_nm, bandwidth, 500 + index)
        for index, bandwidth in enumerate(bandwidths_gb_s)
    ]
    runner = runner if runner is not None else settings.grid_runner()
    results = _patch_safe_runner(runner, len(cells)).run(
        ExecutionPlan.for_cells(_bandwidth_cell, cells)
    )

    rows = [
        (bandwidth, round(exact_g, 3), round(ga_g, 3), round(saving, 1))
        for bandwidth, (exact_g, ga_g, saving) in zip(bandwidths_gb_s, results)
    ]
    return SensitivityResult("dram_bandwidth_GB_s", tuple(rows))


def network_fps_table(
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    node_nm: int = 7,
) -> Dict[str, Tuple[float, ...]]:
    """FPS of the exact NVDLA family per workload (context table)."""
    from repro.accel.nvdla import nvdla_family

    library = settings.library()
    result: Dict[str, Tuple[float, ...]] = {}
    for name in settings.networks:
        net = workload(name)
        result[name] = tuple(
            round(evaluate_network(net, config).fps, 1)
            for config in nvdla_family(library.exact, node_nm)
        )
    return result
