"""Shared experiment configuration and caches.

Every experiment harness takes an :class:`ExperimentSettings`; the
default reproduces the paper's setup, while :func:`fast_settings`
shrinks the searches for unit tests and CI smoke runs.  The settings
also carry the execution policy: the population engine for individual
GA runs (``engine_mode``), the on-disk fitness cache (``cache_dir``),
and the grid-dispatch policy (``grid_mode``/``grid_workers``/
``grid_shards``) used by :class:`~repro.engine.grid.GridRunner` to fan
experiment cells out over the configured execution backend — serial, a
thread pool, or the persistent local process pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.accuracy.behavioral import BehavioralValidator
from repro.accuracy.predictor import AccuracyPredictor
from repro.approx.library import ApproxLibrary, build_library
from repro.core.designer import CarbonAwareDesigner
from repro.core.results import DesignPoint
from repro.engine.diskcache import context_fingerprint
from repro.engine.grid import GridConfig, GridRunner
from repro.engine.population import EngineConfig
from repro.errors import ExperimentError
from repro.ga.engine import GaConfig
from repro.nn.inference import resolve_stack_workers
from repro.nn.synthetic import SyntheticTask


#: Trajectory declaration for :class:`ExperimentSettings` (see the
#: FPR001 rule in :mod:`repro.analysis`).  These are the knobs that
#: shape *what* the searches compute; everything else is execution
#: policy (bit-identical results by the engine contract) or a
#: per-cell grid axis keyed into fingerprints individually by the
#: harnesses.
SETTINGS_TRAJECTORY_FIELDS = (
    "library_population",
    "library_generations",
    "ga_population",
    "ga_generations",
    "seed",
    "grid",
)


@dataclass(frozen=True)
class ExperimentSettings:  # repro: fingerprinted[SETTINGS_TRAJECTORY_FIELDS]
    """Knobs shared by all experiment harnesses.

    The trajectory-determining subset is declared in
    ``SETTINGS_TRAJECTORY_FIELDS`` and digested by
    :meth:`trajectory_fingerprint`; every other field is annotated
    non-trajectory in place (the ``repro.analysis`` FPR001 rule keeps
    the split complete as fields come and go).

    Attributes:
        nodes_nm: technology nodes to evaluate.
        networks: workload names.
        fps_thresholds: performance constraints (Fig. 2's 30/40/50).
        drop_tiers_percent: accuracy-drop tiers (0.5/1/2).
        library_population: NSGA-II population for the multiplier
            library.
        library_generations: NSGA-II generations.
        ga_population: architecture-GA population.
        ga_generations: architecture-GA generations.
        seed: master seed for both searches.
        grid: fab grid profile.
        engine_mode: population-evaluation mode for the GA runs
            (``auto`` resolves to the vectorized batch path; every mode
            returns bit-identical designs).
        cache_dir: optional directory for the on-disk fitness cache, so
            re-running a harness (or another harness sharing settings)
            warm-starts instead of re-simulating.  Also feeds the step-1
            library build, whose NSGA-II objectives persist per context.
            This is the crash-recovery path: rerun a killed harness
            with the same ``cache_dir`` and it recomputes only the
            search that was in flight, with byte-identical output.
        grid_mode: execution backend for the experiment grids
            (``auto`` / ``serial`` / ``thread`` / ``process``; every
            backend returns identical, identically ordered results).
        grid_workers: worker count for the sharded grid modes.
        grid_shards: shard count override (default: one per worker).
        stack_workers: thread-tiling knob for the stacked LUT inference
            (``"auto"`` / positive int / ``None`` for the process
            default); every value returns bit-identical drops.
        kernel_tier: compiled-kernel tier for the batched hot loops
            (``auto`` / ``numpy`` / ``c`` / ``None`` for the ambient
            ``REPRO_KERNEL_TIER`` default; see
            :mod:`repro.engine.kernels`).  Every tier returns
            bit-identical results; an unavailable tier degrades to
            numpy with a warning, so it is not part of any cache key.
        accuracy_mode: execution backend for the behavioural accuracy
            stage (``auto`` / ``serial`` / ``thread`` / ``process``) —
            library scoring shards multiplier sub-stacks across it,
            bit-identical to serial in every mode.
        accuracy_workers: worker count for the sharded accuracy modes.
        accuracy_shards: sub-stack count override for the accuracy
            stage (default: one per worker).
    """

    # repro: non-trajectory[grid axis: harnesses key fingerprints per cell]
    nodes_nm: Tuple[int, ...] = (7, 14, 28)
    # repro: non-trajectory[grid axis: harnesses key fingerprints per cell]
    networks: Tuple[str, ...] = ("vgg16", "vgg19", "resnet50", "resnet152")
    # repro: non-trajectory[grid axis: harnesses key fingerprints per cell]
    fps_thresholds: Tuple[float, ...] = (30.0, 40.0, 50.0)
    # repro: non-trajectory[grid axis: harnesses key fingerprints per cell]
    drop_tiers_percent: Tuple[float, ...] = (0.5, 1.0, 2.0)
    library_population: int = 40
    library_generations: int = 36
    ga_population: int = 24
    ga_generations: int = 30
    seed: int = 0
    grid: str = "taiwan"
    # repro: non-trajectory[execution policy: every mode is bit-identical]
    engine_mode: str = "auto"
    # repro: non-trajectory[cache location: warm-start only, results equal]
    cache_dir: Optional[str] = None
    # repro: non-trajectory[execution policy: every backend bit-identical]
    grid_mode: str = "auto"
    # repro: non-trajectory[execution policy: every backend bit-identical]
    grid_workers: Optional[int] = None
    # repro: non-trajectory[execution policy: every backend bit-identical]
    grid_shards: Optional[int] = None
    # repro: non-trajectory[execution policy: tiling is bit-identical]
    stack_workers: Optional[Union[int, str]] = None
    # repro: non-trajectory[kernel tiers are bit-identical by contract]
    kernel_tier: Optional[str] = None
    # repro: non-trajectory[execution policy: every backend bit-identical]
    accuracy_mode: str = "auto"
    # repro: non-trajectory[execution policy: every backend bit-identical]
    accuracy_workers: Optional[int] = None
    # repro: non-trajectory[execution policy: every backend bit-identical]
    accuracy_shards: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.nodes_nm or not self.networks:
            raise ExperimentError("settings need at least one node and network")
        if not self.fps_thresholds or not self.drop_tiers_percent:
            raise ExperimentError("settings need thresholds and tiers")
        if self.stack_workers is not None:
            resolve_stack_workers(self.stack_workers)  # fail fast on typos
        from repro.engine.kernels import validate_kernel_tier

        validate_kernel_tier(self.kernel_tier)  # fail fast on typos

    def trajectory_fingerprint(self) -> str:
        """Digest of every trajectory-determining setting.

        Built from exactly the ``(name, value)`` pairs of
        ``SETTINGS_TRAJECTORY_FIELDS``, so two settings objects share a
        fingerprint iff they run the same searches — execution policy
        (backends, workers, kernel tiers, the cache location) never
        perturbs it, and renaming a declared field changes it.  This is
        the stable job key for a run's provenance manifest.
        """
        return context_fingerprint(
            "experiment-settings",
            tuple(
                (name, getattr(self, name))
                for name in SETTINGS_TRAJECTORY_FIELDS
            ),
        )

    def library(self) -> ApproxLibrary:
        """The (cached) step-1 multiplier library for these settings.

        Routed through the population engine and the on-disk objective
        cache, so the NSGA-II library search benefits from the same
        execution policy as the architecture GA.
        """
        return build_library(
            population=self.library_population,
            generations=self.library_generations,
            seed=self.seed,
            engine=self.engine(),
            cache_dir=self.cache_dir,
        )

    def ga_config(self, seed_offset: int = 0) -> GaConfig:
        """Architecture-GA configuration (offset decorrelates runs)."""
        return GaConfig(
            population_size=self.ga_population,
            generations=self.ga_generations,
            seed=self.seed + seed_offset,
        )

    def engine(self) -> EngineConfig:
        """Population-evaluation policy for the GA runs."""
        return EngineConfig(mode=self.engine_mode, kernel_tier=self.kernel_tier)

    def designer_kwargs(self) -> dict:
        """Engine/cache kwargs shared by every GA-CDP run."""
        return {"engine": self.engine(), "cache_dir": self.cache_dir}

    def grid_runner(self) -> GridRunner:
        """Cell-dispatch policy for the experiment grids."""
        return GridRunner(
            GridConfig(
                mode=self.grid_mode,
                workers=self.grid_workers,
                shards=self.grid_shards,
            )
        )

    def accuracy_runner(self) -> GridRunner:
        """Sub-stack dispatch policy for the behavioural accuracy stage."""
        return GridRunner(
            GridConfig(
                mode=self.accuracy_mode,
                workers=self.accuracy_workers,
                shards=self.accuracy_shards,
            )
        )

    def validator(
        self, task: Optional[SyntheticTask] = None
    ) -> BehavioralValidator:
        """A behavioural validator wired to these settings' execution policy.

        The returned validator tiles the stacked inference across
        ``stack_workers`` threads and shards library-wide queries over
        the ``accuracy_mode`` backend; drops are bit-identical to the
        plain in-process validator for every configuration.
        """
        return BehavioralValidator(
            task=task,
            stack_workers=self.stack_workers,
            kernel_tier=self.kernel_tier,
            runner=self.accuracy_runner(),
        )


DEFAULT_SETTINGS = ExperimentSettings()

#: One predictor shared process-wide so accuracy lookups stay memoised.
_SHARED_PREDICTOR = AccuracyPredictor()


def shared_predictor() -> AccuracyPredictor:
    """Process-wide accuracy predictor (cache reuse across harnesses)."""
    return _SHARED_PREDICTOR


def fast_settings(seed: int = 0) -> ExperimentSettings:
    """Reduced settings for tests: small searches, two workloads."""
    return ExperimentSettings(
        nodes_nm=(7, 14),
        networks=("vgg16", "resnet50"),
        fps_thresholds=(30.0,),
        drop_tiers_percent=(1.0, 2.0),
        library_population=12,
        library_generations=5,
        ga_population=12,
        ga_generations=8,
        seed=seed,
    )


def ga_cdp_point(
    settings: ExperimentSettings,
    network: str,
    node_nm: int,
    min_fps: float,
    max_drop_percent: float,
    seed_offset: int,
    grid: Union[str, float],
) -> DesignPoint:
    """One GA-CDP grid cell: the winning design for one constraint set.

    Module-level (and argument-closed) so :class:`GridRunner` process
    shards can pickle it; the library and predictor come from the
    process-wide memo caches, which forked workers inherit warm.
    """
    designer = CarbonAwareDesigner(
        network=network,
        node_nm=node_nm,
        min_fps=min_fps,
        max_drop_percent=max_drop_percent,
        library=settings.library(),
        predictor=shared_predictor(),
        ga_config=settings.ga_config(seed_offset=seed_offset),
        grid=grid,
        **settings.designer_kwargs(),
    )
    return designer.run().best
