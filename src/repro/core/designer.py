"""The paper's end-to-end methodology: GA-CDP design.

:class:`CarbonAwareDesigner` wires the two steps together:

1. build (or accept) the approximate-multiplier Pareto library;
2. run the genetic algorithm over architectures x multipliers with CDP
   fitness under FPS and accuracy constraints.

A designer instance is specific to one (network, node, thresholds)
setting — exactly one point of Fig. 2/Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.accuracy.predictor import AccuracyPredictor
from repro.approx.library import ApproxLibrary, build_library
from repro.core.baselines import design_point_for
from repro.core.results import DesignPoint
from repro.dataflow.network import Network
from repro.engine.population import EngineConfig, PopulationEvaluator
from repro.errors import OptimizationError
from repro.ga.chromosome import space_for_library
from repro.ga.engine import GaConfig, GaOutcome, GeneticAlgorithm
from repro.ga.fitness import FitnessEvaluator
from repro.nn.zoo import workload


@dataclass(frozen=True)
class DesignerResult:
    """Outcome of one GA-CDP run.

    Attributes:
        best: the winning design, fully evaluated.
        outcome: raw GA trajectory (history, evaluation count).
    """

    best: DesignPoint
    outcome: GaOutcome

    @property
    def feasible(self) -> bool:
        return self.outcome.best.feasible


@dataclass
class CarbonAwareDesigner:
    """GA-CDP designer for one design problem.

    Attributes:
        network: workload name or object.
        node_nm: technology node (7/14/28).
        min_fps: performance threshold (paper: 30/40/50).
        max_drop_percent: accuracy-drop threshold (paper: 0.5/1/2).
        library: step-1 multiplier library (built with defaults when
            omitted).
        predictor: accuracy oracle (shared for cache reuse).
        ga_config: GA hyper-parameters.
        grid: fab grid profile for Eq. 2.
        fitness_mode: ``deadline_cdp`` (paper behaviour) or ``pure_cdp``
            (see :mod:`repro.ga.fitness`).
        engine: population-evaluation policy (see
            :mod:`repro.engine.population`).  The default ``auto``
            resolves to the vectorized batch path; every mode returns
            bit-identical designs to the serial reference.
        cache_dir: optional directory for the on-disk fitness cache, so
            repeated runs of the same design problem warm-start.  The
            cache is flushed once per run, so rerunning a killed
            harness over the same directory recovers every finished
            design problem from disk, with bit-identical results.
    """

    network: Union[str, Network]
    node_nm: int
    min_fps: float
    max_drop_percent: float
    library: Optional[ApproxLibrary] = None
    predictor: AccuracyPredictor = field(default_factory=AccuracyPredictor)
    ga_config: GaConfig = field(default_factory=GaConfig)
    grid: Union[str, float] = "taiwan"
    fitness_mode: str = "deadline_cdp"
    engine: Optional[EngineConfig] = None
    cache_dir: Optional[str] = None

    def _baseline_seeds(self, library: ApproxLibrary, space) -> list:
        """NVDLA-family geometries as GA seeds.

        Seeding the population with the baseline family (exact and, if
        the tier allows, the smallest feasible approximate multiplier)
        guarantees the GA never returns a design worse than the
        baselines it is compared against, and speeds convergence —
        standard practice for DSE over a known family.
        """
        from repro.accel.nvdla import NVDLA_MAC_COUNTS, nvdla_buffer_bytes, nvdla_dimensions
        from repro.errors import AccuracyModelError

        def index_of(entry) -> int:
            # identity search: dataclass __eq__ would compare ndarrays
            for position, candidate in enumerate(library.multipliers):
                if candidate is entry:
                    return position
            raise OptimizationError(f"multiplier {entry.name!r} not in library")

        multiplier_indices = {index_of(library.exact)}
        try:
            feasible = self.predictor.smallest_feasible(
                self.network, library, self.max_drop_percent
            )
            multiplier_indices.add(index_of(feasible))
        except AccuracyModelError:
            pass

        seeds = []
        for macs in NVDLA_MAC_COUNTS:
            rows, cols = nvdla_dimensions(macs)
            local_bytes, global_bytes = nvdla_buffer_bytes(macs)
            for index in sorted(multiplier_indices):
                seeds.append(
                    space.encode_nearest(
                        rows, cols, local_bytes, global_bytes, index
                    )
                )
        return seeds

    def run(self) -> DesignerResult:
        """Execute step 2 (GA-CDP) and return the winning design.

        Raises:
            OptimizationError: if the GA cannot find any feasible design
                (thresholds unsatisfiable in the search space).
        """
        library = self.library if self.library is not None else build_library()
        net = (
            workload(self.network)
            if isinstance(self.network, str)
            else self.network
        )
        space = space_for_library(library)
        evaluator = FitnessEvaluator(
            network=net,
            library=library,
            space=space,
            node_nm=self.node_nm,
            min_fps=self.min_fps,
            max_drop_percent=self.max_drop_percent,
            predictor=self.predictor,
            grid=self.grid,
            fitness_mode=self.fitness_mode,
            cache_dir=self.cache_dir,
        )
        population_evaluate = PopulationEvaluator(
            evaluator.evaluate,
            batch_evaluate=evaluator.evaluate_population,
            config=self.engine or EngineConfig(),
            # process mode computes in children; backfill the parent's
            # memo/disk caches so flush_cache() still persists results
            store=evaluator.store,
        )
        ga = GeneticAlgorithm(
            space,
            evaluator.evaluate,
            self.ga_config,
            seeds=self._baseline_seeds(library, space),
            population_evaluate=population_evaluate,
        )
        outcome = ga.run()
        evaluator.flush_cache()

        if not outcome.best.feasible:
            raise OptimizationError(
                f"GA found no design meeting {self.min_fps} FPS and "
                f"{self.max_drop_percent}% drop on {net.name} at "
                f"{self.node_nm} nm (best violation: "
                f"{outcome.best.violation:.3f})"
            )

        config = space.decode(outcome.best.genome, library, self.node_nm)
        best = design_point_for(
            config, net, "ga_cdp", self.predictor, grid=self.grid
        )
        return DesignerResult(best=best, outcome=outcome)
