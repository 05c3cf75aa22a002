"""Single-objective GA with feasibility-first constraint handling.

Tournament selection compares individuals with Deb's rules (see
:meth:`repro.ga.fitness.FitnessResult.better_than`), crossover and
mutation delegate to the chromosome space, and the best-ever individual
is kept elitist.  Runs are deterministic in the seed.

Crash recovery lives in the fitness disk cache, not here: a killed run
rerun over the same ``cache_dir`` replays the same RNG draws and reads
every already-scored genome back from disk (see
:mod:`repro.engine.diskcache`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import OptimizationError
from repro.ga.chromosome import ChromosomeSpace, Genome
from repro.ga.fitness import FitnessResult


@dataclass(frozen=True)
class GaConfig:
    """GA hyper-parameters.

    Attributes:
        population_size: individuals per generation.
        generations: evolution steps.
        crossover_rate: probability of crossover per offspring.
        mutation_rate: per-gene mutation probability.
        tournament_size: contestants per selection tournament.
        seed: RNG seed.
    """

    population_size: int = 24
    generations: int = 30
    crossover_rate: float = 0.9
    mutation_rate: float = 0.25
    tournament_size: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 4:
            raise OptimizationError(
                f"population_size must be >= 4, got {self.population_size}"
            )
        if self.generations < 1:
            raise OptimizationError(
                f"generations must be >= 1, got {self.generations}"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise OptimizationError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise OptimizationError("mutation_rate must be in [0, 1]")
        if self.tournament_size < 2:
            raise OptimizationError("tournament_size must be >= 2")


@dataclass(frozen=True)
class GaOutcome:
    """Result of one GA run.

    Attributes:
        best: the best individual ever evaluated (elitist).
        history: best-so-far after every generation (for convergence
            plots and the search-quality ablation).
        evaluations: distinct fitness evaluations performed.
    """

    best: FitnessResult
    history: Tuple[FitnessResult, ...]
    evaluations: int

    @property
    def converged_generation(self) -> int:
        """First generation whose best equals the final best."""
        for index, record in enumerate(self.history):
            if record.cdp == self.best.cdp and record.feasible == self.best.feasible:
                return index
        return len(self.history) - 1


class GeneticAlgorithm:
    """GA driver over a chromosome space and a fitness evaluator.

    Args:
        space: gene encoding.
        evaluate: genome -> :class:`FitnessResult` (memoisation is the
            evaluator's job).
        config: hyper-parameters.
        seeds: known-good genomes to seed the initial population.
        population_evaluate: optional whole-generation evaluator (see
            :class:`repro.engine.population.PopulationEvaluator` and
            :meth:`repro.ga.fitness.FitnessEvaluator.evaluate_population`);
            must return results bit-identical to mapping ``evaluate``
            over the generation.  Defaults to the serial reference path.
    """

    def __init__(
        self,
        space: ChromosomeSpace,
        evaluate: Callable[[Genome], FitnessResult],
        config: GaConfig | None = None,
        seeds: List[Genome] | None = None,
        population_evaluate: Optional[
            Callable[[Sequence[Genome]], List[FitnessResult]]
        ] = None,
    ):
        self.space = space
        self.evaluate = evaluate
        self.config = config or GaConfig()
        self.seeds = list(seeds or [])
        self.population_evaluate = population_evaluate
        for genome in self.seeds:
            space.validate(genome)

    def _evaluate_population(
        self, population: Sequence[Genome]
    ) -> List[FitnessResult]:
        if self.population_evaluate is not None:
            return list(self.population_evaluate(population))
        return [self.evaluate(g) for g in population]  # serial reference

    def run(self) -> GaOutcome:
        """Evolve and return the best design found."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        population = list(self.seeds[: cfg.population_size])
        population += [
            self.space.random_genome(rng)
            for _ in range(cfg.population_size - len(population))
        ]
        results = self._evaluate_population(population)
        best = self._best_of(results)
        history: List[FitnessResult] = []
        distinct = set(population)

        for _ in range(cfg.generations):
            offspring: List[Genome] = [best.genome]  # elitism
            while len(offspring) < cfg.population_size:
                mother = self._tournament(population, results, rng)
                if rng.random() < cfg.crossover_rate:
                    father = self._tournament(population, results, rng)
                    child = self.space.crossover(mother, father, rng)
                else:
                    child = mother
                child = self.space.mutate(child, rng, cfg.mutation_rate)
                offspring.append(child)

            population = offspring
            results = self._evaluate_population(population)
            distinct.update(population)
            generation_best = self._best_of(results)
            if generation_best.better_than(best):
                best = generation_best
            history.append(best)

        return GaOutcome(
            best=best,
            history=tuple(history),
            evaluations=len(distinct),
        )

    def _tournament(
        self,
        population: List[Genome],
        results: List[FitnessResult],
        rng: np.random.Generator,
    ) -> Genome:
        indices = rng.integers(0, len(population), size=self.config.tournament_size)
        winner = int(indices[0])
        for i in indices[1:]:
            if results[int(i)].better_than(results[winner]):
                winner = int(i)
        return population[winner]

    @staticmethod
    def _best_of(results: List[FitnessResult]) -> FitnessResult:
        best = results[0]
        for record in results[1:]:
            if record.better_than(best):
                best = record
        return best
