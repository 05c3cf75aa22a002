"""NSGA-II multi-objective optimiser.

A compact, deterministic implementation of Deb's NSGA-II used to explore
the (area, error) space of pruned multipliers.  The implementation is
generic over genomes: callers supply ``evaluate``, ``random_genome``,
``mutate`` and ``crossover`` callables, so the same engine also serves
the ablation benchmarks.

The module-level helpers (:func:`dominates`,
:func:`fast_non_dominated_sort`, :func:`crowding_distance`,
:func:`pareto_front`) are the pure-Python *reference* implementations;
the optimiser itself runs on the numpy-vectorized equivalents in
:mod:`repro.engine.vectorized`, which the property tests hold to exact
agreement with the reference.

All objectives are minimised.  A run keeps no state outside its
process: a killed search is recovered by rerunning it, which replays
the same RNG draws, over whatever objective disk cache the caller
keeps (the step-1 library's, see
:func:`repro.approx.library.build_library`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.population import EngineConfig, PopulationEvaluator
from repro.engine.vectorized import (
    crowding_distance_np,
    fast_non_dominated_sort_np,
    pareto_front_np,
    ranks_and_crowding,
    uniform_crossover,
)
from repro.errors import OptimizationError

Genome = Tuple[int, ...]
Objectives = Tuple[float, ...]


@dataclass(frozen=True)
class Nsga2Config:
    """NSGA-II hyper-parameters.

    Attributes:
        population_size: individuals per generation (even, >= 4).
        generations: number of evolution steps.
        crossover_rate: probability of uniform crossover per pair.
        mutation_rate: per-gene flip probability (defaults to 1/length
            when None).
        seed: RNG seed; identical seeds give identical runs.
    """

    population_size: int = 32
    generations: int = 24
    crossover_rate: float = 0.9
    mutation_rate: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 4 or self.population_size % 2:
            raise OptimizationError(
                f"population_size must be even and >= 4, got {self.population_size}"
            )
        if self.generations < 1:
            raise OptimizationError(
                f"generations must be >= 1, got {self.generations}"
            )
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise OptimizationError(
                f"crossover_rate must be in [0, 1], got {self.crossover_rate}"
            )


def dominates(a: Objectives, b: Objectives) -> bool:
    """True if ``a`` Pareto-dominates ``b`` (minimisation)."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def fast_non_dominated_sort(objectives: Sequence[Objectives]) -> List[List[int]]:
    """Partition indices into Pareto fronts (front 0 = non-dominated)."""
    n = len(objectives)
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: List[List[int]] = [[]]

    for i in range(n):
        for j in range(i + 1, n):
            if dominates(objectives[i], objectives[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(objectives[j], objectives[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    for i in range(n):
        if domination_count[i] == 0:
            fronts[0].append(i)

    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        current += 1
        fronts.append(next_front)
    fronts.pop()  # last front is always empty
    return fronts


def crowding_distance(objectives: Sequence[Objectives], front: Sequence[int]) -> Dict[int, float]:
    """Crowding distance of each index within one front."""
    distance = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: float("inf") for i in front}
    n_objectives = len(objectives[front[0]])
    for m in range(n_objectives):
        ordered = sorted(front, key=lambda i, m=m: objectives[i][m])
        lo = objectives[ordered[0]][m]
        hi = objectives[ordered[-1]][m]
        distance[ordered[0]] = float("inf")
        distance[ordered[-1]] = float("inf")
        if hi == lo:
            continue
        for k in range(1, len(ordered) - 1):
            gap = objectives[ordered[k + 1]][m] - objectives[ordered[k - 1]][m]
            distance[ordered[k]] += gap / (hi - lo)
    return distance


def pareto_front(points: Sequence[Tuple[Hashable, Objectives]]) -> List[Tuple[Hashable, Objectives]]:
    """Filter (item, objectives) pairs down to the non-dominated set.

    Ties (identical objective vectors) keep the first occurrence only.
    """
    result: List[Tuple[Hashable, Objectives]] = []
    seen: set = set()
    for item, obj in points:
        if obj in seen:
            continue
        if any(dominates(other, obj) for _, other in points):
            continue
        seen.add(obj)
        result.append((item, obj))
    return result


class Nsga2:
    """Generic NSGA-II driver.

    Args:
        evaluate: genome -> objective tuple (minimised). Results are
            memoised by genome, so re-visited genomes cost nothing.
        random_genome: rng -> fresh random genome.
        config: hyper-parameters.
        mutate: optional custom mutation (default: per-gene bit flip).
        crossover: optional custom crossover (default: uniform).
        engine: population-evaluation policy; defaults to the serial
            reference path.  Thread/process fan-out changes when cache
            misses are computed, never the returned front.
        batch_evaluate: optional genomes -> objectives fast path (e.g.
            the population-batched pruning evaluator).  Must return
            objectives bit-identical to mapping ``evaluate``; selected
            by engine modes ``batch`` and ``auto``.
    """

    def __init__(
        self,
        evaluate: Callable[[Genome], Objectives],
        random_genome: Callable[[np.random.Generator], Genome],
        config: Nsga2Config | None = None,
        mutate: Callable[[Genome, np.random.Generator], Genome] | None = None,
        crossover: Callable[[Genome, Genome, np.random.Generator], Genome] | None = None,
        engine: Optional[EngineConfig] = None,
        batch_evaluate: Optional[
            Callable[[Sequence[Genome]], Sequence[Objectives]]
        ] = None,
    ):
        self.config = config or Nsga2Config()
        self._evaluate_fn = evaluate
        self._random_genome = random_genome
        self._mutate_fn = mutate or self._default_mutate
        self._crossover_fn = crossover or self._default_crossover
        self._cache: Dict[Genome, Objectives] = {}
        self._batch_fn = batch_evaluate
        self._population_evaluator = PopulationEvaluator(
            self._evaluate,
            batch_evaluate=(
                None if batch_evaluate is None else self._batch_evaluate
            ),
            config=engine or EngineConfig(mode="serial"),
            store=self._record_external,
        )

    @property
    def evaluations(self) -> int:
        """Distinct genomes scored (derived, so thread-mode safe)."""
        return len(self._cache)

    # -- operators -----------------------------------------------------

    def _default_mutate(self, genome: Genome, rng: np.random.Generator) -> Genome:
        """Per-gene bit flip, vectorized (one RNG draw, as before)."""
        rate = self.config.mutation_rate
        if rate is None:
            rate = 1.0 / max(len(genome), 1)
        flips = rng.random(len(genome)) < rate
        genes = np.asarray(genome, dtype=np.int64)
        return tuple(int(g) for g in np.where(flips, 1 - genes, genes))

    @staticmethod
    def _default_crossover(
        a: Genome, b: Genome, rng: np.random.Generator
    ) -> Genome:
        """Uniform crossover (one RNG draw, as before)."""
        return uniform_crossover(a, b, rng)

    def _evaluate(self, genome: Genome) -> Objectives:
        cached = self._cache.get(genome)
        if cached is not None:
            return cached
        objectives = tuple(float(v) for v in self._evaluate_fn(genome))
        self._cache[genome] = objectives
        return objectives

    def _batch_evaluate(self, genomes: Sequence[Genome]) -> List[Objectives]:
        """Coerce the batch fast path exactly like :meth:`_evaluate`."""
        assert self._batch_fn is not None
        return [
            tuple(float(v) for v in objectives)
            for objectives in self._batch_fn(genomes)
        ]

    def _record_external(self, genome: Genome, objectives: Objectives) -> None:
        """Backfill the memo for results computed out-of-process."""
        self._cache.setdefault(genome, objectives)

    # -- main loop -------------------------------------------------------

    def run(self) -> List[Tuple[Genome, Objectives]]:
        """Evolve and return the final non-dominated set (sorted)."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        population = [
            self._random_genome(rng) for _ in range(cfg.population_size)
        ]
        scores = self._population_evaluator(population)

        for _ in range(cfg.generations):
            offspring = self._make_offspring(population, scores, rng)
            combined = population + offspring
            combined_scores = scores + self._population_evaluator(offspring)
            population, scores = self._select_survivors(
                combined, combined_scores, cfg.population_size
            )

        front = pareto_front_np(list(zip(population, scores)))
        front.sort(key=lambda item: item[1])
        return [(g, obj) for g, obj in front]  # type: ignore[misc]

    def _make_offspring(
        self,
        population: List[Genome],
        scores: List[Objectives],
        rng: np.random.Generator,
    ) -> List[Genome]:
        _, rank, crowd = ranks_and_crowding(scores)

        def tournament() -> Genome:
            i, j = rng.integers(0, len(population), size=2)
            if rank[i] != rank[j]:
                return population[i if rank[i] < rank[j] else j]
            return population[i if crowd[i] >= crowd[j] else j]

        offspring: List[Genome] = []
        while len(offspring) < len(population):
            mother, father = tournament(), tournament()
            if rng.random() < self.config.crossover_rate:
                child = self._crossover_fn(mother, father, rng)
            else:
                child = mother
            offspring.append(self._mutate_fn(child, rng))
        return offspring

    @staticmethod
    def _select_survivors(
        population: List[Genome],
        scores: List[Objectives],
        capacity: int,
    ) -> Tuple[List[Genome], List[Objectives]]:
        fronts = fast_non_dominated_sort_np(scores)
        chosen: List[int] = []
        for front in fronts:
            if len(chosen) + len(front) <= capacity:
                chosen.extend(front)
                continue
            crowd = crowding_distance_np(scores, front)
            ordered = sorted(front, key=lambda i: crowd[i], reverse=True)
            chosen.extend(ordered[: capacity - len(chosen)])
            break
        return [population[i] for i in chosen], [scores[i] for i in chosen]
