"""Generation-at-a-time evaluation with dedup, memo, and fan-out.

:class:`PopulationEvaluator` is the single entry point both searches
(GA and NSGA-II) use to score a population.  It always performs the
same work in the same order as the serial reference path — evaluation
is a pure function of the genome — so every execution mode returns
identical results:

* ``serial`` — the reference: one genome at a time, in order;
* ``batch``  — delegate the generation's cache misses to a vectorized
  ``batch_evaluate`` callable (see
  :meth:`repro.ga.fitness.FitnessEvaluator.evaluate_population` and
  :class:`repro.approx.pruning.BatchedPruningObjectives`);
* ``thread`` / ``process`` — fan the cache misses out over the
  matching :mod:`repro.engine.backends` executor; ``map_shards``
  returns results in shard order, so completion order cannot leak into
  the outcome;
* ``auto``   — ``batch`` when a batch callable exists, else ``thread``
  when the machine has more than one CPU, else ``serial``.

Genomes are deduplicated against an internal memo cache before any
dispatch, so a converged population (mostly repeated elites) costs only
the genuinely new evaluations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.backends import ProcessBackend, ThreadBackend
from repro.errors import OptimizationError

Genome = Tuple[int, ...]

_MODES = ("auto", "serial", "batch", "thread", "process")


@dataclass(frozen=True)
class EngineConfig:
    """Execution policy for population evaluation.

    Attributes:
        mode: ``auto`` / ``serial`` / ``batch`` / ``thread`` /
            ``process``.
        workers: pool size for the parallel modes (default: CPU count).
        chunk_size: genomes per task in ``process`` mode (amortises IPC).
        kernel_tier: compiled-kernel tier for the batched hot loops
            (see :mod:`repro.engine.kernels`): ``None`` defers to
            ``REPRO_KERNEL_TIER`` / ``auto``; an unavailable tier
            degrades to numpy with a warning.  Every tier returns
            bit-identical results.
    """

    mode: str = "auto"
    workers: Optional[int] = None
    chunk_size: int = 8
    kernel_tier: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise OptimizationError(
                f"unknown engine mode {self.mode!r}; expected one of {_MODES}"
            )
        if self.workers is not None and self.workers < 1:
            raise OptimizationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.chunk_size < 1:
            raise OptimizationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        from repro.engine.kernels import validate_kernel_tier

        validate_kernel_tier(self.kernel_tier)

    def resolved_workers(self) -> int:
        return self.workers if self.workers is not None else (os.cpu_count() or 1)


class PopulationEvaluator:
    """Memoised, order-preserving population evaluation.

    Args:
        evaluate: genome -> result (pure; must be picklable for
            ``process`` mode).
        batch_evaluate: optional population -> results fast path; must
            return results bit-identical to mapping ``evaluate``.
        config: execution policy.
        store: optional parent-side backfill hook, called as
            ``store(genome, result)`` for every miss computed outside
            ``evaluate`` itself — in a worker *process*, or by the
            ``batch`` fast path — the modes where ``evaluate``'s own
            side effects (memo dicts, disk caches, counters) would
            otherwise be lost.

    Determinism: for a fixed genome sequence the returned list is
    identical in every mode — parallelism only changes *when* a miss is
    computed, never *what* is returned or in which slot.
    """

    def __init__(
        self,
        evaluate: Callable[[Genome], Any],
        batch_evaluate: Optional[Callable[[Sequence[Genome]], List[Any]]] = None,
        config: Optional[EngineConfig] = None,
        store: Optional[Callable[[Genome, Any], None]] = None,
    ):
        self.evaluate = evaluate
        self.batch_evaluate = batch_evaluate
        self.config = config or EngineConfig()
        self.store = store
        self._memo: Dict[Genome, Any] = {}
        if self.config.mode == "batch" and batch_evaluate is None:
            raise OptimizationError(
                "mode 'batch' requires a batch_evaluate callable"
            )

    @property
    def evaluations(self) -> int:
        """Distinct genomes this evaluator has scored itself."""
        return len(self._memo)

    def resolved_mode(self) -> str:
        mode = self.config.mode
        if mode != "auto":
            return mode
        if self.batch_evaluate is not None:
            return "batch"
        if self.config.resolved_workers() > 1:
            return "thread"
        return "serial"

    def __call__(self, genomes: Sequence[Genome]) -> List[Any]:
        mode = self.resolved_mode()
        misses = [g for g in dict.fromkeys(genomes) if g not in self._memo]
        if misses:
            if mode == "batch":
                assert self.batch_evaluate is not None
                results = list(self.batch_evaluate(misses))
                if len(results) != len(misses):
                    raise OptimizationError(
                        f"batch_evaluate returned {len(results)} results "
                        f"for {len(misses)} genomes"
                    )
                # callables that already persist their own misses (e.g.
                # FitnessEvaluator.evaluate_population) opt out of the
                # backfill by marking themselves self_storing
                if self.store is not None and not getattr(
                    self.batch_evaluate, "self_storing", False
                ):
                    for genome, result in zip(misses, results):
                        self.store(genome, result)
            elif mode == "serial" or len(misses) == 1:
                results = [self.evaluate(g) for g in misses]
            elif mode == "thread":
                backend = ThreadBackend(self.config.resolved_workers())
                shard_results = backend.map_shards(
                    self.evaluate, [[(genome,)] for genome in misses]
                )
                results = [shard[0] for shard in shard_results]
            else:  # process: warm shared pool, chunked dispatch
                results = self._process_map(misses)
                if self.store is not None:
                    for genome, result in zip(misses, results):
                        self.store(genome, result)
            for genome, result in zip(misses, results):
                self._memo[genome] = result
        return [self._memo[g] for g in genomes]

    def _process_map(self, misses: List[Genome]) -> List[Any]:
        """Fan misses out over the persistent shared process pool.

        Chunks are reassembled in submission order, so completion order
        cannot leak into the outcome; :class:`ProcessBackend` degrades
        to the serial reference inside a pool worker (no nested pools)
        and on a broken pool (same results, just slower).

        Caveat: ``evaluate`` must be a pure function of the genome and
        module state as importable in a worker.  Callers that
        monkeypatch module globals (the yield/bandwidth sensitivity
        sweeps) must not use process mode — warm workers either miss
        the patch or outlive it; those harnesses demote themselves to
        thread mode (see ``experiments/sensitivity.py``).
        """
        # keyed by the configured count so every run shares one pool
        workers = self.config.resolved_workers()
        # chunk_size is a *minimum* granularity: never split into more
        # chunks than workers, so the (potentially megabytes-large)
        # evaluate callable is pickled at most once per worker per
        # generation rather than once per chunk_size genomes
        chunk = max(self.config.chunk_size, -(-len(misses) // workers))
        shards = [
            [(genome,) for genome in misses[start : start + chunk]]
            for start in range(0, len(misses), chunk)
        ]
        shard_results = ProcessBackend(workers).map_shards(self.evaluate, shards)
        return [result for shard in shard_results for result in shard]
