"""Determinism and caching tests for the population engine.

The core guarantee: serial, batch, thread, and process execution of the
same seeded search return *identical* outcomes — parallelism changes
when a genome is scored, never what is returned.
"""

import numpy as np
import pytest

from repro.approx.library import build_library
from repro.approx.nsga2 import Nsga2, Nsga2Config
from repro.engine.diskcache import FitnessDiskCache, context_fingerprint
from repro.engine.population import EngineConfig, PopulationEvaluator
from repro.errors import OptimizationError
from repro.ga.chromosome import space_for_library
from repro.ga.engine import GaConfig, GeneticAlgorithm
from repro.ga.fitness import FitnessEvaluator


@pytest.fixture(scope="module")
def library():
    return build_library(
        width=8, seed=0, population=10, generations=3,
        hybrid=False, structural=False,
    )


@pytest.fixture(scope="module")
def space(library):
    return space_for_library(library)


def make_evaluator(library, space, cache_dir=None):
    return FitnessEvaluator(
        network="vgg16",
        library=library,
        space=space,
        node_nm=7,
        min_fps=40.0,
        max_drop_percent=1.0,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
    )


class TestEngineConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(OptimizationError, match="mode"):
            EngineConfig(mode="gpu")

    def test_bad_workers_rejected(self):
        with pytest.raises(OptimizationError, match="workers"):
            EngineConfig(workers=0)

    def test_auto_prefers_batch(self):
        evaluator = PopulationEvaluator(
            lambda g: g, batch_evaluate=lambda gs: list(gs)
        )
        assert evaluator.resolved_mode() == "batch"

    def test_auto_without_batch_is_cpu_dependent(self):
        evaluator = PopulationEvaluator(
            lambda g: g, config=EngineConfig(workers=1)
        )
        assert evaluator.resolved_mode() == "serial"


class TestMemoisation:
    def test_dedup_within_generation(self):
        calls = []

        def evaluate(genome):
            calls.append(genome)
            return sum(genome)

        evaluator = PopulationEvaluator(
            evaluate, config=EngineConfig(mode="serial")
        )
        results = evaluator([(1, 2), (3, 4), (1, 2), (1, 2)])
        assert results == [3, 7, 3, 3]
        assert calls == [(1, 2), (3, 4)]
        assert evaluator.evaluations == 2

    def test_memo_across_generations(self):
        calls = []

        def evaluate(genome):
            calls.append(genome)
            return sum(genome)

        evaluator = PopulationEvaluator(
            evaluate, config=EngineConfig(mode="serial")
        )
        evaluator([(1, 1)])
        evaluator([(1, 1), (2, 2)])
        assert calls == [(1, 1), (2, 2)]


def _gene_sum(genome):
    """Module-level so ``process`` mode can pickle it."""
    return sum(genome)


class TestProcessMode:
    def test_process_pool_matches_serial(self):
        genomes = [(i, i + 1) for i in range(12)] * 2
        serial = PopulationEvaluator(
            _gene_sum, config=EngineConfig(mode="serial")
        )
        process = PopulationEvaluator(
            _gene_sum, config=EngineConfig(mode="process", workers=2)
        )
        assert process(genomes) == serial(genomes)
        assert process.evaluations == serial.evaluations == 12

    def test_store_backfills_parent_caches(self):
        """Worker-computed results reach the parent via the store hook."""
        backfilled = {}
        process = PopulationEvaluator(
            _gene_sum,
            config=EngineConfig(mode="process", workers=2),
            store=backfilled.__setitem__,
        )
        process([(1, 2), (3, 4), (1, 2)])
        assert backfilled == {(1, 2): 3, (3, 4): 7}

    def test_batch_mode_without_callable_rejected(self):
        with pytest.raises(OptimizationError, match="batch_evaluate"):
            PopulationEvaluator(_gene_sum, config=EngineConfig(mode="batch"))


class TestBatchMode:
    def test_batch_receives_only_misses(self):
        calls = []

        def batch(genomes):
            calls.append(list(genomes))
            return [sum(g) for g in genomes]

        evaluator = PopulationEvaluator(
            _gene_sum, batch_evaluate=batch,
            config=EngineConfig(mode="batch"),
        )
        assert evaluator([(1, 2), (1, 2), (3, 4)]) == [3, 3, 7]
        assert evaluator([(1, 2), (5, 6)]) == [3, 11]
        # dedup within a generation, memo across generations
        assert calls == [[(1, 2), (3, 4)], [(5, 6)]]
        assert evaluator.evaluations == 3

    def test_batch_backfills_store(self):
        backfilled = {}
        evaluator = PopulationEvaluator(
            _gene_sum,
            batch_evaluate=lambda gs: [sum(g) for g in gs],
            config=EngineConfig(mode="batch"),
            store=backfilled.__setitem__,
        )
        evaluator([(1, 2), (3, 4), (1, 2)])
        assert backfilled == {(1, 2): 3, (3, 4): 7}

    def test_self_storing_batch_skips_backfill(self):
        """A callable that persists its own misses is not double-stored."""
        stored = []

        def batch(genomes):
            return [sum(g) for g in genomes]

        batch.self_storing = True
        evaluator = PopulationEvaluator(
            _gene_sum, batch_evaluate=batch,
            config=EngineConfig(mode="batch"),
            store=lambda g, r: stored.append((g, r)),
        )
        assert evaluator([(1, 2), (3, 4)]) == [3, 7]
        assert stored == []

    def test_batch_length_mismatch_rejected(self):
        evaluator = PopulationEvaluator(
            _gene_sum,
            batch_evaluate=lambda gs: [0],
            config=EngineConfig(mode="batch"),
        )
        with pytest.raises(OptimizationError, match="batch_evaluate"):
            evaluator([(1, 2), (3, 4)])


class TestGaDeterminism:
    """Same seed, every execution mode => identical GaOutcome."""

    def run_mode(self, library, space, mode, workers=None):
        evaluator = make_evaluator(library, space)
        config = GaConfig(population_size=10, generations=6, seed=5)
        if mode == "reference":
            population_evaluate = None
        else:
            population_evaluate = PopulationEvaluator(
                evaluator.evaluate,
                batch_evaluate=(
                    evaluator.evaluate_population if mode == "batch" else None
                ),
                config=EngineConfig(mode=mode, workers=workers),
            )
        return GeneticAlgorithm(
            space,
            evaluator.evaluate,
            config,
            population_evaluate=population_evaluate,
        ).run()

    def test_batch_identical_to_reference(self, library, space):
        assert self.run_mode(library, space, "reference") == self.run_mode(
            library, space, "batch"
        )

    def test_serial_engine_identical_to_reference(self, library, space):
        assert self.run_mode(library, space, "reference") == self.run_mode(
            library, space, "serial"
        )

    def test_thread_identical_to_reference(self, library, space):
        assert self.run_mode(library, space, "reference") == self.run_mode(
            library, space, "thread", workers=4
        )


class TestFitnessBatchPath:
    def test_population_identical_to_scalar(self, library, space):
        rng = np.random.default_rng(17)
        genomes = [space.random_genome(rng) for _ in range(60)]
        scalar = make_evaluator(library, space)
        batch = make_evaluator(library, space)
        assert batch.evaluate_population(genomes) == [
            scalar.evaluate(g) for g in genomes
        ]

    def test_unmappable_genomes_agree(self, library, space):
        # tiny global buffers on resnet152 produce unmappable designs
        evaluator_a = FitnessEvaluator(
            network="resnet152", library=library, space=space,
            node_nm=7, min_fps=30.0, max_drop_percent=2.0,
        )
        evaluator_b = FitnessEvaluator(
            network="resnet152", library=library, space=space,
            node_nm=7, min_fps=30.0, max_drop_percent=2.0,
        )
        genomes = [
            (13, 13, 0, 0, 0),  # 64x64 PEs, 16 KiB global buffer
            (0, 0, 0, 0, 0),
            (13, 13, 0, 11, 0),
        ]
        assert evaluator_b.evaluate_population(genomes) == [
            evaluator_a.evaluate(g) for g in genomes
        ]


class TestNsga2Engine:
    def knapsack(self):
        rng = np.random.default_rng(42)
        values = rng.integers(1, 20, size=12)
        weights = rng.integers(1, 20, size=12)

        def evaluate(genome):
            mask = np.array(genome, dtype=bool)
            return (-float(values[mask].sum()), float(weights[mask].sum()))

        def random_genome(rng_):
            return tuple(int(b) for b in rng_.integers(0, 2, size=12))

        return evaluate, random_genome

    def test_thread_engine_identical_front(self):
        evaluate, random_genome = self.knapsack()
        config = Nsga2Config(population_size=16, generations=8, seed=3)
        serial = Nsga2(evaluate, random_genome, config).run()
        threaded = Nsga2(
            evaluate,
            random_genome,
            config,
            engine=EngineConfig(mode="thread", workers=4),
        ).run()
        assert serial == threaded

    def test_evaluation_counter_unchanged(self):
        evaluate, random_genome = self.knapsack()
        config = Nsga2Config(population_size=8, generations=6, seed=0)
        search = Nsga2(evaluate, random_genome, config)
        search.run()
        assert 0 < search.evaluations <= 8 * 7


class TestDiskCache:
    def test_roundtrip(self, tmp_path):
        cache = FitnessDiskCache(str(tmp_path), context_fingerprint("ctx"))
        cache.put((1, 2, 3), {"cdp": 1.5})
        cache.flush()
        reloaded = FitnessDiskCache(str(tmp_path), context_fingerprint("ctx"))
        assert reloaded.get((1, 2, 3)) == {"cdp": 1.5}
        assert len(reloaded) == 1

    def test_contexts_isolated(self, tmp_path):
        a = FitnessDiskCache(str(tmp_path), context_fingerprint("a"))
        a.put((1,), "a-result")
        a.flush()
        b = FitnessDiskCache(str(tmp_path), context_fingerprint("b"))
        assert b.get((1,)) is None

    def test_corrupt_file_ignored(self, tmp_path):
        cache = FitnessDiskCache(str(tmp_path), "deadbeef")
        tmp_path.mkdir(exist_ok=True)
        with open(cache.path, "wb") as handle:
            handle.write(b"not a pickle")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert cache.get((1,)) is None

    def test_warm_start_skips_evaluation(self, library, space, tmp_path):
        rng = np.random.default_rng(2)
        genomes = [space.random_genome(rng) for _ in range(20)]
        cold = make_evaluator(library, space, cache_dir=tmp_path)
        cold_results = cold.evaluate_population(genomes)
        cold.flush_cache()

        warm = make_evaluator(library, space, cache_dir=tmp_path)
        warm_results = warm.evaluate_population(genomes)
        assert warm_results == cold_results
        # warm run answered from disk: its batch evaluator never built
        assert warm._batch is None

    def test_fingerprint_sensitive_to_constraints(self, library, space):
        a = make_evaluator(library, space)
        b = FitnessEvaluator(
            network="vgg16", library=library, space=space,
            node_nm=7, min_fps=30.0, max_drop_percent=1.0,
        )
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_sensitive_to_accuracy_model(self, library, space):
        """Different accuracy-model parameters must not share a cache."""
        from repro.accuracy.analytical import AnalyticalAccuracyModel
        from repro.accuracy.predictor import AccuracyPredictor

        a = make_evaluator(library, space)
        b = FitnessEvaluator(
            network="vgg16", library=library, space=space,
            node_nm=7, min_fps=40.0, max_drop_percent=1.0,
            predictor=AccuracyPredictor(
                model=AnalyticalAccuracyModel(noise_gain=0.9)
            ),
        )
        assert a.fingerprint() != b.fingerprint()
