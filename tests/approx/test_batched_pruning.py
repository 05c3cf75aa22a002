"""Batched pruning objectives and the batched step-1 search.

Pins the approx-layer contract on top of the circuits-level property
suite: :class:`BatchedPruningObjectives` equals the reference evaluate
closure, NSGA-II trajectories are identical in every engine mode, and
``build_library`` returns bit-identical libraries batched vs the
per-genome reference.
"""

import numpy as np
import pytest

from repro.approx.library import build_library
from repro.approx.metrics import compute_error_metrics
from repro.approx.nsga2 import Nsga2, Nsga2Config
from repro.approx.pruning import BatchedPruningObjectives, PruningSpace
from repro.circuits.area import netlist_ge
from repro.circuits.synthesis import make_multiplier
from repro.engine.backends import SerialBackend, ThreadBackend
from repro.engine.population import EngineConfig
from repro.errors import OptimizationError

FAST = dict(
    population=10, generations=4, hybrid=False, structural=False,
    use_cache=False,
)


def reference_objectives(space, genome):
    circuit = space.apply(genome)
    table = circuit.truth_table()
    width = space.circuit.a_width
    metrics = compute_error_metrics(table, width, width)
    return (netlist_ge(circuit.netlist), metrics.nmed)


@pytest.fixture(scope="module")
def space():
    return PruningSpace(make_multiplier(8, 8), max_candidates=64)


class TestBatchedObjectives:
    def test_matches_reference(self, space):
        batched = BatchedPruningObjectives(space)
        rng = np.random.default_rng(4)
        genomes = [space.random_genome(rng) for _ in range(12)]
        genomes.append(tuple([0] * space.genome_length))  # empty
        genomes.append(tuple([1] * space.genome_length))  # all ties
        results = batched(genomes)
        for genome, objectives in zip(genomes, results):
            assert objectives == reference_objectives(space, genome)

    def test_empty_genome_uses_base_area(self, space):
        """``PruningSpace.apply`` returns the unsimplified base."""
        empty = tuple([0] * space.genome_length)
        (area, nmed) = BatchedPruningObjectives(space)([empty])[0]
        assert area == netlist_ge(space.circuit.netlist)
        assert nmed == 0.0

    def test_sharding_invariant(self, space):
        rng = np.random.default_rng(9)
        genomes = [space.random_genome(rng) for _ in range(11)]
        whole = BatchedPruningObjectives(space, shard_size=64)(genomes)
        small = BatchedPruningObjectives(space, shard_size=3)(genomes)
        threaded = BatchedPruningObjectives(
            space, shard_size=3, backend=ThreadBackend(3)
        )(genomes)
        serial = BatchedPruningObjectives(
            space, shard_size=5, backend=SerialBackend()
        )(genomes)
        assert whole == small == threaded == serial

    def test_empty_population(self, space):
        assert BatchedPruningObjectives(space)([]) == []

    def test_bad_shard_size(self, space):
        with pytest.raises(OptimizationError, match="shard_size"):
            BatchedPruningObjectives(space, shard_size=0)


class TestNsga2BatchPath:
    def run_search(self, space, mode, workers=None):
        def evaluate(genome):
            return reference_objectives(space, genome)

        batch = None
        if mode in ("auto", "batch"):
            batched = BatchedPruningObjectives(space)
            batch = batched.objectives
        search = Nsga2(
            evaluate,
            space.random_genome,
            Nsga2Config(population_size=8, generations=4, seed=2),
            engine=EngineConfig(mode=mode, workers=workers),
            batch_evaluate=batch,
        )
        return search, search.run()

    def test_batch_front_identical_to_serial(self, space):
        serial_search, serial_front = self.run_search(space, "serial")
        batch_search, batch_front = self.run_search(space, "batch")
        assert batch_front == serial_front
        # the store hook backfills the memo, so the distinct-genome
        # counter survives the batch fast path
        assert batch_search.evaluations == serial_search.evaluations

    def test_auto_resolves_to_batch(self, space):
        search, front = self.run_search(space, "auto", workers=1)
        assert (
            search._population_evaluator.resolved_mode() == "batch"
        )
        _, serial_front = self.run_search(space, "serial")
        assert front == serial_front


def library_fingerprint(library):
    return [
        (
            m.name,
            m.origin,
            m.area_ge,
            m.metrics,
            m.dnn_metrics,
            m.lut.table.tobytes(),
        )
        for m in library
    ]


class TestBatchedLibrary:
    def test_modes_bit_identical(self):
        reference = build_library(
            width=8, seed=3, engine=EngineConfig(mode="serial"), **FAST
        )
        batched = build_library(width=8, seed=3, **FAST)
        threaded = build_library(
            width=8, seed=3,
            engine=EngineConfig(mode="batch", workers=2), **FAST
        )
        assert library_fingerprint(batched) == library_fingerprint(
            reference
        )
        assert library_fingerprint(threaded) == library_fingerprint(
            reference
        )

    def test_thread_engine_identical_to_serial(self):
        """Thread mode with search-free variants matches the serial build."""
        settings = dict(
            width=4, population=8, generations=3, max_candidates=24,
            truncations=((1, 0), (0, 1)), hybrid=False, structural=True,
            structural_cuts=(2, 3), use_cache=False,
        )
        reference = build_library(
            engine=EngineConfig(mode="serial"), **settings
        )
        threaded = build_library(
            engine=EngineConfig(mode="thread", workers=2), **settings
        )
        assert library_fingerprint(threaded) == library_fingerprint(
            reference
        )

    def test_hybrid_path_bit_identical(self):
        settings = dict(FAST, hybrid=True)
        reference = build_library(
            width=8, seed=1, engine=EngineConfig(mode="serial"), **settings
        )
        batched = build_library(width=8, seed=1, **settings)
        # (whether hybrid entries survive the Pareto filter depends on
        # the settings; the contract is that both engines agree)
        assert library_fingerprint(batched) == library_fingerprint(
            reference
        )

    def test_disk_cache_shared_across_modes(self, tmp_path):
        """Objectives cached by the batched engine warm the reference."""
        cold = build_library(
            width=8, seed=5, cache_dir=str(tmp_path), **FAST
        )
        warm = build_library(
            width=8, seed=5, cache_dir=str(tmp_path),
            engine=EngineConfig(mode="serial"), **FAST
        )
        assert library_fingerprint(warm) == library_fingerprint(cold)
