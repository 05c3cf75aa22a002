"""Property tests for the execution backends and the grid runner.

The contract under test: every backend's ``map_shards(fn, shards)``
equals ``[[fn(*cell) for cell in shard] for shard in shards]``, and
``GridRunner.run`` returns the same values in the same order for every
mode (serial/thread/process) and every shard count — sharding changes
scheduling only, never results.
"""

import os

import pytest

from repro.engine.backends import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    shared_process_pool,
    shutdown_shared_pools,
)
from repro.engine.grid import GRID_MODES, ExecutionPlan, GridConfig, GridRunner
from repro.errors import ExperimentError


def square_offset(value, offset):
    """Top-level picklable cell function."""
    return value * value + offset


def tag_pid(value):
    """Returns (value, executing pid) — for placement checks."""
    return value, os.getpid()


def square_batch(values, offset):
    """Batch-decomposable callable for the for_batches plan tests."""
    return [value * value + offset for value in values]


CELLS = [(value, 100) for value in range(11)]
EXPECTED = [value * value + 100 for value in range(11)]
ITEMS = list(range(11))

SHARDS = [CELLS[:3], CELLS[3:4], CELLS[4:]]
SHARD_EXPECTED = [[value * value + 100 for value, _ in shard] for shard in SHARDS]

BACKENDS = pytest.mark.parametrize(
    "backend",
    [SerialBackend(), ThreadBackend(4), ProcessBackend(2)],
    ids=["serial", "thread", "process"],
)


class TestLocalBackends:
    @BACKENDS
    def test_map_shards_identity(self, backend):
        assert backend.map_shards(square_offset, SHARDS) == SHARD_EXPECTED

    @BACKENDS
    def test_empty_shards(self, backend):
        assert backend.map_shards(square_offset, []) == []


class TestGridConfig:
    def test_defaults(self):
        config = GridConfig()
        assert config.mode == "auto"
        assert config.resolved_workers() >= 1

    def test_modes_are_the_local_backends(self):
        assert GRID_MODES == ("auto", "serial", "thread", "process")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ExperimentError, match="unknown grid mode"):
            GridConfig(mode="banana")

    def test_invalid_workers_rejected(self):
        with pytest.raises(ExperimentError, match="workers"):
            GridConfig(workers=0)

    def test_invalid_shards_rejected(self):
        with pytest.raises(ExperimentError, match="shards"):
            GridConfig(shards=0)


class TestSharding:
    def test_shards_concatenate_to_input(self):
        for count in (1, 2, 3, 5, 11, 40):
            runner = GridRunner(GridConfig(shards=count))
            shards = runner.shard_cells(CELLS)
            assert [c for shard in shards for c in shard] == CELLS
            assert len(shards) == min(count, len(CELLS))

    def test_shard_sizes_balanced(self):
        runner = GridRunner(GridConfig(shards=3))
        sizes = [len(s) for s in runner.shard_cells(CELLS)]
        assert max(sizes) - min(sizes) <= 1


class TestDeterministicResults:
    def test_serial_reference(self):
        runner = GridRunner(GridConfig(mode="serial"))
        assert runner.run(ExecutionPlan.for_cells(square_offset, CELLS)) == EXPECTED

    @pytest.mark.parametrize("shards", [1, 2, 3, 11])
    def test_thread_mode_identical_any_shards(self, shards):
        runner = GridRunner(GridConfig(mode="thread", workers=4, shards=shards))
        assert runner.run(ExecutionPlan.for_cells(square_offset, CELLS)) == EXPECTED

    @pytest.mark.parametrize("shards", [1, 2, 11])
    def test_process_mode_identical_any_shards(self, shards):
        runner = GridRunner(
            GridConfig(mode="process", workers=2, shards=shards)
        )
        assert runner.run(ExecutionPlan.for_cells(square_offset, CELLS)) == EXPECTED

    def test_empty_cells(self):
        runner = GridRunner(GridConfig(mode="process", workers=2))
        assert runner.run(ExecutionPlan.for_cells(square_offset, [])) == []

    def test_auto_resolution(self):
        runner = GridRunner(GridConfig(mode="auto", workers=1))
        assert runner.resolved_mode(8) == "serial"
        multi = GridRunner(GridConfig(mode="auto", workers=4))
        assert multi.resolved_mode(8) == "process"
        assert multi.resolved_mode(1) == "serial"


class TestWarmPoolReuse:
    def test_pool_persists_across_runs(self):
        pool_a = shared_process_pool(2)
        pool_b = shared_process_pool(2)
        assert pool_a is pool_b

    def test_workers_reused_across_maps(self):
        # single-cell grids run in-process by design, so use two cells
        runner = GridRunner(GridConfig(mode="process", workers=1, shards=1))
        first = runner.run(ExecutionPlan.for_cells(tag_pid, [(1,), (2,)]))
        second = runner.run(ExecutionPlan.for_cells(tag_pid, [(3,), (4,)]))
        assert first[0][1] == second[0][1]  # same worker process
        assert first[0][1] != os.getpid()

    def test_shutdown_then_fresh_pool(self):
        before = shared_process_pool(2)
        shutdown_shared_pools()
        after = shared_process_pool(2)
        assert after is not before
        shutdown_shared_pools()


class TestPoolContextRefork:
    """A library-settings change must refork stale warm-pool workers."""

    def _provider_token(self):
        return self._token

    def test_context_change_reforks_pool(self):
        from repro.engine.backends import (
            _POOL_CONTEXT_PROVIDERS,
            current_pool_context,
            register_pool_context_provider,
        )

        self._token = "harness-A"
        register_pool_context_provider("test-context", self._provider_token)
        try:
            pool_a = shared_process_pool(2)
            assert shared_process_pool(2) is pool_a  # same context: reuse
            self._token = "harness-B"
            assert ("test-context", "harness-B") in current_pool_context()
            pool_b = shared_process_pool(2)
            assert pool_b is not pool_a  # context change: refork
            assert shared_process_pool(2) is pool_b  # stable again
        finally:
            _POOL_CONTEXT_PROVIDERS.pop("test-context", None)
            shutdown_shared_pools()

    def test_back_to_back_library_settings_refork(self):
        """Two harness-style runs with different libraries refork once."""
        from repro.approx.library import build_library

        fast = dict(generations=2, hybrid=False, structural=False)
        shutdown_shared_pools()
        try:
            build_library(width=8, seed=123, population=8, **fast)
            pool_a = shared_process_pool(2)
            assert shared_process_pool(2) is pool_a
            # second "harness" builds a different step-1 library: the
            # next checkout must hand back freshly forked workers that
            # inherit it, instead of the stale pre-library fleet
            build_library(width=8, seed=124, population=8, **fast)
            pool_b = shared_process_pool(2)
            assert pool_b is not pool_a
            # results through the reforked pool stay the reference's
            runner = GridRunner(GridConfig(mode="process", workers=2))
            assert runner.run(ExecutionPlan.for_cells(square_offset, CELLS)) == EXPECTED
        finally:
            shutdown_shared_pools()


class TestBatchPlans:
    """for_batches plans == fn(items) for every mode and batch count."""

    def test_serial_reference(self):
        runner = GridRunner(GridConfig(mode="serial"))
        assert runner.run(
            ExecutionPlan.for_batches(square_batch, ITEMS, extra=(100,))
        ) == EXPECTED

    @pytest.mark.parametrize("mode", ["thread", "process"])
    @pytest.mark.parametrize("shards", [1, 2, 5, 11])
    def test_parallel_modes_identical(self, mode, shards):
        runner = GridRunner(GridConfig(mode=mode, workers=2, shards=shards))
        assert runner.run(
            ExecutionPlan.for_batches(square_batch, ITEMS, extra=(100,))
        ) == EXPECTED
        shutdown_shared_pools()

    def test_empty_items(self):
        runner = GridRunner(GridConfig(mode="thread", workers=2))
        assert runner.run(
            ExecutionPlan.for_batches(square_batch, [], extra=(100,))
        ) == []

    def test_single_item(self):
        runner = GridRunner(GridConfig(mode="thread", workers=4))
        assert runner.run(
            ExecutionPlan.for_batches(square_batch, [3], extra=(7,))
        ) == [16]


class TestExecutionPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="cells.*batches"):
            ExecutionPlan(kind="nope", fn=square_offset, items=())

    def test_extra_rejected_on_cell_plans(self):
        with pytest.raises(ExperimentError, match="batch plans"):
            ExecutionPlan(
                kind="cells", fn=square_offset, items=((1, 2),), extra=(3,)
            )

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_run_cells_matches_reference(self, mode):
        runner = GridRunner(GridConfig(mode=mode, workers=2))
        assert runner.run(ExecutionPlan.for_cells(square_offset, CELLS)) == EXPECTED

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_run_batches_matches_reference(self, mode):
        runner = GridRunner(GridConfig(mode=mode, workers=2, shards=3))
        plan = ExecutionPlan.for_batches(square_batch, ITEMS, extra=(100,))
        assert runner.run(plan) == square_batch(ITEMS, 100)
