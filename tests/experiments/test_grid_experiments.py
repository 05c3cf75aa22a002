"""Sharded-vs-serial identity for the experiment harnesses.

Every harness must produce identical outputs (values *and* ordering)
whether its grid cells run serially, threaded, or across process
shards.  Tiny search sizes keep this affordable; the determinism being
asserted is shard-count independence, which does not depend on scale.
The process-pool comparisons also share an on-disk objective/fitness
cache directory between the runs, which can only change speed, never
results.
"""

from dataclasses import replace

import pytest

from repro.engine.grid import GridConfig, GridRunner
from repro.experiments.common import ExperimentSettings
from repro.experiments.fig2 import fig2_reduction_table, fig2_scatter
from repro.experiments.fig3 import fig3_comparison
from repro.experiments.pareto_sweep import pareto_sweep
from repro.experiments.sensitivity import grid_sensitivity


def tiny_settings() -> ExperimentSettings:
    """Smallest meaningful grid: 2 nodes x 1 network x 1 fps x 2 tiers."""
    return ExperimentSettings(
        nodes_nm=(7, 14),
        networks=("vgg16",),
        fps_thresholds=(30.0,),
        drop_tiers_percent=(1.0, 2.0),
        library_population=12,
        library_generations=4,
        ga_population=8,
        ga_generations=4,
    )


def serial_runner() -> GridRunner:
    return GridRunner(GridConfig(mode="serial"))


def sharded_runner(shards: int) -> GridRunner:
    return GridRunner(GridConfig(mode="thread", workers=2, shards=shards))


def process_runner() -> GridRunner:
    return GridRunner(GridConfig(mode="process", workers=2, shards=2))


def point_key(point):
    return (
        point.carbon_g,
        point.fps,
        point.accuracy_drop_percent,
        point.config.describe(),
    )


@pytest.fixture(scope="module")
def settings():
    s = tiny_settings()
    s.library()  # shared across every comparison below
    return s


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("grid-cache"))


@pytest.fixture(scope="module")
def cached_settings(cache_dir):
    """The tiny settings plus a disk cache every run below shares."""
    s = replace(tiny_settings(), cache_dir=cache_dir)
    s.library()  # warm the parent-side memo and the disk cache
    return s


class TestShardedIdentity:
    def test_pareto_sweep(self, settings):
        serial = pareto_sweep(settings=settings, runner=serial_runner())
        sharded = pareto_sweep(settings=settings, runner=sharded_runner(2))
        assert list(serial.cells) == list(sharded.cells)
        for key in serial.cells:
            assert point_key(serial.cells[key]) == point_key(sharded.cells[key])

    def test_fig2_scatter_ga_points(self, settings):
        serial = fig2_scatter(settings=settings, runner=serial_runner())
        sharded = fig2_scatter(settings=settings, runner=sharded_runner(2))
        assert serial.series() == sharded.series()

    def test_fig2_table(self, settings):
        serial = fig2_reduction_table(settings=settings, runner=serial_runner())
        sharded = fig2_reduction_table(
            settings=settings, runner=sharded_runner(2)
        )
        assert serial.reductions == sharded.reductions

    def test_fig3(self, settings):
        serial = fig3_comparison(settings=settings, runner=serial_runner())
        sharded = fig3_comparison(settings=settings, runner=sharded_runner(3))
        assert list(serial.cells) == list(sharded.cells)
        for key in serial.cells:
            assert serial.cells[key].normalised == sharded.cells[key].normalised

    def test_grid_sensitivity(self, settings):
        serial = grid_sensitivity(settings=settings, runner=serial_runner())
        sharded = grid_sensitivity(settings=settings, runner=sharded_runner(2))
        assert serial.rows == sharded.rows


class TestProcessIdentity:
    def test_pareto_sweep(self, cached_settings):
        serial = pareto_sweep(settings=cached_settings, runner=serial_runner())
        process = pareto_sweep(
            settings=cached_settings, runner=process_runner()
        )
        assert list(serial.cells) == list(process.cells)
        for key in serial.cells:
            assert point_key(serial.cells[key]) == point_key(process.cells[key])

    def test_fig2_scatter(self, cached_settings):
        serial = fig2_scatter(settings=cached_settings, runner=serial_runner())
        process = fig2_scatter(
            settings=cached_settings, runner=process_runner()
        )
        assert serial.series() == process.series()

    def test_fig3(self, cached_settings):
        serial = fig3_comparison(
            settings=cached_settings, runner=serial_runner()
        )
        process = fig3_comparison(
            settings=cached_settings, runner=process_runner()
        )
        assert list(serial.cells) == list(process.cells)
        for key in serial.cells:
            assert serial.cells[key].normalised == process.cells[key].normalised

    def test_grid_sensitivity(self, cached_settings):
        serial = grid_sensitivity(
            settings=cached_settings, runner=serial_runner()
        )
        process = grid_sensitivity(
            settings=cached_settings, runner=process_runner()
        )
        assert serial.rows == process.rows
