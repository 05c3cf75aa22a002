"""Smoke tests of the top-level public API surface."""

import importlib

import pytest

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_workflow_symbols(self):
        assert callable(repro.build_library)
        assert callable(repro.carbon_delay_product)
        assert repro.CarbonAwareDesigner is not None
        assert repro.AccuracyPredictor is not None

    def test_base_error_exported(self):
        assert issubclass(repro.ReproError, Exception)


class TestSubpackagesImportable:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.circuits",
            "repro.circuits.adders",
            "repro.circuits.booth",
            "repro.circuits.verilog",
            "repro.approx",
            "repro.approx.structural",
            "repro.approx.adders",
            "repro.carbon",
            "repro.carbon.chiplet",
            "repro.accel",
            "repro.dataflow",
            "repro.dataflow.energy",
            "repro.nn",
            "repro.accuracy",
            "repro.accuracy.accumulator",
            "repro.ga",
            "repro.core",
            "repro.core.io",
            "repro.engine",
            "repro.engine.backends",
            "repro.engine.batch",
            "repro.engine.population",
            "repro.engine.vectorized",
            "repro.engine.diskcache",
            "repro.engine.grid",
            "repro.experiments",
            "repro.experiments.sensitivity",
            "repro.experiments.pareto_sweep",
            "repro.cli",
        ],
    )
    def test_imports(self, module):
        importlib.import_module(module)

    def test_package_all_exports_resolve(self):
        for package_name in (
            "repro.circuits",
            "repro.approx",
            "repro.carbon",
            "repro.accel",
            "repro.dataflow",
            "repro.nn",
            "repro.accuracy",
            "repro.ga",
            "repro.core",
            "repro.engine",
            "repro.experiments",
        ):
            package = importlib.import_module(package_name)
            for name in getattr(package, "__all__", []):
                assert hasattr(package, name), f"{package_name}.{name}"
