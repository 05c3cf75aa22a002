"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper's
evaluation (each ``bench_*.py`` docstring names its experiment and the
expected shape).  Heavy shared state —
the step-1 multiplier library — is built once per session so individual
benchmarks measure their own experiment, not library construction.
"""

from __future__ import annotations

import pytest

from repro.accuracy.predictor import AccuracyPredictor
from repro.approx.library import ApproxLibrary
from repro.experiments.common import DEFAULT_SETTINGS, ExperimentSettings


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Paper-scale experiment settings."""
    return DEFAULT_SETTINGS


@pytest.fixture(scope="session")
def library(settings) -> ApproxLibrary:
    """The step-1 multiplier library (built once, then cached)."""
    return settings.library()


@pytest.fixture(scope="session")
def predictor() -> AccuracyPredictor:
    from repro.experiments.common import shared_predictor

    return shared_predictor()
