"""Tests of the benchmark itself (not part of the repository's test suite).

Run from the repository root::

    python3 -m pytest paperbench/selftest.py -q

Every output check must pass on real outputs and fail on a
deliberately corrupted one, and a run's last line must parse with every
metric that ``BENCHMARK.json`` names.
"""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def smoke_pass():
    """Library and GA-CDP outputs of one smoke-scale pass."""
    from repro.experiments.common import fast_settings
    from repro.experiments.fig2 import fig2_scatter
    from repro.experiments.fig3 import fig3_comparison
    from repro.experiments.pareto_sweep import pareto_sweep

    settings = fast_settings(0)
    outputs = {
        "library": settings.library(),
        "fig2_scatter": fig2_scatter(settings=settings),
        "fig3_comparison": fig3_comparison(settings=settings),
        "pareto_sweep": pareto_sweep(settings=settings),
    }
    return settings, outputs


@pytest.fixture(scope="module")
def paper_entries():
    """The paper-scale library: the smoke-scale one keeps no pruned entry."""
    from repro.experiments.common import DEFAULT_SETTINGS

    return list(DEFAULT_SETTINGS.library())


def _points(settings, outputs):
    return checks.ga_cdp_points(
        settings,
        outputs["fig2_scatter"],
        outputs["fig3_comparison"],
        outputs["pareto_sweep"],
    )


def test_checks_pass_on_real_outputs(smoke_pass, paper_entries):
    settings, outputs = smoke_pass
    assert checks.check_library(list(outputs["library"])) == []
    assert checks.check_library(paper_entries) == []
    assert checks.check_design_points(_points(settings, outputs)) == []
    assert checks.check_fig3(outputs["fig3_comparison"], paper_scale=False) == []
    assert checks.check_fig2_exact(outputs["fig2_scatter"]) == []


def test_flipped_lut_bit_in_a_pruned_entry_fails(paper_entries):
    from repro.approx.lut import LutMultiplier

    entries = list(paper_entries)
    index = next(i for i, e in enumerate(entries) if e.origin == "pruned")
    entry = entries[index]
    table = np.array(entry.lut.table, dtype=np.int64)
    table[12345] ^= 1 << 3
    lut = LutMultiplier(table, entry.lut.a_width, entry.lut.b_width, entry.name)
    entries[index] = dataclasses.replace(entry, lut=lut)
    failures = checks.check_library(entries)
    assert any("simulation in 1 cases" in f for f in failures), failures
    assert any("NMED" in f for f in failures), failures


def test_point_below_its_fps_floor_fails(smoke_pass):
    settings, outputs = smoke_pass
    fig3 = outputs["fig3_comparison"]
    key = sorted(fig3.cells)[0]
    cell = fig3.cells[key]
    slow = dataclasses.replace(cell.ga_cdp, fps=checks.FIG3_MIN_FPS - 0.01)
    cells = dict(fig3.cells)
    cells[key] = dataclasses.replace(cell, ga_cdp=slow)
    corrupted = dict(outputs, fig3_comparison=dataclasses.replace(fig3, cells=cells))
    failures = checks.check_design_points(_points(settings, corrupted))
    assert failures == [f"fig3 {key[0]}@{key[1]}nm: 29.99 FPS below the 30 floor"]


def test_warm_output_that_differs_from_the_fill_fails(smoke_pass):
    outputs = smoke_pass[1]
    fill = checks.output_digests(outputs)
    assert checks.check_identical(fill, checks.output_digests(outputs)) == []
    scatter = outputs["fig2_scatter"]
    first, *rest = scatter.points["ga_cdp"]
    # one ulp of carbon on one design point
    nudged = dataclasses.replace(first, carbon_g=np.nextafter(first.carbon_g, 0.0))
    points = dict(scatter.points, ga_cdp=(nudged, *rest))
    corrupted = dict(outputs, fig2_scatter=dataclasses.replace(scatter, points=points))
    assert checks.check_identical(fill, checks.output_digests(corrupted)) == [
        "fig2_scatter: warm output differs from the fill"
    ]


def test_layer_metrics_from_spans():
    root = 100
    spans = [
        ("ga.engine.run", 0.0, 10.0, (root, 1), None, root),
        ("engine.population.call", 1.0, 4.0, (root, 2), (root, 1), root),
        ("engine.grid.run|process|2", 20.0, 30.0, (root, 3), None, root),
        ("engine.grid.cell", 20.0, 29.0, (201, 1), None, 201),
        ("engine.grid.cell", 21.0, 24.0, (202, 1), None, 202),
    ]
    metrics = tracing.layer_metrics(spans, {"engine.pool.starts": 1}, root)
    assert metrics["ga.engine.self_s"] == 7.0
    assert metrics["engine.grid.run_s"] == 10.0
    assert metrics["engine.grid.cell_busy_s"] == 12.0
    assert metrics["engine.grid.idle_s"] == 8.0
    assert metrics["engine.pool.starts"] == 1


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_parses_with_every_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    result = _run(ROOT, "--workload", "smoke_seeds", "--seconds", "1", "--trace", trace)
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    named = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(line["metrics"]) == {metric["name"] for metric in named}
    for metric in named:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_without_the_program(tmp_path):
    result = _run(str(tmp_path), "--workload", "paper_cold", "--seconds", "1")
    assert result.returncode != 0
    assert result.stdout == ""
