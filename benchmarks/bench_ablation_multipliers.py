"""A3 — ablation: pruning-only vs precision-only vs combined libraries.

The paper's step 1 combines gate-level pruning and precision scaling.
This ablation builds single-technique libraries and compares the
multiplier area each technique reaches at the three accuracy tiers.

Expected shape: the combined library dominates (smallest area at every
tier); pruning wins at tight error budgets, precision scaling wins at
loose ones — which is exactly why combining them pays.

All three libraries leave out the search-free structural cuts
(``structural=False``): those cuts are neither pruning nor precision
scaling, and with them in, every library kept the same structural
entries and the three rows read the same.
"""

from __future__ import annotations

from repro.accuracy.predictor import AccuracyPredictor
from repro.approx.library import build_library
from repro.errors import AccuracyModelError
from repro.experiments.report import render_table


def _libraries(settings):
    common = dict(
        population=settings.library_population,
        generations=settings.library_generations,
        seed=settings.seed,
        structural=False,
    )
    return {
        "pruning_only": build_library(truncations=(), hybrid=False, **common),
        "precision_only": build_library(
            population=12, generations=5, seed=settings.seed, hybrid=False,
            max_candidates=4,  # minimal pruning search; truncations dominate
            structural=False,
        ),
        "combined": build_library(**common),
    }


def bench_ablation_multiplier_techniques(benchmark, settings, predictor):
    libraries = benchmark.pedantic(
        lambda: _libraries(settings), rounds=1, iterations=1
    )
    local_predictor = AccuracyPredictor()

    tiers = (0.5, 1.0, 2.0)
    rows = []
    areas = {}
    for name, lib in libraries.items():
        row = [name]
        for tier in tiers:
            try:
                chosen = local_predictor.smallest_feasible("vgg16", lib, tier)
                area = chosen.area_ge
            except AccuracyModelError:
                area = float("nan")
            areas[(name, tier)] = area
            row.append(round(area, 1))
        rows.append(row)
    print()
    print(
        render_table(
            ["library"] + [f"area@{t:g}%" for t in tiers],
            rows,
            title="A3 — smallest feasible multiplier area (GE) per technique",
        )
    )

    # the ablation isolates something only if the techniques differ
    assert [areas[("pruning_only", t)] for t in tiers] != [
        areas[("precision_only", t)] for t in tiers
    ]
    for tier in tiers:
        combined = areas[("combined", tier)]
        # the combined library is never worse than either technique alone
        assert combined <= areas[("pruning_only", tier)] + 1e-9
        assert combined <= areas[("precision_only", tier)] + 1e-9
