"""A1 — ablation: deadline-CDP vs pure-CDP fitness.

:mod:`repro.ga.fitness` calls out the fitness interpretation as a key
design choice: the paper's GA-CDP points sit *at* the FPS thresholds,
which implies performance beyond the application deadline earns nothing
(deadline-CDP).  This ablation runs both fitness modes on the same
problem and prints the resulting designs.

Expected shape: pure CDP chases FPS far past the threshold at higher
embodied carbon; deadline CDP stops at the threshold with lower carbon.
"""

from __future__ import annotations

from repro.core.designer import CarbonAwareDesigner
from repro.experiments.report import render_table


def _run(mode: str, settings, library, predictor):
    designer = CarbonAwareDesigner(
        network="resnet50",
        node_nm=7,
        min_fps=30.0,
        max_drop_percent=2.0,
        library=library,
        predictor=predictor,
        ga_config=settings.ga_config(seed_offset=77),
        fitness_mode=mode,
    )
    return designer.run().best


def bench_ablation_fitness_mode(benchmark, settings, library, predictor):
    results = benchmark.pedantic(
        lambda: {
            mode: _run(mode, settings, library, predictor)
            for mode in ("deadline_cdp", "pure_cdp")
        },
        rounds=1,
        iterations=1,
    )
    rows = [
        [
            mode,
            point.config.n_pes,
            round(point.fps, 1),
            round(point.carbon_g, 3),
            round(point.cdp, 5),
        ]
        for mode, point in results.items()
    ]
    print()
    print(
        render_table(
            ["fitness", "PEs", "FPS", "carbon_g", "cdp_gs"],
            rows,
            title="A1 — fitness-mode ablation (resnet50 @ 7 nm, 30 FPS)",
        )
    )

    deadline = results["deadline_cdp"]
    pure = results["pure_cdp"]
    assert deadline.fps >= 30.0 and pure.fps >= 30.0
    # deadline mode finds the cleaner design; pure mode the faster one
    assert deadline.carbon_g <= pure.carbon_g
    assert pure.fps >= deadline.fps
