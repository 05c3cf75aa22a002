"""Timed search benchmark: serial reference vs population engine.

Runs paper-scale GA-CDP searches (default :class:`GaConfig`) through

* the **seed serial path** — ``GeneticAlgorithm`` scoring one genome at
  a time via ``FitnessEvaluator.evaluate``, exactly as the seed did;
* the **engine path** — the same search with generations scored through
  :meth:`FitnessEvaluator.evaluate_population` (vectorized batch
  dataflow evaluation, dedup, memoisation);

verifies both return bit-identical outcomes, and writes the
``BENCH_search.json`` perf trajectory consumed by CI and PERF.md.

Usage::

    PYTHONPATH=src python benchmarks/bench_search_engine.py [--smoke] [-o PATH]

``--smoke`` shrinks the step-1 library so the whole run fits in CI
smoke budgets; the GA problems themselves stay paper-scale.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from typing import Dict, List

import numpy as np

from repro.approx.library import build_library
from repro.approx.nsga2 import fast_non_dominated_sort, pareto_front
from repro.dataflow.performance import clear_performance_cache
from repro.engine.population import EngineConfig, PopulationEvaluator
from repro.engine.vectorized import fast_non_dominated_sort_np, pareto_front_np
from repro.ga.chromosome import space_for_library
from repro.ga.engine import GaConfig, GeneticAlgorithm
from repro.ga.fitness import FitnessEvaluator

#: (network, min FPS, max drop %, seed) — one GA-CDP problem each.
PROBLEMS = [
    ("vgg16", 40.0, 1.0, 1),
    ("resnet50", 30.0, 2.0, 2),
    ("vgg19", 50.0, 1.0, 3),
]


def _evaluator(library, space, network, min_fps, max_drop):
    return FitnessEvaluator(
        network=network,
        library=library,
        space=space,
        node_nm=7,
        min_fps=min_fps,
        max_drop_percent=max_drop,
    )


def _outcome_key(outcome):
    return (
        outcome.best.genome,
        outcome.best.cdp,
        outcome.best.carbon_g,
        outcome.best.fps,
        outcome.evaluations,
        tuple(record.cdp for record in outcome.history),
    )


def time_search(library, smoke: bool) -> List[Dict]:
    space = space_for_library(library)
    config = GaConfig()  # paper-scale: population 24, 30 generations
    rows = []
    for network, min_fps, max_drop, seed in PROBLEMS[: 1 if smoke else None]:
        ga_config = GaConfig(
            population_size=config.population_size,
            generations=config.generations,
            seed=seed,
        )

        clear_performance_cache()
        serial_eval = _evaluator(library, space, network, min_fps, max_drop)
        start = time.perf_counter()
        serial = GeneticAlgorithm(space, serial_eval.evaluate, ga_config).run()
        serial_s = time.perf_counter() - start

        clear_performance_cache()
        engine_eval = _evaluator(library, space, network, min_fps, max_drop)
        population_evaluate = PopulationEvaluator(
            engine_eval.evaluate,
            batch_evaluate=engine_eval.evaluate_population,
            config=EngineConfig(mode="batch"),
        )
        start = time.perf_counter()
        engine = GeneticAlgorithm(
            space,
            engine_eval.evaluate,
            ga_config,
            population_evaluate=population_evaluate,
        ).run()
        engine_s = time.perf_counter() - start

        rows.append(
            {
                "network": network,
                "min_fps": min_fps,
                "max_drop_percent": max_drop,
                "seed": seed,
                "serial_s": round(serial_s, 4),
                "engine_s": round(engine_s, 4),
                "speedup": round(serial_s / engine_s, 2),
                "identical": _outcome_key(serial) == _outcome_key(engine),
                "evaluations": serial.evaluations,
                "best_cdp": serial.best.cdp,
            }
        )
    return rows


def time_nsga2_ops(n_points: int = 256, trials: int = 20) -> Dict:
    """Microbenchmark of the vectorized NSGA-II internals."""
    rng = np.random.default_rng(0)
    objectives = [
        tuple(float(x) for x in rng.random(2)) for _ in range(n_points)
    ]
    points = [(i, obj) for i, obj in enumerate(objectives)]

    start = time.perf_counter()
    for _ in range(trials):
        reference_fronts = fast_non_dominated_sort(objectives)
        reference_front0 = pareto_front(points)
    reference_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(trials):
        vector_fronts = fast_non_dominated_sort_np(objectives)
        vector_front0 = pareto_front_np(points)
    vector_s = time.perf_counter() - start

    return {
        "n_points": n_points,
        "trials": trials,
        "reference_s": round(reference_s, 4),
        "vectorized_s": round(vector_s, 4),
        "speedup": round(reference_s / vector_s, 2),
        "identical": (
            reference_fronts == vector_fronts
            and reference_front0 == vector_front0
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small step-1 library and a single GA problem (CI budget)",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_search.json", help="report path"
    )
    args = parser.parse_args()

    start = time.perf_counter()
    if args.smoke:
        library = build_library(
            width=8, seed=0, population=12, generations=5,
            hybrid=False, structural=False,
        )
    else:
        library = build_library()
    library_s = time.perf_counter() - start

    searches = time_search(library, smoke=args.smoke)
    ops = time_nsga2_ops()

    speedups = [row["speedup"] for row in searches]
    report = {
        "benchmark": "search_engine",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "library_build_s": round(library_s, 2),
        "library_size": len(library),
        "ga_searches": searches,
        "nsga2_ops": ops,
        "min_speedup": min(speedups),
        "all_identical": all(row["identical"] for row in searches)
        and ops["identical"],
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(json.dumps(report, indent=2))
    if not report["all_identical"]:
        print("FAIL: engine results diverge from the serial reference")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
