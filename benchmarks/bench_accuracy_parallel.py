"""Timed accuracy benchmark: the multi-core accuracy stage end to end.

Runs the behavioural accuracy study (drop per multiplier over the whole
step-1 library) through every execution tier of the accuracy stage:

* the **seed scalar loop** — one full quantised-CNN inference per
  multiplier via ``BehavioralValidator.drop_percent`` (the bit-exact
  reference the speedups are measured against);
* the **serial stack** — one ``QuantCNN.forward_stack`` pass with
  ``stack_workers=1`` (PR 2's batched engine, the parallel reference);
* the **parallel stack** — the same pass thread-tiled over the
  multiplier/row-block axes (``stack_workers=N``);
* the **kernel stack** — the serial stacked pass on the best available
  compiled kernel tier (``auto``; see :mod:`repro.engine.kernels`).
  The numpy tiers are pinned to ``kernel_tier="numpy"`` so the
  compiled tier is measured against a genuine numpy baseline;
* the **backend-sharded stage** — ``drop_percents`` splitting the
  library into sub-stacks dispatched over the ``thread`` and
  ``process`` execution backends (the engine clients' path).

Every tier must return drops bit-identical to the scalar loop (the
hard gate); the report records per-tier timings and speedups.  The
headline ``speedup`` is the end-to-end accuracy-stage gain of the best
tier over the seed scalar loop; ``parallel`` carries the thread-tiling
gain over the serial stack, which only exceeds 1 on multi-core
runners.

Usage::

    PYTHONPATH=src python benchmarks/bench_accuracy_parallel.py \
        [--smoke] [--workers N] [-o PATH]

``--smoke`` shrinks the step-1 library so the run fits CI smoke
budgets; the behavioural task itself stays paper-scale.  The default
output path is ``BENCH_accuracy.json``, the canonical accuracy report
(its serial-stack tier carries the batch-vs-scalar numbers).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Dict, List

import numpy as np

from repro.accuracy.behavioral import BehavioralValidator
from repro.approx.library import build_library
from repro.engine.backends import shutdown_shared_pools
from repro.engine.grid import GridConfig, GridRunner
from repro.engine.kernels import (
    get_kernel,
    kernel_availability,
    resolve_kernel_tier,
)
from repro.nn.synthetic import make_task

TRIALS = 3  # best-of-N: shared runners have multi-x timer noise


def _timed_drops(make_validator, multipliers) -> Dict:
    """Best-of-N timing of a library-wide drop evaluation."""
    times: List[float] = []
    drops = None
    for _ in range(TRIALS):
        validator = make_validator()
        validator.exact_accuracy()  # shared baseline outside the timing
        start = time.perf_counter()
        drops = validator.drop_percents(multipliers)
        times.append(time.perf_counter() - start)
    return {"s": round(min(times), 4), "drops": drops}


def _timed_scalar(task, multipliers) -> Dict:
    times: List[float] = []
    drops = None
    for _ in range(TRIALS):
        validator = BehavioralValidator(task=task)
        validator.exact_accuracy()
        start = time.perf_counter()
        drops = [validator.drop_percent(m) for m in multipliers]
        times.append(time.perf_counter() - start)
    return {"s": round(min(times), 4), "drops": drops}


def check_stack_logits(task, library, workers: int) -> bool:
    """Bit-identity of serial vs thread-tiled stacked logits."""
    luts = [m.lut for m in library]
    serial = task.model.forward_stack(task.test_x, luts, stack_workers=1)
    parallel = task.model.forward_stack(
        task.test_x, luts, stack_workers=workers
    )
    return bool(np.array_equal(serial, parallel))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small step-1 library (CI budget); the task stays paper-scale",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="thread/pool worker count (default: CPU count)",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_accuracy.json", help="report path"
    )
    args = parser.parse_args()
    workers = args.workers if args.workers else (os.cpu_count() or 1)

    start = time.perf_counter()
    if args.smoke:
        library = build_library(
            width=8, seed=0, population=12, generations=5,
            hybrid=False, structural=False,
        )
    else:
        library = build_library()
    library_s = time.perf_counter() - start

    task = make_task()
    multipliers = list(library)

    # warm both execution paths (prepared layers, signed tables) so the
    # timings measure steady-state inference, not first-touch costs
    warm = [m.lut for m in multipliers[:2]]
    task.model.forward_stack(task.test_x, warm)
    task.model.forward(task.test_x, warm[0])

    scalar = _timed_scalar(task, multipliers)
    # the numpy tiers are pinned so a machine where the compiled tier
    # resolves by default still benches a genuine numpy baseline
    stack_serial = _timed_drops(
        lambda: BehavioralValidator(
            task=task, stack_workers=1, kernel_tier="numpy"
        ),
        multipliers,
    )
    stack_parallel = _timed_drops(
        lambda: BehavioralValidator(
            task=task, stack_workers=workers, kernel_tier="numpy"
        ),
        multipliers,
    )
    # None defers to REPRO_KERNEL_TIER (then auto), so a run can force
    # a tier without editing the benchmark
    kernel_tier = resolve_kernel_tier(None)
    stack_kernel = _timed_drops(
        lambda: BehavioralValidator(
            task=task, stack_workers=1, kernel_tier=kernel_tier
        ),
        multipliers,
    )
    backends = {}
    for mode in ("thread", "process"):
        runner = GridRunner(GridConfig(mode=mode, workers=workers))
        backends[mode] = _timed_drops(
            lambda runner=runner: BehavioralValidator(
                task=task, stack_workers=1, kernel_tier="numpy", runner=runner
            ),
            multipliers,
        )
    shutdown_shared_pools()

    reference = scalar["drops"]
    tiers = {
        "stack_serial": stack_serial,
        "stack_parallel": stack_parallel,
        "stack_kernel": stack_kernel,
        **{f"backend_{mode}": entry for mode, entry in backends.items()},
    }
    identical = {name: entry["drops"] == reference for name, entry in tiers.items()}
    logits_identical = check_stack_logits(task, library, workers)

    best_name = min(tiers, key=lambda name: tiers[name]["s"])
    best_s = tiers[best_name]["s"]
    report = {
        "benchmark": "accuracy_parallel",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workers": workers,
        "library_build_s": round(library_s, 2),
        "library_size": len(library),
        "scalar_s": scalar["s"],
        "stack_serial_s": stack_serial["s"],
        "stack_parallel_s": stack_parallel["s"],
        "parallel": {
            "workers": workers,
            "speedup_vs_stack_serial": round(
                stack_serial["s"] / stack_parallel["s"], 2
            ),
        },
        # compiled tier vs the numpy tier on the SAME engine shape
        # (serial stack), so thread scaling cannot flatter it
        "kernel_tier": kernel_tier,
        "kernel_version": get_kernel(kernel_tier).version,
        "kernels": kernel_availability(),
        "stack_kernel_s": stack_kernel["s"],
        "kernel_speedup": round(stack_serial["s"] / stack_kernel["s"], 2),
        "backends": {
            mode: {
                "s": entry["s"],
                "speedup_vs_scalar": round(scalar["s"] / entry["s"], 2),
            }
            for mode, entry in backends.items()
        },
        "best_tier": best_name,
        # headline: end-to-end accuracy-stage gain over the seed scalar
        # loop; the gate bar in CI/nightly applies to this number
        "speedup": round(scalar["s"] / best_s, 2),
        "identical": identical,
        "logits_identical": logits_identical,
        "all_identical": all(identical.values()) and logits_identical,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(json.dumps(report, indent=2))
    if not report["all_identical"]:
        print("FAIL: a parallel tier diverged from the scalar reference")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
