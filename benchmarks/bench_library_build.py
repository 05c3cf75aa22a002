"""Timed benchmark: cold-cache step-1 library build, batched vs reference.

After PR 4 the step-1 NSGA-II pruning search was the dominant cost of
every cold-cache run (``BENCH_accuracy.json`` recorded ~18 s of
``library_build_s``).  This benchmark times ``build_library`` end to
end — precision-scaled entries, the pruning search, the hybrid
truncated-then-pruned search, and the final Pareto assembly — through
the step-1 execution tiers:

* **reference** — engine mode ``serial``: the per-genome
  ``prune_wires`` + recompile + simulate path (the bit-exact
  reference);
* **batched** — the default engine (``auto`` -> ``batch``) pinned to
  one worker: the population-batched circuit engine — one compiled
  pass per NSGA-II generation plus the vectorized
  constant-propagation/liveness area sweep — on a single thread;
* **batched_thread** — the same engine with generation shards
  dispatched over two ``thread`` backend workers;
* **batched_kernel** — the single-threaded batched engine on the best
  available compiled kernel tier (``auto``; see
  :mod:`repro.engine.kernels`).  The numpy tiers above are pinned to
  ``kernel_tier="numpy"`` so the compiled tier always has a genuine
  baseline to beat.

``batched`` and ``batched_kernel`` pin ``workers=1`` so that
``speedup`` and ``kernel_speedup`` measure the engine itself: left at
its default, the engine shards each generation over one thread per
CPU, which is slower than one thread on a 2-CPU host.

Every tier must produce a bit-identical library (names, areas, both
error-metric blocks, and exhaustive truth tables) — the hard gate; the
report records per-tier best-of-N timings, the headline ``speedup`` of
the batched engine over the reference, and ``kernel_speedup`` — the
compiled tier's gain over the numpy batched tier — plus the active
kernel tier/version and the availability map (so the nightly gate can
tell "compiled tier regressed" apart from "no compiler on this
runner").

Usage::

    PYTHONPATH=src python benchmarks/bench_library_build.py \
        [--smoke] [--trials N] [-o PATH]

``--smoke`` shrinks the search (CI budget) while keeping both the
pruned and hybrid stages; the default is the paper-scale build.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Dict, List

from repro.approx.library import build_library
from repro.engine.kernels import (
    get_kernel,
    kernel_availability,
    resolve_kernel_tier,
)
from repro.engine.population import EngineConfig


def library_fingerprint(library) -> List[tuple]:
    """Everything identity rests on: entry order, areas, metrics, LUTs."""
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


def timed_build(settings: Dict, engine, trials: int):
    """Best-of-N cold-cache build; returns (seconds, fingerprint)."""
    times: List[float] = []
    fingerprint = None
    for _ in range(trials):
        start = time.perf_counter()
        library = build_library(
            engine=engine, use_cache=False, **settings
        )
        times.append(time.perf_counter() - start)
        fingerprint = library_fingerprint(library)
    return round(min(times), 3), fingerprint, len(library)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller search (CI budget); pruned + hybrid stages kept",
    )
    parser.add_argument(
        "--trials", type=int, default=3,
        help="best-of-N trials per tier (default: 3)",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_library.json", help="report path"
    )
    args = parser.parse_args()

    if args.smoke:
        settings = dict(
            width=8, seed=0, population=16, generations=10,
            hybrid=True, structural=False,
        )
    else:
        settings = dict(width=8, seed=0)

    # the numpy tiers are pinned so a machine where the compiled tier
    # resolves by default still benches a genuine numpy baseline
    reference_s, reference_fp, size = timed_build(
        settings, EngineConfig(mode="serial", kernel_tier="numpy"), args.trials
    )
    batched_s, batched_fp, _ = timed_build(
        settings,
        EngineConfig(mode="batch", workers=1, kernel_tier="numpy"),
        args.trials,
    )
    thread_s, thread_fp, _ = timed_build(
        settings,
        EngineConfig(mode="batch", workers=2, kernel_tier="numpy"),
        args.trials,
    )
    # None defers to REPRO_KERNEL_TIER (then auto), so a run can force
    # a tier without editing the benchmark
    kernel_tier = resolve_kernel_tier(None)
    kernel_s, kernel_fp, _ = timed_build(
        settings,
        EngineConfig(mode="batch", workers=1, kernel_tier=kernel_tier),
        args.trials,
    )

    identical = {
        "batched": batched_fp == reference_fp,
        "batched_thread": thread_fp == reference_fp,
        "batched_kernel": kernel_fp == reference_fp,
    }
    report = {
        "benchmark": "library_build",
        "smoke": args.smoke,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "trials": args.trials,
        "settings": {
            key: value
            for key, value in settings.items()
        },
        "library_size": size,
        "reference_s": reference_s,
        "batched_s": batched_s,
        "batched_thread_s": thread_s,
        # headline: cold-cache build gain of the default batched
        # engine over the per-genome reference — deliberately NOT the
        # best tier, so a regression in the plain batched path cannot
        # hide behind the thread-sharded one; the CI/nightly gate bar
        # applies to this number
        "speedup": round(reference_s / batched_s, 2),
        "thread_speedup": round(reference_s / thread_s, 2),
        # the active compiled tier and what else this machine had; the
        # kernel gate compares compiled vs numpy on the SAME engine
        # shape (plain batched), so thread scaling cannot flatter it
        "kernel_tier": kernel_tier,
        "kernel_version": get_kernel(kernel_tier).version,
        "kernels": kernel_availability(),
        "batched_kernel_s": kernel_s,
        "kernel_speedup": round(batched_s / kernel_s, 2),
        "identical": identical,
        "all_identical": all(identical.values()),
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(json.dumps(report, indent=2))
    if not report["all_identical"]:
        print("FAIL: a batched tier diverged from the reference library")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
