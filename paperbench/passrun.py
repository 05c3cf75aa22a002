"""One timed process of the benchmark: set-up, the passes, the checks.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH=src``::

    python3 paperbench/passrun.py --scale paper --seed 0 --cache DIR --out FILE

It imports ``repro`` and resolves the kernel tier (the set-up), runs one
pass of the paper evaluation per seed, timing every harness call, shuts
the process pool down, and only then checks the outputs.  With
``--trace DIR`` the layers are wrapped with :mod:`tracing` before the
first harness call.  Everything is written as JSON to ``--out``.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

#: Stage of every harness call; a pass runs them in this order.
OPERATIONS = (
    ("library", "library"),
    ("accuracy", "accuracy"),
    ("fig2_scatter", "ga_cdp"),
    ("fig2_reduction_table", "ga_cdp"),
    ("fig3_comparison", "ga_cdp"),
    ("pareto_sweep", "ga_cdp"),
    ("grid_sensitivity", "ga_cdp"),
    ("yield_sensitivity", "ga_cdp"),
    ("bandwidth_sensitivity", "ga_cdp"),
)


def accuracy_study(settings):
    """The behavioural accuracy study, as ``repro accuracy`` runs it."""
    from repro.accuracy import AccuracyPredictor

    library = settings.library()
    validator = settings.validator()
    predictor = AccuracyPredictor(validator=validator)
    multipliers = list(library)
    measured = validator.drop_percents(multipliers)
    analytical = [predictor.drop_percent("vgg16", m) for m in multipliers]
    rho = predictor.behavioral_agreement(library)
    return measured, analytical, rho


def harness_calls(settings):
    """name -> zero-argument call of every harness call of one pass."""
    from repro.experiments import sensitivity
    from repro.experiments.fig2 import fig2_reduction_table, fig2_scatter
    from repro.experiments.fig3 import fig3_comparison
    from repro.experiments.pareto_sweep import pareto_sweep

    return {
        "library": settings.library,
        "accuracy": lambda: accuracy_study(settings),
        "fig2_scatter": lambda: fig2_scatter(settings=settings),
        "fig2_reduction_table": lambda: fig2_reduction_table(settings=settings),
        "fig3_comparison": lambda: fig3_comparison(settings=settings),
        "pareto_sweep": lambda: pareto_sweep(settings=settings),
        "grid_sensitivity": lambda: sensitivity.grid_sensitivity(settings=settings),
        "yield_sensitivity": lambda: sensitivity.yield_sensitivity(settings=settings),
        "bandwidth_sensitivity": lambda: sensitivity.bandwidth_sensitivity(
            settings=settings
        ),
    }


def run_pass(settings):
    """Time every harness call of one pass; failures are caught and counted.

    Returns the outputs, each call's ``(start, end)`` and the failed calls.
    """
    calls = harness_calls(settings)
    outputs, spans, failed = {}, {}, []
    for name, _stage in OPERATIONS:
        start = time.perf_counter()
        try:
            outputs[name] = calls[name]()
        except Exception:  # a harness call that raises is a failed operation
            traceback.print_exc()
            failed.append(name)
        spans[name] = (start, time.perf_counter())
    return outputs, spans, failed


def check_pass(settings, outputs, paper_scale):
    """Failure messages of every output check that applies to a pass."""
    import checks
    from repro.accuracy.behavioral import BehavioralValidator

    failures = []
    library = outputs.get("library")
    if library is not None:
        entries = list(library)
        failures += checks.check_library(entries)
        if "accuracy" in outputs:
            failures += checks.check_accuracy(
                entries,
                outputs["accuracy"][0],
                BehavioralValidator().drop_percent,
                settings.seed,
            )
    if "fig2_scatter" in outputs:
        failures += checks.check_fig2_exact(outputs["fig2_scatter"])
    if "fig3_comparison" in outputs:
        failures += checks.check_fig3(outputs["fig3_comparison"], paper_scale)
    if all(k in outputs for k in ("fig2_scatter", "fig3_comparison", "pareto_sweep")):
        failures += checks.check_design_points(
            checks.ga_cdp_points(
                settings,
                outputs["fig2_scatter"],
                outputs["fig3_comparison"],
                outputs["pareto_sweep"],
            )
        )
    return failures


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("paper", "smoke"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seeds", type=int, default=1, help="consecutive seeds, one pass each"
    )
    parser.add_argument("--cache", default=None, help="disk-cache directory")
    parser.add_argument("--trace", default=None, help="spool directory; tracing on")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    import repro  # noqa: F401
    import repro.experiments.fig2  # noqa: F401
    import repro.experiments.fig3  # noqa: F401
    import repro.experiments.pareto_sweep  # noqa: F401
    import repro.experiments.sensitivity  # noqa: F401
    from repro.engine.backends import shutdown_shared_pools
    from repro.engine.kernels import resolve_kernel_tier
    from repro.experiments.common import DEFAULT_SETTINGS, fast_settings

    imported = time.perf_counter()
    tier = resolve_kernel_tier()
    ready = time.perf_counter()

    recorder = None
    if args.trace is not None:
        import tracing

        recorder = tracing.Recorder(args.trace)
        tracing.install(recorder)

    seeds = [args.seed + offset for offset in range(args.seeds)]
    if args.scale == "paper":
        settings_list = [
            replace(DEFAULT_SETTINGS, seed=s, cache_dir=args.cache) for s in seeds
        ]
    else:
        settings_list = [fast_settings(s) for s in seeds]

    passes = []
    eval_start = time.perf_counter()
    for settings in settings_list:
        passes.append(run_pass(settings))
    eval_end = time.perf_counter()
    shutdown_shared_pools()  # reaps the workers, so their peak RSS counts
    rss = peak_rss_mb()
    if recorder is not None:  # before the checks, which call wrapped code too
        spans, counts = recorder.collect()

    import checks

    stages = {"library": 0.0, "accuracy": 0.0, "ga_cdp": 0.0}
    failed, failures, digests = [], [], {}
    for settings, (outputs, spans_of, pass_failed) in zip(settings_list, passes):
        for name, stage in OPERATIONS:
            start, end = spans_of[name]
            stages[stage] += end - start
        tag = f"seed {settings.seed}"
        failed += [f"{tag}: {name}" for name in pass_failed]
        failures += [
            f"{tag}: {message}"
            for message in check_pass(settings, outputs, args.scale == "paper")
        ]
        digests.update(
            {f"{tag}: {name}": d for name, d in checks.output_digests(outputs).items()}
        )

    result = {
        "ready": ready,
        "tier": tier,
        "attempted": len(OPERATIONS) * len(settings_list),
        "failed": failed,
        "check_failures": failures,
        "digests": digests,
        "metrics": {
            "eval_s": eval_end - eval_start,
            "library_s": stages["library"],
            "accuracy_s": stages["accuracy"],
            "ga_cdp_s": stages["ga_cdp"],
            "peak_rss_mb": rss,
        },
    }
    if recorder is not None:
        layers = tracing.layer_metrics(spans, counts, recorder.root_pid)
        layers["setup.import_s"] = imported - import_start
        layers["engine.kernels.resolve_s"] = ready - imported
        result["layers"] = layers
        result["unwrapped"] = recorder.missing
        # the Fig. 3 grid: wall time and each pool worker's busy time
        result["fig3"] = {}
        for settings, (_outputs, spans_of, _failed) in zip(settings_list, passes):
            start, end = spans_of["fig3_comparison"]
            result["fig3"][f"seed {settings.seed}"] = {
                "wall_s": end - start,
                "worker_busy_s": tracing.worker_busy(
                    spans, recorder.root_pid, start, end
                ),
            }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
