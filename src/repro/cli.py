"""Command-line interface.

Exposes the headline flows without writing Python::

    python -m repro library                      # step-1 Pareto library
    python -m repro design --network vgg16 --node 7 --fps 30 --drop 1
    python -m repro accuracy     [--fast] [--json out.json]
    python -m repro fig2-scatter [--fast]
    python -m repro fig2-table   [--fast] [--json out.json]
    python -m repro fig3         [--fast] [--json out.json]
    python -m repro pareto-sweep [--fast]
    python -m repro sensitivity --which grid

``--fast`` shrinks every search for smoke runs; omit it for the
paper-scale settings (``DEFAULT_SETTINGS`` in
:mod:`repro.experiments.common`).  The experiment commands accept
``--grid-mode {auto,serial,thread,process}``, ``--grid-workers`` and
``--shards`` to control which execution backend runs the harness's
cells and how they are sharded (every backend prints identical
results)::

    python -m repro pareto-sweep --fast --grid-mode process \
        --grid-workers 2 --shards 2

``--kernel-tier {auto,numpy,c}`` picks the compiled-kernel tier for the
batched hot loops (every tier prints identical results).

``--cache-dir DIR`` persists every scored genome under ``DIR``.  It is
the crash-recovery path: rerun a killed command with the same
directory and it recomputes only the search that was in flight, with
byte-identical output::

    python -m repro pareto-sweep --fast --cache-dir cache

The ``accuracy`` command runs the behavioural accuracy study (measured
drop per library multiplier plus the analytical-vs-behavioural rank
agreement) and exposes the accuracy-stage execution knobs:
``--stack-workers`` tiles the stacked LUT inference across threads, and
``--accuracy-mode/--accuracy-workers/--accuracy-shards`` shard the
library into multiplier sub-stacks dispatched over the same execution
backends as the grids.  Every combination prints bit-identical drops.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError


def _settings(args: argparse.Namespace):
    from dataclasses import replace

    from repro.experiments.common import DEFAULT_SETTINGS, fast_settings

    settings = fast_settings() if args.fast else DEFAULT_SETTINGS
    if getattr(args, "kernel_tier", None) is not None:
        import os

        from repro.engine.kernels import KERNEL_TIER_ENV

        # validated by replace() via __post_init__; exported so pool
        # workers inherit the same tier
        settings = replace(settings, kernel_tier=args.kernel_tier)
        os.environ[KERNEL_TIER_ENV] = args.kernel_tier
    if getattr(args, "cache_dir", None) is not None:
        settings = replace(settings, cache_dir=args.cache_dir)
    grid_overrides = {}
    if getattr(args, "grid_mode", None) is not None:
        grid_overrides["grid_mode"] = args.grid_mode
    if getattr(args, "grid_workers", None) is not None:
        grid_overrides["grid_workers"] = args.grid_workers
    if getattr(args, "shards", None) is not None:
        grid_overrides["grid_shards"] = args.shards
    accuracy_overrides = {}
    if getattr(args, "stack_workers", None) is not None:
        accuracy_overrides["stack_workers"] = args.stack_workers
    if getattr(args, "accuracy_mode", None) is not None:
        accuracy_overrides["accuracy_mode"] = args.accuracy_mode
    if getattr(args, "accuracy_workers", None) is not None:
        accuracy_overrides["accuracy_workers"] = args.accuracy_workers
    if getattr(args, "accuracy_shards", None) is not None:
        accuracy_overrides["accuracy_shards"] = args.accuracy_shards
    if grid_overrides or accuracy_overrides:
        settings = replace(settings, **grid_overrides, **accuracy_overrides)
        # surface invalid options (e.g. --grid-workers 0) now, not
        # after the minutes-long library build that every harness runs
        # first
        if grid_overrides:
            settings.grid_runner()
        if accuracy_overrides:
            settings.accuracy_runner()
    return settings


def _write(path: Optional[str], text: str) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"[written to {path}]")


def _cmd_library(args: argparse.Namespace) -> int:
    from repro.accuracy import AccuracyPredictor
    from repro.experiments.report import render_table

    settings = _settings(args)
    library = settings.library()
    predictor = AccuracyPredictor()
    rows = [
        [
            entry.name[:30],
            entry.origin,
            round(entry.area_ge, 1),
            f"{entry.metrics.nmed:.2e}",
            round(predictor.drop_percent("vgg16", entry), 2),
        ]
        for entry in library
    ]
    print(
        render_table(
            ["name", "origin", "area_GE", "NMED", "vgg16_drop_%"],
            rows,
            title=f"Approximate-multiplier library ({len(library)} entries)",
        )
    )
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.accuracy import AccuracyPredictor
    from repro.core import CarbonAwareDesigner, smallest_exact_meeting_fps
    from repro.core.io import design_points_to_json
    from repro.ga import GaConfig

    settings = _settings(args)
    library = settings.library()
    predictor = AccuracyPredictor()

    baseline = smallest_exact_meeting_fps(
        args.network, library, args.node, predictor, args.fps
    )
    designer = CarbonAwareDesigner(
        network=args.network,
        node_nm=args.node,
        min_fps=args.fps,
        max_drop_percent=args.drop,
        library=library,
        predictor=predictor,
        ga_config=GaConfig(
            population_size=settings.ga_population,
            generations=settings.ga_generations,
            seed=args.seed,
        ),
        **settings.designer_kwargs(),
    )
    best = designer.run().best
    saving = 100.0 * (1.0 - best.carbon_g / baseline.carbon_g)

    print(f"baseline: {baseline.config.describe()}")
    print(f"          {baseline.fps:.1f} FPS, {baseline.carbon_g:.2f} gCO2")
    print(f"GA-CDP:   {best.config.describe()}")
    print(
        f"          {best.fps:.1f} FPS, {best.carbon_g:.2f} gCO2, "
        f"drop {best.accuracy_drop_percent:.2f}%"
    )
    print(f"embodied-carbon saving: {saving:.1f}%")
    _write(args.json, design_points_to_json([baseline, best]))
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from repro.accuracy import AccuracyPredictor
    from repro.experiments.report import render_table

    settings = _settings(args)
    library = settings.library()
    validator = settings.validator()
    predictor = AccuracyPredictor(validator=validator)

    multipliers = list(library)
    measured = validator.drop_percents(multipliers)
    analytical = [predictor.drop_percent("vgg16", m) for m in multipliers]
    rho = predictor.behavioral_agreement(library)

    rows = [
        [
            entry.name[:30],
            entry.origin,
            round(analytical[index], 3),
            round(measured[index], 3),
        ]
        for index, entry in enumerate(multipliers)
    ]
    print(
        render_table(
            ["name", "origin", "analytical_drop_%", "behavioral_drop_%"],
            rows,
            # no execution knobs in the output: every mode/worker
            # combination must print byte-identical results (CI diffs it)
            title=f"Behavioural accuracy study ({len(multipliers)} multipliers)",
        )
    )
    print(f"analytical-vs-behavioural Spearman rho: {rho:.4f}")
    if args.json:
        import json

        payload = {
            "multipliers": [
                {
                    "name": entry.name,
                    "origin": entry.origin,
                    "analytical_drop_percent": analytical[index],
                    "behavioral_drop_percent": measured[index],
                }
                for index, entry in enumerate(multipliers)
            ],
            "spearman_rho": rho,
        }
        _write(args.json, json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_fig2_scatter(args: argparse.Namespace) -> int:
    from repro.experiments.fig2 import fig2_scatter

    result = fig2_scatter(settings=_settings(args))
    print(result.render())
    if args.json:
        from repro.core.io import design_points_to_json

        points = [p for pts in result.points.values() for p in pts]
        _write(args.json, design_points_to_json(points))
    return 0


def _cmd_fig2_table(args: argparse.Namespace) -> int:
    from repro.core.io import fig2_table_to_json
    from repro.experiments.fig2 import fig2_reduction_table

    result = fig2_reduction_table(settings=_settings(args))
    print(result.render())
    _write(args.json, fig2_table_to_json(result.reductions, result.network))
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.core.io import fig3_cells_to_json
    from repro.experiments.fig3 import fig3_comparison

    result = fig3_comparison(settings=_settings(args))
    print(result.render())
    _write(args.json, fig3_cells_to_json(result.cells))
    return 0


def _cmd_pareto_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.pareto_sweep import pareto_sweep

    result = pareto_sweep(
        settings=_settings(args), network=args.network, node_nm=args.node
    )
    print(result.render())
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.experiments import sensitivity

    runners = {
        "grid": sensitivity.grid_sensitivity,
        "yield": sensitivity.yield_sensitivity,
        "bandwidth": sensitivity.bandwidth_sensitivity,
    }
    result = runners[args.which](settings=_settings(args))
    print(result.render())
    return 0


def _cmd_lint_invariants(args: argparse.Namespace) -> int:
    from repro.analysis import main as analysis_main

    return analysis_main(args.analysis_argv)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Carbon-aware approximate DNN accelerator DSE "
        "(DATE 2025 LBR reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser,
        json_out: bool = True,
        grid_opts: bool = False,
        accuracy_opts: bool = False,
    ) -> None:
        p.add_argument(
            "--fast", action="store_true",
            help="reduced search sizes for smoke runs",
        )
        p.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="persist every scored genome under DIR (atomic "
            "writes); a rerun over DIR, after a finished or a killed "
            "run, skips the finished searches and prints identical "
            "results",
        )
        p.add_argument(
            "--kernel-tier", default=None, metavar="TIER",
            help="compiled-kernel tier for the batched hot loops "
            "(auto/numpy/c; default: $REPRO_KERNEL_TIER or "
            "auto = fastest available; every tier is bit-identical, "
            "and an unavailable tier degrades to numpy with a warning)",
        )
        if json_out:
            p.add_argument("--json", default=None, help="write results JSON")
        if accuracy_opts:
            from repro.engine.grid import GRID_MODES

            p.add_argument(
                "--stack-workers", type=int, default=None, metavar="N",
                help="threads tiling the stacked LUT inference "
                "(default: auto = one per CPU; 1 = the serial "
                "reference; results identical for every value)",
            )
            p.add_argument(
                "--accuracy-mode", default=None,
                choices=list(GRID_MODES),
                help="execution backend that scores the multiplier "
                "library as sharded sub-stacks (drops identical for "
                "every choice)",
            )
            p.add_argument(
                "--accuracy-workers", type=int, default=None,
                help="worker count for the sharded accuracy modes "
                "(default: CPU count)",
            )
            p.add_argument(
                "--accuracy-shards", type=int, default=None,
                help="multiplier sub-stack count override "
                "(default: one per worker)",
            )
        if grid_opts:
            from repro.engine.grid import GRID_MODES

            p.add_argument(
                "--grid-mode", default=None,
                choices=list(GRID_MODES),
                help="execution backend for the experiment cells "
                "(results identical for every choice)",
            )
            p.add_argument(
                "--grid-workers", type=int, default=None,
                help="worker count for the sharded grid modes "
                "(default: CPU count)",
            )
            p.add_argument(
                "--shards", type=int, default=None,
                help="shard count override (default: one per worker)",
            )

    p = sub.add_parser("library", help="print the step-1 multiplier library")
    common(p, json_out=False)
    p.set_defaults(handler=_cmd_library)

    p = sub.add_parser("design", help="run GA-CDP for one design problem")
    common(p)
    p.add_argument("--network", default="vgg16",
                   choices=["vgg16", "vgg19", "resnet50", "resnet152"])
    p.add_argument("--node", type=int, default=7, choices=[7, 14, 28])
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--drop", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser(
        "accuracy",
        help="behavioural accuracy study over the engine-backed stage",
    )
    common(p, accuracy_opts=True)
    p.set_defaults(handler=_cmd_accuracy)

    p = sub.add_parser("fig2-scatter", help="regenerate Fig. 2 scatter")
    common(p, grid_opts=True)
    p.set_defaults(handler=_cmd_fig2_scatter)

    p = sub.add_parser("fig2-table", help="regenerate Fig. 2 table")
    common(p, grid_opts=True)
    p.set_defaults(handler=_cmd_fig2_table)

    p = sub.add_parser("fig3", help="regenerate Fig. 3 comparison")
    common(p, grid_opts=True)
    p.set_defaults(handler=_cmd_fig3)

    p = sub.add_parser(
        "pareto-sweep", help="GA-CDP over the (FPS, drop) constraint grid"
    )
    common(p, json_out=False, grid_opts=True)
    p.add_argument("--network", default="vgg16",
                   choices=["vgg16", "vgg19", "resnet50", "resnet152"])
    p.add_argument("--node", type=int, default=7, choices=[7, 14, 28])
    p.set_defaults(handler=_cmd_pareto_sweep)

    p = sub.add_parser("sensitivity", help="extension sensitivity sweeps")
    common(p, json_out=False, grid_opts=True)
    p.add_argument("--which", default="grid",
                   choices=["grid", "yield", "bandwidth"])
    p.set_defaults(handler=_cmd_sensitivity)

    # passthrough (add_help=False): every flag after the subcommand,
    # --help included, goes to the repro.analysis parser, so this stays
    # one checker with two spellings (`repro lint-invariants` here,
    # `python -m repro.analysis` on numpy-free interpreters)
    p = sub.add_parser(
        "lint-invariants",
        help="statically check determinism/picklability/fingerprint "
        "invariants (see repro.analysis)",
        add_help=False,
    )
    p.add_argument("analysis_argv", nargs=argparse.REMAINDER)
    p.set_defaults(handler=_cmd_lint_invariants)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments[:1] == ["lint-invariants"]:
        # dispatch before argparse: REMAINDER would swallow trailing
        # paths but misparse leading flags like --list-rules
        from repro.analysis import main as analysis_main

        return analysis_main(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
