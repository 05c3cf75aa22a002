"""Static invariant checker for the engine's reproducibility contracts.

Eight PRs of parallelism made the headline guarantee — every execution
mode is bit-identical to the serial reference — depend on conventions
that runtime tests only catch after the fact, on exercised paths.
This package checks them at lint time, on every path, with stdlib
``ast`` alone (no numpy: the CI ``analysis`` job runs on a bare
interpreter)::

    python -m repro.analysis src benchmarks
    python -m repro.analysis --format json --strict src
    repro lint-invariants            # same checker via the main CLI

Exit code 0 means no unsuppressed errors; 1 means findings; 2 means
the checker itself was invoked incorrectly.

Rule inventory
==============

``RNG001`` — RNG discipline (error)
    No calls that draw from ambient module-level RNG state
    (``random.random()``, ``numpy.random.seed()``, ...): hidden global
    state makes results depend on call order across shards.  Seeded
    constructors are allowed (``random.Random(seed)``,
    ``numpy.random.default_rng(seed)``, ``SeedSequence``, bit
    generators) — generator *objects* are threaded through call
    chains, exactly like the engine's cell functions receive them.

``NDT001`` — wall-clock/nondeterminism sources (error)
    No ``time.time``/``time_ns``, ``os.urandom``, ``uuid.uuid1/4``,
    ``secrets.*``, ``datetime.now/utcnow/today`` in checked code, and
    no iteration over set literals (hash-seed-dependent order) — any
    of these feeding a result breaks run-to-run bit-identity.
    ``time.monotonic``/``time.perf_counter`` stay legal: measuring
    durations is fine, recording wall-clock values as data is not.

``PKL001`` — backend-boundary picklability (error)
    Callables handed to an executor's ``submit``/``map_shards`` or
    ``ExecutionPlan.for_cells``/``for_batches`` cross a pickle
    boundary under process dispatch: lambdas are flagged
    outright, and nested functions are flagged when they close over
    unpicklable state (locks, open files, sockets, connections).

``FPR001`` — fingerprint completeness (error)
    A config dataclass whose class line carries
    ``# repro: fingerprinted[DECL]`` must keep every field in sync
    with the module-level ``DECL = ("field", ...)`` trajectory
    declaration that its fingerprint digests (today
    :meth:`repro.experiments.common.ExperimentSettings.trajectory_fingerprint`):
    every field is either listed in ``DECL`` or annotated
    ``# repro: non-trajectory[reason]`` (same line or the line
    above), and every declared name must still be a field.  This
    catches both halves of the "new knob silently missing from the
    trajectory fingerprint" bug class: adding an undeclared field
    fails, deleting a declared one fails.

``KRN001`` — kernel-tier parity (error)
    Every ``KernelImpl(...)`` site provides either the full kernel
    set (``simulate_tables``, ``sweep_ge``, ``lut_tile``) or none of
    it (the numpy reference tier); partial tiers would silently fall
    back to numpy mid-pipeline and make benchmark tiers
    incomparable.  Kernel fields must be keywords, unknown fields are
    flagged, and locally-defined kernel callables must match the
    reference arity (2/2/4).

``SUP001`` — suppression hygiene (error)
    Every suppression comment must name known rule codes.  A bare
    ``# repro: noqa`` or an unknown code is itself a finding, so the
    suppression inventory stays auditable.

Suppression syntax
==================

``# repro: noqa[CODE]`` (or ``noqa[CODE1,CODE2]``) trailing a
statement suppresses those rules on that line; on a comment-only line
it suppresses them for the whole file.  Suppressed findings still
appear in the report (counted, marked ``suppressed``) but never
affect the exit code.

Extending
=========

Register new rules through :func:`register_rule` — the registry
mirrors :func:`repro.engine.kernels.register_kernel_tier`, except
duplicate codes *raise*: codes appear in ``noqa`` comments across the
tree, so two rules sharing one would mute each other.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.core import (
    AnalysisContext,
    AnalysisError,
    AnalysisReport,
    Finding,
    ModuleInfo,
    Rule,
    get_rule,
    register_rule,
    rule_codes,
    run_analysis,
    unregister_rule,
)
from repro.analysis import rules as _rules  # registers the built-in rules

__all__ = [
    "AnalysisContext",
    "AnalysisError",
    "AnalysisReport",
    "Finding",
    "ModuleInfo",
    "Rule",
    "get_rule",
    "main",
    "register_rule",
    "rule_codes",
    "run_analysis",
    "unregister_rule",
]

#: Default scan roots when the command line names none (missing roots
#: are skipped so the command works from a partial checkout).
DEFAULT_PATHS = ("src", "benchmarks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint-invariants",
        description=(
            "statically check the engine's determinism, picklability, "
            "and fingerprint contracts (see 'pydoc repro.analysis' for "
            "the rule inventory)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files and/or directories to check (default: src "
        "benchmarks, skipping roots that do not exist)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--rules", metavar="CODE[,CODE...]", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="warnings also fail the run (errors always do)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point shared by ``python -m repro.analysis`` and
    ``repro lint-invariants``."""
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for code in rule_codes():
            rule = get_rule(code)
            print(f"{code}  {rule.severity:7s}  {rule.description}")
        return 0

    paths = args.paths
    if not paths:
        from pathlib import Path

        paths = [root for root in DEFAULT_PATHS if Path(root).exists()]
        if not paths:
            print(
                "error: no paths given and no default root "
                f"({'/'.join(DEFAULT_PATHS)}) exists here",
                file=sys.stderr,
            )
            return 2

    codes = None
    if args.rules is not None:
        codes = [code.strip() for code in args.rules.split(",") if code.strip()]

    try:
        report = run_analysis(paths, codes=codes)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        print(report.render_human())
    return report.exit_code(strict=args.strict)
