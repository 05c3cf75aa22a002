"""Benchmark gate: bit-identity and speedup assertions over BENCH JSON.

One script usable locally and in CI (it replaces the inline heredoc
gates the workflow used to carry)::

    python benchmarks/check_bench.py BENCH_search.json BENCH_accuracy.json
    python benchmarks/check_bench.py BENCH_search.json --min-speedup 3.0

Each report must carry ``all_identical: true`` (bit-identity is the
*hard* gate — an engine that diverges from the serial reference is
wrong, not slow) and a speedup at or above ``--min-speedup``
(``min_speedup`` for multi-problem reports like ``BENCH_search.json``,
``speedup`` for single-number reports like ``BENCH_accuracy.json``).

Reports from the kernel-aware benchmarks carry ``kernel_speedup`` (the
compiled kernel tier's gain over the numpy tier on the same engine
shape) plus the ``kernels`` availability map; pass
``--min-kernel-speedup`` to gate it.  The flag takes either one global
bar (``--min-kernel-speedup 1.5``) or per-benchmark bars keyed by the
report's ``benchmark`` field (``--min-kernel-speedup
library_build=2.5 accuracy_parallel=1.3``) — the two hot loops have
very different numpy baselines to beat, so one bar would either
water down the circuit gate or fail the LUT gate.  When the report
shows that only the numpy tier was available on the benchmarking
machine (no C compiler) the gate is *skipped with a visible
notice* instead of failing — "nothing to compare" is a provisioning
condition, not a perf regression.  Reports without the field, or
benchmarks without a bar in per-benchmark form, are likewise skipped.

The default speedup bar is deliberately loose (1.5x): smoke runs on
shared CI runners see multi-x timer noise, so identity is enforced
strictly and throughput only sanity-checked.  Nightly paper-scale runs
pass a higher bar explicitly.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def check_report(
    path: str,
    min_speedup: float,
    min_kernel_speedup=None,
) -> List[str]:
    """Validate one BENCH report; returns a list of failure messages."""
    failures: List[str] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except FileNotFoundError:
        # distinct from "unreadable": an absent report usually means the
        # benchmark step itself crashed or was skipped, and the gate
        # must say so instead of hinting at a parse problem
        return [
            f"{path}: missing report file — the benchmark that should "
            "have written it did not run (or wrote elsewhere)"
        ]
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: unreadable report ({exc})"]

    name = report.get("benchmark", path)
    identical = report.get("all_identical")
    if identical is not True:
        failures.append(
            f"{name}: all_identical={identical!r} — engine diverged from "
            "the serial reference"
        )

    speedup = report.get("min_speedup", report.get("speedup"))
    if speedup is None:
        failures.append(f"{name}: report carries no speedup field")
    elif speedup < min_speedup:
        failures.append(
            f"{name}: speedup {speedup} below the {min_speedup}x gate"
        )

    kernel_speedup = report.get("kernel_speedup")
    kernel_extra = ""
    if isinstance(min_kernel_speedup, dict):
        min_kernel_speedup = min_kernel_speedup.get(name)
    if min_kernel_speedup is not None and kernel_speedup is not None:
        kernels = report.get("kernels") or {}
        compiled = sorted(
            tier
            for tier, available in kernels.items()
            if available and tier != "numpy"
        )
        if not compiled:
            # only numpy was available where the bench ran: there is no
            # compiled tier to hold to the bar, so skip — loudly, so a
            # misprovisioned nightly runner is visible in the log
            print(
                f"notice: {name} — kernel-speedup gate SKIPPED: only the "
                f"numpy tier was available (kernels={kernels})"
            )
        elif kernel_speedup < min_kernel_speedup:
            failures.append(
                f"{name}: kernel_speedup {kernel_speedup} "
                f"(tier {report.get('kernel_tier')!r}) below the "
                f"{min_kernel_speedup}x gate"
            )
        else:
            kernel_extra = (
                f", kernel_speedup={kernel_speedup} "
                f"({report.get('kernel_tier')})"
            )

    if not failures:
        print(f"ok: {name} — identical=True, speedup={speedup}{kernel_extra}")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Enforce bit-identity and speedup gates on BENCH_*.json"
    )
    parser.add_argument(
        "reports", nargs="+", metavar="REPORT.json",
        help="benchmark report files to check",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.5,
        help="minimum acceptable speedup (default: 1.5, the smoke bar)",
    )
    parser.add_argument(
        "--min-kernel-speedup", nargs="+", default=None,
        metavar="X | BENCH=X",
        help="minimum acceptable compiled-kernel speedup over the numpy "
        "tier; off by default.  One bare number applies to every "
        "report; NAME=X pairs apply per report 'benchmark' field "
        "(unlisted benchmarks are not gated).  Skipped with a notice "
        "when the report shows only the numpy tier was available, or "
        "carries no kernel_speedup field",
    )
    args = parser.parse_args(argv)

    min_kernel_speedup = None
    if args.min_kernel_speedup is not None:
        values = args.min_kernel_speedup
        if len(values) == 1 and "=" not in values[0]:
            min_kernel_speedup = float(values[0])
        else:
            min_kernel_speedup = {}
            for item in values:
                bench, _, bar = item.partition("=")
                if not bar:
                    parser.error(
                        "--min-kernel-speedup takes one number or "
                        f"NAME=X pairs, got {item!r}"
                    )
                min_kernel_speedup[bench] = float(bar)

    failures: List[str] = []
    for path in args.reports:
        failures.extend(
            check_report(path, args.min_speedup, min_kernel_speedup)
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
