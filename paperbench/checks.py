"""Output checks for one pass of the paper evaluation.

Every check returns a list of failure messages (empty when the check
passes).  Each one compares the program's output with a value this
module computes itself, or tests a property the method must have; none
of them calls back into the code path that produced the output.

The functions take plain values (library entries, design points, the
harness result objects), so the self-tests can hand them deliberately
corrupted results.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

#: Operand width of the paper's multipliers (8x8 unsigned).
WIDTH = 8
#: Fig. 3's fixed constraints (30 FPS, 2 % drop).
FIG3_MIN_FPS = 30.0
FIG3_MAX_DROP = 2.0
#: Paper scale: each network's best Fig. 3 saving (the paper quotes
#: 30-70 %; the band carries the margin the repository's own Fig. 3
#: claim check uses).
FIG3_SAVING_BAND = (25.0, 75.0)


def exact_products() -> np.ndarray:
    """a*b for every operand pair, indexed by ``a + (b << 8)``."""
    cases = np.arange(1 << (2 * WIDTH), dtype=np.int64)
    return (cases & ((1 << WIDTH) - 1)) * (cases >> WIDTH)


def dnn_moment(entry) -> float:
    """The DNN error moment the library's Pareto filter ranks by."""
    return entry.dnn_metrics.variance + entry.dnn_metrics.bias ** 2


# -- step 1: the multiplier library -----------------------------------------


def check_library(entries: Sequence) -> List[str]:
    """LUTs, NMEDs, uniqueness and Pareto optimality of the library."""
    failures: List[str] = []
    exact = exact_products()
    exact_entries = [e for e in entries if e.origin == "exact"]
    if len(exact_entries) != 1:
        failures.append(f"library holds {len(exact_entries)} exact entries")
    for entry in exact_entries:
        if not np.array_equal(np.asarray(entry.lut.table, np.int64), exact):
            failures.append(f"{entry.name}: exact LUT differs from a*b")

    seen: Dict[bytes, str] = {}
    for entry in entries:
        table = np.asarray(entry.lut.table, dtype=np.int64)
        if table.shape != exact.shape:
            failures.append(f"{entry.name}: LUT shape {table.shape}")
            continue
        digest = table.tobytes()
        if digest in seen:
            failures.append(f"{entry.name} and {seen[digest]} share a table")
        seen[digest] = entry.name
        if entry.origin in ("pruned", "hybrid"):
            simulated = np.asarray(entry.circuit.truth_table(), np.int64)
            if not np.array_equal(table, simulated):
                wrong = int(np.count_nonzero(table != simulated))
                failures.append(
                    f"{entry.name}: LUT differs from its netlist's "
                    f"simulation in {wrong} cases"
                )
        # sum of integer errors is exact; /65536 is exact; one rounding
        med = float(np.abs(table - exact).sum()) / float(exact.size)
        nmed = med / float(exact.max())
        if entry.metrics.nmed != nmed:
            failures.append(
                f"{entry.name}: NMED {entry.metrics.nmed!r} != "
                f"recomputed {nmed!r}"
            )

    scored = [
        (e.name, (e.area_ge, e.metrics.nmed, dnn_moment(e))) for e in entries
    ]
    for name_a, a in scored:
        for name_b, b in scored:
            if name_a != name_b and _dominates(a, b):
                failures.append(f"{name_a} dominates {name_b}")
    return failures


def _dominates(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


# -- the behavioural accuracy study -----------------------------------------


def sample_entries(n_entries: int, seed: int, count: int = 2) -> List[int]:
    """Indices of ``count`` entries drawn by the seed."""
    return sorted(random.Random(seed).sample(range(n_entries), count))


def check_accuracy(
    entries: Sequence,
    measured: Sequence[float],
    scalar_drop: Callable[[object], float],
    seed: int,
) -> List[str]:
    """Exact entry drops 0; two seeded entries match the scalar path."""
    failures: List[str] = []
    if len(measured) != len(entries):
        return [f"{len(measured)} drops for {len(entries)} entries"]
    for entry, drop in zip(entries, measured):
        if entry.origin == "exact" and drop != 0.0:
            failures.append(f"exact entry drops {drop!r} %, not 0")
    for index in sample_entries(len(entries), seed):
        reference = scalar_drop(entries[index])
        if measured[index] != reference:
            failures.append(
                f"{entries[index].name}: stacked drop {measured[index]!r} "
                f"!= scalar drop {reference!r}"
            )
    return failures


# -- step 2: the GA-CDP searches --------------------------------------------


def check_design_points(
    points: Iterable[Tuple[str, object, float, float]],
) -> List[str]:
    """Every (where, point, FPS floor, drop ceiling) is met."""
    failures: List[str] = []
    for where, point, min_fps, max_drop in points:
        if not point.fps >= min_fps:
            failures.append(
                f"{where}: {point.fps!r} FPS below the {min_fps:g} floor"
            )
        if not point.accuracy_drop_percent <= max_drop:
            failures.append(
                f"{where}: drop {point.accuracy_drop_percent!r} % above "
                f"the {max_drop:g} % ceiling"
            )
    return failures


def ga_cdp_points(settings, scatter, fig3, pareto) -> List[tuple]:
    """The GA-CDP points of one pass with the constraints they ran under."""
    loosest = max(settings.drop_tiers_percent)
    points = [
        (f"fig2 ga_cdp@{fps:g}", point, fps, loosest)
        for fps, point in zip(settings.fps_thresholds, scatter.points["ga_cdp"])
    ]
    points += [
        (f"fig3 {network}@{node}nm", cell.ga_cdp, FIG3_MIN_FPS, FIG3_MAX_DROP)
        for (network, node), cell in sorted(fig3.cells.items())
    ]
    points += [
        (f"pareto {fps:g}FPS/{drop:g}%", point, fps, drop)
        for (fps, drop), point in sorted(pareto.cells.items())
    ]
    return points


def check_fig3(fig3, paper_scale: bool) -> List[str]:
    """GA-CDP < approximate-only < exact per cell; paper-scale band."""
    failures: List[str] = []
    for (network, node), cell in sorted(fig3.cells.items()):
        ga = cell.ga_cdp.carbon_g
        approx = cell.approximate_only.carbon_g
        exact = cell.exact.carbon_g
        if not ga < approx < exact:
            failures.append(
                f"fig3 {network}@{node}nm: carbon ga {ga!r}, approx-only "
                f"{approx!r}, exact {exact!r} not strictly increasing"
            )
    if paper_scale:
        low, high = FIG3_SAVING_BAND
        best: Dict[str, float] = {}
        for (network, _node), cell in fig3.cells.items():
            saving = 100.0 * (1.0 - cell.ga_cdp.carbon_g / cell.exact.carbon_g)
            best[network] = max(best.get(network, saving), saving)
        for network, saving in sorted(best.items()):
            if not low <= saving <= high:
                failures.append(
                    f"fig3 {network}: best saving {saving:.1f} % outside "
                    f"{low:g}-{high:g} %"
                )
    return failures


def check_fig2_exact(scatter) -> List[str]:
    """Fig. 2's exact series: carbon rises with FPS."""
    points = sorted(scatter.points["exact"], key=lambda p: p.fps)
    for low, high in zip(points, points[1:]):
        if not (low.fps < high.fps and low.carbon_g < high.carbon_g):
            return [
                f"fig2 exact series: ({low.fps!r} FPS, {low.carbon_g!r} g) "
                f"then ({high.fps!r} FPS, {high.carbon_g!r} g)"
            ]
    return []


# -- warm versus fill -------------------------------------------------------


def check_identical(fill: Mapping[str, str], warm: Mapping[str, str]) -> List[str]:
    """Every output digest of the warm pass equals the fill's."""
    failures = []
    for name in sorted(set(fill) | set(warm)):
        if fill.get(name) != warm.get(name):
            failures.append(f"{name}: warm output differs from the fill")
    return failures


# -- output digests -----------------------------------------------------------


def _point_row(point) -> list:
    return [
        point.label,
        point.network_name,
        point.config.describe(),
        point.config.multiplier.name,
        repr(point.fps),
        repr(point.carbon_g),
        repr(point.cdp),
        repr(point.accuracy_drop_percent),
    ]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def output_digests(outputs: Mapping[str, object]) -> Dict[str, str]:
    """sha256 of every harness output, serialised with full precision.

    ``outputs`` maps the operation name to its result; operations that
    failed are absent and so never compare equal to a finished one.
    """
    digests: Dict[str, str] = {}
    for name, value in outputs.items():
        if name == "library":
            payload = [
                [
                    e.name,
                    e.origin,
                    repr(e.area_ge),
                    repr(e.metrics),
                    repr(e.dnn_metrics),
                    hashlib.sha256(
                        np.asarray(e.lut.table, np.int64).tobytes()
                    ).hexdigest(),
                    repr(sorted(e.circuit.netlist.gates.items())),
                ]
                for e in value
            ]
        elif name == "accuracy":
            measured, analytical, rho = value
            payload = [
                [repr(v) for v in measured], [repr(v) for v in analytical], repr(rho)
            ]
        elif name == "fig2_scatter":
            payload = {
                label: [_point_row(p) for p in points]
                for label, points in value.points.items()
            }
        elif name == "fig2_reduction_table":
            payload = [
                [repr(key), repr(row)] for key, row in sorted(value.reductions.items())
            ]
        elif name == "fig3_comparison":
            payload = [
                [network, node]
                + [_point_row(p) for p in (c.exact, c.approximate_only, c.ga_cdp)]
                for (network, node), c in sorted(value.cells.items())
            ]
        elif name == "pareto_sweep":
            payload = [
                [repr(key), _point_row(point)]
                for key, point in sorted(value.cells.items())
            ]
        else:  # the sensitivity sweeps
            payload = [value.parameter, repr(value.rows)]
        digests[name] = _digest(payload)
    return digests
