"""Pluggable compiled-kernel tiers for the two hot inner loops.

The engine's hottest loops — the packed uint64 circuit slabs of
:mod:`repro.circuits.batched` (exhaustive population simulation, table
packing, and the constant-propagation/liveness area sweep) and the LUT
gather+accumulate of :mod:`repro.nn.inference` — are numpy-bound
Python.  This module puts optional native implementations of those
loops behind a small registry (:func:`register_kernel_tier`):

* ``numpy``  — the in-tree reference (no compiled ops; callers keep
  their vectorized numpy path).  Always available.
* ``c``      — a tiny C library compiled at import time with the host
  toolchain (``cc``/``gcc``/``clang``) and called through ctypes
  (:mod:`repro.engine.kernels_c`).  Skipped when no compiler exists.

Selection goes through :func:`resolve_kernel_tier`: an explicit tier
name, the ``REPRO_KERNEL_TIER`` environment variable, or ``auto`` (the
default — the fastest *available* tier).  A requested tier that cannot
load degrades to ``numpy`` with a :class:`RuntimeWarning` instead of
failing: every tier is bit-identical to the numpy reference (the
property suite in ``tests/engine/test_kernels.py`` pins this), so
degradation changes throughput, never results.

Each non-numpy tier must pass a hard-coded self-test at load time
(:func:`self_test_kernel`); a tier whose compiled code diverges marks
itself unavailable rather than silently corrupting a search.

Process pools: the module registers a ``kernel_tier`` fork-context
provider so the shared warm process pool reforks when the ambient tier
selection changes.  :func:`kernel_availability` stamps the benchmark
reports.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ExperimentError

#: Environment variable naming the default kernel tier.  Pool workers
#: inherit the parent's environment, so setting it (e.g. via the CLI's
#: ``--kernel-tier``) propagates the selection to every worker the run
#: forks.
KERNEL_TIER_ENV = "REPRO_KERNEL_TIER"

#: The always-available reference tier.
NUMPY_TIER = "numpy"

#: The pseudo-tier resolving to the fastest available implementation.
AUTO_TIER = "auto"


class KernelError(ExperimentError):
    """A kernel tier failed to load or failed its self-test."""


# --------------------------------------------------------------------------
# Kernel plans: flat array views of the compiled circuit program.
#
# The plan objects carry everything a native kernel needs as plain
# contiguous numpy arrays, so the implementation module (C) depends
# only on this module, never on repro.circuits.
# --------------------------------------------------------------------------

#: Operand/result source codes used by :class:`SlabPlan`.
SRC_BUFFER = 0  #: a gate-output slab in the workspace
SRC_PATTERN = 1  #: a broadcast packed input-pattern row
SRC_ZERO = 2  #: the all-zeros constant row
SRC_ONES = 3  #: the all-ones constant row


@dataclass
class SlabPlan:
    """Flat program for the population simulation + table packing.

    Gate kinds use the fixed ``repro.circuits.batched`` code order
    (NOT=0, BUF=1, AND=2, OR=3, NAND=4, NOR=5, XOR=6, XNOR=7, MUX=8).
    Buffers are register-allocated from the evaluator's slab-freeing
    plan, so the native workspace peak equals the numpy path's peak
    live slab count.
    """

    n_cases: int
    n_words: int
    n_cands: int
    n_buffers: int
    op_kind: np.ndarray  # (n_steps,) int8 gate-kind codes
    out_buf: np.ndarray  # (n_steps,) int32 output buffer index
    in_src: np.ndarray  # (n_steps, 3) uint8 SRC_* codes
    in_index: np.ndarray  # (n_steps, 3) int32 buffer/pattern index
    patterns: np.ndarray  # (n_inputs, n_words) uint64 packed inputs
    tie_offsets: np.ndarray  # (n_steps + 1,) int64 into tie_cand/const
    tie_cand: np.ndarray  # (n_ties,) int32 candidate index
    tie_const: np.ndarray  # (n_ties,) uint8 tie constant (0/1)
    res_src: np.ndarray  # (n_results,) uint8 SRC_* codes
    res_index: np.ndarray  # (n_results,) int32 buffer/pattern index


@dataclass
class SweepPlan:
    """Flat state for the per-genome constant-prop + liveness sweep.

    The native sweep replays :func:`repro.circuits.transform.simplify`
    per genome: every pass processes every gate in program order with
    the exact ``simplify_gate`` algebra (processing a gate whose
    inputs did not change is the identity, so the numpy path's shared
    dirty sets and this exhaustive scan reach identical pass-k states),
    capped at the same 16 passes, followed by alias path compression,
    backward liveness from the primary outputs, and an exact float64
    GE sum (every cell size is a multiple of 0.25, so summation order
    cannot perturb the total).
    """

    n_slots: int
    n_cands: int
    max_passes: int
    gate_out: np.ndarray  # (n_gates,) int32 output slot per gate
    kind0: np.ndarray  # (n_gates,) int8 gate-kind codes
    ins0: np.ndarray  # (n_gates, 3) int32 input slots
    val0: np.ndarray  # (n_slots,) int8 known value (-1 unknown)
    is_gate0: np.ndarray  # (n_slots,) uint8 slot is a live gate output
    cand_slots: np.ndarray  # (n_cands,) int32 prunable-wire slots
    cand_consts: np.ndarray  # (n_cands,) int8 tie constants
    out_slots: np.ndarray  # (n_outs,) int32 primary-output slots
    arity: np.ndarray  # (n_kinds,) int8 arity per kind code
    ge: np.ndarray  # (n_kinds,) float64 gate equivalents per kind


@dataclass
class KernelImpl:
    """One loaded kernel tier.

    Attributes:
        name: registry name (``numpy`` / ``c`` / ...).
        version: human-readable backing-dependency version (e.g.
            ``numpy 2.4.6``, a compiler id for the C tier) stamped into
            benchmark reports.
        simulate_tables: optional ``(SlabPlan, ties) -> (P, n_cases)
            uint64`` exhaustive result tables (``ties`` is the boolean
            ``(P, n_cands)`` genome matrix).
        sweep_ge: optional ``(SweepPlan, ties) -> (P,) float64``
            pruned-and-simplified areas.
        lut_tile: optional in-place LUT tile kernel
            ``(table, w_index, activations, out) -> None`` where
            ``table`` is one multiplier's (65536,) signed-product
            table (int32 or int64), ``w_index`` the (k, cols) int64
            pre-shifted weight indices, ``activations`` a contiguous
            (rows, k) int16 activation slab, and ``out`` the (rows,
            cols) int64 output slab to overwrite.

    The numpy tier carries no callables — callers keep their in-tree
    vectorized path, which stays the bit-identity reference.
    """

    name: str
    version: str
    simulate_tables: Optional[Callable[..., np.ndarray]] = None
    sweep_ge: Optional[Callable[..., np.ndarray]] = None
    lut_tile: Optional[Callable[..., None]] = None


# --------------------------------------------------------------------------
# Registry.
# --------------------------------------------------------------------------

#: name -> (priority, loader).  Higher priority wins ``auto``.
_TIER_FACTORIES: Dict[str, Tuple[int, Callable[[], KernelImpl]]] = {}
#: name -> loaded impl, or None when the load failed.
_LOADED: Dict[str, Optional[KernelImpl]] = {}
#: name -> load-failure reason (for diagnostics).
_LOAD_ERRORS: Dict[str, str] = {}
#: (requested, resolved) pairs already warned about (warn once each).
_WARNED: set = set()
_LOCK = threading.RLock()


def register_kernel_tier(
    name: str, loader: Callable[[], KernelImpl], priority: int = 0
) -> None:
    """Register a kernel tier under a ``--kernel-tier`` name.

    ``loader`` is called lazily (once) and must return a
    :class:`KernelImpl`; raising :class:`KernelError` (or anything
    else) marks the tier unavailable.  ``priority`` orders ``auto``
    resolution — highest available wins.  Registration is idempotent
    per name (latest loader wins).
    """
    with _LOCK:
        _TIER_FACTORIES[name] = (priority, loader)
        _LOADED.pop(name, None)
        _LOAD_ERRORS.pop(name, None)


def kernel_tier_names() -> Tuple[str, ...]:
    """Registered tier names in descending auto-priority order."""
    with _LOCK:
        return tuple(
            sorted(
                _TIER_FACTORIES,
                key=lambda name: -_TIER_FACTORIES[name][0],
            )
        )


def _load(name: str) -> Optional[KernelImpl]:
    """Load (once) and cache a tier; ``None`` when unavailable."""
    with _LOCK:
        if name in _LOADED:
            return _LOADED[name]
        entry = _TIER_FACTORIES.get(name)
        if entry is None:
            _LOADED[name] = None
            _LOAD_ERRORS[name] = f"unknown kernel tier {name!r}"
            return None
        try:
            impl = entry[1]()
        except Exception as exc:  # any load failure means "unavailable"
            _LOADED[name] = None
            _LOAD_ERRORS[name] = f"{type(exc).__name__}: {exc}"
            return None
        _LOADED[name] = impl
        return impl


def kernel_available(name: str) -> bool:
    """Whether a tier loads (and passes its self-test) here."""
    return _load(name) is not None


def kernel_availability() -> Dict[str, bool]:
    """Availability of every registered tier on this host.

    This is the map benchmark reports stamp, so cross-environment perf
    trajectories stay diagnosable.
    """
    return {name: kernel_available(name) for name in kernel_tier_names()}


def kernel_load_error(name: str) -> Optional[str]:
    """Why a tier is unavailable (``None`` when it loaded fine)."""
    with _LOCK:
        _load(name)
        return _LOAD_ERRORS.get(name)


def validate_kernel_tier(tier: Optional[str]) -> None:
    """Fail fast on an unknown tier name (availability not required).

    ``None`` and ``auto`` are always valid; an unavailable-but-known
    tier is valid too (it degrades to numpy with a warning at resolve
    time — an engine config written on a machine with a C compiler must
    still load on a numpy-only one).
    """
    if tier is None or tier == AUTO_TIER:
        return
    if tier not in _TIER_FACTORIES:
        raise ExperimentError(
            f"unknown kernel tier {tier!r}; expected one of "
            f"{(AUTO_TIER,) + kernel_tier_names()}"
        )


def default_kernel_tier() -> str:
    """The ambient tier selection: ``REPRO_KERNEL_TIER`` or ``auto``."""
    value = os.environ.get(KERNEL_TIER_ENV, "").strip()
    return value if value else AUTO_TIER


def _warn_once(requested: str, resolved: str, reason: str) -> None:
    key = (requested, resolved)
    with _LOCK:
        if key in _WARNED:
            return
        _WARNED.add(key)
    warnings.warn(
        f"kernel tier {requested!r} is unavailable ({reason}); "
        f"degrading to {resolved!r} — results are bit-identical, only "
        "throughput changes",
        RuntimeWarning,
        stacklevel=3,
    )


def resolve_kernel_tier(tier: Optional[str] = None) -> str:
    """Resolve a tier request to the name of a loadable tier.

    ``None`` defers to :func:`default_kernel_tier` (the
    ``REPRO_KERNEL_TIER`` environment variable, then ``auto``);
    ``auto`` picks the highest-priority available tier.  A request
    that cannot be satisfied degrades to ``numpy`` with a
    once-per-pair :class:`RuntimeWarning`; an unknown name raises.
    """
    requested = tier if tier is not None else default_kernel_tier()
    validate_kernel_tier(requested)
    if requested == AUTO_TIER:
        for name in kernel_tier_names():
            if kernel_available(name):
                if name == NUMPY_TIER and len(_TIER_FACTORIES) > 1:
                    _warn_once(
                        AUTO_TIER, NUMPY_TIER, "no compiled tier loads here"
                    )
                return name
        return NUMPY_TIER  # pragma: no cover - numpy always registers
    if kernel_available(requested):
        return requested
    _warn_once(
        requested,
        NUMPY_TIER,
        kernel_load_error(requested) or "failed to load",
    )
    return NUMPY_TIER


def get_kernel(tier: Optional[str] = None) -> KernelImpl:
    """The loaded :class:`KernelImpl` for a (resolved) tier request."""
    impl = _load(resolve_kernel_tier(tier))
    assert impl is not None  # resolve only returns loadable tiers
    return impl


def _reset_kernel_registry_for_tests(
    forget_loaded: bool = True,
) -> None:
    """Test hook: clear the warn-once set (and the load cache)."""
    with _LOCK:
        _WARNED.clear()
        if forget_loaded:
            _LOADED.clear()
            _LOAD_ERRORS.clear()


# --------------------------------------------------------------------------
# Self-test: a tiny hard-coded circuit + LUT tile every compiled tier
# must reproduce exactly before it is allowed to serve real work.
# --------------------------------------------------------------------------


def _self_test_plans() -> Tuple[SlabPlan, SweepPlan, np.ndarray]:
    """A two-input, two-gate fixture: g0 = a AND b, g1 = NOT g0.

    Result bus = (g0, g1); one prunable candidate ties g0 to 1.
    Returns ``(slab_plan, sweep_plan, ties)`` for populations
    ``[no-tie, tie]``.
    """
    # packed exhaustive patterns for 2 inputs (4 cases, 1 word):
    # a = case bit 0 -> 0b1010, b = case bit 1 -> 0b1100
    patterns = np.array([[0b1010], [0b1100]], dtype=np.uint64)
    slab = SlabPlan(
        n_cases=4,
        n_words=1,
        n_cands=1,
        n_buffers=2,
        op_kind=np.array([2, 0], dtype=np.int8),  # AND, NOT
        out_buf=np.array([0, 1], dtype=np.int32),
        in_src=np.array(
            [[SRC_PATTERN, SRC_PATTERN, SRC_ZERO],
             [SRC_BUFFER, SRC_ZERO, SRC_ZERO]],
            dtype=np.uint8,
        ),
        in_index=np.array([[0, 1, 0], [0, 0, 0]], dtype=np.int32),
        patterns=patterns,
        tie_offsets=np.array([0, 1, 1], dtype=np.int64),
        tie_cand=np.array([0], dtype=np.int32),
        tie_const=np.array([1], dtype=np.uint8),
        res_src=np.array([SRC_BUFFER, SRC_BUFFER], dtype=np.uint8),
        res_index=np.array([0, 1], dtype=np.int32),
    )
    # slots: 0 = a, 1 = b, 2 = g0, 3 = g1
    sweep = SweepPlan(
        n_slots=4,
        n_cands=1,
        max_passes=16,
        gate_out=np.array([2, 3], dtype=np.int32),
        kind0=np.array([2, 0], dtype=np.int8),
        ins0=np.array([[0, 1, 0], [2, 0, 0]], dtype=np.int32),
        val0=np.full(4, -1, dtype=np.int8),
        is_gate0=np.array([0, 0, 1, 1], dtype=np.uint8),
        cand_slots=np.array([2], dtype=np.int32),
        cand_consts=np.array([1], dtype=np.int8),
        out_slots=np.array([2, 3], dtype=np.int32),
        arity=np.array([1, 1, 2, 2, 2, 2, 2, 2, 3], dtype=np.int8),
        ge=np.array(
            [0.5, 1.0, 1.5, 1.5, 1.0, 1.0, 2.5, 2.5, 3.0],
            dtype=np.float64,
        ),
    )
    ties = np.array([[False], [True]], dtype=bool)
    return slab, sweep, ties


def self_test_kernel(impl: KernelImpl) -> None:
    """Assert an implementation's ops on hard-coded fixtures.

    Raises :class:`KernelError` on any divergence; tier loaders call
    this so a miscompiled/misbehaving tier disables itself instead of
    corrupting searches.
    """
    slab, sweep, ties = _self_test_plans()
    if impl.simulate_tables is not None:
        tables = np.asarray(impl.simulate_tables(slab, ties))
        # genome 0: g0 = a&b = 0001, g1 = ~g0 -> bit1 set unless case 3
        # genome 1: g0 tied to 1 -> 1111, g1 = ~1 = 0
        expected = np.array(
            [[2, 2, 2, 1], [1, 1, 1, 1]], dtype=np.uint64
        )
        if tables.shape != (2, 4) or not np.array_equal(
            tables.astype(np.uint64), expected
        ):
            raise KernelError(
                f"{impl.name}: simulate_tables self-test diverged "
                f"(got {tables.tolist()!r}, want {expected.tolist()!r})"
            )
    if impl.sweep_ge is not None:
        areas = np.asarray(impl.sweep_ge(sweep, ties))
        # genome 0: both gates live -> 1.5 + 0.5; genome 1: g0 pruned,
        # NOT folds to constant 0 -> nothing live
        expected_ge = np.array([2.0, 0.0], dtype=np.float64)
        if areas.shape != (2,) or not np.array_equal(areas, expected_ge):
            raise KernelError(
                f"{impl.name}: sweep_ge self-test diverged "
                f"(got {areas.tolist()!r}, want {expected_ge.tolist()!r})"
            )
    if impl.lut_tile is not None:
        rng = np.random.default_rng(0)
        table = rng.integers(-500, 500, size=65536).astype(np.int64)
        rows, k, cols = 5, 3, 4
        w_index = (
            (rng.integers(-128, 128, size=(k, cols)) & 0xFF) << 8
        ).astype(np.int64)
        acts = rng.integers(-128, 128, size=(rows, k)).astype(np.int16)
        for dtype in (np.int32, np.int64):
            tab = table.astype(dtype)
            out = np.empty((rows, cols), dtype=np.int64)
            impl.lut_tile(tab, w_index, acts, out)
            a_bytes = (acts & 0xFF).astype(np.intp)
            expected_out = np.zeros((rows, cols), dtype=np.int64)
            for position in range(k):
                expected_out += tab[a_bytes[:, position, None] + w_index[position]]
            if not np.array_equal(out, expected_out):
                raise KernelError(
                    f"{impl.name}: lut_tile self-test diverged for "
                    f"{np.dtype(dtype).name} tables"
                )


# --------------------------------------------------------------------------
# Built-in tiers.
# --------------------------------------------------------------------------


def _load_numpy_tier() -> KernelImpl:
    return KernelImpl(name=NUMPY_TIER, version=f"numpy {np.__version__}")


def _load_c_tier() -> KernelImpl:
    from repro.engine import kernels_c

    return kernels_c.load()


register_kernel_tier(NUMPY_TIER, _load_numpy_tier, priority=0)
register_kernel_tier("c", _load_c_tier, priority=100)


# The warm process pool forks its workers once; a pool forked under a
# different ambient kernel-tier selection would silently keep running
# the old tier (same results, wrong throughput), so the resolved
# default joins the fork-context fingerprint and such pools refork.
def _pool_kernel_context() -> str:
    return default_kernel_tier()


def _register_pool_provider() -> None:
    from repro.engine.backends import register_pool_context_provider

    register_pool_context_provider("kernel_tier", _pool_kernel_context)


_register_pool_provider()
