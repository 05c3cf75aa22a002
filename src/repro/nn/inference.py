"""Quantised CNN inference with a pluggable multiplier.

This is our ApproxTrain substitute's execution engine: a small numpy
CNN whose every multiplication goes through a supplied multiplier
function — either exact integer multiply or an approximate
:class:`~repro.approx.lut.LutMultiplier`.  Convolution is im2col-based,
so the multiplier sees plain operand arrays and the approximate LUT is
exercised on exactly the products the hardware would compute.

Two execution paths share the same prepared (pre-quantised) layers:

* :meth:`QuantCNN.forward` — the scalar reference: one multiplier per
  pass, kept in-tree as the bit-exact baseline;
* :meth:`QuantCNN.forward_stack` — the batched engine: a *stack* of M
  LUT multipliers evaluated in a single pass.  The gathered products
  carry one extra leading axis (the multiplier index); per-multiplier
  requantisation is performed with broadcast numpy ops that mirror the
  scalar code operation for operation, so ``forward_stack(x, luts)[i]``
  equals ``forward(x, luts[i])`` bit for bit.  This is what lets the
  behavioural accuracy study score a whole multiplier library in one
  inference instead of ~library-size full inferences.

The stacked hot loop additionally fans out across cores: the
``stack_workers`` knob (default ``"auto"`` — one thread per CPU, serial
inside shared-pool workers) tiles the gather/accumulate work over the
multiplier and row-block axes into a preallocated output slab.  Integer
gather+add is exact in any order, so the parallel tiling is
bit-identical to the serial reference by construction; ``1`` selects
the serial loop, which stays in-tree as that reference.

The engine deliberately supports only what the behavioural accuracy
study needs (conv + ReLU + max-pool + dense on small images); the big
zoo networks are never executed here: with no ImageNet data or
pretrained weights offline, behavioural accuracy is measured on the
synthetic task (:mod:`repro.nn.synthetic`), and the zoo layer tables
feed only the dataflow and carbon models.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.approx.lut import LutMultiplier
from repro.engine import kernels as _kernels
from repro.errors import AccuracyModelError
from repro.nn.quantize import (
    INT8_MAX,
    QuantParams,
    calibrate_scale,
    quantize_tensor,
)

#: A multiplier: signed int operand arrays -> elementwise products.
MultiplyFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

def exact_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference integer multiplier."""
    return a.astype(np.int64) * b.astype(np.int64)


@dataclass(frozen=True)
class ConvSpec:
    """A quantised 3x3/1x1 convolution layer (float master weights).

    Attributes:
        weights: float array (out_c, in_c, k, k).
        bias: optional float bias (out_c,).
        stride: convolution stride.
        padding: symmetric zero padding.
        relu: apply ReLU after requantisation.
    """

    weights: np.ndarray
    bias: Optional[np.ndarray] = None
    stride: int = 1
    padding: int = 1
    relu: bool = True

    def __post_init__(self) -> None:
        if self.weights.ndim != 4:
            raise AccuracyModelError(
                f"conv weights must be 4-D, got shape {self.weights.shape}"
            )


@dataclass(frozen=True)
class PoolSpec:
    """2x2 max pooling."""

    kernel: int = 2


@dataclass(frozen=True)
class DenseSpec:
    """A quantised dense layer.

    Attributes:
        weights: float array (out_features, in_features).
        bias: optional float bias (out_features,).
        relu: apply ReLU after requantisation.
    """

    weights: np.ndarray
    bias: Optional[np.ndarray] = None
    relu: bool = False

    def __post_init__(self) -> None:
        if self.weights.ndim != 2:
            raise AccuracyModelError(
                f"dense weights must be 2-D, got shape {self.weights.shape}"
            )


LayerSpec = Union[ConvSpec, PoolSpec, DenseSpec]


# --- prepared layers ----------------------------------------------------------
#
# Weight quantisation (calibrate_scale + quantize_tensor of *static*
# weights) is a pure function of the layer spec, so it is hoisted out of
# forward() into a prepared representation computed once per layer and
# reused by every subsequent pass — scalar and stacked alike.


@dataclass(frozen=True)
class _PreparedConv:
    """Pre-quantised convolution weights plus layout constants."""

    out_c: int
    in_c: int
    kernel: int
    stride: int
    padding: int
    relu: bool
    bias: Optional[np.ndarray]
    w_scale: float
    w_matrix: np.ndarray  # (in_c*k*k, out_c) int64 weight codes
    w_index: np.ndarray  # (in_c*k*k, out_c) pre-shifted table indices


@dataclass(frozen=True)
class _PreparedDense:
    """Pre-quantised dense weights plus layout constants."""

    out_f: int
    in_f: int
    relu: bool
    bias: Optional[np.ndarray]
    w_scale: float
    w_matrix: np.ndarray  # (in_f, out_f) int64 weight codes
    w_index: np.ndarray  # (in_f, out_f) pre-shifted table indices


PreparedLayer = Union[_PreparedConv, PoolSpec, _PreparedDense]


def _prepare_conv(layer: ConvSpec) -> _PreparedConv:
    out_c, in_c, k, _ = layer.weights.shape
    w_params = calibrate_scale(layer.weights)
    w_codes = quantize_tensor(layer.weights, w_params).astype(np.int64)
    w_matrix = w_codes.reshape(out_c, -1).T  # (in_c*k*k, out_c)
    return _PreparedConv(
        out_c=out_c,
        in_c=in_c,
        kernel=k,
        stride=layer.stride,
        padding=layer.padding,
        relu=layer.relu,
        bias=layer.bias,
        w_scale=w_params.scale,
        w_matrix=w_matrix,
        w_index=(w_matrix & 0xFF) << 8,
    )


def _prepare_dense(layer: DenseSpec) -> _PreparedDense:
    out_f, in_f = layer.weights.shape
    w_params = calibrate_scale(layer.weights)
    w_codes = quantize_tensor(layer.weights, w_params).astype(np.int64)
    w_matrix = w_codes.T  # (in_f, out_f)
    return _PreparedDense(
        out_f=out_f,
        in_f=in_f,
        relu=layer.relu,
        bias=layer.bias,
        w_scale=w_params.scale,
        w_matrix=w_matrix,
        w_index=(w_matrix & 0xFF) << 8,
    )


def _im2col(
    x: np.ndarray, kernel: int, stride: int, padding: int
) -> Tuple[np.ndarray, int, int]:
    """(N, C, H, W) -> (N, out_h*out_w, C*k*k) patch matrix.

    Stride-tricks windowing instead of a Python double loop over output
    positions; row ordering (i*out_w + j) and feature ordering (c, ki,
    kj) are identical to the loop formulation.
    """
    n, c, h, w = x.shape
    if padding:
        x = np.pad(
            x, ((0, 0), (0, 0), (padding, padding), (padding, padding))
        )
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise AccuracyModelError(
            f"conv kernel {kernel} does not fit input {h}x{w}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (kernel, kernel), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n, out_h * out_w, c * kernel * kernel
    )
    return cols, out_h, out_w


def _lut_matmul(
    activations: np.ndarray, weights: np.ndarray, multiply: MultiplyFn
) -> np.ndarray:
    """Matrix product through an elementwise multiplier function.

    activations: (rows, k) int8 codes; weights: (k, cols) int8 codes.
    Broadcasting keeps the peak temporary at rows*k*cols int64 — fine
    for the small behavioural network.
    """
    products = multiply(
        activations[:, :, np.newaxis], weights[np.newaxis, :, :]
    )
    return products.sum(axis=1)


class _LutStack:
    """M LUT multipliers folded into signed-product gather tables.

    :meth:`LutMultiplier.signed_product` applies saturation, magnitude
    lookup, and sign recombination per operand pair.  For int8 codes all
    of that is a pure function of the two operand *bytes*, so each
    multiplier folds into one 256x256 signed-product table indexed by
    ``(a & 0xFF) + ((b & 0xFF) << 8)`` — the hot loop then needs only an
    integer add and a gather per MAC, with the extra leading axis
    selecting the multiplier.
    """

    #: Distinct two's-complement operand bytes.
    BYTE_SPAN = 1 << 8

    def __init__(self, multipliers: Sequence[LutMultiplier]):
        luts = list(multipliers)
        if not luts:
            raise AccuracyModelError("multiplier stack cannot be empty")
        a_width, b_width = luts[0].a_width, luts[0].b_width
        if any(
            lut.a_width != a_width or lut.b_width != b_width for lut in luts
        ):
            raise AccuracyModelError(
                "multiplier stack requires uniform operand widths"
            )
        tables = np.stack([self._signed_table(lut) for lut in luts])
        # int32 gathers halve memory traffic; fall back to int64 only
        # for (synthetic) tables whose products exceed the int32 range.
        self.max_abs_product = int(np.abs(tables).max(initial=0))
        if self.max_abs_product < np.iinfo(np.int32).max:
            tables = tables.astype(np.int32)
        self.count = len(luts)
        self.tables = tables  # (M, 65536)

    def accum_dtype(self, k: int) -> type:
        """Narrowest exact accumulator for a k-term product sum."""
        if (
            self.tables.dtype == np.int32
            and k * self.max_abs_product < np.iinfo(np.int32).max
        ):
            return np.int32
        return np.int64

    @staticmethod
    def _signed_table(lut: LutMultiplier) -> np.ndarray:
        """Signed-product table over two's-complement operand bytes.

        Entry ``u_a + (u_b << 8)`` equals
        ``lut.signed_product(s_a, s_b)`` where ``s`` is the signed value
        of byte ``u`` — saturation and sign handling included, so the
        gather is bit-identical to the scalar multiplier call.
        """
        unsigned = np.arange(256, dtype=np.int64)
        signed = np.where(unsigned < 128, unsigned, unsigned - 256)
        mag_a = np.minimum(np.abs(signed), (1 << (lut.a_width - 1)) - 1)
        mag_b = np.minimum(np.abs(signed), (1 << (lut.b_width - 1)) - 1)
        sign = np.sign(signed)
        table = np.asarray(lut.table, dtype=np.int64)
        products = table[
            mag_a[np.newaxis, :] + (mag_b[:, np.newaxis] << lut.a_width)
        ]
        # grid is [u_b, u_a]; flattening makes entry u_a + (u_b << 8)
        return (
            (sign[np.newaxis, :] * sign[:, np.newaxis]) * products
        ).reshape(-1)


#: Process-wide default for the ``stack_workers`` knob.  ``"auto"``
#: resolves to one thread per CPU (and degrades to serial inside
#: shared-pool workers, which must not oversubscribe their machine);
#: the ``REPRO_STACK_WORKERS`` environment variable overrides it.
DEFAULT_STACK_WORKERS: Union[int, str] = "auto"

#: Minimum rows per parallel tile — smaller blocks are dominated by
#: thread dispatch and per-tile sub-table regathering.
_MIN_TILE_ROWS = 2048


def resolve_stack_workers(value: Optional[Union[int, str]] = None) -> int:
    """Resolve a ``stack_workers`` knob value to a concrete count.

    ``None`` defers to ``REPRO_STACK_WORKERS`` (when set) and then to
    :data:`DEFAULT_STACK_WORKERS`; ``"auto"`` resolves to the CPU count
    — except inside a shared-pool worker process, where it degrades to
    the serial reference so process fan-out and thread tiling do not
    multiply.  Every resolution returns bit-identical results; only
    throughput changes.
    """
    if value is None:
        value = os.environ.get("REPRO_STACK_WORKERS") or DEFAULT_STACK_WORKERS
    if isinstance(value, str):
        if value == "auto":
            from repro.engine.backends import in_pool_worker

            return 1 if in_pool_worker() else (os.cpu_count() or 1)
        if not value.isdigit():
            raise AccuracyModelError(
                f"stack_workers must be 'auto' or a positive integer, "
                f"got {value!r}"
            )
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise AccuracyModelError(
            f"stack_workers must be 'auto' or a positive integer, "
            f"got {value!r}"
        )
    return value


def _stack_tiles(
    m_count: int, rows: int, workers: int
) -> List[Tuple[int, int, int]]:
    """(multiplier, row_start, row_stop) tiles for the parallel matmul.

    The multiplier axis is tiled first (each multiplier's sub-table
    gather happens exactly once); the row axis is split only when there
    are fewer multipliers than workers, and never below
    :data:`_MIN_TILE_ROWS` rows per tile so the per-tile sub-table
    regather stays amortised.
    """
    if m_count < 1 or rows < 1:
        return []
    row_blocks = 1
    if m_count < workers:
        row_blocks = min(
            -(-workers // m_count),  # ceil: enough tiles for every worker
            max(1, rows // _MIN_TILE_ROWS),
        )
    bounds = np.linspace(0, rows, row_blocks + 1).astype(int)
    return [
        (m, int(bounds[block]), int(bounds[block + 1]))
        for m in range(m_count)
        for block in range(row_blocks)
        if bounds[block + 1] > bounds[block]
    ]


class _SlabPool(threading.local):
    """Per-thread pool of reusable scratch slabs, keyed (tag, shape, dtype).

    ``forward_stack`` reallocates the same per-tile gather scratch
    (``sub_tables``) and accumulator slabs on every layer of every
    call; pooling them per thread removes that churn without any
    locking.  Only slabs that never escape their tile are pooled — the
    returned ``out`` arrays are always fresh.  The pool is bounded: an
    unfamiliar key set (e.g. a sweep over many network shapes) clears
    it rather than growing without bound.
    """

    MAX_SLABS = 16

    def __init__(self) -> None:
        self.slabs: dict = {}

    def get(self, tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (tag, shape, np.dtype(dtype))
        slab = self.slabs.get(key)
        if slab is None:
            if len(self.slabs) >= self.MAX_SLABS:
                self.slabs.clear()
            slab = np.empty(shape, dtype=dtype)
            self.slabs[key] = slab
        return slab


_SLAB_POOL = _SlabPool()


def clear_slab_pool() -> None:
    """Drop the calling thread's pooled scratch slabs (test hook)."""
    _SLAB_POOL.slabs.clear()


def _lut_matmul_stack(
    activations: np.ndarray,
    w_index: np.ndarray,
    stack: _LutStack,
    workers: int = 1,
    kernel_tier: Optional[str] = None,
) -> np.ndarray:
    """Matrix product of M LUT multipliers in one pass.

    Args:
        activations: (Ma, rows, k) signed int16 codes, where Ma is
            either 1 (all multipliers still see identical activations —
            the first layer) or M (diverged activations per multiplier).
        w_index: (k, cols) pre-shifted weight-byte indices.
        stack: the stacked signed-product tables.
        workers: resolved thread count for the tiled fan-out; ``1``
            keeps the serial reference loop.
        kernel_tier: compiled-kernel tier request for the tile loop
            (``None`` = ambient default); see
            :mod:`repro.engine.kernels`.  Every tier returns
            bit-identical accumulators.

    Returns:
        (M, rows, cols) int64 accumulators; slice ``[i]`` is identical
        to ``_lut_matmul(activations[i or 0], w_matrix, luts[i])``.

    The per-MAC lookup is reorganised around the weights being fixed
    per layer: for every kernel position k the reachable products form
    a (256, cols) sub-table, so one row-gather per position fetches a
    whole cols-vector of products from an L1-resident table and
    accumulates it in place — per-MAC work collapses to one gathered
    add instead of index arithmetic plus a scalar gather from the full
    64 K-entry LUT.  The extra leading axis selects the multiplier.
    Integer accumulation is exact, so neither the iteration order, the
    (narrowest-exact) accumulator dtype, the thread tiling, nor a
    compiled kernel tier can change the result: every variant computes
    the same per-element gather+add chains into disjoint slabs of one
    preallocated output.
    """
    m_count = stack.count
    ma, rows, k = activations.shape
    cols = w_index.shape[1]
    if ma not in (1, m_count):
        raise AccuracyModelError(
            f"activation stack of {ma} does not match {m_count} multipliers"
        )

    out = np.empty((m_count, rows, cols), dtype=np.int64)
    tiles = _stack_tiles(m_count, rows, workers) if workers > 1 else []

    impl = _kernels.get_kernel(kernel_tier)
    if impl.lut_tile is not None:
        # compiled tile kernel: gathers straight from the full table,
        # no (k, 256, cols) sub-table materialisation
        acts = np.ascontiguousarray(activations, dtype=np.int16)
        w_idx = np.ascontiguousarray(w_index, dtype=np.int64)
        lut_tile = impl.lut_tile

        def run_kernel_tile(tile: Tuple[int, int, int]) -> None:
            m, start, stop = tile
            src = acts[0] if ma == 1 else acts[m]
            lut_tile(
                stack.tables[m], w_idx, src[start:stop], out[m, start:stop]
            )

        if len(tiles) > 1:
            # ctypes calls release the GIL, so the existing
            # thread tiling composes with the compiled kernel
            with ThreadPoolExecutor(
                max_workers=min(workers, len(tiles))
            ) as pool:
                list(pool.map(run_kernel_tile, tiles))
        else:
            for m in range(m_count):
                run_kernel_tile((m, 0, rows))
        return out

    # (k, 256, cols) product sub-tables: entry [kk, byte, c] is the
    # product of activation `byte` with weight position (kk, c)
    gather_index = (
        np.arange(_LutStack.BYTE_SPAN)[np.newaxis, :, np.newaxis]
        + w_index[:, np.newaxis, :]
    )
    sum_dtype = stack.accum_dtype(k)
    sub_shape = (k, _LutStack.BYTE_SPAN, cols)
    table_dtype = stack.tables.dtype

    if len(tiles) > 1:
        # hoisted once when all multipliers share activations — tiles
        # slice it read-only instead of re-deriving it per multiplier
        shared_tile_bytes = (
            (activations[0] & 0xFF).astype(np.intp) if ma == 1 else None
        )

        def run_tile(tile: Tuple[int, int, int]) -> None:
            m, start, stop = tile
            sub_tables = _SLAB_POOL.get("lut_sub", sub_shape, table_dtype)
            np.take(stack.tables[m], gather_index, out=sub_tables)
            if shared_tile_bytes is not None:
                a_bytes = shared_tile_bytes[start:stop]
            else:
                a_bytes = (activations[m][start:stop] & 0xFF).astype(np.intp)
            accum = _SLAB_POOL.get(
                "lut_accum", (stop - start, cols), sum_dtype
            )
            accum.fill(0)
            for position in range(k):
                accum += sub_tables[position][a_bytes[:, position]]
            out[m, start:stop] = accum

        # numpy's gather and in-place add release the GIL, so thread
        # tiling scales without pickling the (large) activation stacks
        with ThreadPoolExecutor(
            max_workers=min(workers, len(tiles))
        ) as pool:
            # list() drains the iterator so worker exceptions propagate
            list(pool.map(run_tile, tiles))
        return out

    shared_bytes = (
        (activations[0] & 0xFF).astype(np.intp) if ma == 1 else None
    )
    for m in range(m_count):
        sub_tables = _SLAB_POOL.get("lut_sub", sub_shape, table_dtype)
        np.take(stack.tables[m], gather_index, out=sub_tables)
        a_bytes = (
            shared_bytes
            if shared_bytes is not None
            else (activations[m] & 0xFF).astype(np.intp)
        )
        accum = _SLAB_POOL.get("lut_accum", (rows, cols), sum_dtype)
        accum.fill(0)
        for position in range(k):
            accum += sub_tables[position][a_bytes[:, position]]
        out[m] = accum
    return out


def _requantize_stack(
    accum: np.ndarray, in_scales: np.ndarray, w_scale: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-multiplier requantisation of stacked int accumulators.

    Mirrors the scalar ``_requantize`` (calibrate from the accumulator
    range, then round/saturate) with one broadcast op per scalar op, so
    every slice along the leading axis is bit-identical to the scalar
    path run on that multiplier alone.
    """
    m_count = accum.shape[0]
    tail = (m_count,) + (1,) * (accum.ndim - 1)
    factors = in_scales * w_scale
    real = accum.astype(np.float64)
    np.multiply(real, factors.reshape(tail), out=real)
    # max|x| as max(max, -min): same floats, no |x| temporary
    flat = real.reshape(m_count, -1)
    max_abs = np.maximum(flat.max(axis=1), -flat.min(axis=1))
    scales = np.where(max_abs == 0.0, 1.0 / INT8_MAX, max_abs / INT8_MAX)
    np.divide(real, scales.reshape(tail), out=real)
    np.round(real, out=real)
    np.clip(real, -INT8_MAX, INT8_MAX, out=real)
    # int16 holds every int8-range code exactly; the narrower dtype
    # keeps the stacked activations' transpose/pool copies cheap
    return real.astype(np.int16), scales


@dataclass
class QuantCNN:
    """A quantised CNN executed through a pluggable multiplier.

    Attributes:
        layers: layer specifications in order.
        input_params: quantisation of the (float) input tensor.
    """

    layers: List[LayerSpec] = field(default_factory=list)
    input_params: Optional[QuantParams] = None
    _prepared: Optional[List[PreparedLayer]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _prepared_signature: Optional[Tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def calibrate(self, sample_inputs: np.ndarray) -> None:
        """Fix the input quantisation scale from a calibration batch."""
        self.input_params = calibrate_scale(sample_inputs)

    def _layer_signature(self) -> Tuple:
        """Identity *and* content fingerprint of the layer list.

        Layer weights are semantically static, but nothing stops a
        caller from mutating an array in place (the specs are frozen,
        their ndarrays are not) — so the memo key hashes the weight
        bytes too.  The behavioural networks are tiny, making the hash
        negligible next to one forward pass.
        """
        parts = []
        for layer in self.layers:
            if isinstance(layer, PoolSpec):
                parts.append((id(layer), layer.kernel))
            elif isinstance(layer, ConvSpec):
                bias = b"" if layer.bias is None else layer.bias.tobytes()
                parts.append(
                    (
                        id(layer), "conv", layer.stride, layer.padding,
                        layer.relu, hash(layer.weights.tobytes()), hash(bias),
                    )
                )
            else:
                bias = b"" if layer.bias is None else layer.bias.tobytes()
                parts.append(
                    (
                        id(layer), "dense", layer.relu,
                        hash(layer.weights.tobytes()), hash(bias),
                    )
                )
        return tuple(parts)

    def prepared_layers(self) -> List[PreparedLayer]:
        """Layers with weight quantisation hoisted out of forward().

        Static weights are quantised once and memoised; the cache is
        invalidated when the layer list changes — by identity or by
        in-place weight mutation.
        """
        signature = self._layer_signature()
        if self._prepared is None or self._prepared_signature != signature:
            prepared: List[PreparedLayer] = []
            for layer in self.layers:
                if isinstance(layer, ConvSpec):
                    prepared.append(_prepare_conv(layer))
                elif isinstance(layer, PoolSpec):
                    prepared.append(layer)
                elif isinstance(layer, DenseSpec):
                    prepared.append(_prepare_dense(layer))
                else:  # pragma: no cover - exhaustive over LayerSpec
                    raise AccuracyModelError(f"unknown layer spec {layer!r}")
            self._prepared = prepared
            self._prepared_signature = signature
        return self._prepared

    def _check_input(self, x: np.ndarray) -> None:
        if self.input_params is None:
            raise AccuracyModelError(
                "QuantCNN.calibrate must run before forward"
            )
        if x.ndim != 4:
            raise AccuracyModelError(
                f"input must be (N, C, H, W), got shape {x.shape}"
            )

    # ------------------------------------------------------------------

    def forward(
        self,
        x: np.ndarray,
        multiply: MultiplyFn = exact_multiply,
    ) -> np.ndarray:
        """Run a float batch through the quantised network.

        Args:
            x: inputs shaped (N, C, H, W).
            multiply: elementwise integer multiplier (exact or LUT).

        Returns:
            Float logits (N, classes).
        """
        self._check_input(x)
        codes = quantize_tensor(x, self.input_params)
        scale = self.input_params.scale
        value = codes.astype(np.int64)

        for layer in self.prepared_layers():
            if isinstance(layer, _PreparedConv):
                value, scale = self._conv(value, scale, layer, multiply)
            elif isinstance(layer, PoolSpec):
                value = self._pool(value, layer)
            else:
                value, scale = self._dense(value, scale, layer, multiply)
        return value.astype(np.float64) * scale

    def predict(
        self, x: np.ndarray, multiply: MultiplyFn = exact_multiply
    ) -> np.ndarray:
        """Argmax class predictions for a float batch."""
        return np.argmax(self.forward(x, multiply), axis=1)

    # --- stacked (library-batched) path ---------------------------------

    def forward_stack(
        self,
        x: np.ndarray,
        multipliers: Sequence[LutMultiplier],
        stack_workers: Optional[Union[int, str]] = None,
        kernel_tier: Optional[str] = None,
    ) -> np.ndarray:
        """Run a float batch under a stack of M LUT multipliers at once.

        Args:
            x: inputs shaped (N, C, H, W).
            multipliers: LUT multipliers sharing one operand geometry.
            stack_workers: thread count for the tiled gather fan-out —
                ``"auto"`` (one per CPU), a positive integer, or
                ``None`` to defer to :data:`DEFAULT_STACK_WORKERS` /
                ``REPRO_STACK_WORKERS``.  ``1`` is the serial
                reference; every value returns bit-identical logits.
            kernel_tier: compiled-kernel tier for the gather loop
                (``None`` = ambient default, ``REPRO_KERNEL_TIER`` then
                ``auto``); every tier returns bit-identical logits.

        Returns:
            Float logits (M, N, classes); slice ``[i]`` is bit-identical
            to ``forward(x, multipliers[i])``.

        Raises:
            AccuracyModelError: on empty stacks or mixed operand widths
                (mixed-width stacks have no shared index space; fall
                back to the scalar path for those).
        """
        self._check_input(x)
        stack = _LutStack(multipliers)
        workers = resolve_stack_workers(stack_workers)

        codes = quantize_tensor(x, self.input_params)
        # int16 activations: lossless for int8-range codes, and byte
        # masking (& 0xFF) still yields the two's-complement byte
        value = codes.astype(np.int16)[np.newaxis]  # (1, N, C, H, W)
        scales = np.full(stack.count, self.input_params.scale, dtype=np.float64)

        for layer in self.prepared_layers():
            if isinstance(layer, _PreparedConv):
                value, scales = self._conv_stack(
                    value, scales, layer, stack, workers, kernel_tier
                )
            elif isinstance(layer, PoolSpec):
                value = self._pool_stack(value, layer)
            else:
                value, scales = self._dense_stack(
                    value, scales, layer, stack, workers, kernel_tier
                )
        tail = (scales.shape[0],) + (1,) * (value.ndim - 1)
        return value.astype(np.float64) * scales.reshape(tail)

    def predict_stack(
        self,
        x: np.ndarray,
        multipliers: Sequence[LutMultiplier],
        stack_workers: Optional[Union[int, str]] = None,
        kernel_tier: Optional[str] = None,
    ) -> np.ndarray:
        """Argmax predictions (M, N) under a stack of LUT multipliers."""
        return np.argmax(
            self.forward_stack(
                x,
                multipliers,
                stack_workers=stack_workers,
                kernel_tier=kernel_tier,
            ),
            axis=2,
        )

    # --- layer implementations ------------------------------------------

    @staticmethod
    def _requantize(
        accum: np.ndarray, in_scale: float, w_scale: float
    ) -> Tuple[np.ndarray, float]:
        """Rescale int32 accumulators back to int8 codes.

        Chooses the output scale from the accumulator range, mimicking a
        calibrated requantisation stage.
        """
        real = accum.astype(np.float64) * (in_scale * w_scale)
        params = calibrate_scale(real)
        return quantize_tensor(real, params).astype(np.int64), params.scale

    def _conv(
        self,
        value: np.ndarray,
        scale: float,
        layer: _PreparedConv,
        multiply: MultiplyFn,
    ) -> Tuple[np.ndarray, float]:
        if value.shape[1] != layer.in_c:
            raise AccuracyModelError(
                f"conv expects {layer.in_c} input channels, got {value.shape[1]}"
            )
        cols, out_h, out_w = _im2col(
            value, layer.kernel, layer.stride, layer.padding
        )

        n = value.shape[0]
        accum = np.empty((n, out_h * out_w, layer.out_c), dtype=np.int64)
        for image in range(n):
            accum[image] = _lut_matmul(cols[image], layer.w_matrix, multiply)

        if layer.bias is not None:
            bias_codes = np.round(
                layer.bias / (scale * layer.w_scale)
            ).astype(np.int64)
            accum += bias_codes[np.newaxis, np.newaxis, :]

        accum = accum.transpose(0, 2, 1).reshape(n, layer.out_c, out_h, out_w)
        codes, new_scale = self._requantize(accum, scale, layer.w_scale)
        if layer.relu:
            codes = np.maximum(codes, 0)
        return codes, new_scale

    def _conv_stack(
        self,
        value: np.ndarray,
        scales: np.ndarray,
        layer: _PreparedConv,
        stack: _LutStack,
        workers: int = 1,
        kernel_tier: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        ma, n = value.shape[0], value.shape[1]
        if value.shape[2] != layer.in_c:
            raise AccuracyModelError(
                f"conv expects {layer.in_c} input channels, got {value.shape[2]}"
            )
        flat = value.reshape((ma * n,) + value.shape[2:])
        cols, out_h, out_w = _im2col(
            flat, layer.kernel, layer.stride, layer.padding
        )
        cols = cols.reshape(ma, n * out_h * out_w, cols.shape[2])

        accum = _lut_matmul_stack(
            cols, layer.w_index, stack, workers, kernel_tier
        )
        m_count = stack.count
        accum = accum.reshape(m_count, n, out_h * out_w, layer.out_c)

        if layer.bias is not None:
            factors = scales * layer.w_scale
            bias_codes = np.round(
                layer.bias[np.newaxis, :] / factors[:, np.newaxis]
            ).astype(np.int64)
            accum += bias_codes[:, np.newaxis, np.newaxis, :]

        accum = accum.transpose(0, 1, 3, 2).reshape(
            m_count, n, layer.out_c, out_h, out_w
        )
        codes, new_scales = _requantize_stack(accum, scales, layer.w_scale)
        if layer.relu:
            codes = np.maximum(codes, 0)
        return codes, new_scales

    @staticmethod
    def _pool(value: np.ndarray, layer: PoolSpec) -> np.ndarray:
        n, c, h, w = value.shape
        k = layer.kernel
        if h % k or w % k:
            raise AccuracyModelError(
                f"pool kernel {k} does not tile input {h}x{w}"
            )
        reshaped = value.reshape(n, c, h // k, k, w // k, k)
        return reshaped.max(axis=(3, 5))

    @staticmethod
    def _pool_stack(value: np.ndarray, layer: PoolSpec) -> np.ndarray:
        ma, n, c, h, w = value.shape
        k = layer.kernel
        if h % k or w % k:
            raise AccuracyModelError(
                f"pool kernel {k} does not tile input {h}x{w}"
            )
        reshaped = value.reshape(ma, n, c, h // k, k, w // k, k)
        return reshaped.max(axis=(4, 6))

    def _dense(
        self,
        value: np.ndarray,
        scale: float,
        layer: _PreparedDense,
        multiply: MultiplyFn,
    ) -> Tuple[np.ndarray, float]:
        n = value.shape[0]
        flat = value.reshape(n, -1)
        if flat.shape[1] != layer.in_f:
            raise AccuracyModelError(
                f"dense expects {layer.in_f} features, got {flat.shape[1]}"
            )
        accum = _lut_matmul(flat, layer.w_matrix, multiply)
        if layer.bias is not None:
            accum = accum + np.round(
                layer.bias / (scale * layer.w_scale)
            ).astype(np.int64)

        codes, new_scale = self._requantize(accum, scale, layer.w_scale)
        if layer.relu:
            codes = np.maximum(codes, 0)
        return codes, new_scale

    def _dense_stack(
        self,
        value: np.ndarray,
        scales: np.ndarray,
        layer: _PreparedDense,
        stack: _LutStack,
        workers: int = 1,
        kernel_tier: Optional[str] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        ma, n = value.shape[0], value.shape[1]
        flat = value.reshape(ma, n, -1)
        if flat.shape[2] != layer.in_f:
            raise AccuracyModelError(
                f"dense expects {layer.in_f} features, got {flat.shape[2]}"
            )
        accum = _lut_matmul_stack(
            flat, layer.w_index, stack, workers, kernel_tier
        )
        if layer.bias is not None:
            factors = scales * layer.w_scale
            bias_codes = np.round(
                layer.bias[np.newaxis, :] / factors[:, np.newaxis]
            ).astype(np.int64)
            accum = accum + bias_codes[:, np.newaxis, :]

        codes, new_scales = _requantize_stack(accum, scales, layer.w_scale)
        if layer.relu:
            codes = np.maximum(codes, 0)
        return codes, new_scales
