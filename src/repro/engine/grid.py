"""Sharded experiment-grid execution over the local backends.

Every experiment harness enumerates a grid of independent cells —
(network, node, threshold, tier) combinations, each a deterministic
function of its parameters — and the seed iterated them serially.
:class:`GridRunner` shards those cells and hands the shards to an
:class:`~repro.engine.backends.ExecutorBackend`: the in-process serial
reference, a thread pool, or the *persistent* warm process pool
(created once per worker count, reused across harness and designer
runs).  Cells that opt into ``cache_dir`` share the on-disk
objective/fitness caches
(:class:`~repro.engine.diskcache.FitnessDiskCache`) as their
cross-process store.

Determinism contract: results are reassembled by shard index and cells
keep their submission order inside each shard, so the returned list is
identical — values and ordering — for one shard, two shards, N shards,
every backend, and the serial reference mode.  Cells must be pure
functions of their arguments (module-level callables, picklable
argument tuples).

The warm-pool helpers (``shared_process_pool`` and friends) live in
:mod:`repro.engine.backends`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.engine.backends import (
    Cell,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    in_pool_worker,
    run_shard,
)
from repro.errors import ExperimentError

#: Valid ``GridConfig.mode`` values (and ``--grid-mode`` /
#: ``--accuracy-mode`` choices).
GRID_MODES = ("auto", "serial", "thread", "process")


@dataclass(frozen=True)
class GridConfig:
    """Execution policy for experiment grids.

    Attributes:
        mode: ``auto`` / ``serial`` / ``thread`` / ``process``.
            ``auto`` resolves to ``process`` on multi-CPU machines with
            more than one cell, else ``serial``.
        workers: pool size for the parallel modes (default: CPU count).
        shards: number of contiguous cell groups dispatched as units
            (default: one per worker).  Shard count changes scheduling
            granularity only, never results.
    """

    mode: str = "auto"
    workers: Optional[int] = None
    shards: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in GRID_MODES:
            raise ExperimentError(
                f"unknown grid mode {self.mode!r}; expected one of {GRID_MODES}"
            )
        if self.workers is not None and self.workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {self.workers}")
        if self.shards is not None and self.shards < 1:
            raise ExperimentError(f"shards must be >= 1, got {self.shards}")

    def resolved_workers(self) -> int:
        return self.workers if self.workers is not None else (os.cpu_count() or 1)


@dataclass(frozen=True)
class ExecutionPlan:
    """One declarative unit of grid work: what to run, over what.

    :meth:`GridRunner.run` executes plans, which come in two shapes:

    - ``ExecutionPlan.for_cells(fn, cells)`` — evaluate ``fn(*cell)``
      per cell; ``run`` returns ``[fn(*cell) for cell in cells]``.
    - ``ExecutionPlan.for_batches(fn, items, extra)`` — ``fn`` is
      *batch-decomposable* (``fn(a + b) == fn(a) + fn(b)``, one result
      per item); ``run`` returns ``list(fn(items, *extra))`` computed
      as contiguous sub-batches.

    Plans are inert data: building one performs no work and implies no
    execution policy — mode, workers, and sharding stay on the runner's
    :class:`GridConfig`, so the same plan can be handed to a serial
    reference runner and a process-pool runner for an identity check.
    """

    kind: str
    fn: Callable[..., Any]
    items: Tuple[Any, ...]
    extra: Tuple[Any, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in ("cells", "batches"):
            raise ExperimentError(
                f"unknown plan kind {self.kind!r}; "
                "expected 'cells' or 'batches'"
            )
        if self.kind == "cells" and self.extra:
            raise ExperimentError(
                "extra arguments are only meaningful for batch plans "
                "(cells carry their own arguments)"
            )

    @classmethod
    def for_cells(
        cls, fn: Callable[..., Any], cells: Sequence[Cell]
    ) -> "ExecutionPlan":
        """A per-cell plan: ``fn(*cell)`` for every cell, in order."""
        return cls(
            kind="cells", fn=fn, items=tuple(tuple(c) for c in cells)
        )

    @classmethod
    def for_batches(
        cls,
        fn: Callable[..., List[Any]],
        items: Sequence[Any],
        extra: Sequence[Any] = (),
    ) -> "ExecutionPlan":
        """A batch plan: ``fn(sub_batch, *extra)`` over contiguous splits."""
        return cls(
            kind="batches", fn=fn, items=tuple(items), extra=tuple(extra)
        )


class GridRunner:
    """Deterministically ordered execution over independent grid cells.

    Args:
        config: execution policy (defaults to ``auto``).

    :meth:`run` is the single entry point: build an
    :class:`ExecutionPlan` (per-cell or batch-decomposable) and the
    runner shards it over the configured backend, returning results in
    item order for every mode and shard count — sharding can only
    change *where* and *when* a cell runs, never what is returned or in
    which slot.  A broken process pool degrades to the serial reference
    (results are a pure function of the cells, so the answer is the
    same — only slower).
    """

    def __init__(self, config: Optional[GridConfig] = None):
        self.config = config or GridConfig()

    def resolved_mode(self, n_cells: int) -> str:
        mode = self.config.mode
        if mode != "auto":
            return mode
        if n_cells > 1 and self.config.resolved_workers() > 1:
            return "process"
        return "serial"

    def shard_cells(self, cells: Sequence[Cell]) -> List[List[Cell]]:
        """Split cells into contiguous shards preserving order.

        Concatenating the shards in index order restores the input
        exactly; shard sizes differ by at most one cell.  The shard
        count is ``config.shards`` when set, else one shard per
        resolved worker.
        """
        cells = list(cells)
        count = self.config.shards
        if count is None:
            count = min(len(cells), self.config.resolved_workers())
        count = max(1, min(count, len(cells)))
        base, extra = divmod(len(cells), count)
        shards: List[List[Cell]] = []
        start = 0
        for index in range(count):
            stop = start + base + (1 if index < extra else 0)
            shards.append(cells[start:stop])
            start = stop
        return shards

    def backend(self, mode: str) -> ExecutorBackend:
        """The executor backend for a resolved mode."""
        workers = self.config.resolved_workers()
        if mode == "thread":
            return ThreadBackend(workers)
        if mode == "process":
            return ProcessBackend(workers)
        return SerialBackend()

    def run(self, plan: ExecutionPlan) -> List[Any]:
        """Execute one plan; results in item order (the single entry point).

        Per-cell plans return ``[fn(*cell) for cell in cells]``; batch
        plans return ``list(fn(items, *extra))`` computed over
        contiguous sub-batches (sized by ``config.shards`` or one per
        resolved worker — the batched accuracy stage uses this to shard
        a multiplier stack into sub-stacks that each keep the one-pass
        :meth:`~repro.nn.inference.QuantCNN.forward_stack` advantage).
        Identical — values and ordering — for every mode, shard count,
        and backend; serial resolution short-circuits to the direct
        reference call without touching an executor.
        """
        if plan.kind == "cells":
            return self._run_cells(plan.fn, list(plan.items))
        return self._run_batches(plan.fn, list(plan.items), plan.extra)

    def _run_cells(
        self, fn: Callable[..., Any], cells: List[Cell]
    ) -> List[Any]:
        if not cells:
            return []
        mode = self.resolved_mode(len(cells))
        if mode == "process" and in_pool_worker():
            mode = "serial"  # no nested fan-out — see in_pool_worker()
        if mode == "serial" or len(cells) == 1:
            return run_shard(fn, cells)
        shard_results = self.backend(mode).map_shards(fn, self.shard_cells(cells))
        return [result for shard in shard_results for result in shard]

    def _run_batches(
        self,
        fn: Callable[..., List[Any]],
        items: List[Any],
        extra: Tuple[Any, ...],
    ) -> List[Any]:
        if not items:
            return []
        mode = self.resolved_mode(len(items))
        if mode == "process" and in_pool_worker():
            mode = "serial"  # no nested fan-out — see in_pool_worker()
        if mode == "serial":
            return list(fn(items, *extra))
        batches = self.shard_cells(items)
        if len(batches) == 1:
            return list(fn(items, *extra))
        cells = [(batch,) + extra for batch in batches]
        results = self._run_cells(fn, cells)
        return [value for batch_result in results for value in batch_result]
