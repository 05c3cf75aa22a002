"""Sharded experiment-grid execution over pluggable backends.

Every experiment harness enumerates a grid of independent cells —
(network, node, threshold, tier) combinations, each a deterministic
function of its parameters — and the seed iterated them serially.
:class:`GridRunner` shards those cells and hands the shards to an
:class:`~repro.engine.backends.ExecutorBackend`: the in-process serial
reference, a thread pool, the *persistent* warm process pool (created
once per worker count, reused across harness and designer runs), or the
TCP coordinator that fans shards out to ``repro.engine.worker`` daemons
on other machines.  Cells that opt into ``cache_dir`` share the on-disk
objective/fitness caches
(:class:`~repro.engine.diskcache.FitnessDiskCache`) as their
cross-process — and, on a shared filesystem, cross-node — store.

Determinism contract: results are reassembled by shard index and cells
keep their submission order inside each shard, so the returned list is
identical — values and ordering — for one shard, two shards, N shards,
every backend, and the serial reference mode.  Cells must be pure
functions of their arguments (module-level callables, picklable
argument tuples); that purity is also what makes the remote backend's
fault tolerance free, because a reassigned cell recomputes the same
answer anywhere.

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
    backend_names,
    create_backend,
    in_pool_worker,
    run_shard,
)
from repro.engine.taskgraph import EngineSession
from repro.errors import ExperimentError


#: Modes that dispatch through the remote coordinator (and therefore
#: accept ``coordinator=``, ``workers=0``, and per-cell sharding).
REMOTE_MODES = ("remote", "remote-fallback")


def grid_modes() -> tuple:
    """Valid ``GridConfig.mode`` values — ``auto`` plus the registry.

    Computed on demand so backends registered after this module was
    imported (the whole point of :func:`register_backend`) become valid
    modes immediately.
    """
    return ("auto",) + backend_names()


@dataclass(frozen=True)
class GridConfig:
    """Execution policy for experiment grids.

    Attributes:
        mode: ``auto`` or a registered backend name (``serial`` /
            ``thread`` / ``process`` / ``remote``).  ``auto`` resolves
            to ``process`` on multi-CPU machines with more than one
            cell, else ``serial``; it never resolves to ``remote``.
        workers: pool size for the parallel modes (default: CPU count).
            In ``remote`` mode this is the number of *local* worker
            daemons spawned for the run (default 2); ``0`` means no
            local spawning — externally started workers
            (``python -m repro.engine.worker --connect HOST:PORT``) do
            all the work and may join while the run is in flight.
        shards: number of contiguous cell groups dispatched as units
            (default: one per worker; in ``remote`` mode one per cell,
            so joining workers and reassignment stay fine-grained).
            Shard count changes scheduling granularity only, never
            results.
        coordinator: ``HOST:PORT`` the remote coordinator binds
            (default ``127.0.0.1:0`` — loopback, ephemeral port).  Bind
            a routable host to accept workers from other machines.
        task_deadline_s: per-task deadline in seconds for the remote
            modes — a shard unacked past this is revoked from its
            (presumably hung) worker and requeued against the requeue
            budget; the worker's late result is discarded (``None`` =
            wait forever, the pre-deadline behaviour).
    """

    mode: str = "auto"
    workers: Optional[int] = None
    shards: Optional[int] = None
    coordinator: Optional[str] = None
    task_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        modes = grid_modes()
        if self.mode not in modes:
            raise ExperimentError(
                f"unknown grid mode {self.mode!r}; expected one of {modes}"
            )
        minimum_workers = 0 if self.mode in REMOTE_MODES else 1
        if self.workers is not None and self.workers < minimum_workers:
            raise ExperimentError(
                f"workers must be >= {minimum_workers}, got {self.workers}"
            )
        if self.shards is not None and self.shards < 1:
            raise ExperimentError(f"shards must be >= 1, got {self.shards}")
        if self.coordinator is not None and self.mode not in REMOTE_MODES:
            raise ExperimentError(
                f"coordinator is only meaningful with modes {REMOTE_MODES}, "
                f"got mode={self.mode!r}"
            )
        if self.task_deadline_s is not None:
            if self.mode not in REMOTE_MODES:
                raise ExperimentError(
                    "task_deadline_s is only meaningful with modes "
                    f"{REMOTE_MODES}, got mode={self.mode!r}"
                )
            if self.task_deadline_s <= 0:
                raise ExperimentError(
                    f"task_deadline_s must be > 0, got {self.task_deadline_s}"
                )

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
    reference runner and a remote-session runner for an identity check.
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
    runner executes it over the configured backend through the
    submit/future engine (:class:`~repro.engine.taskgraph
    .EngineSession`), returning results in item order for every mode
    and shard count — sharding can only change *where* and *when* a
    cell runs, never what is returned or in which slot.  A broken
    process pool degrades to the serial reference, and a remote worker
    dying mid-cell has the cell reassigned (results are a pure function
    of the cells, so the answer is the same — only slower).
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

    def shard_cells(
        self, cells: Sequence[Cell], default_count: Optional[int] = None
    ) -> List[List[Cell]]:
        """Split cells into contiguous shards preserving order.

        Concatenating the shards in index order restores the input
        exactly; shard sizes differ by at most one cell.  The shard
        count is ``config.shards`` when set, else ``default_count``,
        else one shard per resolved worker.
        """
        cells = list(cells)
        count = self.config.shards
        if count is None:
            count = (
                default_count
                if default_count is not None
                else min(len(cells), self.config.resolved_workers())
            )
        count = max(1, min(count, len(cells)))
        base, extra = divmod(len(cells), count)
        shards: List[List[Cell]] = []
        start = 0
        for index in range(count):
            stop = start + base + (1 if index < extra else 0)
            shards.append(cells[start:stop])
            start = stop
        return shards

    def backend(self, mode: str, n_shards: int) -> ExecutorBackend:
        """Instantiate the executor backend for a resolved mode."""
        workers = self.config.resolved_workers()
        if mode == "thread":
            workers = min(workers, max(1, n_shards))
        return create_backend(
            mode,
            workers=workers,
            coordinator=self.config.coordinator,
            # remote: spawn exactly the configured count (0 = external
            # workers only); None falls back to the backend default of 2
            spawn=self.config.workers if mode in REMOTE_MODES else None,
            task_deadline_s=self.config.task_deadline_s,
        )

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
        if (mode == "process" or mode in REMOTE_MODES) and in_pool_worker():
            mode = "serial"  # no nested fan-out — see in_pool_worker()
        if mode == "serial" or (len(cells) == 1 and mode not in REMOTE_MODES):
            return run_shard(fn, cells)

        shards = self.shard_cells(
            cells, default_count=len(cells) if mode in REMOTE_MODES else None
        )
        backend = self.backend(mode, n_shards=len(shards))
        with EngineSession(backend) as session:
            futures = [session.submit(fn, shard) for shard in shards]
            shard_results = session.gather(futures)
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
        if (mode == "process" or mode in REMOTE_MODES) and in_pool_worker():
            mode = "serial"  # no nested fan-out — see in_pool_worker()
        if mode == "serial":
            return list(fn(items, *extra))
        batches = self.shard_cells(items)
        if len(batches) == 1:
            return list(fn(items, *extra))
        cells = [(batch,) + extra for batch in batches]
        results = self._run_cells(fn, cells)
        return [value for batch_result in results for value in batch_result]
