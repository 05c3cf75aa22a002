"""Execution backends for experiment-grid and population dispatch.

Every parallel path in the engine — the experiment grids
(:class:`~repro.engine.grid.GridRunner`), the population evaluator
(:class:`~repro.engine.population.PopulationEvaluator`) and the sharded
behavioural accuracy stage — reduces to the same operation: evaluate
``fn(*cell)`` for shards of picklable cells and return the per-shard
result lists *in shard order*.  Three backends implement it:

* :class:`SerialBackend`  — the in-process reference implementation;
* :class:`ThreadBackend`  — a ``ThreadPoolExecutor`` over shards;
* :class:`ProcessBackend` — the persistent warm process pool
  (:func:`shared_process_pool`), with serial degradation inside pool
  workers and on a broken pool.

Determinism contract: for every backend, ``map_shards(fn, shards)``
returns exactly ``[[fn(*cell) for cell in shard] for shard in shards]``
— parallelism can change *where* and *when* a shard runs, never what is
returned or in which slot.  Cells must be pure functions of their
arguments (module-level callables, picklable argument tuples).
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Cell = Tuple[Any, ...]


# --------------------------------------------------------------------------
# Shared warm process pool.
# --------------------------------------------------------------------------

#: Pools kept alive across runs, keyed by configured worker count.
_PROCESS_POOLS: Dict[int, ProcessPoolExecutor] = {}
#: Context fingerprint each pool's workers were forked under.
_POOL_CONTEXTS: Dict[int, Tuple[Tuple[str, Any], ...]] = {}
_POOL_LOCK = threading.Lock()
#: Pid that owns the registry — forked children inherit the dict but
#: not the executors' manager threads, so they must never reuse it.
_POOL_OWNER_PID: Optional[int] = None
#: Set (via the pool initializer) in every worker process.
_IN_POOL_WORKER = False

#: Named providers consulted at warm-pool checkout; see
#: :func:`register_pool_context_provider`.
_POOL_CONTEXT_PROVIDERS: Dict[str, Callable[[], Any]] = {}


def register_pool_context_provider(
    name: str, provider: Callable[[], Any]
) -> None:
    """Register a fingerprint source for the warm-pool context.

    The persistent pool forks its workers once; heavyweight parent
    state built *after* that fork (e.g. a step-1 multiplier library for
    different settings) is invisible to them, so every worker would
    rebuild it per task — results unchanged, time wasted (the PERF.md
    stale-pool caveat).  A provider returns a small hashable token
    describing such fork-inherited state; :func:`shared_process_pool`
    compares the combined token tuple at checkout and refork-replaces a
    pool whose workers were forked under a different context.
    Registration is idempotent per name (latest provider wins).
    """
    _POOL_CONTEXT_PROVIDERS[name] = provider


def current_pool_context() -> Tuple[Tuple[str, Any], ...]:
    """The combined fork-context fingerprint, stable provider order."""
    return tuple(
        (name, _POOL_CONTEXT_PROVIDERS[name]())
        for name in sorted(_POOL_CONTEXT_PROVIDERS)
    )


def _mark_pool_worker() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def in_pool_worker() -> bool:
    """True inside a shared-pool worker process.

    Work dispatched from a worker must not open nested process pools
    (executor teardown across fork levels deadlocks at interpreter
    exit, and N x M workers oversubscribe the machine) — callers
    degrade to in-process execution instead, which returns identical
    results because cells and fitness are pure functions.
    """
    return _IN_POOL_WORKER


def shared_process_pool(workers: int) -> ProcessPoolExecutor:
    """The persistent process pool for a worker count (created once).

    Create it *after* heavyweight shared state (the step-1 library, the
    shared predictor) exists in the parent: workers fork with those
    memos warm and never rebuild them.  Thread-safe — concurrent
    callers (e.g. thread-mode grid cells whose GAs fan out to
    processes) share one pool instead of leaking duplicates.

    A forked child (a grid worker whose cell itself requests process
    fan-out) inherits the registry dict but not the executors' manager
    threads; using an inherited executor deadlocks.  The registry is
    therefore pid-stamped: the first call in a new process drops every
    inherited entry and builds its own pool.

    Checkout also compares the pool's fork-context fingerprint
    (:func:`current_pool_context`) against the current one: a pool
    whose workers were forked before a library-settings change would
    silently rebuild the new library in every worker, so it is shut
    down and reforked instead — the same cure as calling
    :func:`shutdown_shared_pools` between harnesses, applied
    automatically.
    """
    global _POOL_OWNER_PID
    stale: Optional[ProcessPoolExecutor] = None
    with _POOL_LOCK:
        # computed under the lock so two racing checkouts agree on one
        # context and cannot thrash refork; providers are plain state
        # reads and never call back into the pool registry
        context = current_pool_context()
        pid = os.getpid()
        if _POOL_OWNER_PID != pid:
            # references only — the executors belong to the parent
            _PROCESS_POOLS.clear()
            _POOL_CONTEXTS.clear()
            _POOL_OWNER_PID = pid
        pool = _PROCESS_POOLS.get(workers)
        if pool is not None and _POOL_CONTEXTS.get(workers) != context:
            stale = _PROCESS_POOLS.pop(workers)
            _POOL_CONTEXTS.pop(workers, None)
            pool = None
        if pool is None:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_mark_pool_worker
            )
            _PROCESS_POOLS[workers] = pool
            _POOL_CONTEXTS[workers] = context
    if stale is not None:
        # no cancel_futures: a concurrent thread may still be draining
        # work on the stale pool (its results stay correct — cells are
        # pure); the executor winds down once that work finishes
        stale.shutdown(wait=False)
    return pool


def discard_process_pool(workers: int) -> None:
    """Drop (and shut down) one persistent pool, e.g. after a break."""
    with _POOL_LOCK:
        pool = _PROCESS_POOLS.pop(workers, None)
        _POOL_CONTEXTS.pop(workers, None)
        owned = _POOL_OWNER_PID == os.getpid()
    if pool is not None and owned:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_shared_pools() -> None:
    """Shut down every persistent pool (test teardown / interpreter exit)."""
    with _POOL_LOCK:
        pools = list(_PROCESS_POOLS.values())
        _PROCESS_POOLS.clear()
        _POOL_CONTEXTS.clear()
        owned = _POOL_OWNER_PID == os.getpid()
    for pool in pools:
        if owned:  # inherited executors belong to the parent process
            pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_shared_pools)


def run_shard(fn: Callable[..., Any], cells: Sequence[Cell]) -> List[Any]:
    """Evaluate one shard serially (also the serial reference path)."""
    return [fn(*cell) for cell in cells]


# --------------------------------------------------------------------------
# The backends.
# --------------------------------------------------------------------------


class ExecutorBackend:
    """Strategy interface: evaluate shards, results in shard order.

    ``map_shards(fn, shards)`` must equal
    ``[[fn(*cell) for cell in shard] for shard in shards]`` for every
    implementation — that identity is what the engine's bit-identity
    guarantees rest on, and what ``tests/engine/test_grid.py`` asserts
    per backend.
    """

    def map_shards(
        self, fn: Callable[..., Any], shards: Sequence[Sequence[Cell]]
    ) -> List[List[Any]]:
        raise NotImplementedError


class SerialBackend(ExecutorBackend):
    """In-process, in-order evaluation — the reference implementation."""

    def map_shards(
        self, fn: Callable[..., Any], shards: Sequence[Sequence[Cell]]
    ) -> List[List[Any]]:
        return [run_shard(fn, shard) for shard in shards]


class ThreadBackend(ExecutorBackend):
    """One ``ThreadPoolExecutor`` per call, shards as tasks."""

    def __init__(self, workers: int):
        self.workers = max(1, workers)

    def map_shards(
        self, fn: Callable[..., Any], shards: Sequence[Sequence[Cell]]
    ) -> List[List[Any]]:
        if not shards:
            return []
        with ThreadPoolExecutor(
            max_workers=min(self.workers, len(shards))
        ) as pool:
            return list(pool.map(run_shard, [fn] * len(shards), shards))


class ProcessBackend(ExecutorBackend):
    """The persistent warm process pool from :func:`shared_process_pool`.

    Keyed by the *configured* worker count so every run shares one
    canonical pool.  Degrades to the serial reference inside a pool
    worker (no nested pools) and when the pool breaks — results are a
    pure function of the cells, so the answer is the same, only slower.
    """

    def __init__(self, workers: int):
        self.workers = max(1, workers)

    def map_shards(
        self, fn: Callable[..., Any], shards: Sequence[Sequence[Cell]]
    ) -> List[List[Any]]:
        if not shards:
            return []
        if in_pool_worker():
            return [run_shard(fn, shard) for shard in shards]
        pool = shared_process_pool(self.workers)
        try:
            return list(pool.map(run_shard, [fn] * len(shards), shards))
        except BrokenProcessPool:
            discard_process_pool(self.workers)
            return [run_shard(fn, shard) for shard in shards]
