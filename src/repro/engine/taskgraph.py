"""Futures with backpressure over the execution backends.

A backend's ``map_shards`` is a synchronous barrier: every shard of a
wave must complete before the caller gets anything back.  This module
is the asynchronous layer the engine clients submit through
(:class:`~repro.engine.grid.GridRunner`,
:class:`~repro.engine.population.PopulationEvaluator` and the
overlapped step-1 library build):

``EngineSession``
    wraps any :class:`~repro.engine.backends.ExecutorBackend` and turns
    it into a ``submit(fn, cells) -> TaskFuture`` surface with *bounded
    backpressure* — at most ``max_inflight`` shards are outstanding,
    and further ``submit`` calls block until a slot frees, so a
    producer can stream millions of shards without buffering them all.
    The serial backend stays the bit-identical reference: a serial
    session executes each shard inline at ``submit`` time, in
    submission order, on the calling thread.

``CoordinatorSession``
    an ``EngineSession`` over the *persistent* shared remote backend:
    the TCP coordinator outlives individual maps, workers join/leave
    mid-run, and shards submitted by concurrent sessions interleave
    onto one shared work-stealing queue (see
    ``RemoteCoordinator.submit_single``).  Closing the session drains
    its own futures but leaves the coordinator and its warm fleet up
    for the next client.

Determinism contract: ``session.map_shards(fn, shards)`` equals
``[[fn(*cell) for cell in shard] for shard in shards]`` for every
backend, exactly like the blocking backend protocol — futures change
*when* work runs, never *what* it computes.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.engine.backends import (
    Cell,
    ExecutorBackend,
    RemoteRunError,
    SerialBackend,
    ThreadBackend,
    run_shard,
    shared_remote_backend,
)
from repro.errors import ExperimentError

#: Poll interval for internal condition waits.  Engine code never
#: blocks unboundedly (invariant TMO001): a bounded wait re-checks its
#: predicate so a lost notify — or a coordinator that died without one
#: — degrades to a short poll instead of a hang.
POLL_INTERVAL_S = 0.2

__all__ = [
    "TaskFuture",
    "EngineSession",
    "CoordinatorSession",
]


class TaskFuture:
    """The result of one submitted shard: per-cell values, in order.

    A minimal future — ``done`` / ``result`` / ``exception`` /
    ``add_done_callback`` — resolved exactly once by the session that
    created it.  ``result()`` blocks until resolution and re-raises the
    shard's exception if it failed; callbacks added after resolution
    fire immediately on the caller's thread.
    """

    __slots__ = ("_event", "_value", "_error", "_callbacks", "_lock", "label")

    def __init__(self, label: Optional[str] = None):
        self._event = threading.Event()
        self._value: Optional[List[Any]] = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["TaskFuture"], None]] = []
        self._lock = threading.Lock()
        self.label = label

    def done(self) -> bool:
        """True once the shard has a result or an exception."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> List[Any]:
        """Block for, then return, the shard's per-cell result list."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"shard result not ready within {timeout} s"
                + (f" (task {self.label})" if self.label else "")
            )
        if self._error is not None:
            raise self._error
        assert self._value is not None
        return self._value

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        """Block for resolution; the stored exception or ``None``."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"shard result not ready within {timeout} s"
                + (f" (task {self.label})" if self.label else "")
            )
        return self._error

    def add_done_callback(
        self, callback: Callable[["TaskFuture"], None]
    ) -> None:
        """Run ``callback(self)`` at resolution (immediately if done)."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def _resolve(
        self,
        value: Optional[List[Any]],
        error: Optional[BaseException] = None,
    ) -> None:
        with self._lock:
            if self._event.is_set():  # resolved exactly once
                return
            self._value = value
            self._error = error
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class EngineSession:
    """``submit(fn, cells) -> TaskFuture`` over any executor backend.

    Args:
        backend: the executor strategy.  Serial backends run each shard
            inline at ``submit`` (the bit-identical, in-order
            reference); backends exposing ``submit_cells`` (the remote
            backend) enqueue on the coordinator's shared queue; every
            other backend is driven through a dispatcher thread pool
            calling its blocking ``map_shards`` one shard at a time.
        max_inflight: backpressure bound — ``submit`` blocks while this
            many shards are outstanding (default: twice the backend's
            worker width, at least 2).
        close_backend: close the backend when the session closes
            (default off: sessions over shared backends must leave the
            fleet warm for the next client).

    Sessions are thread-safe: any number of producer threads may
    ``submit`` concurrently, and several sessions may share one
    backend.  ``close`` (or the context manager) drains outstanding
    futures first, so PR 6's checkpoint rule — a generation commits
    only after all its futures resolve — holds by construction for any
    client that gathers its futures before checkpointing.
    """

    def __init__(
        self,
        backend: ExecutorBackend,
        max_inflight: Optional[int] = None,
        close_backend: bool = False,
    ):
        self.backend = backend
        width = getattr(backend, "workers", None)
        if width is None:
            width = getattr(backend, "spawn", None) or 4
        width = max(1, int(width))
        self.max_inflight = (
            max(2, 2 * width) if max_inflight is None else max(1, max_inflight)
        )
        self._close_backend = close_backend
        self._serial = isinstance(backend, SerialBackend)
        self._submit_cells = getattr(backend, "submit_cells", None)
        self._inflight = threading.BoundedSemaphore(self.max_inflight)
        self._outstanding = 0
        self._state = threading.Condition()
        self._closed = False
        self._dispatcher: Optional[ThreadPoolExecutor] = None
        if not self._serial and self._submit_cells is None:
            # exactly the backend's width: max_inflight (>= width)
            # bounds *queued* shards, the pool bounds *running* ones —
            # a 2-worker thread backend must never run 4 shards at once
            self._dispatcher = ThreadPoolExecutor(
                max_workers=width,
                thread_name_prefix="engine-session",
            )

    # -- submission -----------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        cells: Sequence[Cell],
        label: Optional[str] = None,
    ) -> TaskFuture:
        """Enqueue one shard; blocks only when ``max_inflight`` is hit.

        Returns a :class:`TaskFuture` resolving to
        ``[fn(*cell) for cell in cells]``.
        """
        cells = [tuple(cell) for cell in cells]
        future = TaskFuture(label=label)
        self._inflight.acquire()
        with self._state:
            if self._closed:
                self._inflight.release()
                raise ExperimentError("engine session is closed")
            self._outstanding += 1

        def finish(
            value: Optional[List[Any]], error: Optional[BaseException]
        ) -> None:
            with self._state:
                self._outstanding -= 1
                self._state.notify_all()
            self._inflight.release()
            future._resolve(value, error)

        if self._serial:
            # the reference path: inline, in submission order, on the
            # calling thread — bit-identical to the blocking engine
            try:
                value = run_shard(fn, cells)
            except Exception as exc:  # noqa: BLE001 - stored, re-raised
                finish(None, exc)
            else:
                finish(value, None)
            return future

        if self._submit_cells is not None:

            def on_done(
                result: Optional[List[Any]],
                failure: Optional[RemoteRunError],
            ) -> None:
                finish(result, failure)

            try:
                self._submit_cells(fn, cells, on_done)
            except Exception as exc:  # noqa: BLE001 - stored, re-raised
                finish(None, exc)
            return future

        def dispatch() -> None:
            try:
                if isinstance(self.backend, ThreadBackend):
                    # already on a session thread; a nested
                    # single-thread pool would add nothing
                    value = run_shard(fn, cells)
                else:
                    value = self.backend.map_shards(fn, [cells])[0]
            except Exception as exc:  # noqa: BLE001 - stored, re-raised
                finish(None, exc)
            else:
                finish(value, None)

        assert self._dispatcher is not None
        self._dispatcher.submit(dispatch)
        return future

    def map_shards(
        self, fn: Callable[..., Any], shards: Sequence[Sequence[Cell]]
    ) -> List[List[Any]]:
        """The blocking protocol, expressed as submit-then-gather.

        Equals ``[[fn(*cell) for cell in shard] for shard in shards]``
        — the backend determinism contract — for every backend.
        """
        futures = [self.submit(fn, shard) for shard in shards]
        return self.gather(futures)

    # -- gathering ------------------------------------------------------

    @staticmethod
    def gather(futures: Sequence[TaskFuture]) -> List[List[Any]]:
        """Results of ``futures`` in the given (submission) order."""
        return [future.result() for future in futures]

    def drain(self) -> None:
        """Block until every shard submitted so far has resolved."""
        with self._state:
            while self._outstanding > 0:
                self._state.wait(POLL_INTERVAL_S)

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Drain outstanding futures and stop accepting new ones."""
        with self._state:
            if self._closed:
                return
            self._closed = True
        self.drain()
        if self._dispatcher is not None:
            self._dispatcher.shutdown(wait=True)
        if self._close_backend:
            close = getattr(self.backend, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()


class CoordinatorSession(EngineSession):
    """A session over the persistent shared remote coordinator.

    Args:
        coordinator: ``HOST:PORT`` bind for the shared coordinator
            (default loopback/ephemeral — see
            :func:`~repro.engine.backends.shared_remote_backend`).
        spawn: local worker daemons the shared backend keeps attached.
        max_inflight: backpressure bound (see :class:`EngineSession`).
        task_deadline_s: per-task deadline in seconds — a shard unacked
            past it is revoked from its (presumably hung) worker and
            requeued (see ``CoordinatorConfig.task_deadline_s``).

    Concurrent ``CoordinatorSession``\\ s over the same address share
    one coordinator and one worker fleet; their shards interleave on
    the coordinator's work-stealing queue, and workers may join or
    leave at any point.  ``close`` drains this session's futures but
    deliberately leaves the coordinator up — it belongs to the process,
    not to any one session (``shutdown_remote_backends`` tears it
    down).
    """

    def __init__(
        self,
        coordinator: Optional[str] = None,
        spawn: Optional[int] = None,
        max_inflight: Optional[int] = None,
        task_deadline_s: Optional[float] = None,
    ):
        super().__init__(
            shared_remote_backend(coordinator, spawn, task_deadline_s),
            max_inflight=max_inflight,
            close_backend=False,
        )

    def fleet_health(self) -> Dict[str, Dict[str, Any]]:
        """Per-worker health snapshots from the shared coordinator.

        Maps worker identity (``pid:N`` / ``conn:N``) to its ledger
        snapshot (``state``, ``failures``, ``timeouts``, ``completed``,
        ... — see ``RemoteCoordinator.fleet_health``); empty before any
        worker has connected.
        """
        health = getattr(self.backend, "fleet_health", None)
        return health() if health is not None else {}
