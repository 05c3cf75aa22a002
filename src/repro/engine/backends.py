"""Pluggable execution backends for experiment-grid and population dispatch.

Every parallel path in the engine — the experiment grids
(:class:`~repro.engine.grid.GridRunner`) and the population evaluator
(:class:`~repro.engine.population.PopulationEvaluator`) — reduces to the
same operation: evaluate ``fn(*cell)`` for shards of picklable cells and
return the per-shard result lists *in shard order*.  This module owns
that operation behind a small :class:`ExecutorBackend` protocol, so the
dispatch strategy is a plug-in:

* :class:`SerialBackend`  — the in-process reference implementation;
* :class:`ThreadBackend`  — a ``ThreadPoolExecutor`` over shards;
* :class:`ProcessBackend` — the persistent warm process pool
  (:func:`shared_process_pool`), with serial degradation inside pool
  workers and on a broken pool;
* :class:`RemoteBackend`  — a TCP coordinator
  (:class:`RemoteCoordinator`) that hands shards to worker daemons
  started with ``python -m repro.engine.worker --connect HOST:PORT``,
  on this machine or any other that shares the code (and, ideally, the
  on-disk objective/fitness caches).

New strategies (asyncio, SSH fan-out, a cluster scheduler) are one
class plus a :func:`register_backend` call — nothing in ``grid.py`` or
``population.py`` changes.

Determinism contract: for every backend, ``map_shards(fn, shards)``
returns exactly ``[[fn(*cell) for cell in shard] for shard in shards]``
— parallelism, worker death, and reassignment can change *where* and
*when* a shard runs, never what is returned or in which slot.  Cells
must be pure functions of their arguments (module-level callables,
picklable argument tuples).

Remote wire protocol (version :data:`PROTOCOL_VERSION`): length-prefixed
pickles over TCP (8-byte big-endian length, then the pickled dict).
The worker opens with ``{"type": "hello", "protocol": N}``; the
coordinator answers ``welcome`` or ``reject`` (version mismatch, bad
handshake) and then serves a pull loop: worker sends ``ready``,
coordinator answers ``task`` (shard id + function + cells) or
``shutdown``; worker answers ``result`` — acknowledged by the
coordinator with ``ack`` once the result is recorded, so a worker (or
coordinator) going down right after a result lands can never requeue
that shard spuriously — or ``error``.  A worker that dies holding a
task has the task requeued (at most ``CoordinatorConfig.max_requeues``
times); a worker that connects mid-run simply starts pulling remaining
tasks.
Pickle implies *trusted networks only* — the coordinator executes
nothing, but workers unpickle and run what the coordinator sends, so
treat the port like an SSH key, not a public API.

The coordinator is a *session*: it serves any number of concurrent
jobs — blocking :meth:`RemoteCoordinator.map_shards` calls and
asynchronous :meth:`RemoteCoordinator.submit_single` tasks (the
futures entry point used by
:class:`repro.engine.taskgraph.EngineSession`) — over one shared task
queue.  Workers pull whatever task is next regardless of which job
enqueued it, so shards from concurrent jobs are work-stolen by
whichever worker frees up first; failure stays job-scoped (a
deterministic cell exception fails its own job, never a co-tenant).
:meth:`RemoteCoordinator.close` drains in-flight tasks before tearing
the fleet down (ack-then-close): the last shard of a session is
recorded, acknowledged, and only then are workers shut down.

Self-healing (fleet fault tolerance): the coordinator optionally
enforces a *per-task deadline* (``CoordinatorConfig.task_deadline_s``)
— a shard unacknowledged past the deadline is revoked from its
presumed-hung worker and requeued; the hung worker's eventual late
result is acknowledged but discarded, so the ack protocol keeps every
shard at-most-once even under revocation.  A per-worker *health
ledger* scores deaths and deadline timeouts and quarantines workers
past a threshold; a quarantined worker is re-admitted on probation
after a cooldown and must complete one canary task before real shards
resume (:meth:`RemoteCoordinator.fleet_health` snapshots the ledger).
With ``CoordinatorConfig.journal_path`` set the coordinator journals
every recorded result (atomically, keyed by a content digest of the
task) plus a monotonically increasing *epoch*: a coordinator restarted
after a crash replays journalled results instead of redoing them, and
the epoch — advertised in the ``welcome`` message — tells redialing
workers they have rebound to a new incarnation.
"""

from __future__ import annotations

import atexit
import dataclasses
import errno
import hashlib
import inspect
import logging
import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
import warnings
import weakref
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.diskcache import atomic_write_bytes, quarantine_corrupt_file
from repro.errors import ExperimentError

_LOG = logging.getLogger("repro.engine.fleet")

Cell = Tuple[Any, ...]

#: Version of the coordinator/worker wire protocol.  Bump on any change
#: to the message shapes below; the coordinator rejects mismatched
#: workers at handshake instead of failing mid-run on a bad unpickle.
#: Version 2 added the result ``ack`` (the coordinator confirms every
#: recorded result before the worker asks for more work).
PROTOCOL_VERSION = 2


def _env_float(name: str, default: float) -> float:
    """A positive float from the environment, or the default on junk."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring non-numeric {name}={raw!r}", RuntimeWarning, stacklevel=3
        )
        return default
    return value if value > 0 else default


def _env_optional_float(name: str) -> Optional[float]:
    """A positive float from the environment, or None when unset/junk."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = float(raw)
    except ValueError:
        warnings.warn(
            f"ignoring non-numeric {name}={raw!r}", RuntimeWarning, stacklevel=3
        )
        return None
    return value if value > 0 else None


def _env_int(name: str, default: int) -> int:
    """A non-negative int from the environment, or the default on junk."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        warnings.warn(
            f"ignoring non-numeric {name}={raw!r}", RuntimeWarning, stacklevel=3
        )
        return default
    return value if value >= 0 else default


@dataclass(frozen=True)
class CoordinatorConfig:
    """Timing knobs for the remote coordinator and its worker fleet.

    These used to be hard-coded constants (the 0.2 s condition-variable
    poll, the 5 s worker-teardown wait); slow shared CI containers need
    them tunable — a stall-abort probe that fires on schedule for a
    laptop is a flake generator for an oversubscribed runner.

    Attributes:
        poll_interval: seconds between coordinator wake-ups (accept
            loop timeout, run-completion and task-queue condition
            polls).  Smaller = snappier scheduling, more idle wake-ups.
        shutdown_timeout: seconds :meth:`RemoteBackend.close` waits for
            a spawned worker daemon to exit before killing it.
        task_deadline_s: optional per-task deadline.  A task still
            unacknowledged this many seconds after assignment is
            revoked from its (presumed hung) worker and requeued
            against ``max_requeues``; a late result from the original
            worker is acknowledged but discarded, so a shard can never
            record twice.  ``None`` (the default) disables deadlines —
            only worker *death* requeues, exactly the pre-deadline
            behaviour.
        max_requeues: how many times one shard may be requeued after
            worker deaths or deadline revocations before the job fails
            with a recoverable error (default 3).
        quarantine_threshold: a worker accumulating this many failures
            plus timeouts is quarantined — it gets no new assignments
            until ``quarantine_cooldown_s`` elapses, after which it is
            put on probation and must complete one canary task before
            real shards resume.  ``0`` disables the circuit breaker.
        quarantine_cooldown_s: seconds a quarantined worker sits out
            before its probation canary.
        journal_path: optional path of the coordinator's crash journal.
            Every recorded result is journalled (atomically, keyed by a
            content digest of the task) so a restarted coordinator
            replays finished work instead of redoing it; the journal
            also persists the coordinator epoch that workers rebind to
            in the handshake.  ``None`` disables journalling.

    Environment overrides (read by :meth:`from_env`):
    ``REPRO_COORDINATOR_POLL_S``, ``REPRO_COORDINATOR_SHUTDOWN_S``,
    ``REPRO_TASK_DEADLINE_S``, ``REPRO_MAX_REQUEUES``,
    ``REPRO_QUARANTINE_THRESHOLD``, ``REPRO_QUARANTINE_COOLDOWN_S``,
    and ``REPRO_COORDINATOR_JOURNAL``.  Timing and health knobs can
    change how long runs take and which worker executes a shard, never
    the results (cells are pure).
    """

    poll_interval: float = 0.2
    shutdown_timeout: float = 5.0
    task_deadline_s: Optional[float] = None
    max_requeues: int = 3
    quarantine_threshold: int = 3
    quarantine_cooldown_s: float = 30.0
    journal_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.poll_interval <= 0:
            raise ExperimentError(
                f"poll_interval must be positive, got {self.poll_interval}"
            )
        if self.shutdown_timeout <= 0:
            raise ExperimentError(
                f"shutdown_timeout must be positive, got {self.shutdown_timeout}"
            )
        if self.task_deadline_s is not None and self.task_deadline_s <= 0:
            raise ExperimentError(
                f"task_deadline_s must be positive, got {self.task_deadline_s}"
            )
        if self.max_requeues < 0:
            raise ExperimentError(
                f"max_requeues must be >= 0, got {self.max_requeues}"
            )
        if self.quarantine_threshold < 0:
            raise ExperimentError(
                "quarantine_threshold must be >= 0, got "
                f"{self.quarantine_threshold}"
            )
        if self.quarantine_cooldown_s <= 0:
            raise ExperimentError(
                "quarantine_cooldown_s must be positive, got "
                f"{self.quarantine_cooldown_s}"
            )

    @classmethod
    def from_env(cls) -> "CoordinatorConfig":
        """Defaults overridden by the ``REPRO_*`` variables."""
        journal = os.environ.get("REPRO_COORDINATOR_JOURNAL", "").strip()
        return cls(
            poll_interval=_env_float("REPRO_COORDINATOR_POLL_S", 0.2),
            shutdown_timeout=_env_float("REPRO_COORDINATOR_SHUTDOWN_S", 5.0),
            task_deadline_s=_env_optional_float("REPRO_TASK_DEADLINE_S"),
            max_requeues=_env_int("REPRO_MAX_REQUEUES", 3),
            quarantine_threshold=_env_int("REPRO_QUARANTINE_THRESHOLD", 3),
            quarantine_cooldown_s=_env_float("REPRO_QUARANTINE_COOLDOWN_S", 30.0),
            journal_path=journal or None,
        )


class RemoteRunError(ExperimentError):
    """A remote ``map_shards`` run failed; carries what *did* finish.

    Attributes:
        completed: shard index -> per-cell results for every shard that
            completed before the failure (cells are pure, so these are
            exactly what any backend would have returned for them).
        recoverable: True for infrastructure failures (requeue budget
            exhausted, stall abort — the work itself is fine, the fleet
            is not) where :class:`FallbackBackend` may drain the
            remaining shards locally; False for deterministic
            cell exceptions, which would fail identically anywhere.
    """

    def __init__(
        self,
        message: str,
        completed: Optional[Dict[int, List[Any]]] = None,
        recoverable: bool = False,
    ):
        super().__init__(message)
        self.completed: Dict[int, List[Any]] = dict(completed or {})
        self.recoverable = recoverable


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
# The backend protocol and the in-process strategies.
# --------------------------------------------------------------------------


class ExecutorBackend:
    """Strategy interface: evaluate shards, results in shard order.

    ``map_shards(fn, shards)`` must equal
    ``[[fn(*cell) for cell in shard] for shard in shards]`` for every
    implementation — that identity is what the engine's bit-identity
    guarantees rest on, and what ``tests/engine/test_backends.py``
    asserts per backend.
    """

    #: Registry key; also the user-facing ``--grid-mode`` value.
    name = "abstract"

    def map_shards(
        self, fn: Callable[..., Any], shards: Sequence[Sequence[Cell]]
    ) -> List[List[Any]]:
        raise NotImplementedError


class SerialBackend(ExecutorBackend):
    """In-process, in-order evaluation — the reference implementation."""

    name = "serial"

    def map_shards(
        self, fn: Callable[..., Any], shards: Sequence[Sequence[Cell]]
    ) -> List[List[Any]]:
        return [run_shard(fn, shard) for shard in shards]


class ThreadBackend(ExecutorBackend):
    """One ``ThreadPoolExecutor`` per call, shards as tasks."""

    name = "thread"

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

    name = "process"

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


# --------------------------------------------------------------------------
# Remote backend: message framing, coordinator, worker spawning.
# --------------------------------------------------------------------------


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``HOST:PORT`` (the only accepted form) into its parts."""
    host, sep, port = str(address).rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ExperimentError(
            f"coordinator address must be HOST:PORT, got {address!r}"
        )
    return host, int(port)


def send_msg(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Frame and send one protocol message (8-byte length + pickle)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(struct.pack(">Q", len(payload)) + payload)


def _recv_exact(sock: socket.socket, size: int) -> Optional[bytes]:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_msg(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Receive one framed message; ``None`` on a cleanly closed peer."""
    header = _recv_exact(sock, 8)
    if header is None:
        return None
    (length,) = struct.unpack(">Q", header)
    payload = _recv_exact(sock, length)
    if payload is None:
        return None
    return pickle.loads(payload)


def spawn_local_worker(
    address: str, extra_path: Sequence[str] = ()
) -> "subprocess.Popen[bytes]":
    """Start a worker daemon on *this* machine, attached to ``address``.

    The child runs ``python -m repro.engine.worker --connect address``
    with a ``PYTHONPATH`` that guarantees the ``repro`` package (and any
    ``extra_path`` entries — e.g. a test-helper directory whose cell
    functions the coordinator will pickle by reference) resolve to the
    same code the coordinator is running.
    """
    src_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    paths = [src_root, *extra_path]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    command = [
        sys.executable,
        "-m",
        "repro.engine.worker",
        "--connect",
        address,
    ]
    return subprocess.Popen(command, env=env)


#: Sentinel job id for synthetic canary tasks (worker probation probes)
#: — they belong to no client job and are never requeued.
_CANARY_JOB = -1


def canary_probe(value: int) -> int:
    """The probation canary cell: trivial, deterministic, checkable.

    A worker re-admitted from quarantine must return the expected
    value for one canary shard before it is handed real work again.
    """
    return value * 2 + 1


class _RemoteTask:
    """One queued/assigned shard: its job, payload, and requeue count.

    ``holder`` is the serving connection's identity token while the
    task is assigned (None while queued); ``assigned_at`` is the
    monotonic assignment time the deadline sweep checks; ``worker_id``
    is the holder's health-ledger key; ``key`` is the journal digest
    (None when journalling is off or for canaries).
    """

    __slots__ = (
        "wire_id", "job_id", "index", "fn", "cells", "requeues",
        "holder", "assigned_at", "worker_id", "key",
    )

    def __init__(
        self,
        wire_id: int,
        job_id: int,
        index: int,
        fn: Callable[..., Any],
        cells: List[Cell],
        key: Optional[str] = None,
    ):
        self.wire_id = wire_id
        self.job_id = job_id
        self.index = index
        self.fn = fn
        self.cells = cells
        self.requeues = 0
        self.holder: Optional[object] = None
        self.assigned_at: Optional[float] = None
        self.worker_id: Optional[str] = None
        self.key = key


class _WorkerHealth:
    """Health-ledger entry for one worker identity (usually a pid).

    ``state`` is one of ``active`` (normal service), ``quarantined``
    (no assignments until the cooldown passes) and ``probation``
    (exactly one canary task in flight).  Failures are deaths while
    holding a task; timeouts are deadline revocations.
    """

    __slots__ = (
        "worker_id", "state", "failures", "timeouts", "completed",
        "canaries_passed", "quarantines", "quarantined_at",
    )

    def __init__(self, worker_id: str):
        self.worker_id = worker_id
        self.state = "active"
        self.failures = 0
        self.timeouts = 0
        self.completed = 0
        self.canaries_passed = 0
        self.quarantines = 0
        self.quarantined_at = 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {
            "state": self.state,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "completed": self.completed,
            "canaries_passed": self.canaries_passed,
            "quarantines": self.quarantines,
        }


class _RemoteJob:
    """One client-visible submission (a blocking map or one future)."""

    __slots__ = (
        "job_id", "size", "results", "failure", "on_task_done", "liveness",
    )

    def __init__(
        self,
        job_id: int,
        size: int,
        on_task_done: Optional[Callable[..., None]] = None,
        liveness: Optional[Callable[[], bool]] = None,
    ):
        self.job_id = job_id
        self.size = size
        self.results: Dict[int, List[Any]] = {}
        self.failure: Optional[RemoteRunError] = None
        self.on_task_done = on_task_done
        self.liveness = liveness


#: Open in-process coordinators.  ``coordkill`` faults consult this so
#: one inherited ``REPRO_FAULTS`` value only kills coordinator hosts.
_LIVE_COORDINATORS: "weakref.WeakSet[RemoteCoordinator]" = weakref.WeakSet()

#: On-disk journal format version (see ``CoordinatorConfig.journal_path``).
_JOURNAL_VERSION = 1


def live_coordinator_count() -> int:
    """How many open coordinators this process currently hosts."""
    return sum(1 for coord in _LIVE_COORDINATORS if not coord._closed)


class RemoteCoordinator:
    """TCP work session: a shared task queue served to a worker fleet.

    Args:
        bind: ``HOST:PORT`` to listen on; port ``0`` picks an ephemeral
            port (read the resolved one back from :attr:`address`).
        config: timing knobs (defaults to
            :meth:`CoordinatorConfig.from_env`).

    The coordinator accepts workers for its whole lifetime and serves
    any number of *concurrent* jobs: blocking :meth:`map_shards` calls
    and asynchronous :meth:`submit_single` tasks all feed one shared
    FIFO queue, and every connected worker pulls whatever task is next
    regardless of which job enqueued it — shards from concurrent jobs
    are work-stolen by whichever worker frees up first.  Daemons may
    attach before any job starts or join mid-run and immediately pull
    remaining tasks, and between jobs they idle on the connection
    (workers are only shut down by :meth:`close`).  Per-connection
    handler threads serve the pull loop; all session state is guarded
    by one condition variable.

    Fault tolerance: a connection that drops while holding a shard has
    that shard requeued (bounded by ``config.max_requeues``); because
    cells are pure functions, re-execution elsewhere returns the
    identical result.  With ``config.task_deadline_s`` set, a shard a
    worker *holds* past the deadline is likewise revoked and requeued
    — the hung worker's eventual late result is acknowledged but
    discarded, so no shard records twice.  A worker-side *exception*
    (as opposed to worker death) is deterministic and therefore fatal
    to the task's own job — exactly like the serial reference — while
    co-tenant jobs keep running.  Every recorded result is acknowledged
    to the worker before it asks for more work, and :meth:`close`
    drains assigned tasks before shutting the fleet down, so the last
    shard of a session can neither be dropped nor requeued spuriously.
    Chronic offenders are quarantined via the per-worker health ledger
    (see :meth:`fleet_health`), and with ``config.journal_path`` set a
    restarted coordinator replays journalled results and announces a
    bumped epoch to redialing workers.
    """

    def __init__(
        self,
        bind: str = "127.0.0.1:0",
        config: Optional[CoordinatorConfig] = None,
    ):
        self.config = config or CoordinatorConfig.from_env()
        host, port = parse_address(bind)
        self._server = socket.create_server((host, port))
        self._server.settimeout(self.config.poll_interval)
        self.host = host
        self.port = self._server.getsockname()[1]
        self._state = threading.Condition()
        self._jobs: Dict[int, _RemoteJob] = {}
        self._tasks: Dict[int, _RemoteTask] = {}
        self._queue: "deque[int]" = deque()  # wire ids, FIFO across jobs
        self._next_job_id = 0
        self._next_wire_id = 0
        self._assigned = 0  # tasks currently held by workers
        self._active_workers = 0
        self._closing = False  # stop assigning; drain in-flight tasks
        self._closed = False
        # kernel-availability maps already warned about, so a fleet of
        # identical numpy-only workers produces one heads-up, not one
        # per connection
        self._warned_kernel_maps: set = set()
        #: health ledger, keyed by worker identity (pid when advertised)
        self._health: Dict[str, _WorkerHealth] = {}
        #: connection tokens whose assignment the deadline sweep revoked
        #: — their next slot event (late result, error, or death) is
        #: discarded instead of double-accounted
        self._revoked_tokens: set = set()
        #: open worker connections, so :meth:`kill` can sever them
        self._conns: set = set()
        #: journalled results keyed by task digest; replayed on submit
        self._journal_results: Dict[str, List[Any]] = {}
        self.epoch = 0
        if self.config.journal_path:
            self._journal_load()
            self._journal_write_locked()  # persist the epoch bump
        _LIVE_COORDINATORS.add(self)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        """The ``HOST:PORT`` workers should ``--connect`` to."""
        return f"{self.host}:{self.port}"

    # -- lifecycle ------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop the session and release the port (idempotent).

        With ``drain`` (the default) the coordinator first stops
        assigning new tasks, then waits up to
        ``config.shutdown_timeout`` for tasks already held by workers
        to return — their results are recorded and acknowledged, so the
        last in-flight shard of a session is never lost to the
        teardown race (ack-then-close).  Jobs still unfinished after
        the drain fail with a *recoverable* :class:`RemoteRunError`
        carrying everything that did complete.
        """
        callbacks: List[Tuple[Callable[..., None], int, None, RemoteRunError]]
        with self._state:
            if self._closed:
                return
            self._closing = True
            self._state.notify_all()
            if drain:
                deadline = time.monotonic() + self.config.shutdown_timeout
                while self._assigned > 0 and time.monotonic() < deadline:
                    self._state.wait(timeout=self.config.poll_interval)
            self._closed = True
            callbacks = []
            for job in self._jobs.values():
                if job.failure is None and len(job.results) < job.size:
                    job.failure = RemoteRunError(
                        "coordinator closed with the job unfinished",
                        recoverable=True,
                    )
                    if job.on_task_done is not None:
                        callbacks.append(
                            (job.on_task_done, -1, None, job.failure)
                        )
            self._state.notify_all()
        for on_task_done, index, result, failure in callbacks:
            on_task_done(index, result, failure)
        try:
            self._server.close()
        except OSError:
            pass

    def __enter__(self) -> "RemoteCoordinator":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def kill(self) -> None:
        """Drain-free teardown simulating a coordinator crash (tests).

        Closes the server socket and every worker connection abruptly —
        no shutdown messages, no drain — so workers observe exactly
        what a SIGKILLed coordinator process looks like and enter their
        redial loop.  In-process clients blocked in :meth:`wait_job`
        fail with a *recoverable* error; a :class:`RemoteBackend` will
        stand up a fresh coordinator (same journal, bumped epoch) on
        its next call.
        """
        callbacks: List[Tuple[Callable[..., None], RemoteRunError]] = []
        with self._state:
            if self._closed:
                return
            self._closed = True
            for job in self._jobs.values():
                if job.failure is None and len(job.results) < job.size:
                    job.failure = RemoteRunError(
                        "coordinator killed with the job unfinished",
                        recoverable=True,
                    )
                    if job.on_task_done is not None:
                        callbacks.append((job.on_task_done, job.failure))
            conns = list(self._conns)
            self._state.notify_all()
        for on_task_done, failure in callbacks:
            on_task_done(-1, None, failure)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        try:
            self._server.close()
        except OSError:
            pass

    def alive(self) -> bool:
        """True while the coordinator can still accept workers."""
        return not self._closed and self._accept_thread.is_alive()

    # -- crash journal --------------------------------------------------

    @staticmethod
    def _task_key(fn: Callable[..., Any], cells: Sequence[Cell]) -> str:
        """Content digest of one task (pure cells ⇒ stable across runs)."""
        payload = pickle.dumps(
            (getattr(fn, "__module__", None), getattr(fn, "__qualname__", None),
             list(cells)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return hashlib.sha256(payload).hexdigest()

    def _journal_load(self) -> None:
        """Read a prior incarnation's journal; bump the epoch past it."""
        path = self.config.journal_path
        assert path is not None
        try:
            with open(path, "rb") as handle:
                data = pickle.loads(handle.read())
            if (
                not isinstance(data, dict)
                or data.get("version") != _JOURNAL_VERSION
            ):
                raise ValueError(f"unsupported journal payload in {path}")
            self._journal_results = dict(data.get("results", {}))
            self.epoch = int(data.get("epoch", -1)) + 1
            _LOG.info(
                "coordinator recovered journal %s: epoch %d, %d result(s) "
                "replayable", path, self.epoch, len(self._journal_results),
            )
        except FileNotFoundError:
            pass
        except (OSError, ValueError, pickle.PickleError, EOFError) as exc:
            quarantine_corrupt_file(path, f"unreadable coordinator journal: {exc}")
            self._journal_results = {}

    def _journal_write_locked(self) -> None:
        """Durably rewrite the journal (caller holds ``_state`` or init)."""
        path = self.config.journal_path
        if not path:
            return
        payload = pickle.dumps(
            {
                "version": _JOURNAL_VERSION,
                "epoch": self.epoch,
                "results": self._journal_results,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        atomic_write_bytes(path, payload)

    # -- fleet health ----------------------------------------------------

    def fleet_health(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot of the per-worker health ledger.

        Keys are worker identities (``pid:N`` for workers advertising a
        pid, ``conn:N`` otherwise); values carry ``state`` (``active`` /
        ``quarantined`` / ``probation``) and the failure / timeout /
        completed / canary counters.  Purely observational — reading it
        never changes scheduling.
        """
        with self._state:
            return {
                worker_id: health.snapshot()
                for worker_id, health in self._health.items()
            }

    def _health_for_locked(self, worker_id: str) -> _WorkerHealth:
        health = self._health.get(worker_id)
        if health is None:
            health = _WorkerHealth(worker_id)
            self._health[worker_id] = health
        return health

    def _note_offense_locked(self, worker_id: Optional[str], kind: str) -> None:
        """Score a death (``failures``) or revocation (``timeouts``)."""
        if worker_id is None:
            return
        health = self._health_for_locked(worker_id)
        if kind == "failure":
            health.failures += 1
        else:
            health.timeouts += 1
        threshold = self.config.quarantine_threshold
        if (
            threshold > 0
            and health.state == "active"
            and health.failures + health.timeouts >= threshold
        ):
            self._quarantine_locked(health, reason=kind)

    def _quarantine_locked(self, health: _WorkerHealth, reason: str) -> None:
        health.state = "quarantined"
        health.quarantines += 1
        health.quarantined_at = time.monotonic()
        _LOG.warning(
            "worker %s quarantined after %d failure(s) + %d timeout(s) "
            "(last offense: %s); cooldown %.1fs",
            health.worker_id, health.failures, health.timeouts, reason,
            self.config.quarantine_cooldown_s,
        )

    # -- job submission -------------------------------------------------

    def submit_job(
        self,
        fn: Callable[..., Any],
        shards: Sequence[Sequence[Cell]],
        on_task_done: Optional[Callable[..., None]] = None,
        liveness: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Enqueue one job's shards on the shared queue; returns job id.

        ``on_task_done(index, result, failure)`` — when given — fires
        once per completed shard (``failure is None``) and once more,
        with ``index == -1``, if the job fails (requeue budget, close,
        or a deterministic cell exception); it is always invoked
        outside the coordinator lock.  ``liveness`` is the stall probe
        for callback-driven jobs (no ``wait_job`` caller to run one):
        the accept loop aborts the job when no worker is connected and
        the probe says none can ever return.
        """
        shards = [list(shard) for shard in shards]
        journaling = bool(self.config.journal_path)
        callbacks: List[Tuple[Callable[..., None], int, List[Any]]] = []
        with self._state:
            if self._closed or self._closing:
                raise ExperimentError("coordinator is closed")
            job_id = self._next_job_id
            self._next_job_id += 1
            job = _RemoteJob(job_id, len(shards), on_task_done, liveness)
            self._jobs[job_id] = job
            for index, shard in enumerate(shards):
                key = self._task_key(fn, shard) if journaling else None
                if key is not None and key in self._journal_results:
                    # a prior incarnation already ran this exact task —
                    # replay its journalled result instead of redoing it
                    result = list(self._journal_results[key])
                    job.results[index] = result
                    if job.on_task_done is not None:
                        callbacks.append((job.on_task_done, index, result))
                    continue
                wire_id = self._next_wire_id
                self._next_wire_id += 1
                self._tasks[wire_id] = _RemoteTask(
                    wire_id, job_id, index, fn, shard, key=key
                )
                self._queue.append(wire_id)
            if (
                len(job.results) == job.size
                and job.on_task_done is not None
            ):
                # fully replayed callback-driven job: reap immediately
                del self._jobs[job_id]
            self._state.notify_all()
        for replay_callback, index, result in callbacks:
            replay_callback(index, result, None)
        return job_id

    def submit_single(
        self,
        fn: Callable[..., Any],
        cells: Sequence[Cell],
        on_done: Callable[
            [Optional[List[Any]], Optional[RemoteRunError]], None
        ],
        liveness: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Enqueue one shard as its own job (the futures entry point).

        ``on_done(result, failure)`` fires exactly once — with the
        per-cell result list on success, or a :class:`RemoteRunError`
        on failure — outside the coordinator lock.  Single-shard jobs
        share the session queue with every other job, so concurrent
        clients' shards interleave onto whichever workers free up
        first.
        """
        fired = []  # on_task_done can see completion AND job failure

        def on_task_done(
            _index: int,
            result: Optional[List[Any]],
            failure: Optional[RemoteRunError],
        ) -> None:
            if fired:
                return
            fired.append(True)
            on_done(result, failure)

        return self.submit_job(
            fn,
            [list(cells)],
            on_task_done=on_task_done,
            liveness=liveness,
        )

    def map_shards(
        self,
        fn: Callable[..., Any],
        shards: Sequence[Sequence[Cell]],
        liveness: Optional[Callable[[], bool]] = None,
    ) -> List[List[Any]]:
        """Dispatch shards to connected workers; block until complete.

        Args:
            fn: module-level cell function (pickled by reference).
            shards: picklable cell tuples, grouped into tasks.
            liveness: optional probe for backend-managed workers; when
                no worker is connected and the probe says none can ever
                return, the job aborts instead of waiting forever.

        Several ``map_shards`` calls may be in flight at once (from
        different threads); their shards share the session queue and
        the worker fleet, and each call fails or completes on its own.
        """
        shards = [list(shard) for shard in shards]
        if not shards:
            return []
        job_id = self.submit_job(fn, shards)
        return self.wait_job(job_id, liveness=liveness)

    def _drop_job_tasks_locked(self, job_id: int) -> None:
        """Forget a finished/failed job's unassigned tasks (lock held)."""
        for wire_id in [
            wire_id
            for wire_id, task in self._tasks.items()
            if task.job_id == job_id
        ]:
            del self._tasks[wire_id]

    def wait_job(
        self, job_id: int, liveness: Optional[Callable[[], bool]] = None
    ) -> List[List[Any]]:
        """Block until a submitted job completes; per-shard results in order."""
        with self._state:
            job = self._jobs[job_id]
            while True:
                if job.failure is not None:
                    self._jobs.pop(job_id, None)
                    self._drop_job_tasks_locked(job_id)
                    failure = job.failure
                    # attach what did finish so FallbackBackend (or a
                    # caller) can drain only the missing shards
                    failure.completed = {
                        index: list(result)
                        for index, result in job.results.items()
                    }
                    raise failure
                if len(job.results) == job.size:
                    self._jobs.pop(job_id, None)
                    return [job.results[index] for index in range(job.size)]
                if (
                    liveness is not None
                    and self._active_workers == 0
                    and not liveness()
                ):
                    self._jobs.pop(job_id, None)
                    self._drop_job_tasks_locked(job_id)
                    raise RemoteRunError(
                        "remote run stalled: every worker exited with "
                        f"{job.size - len(job.results)} "
                        "shard(s) unfinished",
                        completed={
                            index: list(result)
                            for index, result in job.results.items()
                        },
                        recoverable=True,
                    )
                self._state.wait(timeout=self.config.poll_interval)

    # -- worker service -------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            with self._state:
                if self._closed:
                    return
            self._sweep_stalled_jobs()
            self._sweep_deadlines()
            try:
                conn, _peer = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(
                target=self._serve_worker, args=(conn,), daemon=True
            ).start()

    def _sweep_stalled_jobs(self) -> None:
        """Abort callback-driven jobs whose fleet can never return.

        Blocking ``wait_job`` callers run their own liveness probe;
        futures resolved by ``on_task_done`` have no waiter, so the
        accept loop (which already ticks every ``poll_interval``)
        sweeps jobs carrying a probe and fails them — recoverable, like
        the blocking stall abort — once no worker is connected and the
        probe reports none can come back.
        """
        callbacks: List[Tuple[Callable[..., None], RemoteRunError]] = []
        with self._state:
            if self._active_workers > 0:
                return
            for job in list(self._jobs.values()):
                if (
                    job.liveness is None
                    or job.on_task_done is None
                    or job.failure is not None
                    or job.liveness()
                ):
                    continue
                job.failure = RemoteRunError(
                    "remote run stalled: every worker exited with "
                    f"{job.size - len(job.results)} shard(s) unfinished",
                    recoverable=True,
                )
                callbacks.append((job.on_task_done, job.failure))
                del self._jobs[job.job_id]
                self._drop_job_tasks_locked(job.job_id)
            if callbacks:
                self._state.notify_all()
        for on_task_done, failure in callbacks:
            on_task_done(-1, None, failure)

    def _handshake(self, conn: socket.socket) -> Optional[str]:
        """Run the hello/welcome exchange; returns the worker identity.

        ``None`` means the connection was rejected.  The ``welcome``
        carries the coordinator epoch so a redialing worker can tell a
        reconnect (same epoch) from a rebind to a restarted
        incarnation (higher epoch).
        """
        hello = recv_msg(conn)
        if not isinstance(hello, dict) or hello.get("type") != "hello":
            send_msg(conn, {"type": "reject", "reason": "bad handshake"})
            return None
        if hello.get("protocol") != PROTOCOL_VERSION:
            send_msg(
                conn,
                {
                    "type": "reject",
                    "reason": (
                        f"protocol version {hello.get('protocol')!r} does "
                        f"not match coordinator version {PROTOCOL_VERSION}"
                    ),
                },
            )
            return None
        self._check_worker_kernels(hello)
        send_msg(
            conn,
            {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "epoch": self.epoch,
            },
        )
        pid = hello.get("pid")
        if pid is not None:
            return f"pid:{pid}"
        return f"conn:{id(conn)}"

    def _check_worker_kernels(self, hello: Dict[str, Any]) -> None:
        """Warn (never reject) when a worker lacks a local kernel tier.

        Results are bit-identical across tiers, so a mixed fleet is a
        performance footgun, not a correctness problem: a numpy-only
        worker simply becomes the slow straggler.  Pre-kernel workers
        that send no ``kernels`` field are accepted silently —
        PROTOCOL_VERSION is unchanged.
        """
        advertised = hello.get("kernels")
        if not isinstance(advertised, dict):
            return
        from repro.engine.kernels import kernel_availability

        local = kernel_availability()
        missing = sorted(
            name
            for name, available in local.items()
            if available and not advertised.get(name, False)
        )
        if not missing:
            return
        key = tuple(sorted((k, bool(v)) for k, v in advertised.items()))
        with self._state:
            if key in self._warned_kernel_maps:
                return
            self._warned_kernel_maps.add(key)
        warnings.warn(
            f"remote worker pid={hello.get('pid')} lacks kernel tier(s) "
            f"{', '.join(missing)} available on the coordinator; the "
            "fleet stays bit-identical but that worker falls back to "
            "slower tiers",
            RuntimeWarning,
            stacklevel=2,
        )

    def _next_task(
        self, worker_id: str, token: object
    ) -> Optional[_RemoteTask]:
        """Block until a task is assignable; ``None`` means shut down.

        Between jobs (and while a failed job unwinds) workers idle here
        rather than being shut down, so a persistent backend reuses the
        connected fleet across consecutive jobs.  The queue is shared
        session-wide: entries whose job has since finished or failed
        are skipped lazily, everything else is handed out FIFO
        regardless of which job enqueued it (work-stealing).

        Health gating happens here: a quarantined worker idles without
        assignments until its cooldown passes, then receives exactly
        one synthetic canary task (probation); only a correct canary
        result re-admits it to the real queue.
        """
        with self._state:
            while True:
                if self._closed or self._closing:
                    return None
                health = self._health.get(worker_id)
                if (
                    health is not None
                    and health.state != "active"
                    and self.config.quarantine_threshold > 0
                ):
                    if health.state == "quarantined" and (
                        time.monotonic() - health.quarantined_at
                        >= self.config.quarantine_cooldown_s
                    ):
                        health.state = "probation"
                        _LOG.warning(
                            "worker %s re-admitted on probation; issuing "
                            "canary task", worker_id,
                        )
                        wire_id = self._next_wire_id
                        self._next_wire_id += 1
                        canary = _RemoteTask(
                            wire_id, _CANARY_JOB, 0, canary_probe,
                            [(wire_id,)],
                        )
                        self._tasks[wire_id] = canary
                        self._assign_locked(canary, worker_id, token)
                        return canary
                    # quarantined (cooling down) or probation (canary
                    # already in flight): no real work yet
                    self._state.wait(timeout=self.config.poll_interval)
                    continue
                while self._queue:
                    wire_id = self._queue.popleft()
                    task = self._tasks.get(wire_id)
                    if task is None:
                        continue  # job finished/failed; stale entry
                    job = self._jobs.get(task.job_id)
                    if job is None or job.failure is not None:
                        del self._tasks[wire_id]
                        continue
                    self._assign_locked(task, worker_id, token)
                    return task
                self._state.wait(timeout=self.config.poll_interval)

    def _assign_locked(
        self, task: _RemoteTask, worker_id: str, token: object
    ) -> None:
        task.holder = token
        task.worker_id = worker_id
        task.assigned_at = time.monotonic()
        self._assigned += 1

    def _record_result(
        self, wire_id: int, result: List[Any], token: object
    ) -> Optional[Tuple[Callable[..., None], int, List[Any]]]:
        """Record one task's result; returns the done-callback to fire.

        A result from a connection whose assignment the deadline sweep
        revoked is *discarded* (the sweep already re-accounted the
        assignment slot and requeued the shard — recording here would
        double-record); the worker still gets its ack so the protocol
        stays in step.
        """
        with self._state:
            if token in self._revoked_tokens:
                self._revoked_tokens.discard(token)
                _LOG.warning(
                    "discarding late result for task %d from a "
                    "deadline-revoked assignment", wire_id,
                )
                self._state.notify_all()
                return None
            self._assigned -= 1
            task = self._tasks.pop(wire_id, None)
            callback = None
            if task is not None:
                if task.worker_id is not None:
                    self._health_for_locked(task.worker_id).completed += 1
                if task.job_id == _CANARY_JOB:
                    self._finish_canary_locked(task, result)
                    self._state.notify_all()
                    return None
                job = self._jobs.get(task.job_id)
                if job is not None and job.failure is None:
                    job.results[task.index] = result
                    if task.key is not None:
                        self._journal_results[task.key] = list(result)
                        self._journal_write_locked()
                    if job.on_task_done is not None:
                        callback = (job.on_task_done, task.index, result)
                        if len(job.results) == job.size:
                            # callback-driven jobs have no wait_job
                            # caller to reap them — reap on completion
                            del self._jobs[job.job_id]
            self._state.notify_all()
        return callback

    def _finish_canary_locked(
        self, task: _RemoteTask, result: List[Any]
    ) -> None:
        """Grade a probation canary: correct ⇒ active, wrong ⇒ back out."""
        worker_id = task.worker_id
        if worker_id is None:
            return
        health = self._health_for_locked(worker_id)
        expected = [canary_probe(*cell) for cell in task.cells]
        if result == expected:
            health.state = "active"
            health.failures = 0
            health.timeouts = 0
            health.canaries_passed += 1
            _LOG.warning(
                "worker %s passed its canary; resuming real assignments",
                worker_id,
            )
        else:
            self._quarantine_locked(health, reason="wrong canary result")

    def _record_error(
        self, wire_id: int, error: str, token: object
    ) -> Optional[Tuple[Callable[..., None], RemoteRunError]]:
        """Fail one task's job; returns the failure callback to fire."""
        with self._state:
            if token in self._revoked_tokens:
                # the shard was revoked and requeued; it will either
                # succeed elsewhere or fail there identically
                self._revoked_tokens.discard(token)
                self._state.notify_all()
                return None
            self._assigned -= 1
            task = self._tasks.pop(wire_id, None)
            callback = None
            if task is not None:
                if task.job_id == _CANARY_JOB:
                    if task.worker_id is not None:
                        self._quarantine_locked(
                            self._health_for_locked(task.worker_id),
                            reason="canary error",
                        )
                    self._state.notify_all()
                    return None
                job = self._jobs.get(task.job_id)
                if job is not None and job.failure is None:
                    # a worker-side exception is deterministic — the
                    # cell would fail anywhere, so draining elsewhere
                    # cannot help; co-tenant jobs are unaffected
                    job.failure = RemoteRunError(
                        f"remote worker failed on shard "
                        f"{task.index}: {error}",
                        recoverable=False,
                    )
                    if job.on_task_done is not None:
                        callback = (job.on_task_done, job.failure)
                        del self._jobs[job.job_id]
            self._state.notify_all()
        return callback

    def _sweep_deadlines(self) -> None:
        """Revoke and requeue tasks held past ``config.task_deadline_s``.

        Runs from the accept loop every poll tick.  Revocation marks
        the holding connection's token so the worker's *next* slot
        event (late result, late error, or death) is discarded instead
        of double-accounted, scores a timeout against the worker's
        health ledger, and requeues the shard against the job's requeue
        budget — a hung worker therefore only ever consumes its *own*
        task's budget, never another job's.
        """
        deadline = self.config.task_deadline_s
        if deadline is None:
            return
        now = time.monotonic()
        callbacks: List[Tuple[Callable[..., None], RemoteRunError]] = []
        with self._state:
            for task in list(self._tasks.values()):
                if task.holder is None or task.assigned_at is None:
                    continue
                if now - task.assigned_at < deadline:
                    continue
                worker_id = task.worker_id
                self._revoked_tokens.add(task.holder)
                task.holder = None
                task.assigned_at = None
                task.worker_id = None
                self._assigned -= 1
                self._note_offense_locked(worker_id, "timeout")
                if task.job_id == _CANARY_JOB:
                    # a hung canary sends its worker straight back out
                    del self._tasks[task.wire_id]
                    if worker_id is not None:
                        self._quarantine_locked(
                            self._health_for_locked(worker_id),
                            reason="canary timeout",
                        )
                    continue
                job = self._jobs.get(task.job_id)
                if job is None or job.failure is not None:
                    del self._tasks[task.wire_id]
                    continue
                task.requeues += 1
                _LOG.warning(
                    "task %d (shard %d of job %d) exceeded its %.1fs "
                    "deadline on worker %s; requeue %d/%d",
                    task.wire_id, task.index, task.job_id, deadline,
                    worker_id, task.requeues, self.config.max_requeues,
                )
                if task.requeues > self.config.max_requeues:
                    job.failure = RemoteRunError(
                        f"shard {task.index} timed out on "
                        f"{task.requeues} workers; giving up instead of "
                        "consuming the fleet",
                        recoverable=True,
                    )
                    if job.on_task_done is not None:
                        callbacks.append((job.on_task_done, job.failure))
                        del self._jobs[job.job_id]
                    del self._tasks[task.wire_id]
                else:
                    self._queue.append(task.wire_id)
            self._state.notify_all()
        for on_task_done, failure in callbacks:
            on_task_done(-1, None, failure)

    def _serve_worker(self, conn: socket.socket) -> None:
        held: Optional[_RemoteTask] = None
        registered = False
        token = object()  # this connection's assignment identity
        worker_id: Optional[str] = None
        with self._state:
            if self._closed:
                try:
                    conn.close()
                except OSError:
                    pass
                return
            self._conns.add(conn)
        try:
            worker_id = self._handshake(conn)
            if worker_id is None:
                return
            with self._state:
                self._health_for_locked(worker_id)
                self._active_workers += 1
                self._state.notify_all()
            registered = True
            while True:
                message = recv_msg(conn)
                if message is None:
                    return  # peer closed; finally-block requeues
                kind = message.get("type")
                if kind == "ready":
                    task = self._next_task(worker_id, token)
                    if task is None:
                        send_msg(conn, {"type": "shutdown"})
                        return
                    held = task
                    send_msg(
                        conn,
                        {
                            "type": "task",
                            "task_id": task.wire_id,
                            "fn": task.fn,
                            "cells": task.cells,
                        },
                    )
                elif kind == "result":
                    # clear the held task *before* acking: once the
                    # result is recorded, this worker dying can no
                    # longer requeue (and thus double-run) the shard
                    wire_id = message["task_id"]
                    held = None
                    callback = self._record_result(
                        wire_id, message["result"], token
                    )
                    if callback is not None:
                        on_task_done, index, result = callback
                        on_task_done(index, result, None)
                    send_msg(conn, {"type": "ack", "task_id": wire_id})
                elif kind == "error":
                    # deterministic failure is job-scoped: fail that
                    # job, keep serving the connection so co-tenant
                    # jobs keep their worker
                    wire_id = message["task_id"]
                    held = None
                    fail_callback = self._record_error(
                        wire_id, message["error"], token
                    )
                    if fail_callback is not None:
                        on_task_done, run_error = fail_callback
                        on_task_done(-1, None, run_error)
                else:
                    return  # protocol confusion: drop the connection
        except (OSError, pickle.PickleError, EOFError, ConnectionError):
            pass  # connection-level failure; finally-block requeues
        finally:
            fail_callback = None
            with self._state:
                self._conns.discard(conn)
                if registered:
                    self._active_workers -= 1
                if held is not None and token in self._revoked_tokens:
                    # the deadline sweep already revoked (and
                    # re-accounted) this assignment — a dead hung
                    # worker must not requeue the shard a second time
                    self._revoked_tokens.discard(token)
                    held = None
                if held is not None:
                    self._assigned -= 1
                    if registered and held.worker_id is not None:
                        self._note_offense_locked(
                            held.worker_id, "failure"
                        )
                    task = self._tasks.get(held.wire_id)
                    if task is not None and task.holder is not token:
                        task = None  # reassigned elsewhere; not ours
                    if task is not None and task.job_id == _CANARY_JOB:
                        # death during probation: straight back out
                        del self._tasks[task.wire_id]
                        if task.worker_id is not None:
                            self._quarantine_locked(
                                self._health_for_locked(task.worker_id),
                                reason="died holding canary",
                            )
                        task = None
                    job = (
                        self._jobs.get(task.job_id)
                        if task is not None
                        else None
                    )
                    if task is not None and job is not None:
                        task.holder = None
                        task.assigned_at = None
                        task.worker_id = None
                        task.requeues += 1
                        if task.requeues > self.config.max_requeues:
                            # worker *death* is an infrastructure
                            # failure; the surviving shards can still
                            # run elsewhere
                            if job.failure is None:
                                job.failure = RemoteRunError(
                                    f"shard {task.index} killed "
                                    f"{task.requeues} workers; giving up "
                                    "instead of consuming the fleet",
                                    recoverable=True,
                                )
                                if job.on_task_done is not None:
                                    fail_callback = (
                                        job.on_task_done,
                                        job.failure,
                                    )
                                    del self._jobs[job.job_id]
                            del self._tasks[held.wire_id]
                        else:
                            self._queue.append(held.wire_id)
                self._state.notify_all()
            if fail_callback is not None:
                on_task_done, run_error = fail_callback
                on_task_done(-1, None, run_error)
            try:
                conn.close()
            except OSError:
                pass


class RemoteBackend(ExecutorBackend):
    """Persistent remote dispatch with optional local worker spawning.

    Args:
        coordinator: ``HOST:PORT`` to bind (default: loopback with an
            ephemeral port — single-machine multi-process mode).
        spawn: local worker daemons to keep attached (default 2);
            ``0`` relies entirely on externally started workers, which
            may connect at any point while a run is in flight.

    The coordinator and spawned daemons persist across ``map_shards``
    calls — a harness that maps several grids (or several harnesses
    sharing one backend via :func:`shared_remote_backend`) pays daemon
    start-up and per-worker library rebuilds once, mirroring the warm
    process pool.  Daemons that died (or were killed by fault
    injection) are respawned at the next call.  :meth:`close` shuts
    the coordinator down and reaps the spawned daemons; external
    workers receive ``shutdown`` and exit on their own.
    """

    name = "remote"

    def __init__(
        self,
        coordinator: Optional[str] = None,
        spawn: Optional[int] = None,
        config: Optional[CoordinatorConfig] = None,
        task_deadline_s: Optional[float] = None,
    ):
        self.bind = coordinator if coordinator else "127.0.0.1:0"
        self.spawn = 2 if spawn is None else max(0, spawn)
        self.config = config or CoordinatorConfig.from_env()
        if task_deadline_s is not None:
            self.config = dataclasses.replace(
                self.config, task_deadline_s=task_deadline_s
            )
        self._lock = threading.Lock()
        self._coordinator: Optional[RemoteCoordinator] = None
        self._procs: List["subprocess.Popen[bytes]"] = []

    def _ensure_up(
        self,
    ) -> Tuple[RemoteCoordinator, List["subprocess.Popen[bytes]"]]:
        """Bind the coordinator once; top up daemons that have died.

        A coordinator that died ungracefully (see
        :meth:`RemoteCoordinator.kill`) is replaced by a fresh
        incarnation on the same bind — with a journal configured it
        replays recorded results and bumps the epoch, and surviving
        workers redial into it — so a persistent client session heals
        across coordinator crashes instead of erroring forever.
        """
        with self._lock:
            if self._coordinator is not None and not self._coordinator.alive():
                _LOG.warning(
                    "coordinator on %s died; rebinding a fresh incarnation",
                    self.bind,
                )
                self._coordinator = None
            if self._coordinator is None:
                # a dead incarnation's accept thread releases the port
                # only on its next poll tick, so rebinding the same
                # HOST:PORT right after a crash can transiently hit
                # EADDRINUSE — wait it out (bounded) instead of failing
                # the healing path
                deadline = time.monotonic() + self.config.shutdown_timeout
                while True:
                    try:
                        self._coordinator = RemoteCoordinator(
                            self.bind, config=self.config
                        )
                        break
                    except OSError as exc:
                        if (
                            exc.errno != errno.EADDRINUSE
                            or time.monotonic() >= deadline
                        ):
                            raise
                        time.sleep(self.config.poll_interval)
            self._procs = [
                proc for proc in self._procs if proc.poll() is None
            ]
            while len(self._procs) < self.spawn:
                self._procs.append(
                    spawn_local_worker(self._coordinator.address)
                )
            return self._coordinator, list(self._procs)

    def fleet_health(self) -> Dict[str, Dict[str, Any]]:
        """The live coordinator's health ledger ({} before first use)."""
        with self._lock:
            coordinator = self._coordinator
        if coordinator is None:
            return {}
        return coordinator.fleet_health()

    def map_shards(
        self, fn: Callable[..., Any], shards: Sequence[Sequence[Cell]]
    ) -> List[List[Any]]:
        if not shards:
            return []
        coordinator, workers = self._ensure_up()

        def spawned_alive() -> bool:
            return any(proc.poll() is None for proc in workers)

        liveness = spawned_alive if workers else None
        return coordinator.map_shards(fn, shards, liveness=liveness)

    def submit_cells(
        self,
        fn: Callable[..., Any],
        cells: Sequence[Cell],
        on_done: Callable[
            [Optional[List[Any]], Optional[RemoteRunError]], None
        ],
    ) -> None:
        """Enqueue one shard asynchronously (the futures entry point).

        The shard joins the coordinator session's shared queue, so
        concurrent clients' cells interleave onto whichever worker
        frees up first; ``on_done(result, failure)`` fires exactly once
        from a coordinator thread.
        """
        coordinator, workers = self._ensure_up()

        def spawned_alive() -> bool:
            return any(proc.poll() is None for proc in workers)

        liveness = spawned_alive if workers else None
        coordinator.submit_single(fn, cells, on_done, liveness=liveness)

    def close(self) -> None:
        """Drain in-flight tasks, shut the coordinator, reap daemons."""
        with self._lock:
            if self._coordinator is not None:
                self._coordinator.close(drain=True)
            self._coordinator = None
            procs, self._procs = self._procs, []
        for proc in procs:
            try:
                proc.wait(timeout=self.config.shutdown_timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                # reaping a SIGKILLed child is bounded by the kernel
                proc.wait()  # repro: noqa[TMO001]


class FallbackBackend(ExecutorBackend):
    """Graceful degradation: finish a failed remote run locally.

    Wraps a primary backend (typically :class:`RemoteBackend`).  When a
    run dies of an *infrastructure* failure — the requeue budget is
    exhausted or the stall-abort probe fires
    (:class:`RemoteRunError` with ``recoverable=True``) — the shards
    that never completed are drained on a local fallback backend with a
    :class:`RuntimeWarning`, instead of losing the whole run minutes
    in.  Completed shards are *not* re-executed: cells are pure, so the
    remote partial results are exactly what the fallback would compute.

    Deterministic cell exceptions (``recoverable=False``) re-raise
    unchanged — they would fail identically on the fallback, and
    papering over them would turn a real bug into a slow mystery.

    A coordinator unreachable at *connect* time (the bind or dial
    raises a plain :class:`OSError` before any shard ran) degrades the
    same way: all shards drain locally with a warning.

    Args:
        primary: the backend to try first.
        fallback: local drain target (default :class:`SerialBackend`);
            must honour the same determinism contract.
    """

    name = "fallback"

    def __init__(
        self,
        primary: ExecutorBackend,
        fallback: Optional[ExecutorBackend] = None,
    ):
        self.primary = primary
        self.fallback = fallback or SerialBackend()

    def map_shards(
        self, fn: Callable[..., Any], shards: Sequence[Sequence[Cell]]
    ) -> List[List[Any]]:
        shards = [list(shard) for shard in shards]
        try:
            return self.primary.map_shards(fn, shards)
        except OSError as exc:
            # the coordinator could not even be reached (bind/dial
            # failure before any shard ran): drain everything locally
            warnings.warn(
                f"remote backend unreachable at connect time ({exc}); "
                f"draining all {len(shards)} shard(s) on the local "
                f"{type(self.fallback).__name__}",
                RuntimeWarning,
                stacklevel=2,
            )
            return self.fallback.map_shards(fn, shards)
        except RemoteRunError as exc:
            if not exc.recoverable:
                raise
            missing = [
                index
                for index in range(len(shards))
                if index not in exc.completed
            ]
            warnings.warn(
                f"remote run failed ({exc}); draining {len(missing)} of "
                f"{len(shards)} shard(s) on the local "
                f"{type(self.fallback).__name__}",
                RuntimeWarning,
                stacklevel=2,
            )
            drained = self.fallback.map_shards(
                fn, [shards[index] for index in missing]
            )
            merged: List[List[Any]] = []
            for index in range(len(shards)):
                if index in exc.completed:
                    merged.append(exc.completed[index])
                else:
                    merged.append(drained[missing.index(index)])
            return merged

    def close(self) -> None:
        """Release the primary backend's resources (if it has any)."""
        close = getattr(self.primary, "close", None)
        if close is not None:
            close()


#: Persistent remote backends, keyed by (bind, spawn, deadline, worker
#: env) so a run never reuses a fleet spawned with a different
#: PYTHONPATH or a different revocation policy.
_REMOTE_BACKENDS: Dict[
    Tuple[str, int, Optional[float], str], RemoteBackend
] = {}
_REMOTE_LOCK = threading.Lock()
_REMOTE_OWNER_PID: Optional[int] = None


def shared_remote_backend(
    coordinator: Optional[str] = None,
    spawn: Optional[int] = None,
    task_deadline_s: Optional[float] = None,
) -> RemoteBackend:
    """The persistent remote backend for an address/fleet spec.

    Like :func:`shared_process_pool`, created once and reused across
    runs (the coordinator keeps its port, spawned daemons keep their
    warm library/predictor state) and pid-stamped so forked children
    never reuse a parent's sockets.
    """
    global _REMOTE_OWNER_PID
    bind = coordinator if coordinator else "127.0.0.1:0"
    count = 2 if spawn is None else max(0, spawn)
    key = (bind, count, task_deadline_s, os.environ.get("PYTHONPATH", ""))
    with _REMOTE_LOCK:
        pid = os.getpid()
        if _REMOTE_OWNER_PID != pid:
            _REMOTE_BACKENDS.clear()  # references belong to the parent
            _REMOTE_OWNER_PID = pid
        backend = _REMOTE_BACKENDS.get(key)
        if backend is None:
            backend = RemoteBackend(
                coordinator=bind, spawn=count, task_deadline_s=task_deadline_s
            )
            _REMOTE_BACKENDS[key] = backend
        return backend


def shutdown_remote_backends() -> None:
    """Close every persistent remote backend (teardown / exit)."""
    with _REMOTE_LOCK:
        backends = list(_REMOTE_BACKENDS.values())
        _REMOTE_BACKENDS.clear()
        owned = _REMOTE_OWNER_PID == os.getpid()
    for backend in backends:
        if owned:
            backend.close()


atexit.register(shutdown_remote_backends)


# --------------------------------------------------------------------------
# Backend registry — future strategies plug in here.
# --------------------------------------------------------------------------

BackendFactory = Callable[..., ExecutorBackend]

_BACKEND_FACTORIES: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a dispatch strategy under a ``--grid-mode`` name.

    ``factory`` is called with the keyword options ``workers``,
    ``coordinator``, ``spawn`` and ``task_deadline_s`` and may ignore
    whichever do not apply.
    """
    _BACKEND_FACTORIES[name] = factory


def backend_names() -> Tuple[str, ...]:
    """Registered strategy names, stable order (registration order)."""
    return tuple(_BACKEND_FACTORIES)


def create_backend(
    name: str,
    workers: int = 1,
    coordinator: Optional[str] = None,
    spawn: Optional[int] = None,
    task_deadline_s: Optional[float] = None,
) -> ExecutorBackend:
    """Instantiate a registered backend by name."""
    factory = _BACKEND_FACTORIES.get(name)
    if factory is None:
        raise ExperimentError(
            f"unknown execution backend {name!r}; "
            f"registered: {backend_names()}"
        )
    kwargs = {
        "workers": workers,
        "coordinator": coordinator,
        "spawn": spawn,
        "task_deadline_s": task_deadline_s,
    }
    # factories registered before task_deadline_s existed take three
    # keywords; pass each factory exactly what it declares so the
    # registry contract stays additive
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # pragma: no cover - C callables
        parameters = None
    if parameters is not None and not any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    ):
        kwargs = {k: v for k, v in kwargs.items() if k in parameters}
    return factory(**kwargs)


register_backend(
    "serial",
    lambda workers, coordinator, spawn, task_deadline_s: SerialBackend(),
)
register_backend(
    "thread",
    lambda workers, coordinator, spawn, task_deadline_s: ThreadBackend(
        workers
    ),
)
register_backend(
    "process",
    lambda workers, coordinator, spawn, task_deadline_s: ProcessBackend(
        workers
    ),
)
register_backend(
    "remote",
    lambda workers, coordinator, spawn, task_deadline_s: (
        shared_remote_backend(
            coordinator=coordinator,
            spawn=spawn,
            task_deadline_s=task_deadline_s,
        )
    ),
)
register_backend(
    "remote-fallback",
    lambda workers, coordinator, spawn, task_deadline_s: FallbackBackend(
        shared_remote_backend(
            coordinator=coordinator,
            spawn=spawn,
            task_deadline_s=task_deadline_s,
        )
    ),
)
