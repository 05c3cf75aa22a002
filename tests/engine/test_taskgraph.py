"""Tests for the async task-graph engine (futures, sessions, graphs).

Pins the submit/future API's determinism contract —
``session.map_shards(fn, shards)`` equals the serial reference for
every backend — plus the properties that make the layer worth having:
bounded backpressure, out-of-order streaming via ``as_completed``,
persistent coordinator sessions serving *concurrent* jobs off one
work-stealing queue (bit-identical to two serial runs), workers
joining and leaving while futures are live, ack-then-close draining an
in-flight result, and dependency-ordered :class:`TaskGraph` dispatch.

The consolidated :class:`GridRunner` surface rides along:
``run(ExecutionPlan...)`` identity against the legacy shims, and the
shims' :class:`DeprecationWarning`.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import remote_cells
from repro.engine.backends import (
    ProcessBackend,
    RemoteCoordinator,
    RemoteRunError,
    SerialBackend,
    ThreadBackend,
    shutdown_remote_backends,
    spawn_local_worker,
)
from repro.engine.faults import FAULTS_ENV
from repro.engine.grid import ExecutionPlan, GridConfig, GridRunner
from repro.engine.taskgraph import (
    CoordinatorSession,
    EngineSession,
    TaskFuture,
    TaskGraph,
)
from repro.errors import ExperimentError

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

CELLS = [(value, 100) for value in range(9)]
SHARDS = [CELLS[:3], CELLS[3:4], CELLS[4:]]
EXPECTED = [[value * value + 100 for value, _ in shard] for shard in SHARDS]

#: Wall-clock circuit breaker; a wedged future must fail, not hang CI.
TEST_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def hard_timeout():
    def on_alarm(signum, frame):  # pragma: no cover - only on a hang
        raise TimeoutError(f"taskgraph test exceeded {TEST_TIMEOUT_S}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TEST_TIMEOUT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def worker_pythonpath(monkeypatch):
    """Let spawned workers import ``remote_cells`` by reference."""
    existing = os.environ.get("PYTHONPATH")
    merged = HERE if not existing else HERE + os.pathsep + existing
    monkeypatch.setenv("PYTHONPATH", merged)


def _wait_until(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestTaskFuture:
    def test_result_blocks_then_returns(self):
        future = TaskFuture()
        threading.Timer(0.05, future._resolve, args=([42], None)).start()
        assert not future.done()
        assert future.result(timeout=5) == [42]
        assert future.done()
        assert future.exception() is None

    def test_result_timeout(self):
        future = TaskFuture(label="probe")
        with pytest.raises(TimeoutError, match="probe"):
            future.result(timeout=0.05)

    def test_exception_reraised(self):
        future = TaskFuture()
        future._resolve(None, ValueError("boom"))
        assert isinstance(future.exception(), ValueError)
        with pytest.raises(ValueError, match="boom"):
            future.result()

    def test_resolved_exactly_once(self):
        future = TaskFuture()
        future._resolve([1], None)
        future._resolve([2], None)  # ignored
        assert future.result() == [1]

    def test_callback_after_resolution_fires_immediately(self):
        future = TaskFuture()
        future._resolve([7], None)
        seen = []
        future.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == [[7]]


class TestEngineSession:
    @pytest.mark.parametrize(
        "backend_factory",
        [
            lambda: SerialBackend(),
            lambda: ThreadBackend(2),
            lambda: ProcessBackend(2),
        ],
        ids=["serial", "thread", "process"],
    )
    def test_map_shards_matches_reference(self, backend_factory):
        """The determinism contract, through submit-then-gather."""
        with EngineSession(backend_factory(), close_backend=True) as session:
            assert (
                session.map_shards(remote_cells.square_offset, SHARDS)
                == EXPECTED
            )

    def test_serial_resolves_inline_at_submit(self):
        with EngineSession(SerialBackend()) as session:
            future = session.submit(remote_cells.square_offset, SHARDS[0])
            assert future.done()  # no thread hop: the reference path
            assert future.result() == EXPECTED[0]

    def test_cell_exception_stored_not_raised_at_submit(self):
        with EngineSession(ThreadBackend(1)) as session:
            future = session.submit(remote_cells.raise_value_error, [(3,)])
            assert isinstance(future.exception(), ValueError)
            with pytest.raises(ValueError, match="deterministic"):
                future.result()

    def test_submit_after_close_raises(self):
        session = EngineSession(ThreadBackend(1))
        session.close()
        with pytest.raises(ExperimentError, match="closed"):
            session.submit(remote_cells.square_offset, SHARDS[0])

    def test_backpressure_blocks_submit(self):
        """The max_inflight'th+1 submit waits for a slot, then proceeds."""
        gate = threading.Event()
        submitted = threading.Event()

        def blocked_cell(value):
            gate.wait(timeout=30)
            return value

        session = EngineSession(ThreadBackend(1), max_inflight=1)
        try:
            # thread-backend-only session: the Event capture is the
            # point of the test, it never crosses a pickle boundary
            first = session.submit(blocked_cell, [(1,)])  # repro: noqa[PKL001]

            second_future = []

            def producer():
                second_future.append(
                    session.submit(blocked_cell, [(2,)])  # repro: noqa[PKL001]
                )
                submitted.set()

            thread = threading.Thread(target=producer, daemon=True)
            thread.start()
            # the slot is held by the gated first shard: submit must block
            assert not submitted.wait(timeout=0.3)
            gate.set()
            assert submitted.wait(timeout=30)
            assert first.result(timeout=30) == [1]
            assert second_future[0].result(timeout=30) == [2]
        finally:
            gate.set()
            session.close()

    def test_as_completed_streams_out_of_order(self):
        with EngineSession(ThreadBackend(2)) as session:
            slow = session.submit(
                remote_cells.slow_square, [(2, 0.5)], label="slow"
            )
            fast = session.submit(
                remote_cells.slow_square, [(3, 0.0)], label="fast"
            )
            order = [f.label for f in EngineSession.as_completed([slow, fast])]
        assert order == ["fast", "slow"]
        assert slow.result() == [4] and fast.result() == [9]

    def test_gather_preserves_submission_order(self):
        """Unequal per-shard delays cannot reorder gathered results."""
        delays = [0.2, 0.0, 0.1]
        cells = [[(value, delay)] for value, delay in enumerate(delays)]
        with EngineSession(ThreadBackend(3)) as session:
            futures = [
                session.submit(remote_cells.slow_square, shard)
                for shard in cells
            ]
            assert session.gather(futures) == [[0], [1], [4]]


class TestCoordinatorSession:
    def test_concurrent_jobs_share_one_fleet_bit_identically(self):
        """Two jobs on one session == two serial runs; workers shared.

        Cells from both jobs interleave on the coordinator's shared
        queue, so the 2-worker fleet work-steals across jobs — at
        least one worker pid must show up in *both* jobs' results —
        while each job's gathered values stay bit-identical to its
        serial reference.
        """
        job_a = [(value, 0.01) for value in range(6)]
        job_b = [(value, 0.05) for value in range(10, 16)]
        try:
            session = CoordinatorSession(spawn=2)
            futures_a, futures_b = [], []
            # interleaved submission: the shared queue alternates jobs
            for cell_a, cell_b in zip(job_a, job_b):
                futures_a.append(
                    session.submit(remote_cells.tag_worker_pid_slow, [cell_a])
                )
                futures_b.append(
                    session.submit(remote_cells.tag_worker_pid_slow, [cell_b])
                )
            results_a = session.gather(futures_a)
            results_b = session.gather(futures_b)
            session.close()

            assert [[pair[0] for pair in shard] for shard in results_a] == [
                [value] for value, _ in job_a
            ]
            assert [[pair[0] for pair in shard] for shard in results_b] == [
                [value] for value, _ in job_b
            ]
            pids_a = {shard[0][1] for shard in results_a}
            pids_b = {shard[0][1] for shard in results_b}
            assert len(pids_a | pids_b) <= 2  # one 2-daemon fleet, shared
            assert pids_a & pids_b  # work stealing across jobs happened
        finally:
            shutdown_remote_backends()

    def test_session_close_leaves_coordinator_up(self):
        """A session is a client of the fleet, not its owner."""
        try:
            first = CoordinatorSession(spawn=1)
            pid_first = first.submit(
                remote_cells.tag_worker_pid, [(1,)]
            ).result(timeout=60)[0][1]
            first.close()
            second = CoordinatorSession(spawn=1)
            pid_second = second.submit(
                remote_cells.tag_worker_pid, [(2,)]
            ).result(timeout=60)[0][1]
            second.close()
            assert pid_first == pid_second  # same warm daemon survived
        finally:
            shutdown_remote_backends()

    def test_worker_joins_while_futures_live(self):
        """Submit with an empty fleet; attach a worker mid-flight."""
        worker = None
        try:
            session = CoordinatorSession(spawn=0)
            futures = [
                session.submit(remote_cells.square_offset, shard)
                for shard in SHARDS
            ]
            time.sleep(0.3)  # live futures, nobody serving them
            assert not any(future.done() for future in futures)
            coordinator, _ = session.backend._ensure_up()
            worker = spawn_local_worker(coordinator.address)
            assert session.gather(futures) == EXPECTED
            session.close()
        finally:
            shutdown_remote_backends()
        if worker is not None:
            worker.wait(timeout=10)

    def test_worker_dies_while_futures_live(self, tmp_path):
        """A mid-shard worker death requeues; futures still resolve."""
        sentinel = str(tmp_path / "die-once")
        cells = [(value, 2, sentinel) for value in range(4)]
        try:
            session = CoordinatorSession(spawn=2)
            futures = [
                session.submit(remote_cells.die_once_at, [cell])
                for cell in cells
            ]
            assert session.gather(futures) == [
                [value * value] for value in range(4)
            ]
            session.close()
            assert os.path.exists(sentinel)  # a worker really died
        finally:
            shutdown_remote_backends()


class TestAckThenClose:
    def test_close_drains_in_flight_result(self, tmp_path):
        """Shutdown during a slow shard keeps, not drops, its result.

        Regression for the ack-then-close protocol: the worker holds
        its next ``ready`` until the coordinator acks the previous
        result, so a drain-close observes the recorded result instead
        of racing the socket teardown.

        ``close(drain=True)`` drains only shards a worker already
        holds; a shard still queued at close is failed recoverably by
        design (:meth:`test_close_fails_queued_job_recoverably`).  So
        the test closes only once the cell's marker file exists: only
        an executing worker writes it, which implies the coordinator
        assigned the shard.  A fixed sleep cannot promise that — a
        spawned worker's start-up alone can outlast it.
        """
        started = tmp_path / "started"
        outcome = {}
        done = threading.Event()

        def on_done(result, failure):
            outcome["result"] = result
            outcome["failure"] = failure
            done.set()

        worker = None
        coordinator = RemoteCoordinator("127.0.0.1:0")
        try:
            worker = spawn_local_worker(coordinator.address)
            coordinator.submit_single(
                remote_cells.slow_square_marked,
                [(6, 0.8, str(started))],
                on_done,
            )
            in_flight = _wait_until(started.exists)  # a worker holds it
            assert in_flight, "worker never started the shard"
            coordinator.close(drain=True)
            assert done.wait(timeout=10)
            assert outcome == {"result": [36], "failure": None}
        finally:
            coordinator.close()
            if worker is not None:
                try:
                    worker.wait(timeout=10)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    worker.kill()

    def test_close_fails_queued_job_recoverably(self):
        """A shard no worker holds at close fails recoverably, at once.

        The drain waits only for held shards, so with no worker the
        queued job is failed without waiting out ``shutdown_timeout``,
        and recoverably: the shard never ran, and a caller may run it
        elsewhere.
        """
        outcome = {}
        done = threading.Event()

        def on_done(result, failure):
            outcome["result"] = result
            outcome["failure"] = failure
            done.set()

        coordinator = RemoteCoordinator("127.0.0.1:0")
        try:
            coordinator.submit_single(
                remote_cells.square_offset, [(6, 0)], on_done
            )
            start = time.monotonic()
            coordinator.close(drain=True)
            elapsed = time.monotonic() - start
            assert done.wait(timeout=10)
        finally:
            coordinator.close()
        assert elapsed < coordinator.config.shutdown_timeout
        assert outcome["result"] is None
        failure = outcome["failure"]
        assert isinstance(failure, RemoteRunError)
        assert failure.recoverable is True
        assert "unfinished" in str(failure)

    def test_submit_after_close_raises(self):
        coordinator = RemoteCoordinator("127.0.0.1:0")
        coordinator.close()
        with pytest.raises(ExperimentError, match="closed"):
            coordinator.submit_single(
                remote_cells.square_offset, [(1, 2)], lambda *a: None
            )


class TestTaskGraph:
    def test_dependency_chain_with_cells_from(self):
        """A dependent node's cells are built from its deps' results."""
        with EngineSession(ThreadBackend(2)) as session:
            with TaskGraph(session) as graph:
                first = graph.add(
                    remote_cells.square_offset, cells=[(2, 0), (3, 0)]
                )
                second = graph.add(
                    remote_cells.square_offset,
                    after=[first],
                    cells_from=lambda results: [
                        (value, 1000) for value in results[0]
                    ],
                )
            assert first.result(timeout=30) == [4, 9]
            assert second.result(timeout=30) == [1016, 1081]

    def test_failed_dependency_fails_dependents_without_running(self):
        ran = []

        def should_not_run(value):  # pragma: no cover - the regression
            ran.append(value)
            return value

        with EngineSession(ThreadBackend(2)) as session:
            with TaskGraph(session) as graph:
                doomed = graph.add(remote_cells.raise_value_error, cells=[(1,)])
                dependent = graph.add(
                    should_not_run,
                    after=[doomed],
                    cells_from=lambda results: [(results[0][0],)],
                )
                independent = graph.add(
                    remote_cells.square_offset, cells=[(5, 0)]
                )
            with pytest.raises(ValueError, match="deterministic"):
                dependent.result(timeout=30)
            assert independent.result(timeout=30) == [25]
            assert ran == []

    def test_overlap_independent_branches(self):
        """Two chains over 2 workers overlap instead of barriering."""
        start = time.monotonic()
        with EngineSession(ThreadBackend(2)) as session:
            with TaskGraph(session) as graph:
                heads = [
                    graph.add(remote_cells.slow_square, cells=[(value, 0.2)])
                    for value in (2, 3)
                ]
                tails = [
                    graph.add(
                        remote_cells.slow_square,
                        after=[head],
                        cells_from=lambda results: [(results[0][0], 0.2)],
                    )
                    for head in heads
                ]
            assert [tail.result(timeout=30) for tail in tails] == [[16], [81]]
        # serial would be 4 * 0.2s; two overlapped chains ~ 2 * 0.2s
        assert time.monotonic() - start < 0.75

    def test_add_validates_cells_arguments(self):
        with EngineSession(SerialBackend()) as session:
            with TaskGraph(session) as graph:
                with pytest.raises(ExperimentError, match="exactly one"):
                    graph.add(remote_cells.square_offset)
                with pytest.raises(ExperimentError, match="requires"):
                    graph.add(
                        remote_cells.square_offset,
                        cells_from=lambda results: [],
                    )


class TestExecutionPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="cells.*batches"):
            ExecutionPlan(kind="nope", fn=remote_cells.square_offset, items=())

    def test_extra_rejected_on_cell_plans(self):
        with pytest.raises(ExperimentError, match="batch plans"):
            ExecutionPlan(
                kind="cells",
                fn=remote_cells.square_offset,
                items=((1, 2),),
                extra=(3,),
            )

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_run_cells_matches_reference(self, mode):
        runner = GridRunner(GridConfig(mode=mode, workers=2))
        plan = ExecutionPlan.for_cells(remote_cells.square_offset, CELLS)
        assert runner.run(plan) == [v * v + 100 for v, _ in CELLS]

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_run_batches_matches_reference(self, mode):
        runner = GridRunner(GridConfig(mode=mode, workers=2, shards=3))
        items = [value for value, _ in CELLS]
        plan = ExecutionPlan.for_batches(
            remote_cells.square_batch, items, extra=(100,)
        )
        assert runner.run(plan) == remote_cells.square_batch(items, 100)

    def test_map_shim_warns_and_delegates(self):
        # the one pinned caller of the deprecated shim (hence the
        # suppression): it exists to prove the shim still warns
        runner = GridRunner(GridConfig(mode="serial"))
        with pytest.warns(DeprecationWarning, match="for_cells"):
            got = runner.map(remote_cells.square_offset, CELLS)  # repro: noqa[DEP001]
        assert got == [v * v + 100 for v, _ in CELLS]

    def test_map_batches_shim_warns_and_delegates(self):
        runner = GridRunner(GridConfig(mode="serial"))
        items = [value for value, _ in CELLS]
        with pytest.warns(DeprecationWarning, match="for_batches"):
            got = runner.map_batches(  # repro: noqa[DEP001]
                remote_cells.square_batch, items, extra=(100,)
            )
        assert got == remote_cells.square_batch(items, 100)

    def test_runner_session_over_resolved_backend(self):
        runner = GridRunner(GridConfig(mode="thread", workers=2))
        with runner.session(n_tasks=len(SHARDS)) as session:
            assert (
                session.map_shards(remote_cells.square_offset, SHARDS)
                == EXPECTED
            )


def _run_overlap_runner(checkpoint_dir, resume=False, faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if faults is not None:
        env[FAULTS_ENV] = faults
    else:
        env.pop(FAULTS_ENV, None)
    command = [sys.executable, os.path.join(HERE, "overlap_runner.py"),
               str(checkpoint_dir)]
    if resume:
        command.append("--resume")
    return subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=100
    )


def _fingerprint(completed: subprocess.CompletedProcess) -> str:
    for line in completed.stdout.splitlines():
        if line.startswith("library "):
            return line.split(" ", 1)[1]
    raise AssertionError(
        f"no library fingerprint in output:\n{completed.stdout}\n"
        f"{completed.stderr}"
    )


class TestOverlappedBuildLibrary:
    def test_overlapped_build_identical_to_serial(self):
        """Thread-session variant overlap cannot change the library."""
        import chaos_runner

        from repro.approx.library import build_library
        from repro.engine.population import EngineConfig

        kwargs = dict(
            width=4, population=8, generations=3, max_candidates=24,
            truncations=((1, 0), (0, 1)), hybrid=False, structural=True,
            structural_cuts=(2, 3), use_cache=False,
        )
        serial = build_library(
            engine=EngineConfig(mode="serial"), **kwargs
        )
        overlapped = build_library(
            engine=EngineConfig(mode="thread", workers=2), **kwargs
        )
        assert chaos_runner.library_fingerprint(
            overlapped
        ) == chaos_runner.library_fingerprint(serial)

    def test_sigkill_inside_overlap_window_resumes_bit_identically(
        self, tmp_path
    ):
        """A kill while variant futures are live resumes identically."""
        reference = _run_overlap_runner(tmp_path / "ref")
        assert reference.returncode == 0, reference.stderr

        chaos_dir = tmp_path / "chaos"
        killed = _run_overlap_runner(chaos_dir, faults="kill@gen:2")
        assert killed.returncode == -signal.SIGKILL, killed.stderr

        resumed = _run_overlap_runner(chaos_dir, resume=True)
        assert resumed.returncode == 0, resumed.stderr
        assert _fingerprint(resumed) == _fingerprint(reference)
