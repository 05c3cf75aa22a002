"""Tests for the pluggable execution-backend layer.

Covers the backend protocol (every strategy returns
``[[fn(*cell) for cell in shard] for shard in shards]``), the remote
coordinator/worker wire protocol (handshake, version rejection), and
the remote backend's fault tolerance: a worker killed mid-grid has its
shard reassigned and the run still returns the serial reference
results; a worker joining mid-run picks up remaining shards.
"""

import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import remote_cells
from repro.engine.backends import (
    PROTOCOL_VERSION,
    CoordinatorConfig,
    FallbackBackend,
    ProcessBackend,
    RemoteBackend,
    RemoteCoordinator,
    RemoteRunError,
    SerialBackend,
    ThreadBackend,
    backend_names,
    canary_probe,
    create_backend,
    parse_address,
    recv_msg,
    register_backend,
    send_msg,
    spawn_local_worker,
)
from repro.engine.grid import ExecutionPlan, GridConfig, GridRunner
from repro.errors import ExperimentError

HERE = os.path.dirname(os.path.abspath(__file__))

CELLS = [(value, 100) for value in range(9)]
SHARDS = [CELLS[:3], CELLS[3:4], CELLS[4:]]
EXPECTED = [[value * value + 100 for value, _ in shard] for shard in SHARDS]


@pytest.fixture(autouse=True)
def worker_pythonpath(monkeypatch):
    """Let spawned workers import ``remote_cells`` by reference."""
    existing = os.environ.get("PYTHONPATH")
    merged = HERE if not existing else HERE + os.pathsep + existing
    monkeypatch.setenv("PYTHONPATH", merged)


class TestFraming:
    def test_roundtrip(self):
        left, right = socket.socketpair()
        try:
            message = {"type": "task", "task_id": 3, "cells": [(1, 2)] * 100}
            send_msg(left, message)
            assert recv_msg(right) == message
        finally:
            left.close()
            right.close()

    def test_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert recv_msg(right) is None
        finally:
            right.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
        for bad in ("localhost", ":80", "host:", "host:abc"):
            with pytest.raises(ExperimentError, match="HOST:PORT"):
                parse_address(bad)


class TestLocalBackends:
    def test_registry_names(self):
        assert set(backend_names()) >= {"serial", "thread", "process", "remote"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError, match="unknown execution backend"):
            create_backend("banana")

    def test_late_registered_backend_is_a_valid_grid_mode(self):
        """Plugins registered after import work end to end."""
        from repro.engine import backends as backends_module

        register_backend(
            "echo", lambda workers, coordinator, spawn: SerialBackend()
        )
        try:
            runner = GridRunner(GridConfig(mode="echo", workers=2))
            plan = ExecutionPlan.for_cells(remote_cells.square_offset, CELLS)
            assert runner.run(plan) == [
                value * value + 100 for value, _ in CELLS
            ]
        finally:
            backends_module._BACKEND_FACTORIES.pop("echo", None)
        with pytest.raises(ExperimentError, match="unknown grid mode"):
            GridConfig(mode="echo")

    @pytest.mark.parametrize(
        "backend",
        [SerialBackend(), ThreadBackend(4), ProcessBackend(2)],
        ids=["serial", "thread", "process"],
    )
    def test_map_shards_identity(self, backend):
        result = backend.map_shards(remote_cells.square_offset, SHARDS)
        assert result == EXPECTED

    @pytest.mark.parametrize(
        "backend",
        [SerialBackend(), ThreadBackend(4), ProcessBackend(2)],
        ids=["serial", "thread", "process"],
    )
    def test_empty_shards(self, backend):
        assert backend.map_shards(remote_cells.square_offset, []) == []


class TestGridConfigRemote:
    def test_remote_allows_zero_workers(self):
        config = GridConfig(mode="remote", workers=0)
        assert config.resolved_workers() == 0

    def test_local_modes_still_require_workers(self):
        with pytest.raises(ExperimentError, match="workers"):
            GridConfig(mode="process", workers=0)

    def test_coordinator_requires_remote_mode(self):
        with pytest.raises(ExperimentError, match="coordinator"):
            GridConfig(mode="process", coordinator="127.0.0.1:0")
        GridConfig(mode="remote", coordinator="127.0.0.1:0")  # accepted


class TestRemoteBackend:
    def test_batch_plan_remote_identical_to_serial(self):
        """Batched dispatch over the remote fleet == the serial call."""
        from repro.engine.backends import shutdown_remote_backends

        items = [value for value, _ in CELLS]
        expected = remote_cells.square_batch(items, 100)
        runner = GridRunner(GridConfig(mode="remote", workers=2))
        try:
            got = runner.run(
                ExecutionPlan.for_batches(
                    remote_cells.square_batch, items, extra=(100,)
                )
            )
            assert got == expected
        finally:
            shutdown_remote_backends()

    def test_grid_runner_remote_identical_to_serial(self):
        serial = GridRunner(GridConfig(mode="serial"))
        remote = GridRunner(
            GridConfig(mode="remote", workers=2, coordinator="127.0.0.1:0")
        )
        plan = ExecutionPlan.for_cells(remote_cells.square_offset, CELLS)
        expected = serial.run(plan)
        assert remote.run(plan) == expected

    def test_worker_death_reassigns_shard(self, tmp_path):
        """Kill a worker mid-grid; the run completes, results serial-equal."""
        sentinel = str(tmp_path / "die-once")
        cells = [(value, 3, sentinel) for value in range(6)]
        serial_results = [value * value for value in range(6)]
        remote = GridRunner(
            GridConfig(mode="remote", workers=2, coordinator="127.0.0.1:0")
        )
        assert (
            remote.run(ExecutionPlan.for_cells(remote_cells.die_once_at, cells))
            == serial_results
        )
        # the fault actually fired: one worker died holding a cell
        assert os.path.exists(sentinel)

    def test_worker_joining_midrun_picks_up_cells(self):
        """Start the run with no workers; attach one while in flight."""
        worker = None
        with RemoteCoordinator("127.0.0.1:0") as coordinator:
            outcome = {}

            def run():
                outcome["result"] = coordinator.map_shards(
                    remote_cells.square_offset, SHARDS
                )

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            time.sleep(0.3)  # the run is live, nobody is serving it
            assert "result" not in outcome
            worker = spawn_local_worker(coordinator.address)
            thread.join(timeout=60)
            assert outcome["result"] == EXPECTED
        # workers idle between runs; closing the coordinator (the
        # context exit above) is what shuts them down
        worker.wait(timeout=10)

    def test_persistent_fleet_reused_across_runs(self):
        """Consecutive maps share one coordinator and worker fleet."""
        backend = create_backend(
            "remote", coordinator="127.0.0.1:0", spawn=1
        )
        first = backend.map_shards(remote_cells.tag_worker_pid, [[(1,)], [(2,)]])
        second = backend.map_shards(remote_cells.tag_worker_pid, [[(3,)]])
        # same daemon process served both runs (no cold respawn)
        assert first[0][0][1] == second[0][0][1]
        # and the registry hands back the same backend instance
        assert (
            create_backend("remote", coordinator="127.0.0.1:0", spawn=1)
            is backend
        )

    def test_cell_exception_fails_run(self):
        remote = GridRunner(
            GridConfig(mode="remote", workers=1, coordinator="127.0.0.1:0")
        )
        with pytest.raises(ExperimentError, match="deterministic cell failure"):
            remote.run(
                ExecutionPlan.for_cells(
                    remote_cells.raise_value_error, [(1,), (2,)]
                )
            )

    def test_poison_shard_gives_up_after_requeue_cap(self):
        """A cell that always kills its worker must not loop forever."""
        with RemoteCoordinator("127.0.0.1:0") as coordinator:
            procs = [
                spawn_local_worker(coordinator.address)
                for _ in range(CoordinatorConfig().max_requeues + 2)
            ]
            try:
                with pytest.raises(ExperimentError, match="killed"):
                    coordinator.map_shards(
                        remote_cells.die_always, [[(1,)]]
                    )
            finally:
                coordinator.close()
                for proc in procs:
                    try:
                        proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        proc.kill()


class TestProtocolHandshake:
    def test_version_mismatch_rejected_raw_socket(self):
        with RemoteCoordinator("127.0.0.1:0") as coordinator:
            with socket.create_connection(
                ("127.0.0.1", coordinator.port), timeout=5
            ) as sock:
                send_msg(sock, {"type": "hello", "protocol": 999})
                reply = recv_msg(sock)
        assert reply["type"] == "reject"
        assert "999" in reply["reason"]

    def test_bad_handshake_rejected(self):
        with RemoteCoordinator("127.0.0.1:0") as coordinator:
            with socket.create_connection(
                ("127.0.0.1", coordinator.port), timeout=5
            ) as sock:
                send_msg(sock, {"type": "ready"})
                reply = recv_msg(sock)
        assert reply["type"] == "reject"
        assert "handshake" in reply["reason"]

    def test_worker_daemon_exits_2_on_version_mismatch(self):
        with RemoteCoordinator("127.0.0.1:0") as coordinator:
            process = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.engine.worker",
                    "--connect",
                    coordinator.address,
                    "--protocol",
                    "999",
                ],
                capture_output=True,
                text=True,
                timeout=60,
            )
        assert process.returncode == 2
        assert "rejected" in process.stderr

    def test_worker_daemon_exits_1_when_unreachable(self):
        process = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.engine.worker",
                "--connect",
                "127.0.0.1:1",
                "--retry",
                "1",
                "--retry-interval",
                "0",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert process.returncode == 1
        assert "could not reach coordinator" in process.stderr


class TestConnectBackoff:
    """Workers started before the coordinator binds retry with backoff."""

    def test_backoff_schedule(self):
        from repro.engine.worker import backoff_intervals

        assert backoff_intervals(7, 0.25, 2.0, 5.0) == [
            0.25, 0.5, 1.0, 2.0, 4.0, 5.0,
        ]
        assert backoff_intervals(1, 0.25) == []
        assert backoff_intervals(0, 0.25) == []
        # factor 1.0 recovers the old fixed-interval behaviour
        assert backoff_intervals(4, 0.5, 1.0, 5.0) == [0.5, 0.5, 0.5]

    def test_connect_exhausts_attempts_with_distinct_error(self):
        from repro.engine.worker import connect

        start = time.monotonic()
        with pytest.raises(OSError, match="after 3 attempts"):
            connect("127.0.0.1:1", attempts=3, retry_interval=0.01)
        assert time.monotonic() - start < 5.0  # bounded, no hang

    def test_worker_started_before_coordinator_binds(self):
        """The daemon must survive the pre-bind window and then serve."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # free the port for the late-binding coordinator

        worker = spawn_local_worker(f"127.0.0.1:{port}")
        try:
            time.sleep(1.0)  # the worker is now retrying against nothing
            assert worker.poll() is None, "worker died before the bind"
            with RemoteCoordinator(f"127.0.0.1:{port}") as coordinator:
                assert (
                    coordinator.map_shards(remote_cells.square_offset, SHARDS)
                    == EXPECTED
                )
            worker.wait(timeout=10)
        finally:
            if worker.poll() is None:
                worker.kill()
                worker.wait()


class TestCoordinatorLifecycle:
    def test_closed_coordinator_rejects_runs(self):
        coordinator = RemoteCoordinator("127.0.0.1:0")
        coordinator.close()
        with pytest.raises(ExperimentError, match="closed"):
            coordinator.map_shards(remote_cells.square_offset, SHARDS)

    def test_empty_shards_short_circuit(self):
        with RemoteCoordinator("127.0.0.1:0") as coordinator:
            assert coordinator.map_shards(remote_cells.square_offset, []) == []

    def test_stalled_run_aborts_when_fleet_dead(self):
        """liveness probe: all spawned workers gone -> abort, not hang."""
        with RemoteCoordinator("127.0.0.1:0") as coordinator:
            with pytest.raises(ExperimentError, match="stalled"):
                coordinator.map_shards(
                    remote_cells.square_offset, SHARDS, liveness=lambda: False
                )
            # the abort must not wedge the coordinator: a later run on
            # the same (persistent) instance completes once workers exist
            worker = spawn_local_worker(coordinator.address)
            assert (
                coordinator.map_shards(remote_cells.square_offset, SHARDS)
                == EXPECTED
            )
        worker.wait(timeout=10)


# -- self-healing fleet: deadlines, quarantine, crash recovery ----------


def _map_in_thread(coordinator, fn, shards):
    """Run a blocking map in a daemon thread; returns (thread, box)."""
    box = {}

    def run():
        try:
            box["result"] = coordinator.map_shards(fn, shards)
        except Exception as exc:  # captured for the test thread
            box["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, box


def _dial_scripted_worker(address, pid):
    """Open a raw protocol-v2 connection posing as worker ``pid``."""
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=10)
    sock.settimeout(10)
    send_msg(sock, {"type": "hello", "protocol": PROTOCOL_VERSION, "pid": pid})
    welcome = recv_msg(sock)
    assert welcome is not None and welcome["type"] == "welcome"
    return sock, welcome


def _wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestCoordinatorConfig:
    def test_from_env_reads_deadline_and_requeue_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_DEADLINE_S", "2.5")
        monkeypatch.setenv("REPRO_MAX_REQUEUES", "7")
        config = CoordinatorConfig.from_env()
        assert config.task_deadline_s == 2.5
        assert config.max_requeues == 7

    def test_from_env_defaults(self, monkeypatch):
        for name in ("REPRO_TASK_DEADLINE_S", "REPRO_MAX_REQUEUES"):
            monkeypatch.delenv(name, raising=False)
        config = CoordinatorConfig.from_env()
        assert config.task_deadline_s is None
        assert config.max_requeues == CoordinatorConfig().max_requeues

    def test_junk_or_nonpositive_deadline_disables_deadlines(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TASK_DEADLINE_S", "banana")
        with pytest.warns(RuntimeWarning, match="non-numeric"):
            assert CoordinatorConfig.from_env().task_deadline_s is None
        for junk in ("0", "-3"):
            monkeypatch.setenv("REPRO_TASK_DEADLINE_S", junk)
            assert CoordinatorConfig.from_env().task_deadline_s is None

    def test_validation(self):
        with pytest.raises(ExperimentError, match="task_deadline_s"):
            CoordinatorConfig(task_deadline_s=0)
        with pytest.raises(ExperimentError, match="max_requeues"):
            CoordinatorConfig(max_requeues=-1)
        with pytest.raises(ExperimentError, match="quarantine_threshold"):
            CoordinatorConfig(quarantine_threshold=-1)
        with pytest.raises(ExperimentError, match="quarantine_cooldown_s"):
            CoordinatorConfig(quarantine_cooldown_s=0)


class TestTaskDeadlines:
    def test_hung_worker_revoked_late_result_discarded(self):
        """A deadline revocation requeues the shard; the late (and here
        deliberately *poisoned*) result from the hung worker is acked
        but discarded, so the run's output still matches serial."""
        config = CoordinatorConfig(
            poll_interval=0.05,
            task_deadline_s=0.4,
            quarantine_threshold=0,  # isolate the deadline machinery
        )
        with RemoteCoordinator("127.0.0.1:0", config=config) as coordinator:
            thread, box = _map_in_thread(
                coordinator, remote_cells.square_offset, SHARDS
            )
            hung, _ = _dial_scripted_worker(coordinator.address, pid=111)
            try:
                send_msg(hung, {"type": "ready"})
                task = recv_msg(hung)
                assert task["type"] == "task"
                # hold the task well past the deadline, then claim a
                # wrong answer for it: if the coordinator recorded it,
                # the map result below could not equal EXPECTED
                assert _wait_until(
                    lambda: coordinator.fleet_health()
                    .get("pid:111", {})
                    .get("timeouts", 0)
                    >= 1
                ), "deadline sweep never revoked the hung assignment"
                send_msg(
                    hung,
                    {
                        "type": "result",
                        "task_id": task["task_id"],
                        "result": [-999] * len(task["cells"]),
                    },
                )
                ack = recv_msg(hung)
                assert ack is not None and ack["type"] == "ack"
            finally:
                hung.close()
            worker = spawn_local_worker(coordinator.address)
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert box.get("result") == EXPECTED
        worker.wait(timeout=10)

    def test_hung_worker_consumes_only_its_own_jobs_budget(self):
        """Deadline strikes charge the timed-out task's job, never a
        co-tenant job sharing the coordinator session."""
        config = CoordinatorConfig(
            poll_interval=0.05,
            task_deadline_s=0.35,
            max_requeues=0,  # a single timeout exhausts the budget
            quarantine_threshold=0,
        )
        with RemoteCoordinator("127.0.0.1:0", config=config) as coordinator:
            doomed_thread, doomed_box = _map_in_thread(
                coordinator, remote_cells.square_offset, [[(7, 100)]]
            )
            hung, _ = _dial_scripted_worker(coordinator.address, pid=111)
            try:
                send_msg(hung, {"type": "ready"})
                task = recv_msg(hung)
                assert task["type"] == "task"
                assert task["cells"] == [(7, 100)]  # holding job A's shard
                # job B joins the shared queue while job A's worker hangs
                healthy_thread, healthy_box = _map_in_thread(
                    coordinator, remote_cells.square_offset, SHARDS
                )
                worker = spawn_local_worker(coordinator.address)
                healthy_thread.join(timeout=30)
                doomed_thread.join(timeout=30)
            finally:
                hung.close()
            assert healthy_box.get("result") == EXPECTED
            error = doomed_box.get("error")
            assert isinstance(error, RemoteRunError)
            assert error.recoverable
            assert "timed out on 1 workers" in str(error)
        worker.wait(timeout=10)

    def test_hang_once_cell_end_to_end(self, tmp_path):
        """Real daemons: the hung worker is revoked *and* quarantined,
        the shard completes on the surviving worker, and the output is
        bit-identical to serial (the late poisoned result never
        lands)."""
        sentinel = str(tmp_path / "hang.sentinel")
        config = CoordinatorConfig(
            poll_interval=0.05,
            task_deadline_s=0.6,
            quarantine_threshold=1,
            quarantine_cooldown_s=60.0,  # stays quarantined for the test
        )
        shards = [[(value, 3, sentinel, 2.5)] for value in range(4)]
        expected = [[value * value] for value in range(4)]
        with RemoteCoordinator("127.0.0.1:0", config=config) as coordinator:
            workers = [
                spawn_local_worker(coordinator.address) for _ in range(2)
            ]
            assert (
                coordinator.map_shards(remote_cells.hang_once_at, shards)
                == expected
            )
            health = coordinator.fleet_health()
            hung = [
                snap for snap in health.values() if snap["timeouts"] >= 1
            ]
            assert hung, f"no worker scored a timeout: {health}"
            assert hung[0]["state"] == "quarantined"
        for worker in workers:
            worker.wait(timeout=15)


class TestWorkerQuarantine:
    CONFIG = dict(
        poll_interval=0.05,
        quarantine_threshold=1,
        quarantine_cooldown_s=0.3,
    )

    def test_rejoining_worker_must_pass_canary_before_real_shards(self):
        config = CoordinatorConfig(**self.CONFIG)
        with RemoteCoordinator("127.0.0.1:0", config=config) as coordinator:
            thread, box = _map_in_thread(
                coordinator, remote_cells.square_offset, SHARDS
            )
            # strike one: die holding a real task -> quarantined
            doomed, _ = _dial_scripted_worker(coordinator.address, pid=222)
            send_msg(doomed, {"type": "ready"})
            assert recv_msg(doomed)["type"] == "task"
            doomed.close()
            assert _wait_until(
                lambda: coordinator.fleet_health().get("pid:222", {}).get(
                    "state"
                )
                == "quarantined"
            )
            # the same pid redials: after the cooldown it must receive
            # exactly one canary before any real shard
            sock, _ = _dial_scripted_worker(coordinator.address, pid=222)
            try:
                send_msg(sock, {"type": "ready"})
                task = recv_msg(sock)
                assert task["type"] == "task"
                assert task["fn"] is canary_probe
                answer = [canary_probe(*cell) for cell in task["cells"]]
                send_msg(
                    sock,
                    {
                        "type": "result",
                        "task_id": task["task_id"],
                        "result": answer,
                    },
                )
                assert recv_msg(sock)["type"] == "ack"
                # re-admitted: now it drains the real queue
                served = 0
                while True:
                    send_msg(sock, {"type": "ready"})
                    task = recv_msg(sock)
                    if task is None or task["type"] != "task":
                        break
                    assert task["fn"] is remote_cells.square_offset
                    send_msg(
                        sock,
                        {
                            "type": "result",
                            "task_id": task["task_id"],
                            "result": [
                                remote_cells.square_offset(*cell)
                                for cell in task["cells"]
                            ],
                        },
                    )
                    assert recv_msg(sock)["type"] == "ack"
                    served += 1
                    if served == len(SHARDS):
                        break
            finally:
                sock.close()
            thread.join(timeout=30)
            assert box.get("result") == EXPECTED
            snap = coordinator.fleet_health()["pid:222"]
            assert snap["state"] == "active"
            assert snap["canaries_passed"] == 1
            assert snap["quarantines"] == 1
            assert snap["completed"] == len(SHARDS) + 1  # canary included

    def test_wrong_canary_answer_requarantines(self):
        config = CoordinatorConfig(**self.CONFIG)
        with RemoteCoordinator("127.0.0.1:0", config=config) as coordinator:
            thread, box = _map_in_thread(
                coordinator, remote_cells.square_offset, SHARDS
            )
            doomed, _ = _dial_scripted_worker(coordinator.address, pid=333)
            send_msg(doomed, {"type": "ready"})
            assert recv_msg(doomed)["type"] == "task"
            doomed.close()
            assert _wait_until(
                lambda: coordinator.fleet_health().get("pid:333", {}).get(
                    "state"
                )
                == "quarantined"
            )
            sock, _ = _dial_scripted_worker(coordinator.address, pid=333)
            try:
                send_msg(sock, {"type": "ready"})
                task = recv_msg(sock)
                assert task["fn"] is canary_probe
                send_msg(
                    sock,
                    {
                        "type": "result",
                        "task_id": task["task_id"],
                        "result": [0xBAD],  # flunk the probe
                    },
                )
                assert recv_msg(sock)["type"] == "ack"
                snap = coordinator.fleet_health()["pid:333"]
                assert snap["state"] == "quarantined"
                assert snap["quarantines"] == 2
                assert snap["canaries_passed"] == 0
            finally:
                sock.close()
            # a healthy worker still finishes the job
            worker = spawn_local_worker(coordinator.address)
            thread.join(timeout=30)
            assert box.get("result") == EXPECTED
        worker.wait(timeout=10)


class TestCoordinatorCrashRecovery:
    def test_welcome_carries_epoch(self):
        with RemoteCoordinator("127.0.0.1:0") as coordinator:
            sock, welcome = _dial_scripted_worker(
                coordinator.address, pid=444
            )
            sock.close()
        assert welcome["protocol"] == PROTOCOL_VERSION
        assert welcome["epoch"] == coordinator.epoch == 0

    def test_kill_fails_inflight_jobs_recoverably(self):
        coordinator = RemoteCoordinator("127.0.0.1:0")
        thread, box = _map_in_thread(
            coordinator, remote_cells.square_offset, SHARDS
        )
        time.sleep(0.2)
        coordinator.kill()
        assert not coordinator.alive()
        thread.join(timeout=10)
        error = box.get("error")
        assert isinstance(error, RemoteRunError)
        assert error.recoverable
        assert "killed" in str(error)

    def test_journal_replays_results_across_incarnations(self, tmp_path):
        journal = str(tmp_path / "coordinator.journal")
        config = CoordinatorConfig(poll_interval=0.05, journal_path=journal)
        first = RemoteCoordinator("127.0.0.1:0", config=config)
        try:
            assert first.epoch == 0
            worker = spawn_local_worker(first.address)
            assert (
                first.map_shards(remote_cells.square_offset, SHARDS)
                == EXPECTED
            )
        finally:
            first.close()
        worker.wait(timeout=10)
        assert os.path.exists(journal)
        # the restarted incarnation replays the journal: same map, zero
        # workers, instant results, bumped epoch
        with RemoteCoordinator("127.0.0.1:0", config=config) as second:
            assert second.epoch == 1
            assert (
                second.map_shards(remote_cells.square_offset, SHARDS)
                == EXPECTED
            )

    def test_remote_backend_resurrects_killed_coordinator(self, tmp_path):
        journal = str(tmp_path / "coordinator.journal")
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # a stable port, so the fleet redials into it
        config = CoordinatorConfig(poll_interval=0.05, journal_path=journal)
        backend = RemoteBackend(
            coordinator=f"127.0.0.1:{port}", spawn=2, config=config
        )
        try:
            assert backend.fleet_health() == {}  # nothing bound yet
            assert (
                backend.map_shards(remote_cells.square_offset, SHARDS)
                == EXPECTED
            )
            backend._coordinator.kill()
            assert not backend._coordinator.alive()
            # the next call heals the session: fresh incarnation on the
            # same bind, journal replayed, epoch bumped
            assert (
                backend.map_shards(remote_cells.square_offset, SHARDS)
                == EXPECTED
            )
            assert backend._coordinator.alive()
            assert backend._coordinator.epoch == 1
        finally:
            backend.close()


class TestFallbackConnect:
    class _UnreachablePrimary(SerialBackend):
        name = "unreachable"

        def map_shards(self, fn, shards):
            raise OSError("connection refused")

    def test_connect_failure_drains_all_shards_locally(self):
        backend = FallbackBackend(self._UnreachablePrimary())
        with pytest.warns(RuntimeWarning, match="unreachable at connect"):
            assert (
                backend.map_shards(remote_cells.square_offset, SHARDS)
                == EXPECTED
            )

    def test_remote_bind_failure_drains_locally(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            backend = FallbackBackend(
                RemoteBackend(coordinator=f"127.0.0.1:{port}", spawn=0)
            )
            with pytest.warns(RuntimeWarning, match="unreachable at connect"):
                assert (
                    backend.map_shards(remote_cells.square_offset, SHARDS)
                    == EXPECTED
                )
        finally:
            blocker.close()
