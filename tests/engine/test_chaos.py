"""Chaos suite: real SIGKILLs against checkpointed searches.

The property pinned here holds against *genuine* process death
(``os.kill(pid, SIGKILL)`` — no atexit, no finally blocks, no
flushing): a ``build_library`` subprocess SIGKILLed at a seeded-random
generation, then resumed, produces a library fingerprint identical to
an uninterrupted run's.

Every test carries a hard ``SIGALRM`` timeout so an injected fault that
wedges a loop fails loudly instead of hanging CI.
"""

import os
import signal
import subprocess
import sys

import pytest

from repro.engine.faults import FAULTS_ENV, reset_active_injector

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: Per-test wall-clock budget; a wedged search must fail, not hang.
TEST_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def hard_timeout():
    """SIGALRM circuit breaker (no pytest-timeout dependency needed)."""

    def on_alarm(signum, frame):  # pragma: no cover - only on a hang
        raise TimeoutError(f"chaos test exceeded {TEST_TIMEOUT_S}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(TEST_TIMEOUT_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def isolated_faults(monkeypatch):
    """Keep fault specs out of (and reset the cache of) this process."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    reset_active_injector()
    yield
    reset_active_injector()


def _run_chaos_runner(checkpoint_dir, resume=False, faults=None, seed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if faults is not None:
        env[FAULTS_ENV] = faults
    else:
        env.pop(FAULTS_ENV, None)
    command = [sys.executable, os.path.join(HERE, "chaos_runner.py"),
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


class TestSigkillResume:
    def test_sigkill_at_seeded_generation_resumes_bit_identically(
        self, tmp_path
    ):
        """The tentpole property, end to end against a real SIGKILL."""
        reference = _run_chaos_runner(tmp_path / "ref")
        assert reference.returncode == 0, reference.stderr

        # the runner's search has 4 generations (checkpoints 0..4);
        # the seeded draw picks the kill generation reproducibly
        chaos_dir = tmp_path / "chaos"
        killed = _run_chaos_runner(
            chaos_dir, faults="kill@gen:rand:1337:4"
        )
        assert killed.returncode == -signal.SIGKILL
        assert "library" not in killed.stdout  # died mid-search
        snapshots = os.listdir(chaos_dir)
        assert snapshots, "SIGKILL before any checkpoint was written"
        assert all(name.endswith(".ckpt") for name in snapshots)

        resumed = _run_chaos_runner(chaos_dir, resume=True)
        assert resumed.returncode == 0, resumed.stderr
        assert _fingerprint(resumed) == _fingerprint(reference)

    def test_double_kill_then_resume(self, tmp_path):
        """Crashing twice at different generations still converges."""
        reference = _run_chaos_runner(tmp_path / "ref")
        chaos_dir = tmp_path / "chaos"
        first = _run_chaos_runner(chaos_dir, faults="kill@gen:1")
        assert first.returncode == -signal.SIGKILL
        second = _run_chaos_runner(
            chaos_dir, resume=True, faults="kill@gen:3"
        )
        assert second.returncode == -signal.SIGKILL
        final = _run_chaos_runner(chaos_dir, resume=True)
        assert final.returncode == 0, final.stderr
        assert _fingerprint(final) == _fingerprint(reference)

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        """--resume against an empty directory is a normal cold run."""
        run = _run_chaos_runner(tmp_path / "empty", resume=True)
        assert run.returncode == 0, run.stderr
        assert _fingerprint(run) == _fingerprint(
            _run_chaos_runner(tmp_path / "ref")
        )
