"""Chaos suite: real SIGKILLs against a library build over the disk cache.

The property pinned here holds against *genuine* process death
(``os.kill(pid, SIGKILL)``: no atexit, no finally blocks, no
flushing): a ``build_library`` subprocess SIGKILLed between its two
pruning searches, then rerun over the same cache directory, reads the
finished search back from disk and produces a library fingerprint
identical to an uncached run's.

Every test carries a hard ``SIGALRM`` timeout so a wedged build fails
loudly instead of hanging CI.
"""

import os
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: Per-test wall-clock budget; a wedged build must fail, not hang.
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


def _run_chaos_runner(cache_dir=None, kill_after_flush=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    command = [sys.executable, os.path.join(HERE, "chaos_runner.py")]
    if cache_dir is not None:
        command.append(str(cache_dir))
    if kill_after_flush is not None:
        command += ["--kill-after-flush", str(kill_after_flush)]
    return subprocess.run(
        command, env=env, capture_output=True, text=True, timeout=100
    )


def _library_line(completed: subprocess.CompletedProcess):
    """``(fingerprint, cache hits)`` from the runner's output."""
    assert completed.returncode == 0, completed.stderr
    for line in completed.stdout.splitlines():
        if line.startswith("library "):
            _, fingerprint, _, hits = line.split()
            return fingerprint, int(hits)
    raise AssertionError(
        f"no library fingerprint in output:\n{completed.stdout}\n"
        f"{completed.stderr}"
    )


@pytest.fixture(scope="module")
def reference():
    """Fingerprint of an uncached, uninterrupted build."""
    fingerprint, hits = _library_line(_run_chaos_runner())
    assert hits == 0
    return fingerprint


class TestSigkillRerun:
    def test_sigkill_after_first_flush_reruns_bit_identically(
        self, tmp_path, reference
    ):
        cache_dir = tmp_path / "cache"
        killed = _run_chaos_runner(cache_dir, kill_after_flush=1)
        assert killed.returncode == -signal.SIGKILL
        assert "library" not in killed.stdout  # died mid-build
        assert list(cache_dir.glob("fitness-*.pkl"))

        fingerprint, hits = _library_line(_run_chaos_runner(cache_dir))
        assert fingerprint == reference
        assert hits > 0  # the finished search came back from disk

    def test_rerun_on_empty_cache_matches_reference(self, tmp_path, reference):
        fingerprint, _ = _library_line(_run_chaos_runner(tmp_path / "empty"))
        assert fingerprint == reference
