"""Cell functions for the remote-backend tests.

Top-level module (not a ``test_*`` file) so that spawned worker daemons
can unpickle the functions by ``module.qualname`` reference — the
directory holding this file is prepended to the workers' ``PYTHONPATH``
by the tests.
"""

import os
import time


def square_offset(value, offset):
    return value * value + offset


def slow_square(value, delay):
    time.sleep(delay)
    return value * value


def slow_square_marked(value, delay, started_path):
    """Like :func:`slow_square`, announcing that a worker holds the shard.

    The executing worker writes its pid to ``started_path`` before the
    delay, so a test can wait on "the shard is in flight on a worker"
    — only an assigned shard executes — instead of guessing with a
    sleep how long the worker takes to start and be assigned.
    """
    with open(started_path, "w", encoding="utf-8") as handle:
        handle.write(str(os.getpid()))
    time.sleep(delay)
    return value * value


def tag_worker_pid(value):
    """Returns (value, executing pid) — for fleet-reuse checks."""
    return value, os.getpid()


def tag_worker_pid_slow(value, delay):
    """Like :func:`tag_worker_pid`, slowed so queued work interleaves."""
    time.sleep(delay)
    return value, os.getpid()


def raise_value_error(value):
    raise ValueError(f"deterministic cell failure for {value}")


def die_once_at(value, trigger, sentinel_path):
    """Kill the executing worker the first time the trigger cell runs.

    The sentinel file makes the fault injection deterministic: the
    worker that picks up the ``value == trigger`` cell creates the
    sentinel and dies with ``os._exit`` (no exception handling, no
    socket shutdown — a hard crash); the reassigned execution finds the
    sentinel and returns the normal pure-function result.  Non-trigger
    cells never die, so exactly one worker is lost per run.
    """
    if value == trigger and not os.path.exists(sentinel_path):
        with open(sentinel_path, "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        os._exit(17)
    return value * value


def die_always(value):
    """Hard-kill whichever worker executes this cell, every time."""
    os._exit(21)


def hang_once_at(value, trigger, sentinel_path, hang_s):
    """Hang (sleep well past the deadline) the first trigger execution.

    The first worker to pick up the ``value == trigger`` cell writes
    the sentinel and sleeps ``hang_s`` seconds — long enough for the
    coordinator's deadline sweep to revoke the task — then returns a
    *poisoned* result (``-1``); the reassigned execution finds the
    sentinel and returns the real square immediately.  If the late
    poisoned result were ever recorded, the job output would differ
    from serial, so the test catches double-recording for free.
    """
    if value == trigger and not os.path.exists(sentinel_path):
        with open(sentinel_path, "w", encoding="utf-8") as handle:
            handle.write(str(os.getpid()))
        time.sleep(hang_s)
        return -1
    return value * value


def square_batch(values, offset):
    """Batch-decomposable cell for ``GridRunner.map_batches`` tests."""
    return [value * value + offset for value in values]
