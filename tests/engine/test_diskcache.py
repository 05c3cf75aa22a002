"""Crash safety of the fitness disk cache, the one crash-recovery path.

A killed run is recovered by rerunning it over the same cache
directory, so the cache must never hold a torn file: writes are atomic
(temp file + fsync + rename), and a file damaged some other way is
quarantined with a warning while the run carries on cold.
"""

import os
import pickle

import pytest

from repro.engine.diskcache import (
    FitnessDiskCache,
    atomic_write_bytes,
    quarantine_corrupt_file,
)


class TestAtomicWrites:
    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "store.pkl")
        atomic_write_bytes(path, b"first")
        atomic_write_bytes(path, b"second")
        with open(path, "rb") as handle:
            assert handle.read() == b"second"
        assert os.listdir(tmp_path) == ["store.pkl"]

    def test_atomic_write_creates_parents(self, tmp_path):
        path = str(tmp_path / "deep" / "down" / "store.pkl")
        atomic_write_bytes(path, b"payload")
        with open(path, "rb") as handle:
            assert handle.read() == b"payload"

    def test_quarantine_moves_file_aside(self, tmp_path):
        path = str(tmp_path / "bad.pkl")
        with open(path, "wb") as handle:
            handle.write(b"junk")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            quarantine_corrupt_file(path, "test damage")
        assert not os.path.exists(path)
        assert os.path.exists(f"{path}.corrupt-{os.getpid()}")


class TestDiskCacheCorruption:
    def test_torn_pickle_quarantined_run_continues(self, tmp_path):
        cache = FitnessDiskCache(str(tmp_path), "ctx")
        cache.put((1, 2), "value")
        cache.flush()
        with open(cache.path, "rb") as handle:
            healthy = handle.read()
        with open(cache.path, "wb") as handle:
            handle.write(healthy[: len(healthy) // 2])  # torn write
        fresh = FitnessDiskCache(str(tmp_path), "ctx")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert fresh.get((1, 2)) is None  # cold, not crashed
        fresh.put((3, 4), "other")
        fresh.flush()  # rewrites a healthy file
        assert FitnessDiskCache(str(tmp_path), "ctx").get((3, 4)) == "other"

    def test_wrong_payload_type_quarantined(self, tmp_path):
        cache = FitnessDiskCache(str(tmp_path), "ctx")
        with open(cache.path, "wb") as handle:
            pickle.dump(["not", "a", "dict"], handle)
        with pytest.warns(RuntimeWarning, match="expected a dict"):
            assert len(cache) == 0

    def test_flush_write_is_atomic_no_temp_residue(self, tmp_path):
        cache = FitnessDiskCache(str(tmp_path), "ctx")
        cache.put((1,), "v")
        cache.flush()
        assert os.listdir(tmp_path) == [os.path.basename(cache.path)]
