"""Gate-script behavior around broken and missing report files."""

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
CHECK_BENCH = REPO / "benchmarks" / "check_bench.py"


def run_gate(*reports, cwd):
    return subprocess.run(
        [sys.executable, str(CHECK_BENCH), *map(str, reports)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=60,
    )


def write_report(path, **overrides):
    payload = {
        "benchmark": "fixture",
        "all_identical": True,
        "speedup": 3.0,
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestMissingReport:
    def test_missing_file_fails_with_clear_message(self, tmp_path):
        result = run_gate(tmp_path / "BENCH_absent.json", cwd=tmp_path)
        assert result.returncode == 1
        assert "missing report file" in result.stderr
        assert "did not run" in result.stderr

    def test_missing_file_fails_even_among_good_reports(self, tmp_path):
        good = write_report(tmp_path / "BENCH_good.json")
        result = run_gate(
            good, tmp_path / "BENCH_absent.json", cwd=tmp_path
        )
        assert result.returncode == 1
        assert "ok: fixture" in result.stdout
        assert "missing report file" in result.stderr

    def test_corrupt_file_reports_unreadable_not_missing(self, tmp_path):
        corrupt = tmp_path / "BENCH_corrupt.json"
        corrupt.write_text("{not json", encoding="utf-8")
        result = run_gate(corrupt, cwd=tmp_path)
        assert result.returncode == 1
        assert "unreadable report" in result.stderr
        assert "missing report file" not in result.stderr


class TestGatesStillWork:
    def test_good_report_passes(self, tmp_path):
        good = write_report(tmp_path / "BENCH_good.json")
        result = run_gate(good, cwd=tmp_path)
        assert result.returncode == 0
        assert "ok: fixture" in result.stdout

    def test_identity_failure_fails(self, tmp_path):
        bad = write_report(
            tmp_path / "BENCH_bad.json", all_identical=False
        )
        result = run_gate(bad, cwd=tmp_path)
        assert result.returncode == 1
        assert "diverged" in result.stderr
