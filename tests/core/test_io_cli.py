"""Unit tests for result serialisation and the CLI."""

import json

import pytest

from repro.accuracy.predictor import AccuracyPredictor
from repro.approx.library import build_library
from repro.cli import build_parser, main
from repro.core.baselines import exact_sweep
from repro.core.io import (
    design_points_to_csv,
    design_points_to_json,
    fig2_table_to_json,
    load_design_rows,
)
from repro.errors import ExperimentError

FAST = dict(population=12, generations=5, hybrid=False, structural=False)


@pytest.fixture(scope="module")
def points():
    library = build_library(width=8, seed=0, **FAST)
    return exact_sweep("vgg16", library, 7, AccuracyPredictor())


class TestJson:
    def test_round_trip(self, points):
        text = design_points_to_json(points)
        rows = load_design_rows(text)
        assert len(rows) == len(points)
        assert rows[0]["label"] == "exact"
        assert rows[0]["pes"] == 64

    def test_rejects_non_array(self):
        with pytest.raises(ExperimentError, match="array"):
            load_design_rows(json.dumps({"not": "a list"}))

    def test_rejects_malformed_rows(self):
        with pytest.raises(ExperimentError, match="malformed"):
            load_design_rows(json.dumps([{"no_label": 1}]))

    def test_fig2_table_json(self):
        text = fig2_table_to_json(
            {(7, 0.5): (1.0, 2.0), (14, 0.5): (3.0, 4.0)}, "vgg16"
        )
        payload = json.loads(text)
        assert payload["network"] == "vgg16"
        assert len(payload["reductions"]) == 2
        assert payload["reductions"][0]["node_nm"] == 7


class TestCsv:
    def test_header_and_rows(self, points):
        text = design_points_to_csv(points)
        lines = text.strip().splitlines()
        assert lines[0].startswith("label,network,node_nm")
        assert len(lines) == len(points) + 1

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            design_points_to_csv([])


class TestCliParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("library", "design", "accuracy", "fig2-scatter",
                        "fig2-table", "fig3", "sensitivity"):
            assert command in text

    def test_accuracy_flags_documented(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["accuracy", "--help"])
        text = capsys.readouterr().out
        for flag in ("--stack-workers", "--accuracy-mode",
                     "--accuracy-workers", "--accuracy-shards"):
            assert flag in text

    def test_accuracy_mode_choices(self):
        args = build_parser().parse_args(
            ["accuracy", "--accuracy-mode", "thread", "--stack-workers", "2"]
        )
        assert args.accuracy_mode == "thread"
        assert args.stack_workers == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["accuracy", "--accuracy-mode", "bogus"])

    def test_design_defaults(self):
        args = build_parser().parse_args(["design"])
        assert args.network == "vgg16"
        assert args.node == 7
        assert args.fps == 30.0

    def test_invalid_network_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "--network", "alexnet"])

    def test_invalid_node_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["design", "--node", "5"])


class TestCliExecution:
    def test_library_fast(self, capsys):
        assert main(["library", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Approximate-multiplier library" in out
        assert "exact" in out

    def test_library_cache_dir_rerun_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        """A rerun over --cache-dir (the crash-recovery path) prints the
        same library as the cold run that wrote the cache."""
        from repro.approx import library as library_module

        outputs = []
        for _ in range(2):
            # empty the in-process memo, so each run builds the library
            monkeypatch.setattr(library_module, "_LIBRARY_CACHE", {})
            code = main(["library", "--fast", "--cache-dir", str(tmp_path)])
            assert code == 0
            outputs.append(capsys.readouterr().out)
            assert list(tmp_path.glob("fitness-*.pkl"))
        assert outputs[0] == outputs[1]

    def test_design_fast_with_json(self, tmp_path, capsys):
        out_path = tmp_path / "design.json"
        code = main([
            "design", "--fast", "--network", "resnet50",
            "--fps", "30", "--drop", "2", "--json", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GA-CDP:" in out
        assert "saving" in out
        rows = load_design_rows(out_path.read_text())
        assert {row["label"] for row in rows} == {"exact", "ga_cdp"}

    def test_accuracy_fast_serial_vs_thread_identical(self, tmp_path, capsys):
        """The CLI accuracy study prints identical drops in every mode."""
        serial_json = tmp_path / "serial.json"
        code = main([
            "accuracy", "--fast", "--accuracy-mode", "serial",
            "--json", str(serial_json),
        ])
        assert code == 0
        serial_out = capsys.readouterr().out
        assert "Behavioural accuracy study" in serial_out
        assert "Spearman rho" in serial_out

        thread_json = tmp_path / "thread.json"
        code = main([
            "accuracy", "--fast", "--accuracy-mode", "thread",
            "--accuracy-workers", "2", "--stack-workers", "2",
            "--json", str(thread_json),
        ])
        assert code == 0
        serial_payload = json.loads(serial_json.read_text())
        thread_payload = json.loads(thread_json.read_text())
        assert serial_payload == thread_payload

    def test_impossible_design_returns_error_code(self, capsys):
        code = main([
            "design", "--fast", "--network", "vgg16",
            "--node", "28", "--fps", "100000",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err
