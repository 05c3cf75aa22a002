"""Framework semantics: registry, suppressions, report, CLI plumbing."""

import json

import pytest

from repro.analysis import (
    AnalysisError,
    get_rule,
    main,
    register_rule,
    rule_codes,
    run_analysis,
    unregister_rule,
)


def _nop_checker(context):
    return ()


class TestRegistry:
    def test_builtin_rules_registered(self):
        assert set(rule_codes()) >= {
            "RNG001", "NDT001", "PKL001", "FPR001",
            "KRN001", "SUP001",
        }

    def test_duplicate_code_raises(self):
        register_rule("ZZZ001", _nop_checker, "error", "throwaway")
        try:
            with pytest.raises(AnalysisError, match="already registered"):
                register_rule("ZZZ001", _nop_checker, "error", "again")
        finally:
            unregister_rule("ZZZ001")

    def test_unknown_severity_rejected(self):
        with pytest.raises(AnalysisError, match="unknown severity"):
            register_rule("ZZZ002", _nop_checker, "fatal")
        assert "ZZZ002" not in rule_codes()

    def test_malformed_code_rejected(self):
        for bad in ("rng001", "RNG", "RNG1", "X" * 12 + "001"):
            with pytest.raises(AnalysisError, match="malformed rule code"):
                register_rule(bad, _nop_checker)

    def test_unknown_code_lookup_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule code"):
            get_rule("NOPE999")

    def test_registered_rule_roundtrip(self):
        register_rule("ZZZ003", _nop_checker, "warning", "temp rule")
        try:
            rule = get_rule("ZZZ003")
            assert rule.severity == "warning"
            assert rule.description == "temp rule"
        finally:
            unregister_rule("ZZZ003")


def _lint(tmp_path, source, codes=None, name="snippet.py"):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return run_analysis([str(path)], codes=codes)


class TestSuppressions:
    def test_trailing_noqa_suppresses_that_line_only(self, tmp_path):
        report = _lint(
            tmp_path,
            "import random\n"
            "a = random.random()  # repro: noqa[RNG001]\n"
            "b = random.random()\n",
            codes=["RNG001"],
        )
        assert [f.line for f in report.unsuppressed] == [3]
        suppressed = [f for f in report.findings if f.suppressed]
        assert [f.line for f in suppressed] == [2]

    def test_comment_only_line_suppresses_file_wide(self, tmp_path):
        report = _lint(
            tmp_path,
            "# repro: noqa[RNG001]\n"
            "import random\n"
            "a = random.random()\n"
            "b = random.random()\n",
            codes=["RNG001"],
        )
        assert report.unsuppressed == []
        assert len(report.findings) == 2

    def test_bare_noqa_is_a_finding(self, tmp_path):
        report = _lint(
            tmp_path, "x = 1  # repro: noqa\n", codes=["SUP001"]
        )
        assert [f.code for f in report.unsuppressed] == ["SUP001"]
        assert "bare noqa" in report.unsuppressed[0].message

    def test_unknown_code_in_noqa_is_a_finding(self, tmp_path):
        report = _lint(
            tmp_path, "x = 1  # repro: noqa[WAT123]\n", codes=["SUP001"]
        )
        assert [f.code for f in report.unsuppressed] == ["SUP001"]
        assert "WAT123" in report.unsuppressed[0].message

    def test_noqa_inside_string_is_data(self, tmp_path):
        report = _lint(
            tmp_path,
            's = "# repro: noqa"\n',
            codes=["SUP001"],
        )
        assert report.findings == []

    def test_suppressed_findings_never_gate(self, tmp_path):
        report = _lint(
            tmp_path,
            "import random\n"
            "a = random.random()  # repro: noqa[RNG001]\n",
            codes=["RNG001"],
        )
        assert report.exit_code() == 0
        assert report.counts()["suppressed"] == 1


class TestReport:
    def test_json_payload_shape(self, tmp_path):
        report = _lint(
            tmp_path,
            "import random\nx = random.random()\n",
            codes=["RNG001"],
        )
        payload = json.loads(report.to_json())
        assert payload["version"] == 1
        assert payload["errors"] == 1
        assert payload["files"] == 1
        (finding,) = payload["findings"]
        assert finding["code"] == "RNG001"
        assert finding["line"] == 2
        assert finding["suppressed"] is False

    def test_human_rendering_has_summary(self, tmp_path):
        report = _lint(tmp_path, "x = 1\n")
        assert "0 finding(s)" in report.render_human()
        assert "1 file(s) checked" in report.render_human()

    def test_findings_sorted_and_deterministic(self, tmp_path):
        source = (
            "import random\n"
            "b = random.random()\n"
            "import time\n"
            "t = time.time()\n"
        )
        first = _lint(tmp_path, source)
        second = _lint(tmp_path, source)
        assert first.findings == second.findings
        keys = [(f.path, f.line, f.code) for f in first.findings]
        assert keys == sorted(keys)

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError, match="no such file"):
            run_analysis(["definitely/not/here.py"])

    def test_syntax_error_raises_with_location(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n", encoding="utf-8")
        with pytest.raises(AnalysisError, match="cannot parse"):
            run_analysis([str(bad)])


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        assert main([str(clean)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings_and_json(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import random\nx = random.random()\n", encoding="utf-8"
        )
        assert main(["--format", "json", str(dirty)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RNG001", "FPR001", "SUP001"):
            assert code in out

    def test_rule_subset_selection(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import random\nx = random.random()\n", encoding="utf-8"
        )
        assert main(["--rules", "KRN001", str(dirty)]) == 0
        assert main(["--rules", "RNG001", str(dirty)]) == 1
