"""Whole-tree gates: the shipped tree is clean, and the static
fingerprint contract is honored by the runtime fingerprint it guards."""

from pathlib import Path

from repro.analysis import run_analysis

REPO = Path(__file__).resolve().parents[2]


class TestTreeIsClean:
    def test_src_and_benchmarks_have_zero_unsuppressed_findings(self):
        report = run_analysis(
            [str(REPO / "src"), str(REPO / "benchmarks")]
        )
        assert report.unsuppressed == [], "\n" + report.render_human()
        assert report.exit_code() == 0

    def test_every_suppression_in_tree_names_a_rule_code(self):
        # SUP001 findings are exactly the malformed suppressions; the
        # clean gate above already fails on them, this pins the intent
        report = run_analysis(
            [str(REPO / "src"), str(REPO / "benchmarks")],
            codes=["SUP001"],
        )
        assert report.findings == []


class TestSettingsTrajectoryFingerprint:
    def test_default_digest_is_stable(self):
        # the manifest key must not move when its implementation does
        from repro.experiments.common import ExperimentSettings

        assert (
            ExperimentSettings().trajectory_fingerprint()
            == "9fe3e617e7d5a715dc4200fbd3510890"
        )

    def test_execution_policy_never_perturbs(self):
        from repro.experiments.common import ExperimentSettings

        base = ExperimentSettings().trajectory_fingerprint()
        assert (
            ExperimentSettings(
                grid_mode="thread",
                grid_workers=4,
                kernel_tier="numpy",
                cache_dir="/tmp/cache",
                accuracy_mode="serial",
            ).trajectory_fingerprint()
            == base
        )

    def test_every_trajectory_setting_perturbs(self):
        from repro.experiments.common import (
            SETTINGS_TRAJECTORY_FIELDS,
            ExperimentSettings,
        )

        perturbed = {
            "library_population": 42,
            "library_generations": 37,
            "ga_population": 26,
            "ga_generations": 31,
            "seed": 9,
            "grid": "france",
        }
        assert set(perturbed) == set(SETTINGS_TRAJECTORY_FIELDS)
        base = ExperimentSettings().trajectory_fingerprint()
        for field, value in perturbed.items():
            changed = ExperimentSettings(
                **{field: value}
            ).trajectory_fingerprint()
            assert changed != base, field
