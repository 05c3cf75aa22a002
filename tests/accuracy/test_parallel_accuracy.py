"""The engine-backed accuracy stage: backend-sharded drops == scalar.

The behavioural accuracy study is the fourth engine client: a
:class:`BehavioralValidator` given a :class:`GridRunner` shards the
uncached multiplier stack into contiguous sub-stacks dispatched over an
:class:`ExecutorBackend`.  Accuracy per multiplier is independent of
which sub-stack carries it, so every backend, shard count, and
``stack_workers`` value must return the scalar reference's drops bit
for bit — these tests pin that contract for serial, thread and process
dispatch.
"""

import pytest

from repro.accuracy.behavioral import BehavioralValidator, _accuracy_batch_cell
from repro.accuracy.predictor import AccuracyPredictor
from repro.approx.library import build_library
from repro.engine.backends import shutdown_shared_pools
from repro.engine.grid import GridConfig, GridRunner
from repro.nn.synthetic import make_task

FAST = dict(population=12, generations=5, hybrid=False, structural=False)


@pytest.fixture(scope="module")
def library():
    return build_library(width=8, seed=0, **FAST)


@pytest.fixture(scope="module")
def reference_drops(library):
    """Scalar-loop drops — the bit-identity reference for every mode."""
    validator = BehavioralValidator(task=_task())
    return [validator.drop_percent(m) for m in library]


def _task():
    return make_task(seed=0, n_train_per_class=15, n_test_per_class=10)


def _runner(mode, workers=2, shards=None):
    return GridRunner(GridConfig(mode=mode, workers=workers, shards=shards))


class TestBackendShardedDrops:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_mode_matches_scalar_reference(
        self, mode, library, reference_drops
    ):
        validator = BehavioralValidator(task=_task(), runner=_runner(mode))
        assert validator.drop_percents(list(library)) == reference_drops

    @pytest.mark.parametrize("shards", [1, 2, 5])
    def test_substack_count_never_changes_drops(
        self, shards, library, reference_drops
    ):
        validator = BehavioralValidator(
            task=_task(), runner=_runner("thread", shards=shards)
        )
        assert validator.drop_percents(list(library)) == reference_drops

    def test_stack_workers_with_sharding(self, library, reference_drops):
        validator = BehavioralValidator(
            task=_task(), stack_workers=3, runner=_runner("thread")
        )
        assert validator.drop_percents(list(library)) == reference_drops

    def test_sharded_populates_same_cache(self, library):
        validator = BehavioralValidator(task=_task(), runner=_runner("thread"))
        drops = validator.drop_percents(list(library))
        # scalar queries afterwards must hit the cache bit-for-bit
        assert [validator.drop_percent(m) for m in library] == drops

    def test_process_pool_cleanup(self):
        shutdown_shared_pools()  # leave no warm pool behind for other tests


class TestAccuracyBatchCell:
    def test_cell_is_batch_decomposable(self, library):
        """fn(a + b) == fn(a) + fn(b) — the for_batches requirement."""
        task = _task()
        luts = [m.lut for m in library]
        whole = _accuracy_batch_cell(luts, task, 1)
        split = _accuracy_batch_cell(luts[:3], task, 1) + _accuracy_batch_cell(
            luts[3:], task, 1
        )
        assert whole == split


class TestSettingsWiring:
    def test_settings_validator_matches_reference(
        self, library, reference_drops
    ):
        from dataclasses import replace

        from repro.experiments.common import fast_settings

        settings = replace(
            fast_settings(),
            accuracy_mode="thread",
            accuracy_workers=2,
            stack_workers=2,
        )
        validator = settings.validator(task=_task())
        assert validator.drop_percents(list(library)) == reference_drops

    def test_invalid_stack_workers_rejected_early(self):
        from dataclasses import replace

        from repro.errors import AccuracyModelError
        from repro.experiments.common import fast_settings

        with pytest.raises(AccuracyModelError, match="stack_workers"):
            replace(fast_settings(), stack_workers=0)

    def test_invalid_accuracy_mode_rejected(self):
        from dataclasses import replace

        from repro.errors import ExperimentError
        from repro.experiments.common import fast_settings

        settings = replace(fast_settings(), accuracy_mode="banana")
        with pytest.raises(ExperimentError, match="unknown grid mode"):
            settings.accuracy_runner()


class TestPredictorIntegration:
    def test_behavioral_agreement_identical_across_validators(self, library):
        plain = AccuracyPredictor(
            validator=BehavioralValidator(task=_task())
        ).behavioral_agreement(library)
        sharded = AccuracyPredictor().behavioral_agreement(
            library,
            validator=BehavioralValidator(
                task=_task(), stack_workers=2, runner=_runner("thread")
            ),
        )
        assert plain == sharded

    def test_ensure_validator_installs_and_memoises(self):
        predictor = AccuracyPredictor()
        first = predictor.ensure_validator()
        assert predictor.ensure_validator() is first
        custom = BehavioralValidator(task=_task())
        assert predictor.ensure_validator(custom) is custom
        assert predictor.validator is custom
