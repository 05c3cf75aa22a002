"""Tests for the deterministic fault-injection harness.

No process is killed here — the SIGKILL path is exercised for real by
``test_chaos.py`` against subprocesses, and replaced by a recording
stub in these tests.  They pin the ``kill@gen`` spec grammar, the
seeded-ordinal resolution (same seed, same strike point), and the
checkpoint hook that the chaos suite and CI job build on.
"""

import random

import pytest

from repro.engine import faults
from repro.engine.faults import (
    FAULTS_ENV,
    FaultInjector,
    FaultSpec,
    active_injector,
    parse_faults,
    reset_active_injector,
)
from repro.errors import ExperimentError


class Struck(Exception):
    """Raised by the stubbed SIGKILL so a strike is observable."""


@pytest.fixture
def no_sigkill(monkeypatch):
    def strike():
        raise Struck()

    monkeypatch.setattr(faults, "_sigkill_self", strike)


class TestSpecGrammar:
    def test_parse_single(self):
        (fault,) = parse_faults("kill@gen:3")
        assert fault == FaultSpec(kind="kill", point="gen", at=3)

    def test_parse_many_with_whitespace(self):
        specs = parse_faults(" kill@gen:1 , kill@gen:rand:42:10 ,")
        assert specs == (
            FaultSpec("kill", "gen", 1),
            FaultSpec("kill", "gen", random.Random(42).randrange(10)),
        )

    def test_seeded_ordinal_is_reproducible(self):
        first = parse_faults("kill@gen:rand:42:10")
        second = parse_faults("kill@gen:rand:42:10")
        assert first == second
        assert 0 <= first[0].at < 10
        assert first[0].at == random.Random(42).randrange(10)

    @pytest.mark.parametrize(
        "bad",
        [
            "kill@shard",          # no ordinal
            "explode@shard:1",     # unknown kind
            "kill@nowhere:1",      # unknown point
            "kill@shard:abc",      # non-numeric ordinal
            "kill@shard:1.5",      # unknown point: only gen remains
            "slow@shard:1",        # unknown kind
            "rand:1:2",            # no kind/point at all
            "kill@gen:rand:42",    # seeded ordinal missing HI
            "kill@gen:1.5",        # non-integer generation
            "kill@gen:rand:42:0",  # empty seeded range
            "drop@gen:1",          # unknown kind: only kill strikes
        ],
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ExperimentError):
            parse_faults(bad)

    def test_empty_spec_is_inert(self):
        assert parse_faults("") == ()
        assert not FaultInjector(())


class TestInjectorHooks:
    def test_inert_injector_is_free(self, no_sigkill):
        injector = FaultInjector(())
        for generation in range(4):
            injector.on_checkpoint_saved(generation)  # no strikes

    def test_gen_hook_matches_generation_not_counter(self, no_sigkill):
        injector = FaultInjector(parse_faults("kill@gen:3"))
        injector.on_checkpoint_saved(1)
        injector.on_checkpoint_saved(2)
        with pytest.raises(Struck):
            injector.on_checkpoint_saved(3)


class TestEnvPlumbing:
    def test_from_env_reads_spec(self, no_sigkill):
        injector = FaultInjector.from_env({FAULTS_ENV: "kill@gen:0"})
        assert injector.faults == (FaultSpec("kill", "gen", 0),)
        with pytest.raises(Struck):
            injector.on_checkpoint_saved(0)

    def test_from_env_without_spec_is_inert(self):
        assert not FaultInjector.from_env({})

    def test_active_injector_cached_and_resettable(self, monkeypatch):
        reset_active_injector()
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        try:
            assert not active_injector()
            monkeypatch.setenv(FAULTS_ENV, "kill@gen:0")
            assert not active_injector()  # cached: env read once
            reset_active_injector()
            assert active_injector()  # re-read after reset
        finally:
            reset_active_injector()
