"""Property tests: every compiled kernel tier == the numpy reference.

The kernel registry (:mod:`repro.engine.kernels`) promises that tier
selection changes throughput, never results.  These tests pin that
promise three ways:

* registry behaviour — ``auto`` resolution order, unknown names
  rejected eagerly, known-but-unavailable tiers degrading to numpy
  with a once-per-pair :class:`RuntimeWarning` (including a
  forced-unavailable scenario where every compiled tier is broken);
* bit-identity — for every tier that loads in this environment, the
  batched circuit evaluator (exhaustive truth tables + the
  constant-prop/liveness area sweep) and the stacked LUT matmul must
  equal the pinned-numpy path exactly, over random genomes/netlists
  and random multiplier stacks, including empty populations, single
  members, all-ties genomes, and non-contiguous inputs;
* integration — the per-thread scratch-slab pool, the warm-pool
  ``kernel_tier`` context provider, and ``EngineConfig`` validation.

Compiled-tier cases self-skip when no compiled tier loads here (no C
compiler); the registry/degradation tests run everywhere.
"""

import warnings

import numpy as np
import pytest

from repro.approx.lut import LutMultiplier
from repro.approx.pruning import PruningSpace
from repro.circuits.batched import BatchedCircuitEvaluator
from repro.circuits.synthesis import make_multiplier
from repro.engine import kernels
from repro.cli import main as cli_main
from repro.engine.kernels import (
    AUTO_TIER,
    KERNEL_TIER_ENV,
    NUMPY_TIER,
    KernelError,
    KernelImpl,
    get_kernel,
    kernel_availability,
    kernel_available,
    kernel_load_error,
    kernel_tier_names,
    register_kernel_tier,
    resolve_kernel_tier,
    self_test_kernel,
    validate_kernel_tier,
)
from repro.engine.population import EngineConfig
from repro.errors import ExperimentError
from repro.nn.inference import (
    _SLAB_POOL,
    _LutStack,
    _lut_matmul_stack,
    clear_slab_pool,
)

AVAILABLE = [name for name in kernel_tier_names() if kernel_available(name)]
COMPILED = [name for name in AVAILABLE if name != NUMPY_TIER]

#: Parametrization over the compiled tiers that load here; a single
#: skipped placeholder keeps the suite green on numpy-only machines.
COMPILED_PARAMS = COMPILED or [
    pytest.param(
        NUMPY_TIER,
        marks=pytest.mark.skip(
            reason="no compiled kernel tier loads in this environment"
        ),
    )
]


@pytest.fixture
def registry_guard():
    """Snapshot and restore the global tier registry around a test."""
    with kernels._LOCK:
        factories = dict(kernels._TIER_FACTORIES)
    try:
        yield
    finally:
        with kernels._LOCK:
            kernels._TIER_FACTORIES.clear()
            kernels._TIER_FACTORIES.update(factories)
        kernels._reset_kernel_registry_for_tests()


def _broken_loader():
    raise KernelError("deliberately broken for tests")


class TestRegistry:
    def test_numpy_always_available(self):
        assert kernel_available(NUMPY_TIER)
        impl = get_kernel(NUMPY_TIER)
        assert impl.name == NUMPY_TIER
        # the numpy tier carries no callables: callers keep their
        # in-tree vectorized path, which stays the reference
        assert impl.simulate_tables is None
        assert impl.sweep_ge is None
        assert impl.lut_tile is None

    def test_names_in_descending_priority(self):
        assert kernel_tier_names() == ("c", NUMPY_TIER)

    def test_auto_resolves_highest_priority_available(self):
        resolved = resolve_kernel_tier(AUTO_TIER)
        assert resolved == next(
            name for name in kernel_tier_names() if kernel_available(name)
        )

    def test_availability_map_covers_registry(self):
        availability = kernel_availability()
        assert set(availability) == set(kernel_tier_names())
        assert availability[NUMPY_TIER] is True

    def test_unknown_tier_rejected_everywhere(self, monkeypatch, capsys):
        # the second name is a tier this package used to ship: stale
        # settings fail fast instead of silently degrading
        for tier in ("bogus", "numba"):
            with pytest.raises(ExperimentError):
                validate_kernel_tier(tier)
            with pytest.raises(ExperimentError):
                resolve_kernel_tier(tier)
            with pytest.raises(ExperimentError):
                EngineConfig(kernel_tier=tier)
            with pytest.raises(ExperimentError):
                BatchedCircuitEvaluator(
                    make_multiplier(2, 2), [], kernel_tier=tier
                )
            # the environment default fails the same way, and the CLI
            # rejects the flag before any search starts
            monkeypatch.setenv(KERNEL_TIER_ENV, tier)
            with pytest.raises(ExperimentError):
                resolve_kernel_tier()
            monkeypatch.delenv(KERNEL_TIER_ENV)
            assert cli_main(["library", "--fast", "--kernel-tier", tier]) == 1
            assert "unknown kernel tier" in capsys.readouterr().err

    def test_none_and_auto_always_valid(self):
        validate_kernel_tier(None)
        validate_kernel_tier(AUTO_TIER)
        EngineConfig(kernel_tier=None)
        EngineConfig(kernel_tier=AUTO_TIER)

    def test_unavailable_tier_degrades_with_single_warning(
        self, registry_guard
    ):
        register_kernel_tier("broken", _broken_loader, priority=-10)
        kernels._reset_kernel_registry_for_tests()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert resolve_kernel_tier("broken") == NUMPY_TIER
            assert resolve_kernel_tier("broken") == NUMPY_TIER
        relevant = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(relevant) == 1  # warn once per (requested, resolved)
        assert "degrading to 'numpy'" in str(relevant[0].message)
        assert "broken" in (kernel_load_error("broken") or "")

    def test_auto_degrades_to_numpy_when_compiled_forced_unavailable(
        self, registry_guard
    ):
        # force every compiled tier to fail loading: auto must land on
        # numpy and say so, instead of erroring or staying silent
        for name in kernel_tier_names():
            if name != NUMPY_TIER:
                priority = kernels._TIER_FACTORIES[name][0]
                register_kernel_tier(name, _broken_loader, priority=priority)
        kernels._reset_kernel_registry_for_tests()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert resolve_kernel_tier(AUTO_TIER) == NUMPY_TIER
            impl = get_kernel(AUTO_TIER)
        assert impl.name == NUMPY_TIER
        relevant = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
        ]
        assert len(relevant) == 1
        assert "no compiled tier" in str(relevant[0].message)

    def test_self_test_rejects_diverging_impl(self):
        reference = get_kernel(NUMPY_TIER)

        def bad_lut_tile(table, w_index, activations, out):
            out.fill(0)  # wrong on the self-test fixture

        with pytest.raises(KernelError):
            # deliberately partial impl: the subject under test is the
            # self-test rejecting it, so the parity rule is suppressed
            self_test_kernel(
                KernelImpl(  # repro: noqa[KRN001]
                    name="bad", version="bad", lut_tile=bad_lut_tile
                )
            )
        # the numpy impl (no callables) passes vacuously
        self_test_kernel(reference)


def make_pair(circuit, tier, max_candidates=48):
    """(space, numpy evaluator, tier evaluator) for one base circuit."""
    space = PruningSpace(circuit, max_candidates=max_candidates)
    candidates = space.tie_candidates()
    return (
        space,
        BatchedCircuitEvaluator(circuit, candidates, kernel_tier=NUMPY_TIER),
        BatchedCircuitEvaluator(circuit, candidates, kernel_tier=tier),
    )


def random_genomes(space, count, seed):
    rng = np.random.default_rng(seed)
    genomes = [space.random_genome(rng) for _ in range(count)]
    genomes.append(tuple([0] * space.genome_length))  # empty genome
    genomes.append(tuple([1] * space.genome_length))  # all-ties genome
    return genomes


class TestCircuitKernelIdentity:
    @pytest.mark.parametrize("tier", COMPILED_PARAMS)
    @pytest.mark.parametrize("kind", ["wallace", "dadda", "array"])
    def test_random_population_identity(self, tier, kind):
        space, ref, ker = make_pair(make_multiplier(4, 4, kind=kind), tier)
        genomes = random_genomes(space, 24, seed=hash(kind) % 1000)
        assert np.array_equal(
            ref.truth_tables(genomes), ker.truth_tables(genomes)
        )
        assert np.array_equal(ref.area_ge(genomes), ker.area_ge(genomes))
        ref_tables, ref_areas = ref.evaluate(genomes)
        ker_tables, ker_areas = ker.evaluate(genomes)
        assert ref_tables.dtype == ker_tables.dtype
        assert np.array_equal(ref_tables, ker_tables)
        assert np.array_equal(ref_areas, ker_areas)

    @pytest.mark.parametrize("tier", COMPILED_PARAMS)
    def test_wide_multiplier_identity(self, tier):
        space, ref, ker = make_pair(
            make_multiplier(6, 6), tier, max_candidates=64
        )
        genomes = random_genomes(space, 12, seed=7)
        assert np.array_equal(
            ref.truth_tables(genomes), ker.truth_tables(genomes)
        )
        assert np.array_equal(ref.area_ge(genomes), ker.area_ge(genomes))

    @pytest.mark.parametrize("tier", COMPILED_PARAMS)
    def test_matches_prune_then_simulate_reference(self, tier):
        from repro.circuits.area import netlist_ge

        space, _ref, ker = make_pair(make_multiplier(4, 4), tier)
        genomes = random_genomes(space, 6, seed=3)
        tables = ker.truth_tables(genomes)
        areas = ker.area_ge(genomes)
        for i, genome in enumerate(genomes):
            circuit = space.apply(genome)
            assert np.array_equal(
                tables[i], circuit.truth_table().astype(np.uint64)
            )
            assert areas[i] == netlist_ge(circuit.netlist)

    @pytest.mark.parametrize("tier", COMPILED_PARAMS)
    def test_empty_and_single_member_populations(self, tier):
        space, ref, ker = make_pair(make_multiplier(4, 4), tier)
        empty = ker.truth_tables([])
        assert empty.shape == (0, ref.n_cases)
        assert ker.area_ge([]).shape == (0,)
        single = [space.random_genome(np.random.default_rng(11))]
        assert np.array_equal(
            ref.truth_tables(single), ker.truth_tables(single)
        )
        assert np.array_equal(ref.area_ge(single), ker.area_ge(single))

    @pytest.mark.parametrize("tier", COMPILED_PARAMS)
    def test_population_rows_independent_of_batch(self, tier):
        space, _ref, ker = make_pair(make_multiplier(4, 4), tier)
        genomes = random_genomes(space, 8, seed=5)
        whole = ker.truth_tables(genomes)
        for i, genome in enumerate(genomes):
            assert np.array_equal(whole[i], ker.truth_tables([genome])[0])


def _random_stack(rng, count, huge=False):
    """Random 8x8 LUT multipliers (optionally int64-table range)."""
    high = (1 << 40) if huge else (1 << 14)
    luts = [
        LutMultiplier(
            rng.integers(0, high, size=1 << 16).astype(np.int64),
            8,
            8,
            name=f"rand{i}",
        )
        for i in range(count)
    ]
    return _LutStack(luts)


class TestLutKernelIdentity:
    @pytest.mark.parametrize("tier", COMPILED_PARAMS)
    @pytest.mark.parametrize("huge", [False, True])
    def test_matmul_stack_identity(self, tier, huge):
        rng = np.random.default_rng(42)
        stack = _random_stack(rng, 3, huge=huge)
        expected_dtype = np.int64 if huge else np.int32
        assert stack.tables.dtype == expected_dtype
        for ma in (1, 3):  # shared vs diverged activations
            acts = rng.integers(
                -128, 128, size=(ma, 37, 5), dtype=np.int16
            )
            w_index = (
                (rng.integers(-128, 128, size=(5, 4)) & 0xFF) << 8
            ).astype(np.int64)
            reference = _lut_matmul_stack(
                acts, w_index, stack, workers=1, kernel_tier=NUMPY_TIER
            )
            for workers in (1, 3):
                got = _lut_matmul_stack(
                    acts, w_index, stack, workers=workers, kernel_tier=tier
                )
                assert got.dtype == np.int64
                assert np.array_equal(reference, got)

    @pytest.mark.parametrize("tier", COMPILED_PARAMS)
    def test_non_contiguous_activations(self, tier):
        rng = np.random.default_rng(9)
        stack = _random_stack(rng, 2)
        base = rng.integers(-128, 128, size=(2, 64, 6), dtype=np.int16)
        acts = base[:, ::2, :]  # non-contiguous view
        assert not acts.flags["C_CONTIGUOUS"]
        w_index = (
            (rng.integers(-128, 128, size=(6, 3)) & 0xFF) << 8
        ).astype(np.int64)
        reference = _lut_matmul_stack(
            acts, w_index, stack, workers=1, kernel_tier=NUMPY_TIER
        )
        got = _lut_matmul_stack(
            acts, w_index, stack, workers=1, kernel_tier=tier
        )
        assert np.array_equal(reference, got)

    @pytest.mark.parametrize("tier", COMPILED_PARAMS)
    def test_cnn_stack_end_to_end(self, tier, synthetic_task):
        task = synthetic_task
        rng = np.random.default_rng(0)
        exact = LutMultiplier.exact(8, 8)
        noisy = LutMultiplier(
            np.maximum(
                exact.table - rng.integers(0, 9, size=exact.table.shape), 0
            ),
            8,
            8,
            name="noisy",
        )
        luts = [exact, noisy]
        x = task.test_x[:40]
        reference = task.model.forward_stack(
            x, luts, stack_workers=1, kernel_tier=NUMPY_TIER
        )
        for workers in (1, 2):
            got = task.model.forward_stack(
                x, luts, stack_workers=workers, kernel_tier=tier
            )
            assert np.array_equal(reference, got)
        ref_acc = task.accuracy_batch(luts, kernel_tier=NUMPY_TIER)
        got_acc = task.accuracy_batch(luts, kernel_tier=tier)
        assert np.array_equal(ref_acc, got_acc)


@pytest.fixture(scope="module")
def synthetic_task():
    from repro.nn.synthetic import make_task

    return make_task(n_train_per_class=6, n_test_per_class=4)


class TestSlabPool:
    def test_reuses_by_key_and_isolates_keys(self):
        clear_slab_pool()
        first = _SLAB_POOL.get("t", (4, 4), np.int32)
        again = _SLAB_POOL.get("t", (4, 4), np.int32)
        assert again is first
        assert _SLAB_POOL.get("t", (4, 4), np.int64) is not first
        assert _SLAB_POOL.get("t", (4, 5), np.int32) is not first
        assert _SLAB_POOL.get("u", (4, 4), np.int32) is not first
        clear_slab_pool()

    def test_bounded_by_clear_on_overflow(self):
        clear_slab_pool()
        for i in range(_SLAB_POOL.MAX_SLABS + 3):
            _SLAB_POOL.get("t", (1, i + 1), np.int8)
        assert len(_SLAB_POOL.slabs) <= _SLAB_POOL.MAX_SLABS
        clear_slab_pool()

    def test_warm_pool_does_not_change_results(self):
        rng = np.random.default_rng(4)
        stack = _random_stack(rng, 2)
        acts = rng.integers(-128, 128, size=(1, 23, 4), dtype=np.int16)
        w_index = (
            (rng.integers(-128, 128, size=(4, 3)) & 0xFF) << 8
        ).astype(np.int64)
        clear_slab_pool()
        cold = _lut_matmul_stack(
            acts, w_index, stack, workers=1, kernel_tier=NUMPY_TIER
        )
        warm = _lut_matmul_stack(
            acts, w_index, stack, workers=1, kernel_tier=NUMPY_TIER
        )
        assert cold is not warm  # out slabs are never pooled
        assert np.array_equal(cold, warm)
        clear_slab_pool()


class TestHandshakeAvailability:
    """The tier selection as seen by forked pool workers."""

    def test_pool_context_provider_registered(self):
        from repro.engine.backends import _POOL_CONTEXT_PROVIDERS

        assert "kernel_tier" in _POOL_CONTEXT_PROVIDERS
        assert (
            _POOL_CONTEXT_PROVIDERS["kernel_tier"]()
            == kernels.default_kernel_tier()
        )
