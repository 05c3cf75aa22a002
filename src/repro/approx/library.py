"""The approximate-multiplier Pareto library (output of the paper's step 1).

``build_library`` runs the whole step-1 flow:

1. generate the exact base multiplier;
2. enumerate precision-scaled variants (operand LSB truncation);
3. run NSGA-II over gate-level pruning masks, minimising
   ``(area in GE, NMED)``;
4. optionally prune the truncated variants too (hybrid candidates);
5. merge everything, deduplicate by truth table and keep the
   area/error Pareto front (the exact multiplier is always retained).

Libraries are deterministic in their parameters and memoised per
process, so the accelerator DSE can call :func:`build_library` freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.approx.lut import LutMultiplier
from repro.approx.metrics import (
    ErrorMetrics,
    compute_error_metrics,
    gaussian_operand_distribution,
)
from repro.approx.nsga2 import Nsga2, Nsga2Config
from repro.approx.precision import truncate_inputs
from repro.approx.pruning import BatchedPruningObjectives, PruningSpace
from repro.circuits.area import netlist_area_um2, netlist_delay_ps, netlist_ge
from repro.circuits.synthesis import ArithmeticCircuit, make_multiplier
from repro.engine.backends import ThreadBackend, register_pool_context_provider
from repro.engine.diskcache import FitnessDiskCache, context_fingerprint
from repro.engine.population import EngineConfig
from repro.engine.vectorized import pareto_front_np
from repro.errors import OptimizationError

#: Truncation pairs enumerated as precision-scaling candidates.
DEFAULT_TRUNCATIONS: Tuple[Tuple[int, int], ...] = (
    (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2),
    (3, 2), (2, 3), (3, 3), (4, 3), (3, 4), (4, 4),
)

#: Partial-product cut depths for structural candidates.
DEFAULT_STRUCTURAL_CUTS: Tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)


@dataclass(frozen=True)
class ApproxMultiplier:
    """One library entry: a multiplier plus everything the DSE needs.

    Attributes:
        name: unique label within its library.
        circuit: gate-level implementation.
        lut: functional model (exhaustive product table).
        metrics: uniform-input error statistics.
        dnn_metrics: error statistics weighted by a zero-centred operand
            distribution (what DNN tensors look like).
        area_ge: cell area in NAND2-equivalents.
        origin: ``exact`` / ``precision`` / ``pruned`` / ``hybrid``.
    """

    name: str
    circuit: ArithmeticCircuit
    lut: LutMultiplier
    metrics: ErrorMetrics
    dnn_metrics: ErrorMetrics
    area_ge: float
    origin: str

    @property
    def is_exact(self) -> bool:
        return self.metrics.is_exact

    def area_um2(self, node_nm: int) -> float:
        """Placed cell area at a technology node."""
        return netlist_area_um2(self.circuit.netlist, node_nm)

    def delay_ps(self, node_nm: int) -> float:
        """Critical-path delay at a technology node."""
        return netlist_delay_ps(self.circuit.netlist, node_nm)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"ApproxMultiplier({self.name!r}, area={self.area_ge:.1f} GE, "
            f"NMED={self.metrics.nmed:.2e})"
        )


class ApproxLibrary:
    """An ordered collection of Pareto-optimal approximate multipliers."""

    def __init__(self, multipliers: Sequence[ApproxMultiplier], width: int):
        if not multipliers:
            raise OptimizationError("library must contain at least one multiplier")
        self.width = width
        self.multipliers: Tuple[ApproxMultiplier, ...] = tuple(
            sorted(multipliers, key=lambda m: (-m.area_ge, m.metrics.nmed))
        )
        self._by_name = {m.name: m for m in self.multipliers}
        if len(self._by_name) != len(self.multipliers):
            raise OptimizationError("duplicate multiplier names in library")

    def __len__(self) -> int:
        return len(self.multipliers)

    def __iter__(self):
        return iter(self.multipliers)

    def __getitem__(self, index: int) -> ApproxMultiplier:
        return self.multipliers[index]

    @property
    def exact(self) -> ApproxMultiplier:
        """The exact multiplier (always present)."""
        for m in self.multipliers:
            if m.is_exact:
                return m
        raise OptimizationError("library lost its exact multiplier")

    def by_name(self, name: str) -> ApproxMultiplier:
        try:
            return self._by_name[name]
        except KeyError:
            raise OptimizationError(
                f"no multiplier named {name!r}; available: {sorted(self._by_name)}"
            ) from None

    def within_nmed(self, max_nmed: float) -> List[ApproxMultiplier]:
        """All entries with NMED <= bound, largest area first."""
        return [m for m in self.multipliers if m.metrics.nmed <= max_nmed]

    def smallest_within_nmed(self, max_nmed: float) -> ApproxMultiplier:
        """The smallest-area entry meeting an NMED bound."""
        feasible = self.within_nmed(max_nmed)
        if not feasible:
            raise OptimizationError(
                f"no multiplier with NMED <= {max_nmed:g} in library"
            )
        return min(feasible, key=lambda m: (m.area_ge, m.metrics.nmed))

    def area_range_ge(self) -> Tuple[float, float]:
        areas = [m.area_ge for m in self.multipliers]
        return min(areas), max(areas)


# --- construction -------------------------------------------------------------


def _make_entry(
    name: str,
    circuit: ArithmeticCircuit,
    origin: str,
    width: int,
    dnn_weights: np.ndarray,
    table: Optional[np.ndarray] = None,
) -> ApproxMultiplier:
    if table is None:
        table = circuit.truth_table()
    metrics = compute_error_metrics(table, width, width)
    dnn_metrics = compute_error_metrics(
        table, width, width, a_probabilities=dnn_weights, b_probabilities=dnn_weights
    )
    return ApproxMultiplier(
        name=name,
        circuit=circuit,
        lut=LutMultiplier(table.astype(np.int64), width, width, name=name),
        metrics=metrics,
        dnn_metrics=dnn_metrics,
        area_ge=netlist_ge(circuit.netlist),
        origin=origin,
    )


def _pruning_pareto(
    base: ArithmeticCircuit,
    width: int,
    dnn_weights: np.ndarray,
    origin: str,
    seed: int,
    population: int,
    generations: int,
    max_candidates: int,
    kind: str = "wallace",
    engine: Optional[EngineConfig] = None,
    cache_dir: Optional[str] = None,
) -> List[ApproxMultiplier]:
    """NSGA-II search over pruning masks of one base circuit.

    The search runs on the population-batched circuit engine by
    default (engine modes ``auto``/``batch``): the base circuit is
    compiled once and every generation is simulated in one pass, with
    per-genome areas from the vectorized constant-propagation sweep —
    bit-identical objectives to the per-genome reference path, which
    stays selectable via engine mode ``serial`` (or ``thread`` for
    per-genome fan-out).

    With ``cache_dir`` set, genome objectives persist on disk under a
    fingerprint of everything they depend on; cached hits skip circuit
    simulation, and the (deterministic) circuit artifacts of the final
    front are re-derived on demand for entries whose objectives came
    from the cache.  The cache is flushed once, after the search, so a
    crash loses at most this search's objectives.
    """
    space = PruningSpace(base, max_candidates=max_candidates)
    artifacts: Dict[Tuple[int, ...], Tuple[ArithmeticCircuit, np.ndarray]] = {}
    search_config = Nsga2Config(
        population_size=population,
        generations=generations,
        seed=seed,
    )
    disk = (
        FitnessDiskCache(
            cache_dir,
            context_fingerprint(
                "library-pruning", width, kind, origin,
                seed, population, generations, max_candidates,
            ),
        )
        if cache_dir is not None
        else None
    )

    def evaluate(genome: Tuple[int, ...]) -> Tuple[float, float]:
        """Per-genome prune-then-simulate reference path (bit-exact)."""
        if disk is not None:
            cached = disk.get(genome)
            if cached is not None:
                return cached
        circuit = space.apply(genome)
        table = circuit.truth_table()
        artifacts[genome] = (circuit, table)
        metrics = compute_error_metrics(table, width, width)
        objectives = (netlist_ge(circuit.netlist), metrics.nmed)
        if disk is not None:
            disk.put(genome, objectives)
        return objectives

    def random_genome(rng: np.random.Generator) -> Tuple[int, ...]:
        return space.random_genome(rng)

    engine_config = engine or EngineConfig(mode="auto")
    batch_evaluate = None
    if engine_config.mode in ("auto", "batch"):
        workers = engine_config.resolved_workers()
        if workers > 1:
            # oversized populations shard across the thread backend;
            # the evaluator closes over live circuit state, so the
            # process backend does not apply here
            backend = ThreadBackend(workers)
            # floor of 8: splitting below that trades away the batch
            # amortisation the engine exists for (a 64-core runner must
            # not degenerate to per-genome shards)
            shard_size = min(64, max(8, -(-population // workers)))
        else:
            backend = None
            shard_size = 64
        batched: List[BatchedPruningObjectives] = []

        def batch_evaluate(
            genomes: Sequence[Tuple[int, ...]],
        ) -> List[Tuple[float, float]]:
            """Generation fast path: disk hits, then one batched pass."""
            results: List[Optional[Tuple[float, float]]] = [None] * len(
                genomes
            )
            misses: List[Tuple[int, ...]] = []
            miss_at: List[int] = []
            for index, genome in enumerate(genomes):
                cached = disk.get(genome) if disk is not None else None
                if cached is None:
                    misses.append(genome)
                    miss_at.append(index)
                else:
                    results[index] = cached
            if misses:
                if not batched:  # built lazily: warm disk runs skip it
                    batched.append(
                        BatchedPruningObjectives(
                            space,
                            shard_size=shard_size,
                            backend=backend,
                            kernel_tier=engine_config.kernel_tier,
                        )
                    )
                for index, objectives in zip(
                    miss_at, batched[0](misses)
                ):
                    results[index] = objectives
                    if disk is not None:
                        disk.put(genomes[index], objectives)
            return results  # type: ignore[return-value]

    search = Nsga2(
        evaluate,
        random_genome,
        search_config,
        engine=engine_config,
        batch_evaluate=batch_evaluate,
    )
    front = search.run()
    if disk is not None:
        disk.flush()

    # exact pruned netlists are materialised only for the Pareto
    # survivors; their truth tables come from one batched pass when
    # the engine is up (bit-identical to circuit.truth_table())
    missing = [
        genome for genome, _objectives in front if genome not in artifacts
    ]
    if missing and batch_evaluate is not None and batched:
        tables = batched[0].truth_tables(missing)
        for index, genome in enumerate(missing):
            artifacts[genome] = (space.apply(genome), tables[index])

    entries: List[ApproxMultiplier] = []
    for rank, (genome, _objectives) in enumerate(front):
        if genome not in artifacts:
            circuit = space.apply(genome)
            artifacts[genome] = (circuit, circuit.truth_table())
        circuit, table = artifacts[genome]
        entries.append(
            _make_entry(
                name=f"{origin}_{base.netlist.name}_p{rank}",
                circuit=circuit,
                origin=origin,
                width=width,
                dnn_weights=dnn_weights,
                table=table,
            )
        )
    return entries


def build_library(
    width: int = 8,
    kind: str = "wallace",
    seed: int = 0,
    population: int = 40,
    generations: int = 36,
    max_candidates: int = 96,
    truncations: Sequence[Tuple[int, int]] = DEFAULT_TRUNCATIONS,
    hybrid: bool = True,
    structural: bool = True,
    structural_cuts: Sequence[int] = DEFAULT_STRUCTURAL_CUTS,
    dnn_sigma_fraction: float = 0.25,
    use_cache: bool = True,
    engine: Optional[EngineConfig] = None,
    cache_dir: Optional[str] = None,
) -> ApproxLibrary:
    """Run the full step-1 flow and return the Pareto library.

    Args:
        width: operand bit width (the paper uses 8).
        kind: base multiplier family.
        seed: NSGA-II seed (library is deterministic in all arguments).
        population: NSGA-II population size.
        generations: NSGA-II generations.
        max_candidates: pruning genome length.
        truncations: (trunc_a, trunc_b) precision-scaling pairs to add.
        hybrid: also prune lightly-truncated variants.
        structural: include search-free structural candidates
            (partial-product truncation, lower-part-OR folding).
        structural_cuts: cut depths for the structural candidates.
        dnn_sigma_fraction: operand-distribution width for DNN metrics.
        use_cache: reuse a previously built identical library.
        engine: population-evaluation policy for the NSGA-II searches
            (every mode returns bit-identical libraries, so it is not
            part of the memo key).  ``auto`` (the default) and
            ``batch`` run the population-batched circuit engine —
            one compiled pass per generation; ``serial`` keeps the
            per-genome prune-then-simulate reference, ``thread`` fans
            the reference path out per genome.  ``process`` is
            downgraded to ``thread``: the pruning evaluator closes
            over live circuit state that cannot cross a process
            boundary.  The search-free precision/structural variants
            are scored inline, before the searches, in every mode.
        cache_dir: optional directory for the on-disk objective cache,
            so rebuilding the same library in a fresh process (or a
            forked grid worker) skips re-simulating pruned circuits.
            It is also the crash-recovery path: each pruning search
            flushes its objectives atomically when it finishes, so a
            rebuild after a crash recomputes only the search that was
            in flight and returns a bit-identical library.  Like
            ``engine``, it changes speed, never results, so it is not
            part of the memo key.
    """
    key = (
        width, kind, seed, population, generations, max_candidates,
        tuple(truncations), hybrid, structural, tuple(structural_cuts),
        dnn_sigma_fraction,
    )
    if use_cache and key in _LIBRARY_CACHE:
        return _LIBRARY_CACHE[key]
    if engine is not None and engine.mode == "process":
        # the pruning evaluator closes over live circuit state and
        # cannot cross a process boundary; thread mode returns a
        # bit-identical library
        engine = EngineConfig(
            mode="thread",
            workers=engine.workers,
            chunk_size=engine.chunk_size,
            kernel_tier=engine.kernel_tier,
        )

    dnn_weights = gaussian_operand_distribution(width, dnn_sigma_fraction)
    exact_circuit = make_multiplier(width, width, kind=kind)
    entries: List[ApproxMultiplier] = [
        _make_entry("exact", exact_circuit, "exact", width, dnn_weights)
    ]

    # the search-free variants (precision truncations + structural
    # cuts) go after exact and before the search entries: the order
    # feeds `_pareto_entries`'s insertion-order dedup
    variant_specs: List[Tuple[str, Any, str]] = []
    for trunc_a, trunc_b in truncations:
        variant_specs.append(
            (
                f"trunc_a{trunc_a}b{trunc_b}",
                truncate_inputs(exact_circuit, trunc_a, trunc_b),
                "precision",
            )
        )

    if structural:
        from repro.approx.structural import (
            loa_multiplier,
            truncated_pp_multiplier,
        )

        for cut in structural_cuts:
            variant_specs.append(
                (
                    f"tpp{cut}",
                    truncated_pp_multiplier(width, cut, correction=True),
                    "structural",
                )
            )
            variant_specs.append(
                (f"loa{cut}", loa_multiplier(width, cut), "structural")
            )

    entries.extend(
        _make_entry(name, circuit, origin, width, dnn_weights)
        for name, circuit, origin in variant_specs
    )

    entries.extend(
        _pruning_pareto(
            exact_circuit, width, dnn_weights, "pruned",
            seed, population, generations, max_candidates,
            kind=kind, engine=engine, cache_dir=cache_dir,
        )
    )

    if hybrid:
        light_truncated = truncate_inputs(exact_circuit, 1, 1)
        entries.extend(
            _pruning_pareto(
                light_truncated, width, dnn_weights, "hybrid",
                seed + 1, max(population // 2, 8),
                max(generations // 2, 6), max_candidates,
                kind=kind, engine=engine, cache_dir=cache_dir,
            )
        )

    library = ApproxLibrary(_pareto_entries(entries), width)
    if use_cache:
        _LIBRARY_CACHE[key] = library
    return library


def _pareto_entries(entries: List[ApproxMultiplier]) -> List[ApproxMultiplier]:
    """Deduplicate by truth table; keep the Pareto set + exact.

    The front is taken over three objectives: area, uniform-input NMED,
    and the DNN-weighted second error moment.  The third objective
    matters because the accelerator DSE selects multipliers by their
    *DNN* error — an entry dominated under uniform inputs can still be
    the best choice under DNN-like operand distributions (truncation
    concentrates error on small operands that DNN tensors visit often,
    pruning on rare large ones).
    """
    unique: Dict[bytes, ApproxMultiplier] = {}
    for entry in entries:
        digest = entry.lut.table.tobytes()
        best = unique.get(digest)
        if best is None or entry.area_ge < best.area_ge:
            unique[digest] = entry

    scored = [
        (
            entry,
            (
                entry.area_ge,
                entry.metrics.nmed,
                entry.dnn_metrics.variance + entry.dnn_metrics.bias**2,
            ),
        )
        for entry in unique.values()
    ]
    front = {id(item) for item, _ in pareto_front_np(scored)}
    kept = [entry for entry in unique.values() if id(entry) in front]
    exact = [e for e in unique.values() if e.is_exact]
    for e in exact:
        if e not in kept:
            kept.append(e)
    return kept


_LIBRARY_CACHE: Dict[tuple, ApproxLibrary] = {}


def _library_pool_context() -> Tuple[tuple, ...]:
    """Warm-pool fingerprint: which library settings exist in-process.

    Shared-pool workers fork with the parent's library memo; a harness
    that later builds a library for *different* settings would find
    workers forked before it existed, each rebuilding it per task.
    Exposing the memo keys as pool context makes
    :func:`repro.engine.backends.shared_process_pool` refork instead
    (results were never affected — only throughput).
    """
    return tuple(sorted(_LIBRARY_CACHE, key=repr))


register_pool_context_provider("approx-library", _library_pool_context)
