"""Population-evaluation engine shared by the GA and NSGA-II searches.

The search throughput *is* the product for this reproduction: every
extra design evaluated per second is more of the carbon/performance
trade-off surface explored.  This package concentrates the three levers
that make the searches fast without changing a single result:

* :mod:`repro.engine.population` — :class:`PopulationEvaluator`:
  generation-at-a-time evaluation with dedup, memoisation, and optional
  ``concurrent.futures`` fan-out (deterministic result ordering);
* :mod:`repro.engine.vectorized` — numpy implementations of the
  NSGA-II internals (broadcast dominance matrix, argsort crowding,
  vectorized Pareto filter) that are exactly equal to the pure-Python
  reference implementations in :mod:`repro.approx.nsga2`;
* :mod:`repro.engine.batch` — :class:`BatchNetworkEvaluator`:
  the dataflow performance model evaluated for a whole population of
  geometries at once in numpy, bit-identical to
  :func:`repro.dataflow.performance.evaluate_network`;
* :mod:`repro.engine.diskcache` — :class:`FitnessDiskCache`: opt-in
  on-disk memoisation keyed by a hash of (genome, network, node,
  constraints, grid) so repeated experiment runs warm-start.  It is
  also the crash-recovery path: every flush is an atomic replace, so a
  killed run rerun over the same directory recomputes only the search
  that was in flight and returns byte-identical results;
* :mod:`repro.engine.backends` — the dispatch layer: the ``serial``,
  ``thread`` and persistent warm ``process`` backends (the pool is
  context-fingerprinted, so a library-settings change reforks stale
  workers) shared by the grid runner, the population evaluator, and
  the behavioural accuracy stage
  (:meth:`repro.accuracy.behavioral.BehavioralValidator.drop_percents`
  shards multiplier sub-stacks over them);
* :mod:`repro.engine.grid` — :class:`GridRunner`: experiment cells
  sharded across the configured backend with deterministically ordered
  results regardless of shard count or worker count; ``run(plan)`` over
  an :class:`ExecutionPlan` is the one execution entry point.

Every fast path keeps its serial counterpart in-tree as the reference
implementation; the property tests under ``tests/engine`` assert exact
agreement.

Static invariants
-----------------

The contracts this package lives by — seeded RNG only, no wall-clock
or other nondeterministic inputs on engine paths, picklable callables
at backend boundaries, a complete trajectory declaration on the
fingerprinted experiment settings, all-or-none kernel-tier
registrations — are enforced by an AST checker, :mod:`repro.analysis`
(``python -m repro.analysis src benchmarks`` or ``repro
lint-invariants``), which CI runs as a required job.  Rule codes:
RNG001, NDT001, PKL001, FPR001, KRN001, SUP001; a finding is silenced
with a trailing ``# repro: noqa[CODE]`` whose code must name a
registered rule.  See the "Static invariants" section of ``PERF.md``
for the full inventory and the fingerprint-declaration syntax
(``# repro: fingerprinted[DECL]`` / ``# repro: non-trajectory[reason]``).
"""

from repro.engine.backends import (
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    current_pool_context,
    register_pool_context_provider,
    shared_process_pool,
    shutdown_shared_pools,
)
from repro.engine.batch import BatchNetworkEvaluator
from repro.engine.diskcache import FitnessDiskCache
from repro.engine.grid import ExecutionPlan, GridConfig, GridRunner
from repro.engine.population import EngineConfig, PopulationEvaluator
from repro.engine.vectorized import (
    crowding_distance_np,
    dominance_matrix,
    fast_non_dominated_sort_np,
    pareto_front_np,
    uniform_crossover,
)

__all__ = [
    "BatchNetworkEvaluator",
    "ExecutionPlan",
    "FitnessDiskCache",
    "GridConfig",
    "GridRunner",
    "ExecutorBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "current_pool_context",
    "register_pool_context_provider",
    "shared_process_pool",
    "shutdown_shared_pools",
    "EngineConfig",
    "PopulationEvaluator",
    "crowding_distance_np",
    "dominance_matrix",
    "fast_non_dominated_sort_np",
    "pareto_front_np",
    "uniform_crossover",
]
