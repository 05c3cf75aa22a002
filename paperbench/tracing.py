"""Spans and counters around the program's public calls.

The benchmark does not change the program: :func:`install` replaces
selected functions and methods with timing wrappers from the outside,
in the process that runs a pass, before any process pool forks.  Pool
workers inherit the wrappers through ``fork``; after every shard a
worker appends its spans and counters to a spool file, which the pass
reads back once the pool has shut down.

A name bound with ``from module import name`` is looked up in the
caller's namespace, so such functions are wrapped in every namespace
that calls them.  A wrapper keeps the wrapped function's module and
qualified name, so a wrapped grid cell still pickles by reference.

A span is ``(name, start, end, span_id, parent_id, pid)`` on the
``time.perf_counter`` clock, which on Linux is the system-wide
monotonic clock, so spans from different processes line up.  A call
made while a span of the same name is open in the same thread records
no second span (recursion would count twice).
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, Tuple[int, int], Optional[Tuple[int, int]], int]


class Recorder:
    """In-memory spans and counters of one pass and its pool workers."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.root_pid = os.getpid()
        self.missing: List[str] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans: List[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack()
        if any(open_name == name for open_name, _ in stack):
            return fn(*args, **kwargs)
        span_id = (os.getpid(), next(self._ids))
        parent = stack[-1][1] if stack else None
        stack.append((name, span_id))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((name, start, end, span_id, parent, os.getpid()))

    def spool(self) -> None:
        """Append this worker's spans and counters to its spool file."""
        with self._lock:
            spans, self.spans = self.spans, []
            counts, self.counts = self.counts, collections.Counter()
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": spans, "counts": counts}) + "\n")

    def collect(self) -> Tuple[List[Span], collections.Counter]:
        """Parent and spooled worker spans and counters, merged."""
        spans = list(self.spans)
        counts = collections.Counter(self.counts)
        for name in sorted(os.listdir(self.spool_dir)):
            if not name.startswith("worker-"):
                continue
            with open(os.path.join(self.spool_dir, name), encoding="utf-8") as handle:
                for line in handle:
                    record = json.loads(line)
                    counts.update(record["counts"])
                    for name, start, end, sid, parent, pid in record["spans"]:
                        parent = tuple(parent) if parent else None
                        spans.append((name, start, end, tuple(sid), parent, pid))
        return spans, counts


def _patch(recorder: Recorder, target: str, make: Callable) -> None:
    """Replace ``module:attr`` or ``module:Class.attr`` with ``make(old)``."""
    module_name, _, path = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = getattr(owner, attr)
    except (ImportError, AttributeError):
        recorder.missing.append(target)
        return
    wrapper = make(original)
    functools.update_wrapper(wrapper, original)
    setattr(owner, attr, wrapper)


def _timed(recorder: Recorder, name: str, counter: Optional[Callable] = None):
    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(recorder, args, kwargs)
            return recorder.call(name, original, args, kwargs)

        return wrapper

    return make


def _wrap_everywhere(recorder, name, targets) -> None:
    """Wrap one function in every namespace that binds it, with one wrapper."""
    wrappers: Dict[int, Callable] = {}
    for target in targets:
        _patch(
            recorder, target,
            lambda old: wrappers.setdefault(id(old), _timed(recorder, name)(old)),
        )


def _arg(args: tuple, kwargs: dict, index: int, keyword: str):
    return args[index] if len(args) > index else kwargs[keyword]


def install(recorder: Recorder) -> None:
    """Wrap the layers the per-layer metrics are measured at."""
    timed = [
        ("approx.nsga2.run", "repro.approx.nsga2:Nsga2.run"),
        (
            "approx.pruning.shard",
            "repro.approx.pruning:BatchedPruningObjectives._shard_objectives",
        ),
        ("engine.diskcache.flush", "repro.engine.diskcache:FitnessDiskCache.flush"),
        (
            "accuracy.drop_percents",
            "repro.accuracy.behavioral:BehavioralValidator.drop_percents",
        ),
        ("core.designer.run", "repro.core.designer:CarbonAwareDesigner.run"),
        ("ga.engine.run", "repro.ga.engine:GeneticAlgorithm.run"),
        (
            "ga.fitness.evaluate_population",
            "repro.ga.fitness:FitnessEvaluator.evaluate_population",
        ),
        (
            "engine.batch.total_cycles",
            "repro.engine.batch:BatchNetworkEvaluator.total_cycles",
        ),
    ]
    for name, target in timed:
        _patch(recorder, target, _timed(recorder, name))
    # the searches reach objectives through __call__, a class-body alias
    _wrap_everywhere(
        recorder, "approx.pruning.objectives",
        [
            "repro.approx.pruning:BatchedPruningObjectives.objectives",
            "repro.approx.pruning:BatchedPruningObjectives.__call__",
        ],
    )

    _wrap_everywhere(
        recorder, "circuits.transform.prune_wires",
        ["repro.circuits.transform:prune_wires", "repro.approx.pruning:prune_wires"],
    )
    _wrap_everywhere(
        recorder, "approx.metrics.error_metrics",
        [
            "repro.approx.metrics:compute_error_metrics",
            "repro.approx:compute_error_metrics",
            "repro.approx.library:compute_error_metrics",
            "repro.accuracy.accumulator:compute_error_metrics",
        ],
    )
    _wrap_everywhere(
        recorder, "nn.make_task",
        [
            "repro.nn.synthetic:make_task",
            "repro.nn:make_task",
            "repro.accuracy.behavioral:make_task",
        ],
    )
    _wrap_everywhere(
        recorder, "dataflow.evaluate_network",
        [
            "repro.dataflow.performance:evaluate_network",
            "repro.dataflow:evaluate_network",
            "repro.core.baselines:evaluate_network",
            "repro.ga.fitness:evaluate_network",
        ],
    )
    _wrap_everywhere(
        recorder, "carbon.embodied_carbon",
        [
            "repro.carbon.act:embodied_carbon",
            "repro.carbon:embodied_carbon",
            "repro.carbon.accelerator_carbon:embodied_carbon",
            "repro.carbon.chiplet:embodied_carbon",
        ],
    )

    def count_genomes(rec, args, kwargs):
        rec.count("circuits.batched.genomes", len(_arg(args, kwargs, 1, "genomes")))

    _patch(
        recorder, "repro.circuits.batched:BatchedCircuitEvaluator.evaluate",
        _timed(recorder, "circuits.batched.evaluate", count_genomes),
    )

    def count_multipliers(rec, args, kwargs):
        rec.count("nn.stack_multipliers", len(_arg(args, kwargs, 2, "multipliers")))

    _patch(
        recorder, "repro.nn.inference:QuantCNN.forward_stack",
        _timed(recorder, "nn.forward_stack", count_multipliers),
    )

    def diskcache_get(original):
        def get(self, genome):
            value = recorder.call("engine.diskcache.get", original, (self, genome), {})
            outcome = "hits" if value is not None else "misses"
            recorder.count(f"engine.diskcache.{outcome}")
            return value

        return get

    _patch(recorder, "repro.engine.diskcache:FitnessDiskCache.get", diskcache_get)

    def population_call(original):
        def call(self, genomes):
            before = getattr(self, "evaluations", 0)
            result = recorder.call(
                "engine.population.call", original, (self, genomes), {}
            )
            computed = getattr(self, "evaluations", 0) - before
            recorder.count("engine.population.requested", len(genomes))
            recorder.count("engine.population.computed", computed)
            return result

        return call

    _patch(
        recorder, "repro.engine.population:PopulationEvaluator.__call__",
        population_call,
    )

    def grid_run(original):
        def run(self, plan):
            # mode and pool width in the span name: idle time is charged
            # only for runs that went to the process pool
            try:
                mode = self.resolved_mode(len(plan.items))
                workers = self.config.resolved_workers()
            except (AttributeError, TypeError):
                mode, workers = "unknown", 0
            name = f"engine.grid.run|{mode}|{workers}"
            return recorder.call(name, original, (self, plan), {})

        return run

    _patch(recorder, "repro.engine.grid:GridRunner.run", grid_run)

    pools: list = []

    def pool_starts(original):
        def shared_process_pool(workers):
            pool = original(workers)
            if not any(pool is known for known in pools):
                pools.append(pool)
                recorder.count("engine.pool.starts")
            return pool

        return shared_process_pool

    _patch(recorder, "repro.engine.backends:shared_process_pool", pool_starts)

    def run_shard(original):
        def wrapper(fn, cells):
            if os.getpid() == recorder.root_pid:
                return original(fn, cells)

            def cell(*args):
                return recorder.call("engine.grid.cell", fn, args, {})

            try:
                return original(cell, cells)
            finally:
                recorder.spool()

        return wrapper

    _patch(recorder, "repro.engine.backends:run_shard", run_shard)


# -- per-layer metrics ------------------------------------------------------

#: (metric, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("engine.kernels.resolve_s", "s", "lower"),
    ("approx.nsga2.self_s", "s", "lower"),
    ("approx.pruning.objectives_s", "s", "lower"),
    ("circuits.batched.evaluate_s", "s", "lower"),
    ("approx.pruning.reduction_s", "s", "lower"),
    ("circuits.batched.genomes", "count", "lower"),
    ("circuits.transform.prune_wires_s", "s", "lower"),
    ("approx.metrics.error_metrics_s", "s", "lower"),
    ("engine.diskcache.get_s", "s", "lower"),
    ("engine.diskcache.flush_s", "s", "lower"),
    ("engine.diskcache.hits", "count", "higher"),
    ("engine.diskcache.misses", "count", "lower"),
    ("accuracy.drop_percents_s", "s", "lower"),
    ("nn.forward_stack_s", "s", "lower"),
    ("nn.stack_multipliers", "count", "lower"),
    ("nn.make_task_s", "s", "lower"),
    ("core.designer.run_s", "s", "lower"),
    ("ga.engine.self_s", "s", "lower"),
    ("ga.fitness.evaluate_population_s", "s", "lower"),
    ("engine.batch.total_cycles_s", "s", "lower"),
    ("dataflow.evaluate_network_s", "s", "lower"),
    ("carbon.embodied_carbon_s", "s", "lower"),
    ("engine.population.requested", "count", "lower"),
    ("engine.population.computed", "count", "lower"),
    ("engine.grid.run_s", "s", "lower"),
    ("engine.grid.cell_busy_s", "s", "lower"),
    ("engine.grid.idle_s", "s", "lower"),
    ("engine.pool.starts", "count", "lower"),
]

#: span-name -> metric, where the metric is the spans' summed busy time
_BUSY = {
    "approx.pruning.objectives": "approx.pruning.objectives_s",
    "circuits.batched.evaluate": "circuits.batched.evaluate_s",
    "circuits.transform.prune_wires": "circuits.transform.prune_wires_s",
    "approx.metrics.error_metrics": "approx.metrics.error_metrics_s",
    "engine.diskcache.get": "engine.diskcache.get_s",
    "engine.diskcache.flush": "engine.diskcache.flush_s",
    "accuracy.drop_percents": "accuracy.drop_percents_s",
    "nn.forward_stack": "nn.forward_stack_s",
    "nn.make_task": "nn.make_task_s",
    "core.designer.run": "core.designer.run_s",
    "ga.fitness.evaluate_population": "ga.fitness.evaluate_population_s",
    "engine.batch.total_cycles": "engine.batch.total_cycles_s",
    "dataflow.evaluate_network": "dataflow.evaluate_network_s",
    "carbon.embodied_carbon": "carbon.embodied_carbon_s",
    "engine.grid.cell": "engine.grid.cell_busy_s",
}

_COUNTS = [
    "circuits.batched.genomes",
    "engine.diskcache.hits",
    "engine.diskcache.misses",
    "nn.stack_multipliers",
    "engine.population.requested",
    "engine.population.computed",
    "engine.pool.starts",
]


def _self_time(spans: List[Span], outer: str, inner: str) -> float:
    """Busy time of ``outer`` spans minus their direct ``inner`` children."""
    children: Dict[Tuple[int, int], float] = collections.defaultdict(float)
    for name, start, end, _sid, parent, _pid in spans:
        if name == inner and parent is not None:
            children[parent] += end - start
    return sum(
        (
            (end - start) - children[sid]
            for name, start, end, sid, _parent, _pid in spans
            if name == outer
        ),
        0.0,
    )


def worker_busy(
    spans: List[Span], root_pid: int, start: float, end: float
) -> List[float]:
    """Each pool worker's cell busy time inside ``[start, end]``, largest first."""
    busy: Dict[int, float] = collections.defaultdict(float)
    for name, s, e, _sid, _parent, pid in spans:
        if name == "engine.grid.cell" and pid != root_pid:
            overlap = min(e, end) - max(s, start)
            if overlap > 0:
                busy[pid] += overlap
    return sorted(busy.values(), reverse=True)


def layer_metrics(
    spans: List[Span], counts: Dict[str, int], root_pid: int
) -> Dict[str, float]:
    """The per-layer metrics of one pass from its spans and counters."""
    metrics = {metric: 0.0 for metric in _BUSY.values()}
    for name, start, end, _sid, _parent, _pid in spans:
        metric = _BUSY.get(name)
        if metric is not None:
            metrics[metric] += end - start
    for name in _COUNTS:
        metrics[name] = int(counts.get(name, 0))
    metrics["approx.nsga2.self_s"] = _self_time(
        spans, "approx.nsga2.run", "engine.population.call"
    )
    metrics["ga.engine.self_s"] = _self_time(
        spans, "ga.engine.run", "engine.population.call"
    )
    metrics["approx.pruning.reduction_s"] = _self_time(
        spans, "approx.pruning.shard", "circuits.batched.evaluate"
    )
    run_s = idle_s = 0.0
    for name, start, end, _sid, _parent, pid in spans:
        if not name.startswith("engine.grid.run|") or pid != root_pid:
            continue
        run_s += end - start
        _, mode, workers = name.split("|")
        busy = worker_busy(spans, root_pid, start, end)
        if mode == "process" and busy:
            idle_s += int(workers) * (end - start) - sum(busy)
    metrics["engine.grid.run_s"] = run_s
    metrics["engine.grid.idle_s"] = idle_s
    return metrics
