"""Behavioural accuracy validation via LUT-based inference.

Runs the synthetic task's quantised CNN with each multiplier's LUT —
the identical mechanism ApproxTrain uses on real GPUs — and compares
the resulting accuracy drops against the analytical model's ranking.

Library-wide queries go through :meth:`BehavioralValidator.drop_percents`,
which scores every uncached multiplier in one stacked inference
(:meth:`~repro.nn.inference.QuantCNN.forward_stack`) instead of one full
inference per multiplier; :meth:`drop_percent` stays as the scalar
reference the property tests compare against.

The accuracy stage is a full engine client: the stacked inference
itself tiles across threads (the ``stack_workers`` knob), and a
validator given a :class:`~repro.engine.grid.GridRunner` shards the
uncached multipliers into contiguous *sub-stacks* dispatched over an
:class:`~repro.engine.backends.ExecutorBackend` — the warm process pool
scores a paper-scale library exactly like the GA grids, with results
bit-identical to the in-process path (accuracy per multiplier is
independent of the stack it rides in).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.approx.library import ApproxMultiplier
from repro.engine.grid import ExecutionPlan, GridRunner
from repro.errors import AccuracyModelError
from repro.nn.synthetic import SyntheticTask, make_task


def _accuracy_batch_cell(
    luts: Sequence,
    task: SyntheticTask,
    stack_workers: Optional[Union[int, str]],
    kernel_tier: Optional[str] = None,
) -> List[float]:
    """One sub-stack accuracy cell (module-level so backends pickle it).

    Pure in its arguments: every backend computes the identical float
    accuracies for a given sub-stack, so sharding cannot change
    results, only where the stacked inference runs.  ``kernel_tier``
    picks the compiled gather kernel (bit-identical across tiers; an
    unavailable tier degrades to numpy in the executing process).
    """
    return [
        float(value)
        for value in task.accuracy_batch(
            luts, stack_workers=stack_workers, kernel_tier=kernel_tier
        )
    ]


@dataclass
class BehavioralValidator:
    """Evaluate multipliers by actually running a quantised CNN.

    Attributes:
        task: the synthetic classification task (built lazily with the
            default seed when not supplied).
        stack_workers: thread-tiling knob for the stacked inference
            (``"auto"`` / positive int / ``None`` for the process
            default); bit-identical for every value.
        kernel_tier: compiled-kernel tier for the stacked gather loop
            (``None`` = ambient default; every tier is bit-identical,
            see :mod:`repro.engine.kernels`).
        runner: optional grid runner; when set, library-wide queries
            shard multiplier sub-stacks through its execution backend
            (serial / thread / process).  ``None`` keeps the
            single in-process stacked pass.
    """

    task: Optional[SyntheticTask] = None
    stack_workers: Optional[Union[int, str]] = None
    kernel_tier: Optional[str] = None
    runner: Optional[GridRunner] = None
    _cache: Dict[str, float] = field(default_factory=dict, repr=False)
    _exact_accuracy: Optional[float] = field(default=None, repr=False)

    def _ensure_task(self) -> SyntheticTask:
        if self.task is None:
            self.task = make_task()
        return self.task

    def exact_accuracy(self) -> float:
        """Reference accuracy with exact arithmetic (computed once).

        The exact baseline is a constant per task, so it is memoised
        instead of re-running the full inference on every
        :meth:`drop_percent` query.
        """
        if self._exact_accuracy is None:
            self._exact_accuracy = self._ensure_task().accuracy()
        return self._exact_accuracy

    def drop_percent(self, multiplier: ApproxMultiplier) -> float:
        """Measured accuracy drop (percentage points) for a multiplier.

        This is the scalar reference path (one full inference per
        multiplier); use :meth:`drop_percents` to score many multipliers
        in one batched inference.
        """
        cached = self._cache.get(multiplier.name)
        if cached is not None:
            return cached
        task = self._ensure_task()
        exact = self.exact_accuracy()
        approx = task.accuracy(multiplier.lut)
        drop = 100.0 * (exact - approx)
        self._cache[multiplier.name] = drop
        return drop

    def drop_percents(
        self, multipliers: Sequence[ApproxMultiplier]
    ) -> List[float]:
        """Measured drops for many multipliers via one stacked inference.

        All uncached multipliers are run through the quantised CNN in
        library-batched passes; returned values are bit-identical to
        calling :meth:`drop_percent` per multiplier (and populate the
        same cache).  With a :attr:`runner`, the uncached stack is
        split into contiguous sub-stacks dispatched through the
        configured execution backend; accuracy per multiplier does not
        depend on which sub-stack carries it, so every backend and
        sub-stack count returns the in-process result bit for bit.
        Mixed operand widths fall back to the scalar loop.
        """
        pending: List[ApproxMultiplier] = []
        seen = set()
        for multiplier in multipliers:
            if multiplier.name not in self._cache and multiplier.name not in seen:
                pending.append(multiplier)
                seen.add(multiplier.name)
        if pending:
            task = self._ensure_task()
            exact = self.exact_accuracy()
            luts = [m.lut for m in pending]
            widths = {(lut.a_width, lut.b_width) for lut in luts}
            if len(widths) == 1:
                if self.runner is None:
                    accuracies = _accuracy_batch_cell(
                        luts, task, self.stack_workers, self.kernel_tier
                    )
                else:
                    accuracies = self.runner.run(
                        ExecutionPlan.for_batches(
                            _accuracy_batch_cell,
                            luts,
                            extra=(task, self.stack_workers, self.kernel_tier),
                        )
                    )
            else:  # mixed geometries have no shared stack index space
                accuracies = np.array([task.accuracy(lut) for lut in luts])
            for multiplier, approx in zip(pending, accuracies):
                self._cache[multiplier.name] = 100.0 * (exact - float(approx))
        return [self._cache[m.name] for m in multipliers]

    def ranking_agreement(
        self,
        multipliers: Sequence[ApproxMultiplier],
        analytical_drops: Sequence[float],
    ) -> float:
        """Spearman rank correlation between model and measurement.

        Measured behavioural drops are noisy (finite test set), so the
        validation criterion is rank agreement, not absolute agreement.
        """
        if len(multipliers) != len(analytical_drops):
            raise AccuracyModelError(
                "multipliers and analytical_drops must align"
            )
        if len(multipliers) < 3:
            raise AccuracyModelError(
                "need at least 3 multipliers for a meaningful correlation"
            )
        measured = self.drop_percents(multipliers)
        return _spearman(np.asarray(analytical_drops), np.asarray(measured))


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation (average ranks for ties)."""
    ra = _ranks(a)
    rb = _ranks(b)
    ra_c = ra - ra.mean()
    rb_c = rb - rb.mean()
    denom = np.sqrt((ra_c**2).sum() * (rb_c**2).sum())
    if denom == 0:
        return 0.0
    return float((ra_c * rb_c).sum() / denom)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Ranks with ties assigned their average rank."""
    unique, inverse, counts = np.unique(
        values, return_inverse=True, return_counts=True
    )
    cumulative = np.concatenate([[0], np.cumsum(counts)])
    tie_rank = {
        i: (cumulative[i] + cumulative[i + 1] - 1) / 2.0
        for i in range(len(unique))
    }
    return np.array([tie_rank[i] for i in inverse], dtype=np.float64)
