"""Closed-form multiplier-error -> accuracy-drop model.

Model derivation (the analytical half of the ApproxTrain substitute
described in :mod:`repro.accuracy`):

1. Under a zero-centred DNN operand distribution, one approximate
   multiplication contributes an error with moments (bias, variance)
   taken from the multiplier's exhaustive DNN-weighted statistics.
2. A conv output accumulates C*R*S such products.  Error terms are
   approximately independent across the reduction, so output noise
   relative to output signal is ``rel = sqrt(var + bias^2) / rms_prod``
   — to first order independent of the reduction length (both error and
   signal grow with the same sqrt factor, while the bias component is
   largely absorbed by the per-layer requantisation scale).
3. Per-layer relative noise compounds across the ``L`` MAC-executing
   layers; with independent layer contributions the logit-level noise
   grows like ``sqrt(L) * rel``.
4. Top-1 accuracy drop as a function of logit noise is modelled by a
   saturating exponential, calibrated so the library's precision-scaled
   multipliers produce drops in the 0.1-10% range the approximate-DNN
   literature reports for 8-bit CNNs.

The model is a *surrogate*: absolute drops carry model error, but the
ranking across multipliers is what the DSE consumes, and that ranking
is validated against behavioural LUT simulation in
:mod:`repro.accuracy.behavioral`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from repro.approx.library import ApproxMultiplier
from repro.approx.metrics import exact_products, gaussian_operand_distribution
from repro.dataflow.network import Network
from repro.errors import AccuracyModelError
from repro.nn.zoo import workload

#: Operand-distribution width used for the DNN-weighted moments; must
#: match :func:`repro.approx.library.build_library`'s default.
DNN_SIGMA_FRACTION = 0.25


@lru_cache(maxsize=None)
def _rms_exact_product(width: int, sigma_fraction: float) -> float:
    """RMS of the exact product under the DNN operand distribution."""
    weights = gaussian_operand_distribution(width, sigma_fraction)
    exact = exact_products(width, width).astype(np.float64)
    n = 1 << width
    case_weights = np.tile(weights, n) * np.repeat(weights, n)
    rms = float(np.sqrt(np.sum(exact**2 * case_weights)))
    if rms <= 0:
        raise AccuracyModelError("degenerate operand distribution")
    return rms


def multiplier_relative_rmse(
    multiplier: ApproxMultiplier,
    sigma_fraction: float = DNN_SIGMA_FRACTION,
) -> float:
    """Per-multiplication relative error under DNN-like operands.

    ``sqrt(variance + bias^2) / rms(exact product)`` using the
    multiplier's exhaustive DNN-weighted moments.
    """
    width = multiplier.lut.a_width
    rms = _rms_exact_product(width, sigma_fraction)
    moment2 = multiplier.dnn_metrics.variance + multiplier.dnn_metrics.bias**2
    return float(np.sqrt(max(moment2, 0.0)) / rms)


@dataclass(frozen=True)
class AnalyticalAccuracyModel:
    """Calibrated error-propagation accuracy model.

    Attributes:
        noise_gain: coefficient on per-layer relative noise (k in the
            derivation above).
        exponent: mild super-linearity of the drop near zero.
        max_drop_percent: saturation level (a fully broken multiplier
            cannot lose more than top-1 accuracy itself).
    """

    noise_gain: float = 0.25
    exponent: float = 1.1
    max_drop_percent: float = 90.0

    def __post_init__(self) -> None:
        if self.noise_gain <= 0 or self.exponent <= 0:
            raise AccuracyModelError(
                "noise_gain and exponent must be positive"
            )
        if not 0 < self.max_drop_percent <= 100:
            raise AccuracyModelError("max_drop_percent must be in (0, 100]")

    def drop_percent(
        self,
        network: Union[str, Network],
        multiplier: ApproxMultiplier,
    ) -> float:
        """Predicted top-1 accuracy drop (percentage points).

        Args:
            network: workload name or :class:`Network`.
            multiplier: library entry to evaluate.
        """
        net = workload(network) if isinstance(network, str) else network
        depth = len(net.compute_layers())
        if depth < 1:
            raise AccuracyModelError(
                f"network {net.name!r} has no MAC layers"
            )
        rel = multiplier_relative_rmse(multiplier)
        if rel == 0.0:
            return 0.0
        logit_noise = self.noise_gain * np.sqrt(depth) * rel
        drop = self.max_drop_percent * (
            1.0 - np.exp(-(logit_noise**self.exponent))
        )
        return float(drop)
