"""Finite-size Lyapunov exponent series and the window-exponent law.

Two estimators feed the stability indices, and both use the
equilibrium itself as the reference trajectory:

* for each recovery residual, the exponent of its deviation from the
  equilibrium voltage, and
* for the oscillatory components, the exponent of the embedded state's
  norm (the oscillation-free equilibrium sits at the origin), anchored
  at the initial post-fault peak.

Both are time-resolved: one exponent per offset from the anchor, never
collapsed to a single average.  Divergence factors are exp(lambda);
below 1 means convergence.  A residual that never dipped has no series.
``ftle_window`` and ``noise_bias_variance`` give the single-window
exponent and its small-noise bias and variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError

# Initial residual deviations below this per-unit floor carry no dip
# worth analysing; the generator is trivially safe.
EPS_FLOOR = 1e-4


@dataclass(frozen=True)
class ExponentSeries:
    """Non-empty, NaN-free exponent estimates lambda(k) at offsets k dt."""

    lambdas: np.ndarray
    k_offsets: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        if len(self.lambdas) == 0:
            raise ComputationError("empty exponent series")
        if np.isnan(self.lambdas).any():
            raise ComputationError("NaN exponent in the series")

    @property
    def divergence_factors(self) -> np.ndarray:
        """exp(lambda(k)): below 1 where the deviation shrank."""
        return np.exp(self.lambdas)


def ftle_window(delta0: float, delta_t: float, t_window: float) -> float:
    """Finite-window exponent (1/T) * ln(deltaT / delta0)."""
    if delta0 <= 0 or delta_t <= 0:
        raise ValidationError("separations must be positive")
    if t_window <= 0:
        raise ValidationError("window length must be positive")
    return float(np.log(delta_t / delta0) / t_window)


def _series(tail: np.ndarray, ref: float, dt: float, empty: str) -> ExponentSeries:
    """lambda(k) = ln(tail[k - 1] / ref) / (k dt) over the offsets k where
    ``tail`` is above zero; a ComputationError ``empty`` when none is."""
    keep = tail > 0.0
    if not keep.any():
        raise ComputationError(empty)
    k = np.arange(1, len(tail) + 1)[keep]
    lambdas = np.log(tail[keep] / ref) / (k * dt)
    return ExponentSeries(lambdas=lambdas, k_offsets=k, dt=dt)


def fsle_residual_series(
    residual: np.ndarray,
    eq0: float,
    dt: float,
) -> ExponentSeries | None:
    """Recovery-rate exponents of a residual trend toward equilibrium.

    The residual starts at t0.  lambda(k) = ln(|R(t0 + k dt) - eq0| /
    |R(t0) - eq0|) / (k dt) for k = 1..K.  Offsets where the deviation
    is exactly zero are skipped (their logarithm is unbounded).  None
    when the initial deviation is below the per-unit floor: the
    residual never dipped.
    """
    r = np.asarray(residual, dtype=float)
    if len(r) < 2:
        raise ValidationError(
            f"a residual of {len(r)} sample(s) leaves none to analyse"
        )
    dev = np.abs(r - eq0)
    d0 = float(dev[0])
    if d0 < EPS_FLOOR:
        return None
    return _series(dev[1:], d0, dt, "all residual deviations past t0 are zero")


def fsle_oscillation_series(
    points: np.ndarray, dt: float, anchor_window: int
) -> ExponentSeries:
    """Amplitude-ratio exponents of the delay-embedded oscillatory state.

    The oscillation-free system sits at the origin of the (zero-mean)
    embedded state space, so the norm of an embedded point (a row of
    ``points``, sampled every ``dt``) is the oscillation perturbation
    magnitude and the equilibrium itself is the reference trajectory:

        lambda(k) = ln(||y_{a+k}|| / ||y_a||) / (k dt).

    The anchor a is the largest norm within the first ``anchor_window``
    points (about one oscillation period).  That reads the initial
    post-fault perturbation at its peak; anchoring at a wobble trough
    would fake divergence for every later sample.
    """
    norms = np.linalg.norm(points, axis=1)
    n = len(norms)
    a_end = int(min(n - 2, max(0, anchor_window)))
    i0 = int(np.argmax(norms[: a_end + 1]))
    ref = float(norms[i0])
    if ref <= 0.0:
        raise ComputationError("anchor norm is zero: no oscillation energy")
    empty = "all embedded norms past the anchor are zero"
    return _series(norms[i0 + 1:], ref, dt, empty)


def noise_bias_variance(
    sigma: float, t_window: float, delta_t: float
) -> tuple[float, float]:
    """Small-noise mean shift and variance of a window exponent estimate.

    Additive zero-mean measurement noise of std ``sigma`` on the final
    separation ``delta_t`` biases the estimate by -sigma^2/(2 T deltaT^2)
    and contributes variance sigma^2/(T^2 deltaT^2).
    """
    if delta_t <= 0 or t_window <= 0:
        raise ValidationError("deltaT and T must be positive")
    if sigma < 0:
        raise ValidationError("sigma must be non-negative")
    bias = -(sigma**2) / (2.0 * t_window * delta_t**2)
    variance = sigma**2 / (t_window**2 * delta_t**2)
    return bias, variance
