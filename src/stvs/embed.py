"""Phase-space reconstruction for the oscillatory voltage components.

Two-stage embedding: each channel is scaled to unit RMS and augmented
with its one-step difference (rate of change of voltage), then the
augmented state is time-delay stacked into an m-dimensional trajectory
whose norm the oscillation exponents read.  The delay comes from the
dominant oscillation period or, failing that, from the first minimum of
binned mutual information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MI_BINS = 16  # equiprobable bins for the mutual-information delay scan


@dataclass(frozen=True)
class EmbeddedTrajectory:
    """Delay-embedded points with the parameters that produced them."""

    points: np.ndarray  # (n_points, m * state_dim)
    m: int
    tau: int
    dt: float

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or len(self.points) < 2:
            raise ValidationError("embedding needs at least 2 points")
        if self.m < 1 or self.tau < 1:
            raise ValidationError(
                f"invalid embedding parameters m={self.m}, tau={self.tau}"
            )

    @property
    def n_points(self) -> int:
        return len(self.points)


def normalize_channels(signals: list[np.ndarray]) -> list[np.ndarray]:
    """Scale each signal to zero mean and unit RMS.

    Mixed per-unit amplitudes across buses would otherwise let one
    channel dominate the embedded norm.
    """
    out = []
    for s in signals:
        s = np.asarray(s, dtype=float)
        centered = s - s.mean()
        rms = float(np.sqrt(np.mean(centered**2)))
        if rms < 1e-14:
            raise ValidationError("cannot normalize a (near-)constant signal")
        out.append(centered / rms)
    return out


def augment_rocov(imf_signals: list[np.ndarray]) -> np.ndarray:
    """Append the one-step difference to each channel.

    Returns an (n-1, 2*n_channels) state array: row k holds
    ``[v_k, v_k - v_{k-1}]`` per channel, starting at the second input
    sample (the first difference consumes one sample).
    """
    if not imf_signals:
        raise ValidationError("need at least one channel")
    arrays = [np.asarray(s, dtype=float) for s in imf_signals]
    n = len(arrays[0])
    if n < 2:
        raise ValidationError("channels need at least 2 samples for ROCOV")
    if any(len(a) != n for a in arrays):
        raise ValidationError("channels must share a common length")
    cols = []
    for a in arrays:
        cols.append(a[1:])
        cols.append(np.diff(a))
    return np.column_stack(cols)


def _equiprobable_bin_indices(x: np.ndarray, n_bins: int) -> np.ndarray:
    edges = np.quantile(x, np.linspace(0.0, 1.0, n_bins + 1))
    idx = np.searchsorted(edges, x, side="right") - 1
    return np.clip(idx, 0, n_bins - 1)


def _mutual_information(ix: np.ndarray, iy: np.ndarray, n_bins: int) -> float:
    joint = np.zeros((n_bins, n_bins))
    np.add.at(joint, (ix, iy), 1.0)
    joint /= joint.sum()
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    nz = joint > 0
    return float(
        np.sum(joint[nz] * np.log(joint[nz] / np.outer(px, py)[nz]))
    )


def select_delay(signal: np.ndarray) -> int:
    """Delay in samples from the first minimum of binned mutual information.

    Scans lags up to length/4 with 16 equiprobable bins.  If no local
    minimum appears, falls back to the lag where the autocorrelation
    first drops below 1/e (or length/4 if it never does).
    """
    x = np.asarray(signal, dtype=float)
    if x.size < 32:
        raise ValidationError(f"need >= 32 samples, got {x.size}")
    if np.std(x) < 1e-14:
        raise ValidationError("constant signal has no informative delay")
    max_lag = x.size // 4
    idx = _equiprobable_bin_indices(x, MI_BINS)
    mi = [
        _mutual_information(idx[:-lag], idx[lag:], MI_BINS)
        for lag in range(1, max_lag + 1)
    ]
    for k in range(len(mi) - 1):
        left_ok = k == 0 or mi[k] <= mi[k - 1]
        if left_ok and mi[k] <= mi[k + 1]:
            return k + 1
    centered = x - x.mean()
    denom = float(np.dot(centered, centered))
    for lag in range(1, max_lag + 1):
        acf = float(np.dot(centered[:-lag], centered[lag:])) / denom
        if acf < 1.0 / np.e:
            return lag
    return max_lag


def delay_embed(
    states: np.ndarray, m: int, tau: int, dt: float
) -> EmbeddedTrajectory:
    """Stack ``m`` delayed copies of the state sequence.

    Point i is ``[states[i], states[i+tau], ..., states[i+(m-1)tau]]``;
    the result has ``len(states) - (m-1)*tau`` points.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    n = len(states)
    n_points = n - (m - 1) * tau
    if n_points < 2:
        raise ValidationError(
            f"{n} states cannot support m={m}, tau={tau} "
            f"(needs > {(m - 1) * tau + 1})"
        )
    blocks = [states[j * tau: j * tau + n_points] for j in range(m)]
    return EmbeddedTrajectory(
        points=np.hstack(blocks), m=m, tau=tau, dt=dt
    )

