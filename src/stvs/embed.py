"""Phase-space reconstruction for the oscillatory voltage components.

Two-stage embedding: each channel is scaled to unit RMS and augmented
with its one-step difference (rate of change of voltage), then the
augmented state is time-delay stacked into an m-dimensional trajectory
whose norm the oscillation exponents read.  The delay comes from the
dominant oscillation period.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


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


def delay_embed(states: np.ndarray, m: int, tau: int) -> np.ndarray:
    """Stack ``m`` delayed copies of the state sequence.

    Point i is ``[states[i], states[i+tau], ..., states[i+(m-1)tau]]``;
    the result is a (``len(states) - (m-1)*tau``, m * state_dim) array
    of at least 2 points.
    """
    if m < 1 or tau < 1:
        raise ValidationError(f"invalid embedding parameters m={m}, tau={tau}")
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
    return np.hstack([states[j * tau: j * tau + n_points] for j in range(m)])
