"""Empirical mode decomposition of post-fault voltage channels.

Each channel splits into intrinsic mode functions (oscillatory
components whose extrema and zero-crossing counts differ by at most
one) plus a residual trend that carries the slow recovery.  Multi-channel
records are decomposed jointly: envelopes are taken at the extrema of
shared direction projections so that IMF level i refers to comparable
time scales on every channel.

Sifting follows the classic recipe: cubic-spline envelopes through
mirrored extrema, mean-envelope subtraction, and a Cauchy-style SD
stopping rule (threshold 0.2, hard cap of 10 iterations per IMF).
Decomposition stops once the remainder has fewer than 3 extrema.

Envelopes are not-a-knot interpolating splines of degree
``min(3, n_knots - 1)``, fitted by calling the kernels behind scipy's
public interpolating-spline constructor directly (the collocation band
from ``scipy.interpolate._dierckx``, the banded LAPACK solve ``dgbsv``
and the B-spline evaluator), which skips that constructor's per-call
validation and array-API overhead.  Every envelope is bit for bit the
one the public constructor gives (the tests use it as the oracle).  The
kernels are private scipy names, verified on scipy 1.17.1, the floor
this package requires.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.interpolate import _dierckx
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv

from .errors import StvsError, ValidationError
from .ingest import VoltageTrajectory

_DIRECTION_SEED = 988_221_735  # fixed: decomposition must be deterministic
_AMPLITUDE_FLOOR = 1e-12


class TrendOnlySignal(StvsError):
    """Signal has too few extrema to sift: it is already a trend."""


@dataclass(frozen=True)
class SiftConfig:
    """Stopping parameters for one IMF extraction."""

    sd_threshold: float = 0.2
    max_iterations: int = 10


@dataclass(frozen=True)
class DecompositionResult:
    """Per-channel IMF stacks plus residual trends.

    ``imfs[m]`` is the ordered tuple of IMFs for channel ``m`` (fastest
    first); ``residuals[m]`` is what remains after removing them, so
    ``sum(imfs[m]) + residuals[m]`` reconstructs the input channel.
    """

    channel_ids: tuple[str, ...]
    imfs: tuple[tuple[np.ndarray, ...], ...]
    residuals: tuple[np.ndarray, ...]
    dt: float

    @property
    def n_channels(self) -> int:
        return len(self.channel_ids)

    def n_imfs(self, channel: int) -> int:
        return len(self.imfs[channel])

    def reconstruct(self, channel: int) -> np.ndarray:
        out = self.residuals[channel].copy()
        for imf in self.imfs[channel]:
            out += imf
        return out

    def oscillatory(self, channel: int) -> np.ndarray:
        """Sum of retained IMFs for one channel (zeros if none)."""
        out = np.zeros_like(self.residuals[channel])
        for imf in self.imfs[channel]:
            out += imf
        return out


def local_extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interior minima and maxima indices, plateaus collapsed to midpoints."""
    x = np.asarray(x, dtype=float)
    dx = np.diff(x)
    nz = np.flatnonzero(dx != 0)
    if nz.size < 2:
        return np.array([], dtype=int), np.array([], dtype=int)
    s = np.sign(dx[nz])
    change = np.flatnonzero(s[:-1] != s[1:])
    pos = (nz[change] + 1 + nz[change + 1]) // 2
    kinds = s[change]
    return pos[kinds < 0], pos[kinds > 0]


def count_extrema(x: np.ndarray) -> int:
    mins, maxs = local_extrema(x)
    return len(mins) + len(maxs)


def count_zero_crossings(x: np.ndarray) -> int:
    """Sign changes, with runs of exact zeros counted as one crossing."""
    s = np.sign(np.asarray(x, dtype=float))
    s = s[s != 0]
    if s.size < 2:
        return 0
    return int(np.count_nonzero(s[:-1] != s[1:]))


def is_imf(x: np.ndarray) -> bool:
    """Mode condition: |#extrema - #zero-crossings| <= 1."""
    return abs(count_extrema(x) - count_zero_crossings(x)) <= 1


def zero_crossing_frequency(x: np.ndarray, dt: float) -> float:
    """Frequency estimate in Hz: zero-crossings / (2 * span)."""
    span = (len(x) - 1) * dt
    if span <= 0:
        raise ValidationError("signal too short for a frequency estimate")
    return count_zero_crossings(x) / (2.0 * span)


def _mirrored_knots(
    idx: np.ndarray, rows: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Knots at the extrema ``idx``, plus up to two reflected about each end.

    Returns the knot positions in ascending order and their values
    ``rows[...]``, which are 1-D (one value per knot) or 2-D (one row
    per knot, multivariate envelope).  An extremum at 0 or n-1 reflects
    onto itself; the stable sort keeps the extremum first and the
    duplicate is dropped, so it is not reflected.
    """
    last = n - 1
    head, tail = idx[:2], idx[:-3:-1]  # the outermost extrema at each end
    samples = np.concatenate((idx, head, tail))
    pos = np.concatenate((idx, -head, 2 * last - tail)).astype(float)
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    keep = np.concatenate(([True], pos[1:] > pos[:-1]))
    return pos[keep], rows[samples[order[keep]]]


@lru_cache(maxsize=4)
def _sample_grid(n: int) -> np.ndarray:
    grid = np.arange(n, dtype=float)
    grid.flags.writeable = False
    return grid


def _interpolate(x: np.ndarray, y: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Not-a-knot interpolating spline of degree min(3, len(x) - 1) at ``grid``.

    Bit for bit what scipy's public constructor gives for the same
    arguments, from the same kernels on the same inputs: the not-a-knot
    knot vector (for k = 1 scipy's ``[x0, x, x_last]``; k = 2 only
    arises with 3 knots, where the interior is empty), the collocation
    band solved with ``dgbsv`` for k > 1, and the evaluator.  ``x``
    holds at least 2 strictly increasing float knots and ``y`` one
    finite value (or row) per knot; the checks scipy makes of these on
    every call are left to the caller.
    """
    nt = len(x)
    k = min(3, nt - 1)
    inner = k // 2 + 1
    t = np.concatenate(([x[0]] * (k + 1), x[inner:nt - inner], [x[-1]] * (k + 1)))
    c = y.reshape(nt, -1)
    if k > 1:
        ab = np.zeros((3 * k + 1, nt), order="F")
        _dierckx._coloc(x, t, k, ab.T, 0)
        _, _, c, info = dgbsv(k, k, ab, c, overwrite_ab=True, overwrite_b=True)
        if info > 0:
            raise LinAlgError("Colocation matrix is singular.")
        c = np.ascontiguousarray(c)
    out = _dierckx.evaluate_spline(t, c, k, grid, 0, True)
    return out.reshape(grid.shape + y.shape[1:])


def _envelope(
    idx: np.ndarray, signal_rows: np.ndarray, n: int
) -> np.ndarray | None:
    """Spline through ``signal_rows[idx]`` with mirrored boundary knots.

    Knots are strictly increasing by construction.  A trajectory holds
    only finite voltages (ingest rejects the rest) and a NaN sample is
    never an extremum, but an infinite one can be when raw arrays are
    sifted, so it is rejected with the error scipy raises.
    """
    if len(idx) < 1:
        return None
    pos, vals = _mirrored_knots(idx, signal_rows, n)
    if len(pos) < 2:
        return None
    if not np.isfinite(vals).all():
        raise ValueError("Array must not contain infs or nans.")
    return _interpolate(pos, vals, _sample_grid(n))


def _mean_envelope_1d(x: np.ndarray) -> np.ndarray | None:
    mins, maxs = local_extrema(x)
    if len(mins) < 1 or len(maxs) < 1 or len(mins) + len(maxs) < 2:
        return None
    upper = _envelope(maxs, x, len(x))
    lower = _envelope(mins, x, len(x))
    if upper is None or lower is None:
        return None
    return 0.5 * (upper + lower)


def sift(
    signal: np.ndarray, stop: SiftConfig | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Extract one IMF from a scalar signal.

    Returns ``(imf, remainder)`` with ``signal == imf + remainder``
    exactly.  Raises :class:`TrendOnlySignal` when the signal has fewer
    than 4 samples or fewer than 2 extrema, which tells the caller to
    stop decomposing.
    """
    stop = stop or SiftConfig()
    x = np.asarray(signal, dtype=float)
    if x.size < 4 or count_extrema(x) < 2:
        raise TrendOnlySignal(
            f"{x.size}-sample signal with {count_extrema(x)} extrema is a trend"
        )
    h = x.copy()
    for _ in range(stop.max_iterations):
        env = _mean_envelope_1d(h)
        if env is None:
            break
        h_new = h - env
        denom = float(np.sum(h * h))
        sd = float(np.sum(env * env)) / denom if denom > 0 else 0.0
        h = h_new
        if sd < stop.sd_threshold and is_imf(h):
            break
    return h, x - h


def _direction_vectors(n_directions: int, n_dim: int) -> np.ndarray:
    """Deterministic quasi-uniform unit vectors for envelope projections."""
    if n_dim == 2:
        angles = np.pi * np.arange(n_directions) / n_directions
        return np.column_stack([np.cos(angles), np.sin(angles)])
    rng = np.random.Generator(np.random.Philox(_DIRECTION_SEED))
    vecs = rng.normal(size=(n_directions, n_dim))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def _mean_envelope_mv(
    x: np.ndarray, directions: np.ndarray
) -> np.ndarray | None:
    """Average of direction-projected envelope means, one pass of MEMD."""
    n = x.shape[0]
    total = np.zeros_like(x)
    used = 0
    for d in directions:
        p = x @ d
        mins, maxs = local_extrema(p)
        if len(mins) + len(maxs) < 3 or len(mins) < 1 or len(maxs) < 1:
            continue
        upper = _envelope(maxs, x, n)
        lower = _envelope(mins, x, n)
        if upper is None or lower is None:
            continue
        total += 0.5 * (upper + lower)
        used += 1
    if used == 0:
        return None
    return total / used


def _projections_exhausted(x: np.ndarray, directions: np.ndarray) -> bool:
    return all(count_extrema(x @ d) < 3 for d in directions)


def _mode_condition_all(x: np.ndarray) -> bool:
    return all(is_imf(x[:, j]) for j in range(x.shape[1]))


def decompose_signals(
    signals: np.ndarray,
    n_directions: int = 8,
    stop: SiftConfig | None = None,
    max_imfs: int = 12,
) -> tuple[list[np.ndarray], np.ndarray]:
    """Decompose an (n_samples, n_channels) array into IMF matrices.

    Returns ``(imf_list, residual)`` where each entry of ``imf_list`` is
    an (n_samples, n_channels) matrix and the additive reconstruction is
    exact.  Single-channel input falls back to univariate sifting.
    """
    stop = stop or SiftConfig()
    x = np.asarray(signals, dtype=float)
    if x.ndim != 2 or x.shape[0] < 4:
        raise ValidationError("need a 2-D sample array with >= 4 samples")
    n, n_ch = x.shape
    scale = float(np.max(np.abs(x))) or 1.0
    imfs: list[np.ndarray] = []
    r = x.copy()

    if n_ch == 1:
        while len(imfs) < max_imfs and count_extrema(r[:, 0]) >= 3:
            try:
                imf, rem = sift(r[:, 0], stop)
            except TrendOnlySignal:
                break
            imfs.append(imf[:, None])
            r = rem[:, None]
            if np.max(np.abs(imf)) < _AMPLITUDE_FLOOR * scale:
                break
        return imfs, r

    directions = _direction_vectors(n_directions, n_ch)
    while len(imfs) < max_imfs and not _projections_exhausted(r, directions):
        m = r.copy()
        for _ in range(stop.max_iterations):
            env = _mean_envelope_mv(m, directions)
            if env is None:
                break
            m_new = m - env
            denom = float(np.sum(m * m))
            sd = float(np.sum(env * env)) / denom if denom > 0 else 0.0
            m = m_new
            if sd < stop.sd_threshold and _mode_condition_all(m):
                break
        if np.max(np.abs(m)) < _AMPLITUDE_FLOOR * scale:
            break
        imfs.append(m)
        r = r - m
    return imfs, r


def decompose(
    traj: VoltageTrajectory,
    n_directions: int = 8,
    stop: SiftConfig | None = None,
    max_imfs: int = 12,
) -> DecompositionResult:
    """Decompose every channel of a post-fault trajectory.

    Constant channels yield zero IMFs with the signal as residual; they
    are excluded from the joint projections so they cannot distort the
    envelopes of the active channels.
    """
    v = traj.voltage_matrix()
    active = [j for j in range(v.shape[1]) if count_extrema(v[:, j]) >= 2]
    if active:
        imf_mats, resid = decompose_signals(
            v[:, active], n_directions=n_directions, stop=stop, max_imfs=max_imfs
        )
    else:
        imf_mats, resid = [], v[:, :0]

    per_channel_imfs: list[tuple[np.ndarray, ...]] = []
    residuals: list[np.ndarray] = []
    for j in range(v.shape[1]):
        if j in active:
            k = active.index(j)
            per_channel_imfs.append(
                tuple(mat[:, k].copy() for mat in imf_mats)
            )
            residuals.append(resid[:, k].copy())
        else:
            per_channel_imfs.append(())
            residuals.append(v[:, j].copy())
    return DecompositionResult(
        channel_ids=traj.channel_ids,
        imfs=tuple(per_channel_imfs),
        residuals=tuple(residuals),
        dt=traj.dt,
    )


def filter_imfs_by_frequency(
    decomp: DecompositionResult, band: tuple[float, float]
) -> DecompositionResult:
    """Drop IMFs whose zero-crossing frequency falls outside ``band``.

    Removed energy is discarded as noise, not folded into the residual,
    so reconstruction changes by exactly the removed components.
    """
    f_min, f_max = band
    if not (0 <= f_min < f_max):
        raise ValidationError(f"invalid frequency band {band}")
    kept = tuple(
        tuple(
            imf
            for imf in channel_imfs
            if f_min <= zero_crossing_frequency(imf, decomp.dt) <= f_max
        )
        for channel_imfs in decomp.imfs
    )
    return DecompositionResult(
        channel_ids=decomp.channel_ids,
        imfs=kept,
        residuals=decomp.residuals,
        dt=decomp.dt,
    )


def dominant_imf_frequency(decomp: DecompositionResult) -> float | None:
    """Zero-crossing frequency of the highest-RMS retained IMF, if any."""
    best_rms = 0.0
    best_freq = None
    for channel_imfs in decomp.imfs:
        for imf in channel_imfs:
            rms = float(np.sqrt(np.mean(imf * imf)))
            if rms > best_rms:
                freq = zero_crossing_frequency(imf, decomp.dt)
                if freq > 0:
                    best_rms = rms
                    best_freq = freq
    return best_freq
