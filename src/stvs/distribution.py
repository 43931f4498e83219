"""Histograms of divergence factors and the Gompertz reference shape.

Observed divergence factors are binned on a fixed grid (out-of-range
values clamp to the edge bins so explosive divergence still registers
as mass at the high edge).  The reference distribution is a shifted
reversed Gompertz curve sigma(x) = exp(-exp(gamma (x - x*))), evaluated
at bin centers and normalized; it is strictly decreasing in x, which
makes it an ideal of asymptotic convergence that penalizes slow
recovery.  Indices are natural-log KL divergences against it.

Every index and critical value is scored through ``kl_index``: it
bins the factors and scores them against the rows of a (gamma, x*, bin)
reference table that ``reference_table`` builds once per grid and keeps
read-only, so a single shape, the default shape and the tuner's whole
grid take the same path.  One (gamma, x*) pair is a 1 x 1 grid.

A (bins, lo, hi) grid is checked, and its edges built and cached
read-only, in ``_bin_edges`` alone.  Binning is one ``searchsorted`` of
the edges and one ``bincount``, with exactly the counts of
``np.histogram`` on the clamped factors but without its sort.
``kl_index`` skips the checks ``kl_divergence_table`` makes of values it
has just built itself (a histogram, a positive cached table); the
public table functions keep every check.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

# Normalized reference probabilities are floored at the smallest normal
# double so extreme shape parameters cannot underflow a bin to exact
# zero (the continuous Gompertz curve never reaches zero on a finite
# grid, but float64 does).
_PROB_FLOOR = np.finfo(float).tiny

# The most bins a grid may have: its edges take 8 MB, not gigabytes.
MAX_BINS = 10**6


@lru_cache(maxsize=8, typed=True)  # typed: 20.0 bins must not hit 20's entry
def _bin_edges(bins: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The edges of a histogram grid, and the keys ``_bin_counts`` searches.

    The grid needs 2 to ``MAX_BINS`` bins on a finite range whose width a
    float holds.  Both arrays are built once per grid and read-only; the
    keys are the edges followed by NaN, which sorts above every float.
    """
    if not isinstance(bins, (int, np.integer)):
        raise ValidationError(f"bins must be an integer, got {bins!r}")
    if bins < 2:
        raise ValidationError("need at least 2 bins")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"grid range [{lo}, {hi}] must be finite")
    if not lo < hi:
        raise ValidationError(f"invalid range [{lo}, {hi}]")
    if not math.isfinite(hi - lo):  # np.linspace would overflow on the width
        raise ValidationError(f"grid range [{lo}, {hi}] is wider than a float can hold")
    if bins > MAX_BINS:
        raise ValidationError(f"{bins} bins: not a count an array can hold")
    edges = np.linspace(lo, hi, bins + 1)
    keys = np.append(edges, np.nan)
    edges.flags.writeable = False
    keys.flags.writeable = False
    return edges, keys


def _bin_counts(
    factors: np.ndarray, bins: int, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Counts of the factors in the grid's bins, and the grid's edges.

    The counts equal ``np.histogram(np.clip(f, lo, hi), bins=edges)``
    exactly, from one search of the cached keys and one ``bincount``
    instead of a sort: a factor on an edge goes to the bin above it
    (the last bin keeps ``hi``), anything below ``lo`` (with -inf) to
    the first bin, anything above ``hi`` (with +inf) to the last, and
    NaN, which searches past the NaN key, is dropped.  Raises when
    nothing is left to bin.
    """
    edges, keys = _bin_edges(bins, lo, hi)
    # 0: below lo; j + 1: bin j; bins + 1: hi and above; bins + 2: NaN
    found = np.bincount(
        keys.searchsorted(np.asarray(factors, dtype=float).ravel(), side="right"),
        minlength=bins + 3,
    )
    counts = found[1:bins + 1]
    counts[0] += found[0]
    counts[-1] += found[bins + 1]
    if not counts.any():
        raise ValidationError("no divergence factors to bin")
    return counts, edges


def gompertz_reference_table(
    gammas: np.ndarray, x_stars: np.ndarray, bin_edges: np.ndarray
) -> np.ndarray:
    """Reference probabilities for every (gamma, x*) pair of a grid.

    Returns an array of shape (len(gammas), len(x_stars), bins) whose
    row [i, j] is sigma at the bin centers for (gammas[i], x_stars[j]),
    normalized, floored at the smallest normal double and normalized
    again.  The whole table is validated once.
    """
    gammas = np.asarray(gammas, dtype=float)
    x_stars = np.asarray(x_stars, dtype=float)
    if not np.all(gammas > 0):
        bad = gammas[~(gammas > 0)][0]
        raise ValidationError(f"gamma must be positive, got {bad}")
    edges = np.asarray(bin_edges, dtype=float)
    if len(edges) < 3 or np.any(np.diff(edges) <= 0):
        raise ValidationError("need strictly ascending edges for >= 2 bins")
    # halved before the sum, which can overflow on a very wide grid; the
    # same bits as 0.5 * (a + b) wherever that sum is finite
    centers = 0.5 * edges[:-1] + 0.5 * edges[1:]
    # The steps keep the point-by-point order (log sigma, shift by the row
    # maximum, exp, normalize, floor, normalize) so every row is bit for
    # bit what its pair gives alone; the tuner's ties are decided on exact
    # values.  One buffer goes through all of them in place.  Where the
    # product overflows, exp saturates just as it would on the exact value.
    with np.errstate(over="ignore"):
        p = gammas[:, None, None] * (centers - x_stars[:, None])
        np.exp(p, out=p)
    np.negative(p, out=p)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    np.maximum(p, _PROB_FLOOR, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    if not np.all(p > 0):
        raise ValidationError("reference probabilities must be positive")
    if np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-12):
        raise ValidationError("reference probabilities must sum to 1")
    return p


def kl_divergence_table(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Relative entropy sum p ln(p/q) of one p against every row of q.

    ``q`` has shape (..., bins) and must be strictly positive; the sum
    runs over the last axis on p's non-zero bins (0 ln 0 taken as 0).
    """
    pp = np.asarray(p, dtype=float)
    qp = np.asarray(q, dtype=float)
    if qp.shape[-1:] != pp.shape:
        raise ValidationError("histogram and reference grids differ")
    if not np.all(qp > 0):
        raise ValidationError("reference has a zero bin: KL undefined")
    return _kl_rows(pp, qp)


def _kl_rows(pp: np.ndarray, qp: np.ndarray) -> np.ndarray:
    """``kl_divergence_table`` on arrays it has already checked."""
    nz = pp > 0
    pn = pp[nz]
    # compress copies the compared bins into a contiguous buffer, so each
    # row is summed exactly as a lone 1-D vector would be
    terms = np.compress(nz, qp, axis=-1)
    np.divide(pn, terms, out=terms)
    np.log(terms, out=terms)
    terms *= pn
    return terms.sum(axis=-1)


@lru_cache(maxsize=8)
def _reference_table(gammas: bytes, x_stars: bytes, edges: bytes) -> np.ndarray:
    table = gompertz_reference_table(
        np.frombuffer(gammas), np.frombuffer(x_stars), np.frombuffer(edges)
    )
    table.flags.writeable = False
    return table


def reference_table(
    gammas: np.ndarray, x_stars: np.ndarray, bin_edges: np.ndarray
) -> np.ndarray:
    """``gompertz_reference_table`` of a grid, built once and read-only.

    Keyed on the exact bytes of the float64 grids, in a least-recently-
    used cache: the tuner reads its grid's table for every generator,
    so that table stays while the single-shape rows come and go.
    """
    return _reference_table(
        *(np.asarray(a, dtype=float).tobytes() for a in (gammas, x_stars, bin_edges))
    )


def kl_index(
    factors: np.ndarray,
    grid: tuple[int, float, float],
    gammas: np.ndarray,
    x_stars: np.ndarray,
) -> np.ndarray:
    """KL divergence of the factors' histogram against every reference row.

    The factors are binned on ``grid`` = (bins, lo, hi); the result has
    shape (len(gammas), len(x_stars)), entry [i, j] scored against the
    reference of (gammas[i], x_stars[j]).  It computes what
    ``kl_divergence_table`` gives on the histogram's probabilities,
    without the checks it makes of values built here: the counts sum
    to at least 1, and the cached table was checked positive when it
    was built.
    """
    counts, edges = _bin_counts(factors, *grid)
    table = reference_table(gammas, x_stars, edges)
    return _kl_rows(counts / counts.sum(), table)

