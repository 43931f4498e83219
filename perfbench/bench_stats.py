"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least ``beyond`` samples above it.

    With n samples sorted ascending, the value at rank n - beyond (1-based)
    is the nearest-rank percentile 100 (n - beyond) / n, and the
    ``beyond`` samples ranked above it lie beyond it (ties aside).
    Returns (value, percentile, n).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n
