"""Output checks: recorded reference outputs and scenario ground truth.

Reference outputs were recorded by ``record_reference.py`` for every
bank item.  Verdict classes, notes and the generator list must match
exactly; indices, thresholds, dip depths and tuned (gamma1, x*) within
a relative 1e-9.  Margins are percentages of a difference, so they get
an absolute 1e-6 on top.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
ABS_TOL = 1e-12
MARGIN_ABS_TOL = 1e-6


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _close(got: float, want: float, abs_tol: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=abs_tol)


def diff(got, want, path: str = "") -> list[str]:
    """Differences between two JSON values, one line each."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}"]
        out = []
        for key in want:
            out += diff(got[key], want[key], f"{path}.{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += diff(g, w, f"{path}[{i}]")
        return out
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        tol = MARGIN_ABS_TOL if path.endswith(".margin") else ABS_TOL
        return [] if _close(float(got), want, tol) else [f"{path}: {got!r} != {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def verdict(doc: dict) -> dict:
    """The parts of an assessment document that carry the result."""
    return {k: v for k, v in doc.items() if k != "config"}


def ground_truth(kind: str, doc: dict) -> list[str]:
    """A stalled recovery must trip on every generator with a derived
    threshold (acceptance criterion 8)."""
    if kind != "stalled-recovery":
        return []
    bad = [g["id"] for g in doc["generators"] if g["class"] != "trip" or g["threshold"] is None]
    return [f"stalled recovery not tripped with a threshold on {bad}"] if bad else []


def false_trips(kind: str, doc: dict) -> list[str]:
    """Generators predicted to trip on a recovering mixed record.

    Such a record is back above the 0.9 pu cap within about two seconds,
    long before the 20 s pickup, so a trip verdict is wrong.  stvs 0.1.0
    gives one (bank item 90 of trip-3ch), so these are reported, not
    failed: the reference outputs still pin the verdict exactly.
    """
    if kind != "mixed":
        return []
    return [g["id"] for g in doc["generators"] if g["class"] == "trip"]
