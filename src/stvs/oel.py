"""Over-excitation-limit voltage caps, critical signals, and tuning.

The over-excitation limiter caps the transient EMF magnitude at pickup
levels E_i after delays t_i.  Neglecting armature resistance the EMF
relates to terminal voltage through

    E^2 = (V + X'_d Q / V)^2 + (X'_d P / V)^2,

and with the early post-fault Q-V relation V = K1 Q + K2 substituted,
each pickup level maps to a terminal-voltage cap V_cap by solving a
quartic in V.  Critical recovery signals s1 (slowest) and s2 (fastest
that still just reaches the caps) are the measured residual over the
window, shifted by the amounts that bring its extrapolations with the
extreme observed recovery exponents into tangency with the (V_cap, t)
characteristic at the cap times.  The Gompertz shape parameters
(gamma1, x*) are then tuned so both critical signals score the same
recovery index; their midpoint is the recovery threshold.  Every
recovery index, the measured residual's and both critical signals', is
scored on the fixed ``REC_GRID``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .distribution import kl_index
from .errors import ComputationError, ValidationError, WindowSampleError
from .lyapunov import ExponentSeries, fsle_residual_series

V_CAP_RANGE = (0.0, 2.0)  # physically admissible per-unit root window
_RESIDUAL_TOL = 1e-9

# The recovery histogram grid (bins, lo, hi) has twice the oscillation
# grid's resolution, so nearby recovery rates land in distinct bins.  The
# (gamma1, x*) tuning grid is geometric in gamma1, linear in x*, each as
# (lo, hi, points).
REC_GRID = (40, 0.0, 1.5)
GAMMA1_RANGE = (1.0, 200.0, 40)
X_STAR_RANGE = (0.8, 1.3, 26)
# The tuner's default grids, built once and read-only.
GAMMA1_GRID = np.geomspace(*GAMMA1_RANGE)
X_STAR_GRID = np.linspace(*X_STAR_RANGE)
GAMMA1_GRID.flags.writeable = X_STAR_GRID.flags.writeable = False
# The overflow check of the critical signals reaches this far past the
# latest pickup delay.
PICKUP_PAD_S = 1.0


@dataclass(frozen=True)
class GeneratorSpec:
    """Machine data for one generator: reactance, power and pickups."""

    id: str
    xd_prime: float
    p_active: float
    pickups: tuple[tuple[float, float], ...] = ()
    lvrt: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("xd_prime", "p_active"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(
                    f"{self.id}: {name} must be finite, got {getattr(self, name)}"
                )
        if self.xd_prime < 0:
            raise ValidationError(f"{self.id}: xd_prime must be >= 0")
        if not self.pickups and not self.lvrt:
            raise ValidationError(
                f"{self.id}: need at least one pickup or lvrt entry"
            )
        # levels and times must be positive and finite; NaN fails any comparison
        for e_i, t_i in self.pickups:
            if not (0 < e_i < math.inf and 0 < t_i < math.inf):
                raise ValidationError(f"{self.id}: bad pickup ({e_i}, {t_i})")
        for v_i, t_i in self.lvrt:
            if not (0 < v_i < math.inf and 0 < t_i < math.inf):
                raise ValidationError(f"{self.id}: bad lvrt ({v_i}, {t_i})")


@dataclass(frozen=True)
class OELCharacteristic:
    """Fitted Q-V line plus the voltage caps implied by the pickups;
    ``k1`` and ``k2`` are None without pickups, which alone read Q."""

    k1: float | None
    k2: float | None
    vcaps: tuple[tuple[float, float], ...]  # (V_cap_i, t_i)


@dataclass(frozen=True)
class TuningResult:
    """Outcome of the (gamma1, x*) search.

    ``epsilon`` is the detection tolerance used downstream: the residual
    index gap |d_s1 - d_s2| at the selected point, which stage 2 keeps
    within 2 f* (the achieved minimum f* plus a tolerance of f*).
    """

    gamma1: float
    x_star: float
    d_s1: float
    d_s2: float
    f_star: float
    epsilon: float
    d_critical_r: float

    def __post_init__(self) -> None:
        if abs(self.d_critical_r - 0.5 * (self.d_s1 + self.d_s2)) > 1e-12:
            raise ComputationError("threshold is not the s1/s2 midpoint")
        if abs(self.d_s1 - self.d_s2) > self.f_star + self.f_star + 1e-12:
            raise ComputationError("selected point violates the tolerance")


def fit_qv(v_samples: np.ndarray, q_samples: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of V = K1 Q + K2 via the raw normal equations.

    A Q with no spread (n var(Q) at most 1e-12 of sum(Q^2)) is a
    ``ValidationError``, a non-finite fit a ``WindowSampleError``.
    """
    v = np.asarray(v_samples, dtype=float)
    q = np.asarray(q_samples, dtype=float)
    if v.size != q.size or v.size < 2:
        raise ValidationError("need >= 2 paired (V, Q) samples")
    n = float(v.size)
    # a NaN or an overflow makes the fit non-finite, which is reported
    # below, not warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        sq = float(q.sum())
        sv = float(v.sum())
        sqq = float(np.dot(q, q))
        sqv = float(np.dot(q, v))
    denom = n * sqq - sq * sq
    # denom = n^2 var(Q) keeps a few ulps of n sum(Q^2) for equal samples;
    # an infinite bound (Q past float range) ends in the check below
    if abs(denom) <= 1e-12 * n * sqq < math.inf:
        raise ValidationError("reactive power has no variance: Q-V fit singular")
    k1 = (n * sqv - sq * sv) / denom
    k2 = (sqq * sv - sq * sqv) / denom
    if not (math.isfinite(k1) and math.isfinite(k2)):  # np.roots would raise
        raise WindowSampleError(
            "Q-V fit is not finite: a V or Q sample is not finite or too large"
        )
    return k1, k2


def _ev_residual(
    v: np.ndarray | float, e_i: float, xd: float, p: float, k1: float, k2: float
):
    """Defining-equation mismatch E^2 - RHS(V)."""
    v = np.asarray(v, dtype=float)
    rhs = (v + (xd / k1) * (v - k2) / v) ** 2 + (xd * p / v) ** 2
    return e_i**2 - rhs


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.polyval(coeffs, x)``: the same Horner steps from zero."""
    y = np.zeros(x.shape, x.dtype)
    for c in coeffs:
        y = y * x + c
    return y


def voltage_cap(
    e_i: float,
    xd_prime: float,
    p_active: float,
    k1: float,
    k2: float,
    v_current: float = 1.0,
) -> float:
    """Terminal-voltage cap for pickup level ``e_i``.

    Substituting Q = (V - K2)/K1 reduces the EMF relation to a monic
    quartic in V, solved through the companion-matrix eigenvalues and
    Newton-polished.  Roots are filtered to near-real values inside
    (0, 2) pu; with several admissible roots the one closest to the
    currently measured voltage wins.
    """
    if e_i <= 0:
        raise ValidationError("pickup level must be positive")
    if xd_prime == 0.0:
        return float(e_i)
    if k1 == 0.0:
        raise ValidationError("K1 = 0 leaves Q undefined in the substitution")
    a = xd_prime / k1
    coeffs = np.array(
        [
            1.0,
            2.0 * a,
            a * a - 2.0 * a * k2 - e_i**2,
            -2.0 * a * a * k2,
            a * a * k2 * k2 + (xd_prime * p_active) ** 2,
        ]
    )
    roots = np.roots(coeffs)
    deriv = coeffs[:-1] * np.arange(4, 0, -1)  # np.polyder(coeffs)
    for _ in range(3):  # Newton polish to drive the residual below tolerance
        denom = _horner(deriv, roots)
        step = np.where(denom != 0, _horner(coeffs, roots) / denom, 0.0)
        roots = roots - step
    real = roots[np.abs(roots.imag) < 1e-9].real
    lo, hi = V_CAP_RANGE
    admissible = real[(real > lo) & (real < hi)]
    residual = _ev_residual(admissible, e_i, xd_prime, p_active, k1, k2)
    admissible = admissible[np.abs(residual) < _RESIDUAL_TOL]
    if admissible.size == 0:
        raise ComputationError(
            f"pickup level E={e_i} has no admissible voltage cap in "
            f"({lo}, {hi}) pu under the fitted Q-V line"
        )
    # picked by value, so neither the roots' order nor repeats matter
    order = np.lexsort((admissible, np.abs(admissible - v_current)))
    return float(admissible[order[0]])


def build_characteristic(
    spec: GeneratorSpec,
    v_samples: np.ndarray,
    q_samples: np.ndarray | None,
) -> OELCharacteristic:
    """Fit the Q-V line and map every pickup to its voltage cap.

    Among several admissible caps the one nearest the last voltage
    sample wins.  LVRT entries are grid-code voltage-time pairs and
    bypass the quartic, so a generator without pickups fits no line
    and reads no Q.
    """
    k1 = k2 = None
    vcaps = []
    if spec.pickups:
        k1, k2 = fit_qv(v_samples, q_samples)
        v_current = float(np.asarray(v_samples, dtype=float)[-1])
        vcaps = [
            (voltage_cap(e_i, spec.xd_prime, spec.p_active, k1, k2, v_current), t_i)
            for e_i, t_i in spec.pickups
        ]
    vcaps.extend(spec.lvrt)
    vcaps.sort(key=lambda vt: vt[1])
    return OELCharacteristic(k1=k1, k2=k2, vcaps=tuple(vcaps))


def construct_critical_signals(
    residual: np.ndarray,
    dt: float,
    eq0: float,
    vcaps: list[tuple[float, float]] | tuple[tuple[float, float], ...],
    exp_series: ExponentSeries,
) -> tuple[np.ndarray, np.ndarray] | str:
    """Build the slowest/fastest critical recovery signals ``(s1, s2)``.

    The admissible tube extends the measured residual forward as
    R(t) = eq0 + (R(Tw) - eq0) exp(lam (t - Tw)) with lam spanning the
    observed exponent range.  s1 takes the slowest member shifted
    tangent to the cap characteristic from below, s2 the fastest member
    shifted tangent from above.  Returns the verdict itself when the caps
    settle it: ``"non-trip"`` when the residual never dips below any
    cap, ``"trip"`` when even the fastest admissible recovery can never
    reach the lowest cap.  Both signals span the measurement window,
    where the tuner scores them: s1 is the residual plus the least
    cap-minus-member gap over the cap times of the slowest member, s2
    plus the greatest gap of the fastest.  Raises
    ComputationError, naming the exponent and the horizon, when a
    shifted member leaves float range before ``PICKUP_PAD_S`` past the
    latest cap time.
    """
    r = np.asarray(residual, dtype=float)
    if r.size < 2:
        raise ValidationError("residual window too short")
    if not vcaps:
        raise ValidationError("no voltage caps supplied")
    lams = exp_series.lambdas[np.isfinite(exp_series.lambdas)]
    if lams.size == 0:
        raise ComputationError("no finite recovery exponents to extrapolate")
    lam_slow = float(lams.max())
    lam_fast = float(lams.min())
    t_w = (r.size - 1) * dt
    d_end = float(r[-1]) - eq0

    caps = np.array([v for v, _ in vcaps], dtype=float)
    times = np.array([t for _, t in vcaps], dtype=float)

    def member_at(lam: float, t_query: np.ndarray) -> np.ndarray:
        t_query = np.asarray(t_query, dtype=float)
        out = np.empty_like(t_query)
        inside = t_query <= t_w
        idx = (t_query[inside] / dt).round().astype(int)
        np.maximum(idx, 0, out=idx)  # np.clip(idx, 0, r.size - 1)
        np.minimum(idx, r.size - 1, out=idx)
        out[inside] = r[idx]
        out[~inside] = eq0 + d_end * np.exp(lam * (t_query[~inside] - t_w))
        return out

    # Eventual level of a tube member: its deviation shrinks toward eq0
    # for negative exponents and runs away for non-negative ones.
    def future_sup(lam: float) -> float:
        if lam < 0:
            return max(float(r[-1]), eq0)
        return np.inf if d_end > 0 else float(r[-1])

    def future_inf(lam: float) -> float:
        if lam < 0:
            return min(float(r[-1]), eq0)
        return -np.inf if d_end < 0 else float(r[-1])

    if min(float(r.min()), future_inf(lam_slow)) > caps.max():
        return "non-trip"
    if max(float(r.max()), future_sup(lam_fast)) < caps.min():
        return "trip"

    horizon = float(times.max()) + PICKUP_PAD_S
    # a steep exponent can carry the tail past float range before the
    # horizon; that is reported below, not warned about here
    with np.errstate(over="ignore", invalid="ignore"):
        shift1 = float(np.min(caps - member_at(lam_slow, times)))
        shift2 = float(np.max(caps - member_at(lam_fast, times)))
        s1, s2 = r + shift1, r + shift2
        for lam, shift, signal in ((lam_slow, shift1, s1), (lam_fast, shift2, s2)):
            # the tail is monotone in t, so the member stays finite up to
            # the horizon exactly when it is finite at the horizon
            end = member_at(lam, [horizon]) + shift
            if not (np.isfinite(signal).all() and np.isfinite(end).all()):
                raise ComputationError(
                    f"recovery exponent {lam:.6g}/s extrapolates the residual "
                    f"past float range within the {horizon:g} s horizon"
                )
    return s1, s2


def recovery_scores(
    series: ExponentSeries | None,
    delta_r0: float,
    gammas: np.ndarray,
    x_stars: np.ndarray,
) -> np.ndarray:
    """Recovery index D = delta_r0 * KL over a (gamma1, x*) grid.

    ``delta_r0`` is the dip weight |V_pre - R(t0)| and ``series`` the
    residual's recovery exponents, histogrammed on ``REC_GRID``; None
    (no dip) scores 0 everywhere.
    """
    if series is None:
        return np.zeros((len(gammas), len(x_stars)))
    return delta_r0 * kl_index(series.divergence_factors, REC_GRID, gammas, x_stars)


def tune_gamma(
    s1: np.ndarray,
    s2: np.ndarray,
    v_pre: float,
    dt: float,
    gamma1_grid: np.ndarray = GAMMA1_GRID,
    x_star_grid: np.ndarray = X_STAR_GRID,
) -> TuningResult:
    """Two-stage grid search for the Gompertz shape of the recovery index.

    Stage 1 minimizes |D_s1 - D_s2| over the (gamma1, x*) grid to get
    f*; stage 2 returns the smallest gamma1 (ties to smallest x*) among
    points within f* + f*.  The grids default to ``GAMMA1_GRID`` and
    ``X_STAR_GRID``.  The recovery
    threshold is the s1/s2 index midpoint at the selected point.  Each
    critical signal recovers toward ``v_pre`` and is scored over the
    whole grid by ``recovery_scores``, the measured residual's rule,
    against the reference table cached per grid and shared by every
    generator.
    """
    gamma1_grid = np.asarray(gamma1_grid, dtype=float)
    x_star_grid = np.asarray(x_star_grid, dtype=float)
    if gamma1_grid.size == 0 or x_star_grid.size == 0:
        raise ValidationError("empty tuning search grid")

    def scores(signal: np.ndarray) -> np.ndarray:
        series = fsle_residual_series(signal, eq0=v_pre, dt=dt)
        delta_r0 = abs(v_pre - float(signal[0]))
        return recovery_scores(series, delta_r0, gamma1_grid, x_star_grid)

    d1, d2 = scores(s1), scores(s2)
    diff = np.abs(d1 - d2)
    f_star = float(diff.min())
    admissible = diff <= f_star + f_star + 1e-15
    gi, xi = np.nonzero(admissible)
    order = np.lexsort((x_star_grid[xi], gamma1_grid[gi]))
    sel_g, sel_x = gi[order[0]], xi[order[0]]
    d_s1 = float(d1[sel_g, sel_x])
    d_s2 = float(d2[sel_g, sel_x])
    return TuningResult(
        gamma1=float(gamma1_grid[sel_g]),
        x_star=float(x_star_grid[sel_x]),
        d_s1=d_s1,
        d_s2=d_s2,
        f_star=f_star,
        epsilon=abs(d_s1 - d_s2),
        d_critical_r=0.5 * (d_s1 + d_s2),
    )


def load_generator_config(path) -> dict[str, GeneratorSpec]:
    """Read per-generator machine data from an INI-style config.

    One section per generator id with ``xd_prime``, ``p_active`` and
    comma-separated ``pickup = E@t`` / ``lvrt = V@t`` lists, read as
    UTF-8.  A section with pickups must give both ``xd_prime`` and
    ``p_active``, which the quartic behind each voltage cap reads; an
    LVRT-only section may leave them out (they default to 0).  A file
    the INI reader rejects, or a pickup section missing either key, is a
    validation error that names the file and the section.
    """
    import configparser  # only a config file needs it

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        # a parsing error quotes the offending line on a line of its own
        raise ValidationError(f"{path}: {' '.join(str(exc).split())}") from exc
    if not read:
        raise ValidationError(f"cannot read generator config {path}")

    def parse_pairs(raw: str, label: str, section: str):
        pairs = []
        for item in raw.split(","):
            item = item.strip()
            if not item:
                continue
            if "@" not in item:
                raise ValidationError(
                    f"{path} [{section}] {label}: expected LEVEL@TIME, got {item!r}"
                )
            level, t = item.split("@", 1)
            pairs.append((float(level), float(t)))
        return tuple(pairs)

    specs: dict[str, GeneratorSpec] = {}
    for section in parser.sections():
        sec = parser[section]
        try:
            spec = GeneratorSpec(
                id=section,
                xd_prime=sec.getfloat("xd_prime", 0.0),
                p_active=sec.getfloat("p_active", 0.0),
                pickups=parse_pairs(sec.get("pickup", ""), "pickup", section),
                lvrt=parse_pairs(sec.get("lvrt", ""), "lvrt", section),
            )
        except (ValueError, configparser.Error) as exc:  # an interpolation error
            raise ValidationError(f"{path} [{section}]: {exc}") from exc
        missing = [key for key in ("xd_prime", "p_active") if key not in sec]
        if spec.pickups and missing:
            raise ValidationError(
                f"{path} [{section}]: missing {' and '.join(missing)}, "
                "which pickup entries need"
            )
        specs[section] = spec
    if not specs:
        raise ValidationError(f"{path}: no generator sections found")
    return specs
