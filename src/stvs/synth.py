"""Synthetic validation signals with known ground truth.

Provides the linear two-time-scale benchmark (fast damped oscillation
coupled to a slow exponential mode) together with its closed-form
window exponent, and parameterized voltage scenarios for end-to-end
pipeline tests.  Closed forms are evaluated
exactly on the sample grid so validation baselines carry no solver
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .ingest import Channel, VoltageTrajectory

SCENARIO_KINDS = (
    "stable-osc",
    "growing-osc",
    "fast-recovery",
    "stalled-recovery",
    "mixed",
)


@dataclass(frozen=True)
class TwoTimescaleParams:
    """Coefficients of the fast/slow linear benchmark system.

    dx/dt = -a x + omega y + b z, dy/dt = -omega x - a y, dz/dt = -eps z.
    """

    a: float
    omega: float
    b: float
    eps: float
    z0: float = 1.0
    x0: float = 0.0
    y0: float = 0.0

    def __post_init__(self) -> None:
        if self.a <= 0 or self.eps <= 0:
            raise ValidationError("a and eps must be positive")


@dataclass(frozen=True)
class TwoTimescaleTrajectory:
    """Sampled (x, y, z) states of the benchmark system."""

    t: np.ndarray
    xyz: np.ndarray  # (n, 3)

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.xyz, axis=1)


def simulate_two_timescale(
    p: TwoTimescaleParams, t_end: float, dt: float
) -> TwoTimescaleTrajectory:
    """Evaluate the exact closed-form solution on a uniform grid.

    w = x + jy obeys dw/dt = -(a + j omega) w + b z with
    z = z0 exp(-eps t), so w(t) = C exp(-eps t) + (w0 - C) exp(-(a+j omega) t)
    with C = b z0 / (a + j omega - eps).
    """
    if dt <= 0 or t_end <= dt:
        raise ValidationError("need t_end > dt > 0")
    pole = complex(p.a, p.omega)
    if abs(pole - p.eps) < 1e-12:
        raise ValidationError("resonant case a + j omega == eps is rejected")
    t = np.arange(0.0, t_end + 0.5 * dt, dt)
    z = p.z0 * np.exp(-p.eps * t)
    c = p.b * p.z0 / (pole - p.eps)
    w0 = complex(p.x0, p.y0)
    w = c * np.exp(-p.eps * t) + (w0 - c) * np.exp(-pole * t)
    xyz = np.column_stack([w.real, w.imag, z])
    return TwoTimescaleTrajectory(t=t, xyz=xyz)


def analytic_ftle(p: TwoTimescaleParams, t_window: float) -> tuple[float, float]:
    """Closed-form window exponent of the benchmark and its sign bound.

    In the intermediate window 1/a << T << 1/eps the trajectory norm is
    |z0| exp(-eps t) sqrt(1 + beta) with beta = b^2 / ((a-eps)^2 + omega^2),
    so measuring from t = 0 (norm |z0|) gives

        lambda(T) = -eps + ln(1 + beta) / (2 T),

    which is positive exactly for T < ln(1 + beta) / (2 eps).  Returns
    ``(lambda(T), positivity_bound)``.
    """
    if t_window <= 0:
        raise ValidationError("T must be positive")
    beta = p.b**2 / ((p.a - p.eps) ** 2 + p.omega**2)
    lam = -p.eps + math.log1p(beta) / (2.0 * t_window)
    bound = math.log1p(beta) / (2.0 * p.eps)
    return lam, bound


@dataclass(frozen=True)
class ScenarioParams:
    """Knobs for the voltage scenario generator.

    ``decay``/``growth`` are oscillation envelope rates in 1/s,
    ``recovery`` the residual recovery rate, ``dip`` the post-fault
    voltage depression, ``level`` the stalled voltage.  Ground truth is
    kept here so tests can assert against it.
    """

    n_channels: int = 3
    fs: float = 50.0
    prefault_s: float = 1.0
    fault_s: float = 0.1
    post_s: float = 3.0
    nominal: float = 1.0
    fault_level: float = 0.3
    freq_hz: float = 1.5
    osc_amp: float = 0.05
    ambient_amp: float = 0.0  # persistent background mode; 0 disables
    ambient_freq_hz: float = 2.9
    tr_amp: float = 0.0  # fast-decaying fault remnant; 0 disables
    tr_freq_hz: float = 7.7
    tr_decay: float = 3.0
    decay: float = 0.4
    growth: float = 0.4
    recovery: float = 1.0
    dip: float = 0.3
    level: float = 0.7
    stall_osc_amp: float = 0.0  # optional rider on the stalled level
    stall_creep: float = 0.0  # pu/s of slow upward drift while stalled
    k1: float = 0.5
    k2: float = 0.9
    noise_sigma: float = 0.0
    seed: int = 0


def synth_scenario(kind: str, params: ScenarioParams | None = None) -> VoltageTrajectory:
    """Generate a multi-channel per-unit voltage scenario.

    Every scenario carries a flat pre-fault segment, a depressed fault
    segment and a post-fault phase shaped by ``kind``:

    * ``stable-osc``:    1 + A exp(-decay t) sin(2 pi f t + phi_ch)
    * ``growing-osc``:   1 + A exp(+growth t) sin(...)
    * ``fast-recovery``: 1 - dip exp(-recovery t)
    * ``stalled-recovery``: hold ``level`` after the dip
    * ``mixed``:         recovery plus decaying oscillation

    Oscillatory kinds optionally carry a persistent low-amplitude
    ambient mode and a fast-decaying fault remnant (both common in real
    post-fault records; disabled by default so the base formulas above
    hold exactly).  Reactive power channels follow Q = (V - k2) / k1 so
    the Q-V relation used by threshold derivation is identifiable from
    the output.  A voltage or a Q that is not finite (k1 = 0, say) is a
    ``ValidationError``, and so is a negative ``noise_sigma``.
    """
    p = params or ScenarioParams()
    if kind not in SCENARIO_KINDS:
        raise ValidationError(
            f"unknown scenario kind {kind!r}; choose from {SCENARIO_KINDS}"
        )
    if not (0 < p.fault_level < p.nominal):
        raise ValidationError("fault level must sit below nominal")
    if p.n_channels < 1 or p.fs <= 0 or p.post_s <= 0:
        raise ValidationError("bad scenario geometry")
    for name in ("prefault_s", "fault_s", "noise_sigma", "seed"):
        if getattr(p, name) < 0:
            raise ValidationError(f"{name} must not be negative, got {getattr(p, name)}")
    n_samples = (p.prefault_s + p.fault_s + p.post_s) * p.fs
    too_many = (
        f"fs x (prefault_s + fault_s + post_s) is {n_samples:.3g} samples, "
        f"not a count an array can hold"
    )
    # checked before anything is allocated; NaN fails the comparison too
    if not n_samples <= np.iinfo(np.intp).max:
        raise ValidationError(too_many)
    try:
        # a voltage or Q past float range is reported by _scenario, not warned about
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _scenario(kind, p)
    except MemoryError as exc:  # NumPy refuses a size it cannot allocate at once
        raise ValidationError(too_many) from exc


def _scenario(kind: str, p: ScenarioParams) -> VoltageTrajectory:
    """``synth_scenario`` on parameters it has checked."""
    dt = 1.0 / p.fs
    n_pre = int(round(p.prefault_s * p.fs))
    n_fault = int(round(p.fault_s * p.fs))
    n_post = int(round(p.post_s * p.fs)) + 1
    t_post = dt * np.arange(n_post)
    phases = 2.0 * np.pi * np.arange(p.n_channels) / max(p.n_channels, 1)

    channels = []
    rng = np.random.Generator(np.random.Philox(p.seed))
    for m in range(p.n_channels):
        osc = p.osc_amp * np.sin(2.0 * np.pi * p.freq_hz * t_post + phases[m])
        extra = np.zeros(n_post)
        if p.ambient_amp > 0.0:
            extra += p.ambient_amp * np.sin(
                2.0 * np.pi * p.ambient_freq_hz * t_post + phases[m] + 0.7
            )
        if p.tr_amp > 0.0:
            extra += (
                p.tr_amp
                * np.exp(-p.tr_decay * t_post)
                * np.sin(2.0 * np.pi * p.tr_freq_hz * t_post + 1.3 * phases[m] + 0.4)
            )
        if kind == "stable-osc":
            post = p.nominal + np.exp(-p.decay * t_post) * osc + extra
        elif kind == "growing-osc":
            post = p.nominal + np.exp(p.growth * t_post) * osc + extra
        elif kind == "fast-recovery":
            post = p.nominal - p.dip * np.exp(-p.recovery * t_post)
        elif kind == "stalled-recovery":
            post = np.full(n_post, p.level) + p.stall_creep * t_post
            if p.stall_osc_amp > 0:
                post = post + p.stall_osc_amp * np.exp(-p.decay * t_post) * np.sin(
                    2.0 * np.pi * p.freq_hz * t_post + phases[m]
                )
        else:  # mixed
            post = (
                p.nominal
                - p.dip * np.exp(-p.recovery * t_post)
                + np.exp(-p.decay * t_post) * osc
                + extra
            )
        v = np.concatenate(
            [
                np.full(n_pre, p.nominal),
                np.full(n_fault, p.fault_level),
                post,
            ]
        )
        if p.noise_sigma > 0:
            v = v + rng.normal(0.0, p.noise_sigma, size=v.size)
        if not np.isfinite(v).all():
            raise ValidationError(
                f"the {kind} voltage is not finite: a parameter takes it past float range"
            )
        q = (v - p.k2) / p.k1
        if not np.isfinite(q).all():
            raise ValidationError(
                f"k1 = {p.k1!r} and k2 = {p.k2!r} give a Q = (V - k2)/k1 "
                "that is not finite"
            )
        channels.append(Channel(id=f"G{m + 1}", voltage=v, reactive_power=q))

    traj = VoltageTrajectory(
        channels=tuple(channels),
        dt=dt,
        fault_clear_index=n_pre + n_fault,
        prefault_voltage={f"G{m + 1}": p.nominal for m in range(p.n_channels)},
    )
    return traj
