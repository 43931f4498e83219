"""Stability indices, thresholds, classification and full assessment.

Two complementary quantities summarize a post-fault window:

* the oscillation index: KL divergence between the divergence-factor
  distribution of the embedded oscillatory components (system level)
  and the Gompertz reference with shift 1, and
* one recovery index per generator: the same KL construction on the
  residual recovery exponents, weighted by the depth of the initial
  voltage dip.

Both increase toward instability; each is compared against a critical
value, yielding a classification and a signed percentage margin.  Both
indices and the critical oscillation value are scored by
``distribution.kl_index``, on grids that ``distribution`` checks and
builds.  A generator's recovery index is scored inside ``assess``, as
each critical signal is in the tuner, through ``fsle_residual_series``
(None when it never dipped) and ``oel.recovery_scores``.

``AssessmentConfig`` carries what a run may set: the analysis window
and the generators' machine data.  The method's fixed choices (the IMF
band, the embedding dimension, the IMF grid, the oscillation reference
shape gamma2 and the untuned Gompertz shape) are the module constants
below, read where they are used and never passed in; ``oel`` holds
those of the recovery grid and the tuner, ``emd`` those of the sifting,
and ``ingest`` the pre-fault lookback.  Each channel recovers toward
its own pre-fault voltage V_pre, given with the record or estimated by
``ingest.estimate_prefault_voltage``.
``OscillationResult`` holds the oscillation index and its exponent
series, None when no IMF in the band oscillates (which ``to_dict`` notes
as ``NO_OSC_TAG``); each generator's ``GeneratorAssessment`` holds its
index, dip weight and exponent series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import oel
from .distribution import _bin_edges, kl_index
from .embed import augment_rocov, delay_embed, normalize_channels
from .emd import DecompositionResult, _natural_order, decompose
from .errors import ValidationError, stage
from .ingest import (
    VoltageTrajectory,
    estimate_prefault_voltage,
    extract_post_fault_window,
)
from .lyapunov import ExponentSeries, fsle_oscillation_series, fsle_residual_series

OSC_X_STAR = 1.0  # oscillation reference shift sits at the unit factor

NO_OSC_TAG = "no oscillatory content"

# Fixed choices of the method.  The IMFs whose zero-crossing frequency
# lies in BAND_HZ (Hz) feed the oscillation index, embedded in EMBED_M
# dimensions at most, and scored on the IMF histogram grid (bins, lo,
# hi) against the Gompertz reference of shape GAMMA2: the paper's grid,
# whose critical value is 2.07.  A generator without a tuned threshold
# is scored on ``oel.REC_GRID`` with the default Gompertz shape
# (gamma1, x*).
BAND_HZ = (0.0, 10.0)
EMBED_M = 4
IMF_GRID = (20, 0.0, 1.5)
GAMMA2 = 10.0
GAMMA1_DEFAULT = 10.0
X_STAR_DEFAULT = 1.05

# Why a generator with pickups needs its Q: column; a stream rejects
# the header that lacks it with the same line.
NO_REACTIVE_POWER = "trip prediction needs reactive power measurements for the Q-V fit"


@dataclass(frozen=True)
class AssessmentConfig:
    """The settings of one assessment: the analysis window and the
    machine data of the generators whose recovery threshold is tuned.
    Everything else the pipeline uses is a module constant next to the
    code that reads it.  A non-finite window is rejected here, before
    any data is read.
    """

    window_s: float = 3.0
    generators: dict[str, oel.GeneratorSpec] | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.window_s):
            raise ValidationError(f"window_s must be finite, got {self.window_s}")

    def echo(self) -> dict:
        return {
            "window_s": self.window_s,
            "gamma2": GAMMA2,
            "imf_grid": dict(zip(("bins", "lo", "hi"), IMF_GRID)),
            "rec_grid": dict(zip(("bins", "lo", "hi"), oel.REC_GRID)),
            "band_hz": list(BAND_HZ),
            "gamma1_default": GAMMA1_DEFAULT,
            "x_star_default": X_STAR_DEFAULT,
            "eq0": None,  # each channel recovers toward its V_pre
            "epsilon_osc": 0.0,  # classify's tolerance, always 0
            "embed_m": EMBED_M,
            "gamma1_range": list(oel.GAMMA1_RANGE),
            "x_star_range": list(oel.X_STAR_RANGE),
        }


@dataclass(frozen=True)
class OscillationResult:
    """System-level oscillation index and the exponent series it scored,
    None when no IMF in the band oscillates (the report notes NO_OSC_TAG)."""

    value: float
    series: ExponentSeries | None = None


@dataclass(frozen=True)
class GeneratorAssessment:
    """One generator's verdict with the intermediates that drove it.

    ``index`` is the recovery index D = delta_r0 x KL, ``delta_r0`` the
    dip depth |V_pre - R(t0)| and ``series`` the residual's recovery
    exponents, None when it never dipped (which scores 0).
    ``characteristic`` is None without machine data or without a dip;
    ``tuning`` is None unless the recovery threshold was tuned.
    """

    id: str
    index: float
    delta_r0: float
    series: ExponentSeries | None
    margin: float | None
    classification: str
    characteristic: oel.OELCharacteristic | None = None
    tuning: oel.TuningResult | None = None

    @property
    def threshold(self) -> float | None:
        return None if self.tuning is None else self.tuning.d_critical_r


@dataclass(frozen=True)
class StabilityAssessment:
    """Assembled oscillation and per-generator recovery verdicts."""

    oscillation: OscillationResult
    oscillation_threshold: float
    oscillation_margin: float
    oscillation_classification: str
    per_generator: tuple[GeneratorAssessment, ...]
    config_echo: dict
    latency_s: float

    def to_dict(self) -> dict:
        osc = {
            "index": self.oscillation.value,
            "threshold": self.oscillation_threshold,
            "margin": self.oscillation_margin,
            "class": self.oscillation_classification,
        }
        if self.oscillation.series is None:
            osc["note"] = NO_OSC_TAG
        return {
            "oscillation": osc,
            "generators": [
                {
                    "id": g.id,
                    "index": g.index,
                    "threshold": g.threshold,
                    "margin": g.margin,
                    "class": g.classification,
                    "delta_r0": g.delta_r0,
                }
                for g in self.per_generator
            ],
            "config": self.config_echo,
            "latency_s": self.latency_s,
        }


def classify(
    index: float, threshold: float, epsilon: float = 0.0
) -> tuple[str, float]:
    """Place an index against its critical value.

    Returns (classification, margin%) with margin = (index - threshold)
    / threshold * 100.  Indices within epsilon/2 of the threshold are
    critical.
    """
    if threshold <= 0:
        raise ValidationError("threshold must be positive")
    if epsilon < 0:
        raise ValidationError("epsilon must be non-negative")
    margin = (index - threshold) / threshold * 100.0
    if index < threshold - epsilon / 2.0:
        label = "stable"
    elif index > threshold + epsilon / 2.0:
        label = "unstable"
    else:
        label = "critical"
    return label, margin


_RECOVERY_LABEL = {"stable": "non-trip", "unstable": "trip", "critical": "critical"}


@lru_cache(maxsize=16, typed=True)  # typed: 20.0 bins must not hit 20's entry
def imf_threshold(bins: int, lo: float, hi: float, gamma2: float) -> float:
    """Critical oscillation index for the grid of ``bins`` bins on [lo, hi].

    A fixed-magnitude oscillation never diverges, so its divergence
    factors concentrate at and just below 1: the construction spreads
    unit mass uniformly over the bin containing x = 1 and the two bins
    below it (one factor on each lower edge) and scores it through
    ``kl_index`` against the Gompertz reference with shift 1.  The value
    depends only on the grid and gamma2, so it is computed once per
    distinct set of them.
    """
    if isinstance(bins, (int, np.integer)) and bins < 3:
        raise ValidationError("need at least 3 bins for the threshold")
    edges, _ = _bin_edges(bins, lo, hi)
    if not lo < 1.0 < hi:
        raise ValidationError("grid must contain the unit divergence factor")
    ic = int(edges.searchsorted(1.0, side="right")) - 1
    if ic < 2:
        raise ValidationError("grid leaves no room below the unit factor")
    kl = kl_index(edges[ic - 2: ic + 1], (bins, lo, hi), [gamma2], [OSC_X_STAR])
    return float(kl[0, 0])


def _embedding_parameters(
    n_states: int, period_samples: int | None
) -> tuple[int, int]:
    """Resolve (m, tau) for the available window length, m <= EMBED_M.

    The delay targets a quarter of the dominant oscillation period so
    the embedding span covers most of a cycle: that makes the embedded
    norm read the oscillation envelope instead of the instantaneous
    phase.  With no measurable oscillation frequency (no IMF in the band
    crosses zero) the delay is one sample.  On short windows the
    dimension drops before the delay collapses so that at least a
    handful of embedded points remain.
    """
    tau = 1 if period_samples is None else max(1, int(round(period_samples / 4)))
    m = EMBED_M
    while m > 2 and n_states - (m - 1) * tau < 8:
        m -= 1
    tau = min(tau, max(1, (n_states - 8) // max(m - 1, 1)))
    return m, tau


def oscillation_index(decomp: DecompositionResult) -> OscillationResult:
    """System-level oscillation index from the IMFs in ``BAND_HZ``.

    Each channel's IMFs whose stored zero-crossing frequency lies in
    ``BAND_HZ`` are summed in order; the rest are dropped as noise, and
    the residuals are not read.  The dominant frequency, which sets the
    embedding delay and the anchor, is that of the in-band IMF with the
    highest stored RMS and a frequency above 0, the first one winning a
    tie.

    Pipeline: per-channel IMF sums -> unit-RMS normalization -> ROCOV
    augmentation -> delay embedding -> amplitude-ratio divergence
    exponents of the embedded state -> divergence-factor histogram on
    ``IMF_GRID`` -> KL distance to the Gompertz reference of shape
    ``GAMMA2`` with shift 1, through ``distribution.kl_index``.

    The exponent series measures the embedded oscillation state against
    the oscillation-free equilibrium (the origin), mirroring the
    residual recovery construction where the equilibrium serves as the
    reference trajectory.  The channels enter the state in the natural
    order of their ids, the order ``decompose`` sifts them in, so the
    index does not depend on the record's column order.
    """
    f_min, f_max = BAND_HZ
    signals = []
    best_rms, freq = 0.0, None
    for ch in _natural_order(decomp.channel_ids):
        osc = np.zeros_like(decomp.residuals[ch])
        for imf, f, rms in zip(decomp.imfs[ch], decomp.freqs[ch], decomp.rms[ch]):
            if f_min <= f <= f_max:
                osc += imf
                if rms > best_rms and f > 0:
                    best_rms, freq = rms, f
        if float(np.sqrt(np.mean(osc**2))) > 1e-9:
            signals.append(osc)
    if not signals:
        return OscillationResult(value=0.0)

    period = (
        max(2, int(round(1.0 / (freq * decomp.dt)))) if freq else None
    )
    states = augment_rocov(normalize_channels(signals))
    m, tau = _embedding_parameters(len(states), period)
    points = delay_embed(states, m, tau)
    # anchor within one period, or one embedding span without a frequency
    anchor = (m - 1) * tau + 1 if period is None else period
    series = fsle_oscillation_series(points, decomp.dt, anchor)
    kl = kl_index(series.divergence_factors, IMF_GRID, [GAMMA2], [OSC_X_STAR])
    return OscillationResult(value=float(kl[0, 0]), series=series)


def analysis_window_s(traj: VoltageTrajectory, window_s: float) -> float:
    """The post-fault window ``assess`` analyses, in seconds.

    ``window_s``, shortened to the data recorded after fault clearing
    when the record ends sooner.
    """
    available = (traj.n_samples - traj.fault_clear_index) * traj.dt
    return min(window_s, available - traj.dt)


def _assess_generator(
    gen_id: str,
    residual: np.ndarray,
    window: VoltageTrajectory,
    v_pre: float,
    spec: oel.GeneratorSpec | None,
) -> GeneratorAssessment:
    """Recovery verdict for one generator channel.

    The index is D = |V_pre - R(t0)| x KL on the residual's recovery
    exponents toward V_pre; a residual that never dipped scores 0 and is
    non-trip.
    Without machine data the index is scored on the default Gompertz
    shape and left unassessed.
    With it, the voltage caps either settle the verdict (trivially safe
    or tripping, scored on the default shape) or yield the critical
    signals (s1, s2) from which (gamma1, x*) and the threshold are tuned.
    """
    if spec is not None:
        channel = window.channels[window.channel_ids.index(gen_id)]
        if spec.pickups and channel.reactive_power is None:
            raise ValidationError(f"generator {gen_id}: {NO_REACTIVE_POWER}")
    dt = window.dt
    series = fsle_residual_series(residual, eq0=v_pre, dt=dt)
    gamma1, x_star = GAMMA1_DEFAULT, X_STAR_DEFAULT
    charac = tuning = None
    if series is None:
        label = "non-trip"
    elif spec is None:
        label = "not-assessed"
    else:
        charac = oel.build_characteristic(
            spec, channel.voltage, channel.reactive_power
        )
        signals = oel.construct_critical_signals(
            residual, dt, v_pre, list(charac.vcaps), series
        )
        if isinstance(signals, str):
            label = signals
        else:
            tuning = oel.tune_gamma(*signals, v_pre, dt)
            gamma1, x_star = tuning.gamma1, tuning.x_star

    delta_r0 = abs(v_pre - float(residual[0]))
    index = float(oel.recovery_scores(series, delta_r0, [gamma1], [x_star])[0, 0])
    margin = None
    if tuning is not None:
        verdict, margin = classify(index, tuning.d_critical_r, tuning.epsilon)
        label = _RECOVERY_LABEL[verdict]
    return GeneratorAssessment(
        id=gen_id,
        index=index,
        delta_r0=delta_r0,
        series=series,
        margin=margin,
        classification=label,
        characteristic=charac,
        tuning=tuning,
    )


def assess(
    traj: VoltageTrajectory, config: AssessmentConfig | None = None
) -> StabilityAssessment:
    """Run the full pipeline on one post-fault trajectory.

    Decomposes the post-fault window, scores the oscillatory components
    at the system level and the residual recovery per generator, and
    classifies both against their critical values.  Stage failures are
    re-raised with the stage name attached.
    """
    config = config or AssessmentConfig()
    window_s = analysis_window_s(traj, config.window_s)

    window = stage("ingest", extract_post_fault_window, traj, window_s)
    v_pre = traj.prefault_voltage or stage("ingest", estimate_prefault_voltage, traj)

    decomp = stage("emd", decompose, window)

    osc = stage("oscillation", oscillation_index, decomp)
    threshold = stage("oscillation", imf_threshold, *IMF_GRID, GAMMA2)
    osc_label, osc_margin = classify(osc.value, threshold)

    per_gen = [
        stage(
            f"recovery:{gen_id}",
            _assess_generator,
            gen_id,
            decomp.residuals[ch_index],
            window,
            v_pre[gen_id],
            (config.generators or {}).get(gen_id),
        )
        for ch_index, gen_id in enumerate(window.channel_ids)
    ]

    return StabilityAssessment(
        oscillation=osc,
        oscillation_threshold=threshold,
        oscillation_margin=osc_margin,
        oscillation_classification=osc_label,
        per_generator=tuple(per_gen),
        config_echo=config.echo(),
        latency_s=window_s,
    )
