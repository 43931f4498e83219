import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import osc_params
from stvs import distribution, emd, indices, oel
from stvs.emd import (
    DecompositionResult,
    decompose,
    filter_imfs_by_frequency,
    zero_crossing_frequency,
)
from stvs.errors import ValidationError
from stvs.indices import (
    NO_OSC_TAG,
    AssessmentConfig,
    assess,
    classify,
    imf_threshold,
    oscillation_index,
)
from stvs.ingest import Channel, VoltageTrajectory, extract_post_fault_window
from stvs.lyapunov import fsle_residual_series
from stvs.synth import ScenarioParams, synth_scenario

IMF_GRID = (20, 0.0, 1.5)
REC_GRID = (40, 0.0, 1.5)


def osc_index_for(kind, window=3.0, **overrides):
    traj = synth_scenario(kind, osc_params(**overrides))
    w = extract_post_fault_window(traj, window)
    decomp = filter_imfs_by_frequency(decompose(w), (0.0, 10.0))
    return oscillation_index(decomp, 10.0, IMF_GRID)


def residual_for(kind, **overrides):
    traj = synth_scenario(kind, ScenarioParams(**overrides))
    w = extract_post_fault_window(traj, 3.0)
    decomp = filter_imfs_by_frequency(decompose(w), (0.0, 10.0))
    return decomp.residuals[0], w.dt


def recovery_value(residual, dt):
    """The recovery index assess gives a residual with V_pre = eq0 = 1 on
    the default Gompertz shape."""
    series = fsle_residual_series(residual, eq0=1.0, dt=dt)
    shape = [indices.GAMMA1_DEFAULT], [indices.X_STAR_DEFAULT]
    return oel.recovery_scores(series, abs(1.0 - residual[0]), REC_GRID, *shape)[0, 0]


# -- critical oscillation value ---------------------------------------------------

def test_imf_threshold_matches_reported_value():
    # 20 bins on [0, 1.5] with gamma2 = 10 must give 2.09 +/- 0.05
    assert imf_threshold(20, (0.0, 1.5), 10.0) == pytest.approx(2.09, abs=0.05)


def test_imf_threshold_small_gamma_limit():
    # gamma -> 0+: the reference flattens to uniform, so the value
    # approaches ln(bins / 3)
    value = imf_threshold(20, (0.0, 1.5), 1e-9)
    assert value == pytest.approx(np.log(20.0 / 3.0), abs=1e-6)


def test_imf_threshold_depends_on_bin_count():
    a = imf_threshold(20, (0.0, 1.5), 10.0)
    b = imf_threshold(40, (0.0, 1.5), 10.0)
    assert a != pytest.approx(b, abs=1e-3)


@pytest.mark.parametrize("bins", [10**15, 10**20, 10**400], ids=["1e15", "1e20", "1e400"])
def test_a_bin_count_no_array_can_hold_is_a_validation_error(bins):
    # NumPy refuses each of these sizes before it allocates anything
    with pytest.raises(ValidationError) as exc:
        AssessmentConfig(imf_bins=bins)
    assert str(exc.value) == f"[oscillation] {bins} bins: not a count an array can hold"


def test_imf_threshold_is_computed_once_per_grid():
    value = imf_threshold(20, (0.0, 1.5), 10.0)
    hits = indices._imf_threshold.cache_info().hits
    assert imf_threshold(20, [0.0, 1.5], 10.0) == value
    assert indices._imf_threshold.cache_info().hits == hits + 1
    assert indices._imf_threshold.__wrapped__(20, 0.0, 1.5, 10.0) == value
    assert imf_threshold(20, (0.0, 1.5), 9.0) != value


def test_imf_threshold_needs_unit_factor_inside_grid():
    with pytest.raises(ValidationError):
        imf_threshold(20, (2.0, 3.0), 10.0)


# -- classification -----------------------------------------------------------------

def test_classify_boundary_is_critical():
    label, margin = classify(1.0, 1.0, 0.0)
    assert label == "critical"
    assert margin == 0.0


def test_classify_stable_margin():
    label, margin = classify(0.5, 1.0, 0.0)
    assert label == "stable"
    assert margin == pytest.approx(-50.0)


def test_classify_unstable_margin_with_tolerance():
    label, margin = classify(1.2, 1.0, 0.05)
    assert label == "unstable"
    assert margin == pytest.approx(20.0)


@given(
    index=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    threshold=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_classify_margin_sign_matches_side(index, threshold):
    label, margin = classify(index, threshold, 0.0)
    if label == "stable":
        assert margin < 0
    elif label == "unstable":
        assert margin > 0
    else:
        assert margin == 0.0


# -- oscillation index ----------------------------------------------------------------

def test_oscillation_index_no_imfs_is_tagged_zero():
    traj = VoltageTrajectory(
        channels=(Channel(id="A", voltage=np.full(150, 1.0)),), dt=0.02
    )
    decomp = decompose(traj)
    result = oscillation_index(decomp, 10.0, IMF_GRID)
    assert result.value == 0.0
    assert result.note == NO_OSC_TAG


def test_imf_without_zero_crossing_embeds_with_unit_delay(monkeypatch):
    dt, n = 0.02, 150
    t = dt * np.arange(n)
    bump = 0.01 * np.exp(-(((t - 1.5) / 0.4) ** 2))  # positive: no zero crossing
    decomp = DecompositionResult(
        channel_ids=("A",),
        imfs=((bump,),),
        residuals=(np.full(n, 1.0),),
        dt=dt,
        freqs=((zero_crossing_frequency(bump, dt),),),
        rms=((float(np.sqrt(np.mean(bump * bump))),),),
    )
    assert decomp.freqs == ((0.0,),)
    taus = []
    embed = indices.delay_embed

    def recording(states, m, tau, dt):
        taus.append(tau)
        return embed(states, m=m, tau=tau, dt=dt)

    monkeypatch.setattr(indices, "delay_embed", recording)
    result = oscillation_index(decomp, 10.0, IMF_GRID)
    assert taus == [1]
    assert result.note is None and np.isfinite(result.value)


def test_zero_crossing_frequency_runs_once_per_imf_per_assess(
    monkeypatch, generator_specs
):
    calls = []
    frequency = emd.zero_crossing_frequency
    decomps = []
    decompose_window = indices.decompose

    def counting(x, dt):
        calls.append(dt)
        return frequency(x, dt)

    def keeping(window):
        decomps.append(decompose_window(window))
        return decomps[-1]

    monkeypatch.setattr(emd, "zero_crossing_frequency", counting)
    monkeypatch.setattr(indices, "decompose", keeping)
    traj = synth_scenario("mixed", osc_params(noise_sigma=0.003, seed=4))
    assess(traj, AssessmentConfig(generators=generator_specs))
    (decomp,) = decomps
    n_imfs = sum(decomp.n_imfs(ch) for ch in range(decomp.n_channels))
    assert n_imfs > 0 and len(calls) == n_imfs


def test_every_kl_of_an_assess_runs_through_the_one_scorer(
    monkeypatch, generator_specs
):
    scored = []
    kl_index = distribution.kl_index

    def counting(factors, grid, gammas, x_stars):
        scored.append((grid, np.size(gammas), np.size(x_stars)))
        return kl_index(factors, grid, gammas, x_stars)

    def forbidden(*args, **kwargs):
        raise AssertionError("kl_divergence_table called")

    # the config scores the critical oscillation value, which assess reads back
    config = AssessmentConfig(generators=generator_specs)
    for module in (indices, oel):
        monkeypatch.setattr(module, "kl_index", counting)
    monkeypatch.setattr(indices, "kl_divergence_table", forbidden)
    traj = synth_scenario("mixed", osc_params(noise_sigma=0.003, seed=4))
    result = assess(traj, config)
    assert all(g.tuning is not None for g in result.per_generator)
    assert result.oscillation.note is None
    tuning = [(REC_GRID, oel.GAMMA1_RANGE[2], oel.X_STAR_RANGE[2])] * 2
    # the oscillation index, then per generator its two critical
    # signals over the tuning grid and its index at the tuned point
    assert scored == [(IMF_GRID, 1, 1)] + (tuning + [(REC_GRID, 1, 1)]) * 3


def test_undamped_oscillation_scores_near_threshold():
    # the threshold construction is the index of a fixed-magnitude
    # oscillation, so an undamped scenario must land within 15% of it
    threshold = imf_threshold(20, (0.0, 1.5), 10.0)
    result = osc_index_for("stable-osc", decay=0.0)
    assert abs(result.value - threshold) <= 0.15 * threshold


def test_oscillation_index_strictly_decreasing_in_damping():
    values = [
        osc_index_for("stable-osc", decay=d).value
        for d in (0.05, 0.1, 0.2, 0.4, 0.8)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_growing_oscillation_scores_far_above_threshold():
    threshold = imf_threshold(20, (0.0, 1.5), 10.0)
    for g in (0.1, 0.4):
        result = osc_index_for("growing-osc", growth=g)
        assert result.value > 1.5 * threshold


# -- recovery index -------------------------------------------------------------------

def test_recovery_index_zero_without_dip():
    residual, dt = residual_for("fast-recovery", dip=0.0)
    assert fsle_residual_series(residual, eq0=1.0, dt=dt) is None
    assert recovery_value(residual, dt) == 0.0
    result = assess(synth_scenario("fast-recovery", ScenarioParams(dip=0.0)))
    for g in result.per_generator:
        assert (g.index, g.recovery.note, g.classification) == (0.0, "no dip", "non-trip")


def test_recovery_index_orders_fast_slow_stalled():
    fast, dt = residual_for("fast-recovery", recovery=2.0, dip=0.3)
    slow, _ = residual_for("fast-recovery", recovery=0.05, dip=0.3)
    stalled, _ = residual_for("stalled-recovery", level=0.7)
    v_fast = recovery_value(fast, dt)
    v_slow = recovery_value(slow, dt)
    v_stall = recovery_value(stalled, dt)
    assert v_fast < v_slow < v_stall


def test_recovery_index_strictly_decreasing_in_rate():
    values = []
    for rate in (0.05, 0.1, 0.5, 1.0, 2.0):
        residual, dt = residual_for("fast-recovery", recovery=rate, dip=0.3)
        values.append(recovery_value(residual, dt))
    assert all(a > b for a, b in zip(values, values[1:]))


# -- full assessment -------------------------------------------------------------------

def test_assess_stable_case(generator_specs):
    traj = synth_scenario(
        "mixed", osc_params(recovery=2.0, dip=0.3, decay=0.4)
    )
    result = assess(traj, AssessmentConfig(generators=generator_specs))
    assert result.oscillation_classification == "stable"
    assert all(g.classification == "non-trip" for g in result.per_generator)


def test_assess_stalled_case_trips(generator_specs):
    traj = synth_scenario(
        "stalled-recovery",
        osc_params(level=0.7, stall_osc_amp=0.01),
    )
    result = assess(traj, AssessmentConfig(generators=generator_specs))
    assert any(g.classification == "trip" for g in result.per_generator)


def test_assess_quiescent_case():
    channels = tuple(
        Channel(id=f"G{i}", voltage=np.full(400, 1.0), reactive_power=np.full(400, 0.4))
        for i in (1, 2)
    )
    traj = VoltageTrajectory(channels=channels, dt=0.02, fault_clear_index=50)
    result = assess(traj, AssessmentConfig())
    assert result.oscillation_index == 0.0
    assert result.oscillation_classification == "stable"
    assert all(g.index == 0.0 for g in result.per_generator)
    assert all(g.classification == "non-trip" for g in result.per_generator)


def test_assess_invariant_to_extra_constant_channel(generator_specs):
    params = osc_params(recovery=2.0, dip=0.3, decay=0.4)
    traj = synth_scenario("mixed", params)
    extra = Channel(
        id="FLAT",
        voltage=np.full(traj.n_samples, 1.0),
        reactive_power=np.full(traj.n_samples, 0.5),
    )
    augmented = VoltageTrajectory(
        channels=traj.channels + (extra,),
        dt=traj.dt,
        fault_clear_index=traj.fault_clear_index,
        prefault_voltage={**traj.prefault_voltage, "FLAT": 1.0},
    )
    cfg = AssessmentConfig(generators=generator_specs)
    base = assess(traj, cfg)
    plus = assess(augmented, cfg)
    assert base.oscillation_classification == plus.oscillation_classification
    assert base.oscillation_index == pytest.approx(plus.oscillation_index)
    flat_entry = next(g for g in plus.per_generator if g.id == "FLAT")
    assert flat_entry.classification == "non-trip"
    for g_base in base.per_generator:
        g_plus = next(g for g in plus.per_generator if g.id == g_base.id)
        assert g_plus.classification == g_base.classification


# The "config" echo of a document assessed with the default settings,
# pinned literally: moving a setting between AssessmentConfig and a
# module constant must leave it unchanged.
DEFAULT_ECHO = {
    "band_hz": [0.0, 10.0],
    "embed_m": 4,
    "epsilon_osc": 0.0,
    "eq0": None,
    "gamma1_default": 10.0,
    "gamma1_range": [1.0, 200.0, 40],
    "gamma2": 10.0,
    "imf_grid": {"bins": 20, "hi": 1.5, "lo": 0.0},
    "rec_grid": {"bins": 40, "hi": 1.5, "lo": 0.0},
    "window_s": 3.0,
    "x_star_default": 1.05,
    "x_star_range": [0.8, 1.3, 26],
}


def test_assess_echoes_the_default_settings(generator_specs):
    traj = synth_scenario("mixed", osc_params(recovery=0.5, dip=0.3, decay=0.4))
    for config in (AssessmentConfig(), AssessmentConfig(generators=generator_specs)):
        assert assess(traj, config).to_dict()["config"] == DEFAULT_ECHO


def test_assess_echoes_the_settings_it_was_given():
    traj = synth_scenario("mixed", osc_params(recovery=0.5, dip=0.3, decay=0.4))
    config = AssessmentConfig(
        window_s=2.0, imf_bins=30, imf_lo=0.2, imf_hi=2.0, gamma2=7.0, eq0=0.98
    )
    assert assess(traj, config).to_dict()["config"] == {
        **DEFAULT_ECHO,
        "window_s": 2.0,
        "imf_grid": {"bins": 30, "hi": 2.0, "lo": 0.2},
        "gamma2": 7.0,
        "eq0": 0.98,
    }


@pytest.mark.parametrize(
    "settings, message",
    [
        (dict(window_s=np.nan), "window_s must be finite, got nan"),
        (dict(window_s=-np.inf), "window_s must be finite, got -inf"),
        (dict(eq0=np.nan), "eq0 must be finite, got nan"),
        (dict(imf_bins=2.5), "[oscillation] bins must be an integer, got 2.5"),
        (dict(imf_bins=2), "[oscillation] need at least 3 bins for the threshold"),
        (dict(imf_hi=np.inf), "[oscillation] grid range [0.0, inf] must be finite"),
        (dict(imf_lo=np.nan), "[oscillation] grid range [nan, 1.5] must be finite"),
        (dict(imf_lo=1.2), "[oscillation] grid must contain the unit divergence factor"),
    ],
    ids=[
        "nan-window", "infinite-window", "nan-eq0", "fractional-bins", "two-bins",
        "infinite-hi", "nan-lo", "unit-factor-outside",
    ],
)
def test_config_rejects_a_bad_setting_with_one_validation_error(settings, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            AssessmentConfig(**settings)
    assert str(err.value) == message


def test_config_scores_the_critical_value_that_assess_reads_back():
    traj = synth_scenario("mixed", osc_params(recovery=0.5, dip=0.3, decay=0.4))
    indices._imf_threshold.cache_clear()
    config = AssessmentConfig(imf_bins=24)
    assert indices._imf_threshold.cache_info().misses == 1
    result = assess(traj, config)
    assert indices._imf_threshold.cache_info().misses == 1
    assert result.oscillation_threshold == imf_threshold(24, (0.0, 1.5), 10.0)


def test_assess_json_contract(generator_specs):
    traj = synth_scenario("mixed", osc_params(recovery=0.5, dip=0.3, decay=0.4))
    doc = assess(traj, AssessmentConfig(generators=generator_specs)).to_dict()
    assert set(doc) == {"oscillation", "generators", "config", "latency_s"}
    assert set(doc["oscillation"]) >= {"index", "threshold", "margin", "class"}
    for entry in doc["generators"]:
        assert set(entry) == {"id", "index", "threshold", "margin", "class", "delta_r0"}
