import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import QV_K1, QV_K2, osc_params, three_generator_specs
from stvs import distribution, emd, indices, oel
from stvs.emd import DecompositionResult, decompose, zero_crossing_frequency
from stvs.errors import ComputationError, ValidationError
from stvs.indices import (
    IMF_GRID,
    NO_OSC_TAG,
    AssessmentConfig,
    assess,
    classify,
    imf_threshold,
    oscillation_index,
)
from stvs.ingest import Channel, VoltageTrajectory, extract_post_fault_window
from stvs.lyapunov import fsle_residual_series
from stvs.oel import REC_GRID
from stvs.synth import SCENARIO_KINDS, ScenarioParams, ground_truth_trips, synth_scenario


def osc_index_for(kind, window=3.0, **overrides):
    traj = synth_scenario(kind, osc_params(**overrides))
    w = extract_post_fault_window(traj, window)
    decomp = decompose(w)
    return oscillation_index(decomp)


def residual_for(kind, **overrides):
    traj = synth_scenario(kind, ScenarioParams(**overrides))
    w = extract_post_fault_window(traj, 3.0)
    decomp = decompose(w)
    return decomp.residuals[0], w.dt


def recovery_value(residual, dt):
    """The recovery index assess gives a residual with V_pre = eq0 = 1 on
    the default Gompertz shape."""
    series = fsle_residual_series(residual, eq0=1.0, dt=dt)
    shape = [indices.GAMMA1_DEFAULT], [indices.X_STAR_DEFAULT]
    return oel.recovery_scores(series, abs(1.0 - residual[0]), *shape)[0, 0]


# -- critical oscillation value ---------------------------------------------------

def test_imf_threshold_matches_reported_value():
    # 20 bins on [0, 1.5] with gamma2 = 10 must give 2.09 +/- 0.05
    assert imf_threshold(20, 0.0, 1.5, 10.0) == pytest.approx(2.09, abs=0.05)


def test_imf_threshold_small_gamma_limit():
    # gamma -> 0+: the reference flattens to uniform, so the value
    # approaches ln(bins / 3)
    value = imf_threshold(20, 0.0, 1.5, 1e-9)
    assert value == pytest.approx(np.log(20.0 / 3.0), abs=1e-6)


def test_imf_threshold_depends_on_bin_count():
    a = imf_threshold(20, 0.0, 1.5, 10.0)
    b = imf_threshold(40, 0.0, 1.5, 10.0)
    assert a != pytest.approx(b, abs=1e-3)


@pytest.mark.parametrize("bins", [10**15, 10**20, 10**400], ids=["1e15", "1e20", "1e400"])
def test_a_bin_count_no_array_can_hold_is_a_validation_error(bins):
    # each is past distribution.MAX_BINS, refused before anything is allocated
    with pytest.raises(ValidationError) as exc:
        imf_threshold(bins, 0.0, 1.5, 10.0)
    assert str(exc.value) == f"{bins} bins: not a count an array can hold"


def test_imf_threshold_is_computed_once_per_grid():
    value = imf_threshold(20, 0.0, 1.5, 10.0)
    hits = imf_threshold.cache_info().hits
    assert imf_threshold(20, 0.0, 1.5, 10.0) == value
    assert imf_threshold.cache_info().hits == hits + 1
    assert imf_threshold.__wrapped__(20, 0.0, 1.5, 10.0) == value
    assert imf_threshold(20, 0.0, 1.5, 9.0) != value
    with pytest.raises(ValidationError):  # equal to a cached key, but not an integer
        imf_threshold(20.0, 0.0, 1.5, 10.0)


def test_imf_threshold_needs_unit_factor_inside_grid():
    with pytest.raises(ValidationError):
        imf_threshold(20, 2.0, 3.0, 10.0)


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
    result = oscillation_index(decomp)
    assert result.value == 0.0
    assert result.series is None


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

    def recording(states, m, tau):
        taus.append(tau)
        return embed(states, m, tau)

    monkeypatch.setattr(indices, "delay_embed", recording)
    result = oscillation_index(decomp)
    assert taus == [1]
    assert result.series is not None and np.isfinite(result.value)


def _tone_result(amplitudes, dt=0.02, n=151, residual=1.0):
    """A one-channel decomposition whose IMFs are the tones {Hz: amplitude},
    in the order given, over a flat residual."""
    t = dt * np.arange(n)
    imfs = tuple(a * np.sin(2 * np.pi * f * t) for f, a in amplitudes.items())
    return DecompositionResult(
        channel_ids=("A",),
        imfs=(imfs,),
        residuals=(np.full(n, residual),),
        dt=dt,
        freqs=(tuple(zero_crossing_frequency(imf, dt) for imf in imfs),),
        rms=(tuple(float(np.sqrt(np.mean(imf * imf))) for imf in imfs),),
    )


def test_an_imf_outside_the_band_leaves_the_index_bit_identical():
    assert indices.BAND_HZ == (0.0, 10.0)
    in_band = oscillation_index(_tone_result({1.5: 0.05, 0.2: 0.03}))
    # a 15 Hz IMF first, and another residual: neither is read
    with_fast = oscillation_index(
        _tone_result({15.0: 0.01, 1.5: 0.05, 0.2: 0.03}, residual=0.8)
    )
    assert in_band.series is not None
    assert with_fast.value == in_band.value
    assert np.array_equal(with_fast.series.lambdas, in_band.series.lambdas)
    assert np.array_equal(with_fast.series.k_offsets, in_band.series.k_offsets)


def test_the_strongest_imf_outside_the_band_does_not_set_the_delay(monkeypatch):
    seen = []
    embed, series = indices.delay_embed, indices.fsle_oscillation_series

    def recording_embed(states, m, tau):
        seen.append(("tau", tau))
        return embed(states, m, tau)

    def recording_series(points, dt, anchor):
        seen.append(("anchor", anchor))
        return series(points, dt, anchor)

    monkeypatch.setattr(indices, "delay_embed", recording_embed)
    monkeypatch.setattr(indices, "fsle_oscillation_series", recording_series)
    # the 15 Hz IMF has the highest RMS; of the in-band ones, the 1.5 Hz
    decomp = _tone_result({15.0: 0.2, 0.2: 0.03, 1.5: 0.05})
    assert max(decomp.rms[0]) == decomp.rms[0][0]
    oscillation_index(decomp)
    assert decomp.freqs[0][2] == pytest.approx(1.5, rel=0.2)
    period = round(1.0 / (decomp.freqs[0][2] * decomp.dt))
    assert seen == [("tau", round(period / 4)), ("anchor", period)]


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

    config = AssessmentConfig(generators=generator_specs)
    for module in (indices, oel):
        monkeypatch.setattr(module, "kl_index", counting)
    monkeypatch.setattr(distribution, "kl_divergence_table", forbidden)
    traj = synth_scenario("mixed", osc_params(noise_sigma=0.003, seed=4))
    imf_threshold.cache_clear()  # so that this assess scores the critical value
    result = assess(traj, config)
    imf_threshold.cache_clear()  # drop the value scored through the wrapper
    assert all(g.tuning is not None for g in result.per_generator)
    assert result.oscillation.series is not None
    tuning = [(REC_GRID, oel.GAMMA1_RANGE[2], oel.X_STAR_RANGE[2])] * 2
    # the oscillation index and its critical value, then per generator its
    # two critical signals over the tuning grid and its index at the tuned point
    assert scored == [(IMF_GRID, 1, 1)] * 2 + (tuning + [(REC_GRID, 1, 1)]) * 3


def test_undamped_oscillation_scores_near_threshold():
    # the threshold construction is the index of a fixed-magnitude
    # oscillation, so an undamped scenario must land within 15% of it
    threshold = imf_threshold(20, 0.0, 1.5, 10.0)
    result = osc_index_for("stable-osc", decay=0.0)
    assert abs(result.value - threshold) <= 0.15 * threshold


def test_oscillation_index_strictly_decreasing_in_damping():
    values = [
        osc_index_for("stable-osc", decay=d).value
        for d in (0.05, 0.1, 0.2, 0.4, 0.8)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_growing_oscillation_scores_far_above_threshold():
    threshold = imf_threshold(20, 0.0, 1.5, 10.0)
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
        assert (g.index, g.series, g.classification) == (0.0, None, "non-trip")


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
    assert result.oscillation.value == 0.0
    assert result.to_dict()["oscillation"]["note"] == NO_OSC_TAG
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
    assert base.oscillation.value == pytest.approx(plus.oscillation.value)
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
    config = AssessmentConfig(window_s=2.0)
    assert assess(traj, config).to_dict()["config"] == {**DEFAULT_ECHO, "window_s": 2.0}


@pytest.mark.parametrize(
    "settings, message",
    [
        (dict(window_s=np.nan), "window_s must be finite, got nan"),
        (dict(window_s=-np.inf), "window_s must be finite, got -inf"),
    ],
    ids=["nan-window", "infinite-window"],
)
def test_config_rejects_a_bad_setting_with_one_validation_error(settings, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            AssessmentConfig(**settings)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "grid, message",
    [
        ((2.5, 0.0, 1.5), "bins must be an integer, got 2.5"),
        ((2, 0.0, 1.5), "need at least 3 bins for the threshold"),
        ((20, 0.0, np.inf), "grid range [0.0, inf] must be finite"),
        ((20, np.nan, 1.5), "grid range [nan, 1.5] must be finite"),
        ((20, 1.2, 1.5), "grid must contain the unit divergence factor"),
    ],
    ids=["fractional-bins", "two-bins", "infinite-hi", "nan-lo", "unit-factor-outside"],
)
def test_imf_threshold_rejects_a_bad_grid_with_one_validation_error(grid, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            imf_threshold(*grid, 10.0)
    assert str(err.value) == message


def test_assess_scores_the_paper_critical_value_once():
    traj = synth_scenario("mixed", osc_params(recovery=0.5, dip=0.3, decay=0.4))
    imf_threshold.cache_clear()
    for _ in range(2):
        result = assess(traj, AssessmentConfig())
        assert imf_threshold.cache_info().misses == 1
    assert result.oscillation_threshold == imf_threshold(20, 0.0, 1.5, 10.0)


def test_assess_json_contract(generator_specs):
    traj = synth_scenario("mixed", osc_params(recovery=0.5, dip=0.3, decay=0.4))
    doc = assess(traj, AssessmentConfig(generators=generator_specs)).to_dict()
    assert set(doc) == {"oscillation", "generators", "config", "latency_s"}
    assert set(doc["oscillation"]) >= {"index", "threshold", "margin", "class"}
    for entry in doc["generators"]:
        assert set(entry) == {"id", "index", "threshold", "margin", "class", "delta_r0"}


# The sign of the margin each class implies; a margin of 0 fits either.
MARGIN_SIGN = {"stable": -1, "unstable": 1, "non-trip": -1, "trip": 1}


@given(
    kind=st.sampled_from(SCENARIO_KINDS),
    n_channels=st.integers(1, 6),
    fs=st.sampled_from([25.0, 50.0, 100.0, 200.0]),
    sigma=st.sampled_from([0.0, 0.0005, 0.001, 0.003]),
    window_s=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**16),
    machine_data=st.booleans(),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_a_drawn_scenario_gets_a_sound_document_or_a_staged_error(
    kind, n_channels, fs, sigma, window_s, seed, machine_data
):
    params = ScenarioParams(
        n_channels=n_channels, fs=fs, noise_sigma=sigma, seed=seed, k1=QV_K1, k2=QV_K2
    )
    traj = synth_scenario(kind, params)
    spec = three_generator_specs()["G1"]
    generators = {cid: replace(spec, id=cid) for cid in traj.channel_ids}
    config = AssessmentConfig(window_s, generators if machine_data else None)
    try:
        result = assess(traj, config)
    except (ValidationError, ComputationError) as exc:
        # known limits: a noise-free stalled Q has no spread to fit, and a
        # steep recovery exponent can leave float range before the pickup
        assert re.match(r"\[(ingest|emd|oscillation|recovery:G\d)\] ", str(exc)), str(exc)
        return
    osc = result.oscillation
    verdicts = [
        (osc.value, result.oscillation_classification, result.oscillation_margin),
        *((g.index, g.classification, g.margin) for g in result.per_generator),
    ]
    for index, label, margin in verdicts:
        assert math.isfinite(index) and index >= 0
        if margin is not None and label in MARGIN_SIGN:  # a tuned or oscillation class
            assert np.sign(margin) in (0, MARGIN_SIGN[label]), (label, margin)


# -- trip prediction from 3 s against the ground truth ---------------------------------

# Records of 3 s after fault clearing, scored against each generator's
# trip on the full noise-free record at the 20 s pickup.  A noise-free
# stalled record has a Q with no spread, which cannot be fitted, so
# stalled-recovery is swept only with noise.
TRIP_SWEEP = [
    (kind, "recovery", float(rate), sigma)
    for kind in ("mixed", "fast-recovery")
    for rate in np.geomspace(0.02, 0.3, 12)
    for sigma in (0.0, 0.001, 0.003)
] + [
    ("stalled-recovery", "level", level, sigma)
    for level in (0.8, 0.825, 0.85, 0.875, 0.9, 0.95)
    for sigma in (0.001, 0.003)
]

# Each sits at a boundary: the mixed rate is the first swept one above
# ln(3)/20 = 0.055/s, below which the dip is still under the cap at
# 20 s; the stalled level is the 0.9 pu cap itself.
KNOWN_FALSE_TRIPS = {
    ("mixed", 0.0685, 0.001, "G2"),
    ("mixed", 0.0685, 0.001, "G3"),
    ("stalled-recovery", 0.9, 0.001, "G2"),
    ("stalled-recovery", 0.9, 0.003, "G2"),
}


def trip_verdicts(records, generator_specs):
    """The missed and the false trips, each (*key, generator id), of the
    (key, kind, scenario overrides) records."""
    missed, false_trips = [], set()
    config = AssessmentConfig(window_s=3.0, generators=generator_specs)
    for key, kind, overrides in records:
        params = ScenarioParams(k1=QV_K1, k2=QV_K2, **overrides)
        truth = ground_truth_trips(kind, params, generator_specs)
        for g in assess(synth_scenario(kind, params), config).per_generator:
            if truth[g.id] and g.classification != "trip":
                missed.append((*key, g.id))
            elif g.classification == "trip" and not truth[g.id]:
                false_trips.add((*key, g.id))
    return missed, false_trips


# The windows, in seconds, at which every TRIP_SWEEP record is assessed.
SETTLE_WINDOWS = (0.5, 0.6, 0.8, 1.0, 1.5, 2.0, 2.5, 3.0)


@pytest.fixture(scope="module")
def trip_sweep():
    """{(kind, value, sigma, generator id): (whether it trips, its class
    at each of SETTLE_WINDOWS)} over TRIP_SWEEP."""
    specs = three_generator_specs()
    sweep = {}
    for kind, knob, value, sigma in TRIP_SWEEP:
        params = ScenarioParams(k1=QV_K1, k2=QV_K2, **{knob: value, "noise_sigma": sigma})
        traj = synth_scenario(kind, params)
        classes = {gen_id: [] for gen_id in specs}
        for window_s in SETTLE_WINDOWS:
            config = AssessmentConfig(window_s=window_s, generators=specs)
            for g in assess(traj, config).per_generator:
                classes[g.id].append(g.classification)
        for gen_id, trips in ground_truth_trips(kind, params, specs).items():
            sweep[(kind, round(value, 4), sigma, gen_id)] = trips, classes[gen_id]
    return sweep


def test_no_trip_is_missed_from_three_seconds(trip_sweep):
    at_3s = SETTLE_WINDOWS.index(3.0)
    missed, false_trips = [], set()
    for key, (trips, classes) in trip_sweep.items():
        if trips and classes[at_3s] != "trip":
            missed.append(key)
        elif classes[at_3s] == "trip" and not trips:
            false_trips.add(key)
    assert missed == []
    assert false_trips == KNOWN_FALSE_TRIPS


def settle_window(trips, classes):
    """The first of SETTLE_WINDOWS from which the class stays right (trip
    exactly when the generator trips), None when none is."""
    right = [(c == "trip") == trips for c in classes]
    return next((w for i, w in enumerate(SETTLE_WINDOWS) if all(right[i:])), None)


def test_recovery_verdicts_settle_at_the_pinned_windows(trip_sweep):
    settle = {key: settle_window(*verdicts) for key, verdicts in trip_sweep.items()}
    assert {key for key, w in settle.items() if w is None} == KNOWN_FALSE_TRIPS
    true_trips = {}
    for key, (trips, _) in trip_sweep.items():
        if trips:
            true_trips.setdefault(key[0], []).append(settle[key])
    # (count, every one settled by, median) of the true trips, in seconds
    assert {kind: (len(w), max(w), np.median(w)) for kind, w in true_trips.items()} == {
        "fast-recovery": (45, 0.5, 0.5),
        "stalled-recovery": (24, 0.8, 0.5),
        "mixed": (45, 2.5, 1.0),
    }
    assert np.percentile(true_trips["mixed"], 90) == 1.5
    # non-trip generators classed trip at one window or more
    assert sum(not trips and "trip" in c for trips, c in trip_sweep.values()) == 55


# The creep axis: stalled records that drift up at 0.001-0.01 pu/s, from
# levels below the 0.9 pu cap, with noise (see TRIP_SWEEP).
CREEP_SWEEP = [
    (level, creep, sigma)
    for level in (0.75, 0.8, 0.85, 0.88)
    for creep in (0.001, 0.002, 0.004, 0.006, 0.01)
    for sigma in (0.001, 0.003)
]

# A known limit: each creeps 0.00-0.05 pu above the cap by 20 s, which
# an index read from the first 3 s does not credit.
KNOWN_CREEP_FALSE_TRIPS = {
    *((0.75, 0.01, sigma, g) for sigma in (0.001, 0.003) for g in ("G1", "G2", "G3")),
    *((0.8, 0.006, sigma, g) for sigma in (0.001, 0.003) for g in ("G1", "G2", "G3")),
    *((0.88, 0.001, 0.001, g) for g in ("G1", "G2", "G3")),
    (0.88, 0.001, 0.003, "G2"),
}


def test_no_creeping_trip_is_missed_from_three_seconds(generator_specs):
    missed, false_trips = trip_verdicts(
        [
            ((level, creep, sigma), "stalled-recovery",
             dict(level=level, stall_creep=creep, noise_sigma=sigma))
            for level, creep, sigma in CREEP_SWEEP
        ],
        generator_specs,
    )
    assert missed == []
    assert false_trips == KNOWN_CREEP_FALSE_TRIPS


# -- column order ---------------------------------------------------------------------


def per_id_document(traj, config):
    """The assessment document of ``traj`` with its generators keyed by id."""
    doc = assess(traj, config).to_dict()
    doc["generators"] = {g["id"]: g for g in doc["generators"]}
    return doc


def reordered(traj, order):
    return replace(traj, channels=tuple(traj.channels[j] for j in order))


@pytest.mark.parametrize(
    "kind, overrides, tuned",
    [
        ("mixed", dict(recovery=0.9, decay=0.45, noise_sigma=0.001, seed=3), True),
        (
            "stalled-recovery",
            dict(level=0.7, stall_osc_amp=0.01, stall_creep=0.004, noise_sigma=0.0012, seed=4),
            True,
        ),
        ("stable-osc", dict(decay=0.5, n_channels=10, fs=200.0, noise_sigma=0.001), False),
        ("growing-osc", dict(n_channels=10, fs=200.0, noise_sigma=0.001, seed=1), False),
    ],
    ids=["mixed-3ch-50hz", "stalled-3ch-50hz", "stable-10ch-200hz", "growing-10ch-200hz"],
)
def test_every_verdict_is_the_same_whatever_the_column_order(
    kind, overrides, tuned, generator_specs
):
    traj = synth_scenario(kind, osc_params(**overrides))
    config = AssessmentConfig(generators=generator_specs if tuned else None)
    want = per_id_document(traj, config)
    n = len(traj.channels)
    for order in (range(n - 1, -1, -1), [*range(1, n), 0]):  # reversed, rotated
        assert per_id_document(reordered(traj, order), config) == want


@pytest.mark.parametrize(
    "kind, overrides, tuned",
    [
        ("mixed", dict(recovery=0.9, decay=0.45, noise_sigma=0.001, seed=3), True),
        ("stalled-recovery", dict(level=0.7, noise_sigma=0.0012, seed=4), True),
        ("stable-osc", dict(decay=0.5, n_channels=10, fs=200.0, noise_sigma=0.001), False),
    ],
    ids=["mixed-3ch-50hz", "stalled-3ch-50hz", "stable-10ch-200hz"],
)
def test_every_document_is_the_same_whatever_the_start_time(
    kind, overrides, tuned, generator_specs
):
    # a record read from CSV carries no V_pre, so the lookback estimate
    # runs; t0 moves with the record
    traj = replace(synth_scenario(kind, osc_params(**overrides)), prefault_voltage=None)
    config = AssessmentConfig(generators=generator_specs if tuned else None)
    want = assess(traj.with_fault_clear_time(1.1), config).to_dict()
    for shift in (-3.7, 1000.0, 1e6 + 0.123):
        shifted = replace(traj, t_start=traj.t_start + shift)
        assert assess(shifted.with_fault_clear_time(1.1 + shift), config).to_dict() == want


def rescaled(traj, specs, c, machine=True):
    """Q times c; with ``machine``, also P times c and X'd over c."""
    traj = replace(
        traj,
        channels=tuple(
            replace(ch, reactive_power=ch.reactive_power * c) for ch in traj.channels
        ),
    )
    if machine:
        specs = {
            gid: replace(s, xd_prime=s.xd_prime / c, p_active=s.p_active * c)
            for gid, s in specs.items()
        }
    return traj, specs


# ROADMAP item 6's Q-scaling check: E^2 = (V + X'd Q / V)^2 + (X'd P / V)^2
# is unchanged when Q and P scale by c and X'd by 1/c, so the voltage caps
# may move only in their last bits, and the tuned shape, the index and the
# class not at all
Q_SCALING_RECORDS = [
    (kind, seed, sigma)
    for kind in ("mixed", "stalled-recovery", "fast-recovery")
    for seed in (0, 1)
    for sigma in (0.0, 0.001)
]


def q_scaling_record(kind, seed, sigma):
    # a noise-free stalled Q has no spread to fit: give it a rider and a creep
    extra = dict(stall_osc_amp=0.01, stall_creep=0.004) if kind == "stalled-recovery" else {}
    return synth_scenario(kind, osc_params(seed=seed, noise_sigma=sigma, **extra))


def test_every_verdict_is_the_same_when_q_and_p_scale_by_c_and_xd_prime_by_1_over_c(
    generator_specs,
):
    n_tuned = 0
    for kind, seed, sigma in Q_SCALING_RECORDS:
        traj = q_scaling_record(kind, seed, sigma)
        want = assess(traj, AssessmentConfig(generators=generator_specs)).per_generator
        for c in (0.01, 10.0, 100.0):
            scaled, specs = rescaled(traj, generator_specs, c)
            got = assess(scaled, AssessmentConfig(generators=specs)).per_generator
            for g, w in zip(got, want):
                assert (g.id, g.classification, g.index) == (w.id, w.classification, w.index)
                assert (g.threshold is None) == (w.threshold is None)
                if w.threshold is not None:
                    assert g.threshold == pytest.approx(w.threshold, rel=1e-9, abs=0)
                    n_tuned += 1
    assert n_tuned == 3 * 3 * len(Q_SCALING_RECORDS)


def test_scaling_q_alone_moves_every_threshold(generator_specs):
    # the named counter-case: the machine data is in Q's units, so the
    # invariance must not hold when Q alone scales; tenfold Q clears a
    # stalled record's trips
    flipped = set()
    for kind, seed, sigma in Q_SCALING_RECORDS:
        traj = q_scaling_record(kind, seed, sigma)
        want = assess(traj, AssessmentConfig(generators=generator_specs)).per_generator
        for c in (0.01, 10.0, 100.0):
            scaled, specs = rescaled(traj, generator_specs, c, machine=False)
            got = assess(scaled, AssessmentConfig(generators=specs)).per_generator
            for g, w in zip(got, want):
                if g.threshold is not None and w.threshold is not None:
                    assert g.threshold != pytest.approx(w.threshold, rel=1e-9, abs=0)
                if g.classification != w.classification:
                    flipped.add((kind, c, w.classification, g.classification))
    assert ("stalled-recovery", 10.0, "trip", "non-trip") in flipped


@pytest.mark.parametrize("late", [1, 2, 5])
def test_a_late_t0_averages_no_fault_sample_into_v_pre(monkeypatch, late):
    # without its explicit V_pre, as a CSV load gives it; the fault runs
    # 1.0-1.1 s, so a t0 a few samples late still finds its onset
    traj = replace(synth_scenario("mixed", ScenarioParams()), prefault_voltage=None)
    want = indices.estimate_prefault_voltage(traj.with_fault_clear_time(1.1))
    assert want == {"G1": 1.0, "G2": 1.0, "G3": 1.0}
    seen = []

    def spy(traj):
        seen.append(estimate(traj))
        return seen[-1]

    estimate = indices.estimate_prefault_voltage
    monkeypatch.setattr(indices, "estimate_prefault_voltage", spy)
    assess(traj.with_fault_clear_time(1.1 + late * traj.dt))
    assert seen == [want]


def test_channels_are_sifted_in_natural_id_order():
    ids = ("G10", "G2", "bus", "G1", "G01", "9")
    # digit runs compare as numbers, ties fall to the raw id
    assert [ids[j] for j in emd._natural_order(ids)] == ["9", "G01", "G1", "G2", "G10", "bus"]


# -- the names a benchmark trace wraps ---------------------------------------------------

# perfbench's traced run times each layer by replacing these module
# attributes with wrappers, so the library must look each one up at call
# time: a renamed or bypassed name would read 0 in its per-layer figure.
TRACED_NAMES = {
    indices: (
        "extract_post_fault_window",
        "decompose",
        "oscillation_index",
        "imf_threshold",
        "delay_embed",
        "fsle_oscillation_series",
        "fsle_residual_series",
    ),
    oel: (
        "fsle_residual_series",
        "build_characteristic",
        "construct_critical_signals",
        "tune_gamma",
    ),
}


def test_each_name_a_benchmark_trace_wraps_is_called_by_an_assessment(
    monkeypatch, generator_specs
):
    calls = Counter()

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    wrapped = []
    for module, names in TRACED_NAMES.items():
        for name in names:
            key = f"{module.__name__}.{name}"
            monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
            wrapped.append(key)
    params = osc_params(level=0.7, stall_osc_amp=0.01, stall_creep=0.004, noise_sigma=0.001)
    result = assess(
        synth_scenario("stalled-recovery", params),
        AssessmentConfig(generators=generator_specs),
    )
    assert [g.tuning is not None for g in result.per_generator] == [True] * 3
    assert [key for key in wrapped if not calls[key]] == []


# -- time to an oscillation verdict ---------------------------------------------------------

SETTLE_WINDOWS_S = [round(0.1 * k, 1) for k in range(3, 31)]


@pytest.mark.parametrize("sigma", [0.0, 0.001])
@pytest.mark.parametrize("n_channels", [1, 3, 10])
@pytest.mark.parametrize(
    "kind, label, settled_s",
    [("stable-osc", "stable", 0.3), ("growing-osc", "unstable", 0.6)],
    ids=["stable", "growing"],
)
def test_a_50hz_oscillation_verdict_holds_from_0_6_s_of_data(
    kind, label, settled_s, n_channels, sigma
):
    # the paper's claim: a verdict within 0.6 s of fault clearing; a
    # noise-free record is the same for every seed
    for seed in (0, 1, 2) if sigma else (0,):
        traj = synth_scenario(
            kind, osc_params(decay=0.5, n_channels=n_channels, noise_sigma=sigma, seed=seed)
        )
        wrong = [
            window_s
            for window_s in SETTLE_WINDOWS_S
            if window_s >= settled_s
            and assess(traj, AssessmentConfig(window_s=window_s)).oscillation_classification
            != label
        ]
        assert wrong == [], f"seed {seed}"
