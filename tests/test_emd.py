import os
import subprocess
import sys

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import make_interp_spline

import stvs
from conftest import P_ACTIVE, QV_K1, QV_K2, XD_PRIME, osc_params, pickup_level
from stvs import emd
from stvs.emd import (
    count_extrema,
    count_zero_crossings,
    decompose,
    decompose_signals,
    is_imf,
    zero_crossing_frequency,
)
from stvs.indices import assess
from stvs.ingest import (
    Channel,
    VoltageTrajectory,
    extract_post_fault_window,
    write_trajectory,
)
from stvs.synth import ScenarioParams, synth_scenario


def make_traj(signals, dt=0.02):
    channels = tuple(
        Channel(id=f"G{i + 1}", voltage=np.asarray(s, dtype=float))
        for i, s in enumerate(signals)
    )
    return VoltageTrajectory(channels=channels, dt=dt)


# -- one channel -----------------------------------------------------------

def test_decompose_pure_sine_recovers_the_sine():
    t = np.arange(0, 10, 0.02)  # 10 periods at 1 Hz
    sine = np.sin(2 * np.pi * t)
    imfs, residual = decompose_signals(sine[:, None])
    assert len(imfs) == 1
    imf, remainder = imfs[0][:, 0], residual[:, 0]
    assert np.corrcoef(imf, sine)[0, 1] > 0.99
    assert np.sqrt(np.mean(remainder**2)) < 0.02 * np.sqrt(np.mean(sine**2))
    assert is_imf(imf)
    assert np.array_equal(imf + remainder, sine)


def test_decompose_monotone_ramp_is_a_trend():
    ramp = np.linspace(0.0, 1.0, 200)
    imfs, residual = decompose_signals(ramp[:, None])
    assert imfs == []
    assert np.array_equal(residual[:, 0], ramp)


def test_decompose_separates_sine_from_ramp():
    t = np.arange(0, 10, 0.02)
    sine = np.sin(2 * np.pi * t)
    ramp = 0.05 * t
    imfs, residual = decompose_signals((sine + ramp)[:, None])
    assert len(imfs) == 1
    assert np.corrcoef(imfs[0][:, 0], sine)[0, 1] > 0.99
    interior = slice(len(t) // 10, -len(t) // 10)
    err = np.max(np.abs(residual[interior, 0] - ramp[interior]))
    assert err < 0.02 * (ramp.max() - ramp.min())


def test_one_column_with_two_extrema_ends_sifting():
    # one period of a sine: one maximum and one minimum, too few to sift,
    # like a projection of several channels with fewer than 3 extrema
    x = np.sin(2 * np.pi * np.arange(50) / 50)
    mins, maxs = local_extrema_oracle(x)
    assert (len(mins), len(maxs)) == (1, 1)
    assert count_extrema(x) == 2
    directions = emd._direction_vectors(1)
    assert np.array_equal(directions, [[1.0]])
    assert emd._mean_envelope_mv(x[:, None], directions) is None
    imfs, residual = decompose_signals(x[:, None])
    assert imfs == []
    assert np.array_equal(residual[:, 0], x)


# -- decompose ---------------------------------------------------------------

def test_decompose_constant_channel_has_no_imfs():
    traj = make_traj([np.full(150, 1.0)])
    result = decompose(traj)
    assert result.n_imfs(0) == 0
    assert np.array_equal(result.residuals[0], np.full(150, 1.0))


def test_decompose_identical_channels_identical_output():
    t = np.arange(0, 3, 0.02)
    sig = 0.05 * np.sin(2 * np.pi * 1.5 * t) + (1 - 0.3 * np.exp(-0.4 * t))
    result = decompose(make_traj([sig, sig]))
    assert result.n_imfs(0) == result.n_imfs(1)
    for a, b in zip(result.imfs[0], result.imfs[1]):
        assert np.array_equal(a, b)
    assert np.array_equal(result.residuals[0], result.residuals[1])


def test_decompose_residual_tracks_known_exponential():
    t = np.arange(0, 3, 0.02)
    expo = 1 - 0.3 * np.exp(-0.4 * t)
    sig = 0.05 * np.sin(2 * np.pi * 1.5 * t) + expo
    result = decompose(make_traj([sig]))
    inner = (t >= 0.5) & (t <= 2.5)
    assert np.max(np.abs(result.residuals[0][inner] - expo[inner])) < 0.01


def test_decompose_multichannel_residuals_and_mode_condition():
    t = np.arange(0, 3, 0.02)
    expo = 1 - 0.3 * np.exp(-0.4 * t)
    sigs = [
        0.05 * np.sin(2 * np.pi * 1.5 * t + p) + expo for p in (0.0, 1.1, 2.3)
    ]
    result = decompose(make_traj(sigs))
    inner = (t >= 0.5) & (t <= 2.5)
    for ch in range(3):
        assert np.max(np.abs(result.residuals[ch][inner] - expo[inner])) < 0.01
        for imf in result.imfs[ch]:
            assert abs(count_extrema(imf) - count_zero_crossings(imf)) <= 1


def test_reconstruction_is_exact_without_filtering():
    t = np.arange(0, 3, 0.02)
    sigs = [
        0.05 * np.sin(2 * np.pi * 1.5 * t + p)
        + 0.01 * np.sin(2 * np.pi * 4.0 * t)
        + (1 - 0.3 * np.exp(-0.4 * t))
        for p in (0.0, 2.0)
    ]
    traj = make_traj(sigs)
    result = decompose(traj)
    for ch in range(2):
        err = np.max(np.abs(result.reconstruct(ch) - traj.channels[ch].voltage))
        assert err < 1e-9


def test_retained_imf_mean_is_small_on_integer_periods():
    t = np.arange(0, 10, 0.02)  # integer number of 1 Hz periods
    sig = 1.0 + 0.05 * np.sin(2 * np.pi * t)
    result = decompose(make_traj([sig]))
    imf = result.imfs[0][0]
    rms = np.sqrt(np.mean(imf**2))
    assert abs(imf.mean()) < 0.01 * rms


def test_decompose_is_deterministic():
    t = np.arange(0, 3, 0.02)
    sigs = [
        0.05 * np.sin(2 * np.pi * 1.5 * t + p) + (1 - 0.3 * np.exp(-0.4 * t))
        for p in (0.0, 1.1, 2.3)
    ]
    a = decompose(make_traj(sigs))
    b = decompose(make_traj(sigs))
    for ch in range(3):
        assert all(
            np.array_equal(x, y) for x, y in zip(a.imfs[ch], b.imfs[ch])
        )
        assert np.array_equal(a.residuals[ch], b.residuals[ch])


# A known limit, ROADMAP item 18: EMD's end effect lifts the residual at
# the window's first sample, where the recovery is steepest, so the
# recovery weight |V_pre - R(t0)| reads less than the true dip.  The
# floors are today's figures (the minimum over channels of
# |V_pre - R(t0)| / dip on noise-free `mixed`) rounded down to 0.01, at
# 50 Hz and 200 Hz: the test fails if the effect gets worse.
@pytest.mark.parametrize(
    "recovery, n_channels, floors",
    [
        (0.3, 1, (0.95, 0.95)),
        (0.3, 3, (0.93, 0.93)),
        (0.3, 10, (0.87, 0.84)),
        (0.9, 1, (0.91, 0.91)),
        (0.9, 3, (0.81, 0.81)),
        (0.9, 10, (0.63, 0.61)),
    ],
    ids=["r0.3-1ch", "r0.3-3ch", "r0.3-10ch", "r0.9-1ch", "r0.9-3ch", "r0.9-10ch"],
)
def test_the_residual_reads_a_known_share_of_the_dip_at_t0(recovery, n_channels, floors):
    for fs, floor in zip((50.0, 200.0), floors):
        params = osc_params(recovery=recovery, n_channels=n_channels, fs=fs)
        traj = synth_scenario("mixed", params)
        decomp = decompose(extract_post_fault_window(traj, 3.0))
        share = min(
            abs(traj.prefault_voltage[cid] - decomp.residuals[ch][0]) / params.dip
            for ch, cid in enumerate(decomp.channel_ids)
        )
        assert share >= floor, (fs, share)


# -- IMF frequency and RMS ---------------------------------------------------

def test_zero_crossing_frequency_of_tones():
    dt = 0.005
    t = dt * np.arange(1201)
    for f in (1.5, 4.8, 25.0):
        tone = np.sin(2 * np.pi * f * t + 0.3)
        assert zero_crossing_frequency(tone, dt) == pytest.approx(f, rel=0.05)


@pytest.mark.parametrize("n_channels", [1, 3, 10])
def test_stored_imf_stats_equal_a_recomputation(n_channels):
    params = ScenarioParams(n_channels=n_channels, noise_sigma=0.003, seed=n_channels)
    window = extract_post_fault_window(synth_scenario("mixed", params), 3.0)
    decomp = decompose(window)
    for ch in range(decomp.n_channels):
        imfs = decomp.imfs[ch]
        assert imfs and len(decomp.freqs[ch]) == len(decomp.rms[ch]) == len(imfs)
        for imf, freq, rms in zip(imfs, decomp.freqs[ch], decomp.rms[ch]):
            assert freq == zero_crossing_frequency(imf, decomp.dt)
            assert rms == float(np.sqrt(np.mean(imf * imf)))


def test_decompose_signals_rejects_bad_shapes():
    from stvs.errors import ValidationError

    with pytest.raises(ValidationError):
        decompose_signals(np.ones(10))
    with pytest.raises(ValidationError):
        decompose_signals(np.ones((2, 3)))


# -- envelope oracle ------------------------------------------------------------
# The envelope spline calls scipy's kernels directly; it must equal, bit for
# bit, the public constructor on knots mirrored the way the list-building
# loop below does it.

def mirrored_knots_oracle(idx, values, n):
    last = n - 1
    pos = [float(i) for i in idx]
    vals = [values[k] for k in range(len(idx))]
    for k in range(min(2, len(idx))):
        if idx[k] > 0:
            pos.append(-float(idx[k]))
            vals.append(values[k])
    for k in range(len(idx) - 1, max(len(idx) - 3, -1), -1):
        if idx[k] < last:
            pos.append(2.0 * last - float(idx[k]))
            vals.append(values[k])
    pos_arr = np.array(pos, dtype=float)
    vals_arr = np.array(vals, dtype=float)
    order = np.argsort(pos_arr, kind="stable")
    pos_arr = pos_arr[order]
    vals_arr = vals_arr[order]
    keep = np.concatenate(([True], np.diff(pos_arr) > 0))
    return pos_arr[keep], vals_arr[keep]


def envelope_oracle(idx, signal_rows, n):
    if len(idx) < 1:
        return None
    pos, vals = mirrored_knots_oracle(idx, signal_rows[idx], n)
    if len(pos) < 2:
        return None
    spline = make_interp_spline(pos, vals, k=min(3, len(pos) - 1))
    return spline(np.arange(n, dtype=float))


# The sifting pass scans every projection for extrema at once and fits all
# of its envelopes in one banded solve; the loops below are the one-signal,
# one-direction, one-spline reference it must equal bit for bit.

def local_extrema_oracle(x):
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


def mean_envelope_mv_oracle(x, directions):
    n = x.shape[0]
    total = np.zeros_like(x)
    used = 0
    for d in directions:
        mins, maxs = local_extrema_oracle(x @ d)
        if len(mins) + len(maxs) < 3 or len(mins) < 1 or len(maxs) < 1:
            continue
        upper = envelope_oracle(maxs, x, n)
        lower = envelope_oracle(mins, x, n)
        if upper is None or lower is None:
            continue
        total += 0.5 * (upper + lower)
        used += 1
    if used == 0:
        return None
    return total / used


def zero_crossings_oracle(x):
    signs = [np.sign(v) for v in x if np.sign(v) != 0]  # a NaN sign is kept
    return sum(a != b for a, b in zip(signs, signs[1:]))


def is_imf_oracle(x):
    mins, maxs = local_extrema_oracle(x)
    return abs(len(mins) + len(maxs) - zero_crossings_oracle(x)) <= 1


def scan_extrema(x):
    """Minima and maxima of one signal, from the sifting pass's row scan."""
    pos, _, is_max = emd._extrema_scan(np.asarray(x, dtype=float).reshape(1, -1))
    return pos[~is_max], pos[is_max]


def projections_exhausted_oracle(x, directions):
    return all(
        sum(len(e) for e in local_extrema_oracle(x @ d)) < 3 for d in directions
    )


def use_loop_oracles(monkeypatch):
    monkeypatch.setattr(emd, "_mean_envelope_mv", mean_envelope_mv_oracle)


def fit_envelope(idx, rows, n):
    """The batched fitting helper on one envelope."""
    idx = np.asarray(idx, dtype=np.intp)
    (env,) = emd._envelopes(idx, np.array([len(idx)]), rows, n)
    return env


def assert_envelope_matches_oracle(idx, rows, n):
    idx = np.asarray(idx, dtype=np.intp)
    got = fit_envelope(idx, rows, n)
    want = envelope_oracle(idx, rows, n)
    if want is None:
        assert got is None
    else:
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_ch", [None, 1, 3])
@pytest.mark.parametrize(
    "idx, n, n_knots",
    [
        ([0], 20, 2),  # at 0: mirrored about n-1 only, k = 1
        ([19], 20, 2),  # at n-1: mirrored about 0 only
        ([0], 2, 2),
        ([7], 20, 3),  # one interior extremum, mirrored both ways: k = 2
        ([12], 20, 3),
        ([0, 19], 20, 4),  # k = 3 from here on; neither end is reflected
        ([0, 7, 19], 20, 5),
        ([3, 11], 20, 6),
        ([2, 6, 11, 15, 18], 20, 9),
        ([0, 4, 9, 13, 19], 20, 7),
        ([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18], 20, 22),
    ],
)
def test_envelope_equals_public_spline(idx, n, n_knots, n_ch):
    rng = np.random.default_rng(len(idx) * 31 + n)
    rows = rng.normal(size=(n,) if n_ch is None else (n, n_ch))
    assert len(mirrored_knots_oracle(idx, rows[idx], n)[0]) == n_knots
    assert_envelope_matches_oracle(idx, rows, n)


@given(
    n=st.integers(min_value=2, max_value=160),
    n_ch=st.sampled_from([None, 1, 2, 10]),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=200, deadline=None)
def test_envelope_equals_public_spline_on_drawn_extrema(n, n_ch, picks, seed):
    idx = np.unique(np.asarray(picks) % n)
    rows = np.random.default_rng(seed).normal(size=(n,) if n_ch is None else (n, n_ch))
    assert_envelope_matches_oracle(idx, rows, n)


def test_envelope_rejects_an_infinite_extremum_like_the_public_spline():
    x = np.array([0.0, 1.0, np.inf, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    mins, maxs = scan_extrema(x)
    assert 2 in maxs
    with pytest.raises(ValueError) as want:
        envelope_oracle(maxs, x, len(x))
    with pytest.raises(ValueError) as got:
        fit_envelope(maxs, x, len(x))
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError) as sifted:
        decompose_signals(x[:, None])
    assert str(sifted.value) == str(want.value)


def test_nan_sample_never_reaches_the_envelope_fit(monkeypatch):
    t = np.arange(0, 3, 0.02)
    x = np.sin(2 * np.pi * 1.5 * t)
    x[40] = np.nan
    mins, maxs = scan_extrema(x)
    assert not np.isnan(x[np.concatenate((mins, maxs))]).any()
    imfs, residual = decompose_signals(x[:, None])
    assert imfs
    use_loop_oracles(monkeypatch)
    want_imfs, want_residual = decompose_signals(x[:, None])
    assert len(imfs) == len(want_imfs)
    for got, want in zip(imfs, want_imfs):
        assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(residual, want_residual, equal_nan=True)


def assert_decompositions_equal(a, b):
    assert [len(c) for c in a.imfs] == [len(c) for c in b.imfs]
    for ca, cb in zip(a.imfs, b.imfs):
        assert all(np.array_equal(x, y) for x, y in zip(ca, cb))
    assert all(np.array_equal(x, y) for x, y in zip(a.residuals, b.residuals))


@pytest.mark.parametrize(
    "kind, n_channels, fs, seed",
    [
        ("mixed", 3, 50.0, 3),
        ("stalled-recovery", 3, 50.0, 4),
        ("stable-osc", 10, 200.0, 5),
        ("mixed", 1, 50.0, 6),  # one channel: a pass with one direction
        ("growing-osc", 1, 50.0, 7),
    ],
)
def test_decompose_equals_decomposition_with_public_spline(
    monkeypatch, kind, n_channels, fs, seed
):
    traj = synth_scenario(
        kind,
        ScenarioParams(n_channels=n_channels, fs=fs, noise_sigma=0.001, seed=seed),
    )
    window = extract_post_fault_window(traj, 3.0)
    got = decompose(window)
    assert any(got.imfs)
    use_loop_oracles(monkeypatch)
    assert_decompositions_equal(got, decompose(window))


# -- batched sifting pass ---------------------------------------------------------

def signals_with_plateaus(n_min=0, n_max=40, n_ch_max=1):
    """Small integer alphabets: plateaus and equal neighbours are common."""
    return st.tuples(
        st.integers(min_value=n_min, max_value=n_max),
        st.integers(min_value=1, max_value=n_ch_max),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from([0.0, 0.0, 0.0, 1.0, 10.0]),
    ).map(_integer_signal)


def _integer_signal(spec):
    n, n_ch, levels, seed, trend = spec
    rng = np.random.default_rng(seed)
    x = rng.integers(-levels, levels + 1, size=(n, n_ch)).astype(float)
    x += trend * np.arange(n)[:, None] * rng.integers(-2, 3, size=n_ch)
    return x


@given(x=signals_with_plateaus(), nan_at=st.integers(min_value=-1, max_value=40))
@settings(max_examples=200, deadline=None)
def test_extrema_scan_and_count_of_one_signal_equal_one_signal_scan(x, nan_at):
    x = x[:, 0].copy()
    if 0 <= nan_at < len(x):
        x[nan_at] = np.nan
    got, want = scan_extrema(x), local_extrema_oracle(x)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    assert count_extrema(x) == len(want[0]) + len(want[1])
    if 0 <= nan_at < len(x):
        assert nan_at not in np.concatenate(got)


@given(
    x=signals_with_plateaus(n_ch_max=10),
    nan_at=st.integers(min_value=-1, max_value=400),
)
@settings(max_examples=200, deadline=None)
def test_extrema_scan_of_rows_equals_scan_of_each_row(x, nan_at):
    rows = x.T.copy()
    if 0 <= nan_at < rows.size:
        rows.flat[nan_at] = np.nan
    pos, row, is_max = emd._extrema_scan(rows)
    assert np.all(np.diff(row) >= 0)
    for r in range(rows.shape[0]):
        mins, maxs = local_extrema_oracle(rows[r])
        mine = row == r
        assert np.array_equal(pos[mine & ~is_max], mins)
        assert np.array_equal(pos[mine & is_max], maxs)


@given(
    n=st.integers(min_value=2, max_value=80),
    n_ch=st.sampled_from([None, 1, 3]),
    picks=st.lists(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=12),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=200, deadline=None)
def test_batched_envelopes_equal_public_spline_one_by_one(n, n_ch, picks, seed):
    # envelopes of 2 (k = 1), 3 (k = 2) and more knots (cubics sharing one
    # block-diagonal solve), extrema at 0 and n-1 included
    shape = (n,) if n_ch is None else (n, n_ch)
    rows = np.random.default_rng(seed).normal(size=shape)
    extrema = [np.unique(np.asarray(p) % n) for p in picks]
    lens = np.array([len(e) for e in extrema])
    got = list(emd._envelopes(np.concatenate(extrema), lens, rows, n))
    assert len(got) == len(extrema)
    for env, idx in zip(got, extrema):
        want = envelope_oracle(idx, rows, n)
        if want is None:
            assert env is None
        else:
            assert env.shape == want.shape
            assert np.array_equal(env, want)


@pytest.mark.parametrize("n_ch", [None, 3])
def test_envelopes_of_every_degree_share_one_banded_solve(monkeypatch, n_ch):
    n = 20
    # 2 knots (k = 1), 3 knots (k = 2) and 4 or more (k = 3), interleaved
    extrema = [[0], [7], [3, 11], [19], [2, 6, 11, 15, 18], [12], [0, 19]]
    knot_counts = [2, 3, 6, 2, 9, 3, 4]
    rows = np.random.default_rng(5).normal(size=(n,) if n_ch is None else (n, n_ch))
    calls = []
    dgbsv = emd.dgbsv

    def counting_dgbsv(*args, **kwargs):
        calls.append(args[:2])  # (kl, ku)
        return dgbsv(*args, **kwargs)

    monkeypatch.setattr(emd, "dgbsv", counting_dgbsv)
    idx = np.concatenate([np.asarray(e, dtype=np.intp) for e in extrema])
    got = list(emd._envelopes(idx, np.array([len(e) for e in extrema]), rows, n))
    assert calls == [(3, 3)]
    assert len(got) == len(extrema)
    for env, e, count in zip(got, extrema, knot_counts):
        assert len(mirrored_knots_oracle(e, rows[e], n)[0]) == count
        want = envelope_oracle(np.asarray(e), rows, n)
        assert env.shape == want.shape
        assert np.array_equal(env, want)


@given(
    x=signals_with_plateaus(n_min=4, n_max=40, n_ch_max=10),
    nan_at=st.lists(st.integers(min_value=0, max_value=400), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_mode_condition_equals_is_imf_of_each_column(x, nan_at):
    # plateaus, equal neighbours, exact zeros and NaN samples: the counters
    # and the mode condition the sifting loop checks on every column
    # against the positional scan
    for at in nan_at:
        if at < x.size:
            x.flat[at] = np.nan
    want = [is_imf_oracle(col) for col in x.T]
    for col in x.T:
        mins, maxs = local_extrema_oracle(col)
        assert count_extrema(col) == len(mins) + len(maxs)
        assert count_zero_crossings(col) == zero_crossings_oracle(col)
    assert [is_imf(col) for col in x.T] == want


def test_mode_condition_counts_plateaus_and_a_nan_like_is_imf():
    # extrema on plateaus; a NaN difference ends a sign run but never
    # starts one, while every NaN sample counts as a zero-crossing sign
    for col, n_extrema, n_crossings, ok in (
        ([0.0, 1.0, 1.0, 1.0, -1.0, -1.0, 2.0], 2, 2, True),
        ([0.0, 1.0, np.nan, 2.0, 1.0, 0.5, 0.2], 1, 2, True),
        ([np.nan, np.nan, 1.0, 2.0, 3.0], 0, 2, False),
    ):
        x = np.array(col)
        mins, maxs = local_extrema_oracle(x)
        assert count_extrema(x) == len(mins) + len(maxs) == n_extrema
        assert count_zero_crossings(x) == zero_crossings_oracle(x) == n_crossings
        assert is_imf(x) == is_imf_oracle(x) == ok


@pytest.mark.parametrize("n_dim", [1, 2, 3, 10])
def test_direction_vectors_are_cached_read_only_and_equal_a_fresh_build(n_dim):
    dirs = emd._direction_vectors(n_dim)
    assert emd._direction_vectors(n_dim) is dirs
    assert not dirs.flags.writeable
    with pytest.raises(ValueError):
        dirs[0, 0] = 0.5
    if n_dim == 1:
        fresh = np.ones((1, 1))
    elif n_dim == 2:
        angles = np.pi * np.arange(emd.N_DIRECTIONS) / emd.N_DIRECTIONS
        fresh = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        rng = np.random.Generator(np.random.Philox(emd._DIRECTION_SEED))
        fresh = rng.normal(size=(emd.N_DIRECTIONS, n_dim))
        fresh = fresh / np.linalg.norm(fresh, axis=1, keepdims=True)
    assert np.array_equal(dirs, fresh)


def assert_pass_matches_loop(x, directions):
    got = emd._mean_envelope_mv(x, directions)
    want = mean_envelope_mv_oracle(x, directions)
    if want is None:
        assert got is None
    else:
        assert np.array_equal(got, want)
    # decompose_signals takes a None first pass as "no IMF left"
    assert (got is None) == projections_exhausted_oracle(x, directions)
    return want


@given(
    x=signals_with_plateaus(n_min=5, n_max=40, n_ch_max=10),
    n_dir=st.integers(min_value=1, max_value=16),
    drawn=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
)
@settings(max_examples=200, deadline=None)
def test_mean_envelope_mv_equals_direction_loop(x, n_dir, drawn):
    # draws cover 1-10 channels, plateaus, one-extremum envelopes (k = 2),
    # skipped directions and passes with every direction skipped
    if drawn is None:
        directions = emd._direction_vectors(x.shape[1])
    else:
        directions = np.random.default_rng(drawn).normal(size=(n_dir, x.shape[1]))
    assert_pass_matches_loop(x, directions)


def envelope_extrema_counts(x, directions):
    """Extrema behind each used direction's (upper, lower) envelope."""
    counts = []
    for d in directions:
        mins, maxs = local_extrema_oracle(x @ d)
        if len(mins) + len(maxs) >= 3 and len(mins) and len(maxs):
            counts.append((len(maxs), len(mins)))
    return counts


def test_mean_envelope_mv_single_extremum_direction_equals_loop():
    # one minimum under two maxima: the lower envelope has 3 knots (k = 2);
    # the negated direction turns it into the upper envelope
    x = np.array([0.0, 3.0, 1.0, 2.0, 0.0, 0.0])[:, None]
    directions = np.array([[1.0], [-1.0]])
    assert envelope_extrema_counts(x, directions) == [(2, 1), (1, 2)]
    assert assert_pass_matches_loop(x, directions) is not None


def test_mean_envelope_mv_skipped_direction_equals_loop():
    t = np.arange(0, 3, 0.02)
    x = np.column_stack([0.05 * np.sin(2 * np.pi * 1.5 * t), t])
    directions = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    assert len(envelope_extrema_counts(x, directions)) == 1  # the ramp is skipped
    assert assert_pass_matches_loop(x, directions) is not None


def test_mean_envelope_mv_with_every_direction_skipped_is_none():
    t = np.arange(0, 3, 0.02)
    x = np.column_stack([t, t * t])
    directions = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    assert emd._mean_envelope_mv(x, directions) is None
    assert assert_pass_matches_loop(x, directions) is None


def test_infinite_sample_raises_through_decompose_signals(monkeypatch):
    t = np.arange(0, 3, 0.02)
    x = np.column_stack([np.sin(2 * np.pi * 1.5 * t), np.cos(2 * np.pi * 1.5 * t)])
    x[37, 0] = np.inf
    with pytest.raises(ValueError) as got:
        decompose_signals(x)
    use_loop_oracles(monkeypatch)
    with pytest.raises(ValueError) as want:
        decompose_signals(x)
    assert str(got.value) == str(want.value) == "Array must not contain infs or nans."


# -- scipy kernels ------------------------------------------------------------------

def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this stvs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(stvs.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_assess_loads_the_kernels_without_their_packages(tmp_path):
    path = tmp_path / "case.csv"
    write_trajectory(synth_scenario("mixed", ScenarioParams(seed=1)), path)
    code = """if True:
        import sys
        import stvs, stvs.cli
        assert stvs.cli.run(["assess", "--in", sys.argv[1], "--t0", "1.1"]) == 0
        print(sorted(m for m in ("scipy.interpolate", "scipy.linalg") if m in sys.modules))
        import scipy.interpolate, scipy.linalg.lapack
        print(stvs.emd._dierckx is sys.modules["scipy.interpolate._dierckx"])
        print(stvs.emd.dgbsv is scipy.linalg.lapack.dgbsv)
    """
    lines = run_python(code, str(path)).splitlines()
    assert lines[-3:] == ["[]", "True", "True"]


def test_kernels_imported_first_are_the_ones_used():
    code = """if True:
        import sys
        import scipy.interpolate
        import stvs.emd
        print(stvs.emd._dierckx is sys.modules["scipy.interpolate._dierckx"])
    """
    assert run_python(code).split() == ["True"]


def test_missing_kernel_is_an_import_error_naming_it():
    name = "scipy.interpolate._no_such_kernel"
    with pytest.raises(ImportError) as exc:
        emd._scipy_extension(name)
    assert str(exc.value) == f"{name} not found in scipy {scipy.__version__}"
    assert exc.value.name == name


def test_a_missing_scipy_is_an_import_error_naming_it(monkeypatch):
    monkeypatch.setattr(emd, "find_spec", lambda name: None)
    with pytest.raises(ImportError) as exc:
        emd._scipy_extension("scipy.interpolate._no_such_kernel")
    assert exc.value.name == "scipy"


# Modules the assessment never calls, which a cold start must not load.
UNUSED_MODULES = ("scipy", "scipy.interpolate", "scipy.linalg", "numpy.ma", "configparser")


def test_assess_imports_neither_scipy_nor_numpy_ma_nor_configparser(tmp_path):
    e_i = pickup_level()
    ini = tmp_path / "gens.ini"
    ini.write_text("".join(
        f"[G{i}]\nxd_prime = {XD_PRIME!r}\np_active = {P_ACTIVE!r}\npickup = {e_i!r}@20\n"
        for i in (1, 2, 3)
    ))
    code = f"""if True:
        import sys
        import stvs.indices
        from stvs.indices import AssessmentConfig, assess
        from stvs.oel import GeneratorSpec
        from stvs.synth import ScenarioParams, synth_scenario
        specs = {{
            f"G{{i}}": GeneratorSpec(f"G{{i}}", {XD_PRIME!r}, {P_ACTIVE!r}, (({e_i!r}, 20.0),))
            for i in (1, 2, 3)
        }}
        traj = synth_scenario("mixed", ScenarioParams(k1={QV_K1!r}, k2={QV_K2!r}))
        result = assess(traj, AssessmentConfig(generators=specs))
        print(all(g.characteristic is not None for g in result.per_generator))
        print([m for m in {UNUSED_MODULES!r} if m in sys.modules])
        from stvs.oel import load_generator_config
        print(load_generator_config(sys.argv[1]) == specs)
    """
    assert run_python(code, str(ini)).splitlines()[-3:] == ["True", "[]", "True"]


def test_stream_with_a_config_loads_configparser_but_not_numpy_ma_or_scipy(tmp_path):
    record = tmp_path / "m.csv"
    write_trajectory(synth_scenario("mixed", ScenarioParams(post_s=1.0)), record)
    ini = tmp_path / "gens.ini"
    ini.write_text("[G1]\nxd_prime = 0.3\np_active = 0.9\npickup = 0.95@20\n")
    code = """if True:
        import sys
        import stvs.cli
        sys.stdin = open(sys.argv[1])
        argv = ["assess", "--stream", "--t0", "1.1", "--gen-config", sys.argv[2]]
        assert stvs.cli.run(argv) == 0
        print([m for m in ("configparser", "numpy.ma", "scipy") if m in sys.modules])
    """
    lines = run_python(code, str(record), str(ini)).splitlines()
    assert lines[0].startswith("{") and lines[-1] == "['configparser']"


# The least delta_r0 / dip over each record's generators, rounded down to
# two decimals (ROADMAP item 18's known limit).
END_EFFECT_FLOORS = [
    (1, 50.0, 0.91),
    (1, 200.0, 0.87),
    (3, 50.0, 0.33),
    (3, 200.0, 0.79),
    (10, 50.0, 0.52),
    (10, 200.0, 0.56),
]


@pytest.mark.parametrize("n_channels, fs, floor", END_EFFECT_FLOORS)
def test_the_end_effect_keeps_the_recovery_weight_above_its_known_floor(
    n_channels, fs, floor
):
    """A known limit, pinned so that it cannot grow unseen.

    The dip weight delta_r0 = |V_pre - R(t0)| should equal the true dip,
    V_pre less the recovery trend at t0, on noise-free ``mixed``.  It
    reads short because ``_mirrored_knots`` reflects the first extrema
    about sample 0, so both envelopes run flat at t0 while the signal
    climbs from the dip: the mean envelope is lifted, the first IMFs take
    in the start of the recovery and R(t0) sits above the trend.  These
    floors are today's ratios; a boundary rule that mends the end effect
    (ROADMAP item 18) tightens them.
    """
    params = osc_params(n_channels=n_channels, fs=fs)
    result = assess(synth_scenario("mixed", params))
    ratios = [g.delta_r0 / params.dip for g in result.per_generator]
    assert len(ratios) == n_channels
    assert min(ratios) >= floor
