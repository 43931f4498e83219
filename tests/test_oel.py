import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    QV_K1,
    QV_K2,
    histogram_oracle,
    kl_index_oracle,
    kl_oracle,
    osc_params,
    reference_oracle,
)
from stvs import distribution, oel
from stvs.distribution import gompertz_reference_table
from stvs.errors import (
    ComputationError,
    TriviallySafe,
    TriviallyTripping,
    ValidationError,
)
from stvs.indices import AssessmentConfig, assess, classify
from stvs.lyapunov import fsle_residual_series
from stvs.oel import (
    GeneratorSpec,
    TuningResult,
    _ev_residual,
    build_characteristic,
    construct_critical_signals,
    fit_qv,
    REC_GRID,
    load_generator_config,
    tune_gamma,
    voltage_cap,
)
from stvs.synth import ScenarioParams, synth_scenario

DT = 0.02


# -- Q-V fit -----------------------------------------------------------------------

def test_fit_exact_line():
    q = np.linspace(-0.5, 0.5, 10)
    v = 0.8 * q + 0.95
    k1, k2 = fit_qv(v, q)
    assert k1 == pytest.approx(0.8, abs=1e-12)
    assert k2 == pytest.approx(0.95, abs=1e-12)


def test_fit_matches_normal_equations_bit_for_bit():
    rng = np.random.default_rng(17)
    q = np.linspace(-0.5, 0.5, 40)
    v = 0.8 * q + 0.95 + 0.01 * rng.standard_normal(40)
    k1, k2 = fit_qv(v, q)
    # closed-form normal equations on raw sums
    n = float(len(q))
    sq, sv = q.sum(), v.sum()
    sqq, sqv = np.dot(q, q), np.dot(q, v)
    denom = n * sqq - sq * sq
    assert k1 == (n * sqv - sq * sv) / denom
    assert k2 == (sqq * sv - sq * sqv) / denom
    # independent least-squares route agrees to rounding
    coef, _, _, _ = np.linalg.lstsq(np.column_stack([q, np.ones_like(q)]), v, rcond=None)
    assert k1 == pytest.approx(coef[0], rel=1e-10)
    assert k2 == pytest.approx(coef[1], rel=1e-10)


def test_fit_rejects_constant_reactive_power():
    with pytest.raises(ValidationError):
        fit_qv(np.linspace(0.9, 1.0, 10), np.full(10, 0.3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300], ids=["nan", "inf", "1e300"])
def test_fit_rejects_a_non_finite_fit_without_a_warning(bad):
    # was a LinAlgError traceback from np.roots in voltage_cap, through the CLI
    q = np.linspace(0.1, 0.5, 10)
    q[4] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="Q-V fit is not finite"):
            fit_qv(np.linspace(0.9, 1.0, 10), q)


# -- voltage cap -----------------------------------------------------------------------

def test_cap_zero_reactance_collapses_to_pickup():
    assert voltage_cap(1.23, 0.0, 0.9, 0.5, 0.9) == 1.23


def test_cap_factored_case_with_zero_active_power():
    # P = 0 and K2 at the cap makes the Q-V term vanish at V = K2, so
    # E = V there: the quartic factors and V_cap = K2 = E exactly
    v = voltage_cap(0.95, 0.3, 0.0, 0.5, 0.95, v_current=1.0)
    assert v == pytest.approx(0.95, abs=1e-9)


def grid_scan_roots(e_i, xd, p, k1, k2, step=1e-6):
    v = np.arange(step, 2.0, step)
    res = _ev_residual(v, e_i, xd, p, k1, k2)
    sign_change = np.flatnonzero(np.sign(res[:-1]) != np.sign(res[1:]))
    roots = []
    for i in sign_change:
        a, b = v[i], v[i + 1]
        fa, fb = res[i], res[i + 1]
        roots.append(a - fa * (b - a) / (fb - fa))
    return np.array(roots)


def test_cap_general_case_matches_grid_scan():
    params = dict(e_i=1.8, xd=0.3, p=0.9, k1=0.5, k2=0.9)
    got = voltage_cap(params["e_i"], params["xd"], params["p"], params["k1"], params["k2"])
    roots = grid_scan_roots(**params)
    assert np.min(np.abs(roots - got)) < 1e-5
    assert abs(_ev_residual(got, params["e_i"], params["xd"], params["p"],
                            params["k1"], params["k2"])) < 1e-9


def test_cap_rejects_unreachable_pickup():
    # a pickup level below the minimum of the EMF relation over (0, 2)
    # has no admissible voltage cap
    with pytest.raises(ComputationError):
        voltage_cap(0.3, 0.3, 0.9, 0.5, 0.9)


def test_cap_rejects_zero_k1():
    with pytest.raises(ValidationError):
        voltage_cap(1.0, 0.3, 0.9, 0.0, 0.9)


def test_cap_seeded_parameter_sets_match_oracle():
    # smaller sibling of the acceptance run: every returned cap satisfies
    # the defining equation and agrees with the scan oracle
    rng = np.random.default_rng(5)
    for _ in range(20):
        xd = rng.uniform(0.1, 0.5)
        p = rng.uniform(0.3, 1.2)
        k1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
        k2 = rng.uniform(0.7, 1.1)
        v_target = rng.uniform(0.3, 1.7)
        e_i = float(np.sqrt((v_target + (xd / k1) * (v_target - k2) / v_target) ** 2
                            + (xd * p / v_target) ** 2))
        got = voltage_cap(e_i, xd, p, k1, k2, v_current=v_target)
        assert abs(_ev_residual(got, e_i, xd, p, k1, k2)) < 1e-9
        roots = grid_scan_roots(e_i, xd, p, k1, k2, step=1e-5)
        assert np.min(np.abs(roots - got)) < 1e-4


def polyval_cap_oracle(e_i, xd, p, k1, k2, v_current):
    """``voltage_cap`` as written with np.polyder, np.polyval and a loop filter."""
    a = xd / k1
    coeffs = np.array([
        1.0,
        2.0 * a,
        a * a - 2.0 * a * k2 - e_i**2,
        -2.0 * a * a * k2,
        a * a * k2 * k2 + (xd * p) ** 2,
    ])
    roots = np.roots(coeffs)
    deriv = np.polyder(coeffs)
    for _ in range(3):
        denom = np.polyval(deriv, roots)
        roots = roots - np.where(denom != 0, np.polyval(coeffs, roots) / denom, 0.0)
    real = roots[np.abs(roots.imag) < 1e-9].real
    admissible = np.unique(real[(real > 0.0) & (real < 2.0)])
    admissible = np.array(
        [v for v in admissible if abs(_ev_residual(v, e_i, xd, p, k1, k2)) < 1e-9]
    )
    if admissible.size == 0:
        return None
    return float(admissible[np.lexsort((admissible, np.abs(admissible - v_current)))[0]])


def test_cap_equals_the_polyval_polish_bit_for_bit():
    # caps that exist, pickups with no admissible cap, and several roots
    # in range with the measured voltage choosing between them
    rng = np.random.default_rng(11)
    found = missing = 0
    for _ in range(300):
        xd = rng.uniform(0.05, 0.6)
        p = rng.uniform(0.0, 1.2)
        k1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.5)
        k2 = rng.uniform(0.5, 1.2)
        e_i = rng.uniform(0.2, 2.0)
        v_current = rng.uniform(0.3, 1.7)
        want = polyval_cap_oracle(e_i, xd, p, k1, k2, v_current)
        if want is None:
            missing += 1
            with pytest.raises(ComputationError):
                voltage_cap(e_i, xd, p, k1, k2, v_current=v_current)
        else:
            found += 1
            assert voltage_cap(e_i, xd, p, k1, k2, v_current=v_current) == want
    assert found > 50 and missing > 50


def test_cap_ignores_the_order_and_repeats_of_the_roots(monkeypatch):
    # the cap is picked by value, so roots that arrive twice, in any
    # order, give the cap the distinct roots give
    rng = np.random.default_rng(12)
    cases = [
        (rng.uniform(0.2, 2.0), rng.uniform(0.05, 0.6), rng.uniform(0.0, 1.2),
         rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.5), rng.uniform(0.5, 1.2),
         rng.uniform(0.3, 1.7))
        for _ in range(300)
    ]
    wants = [polyval_cap_oracle(*case) for case in cases]
    roots = np.roots

    def repeated_and_shuffled(coeffs):
        return rng.permutation(np.concatenate([roots(coeffs), roots(coeffs)]))

    monkeypatch.setattr(np, "roots", repeated_and_shuffled)
    found = 0
    for (e_i, xd, p, k1, k2, v_current), want in zip(cases, wants):
        if want is None:
            with pytest.raises(ComputationError):
                voltage_cap(e_i, xd, p, k1, k2, v_current=v_current)
        else:
            found += 1
            assert voltage_cap(e_i, xd, p, k1, k2, v_current=v_current) == want
    assert found > 50


def test_build_characteristic_recovers_line_and_cap(generator_specs):
    v = np.linspace(0.7, 0.9, 60)
    q = (v - QV_K2) / QV_K1
    charac = build_characteristic(generator_specs["G1"], v, q)
    assert charac.k1 == pytest.approx(QV_K1, rel=1e-9)
    assert charac.k2 == pytest.approx(QV_K2, rel=1e-9)
    (vcap, t_pickup), = charac.vcaps
    assert vcap == pytest.approx(0.9, abs=1e-9)
    assert t_pickup == 20.0


def test_lvrt_entries_bypass_the_quartic():
    spec = GeneratorSpec(
        id="W1", xd_prime=0.0, p_active=0.0, lvrt=((0.85, 1.5), (0.6, 0.5))
    )
    v = np.linspace(0.7, 0.9, 30)
    q = (v - QV_K2) / QV_K1
    charac = build_characteristic(spec, v, q)
    assert charac.vcaps == ((0.6, 0.5), (0.85, 1.5))  # verbatim, time-sorted


# -- critical signals -----------------------------------------------------------------

def _recovering_residual(rate, dip=0.3, t_end=3.0):
    t = DT * np.arange(int(round(t_end / DT)) + 1)
    return 1.0 - dip * np.exp(-rate * t)


def test_critical_signal_tangent_at_single_pickup():
    residual = _recovering_residual(0.5)
    series = fsle_residual_series(residual, eq0=1.0, dt=DT)
    crit = construct_critical_signals(residual, DT, 1.0, [(0.9, 20.0)], series)
    k_pick = int(round(20.0 / DT))
    assert crit.s1[k_pick] == pytest.approx(0.9, abs=1e-9)
    assert crit.s2[k_pick] == pytest.approx(0.9, abs=1e-9)
    assert crit.lam_slow == pytest.approx(-0.5, abs=1e-6)


def test_critical_signals_collapse_when_lambda_degenerate():
    residual = _recovering_residual(0.5)
    series = fsle_residual_series(residual, eq0=1.0, dt=DT)
    caps = [(0.85, 15.0), (0.9, 20.0)]
    crit = construct_critical_signals(residual, DT, 1.0, caps, series)
    # pure exponential: lam_slow == lam_fast, so the underlying curves
    # coincide and s1/s2 differ only by their tangency shifts
    assert crit.lam_slow == pytest.approx(crit.lam_fast, abs=1e-9)
    assert np.allclose(crit.s1 - crit.shift1, crit.s2 - crit.shift2, atol=1e-12)


def test_trivially_safe_recovery_detected():
    residual = np.full(150, 0.98)  # never below the caps
    residual[0] = 0.95
    series = fsle_residual_series(residual, eq0=1.0, dt=DT)
    with pytest.raises(TriviallySafe):
        construct_critical_signals(residual, DT, 1.0, [(0.9, 20.0)], series)


def test_trivially_tripping_recovery_detected():
    t = DT * np.arange(150)
    residual = 0.7 - 0.02 * t  # collapsing away from the equilibrium
    series = fsle_residual_series(residual, eq0=1.0, dt=DT)
    with pytest.raises(TriviallyTripping):
        construct_critical_signals(residual, DT, 1.0, [(0.9, 20.0)], series)


def test_overflowing_extrapolation_is_one_computation_error():
    residual = np.array([0.95, 0.93, 0.92])
    series = fsle_residual_series(residual, eq0=1.0, dt=DT)
    steep = type(series)(
        lambdas=np.array([80.0, 2.0]), k_offsets=np.array([1, 2]), dt=DT
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ComputationError) as err:
            construct_critical_signals(residual, DT, 1.0, [(0.9, 20.0)], steep)
    assert str(err.value) == (
        "recovery exponent 80/s extrapolates the residual past float range "
        "within the 21 s horizon"
    )


@pytest.mark.parametrize("kind", ["stable-osc", "growing-osc"])
def test_steep_critical_signal_is_a_staged_error_without_warnings(
    kind, generator_specs
):
    # a 0.6 s noisy one-channel window whose residual barely dips: its
    # slowest exponent is tens per second, and exp overflows before the
    # 21 s horizon
    traj = synth_scenario(
        kind, ScenarioParams(n_channels=1, fs=25, noise_sigma=0.003, seed=7)
    )
    config = AssessmentConfig(window_s=0.6, generators={"G1": generator_specs["G1"]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ComputationError) as err:
            assess(traj, config)
    assert re.fullmatch(
        r"\[recovery:G1\] recovery exponent \d+(\.\d+)?/s extrapolates the "
        r"residual past float range within the 21 s horizon",
        str(err.value),
    )


@pytest.mark.parametrize("grid", [0, 1])
def test_default_tuning_grids_are_cached_read_only(grid):
    want = (np.geomspace(*oel.GAMMA1_RANGE), np.linspace(*oel.X_STAR_RANGE))[grid]
    got = oel._default_grids()[grid]
    assert oel._default_grids()[grid] is got
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0] = 0.5
    assert np.array_equal(got, want)


# -- tuning -----------------------------------------------------------------------------

def _critical_pair(rate_slow=0.12, rate_fast=0.5, dip=0.25):
    s1 = 1.0 - dip * np.exp(-rate_slow * DT * np.arange(151)) - 0.02
    s2 = 1.0 - dip * np.exp(-rate_fast * DT * np.arange(151)) + 0.01
    return s1, s2


def test_tune_identical_signals():
    s1, _ = _critical_pair()
    result = tune_gamma(s1, s1.copy(), 1.0, DT)
    assert result.f_star == 0.0
    assert result.gamma1 == 1.0  # smallest gamma in the default range
    assert result.d_critical_r == pytest.approx(result.d_s1)


def test_tune_matches_exhaustive_oracle():
    s1, s2 = _critical_pair()
    gammas = np.geomspace(1.0, 200.0, 40)
    x_stars = np.linspace(0.8, 1.3, 26)
    result = tune_gamma(s1, s2, 1.0, DT, gamma1_grid=gammas, x_star_grid=x_stars)

    # independent exhaustive search over the same grid
    def index_of(signal, gamma, x_star):
        series = fsle_residual_series(signal, eq0=1.0, dt=DT)
        kl = kl_index_oracle(series.divergence_factors, REC_GRID, gamma, x_star)
        return abs(1.0 - signal[0]) * kl

    table = {}
    for g in gammas:
        for x in x_stars:
            table[(g, x)] = abs(index_of(s1, g, x) - index_of(s2, g, x))
    f_star = min(table.values())
    admissible = [k for k, v in table.items() if v <= 2 * f_star + 1e-15]
    best = min(admissible, key=lambda k: (k[0], k[1]))
    assert result.f_star == pytest.approx(f_star, rel=1e-12)
    assert result.gamma1 == pytest.approx(best[0], rel=1e-12)
    assert result.x_star == pytest.approx(best[1], rel=1e-12)


def test_tune_fine_grid_confirms_selection():
    s1, s2 = _critical_pair()
    coarse = tune_gamma(s1, s2, 1.0, DT)
    fine = tune_gamma(
        s1, s2, 1.0, DT,
        gamma1_grid=np.geomspace(1.0, 200.0, 118),
        x_star_grid=np.linspace(0.8, 1.3, 76),
    )
    assert fine.f_star <= coarse.f_star + 1e-12
    coarse_gammas = np.geomspace(1.0, 200.0, 40)
    step = np.diff(np.log(coarse_gammas))[0]
    assert abs(np.log(fine.gamma1) - np.log(coarse.gamma1)) <= step + 1e-9


def test_tune_midpoint_brackets_threshold():
    s1, s2 = _critical_pair()
    result = tune_gamma(s1, s2, 1.0, DT)
    lo, hi = sorted([result.d_s1, result.d_s2])
    assert lo <= result.d_critical_r <= hi


def test_tuned_signals_sit_in_the_critical_band():
    s1, s2 = _critical_pair()
    result = tune_gamma(s1, s2, 1.0, DT)
    for d in (result.d_s1, result.d_s2):
        label, _ = classify(d, result.d_critical_r, result.epsilon)
        assert label == "critical"


@pytest.mark.parametrize(
    "pair",
    [
        _critical_pair(),
        _critical_pair(rate_slow=0.05, rate_fast=0.9, dip=0.35),
        (_critical_pair()[0], np.full(151, 1.0 + 1e-6)),  # s2 never dipped
    ],
    ids=["default", "wide", "no-dip"],
)
def test_tuned_indices_are_the_recovery_index_at_the_tuned_shape(pair):
    # the tuner scores each critical signal by the rule assess scores the
    # measured residual by, at one shape, so the two agree bit for bit
    s1, s2 = pair
    result = tune_gamma(s1, s2, 1.0, DT)
    shape = [result.gamma1], [result.x_star]
    for signal, d in ((s1, result.d_s1), (s2, result.d_s2)):
        series = fsle_residual_series(signal, eq0=1.0, dt=DT)
        weight = abs(1.0 - float(signal[0]))
        assert oel.recovery_scores(series, weight, *shape)[0, 0] == d


def loop_tune(s1, s2, v_pre, dt, gamma1_grid=None, x_star_grid=None):
    """Point-by-point search over the grid, one reference per point."""
    gammas = np.geomspace(1.0, 200.0, 40) if gamma1_grid is None else gamma1_grid
    x_stars = np.linspace(0.8, 1.3, 26) if x_star_grid is None else x_star_grid

    def score(signal):
        weight = abs(v_pre - float(signal[0]))
        series = fsle_residual_series(signal, eq0=v_pre, dt=dt)
        if series is None:
            return weight, None
        counts, _ = histogram_oracle(series.divergence_factors, *REC_GRID)
        return weight, counts / counts.sum()

    (w1, p1), (w2, p2) = score(s1), score(s2)
    bins, lo, hi = REC_GRID
    edges = np.linspace(lo, hi, bins + 1)
    d1 = np.zeros((gammas.size, x_stars.size))
    d2 = np.zeros_like(d1)
    for gi, gamma in enumerate(gammas):
        for xi, x_star in enumerate(x_stars):
            q = reference_oracle(gamma, x_star, edges)
            if p1 is not None:
                d1[gi, xi] = w1 * kl_oracle(p1, q)
            if p2 is not None:
                d2[gi, xi] = w2 * kl_oracle(p2, q)
    diff = np.abs(d1 - d2)
    f_star = float(diff.min())
    gi, xi = np.nonzero(diff <= f_star + f_star + 1e-15)
    order = np.lexsort((x_stars[xi], gammas[gi]))
    sel_g, sel_x = gi[order[0]], xi[order[0]]
    d_s1, d_s2 = float(d1[sel_g, sel_x]), float(d2[sel_g, sel_x])
    return TuningResult(
        gamma1=float(gammas[sel_g]),
        x_star=float(x_stars[sel_x]),
        d_s1=d_s1,
        d_s2=d_s2,
        f_star=f_star,
        epsilon=abs(d_s1 - d_s2),
        d_critical_r=0.5 * (d_s1 + d_s2),
    )


@pytest.mark.parametrize(
    "pair",
    [
        _critical_pair(),
        _critical_pair(rate_slow=0.05, rate_fast=0.9, dip=0.35),
        _critical_pair(rate_slow=0.3, rate_fast=0.4, dip=0.15),
        (_critical_pair()[0], _critical_pair()[0].copy()),
    ],
    ids=["default", "wide", "close", "identical"],
)
def test_tune_equals_loop_oracle(pair):
    s1, s2 = pair
    assert tune_gamma(s1, s2, 1.0, DT) == loop_tune(s1, s2, 1.0, DT)


def test_tune_equals_loop_oracle_on_fine_grid():
    s1, s2 = _critical_pair()
    fine = dict(
        gamma1_grid=np.geomspace(1.0, 200.0, 118),
        x_star_grid=np.linspace(0.8, 1.3, 76),
    )
    assert tune_gamma(s1, s2, 1.0, DT, **fine) == loop_tune(s1, s2, 1.0, DT, **fine)


def test_tune_equals_loop_oracle_on_recorded_pairs(monkeypatch, generator_specs):
    # critical-signal pairs exactly as assess builds them from records:
    # stalled recoveries bin into 1-2 bins, the recovering mixed records
    # into 7-9, where a row sum takes numpy's pairwise path
    tuned = oel.tune_gamma
    calls = []

    def checked(*args, **kwargs):
        result = tuned(*args, **kwargs)
        assert result == loop_tune(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(oel, "tune_gamma", checked)
    config = AssessmentConfig(generators=generator_specs)
    records = [
        ("stalled-recovery", dict(level=0.67, stall_creep=0.002, seed=3)),
        ("stalled-recovery", dict(level=0.7, stall_creep=0.004, seed=11)),
        ("stalled-recovery", dict(level=0.73, stall_creep=0.006, seed=29)),
        ("mixed", dict(recovery=0.8, dip=0.3, decay=0.4, seed=1)),
        ("mixed", dict(recovery=0.9, dip=0.28, decay=0.4, seed=4)),
    ]
    for kind, params in records:
        traj = synth_scenario(
            kind, osc_params(stall_osc_amp=0.01, noise_sigma=0.0015, **params)
        )
        assess(traj, config)
    assert len(calls) == 3 * len(records)


def test_tuner_reference_table_is_built_once_per_grid_and_read_only():
    gammas = np.geomspace(1.0, 200.0, 40)
    x_stars = np.linspace(0.8, 1.3, 26)
    edges = np.linspace(0.0, 1.5, 41)
    cache = distribution._reference_table
    s1, s2 = _critical_pair()
    tune_gamma(s1, s2, 1.0, DT)
    before = cache.cache_info()
    tune_gamma(*_critical_pair(rate_slow=0.05, rate_fast=0.9), 1.0, DT)
    after = cache.cache_info()
    # one lookup per critical signal, both served from the one table
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    table = distribution.reference_table(gammas, x_stars, edges)
    assert distribution.reference_table(list(gammas), x_stars, edges) is table
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0.5
    assert np.array_equal(table, gompertz_reference_table(gammas, x_stars, edges))
    coarse = np.linspace(0.0, 1.5, 21)
    assert distribution.reference_table(gammas, x_stars, coarse).shape == (40, 26, 20)


def test_tuner_grid_table_stays_cached_across_generators(generator_specs):
    traj = synth_scenario("mixed", osc_params(noise_sigma=0.003, seed=4))
    config = AssessmentConfig(generators=generator_specs)
    assess(traj, config)
    misses = distribution._reference_table.cache_info().misses
    result = assess(traj, config)
    assert all(g.tuning is not None for g in result.per_generator)
    assert distribution._reference_table.cache_info().misses == misses


def test_tune_rejects_nonpositive_gamma_grid():
    s1, s2 = _critical_pair()
    for bad in ([0.0, 1.0, 2.0], [5.0, -1.0]):
        with pytest.raises(ValidationError):
            tune_gamma(s1, s2, 1.0, DT, gamma1_grid=np.array(bad))


# -- generator config -----------------------------------------------------------------

def test_generator_config_roundtrip(tmp_path):
    path = tmp_path / "gens.ini"
    path.write_text(
        "[G7]\n"
        "xd_prime = 0.3\n"
        "p_active = 0.9\n"
        "pickup = 1.8@20, 2.0@10\n"
        "\n"
        "[W1]\n"
        "xd_prime = 0\n"
        "p_active = 0\n"
        "lvrt = 0.9@1.5\n"
    )
    specs = load_generator_config(path)
    assert specs["G7"].pickups == ((1.8, 20.0), (2.0, 10.0))
    assert specs["G7"].xd_prime == 0.3
    assert specs["W1"].lvrt == ((0.9, 1.5),)


def test_the_readme_generator_config_loads(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    (block,) = re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    specs = load_generator_config(path)
    assert specs["G7"] == GeneratorSpec("G7", 0.3, 0.9, ((1.8, 20.0), (2.0, 10.0)))
    assert specs["W1"] == GeneratorSpec("W1", 0.0, 0.0, lvrt=((0.9, 1.5),))


def test_generator_config_rejects_malformed_pairs(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[G1]\nxd_prime=0.3\np_active=0.9\npickup = 1.8;20\n")
    with pytest.raises(ValidationError):
        load_generator_config(path)


def test_generator_spec_requires_protection_entries():
    with pytest.raises(ValidationError):
        GeneratorSpec(id="G9", xd_prime=0.3, p_active=0.9)


@pytest.mark.parametrize(
    "fields",
    [
        {"xd_prime": math.nan},
        {"xd_prime": math.inf},
        {"p_active": math.nan},
        {"p_active": -math.inf},
        {"pickups": ((math.nan, 20.0),)},
        {"pickups": ((1.8, math.inf),)},
        {"lvrt": ((math.nan, 1.5),)},
        {"lvrt": ((0.9, math.nan),)},
    ],
)
def test_generator_spec_rejects_non_finite_machine_data(fields):
    spec = {"id": "G9", "xd_prime": 0.3, "p_active": 0.9, "pickups": ((1.8, 20.0),)}
    with pytest.raises(ValidationError, match="^G9: "):
        GeneratorSpec(**{**spec, **fields})
