import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stvs.embed import augment_rocov, delay_embed
from stvs.errors import ComputationError, ValidationError
from stvs.lyapunov import (
    ExponentSeries,
    fsle_oscillation_series,
    fsle_residual_series,
    ftle_window,
    noise_bias_variance,
)

DT = 0.02


# -- single-window exponent -----------------------------------------------------

def test_ftle_window_equal_separations():
    assert ftle_window(1e-3, 1e-3, 5.0) == 0.0


def test_ftle_window_growth_by_e():
    assert ftle_window(1e-3, 1e-3 * np.e, 1.0) == pytest.approx(1.0)


def test_ftle_window_halving_over_two_seconds():
    assert ftle_window(0.1, 0.05, 2.0) == pytest.approx(-0.34657, abs=1e-5)


def test_ftle_window_rejects_degenerate_inputs():
    with pytest.raises(ValidationError):
        ftle_window(0.0, 0.1, 1.0)
    with pytest.raises(ValidationError):
        ftle_window(0.1, 0.1, 0.0)


# -- exponent series ---------------------------------------------------------------

def _series(lambdas):
    lambdas = np.asarray(lambdas, dtype=float)
    return ExponentSeries(lambdas, k_offsets=np.arange(1, len(lambdas) + 1), dt=DT)


def test_series_factors_are_the_exponential_of_the_exponents():
    lambdas = np.array([-1.5, 0.0, 0.3, np.inf])
    assert np.array_equal(_series(lambdas).divergence_factors, np.exp(lambdas))


def test_series_rejects_an_empty_series():
    with pytest.raises(ComputationError, match="^empty exponent series$"):
        _series([])


@pytest.mark.parametrize(
    "lambdas, factors",
    [
        ([-1.5, np.nan, 0.3], [np.exp(-1.5), np.nan, np.exp(0.3)]),  # NaN both
        ([-1.5, np.nan, 0.3], [np.exp(-1.5), 1.0, np.exp(0.3)]),  # NaN lambda
    ],
)
def test_series_rejects_nan_and_inconsistent_factors(lambdas, factors):
    # A NaN exponent is rejected whatever factor stood beside it; the
    # factors are derived, so the finite exponents carry theirs exactly.
    lambdas, factors = np.array(lambdas), np.array(factors)
    with pytest.raises(ComputationError, match="^NaN exponent in the series$"):
        _series(lambdas)
    finite = ~np.isnan(lambdas)
    assert np.array_equal(
        _series(lambdas[finite]).divergence_factors, factors[finite]
    )


# -- residual FSLE ----------------------------------------------------------------

def test_residual_flat_offset_gives_zero():
    r = np.full(100, 1.3)
    series = fsle_residual_series(r, eq0=1.0, dt=DT)
    assert np.allclose(series.lambdas, 0.0)
    assert np.allclose(series.divergence_factors, 1.0)


def test_residual_exponential_decay_exact():
    t = DT * np.arange(150)
    r = 1.0 + 0.3 * np.exp(-0.5 * t)
    series = fsle_residual_series(r, eq0=1.0, dt=DT)
    assert np.allclose(series.lambdas, -0.5, atol=1e-9)


def test_residual_exponential_growth_exact():
    t = DT * np.arange(150)
    r = 1.0 + 0.05 * np.exp(0.2 * t)
    series = fsle_residual_series(r, eq0=1.0, dt=DT)
    assert np.allclose(series.lambdas, 0.2, atol=1e-9)


def test_residual_below_floor_is_trivially_safe():
    r = np.full(100, 1.0) + 1e-6
    assert fsle_residual_series(r, eq0=1.0, dt=DT) is None


def test_residual_time_reversal_flips_sign():
    t = DT * np.arange(150)
    r = 1.0 + 0.3 * np.exp(-0.5 * t)
    fwd = fsle_residual_series(r, eq0=1.0, dt=DT)
    rev = fsle_residual_series(r[::-1], eq0=1.0, dt=DT)
    assert np.allclose(rev.lambdas, -fwd.lambdas, atol=1e-9)


@given(scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_residual_scale_invariance(scale):
    t = DT * np.arange(100)
    r = 1.0 + 0.3 * np.exp(-0.7 * t)
    a = fsle_residual_series(r, eq0=1.0, dt=DT)
    b = fsle_residual_series(scale * r, eq0=scale * 1.0, dt=DT)
    assert np.allclose(a.lambdas, b.lambdas, rtol=1e-9, atol=1e-12)


# -- oscillation-state FSLE -----------------------------------------------------------

def test_oscillation_series_reads_envelope_decay():
    t = np.arange(0, 3.0 + DT / 2, DT)
    sigs = [
        np.exp(-0.4 * t) * np.sin(2 * np.pi * 4.8 * t + p)
        for p in (0.0, 2.1, 4.2)
    ]
    states = augment_rocov(sigs)
    period = int(round(1 / (4.8 * DT)))
    points = delay_embed(states, m=4, tau=max(1, period // 4))
    series = fsle_oscillation_series(points, DT, anchor_window=period)
    late = series.k_offsets * DT > 1.0
    assert np.all(series.lambdas[late] > -0.55)
    assert np.all(series.lambdas[late] < -0.25)


def test_oscillation_series_flat_for_constant_amplitude():
    t = np.arange(0, 3.0 + DT / 2, DT)
    sigs = [np.sin(2 * np.pi * 4.8 * t + p) for p in (0.0, 2.1)]
    states = augment_rocov(sigs)
    period = int(round(1 / (4.8 * DT)))
    points = delay_embed(states, m=4, tau=max(1, period // 4))
    series = fsle_oscillation_series(points, DT, anchor_window=period)
    late = series.k_offsets * DT > 1.0
    assert np.all(np.abs(series.lambdas[late]) < 0.1)


# -- noise law ---------------------------------------------------------------------

def test_noise_bias_variance_noiseless():
    assert noise_bias_variance(0.0, 1.0, 0.1) == (0.0, 0.0)


def test_noise_bias_variance_plugin_values():
    bias, var = noise_bias_variance(0.01, 1.0, 0.1)
    assert bias == pytest.approx(-0.005)
    assert var == pytest.approx(0.01)


def test_noise_bias_variance_window_scaling():
    b1, v1 = noise_bias_variance(0.01, 1.0, 0.1)
    b2, v2 = noise_bias_variance(0.01, 0.5, 0.1)
    assert b2 == pytest.approx(2 * b1)
    assert v2 == pytest.approx(4 * v1)


def test_noise_law_monte_carlo():
    # Antithetic noise pairs cancel the O(eta) sampling term so the
    # systematic O(eta^2) shift is measurable at 1000 realizations.
    sigma, delta_t, t_window = 0.01, 0.1, 1.0
    rng = np.random.default_rng(314)
    half = rng.normal(0.0, sigma, 500)
    eta = np.concatenate([half, -half])
    lam = np.array(
        [ftle_window(delta_t, delta_t + e, t_window) for e in eta]
    )
    bias, var = noise_bias_variance(sigma, t_window, delta_t)
    assert abs(lam.mean() - bias) < 0.2 * abs(bias)
    assert abs(lam.var() - var) < 0.2 * var
