import math

import numpy as np
import pytest

from conftest import QV_K1, QV_K2
from stvs.emd import decompose
from stvs.errors import ValidationError
from stvs.ingest import extract_post_fault_window
from stvs.oel import GeneratorSpec
from stvs.synth import (
    ScenarioParams,
    TwoTimescaleParams,
    analytic_ftle,
    ground_truth_trips,
    simulate_two_timescale,
    synth_scenario,
)

BENCH = TwoTimescaleParams(a=1.0, omega=10.0, b=5.0, eps=0.01, z0=1.0)


def numeric_ftle(t, xyz, t_window):
    norms = np.linalg.norm(xyz, axis=1)
    k = int(round(t_window / (t[1] - t[0])))
    return float(np.log(norms[k] / norms[0]) / t[k])


# -- closed-form solution ----------------------------------------------------------

def test_slow_mode_is_exact():
    p = TwoTimescaleParams(a=5.0, omega=60.0, b=1.0, eps=0.05, z0=2.0)
    t, xyz = simulate_two_timescale(p, 2.0, 0.001)
    assert np.allclose(xyz[:, 2], 2.0 * np.exp(-0.05 * t), atol=1e-15)


def test_decoupled_zero_forcing_stays_at_origin():
    p = TwoTimescaleParams(a=5.0, omega=60.0, b=0.0, eps=0.05)
    _, xyz = simulate_two_timescale(p, 1.0, 0.001)
    assert np.all(xyz[:, 0] == 0.0)
    assert np.all(xyz[:, 1] == 0.0)


def rk4_oracle(p, t_end, dt):
    def rhs(s):
        x, y, z = s
        return np.array(
            [-p.a * x + p.omega * y + p.b * z, -p.omega * x - p.a * y, -p.eps * z]
        )

    n = int(round(t_end / dt))
    out = np.empty((n + 1, 3))
    s = np.array([p.x0, p.y0, p.z0], dtype=float)
    out[0] = s
    for i in range(n):
        k1 = rhs(s)
        k2 = rhs(s + 0.5 * dt * k1)
        k3 = rhs(s + 0.5 * dt * k2)
        k4 = rhs(s + dt * k3)
        s = s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i + 1] = s
    return out


def test_closed_form_matches_integrator_oracle():
    p = TwoTimescaleParams(a=5.0, omega=60.0, b=1.0, eps=0.05, z0=1.0)
    dt = 0.001
    _, xyz = simulate_two_timescale(p, 2.0, dt)
    fine = rk4_oracle(p, 2.0, dt / 100.0)
    assert np.max(np.abs(xyz - fine[::100])) < 1e-8


def test_resonant_denominator_rejected():
    with pytest.raises(ValidationError):
        simulate_two_timescale(
            TwoTimescaleParams(a=0.05, omega=0.0, b=1.0, eps=0.05), 1.0, 0.01
        )


# -- analytic window exponent -------------------------------------------------------

def test_analytic_ftle_reduces_to_slow_rate_without_coupling():
    p = TwoTimescaleParams(a=1.0, omega=10.0, b=0.0, eps=0.01)
    for t_window in (1.0, 5.0, 50.0):
        lam, _ = analytic_ftle(p, t_window)
        assert lam == pytest.approx(-0.01)


def test_analytic_ftle_asymptote():
    lam, _ = analytic_ftle(BENCH, 1e9)
    assert lam == pytest.approx(-BENCH.eps, abs=1e-9)


def test_numeric_ftle_matches_closed_form_within_5_percent():
    t, xyz = simulate_two_timescale(BENCH, 32.0, 0.01)
    for t_window in range(3, 31):
        lam, _ = analytic_ftle(BENCH, float(t_window))
        num = numeric_ftle(t, xyz, float(t_window))
        assert num == pytest.approx(lam, rel=0.05)


def test_positivity_window_bound_within_one_sample():
    dt = 0.01
    t, xyz = simulate_two_timescale(BENCH, 32.0, dt)
    _, bound = analytic_ftle(BENCH, 1.0)
    norms = np.linalg.norm(xyz, axis=1)
    lam_series = np.log(norms[1:] / norms[0]) / t[1:]
    # first crossing into negative territory after the early transient
    settled = t[1:] > 1.0
    idx = np.flatnonzero(settled & (lam_series <= 0.0))[0]
    crossing_time = t[1:][idx]
    assert abs(crossing_time - bound) <= dt + 1e-12


# -- scenarios -------------------------------------------------------------------------

def test_stable_osc_matches_constructive_formula():
    p = ScenarioParams(decay=0.4, n_channels=2)
    traj = synth_scenario("stable-osc", p)
    post = extract_post_fault_window(traj, p.post_s)
    t = post.dt * np.arange(post.n_samples)
    for m, ch in enumerate(post.channels):
        phase = 2 * np.pi * m / 2
        expected = 1.0 + p.osc_amp * np.exp(-0.4 * t) * np.sin(
            2 * np.pi * p.freq_hz * t + phase
        )
        assert np.allclose(ch.voltage, expected, atol=1e-12)


def test_stalled_scenario_holds_level_exactly():
    traj = synth_scenario("stalled-recovery", ScenarioParams(level=0.7))
    post = extract_post_fault_window(traj, 3.0)
    for ch in post.channels:
        assert np.all(ch.voltage == 0.7)


def test_reactive_power_follows_qv_line():
    p = ScenarioParams(k1=0.4, k2=0.8)
    traj = synth_scenario("fast-recovery", p)
    for ch in traj.channels:
        assert np.allclose(ch.reactive_power, (ch.voltage - 0.8) / 0.4, atol=1e-12)


def test_mixed_scenario_round_trips_through_emd():
    p = ScenarioParams(decay=0.2, recovery=0.1, dip=0.3, freq_hz=1.5)
    traj = synth_scenario("mixed", p)
    window = extract_post_fault_window(traj, 3.0)
    decomp = decompose(window)
    t = window.dt * np.arange(window.n_samples)
    expected_residual = 1.0 - 0.3 * np.exp(-0.1 * t)
    inner = (t >= 0.5) & (t <= 2.5)
    for ch in range(3):
        err = np.max(np.abs(decomp.residuals[ch][inner] - expected_residual[inner]))
        assert err < 0.01


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        synth_scenario("implausible-kind", ScenarioParams())


@pytest.mark.parametrize(
    "params, named",
    [
        (dict(seed=-1), "seed must not be negative, got -1"),
        (dict(prefault_s=-1.0), "prefault_s must not be negative, got -1.0"),
        (dict(fault_s=-1.0), "fault_s must not be negative, got -1.0"),
        (dict(fs=1e308), "fs x (prefault_s + fault_s + post_s) is inf samples"),
        (dict(fs=1e300), "fs x (prefault_s + fault_s + post_s) is 4.1e+300 samples"),
        (dict(fs=float("nan")), "fs x (prefault_s + fault_s + post_s) is nan samples"),
        (dict(post_s=1e308), "fs x (prefault_s + fault_s + post_s) is inf samples"),
        (dict(noise_sigma=-0.1), "noise_sigma must not be negative, got -0.1"),
    ],
)
def test_a_parameter_numpy_cannot_sample_is_one_validation_error(params, named):
    # every case is rejected before an array is allocated
    with pytest.raises(ValidationError) as exc:
        synth_scenario("mixed", ScenarioParams(**params))
    assert str(exc.value).startswith(named)


QV_BROKEN = "give a Q = (V - k2)/k1 that is not finite"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kind, params, named",
    [
        ("mixed", dict(k1=0.0), f"k1 = 0.0 and k2 = 0.9 {QV_BROKEN}"),
        ("mixed", dict(k1=1e-320), f"k1 = 1e-320 and k2 = 0.9 {QV_BROKEN}"),
        ("mixed", dict(k2=1e308), f"k1 = 0.5 and k2 = 1e+308 {QV_BROKEN}"),
        ("growing-osc", dict(growth=1e3),
         "the growing-osc voltage is not finite: a parameter takes it past float range"),
    ],
    ids=["k1-zero", "k1-subnormal", "k2-huge", "growth-overflow"],
)
def test_a_voltage_or_q_past_float_range_is_one_validation_error(kind, params, named):
    with pytest.raises(ValidationError) as exc:
        synth_scenario(kind, ScenarioParams(**params))
    assert str(exc.value) == named


@pytest.mark.parametrize(
    "params, samples",
    [
        (dict(fs=1e15), "4.1e+15"),
        (dict(post_s=1e15), "5e+16"),
        (dict(prefault_s=1e15), "5e+16"),
        (dict(fault_s=1e15), "5e+16"),
    ],
)
def test_a_sample_count_numpy_refuses_to_allocate_is_one_validation_error(params, samples):
    # below the largest index, but no array of that many samples fits in memory
    with pytest.raises(ValidationError) as exc:
        synth_scenario("mixed", ScenarioParams(**params))
    assert str(exc.value) == (
        f"fs x (prefault_s + fault_s + post_s) is {samples} samples, "
        f"not a count an array can hold"
    )


def test_scenario_is_seed_deterministic():
    p = ScenarioParams(noise_sigma=0.01, seed=3)
    a = synth_scenario("stable-osc", p)
    b = synth_scenario("stable-osc", p)
    for ca, cb in zip(a.channels, b.channels):
        assert np.array_equal(ca.voltage, cb.voltage)


# -- ground-truth trips ---------------------------------------------------------------------

# A 0.3 pu dip recovering at r/s sits below the 0.9 pu cap at 20 s
# exactly when exp(-20 r) > 1/3, that is for r < ln(3)/20.
RATE_BOUNDARY = math.log(3.0) / 20.0


@pytest.mark.parametrize("kind", ["mixed", "fast-recovery"])
@pytest.mark.parametrize("rate, trips", [(0.99 * RATE_BOUNDARY, True),
                                         (1.01 * RATE_BOUNDARY, False)])
def test_ground_truth_trips_at_the_recovery_boundary(generator_specs, kind, rate, trips):
    # the noise is dropped and the record runs past the 3 s it was given
    params = ScenarioParams(k1=QV_K1, k2=QV_K2, recovery=rate, noise_sigma=0.003)
    assert ground_truth_trips(kind, params, generator_specs) == {
        gen_id: trips for gen_id in generator_specs
    }


@pytest.mark.parametrize("level, trips", [(0.85, True), (0.95, False)])
def test_an_lvrt_entry_is_its_own_cap_in_the_ground_truth(level, trips):
    spec = GeneratorSpec(id="G1", xd_prime=0.0, p_active=0.0, lvrt=((0.9, 5.0),))
    params = ScenarioParams(n_channels=1, level=level)
    assert ground_truth_trips("stalled-recovery", params, {"G1": spec}) == {"G1": trips}


# -- convergence-time regimes ------------------------------------------------------------

def settle_time(p, t_end=80.0, dt=0.02, tol=0.1):
    """First time after which the numeric exponent stays within
    tol * eps of -eps until the end of the run."""
    t, xyz = simulate_two_timescale(p, t_end, dt)
    norms = np.linalg.norm(xyz, axis=1)
    lam = np.log(norms[1:] / norms[0]) / t[1:]
    inside = np.abs(lam - (-p.eps)) <= tol * p.eps
    if inside[-1]:
        k = len(inside) - 1
        while k > 0 and inside[k - 1]:
            k -= 1
        return t[1:][k]
    return np.inf


def test_convergence_time_ordering_across_regimes():
    # real monotone fast decay settles quickly; oscillatory decay with a
    # fast slow-mode recovery takes longer; oscillatory decay with slow
    # recovery takes longest
    short = settle_time(
        TwoTimescaleParams(a=5.0, omega=0.01, b=0.5, eps=0.05, z0=1.0)
    )
    medium = settle_time(
        TwoTimescaleParams(a=5.0, omega=20.0, b=15.0, eps=0.2, z0=1.0)
    )
    long_ = settle_time(
        TwoTimescaleParams(a=5.0, omega=20.0, b=15.0, eps=0.05, z0=1.0)
    )
    assert short < medium < long_
    assert np.isfinite(long_)
