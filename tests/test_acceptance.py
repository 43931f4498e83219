"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines alongside the pytest result.
"""

import io
import json
import time

import numpy as np
import pytest

from conftest import kl_index_oracle, osc_params
from stvs.cli import run
from stvs.distribution import kl_divergence_table
from stvs.emd import (
    count_extrema,
    count_zero_crossings,
    decompose,
    filter_imfs_by_frequency,
)
from stvs.indices import (
    GAMMA1_DEFAULT,
    X_STAR_DEFAULT,
    AssessmentConfig,
    assess,
    oscillation_index,
)
from stvs.ingest import extract_post_fault_window
from stvs.lyapunov import fsle_residual_series, ftle_window, noise_bias_variance
from stvs.oel import _ev_residual, recovery_scores, tune_gamma, voltage_cap
from stvs.synth import (
    ScenarioParams,
    TwoTimescaleParams,
    analytic_ftle,
    simulate_two_timescale,
    synth_scenario,
)


class Stopwatch:
    def __init__(self, budget_s):
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget_s, f"runtime {elapsed:.1f}s over budget"
        return elapsed


def report(criterion, detail, elapsed):
    print(f"PASS criterion {criterion}: {detail} [{elapsed:.2f}s]")


def test_criterion_1_imf_threshold_reproduction(capsys):
    watch = Stopwatch(1.0)
    code = run(
        ["thresholds", "--bins", "20", "--lo", "0", "--hi", "1.5", "--gamma2", "10"]
    )
    out = capsys.readouterr().out
    assert code == 0
    value = json.loads(out)["imf_critical"]
    assert value == pytest.approx(2.09, abs=0.05)
    elapsed = watch.check()
    with capsys.disabled():
        report(1, f"thresholds CLI returned {value:.4f} (2.09 +/- 0.05)", elapsed)


def test_criterion_2_two_timescale_ftle_law(capsys):
    watch = Stopwatch(10.0)
    params = TwoTimescaleParams(a=1.0, omega=10.0, b=5.0, eps=0.01, z0=1.0)
    dt = 0.01
    traj = simulate_two_timescale(params, 32.0, dt)
    norms = traj.norms()
    worst = 0.0
    for t_window in range(3, 31):
        k = int(round(t_window / dt))
        numeric = float(np.log(norms[k] / norms[0]) / traj.t[k])
        lam, _ = analytic_ftle(params, float(t_window))
        rel = abs(numeric - lam) / abs(lam)
        worst = max(worst, rel)
        assert rel <= 0.05
    _, bound = analytic_ftle(params, 1.0)
    lam_series = np.log(norms[1:] / norms[0]) / traj.t[1:]
    settled = traj.t[1:] > 1.0
    crossing = traj.t[1:][np.flatnonzero(settled & (lam_series <= 0.0))[0]]
    assert abs(crossing - bound) <= dt + 1e-12
    elapsed = watch.check()
    with capsys.disabled():
        report(
            2,
            f"max rel err {worst:.3%} over T in [3,30]; sign change "
            f"{crossing:.2f}s vs bound {bound:.2f}s",
            elapsed,
        )


def test_criterion_3_noise_law(capsys):
    watch = Stopwatch(30.0)
    sigma, delta_t, t_window = 0.01, 0.1, 1.0  # sigma/delta = 0.1, T = 1 s
    rng = np.random.default_rng(314)
    half = rng.normal(0.0, sigma, 500)
    eta = np.concatenate([half, -half])  # 1000 antithetic realizations
    lam = np.array([ftle_window(delta_t, delta_t + e, t_window) for e in eta])
    bias, variance = noise_bias_variance(sigma, t_window, delta_t)
    bias_err = abs(lam.mean() - bias) / abs(bias)
    var_err = abs(lam.var() - variance) / variance
    assert bias_err <= 0.2
    assert var_err <= 0.2
    elapsed = watch.check()
    with capsys.disabled():
        report(
            3,
            f"mean shift off by {bias_err:.1%}, variance off by {var_err:.1%} "
            f"(both within 20%)",
            elapsed,
        )


def test_criterion_4_emd_correctness(capsys):
    watch = Stopwatch(5.0)
    traj = synth_scenario(
        "mixed",
        ScenarioParams(
            freq_hz=1.5, osc_amp=0.05, decay=0.0, recovery=0.4, dip=0.3
        ),
    )
    window = extract_post_fault_window(traj, 3.0)
    decomp = decompose(window)
    t = window.dt * np.arange(window.n_samples)
    expected_residual = 1.0 - 0.3 * np.exp(-0.4 * t)
    inner = (t >= 0.5) & (t <= 2.5)
    worst_resid = 0.0
    for ch in range(decomp.n_channels):
        for imf in decomp.imfs[ch]:
            assert abs(count_extrema(imf) - count_zero_crossings(imf)) <= 1
        recon_err = np.max(
            np.abs(decomp.reconstruct(ch) - window.channels[ch].voltage)
        )
        assert recon_err < 1e-9
        resid_err = np.max(
            np.abs(decomp.residuals[ch][inner] - expected_residual[inner])
        )
        worst_resid = max(worst_resid, resid_err)
        assert resid_err < 0.01
    elapsed = watch.check()
    with capsys.disabled():
        report(
            4,
            f"mode condition, exact reconstruction, residual within "
            f"{worst_resid:.4f} pu of the exponential",
            elapsed,
        )


def test_criterion_5_kl_properties(capsys):
    watch = Stopwatch(5.0)
    rng = np.random.default_rng(77)
    for _ in range(1000):
        p_raw = rng.uniform(0.0, 1.0, 20)
        q_raw = rng.uniform(0.05, 1.0, 20)
        p, q = p_raw / p_raw.sum(), q_raw / q_raw.sum()
        d = kl_divergence_table(p, q)
        assert d >= 0.0
        assert d > 0.0  # distinct by construction (continuous draws)
        assert kl_divergence_table(p, p) == 0.0
    d2 = kl_divergence_table(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert d2 == pytest.approx(np.log(2.0), abs=1e-12)
    elapsed = watch.check()
    with capsys.disabled():
        report(5, "Gibbs inequality on 1000 seeded pairs; ln 2 to 1e-12", elapsed)


def test_criterion_6_index_monotonicity(capsys):
    watch = Stopwatch(20.0)
    osc_values = []
    for decay in (0.05, 0.1, 0.2, 0.4, 0.8):
        traj = synth_scenario("stable-osc", osc_params(decay=decay))
        window = extract_post_fault_window(traj, 3.0)
        decomp = filter_imfs_by_frequency(decompose(window), (0.0, 10.0))
        osc_values.append(oscillation_index(decomp).value)
    assert all(a > b for a, b in zip(osc_values, osc_values[1:]))

    rec_values = []
    shape = [GAMMA1_DEFAULT], [X_STAR_DEFAULT]
    for rate in (0.05, 0.1, 0.5, 1.0, 2.0):
        traj = synth_scenario("fast-recovery", ScenarioParams(recovery=rate, dip=0.3))
        window = extract_post_fault_window(traj, 3.0)
        decomp = filter_imfs_by_frequency(decompose(window), (0.0, 10.0))
        residual = decomp.residuals[0]
        series = fsle_residual_series(residual, eq0=1.0, dt=window.dt)
        weight = abs(1.0 - residual[0])
        rec_values.append(recovery_scores(series, weight, *shape)[0, 0])
    assert all(a > b for a, b in zip(rec_values, rec_values[1:]))
    elapsed = watch.check()
    with capsys.disabled():
        report(
            6,
            "oscillation "
            + " > ".join(f"{v:.3f}" for v in osc_values)
            + "; recovery "
            + " > ".join(f"{v:.4f}" for v in rec_values),
            elapsed,
        )


def _stream_scenario(monkeypatch, capsys, kind, **overrides):
    traj = synth_scenario(kind, osc_params(**overrides))
    cols = ["time"] + [f"V:{ch.id}" for ch in traj.channels]
    lines = [",".join(cols)]
    t = traj.times()
    for i in range(traj.n_samples):
        row = [repr(float(t[i]))] + [
            repr(float(ch.voltage[i])) for ch in traj.channels
        ]
        lines.append(",".join(row))
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code = run(["assess", "--stream", "--t0", "1.1", "--report-interval", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    return [json.loads(ln) for ln in out.strip().splitlines()]


def test_criterion_7_detection_latency(monkeypatch, capsys):
    watch = Stopwatch(10.0)
    for kind, expected, overrides in (
        ("stable-osc", "stable", dict(decay=0.4)),
        ("growing-osc", "unstable", dict(growth=0.4)),
    ):
        docs = _stream_scenario(monkeypatch, capsys, kind, **overrides)
        assert len(docs) >= 20
        settled = [d for d in docs if d["latency_s"] >= 0.6 - 1e-9]
        assert settled[0]["latency_s"] <= 0.6 + 1e-9
        classes = {d["oscillation"]["class"] for d in settled}
        assert classes == {expected}
    elapsed = watch.check()
    with capsys.disabled():
        report(
            7,
            "stable and growing scenarios classified correctly and "
            "immutably from 0.6 s of data",
            elapsed,
        )


def test_criterion_8_trip_prediction_from_three_seconds(capsys, generator_specs):
    watch = Stopwatch(10.0)
    # a barely-creeping stalled recovery: far too slow to clear the
    # 0.9 pu cap by its 20 s pickup
    traj = synth_scenario(
        "stalled-recovery",
        osc_params(level=0.7, stall_osc_amp=0.01, stall_creep=0.004),
    )
    window_available = (traj.n_samples - traj.fault_clear_index) * traj.dt
    assert window_available <= 3.1  # only 3 s of post-fault data exists
    result = assess(traj, AssessmentConfig(generators=generator_specs))
    tripped = [g for g in result.per_generator if g.classification == "trip"]
    assert len(tripped) == 3, "stalled recovery must be predicted to trip"
    assert all(g.threshold is not None for g in tripped)
    assert all(g.margin > 0 for g in tripped)
    elapsed = watch.check()
    with capsys.disabled():
        report(
            8,
            f"{len(tripped)}/3 generators predicted to trip against a "
            f"20 s pickup using 3 s of data",
            elapsed,
        )


def test_criterion_9_voltage_cap_oracle(capsys):
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(123)
    worst_gap = 0.0
    for _ in range(100):
        xd = rng.uniform(0.1, 0.5)
        p = rng.uniform(0.3, 1.2)
        k1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
        k2 = rng.uniform(0.7, 1.1)
        v_target = rng.uniform(0.3, 1.7)
        e_i = float(
            np.sqrt(
                (v_target + (xd / k1) * (v_target - k2) / v_target) ** 2
                + (xd * p / v_target) ** 2
            )
        )
        got = voltage_cap(e_i, xd, p, k1, k2, v_current=v_target)
        assert abs(_ev_residual(got, e_i, xd, p, k1, k2)) < 1e-9
        # 1e-6-step grid scan oracle around the admissible range
        v = np.arange(1e-6, 2.0, 1e-6)
        res = _ev_residual(v, e_i, xd, p, k1, k2)
        flips = np.flatnonzero(np.sign(res[:-1]) != np.sign(res[1:]))
        roots = v[flips] - res[flips] * 1e-6 / (res[flips + 1] - res[flips])
        gap = float(np.min(np.abs(roots - got)))
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-5
    elapsed = watch.check()
    with capsys.disabled():
        report(
            9,
            f"100 seeded parameter sets: residual < 1e-9, worst oracle "
            f"gap {worst_gap:.2e}",
            elapsed,
        )


def test_criterion_10_tuner_oracle(capsys):
    watch = Stopwatch(30.0)
    from stvs.indices import classify

    dt = 0.02
    t = dt * np.arange(151)
    s1 = 1.0 - 0.25 * np.exp(-0.12 * t) - 0.02
    s2 = 1.0 - 0.25 * np.exp(-0.5 * t) + 0.01
    grid = (40, 0.0, 1.5)
    gammas = np.geomspace(1.0, 200.0, 40)
    x_stars = np.linspace(0.8, 1.3, 26)
    result = tune_gamma(s1, s2, 1.0, dt, gamma1_grid=gammas, x_star_grid=x_stars)

    def index_of(signal, gamma, x_star):
        series = fsle_residual_series(signal, eq0=1.0, dt=dt)
        kl = kl_index_oracle(series.divergence_factors, grid, gamma, x_star)
        return abs(1.0 - signal[0]) * kl

    diffs = {
        (g, x): abs(index_of(s1, g, x) - index_of(s2, g, x))
        for g in gammas
        for x in x_stars
    }
    f_star = min(diffs.values())
    best = min(
        (k for k, v in diffs.items() if v <= 2 * f_star + 1e-15),
        key=lambda k: (k[0], k[1]),
    )
    assert result.f_star == pytest.approx(f_star, rel=1e-12)
    assert result.gamma1 == pytest.approx(best[0], rel=1e-12)

    fine = tune_gamma(
        s1, s2, 1.0, dt,
        gamma1_grid=np.geomspace(1.0, 200.0, 118),
        x_star_grid=np.linspace(0.8, 1.3, 76),
    )
    log_step = np.log(gammas[1]) - np.log(gammas[0])
    assert abs(np.log(fine.gamma1) - np.log(result.gamma1)) <= log_step + 1e-9

    for d in (result.d_s1, result.d_s2):
        label, _ = classify(d, result.d_critical_r, result.epsilon)
        assert label == "critical"
    elapsed = watch.check()
    with capsys.disabled():
        report(
            10,
            f"exhaustive search agrees (f*={f_star:.4g}, gamma1="
            f"{result.gamma1:.3g}); s1/s2 land in the critical band",
            elapsed,
        )
