"""Shared fixtures: synthetic scenario presets with known ground truth."""

import numpy as np
import pytest

from stvs.oel import GeneratorSpec
from stvs.synth import ScenarioParams

# Oscillation family preset: a 4.8 Hz main mode whose envelope carries
# the damping under test, a faint persistent ambient mode and a
# fast-decaying fault remnant, mirroring the texture of real post-fault
# records.
OSC_PRESET = dict(
    freq_hz=4.8,
    osc_amp=0.05,
    ambient_amp=0.005,
    ambient_freq_hz=2.9,
    tr_amp=0.01,
    tr_freq_hz=7.7,
    tr_decay=3.0,
)

# Q-V line baked into scenario reactive power and the matching machine
# data that yields a 0.9 pu voltage cap.
QV_K1, QV_K2 = 0.4, 0.8
XD_PRIME, P_ACTIVE = 0.25, 0.85
V_CAP_TARGET = 0.9


def pickup_level(v_cap=V_CAP_TARGET, xd=XD_PRIME, p=P_ACTIVE, k1=QV_K1, k2=QV_K2):
    return float(
        np.sqrt((v_cap + (xd / k1) * (v_cap - k2) / v_cap) ** 2 + (xd * p / v_cap) ** 2)
    )


def osc_params(**overrides) -> ScenarioParams:
    merged = {**OSC_PRESET, "k1": QV_K1, "k2": QV_K2, **overrides}
    return ScenarioParams(**merged)


def three_generator_specs() -> dict[str, GeneratorSpec]:
    """G1-G3, each with one pickup at the 0.9 pu cap behind 20 s."""
    e_i = pickup_level()
    return {
        f"G{i}": GeneratorSpec(
            id=f"G{i}",
            xd_prime=XD_PRIME,
            p_active=P_ACTIVE,
            pickups=((e_i, 20.0),),
        )
        for i in (1, 2, 3)
    }


@pytest.fixture
def generator_specs():
    return three_generator_specs()


# Point-by-point oracles for the vectorised reference and KL paths: the
# single-point formulas in the exact elementwise order the table forms
# must reproduce bit for bit.

def reference_oracle(gamma, x_star, edges):
    centers = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(over="ignore"):
        log_sigma = -np.exp(gamma * (centers - x_star))
    p = np.exp(log_sigma - log_sigma.max())
    p /= p.sum()
    p = np.maximum(p, np.finfo(float).tiny)
    p /= p.sum()
    return p


def kl_oracle(p, q):
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] / q[nz])))


def histogram_oracle(f, bins, lo, hi):
    """The counts np.histogram gives on the clamped factors, and the edges."""
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(np.clip(f, lo, hi), bins=edges)
    return counts, edges


def kl_index_oracle(factors, grid, gamma, x_star):
    """The KL index of the factors binned on grid = (bins, lo, hi) against
    the (gamma, x*) reference, built from the oracles above."""
    counts, edges = histogram_oracle(factors, *grid)
    return kl_oracle(counts / counts.sum(), reference_oracle(gamma, x_star, edges))
