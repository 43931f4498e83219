import numpy as np
import pytest

from stvs.embed import augment_rocov, delay_embed, normalize_channels
from stvs.errors import ValidationError


# -- ROCOV augmentation --------------------------------------------------------

def test_rocov_constant_channel_gives_zero_difference():
    states = augment_rocov([np.full(10, 0.97)])
    assert states.shape == (9, 2)
    assert np.all(states[:, 1] == 0.0)


def test_rocov_ramp_gives_constant_difference():
    states = augment_rocov([0.01 * np.arange(20.0)])
    assert np.allclose(states[:, 1], 0.01)


def test_rocov_sine_difference_matches_derivative():
    dt, f = 0.02, 1.5
    t = dt * np.arange(200)
    states = augment_rocov([np.sin(2 * np.pi * f * t)])
    w = 2 * np.pi * f * dt
    analytic = w * np.cos(2 * np.pi * f * t[1:])
    assert np.max(np.abs(states[:, 1] - analytic)) < w**2


def test_rocov_needs_two_samples():
    with pytest.raises(ValidationError):
        augment_rocov([np.array([1.0])])


def test_rocov_output_geometry():
    states = augment_rocov([np.ones(40), np.ones(40)])
    assert states.shape == (39, 4)


# -- delay embedding -----------------------------------------------------------

def test_embed_m1_is_identity():
    states = np.random.default_rng(1).standard_normal((30, 2))
    assert np.array_equal(delay_embed(states, m=1, tau=1), states)


def test_embed_length_bound():
    # needs length > (m-1)*tau + 1: nine states cannot support m=3, tau=4
    states = np.random.default_rng(1).standard_normal((9, 1))
    with pytest.raises(ValidationError):
        delay_embed(states, m=3, tau=4)
    boundary = np.random.default_rng(1).standard_normal((10, 1))
    assert len(delay_embed(boundary, m=3, tau=4)) == 2


def test_embed_point_count_and_dimension():
    states = np.random.default_rng(1).standard_normal((150, 4))
    assert delay_embed(states, m=2, tau=5).shape == (145, 8)


def test_embed_recovers_state_sequence():
    states = np.random.default_rng(5).standard_normal((60, 3))
    points = delay_embed(states, m=3, tau=4)
    assert np.array_equal(points[:, :3], states[: len(points)])


@pytest.mark.parametrize("m, tau", [(0, 1), (3, 0), (-1, 2)])
def test_embed_rejects_a_dimension_or_delay_below_one(m, tau):
    states = np.random.default_rng(1).standard_normal((30, 2))
    with pytest.raises(ValidationError) as exc:
        delay_embed(states, m=m, tau=tau)
    assert str(exc.value) == f"invalid embedding parameters m={m}, tau={tau}"


# -- normalization ----------------------------------------------------------------

def test_normalize_channels_zero_mean_unit_rms():
    rng = np.random.default_rng(9)
    out = normalize_channels([5.0 + 0.3 * rng.standard_normal(100)])
    assert abs(out[0].mean()) < 1e-12
    assert np.sqrt(np.mean(out[0] ** 2)) == pytest.approx(1.0)


def test_normalize_rejects_constant():
    with pytest.raises(ValidationError):
        normalize_channels([np.full(50, 1.0)])
