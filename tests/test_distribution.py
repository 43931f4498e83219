import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import histogram_oracle, kl_oracle, reference_oracle
from stvs import distribution
from stvs.distribution import (
    MAX_BINS,
    gompertz_reference_table,
    kl_divergence_table,
    kl_index,
    reference_table,
)
from stvs.errors import ValidationError


def probabilities(factors, bins, lo, hi):
    """The histogram ``kl_index`` scores: the binned factors' shares."""
    counts, _ = distribution._bin_counts(factors, bins, lo, hi)
    return counts / counts.sum()


# -- histogram -------------------------------------------------------------------

def test_point_mass_at_unity():
    edges = np.linspace(0.0, 1.5, 21)
    p = probabilities(np.full(25, 1.0), 20, 0.0, 1.5)
    nz = np.flatnonzero(p)
    assert len(nz) == 1
    assert edges[nz[0]] <= 1.0 < edges[nz[0] + 1]
    assert p[nz[0]] == 1.0
    # scored, the whole mass in that one bin gives 1 ln(1 / q)
    q = reference_table([10.0], [1.0], edges)[0, 0]
    kl = kl_index(np.full(25, 1.0), (20, 0.0, 1.5), [10.0], [1.0])
    assert kl[0, 0] == np.log(1.0 / q[nz[0]])


def test_three_factors_three_equal_bins():
    p = probabilities(np.array([0.9, 1.0, 1.1]), 20, 0.0, 1.5)
    nz = np.flatnonzero(p)
    assert len(nz) == 3
    assert np.allclose(p[nz], 1.0 / 3.0)


def test_uniform_law_of_large_numbers():
    rng = np.random.default_rng(100)
    factors = rng.uniform(0.0, 1.5, 1000)
    p = probabilities(factors, 20, 0.0, 1.5)
    assert np.max(np.abs(p - 0.05)) < 0.02


def test_out_of_range_factors_clamp_to_edge_bins():
    p = probabilities(np.array([-3.0, 0.2, 9.9]), 10, 0.0, 1.5)
    assert p[0] > 0  # clamped low outlier
    assert p[-1] > 0  # clamped explosive factor


def test_histogram_rejects_empty_and_bad_grid():
    with pytest.raises(ValidationError):
        kl_index(np.array([]), (20, 0.0, 1.5), [10.0], [1.0])
    with pytest.raises(ValidationError):
        kl_index(np.array([1.0]), (1, 0.0, 1.5), [10.0], [1.0])
    with pytest.raises(ValidationError):
        kl_index(np.array([1.0]), (20, 1.5, 0.0), [10.0], [1.0])


@pytest.mark.parametrize(
    "grid, message",
    [
        ((20.0, 0.0, 1.5), "bins must be an integer, got 20.0"),
        ((1, 0.0, 1.5), "need at least 2 bins"),
        ((20, 0.0, np.inf), "grid range [0.0, inf] must be finite"),
        ((20, np.nan, 1.5), "grid range [nan, 1.5] must be finite"),
        ((20, 1.5, 0.0), "invalid range [1.5, 0.0]"),
        ((20, -1e308, 1e308), "grid range [-1e+308, 1e+308] is wider than a float can hold"),
        ((MAX_BINS + 1, 0.0, 1.5), f"{MAX_BINS + 1} bins: not a count an array can hold"),
    ],
    ids=["float-bins", "one-bin", "infinite-hi", "nan-lo", "reversed", "too-wide", "past-cap"],
)
def test_every_index_grid_gets_the_one_grid_check(grid, message):
    edges = distribution._bin_edges(20, 0.0, 1.5)  # cached: 20.0 must not hit it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            kl_index(np.array([1.0]), grid, [10.0], [1.0])
    assert str(err.value) == message
    assert distribution._bin_edges(20, 0.0, 1.5) is edges


def test_a_grid_of_max_bins_is_built():
    # uncached, so that its 16 MB do not stay
    edges, keys = distribution._bin_edges.__wrapped__(MAX_BINS, 0.0, 1.5)
    assert len(edges) == MAX_BINS + 1 and len(keys) == MAX_BINS + 2
    assert (edges[0], edges[-1]) == (0.0, 1.5)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_histogram_invariant_under_permutation(seed):
    rng = np.random.default_rng(seed)
    factors = rng.uniform(0.0, 1.5, 60)
    gammas, x_stars = np.array([1.0, 10.0, 80.0]), np.array([0.9, 1.0])
    a = kl_index(factors, (20, 0.0, 1.5), gammas, x_stars)
    b = kl_index(rng.permutation(factors), (20, 0.0, 1.5), gammas, x_stars)
    assert np.array_equal(a, b)


# The grids the binning is checked on: the assess defaults (oscillation and
# recovery) and a few with negative, tiny and wide ranges.
GRIDS = [
    (20, 0.0, 1.5),
    (40, 0.0, 1.5),
    (2, -1.0, 1.0),
    (7, 0.1, 0.1 + 1e-9),
    (33, -250.0, 1e3),
]


@st.composite
def factors_on_a_grid(draw):
    """A grid and factors drawn from its edges, lo, hi, ±inf, NaN and floats."""
    bins, lo, hi = draw(st.sampled_from(GRIDS))
    edges = np.linspace(lo, hi, bins + 1)
    special = st.sampled_from(
        [*edges.tolist(), lo, hi, np.inf, -np.inf, np.nan]
    )
    span = hi - lo
    inside = st.floats(
        min_value=lo - span, max_value=hi + span, allow_nan=False
    )
    values = draw(st.lists(st.one_of(special, inside), min_size=0, max_size=60))
    return (bins, lo, hi), np.array(values, dtype=float)


@given(drawn=factors_on_a_grid())
@settings(max_examples=400, deadline=None)
def test_binning_equals_numpy_histogram_of_clamped_factors(drawn):
    (bins, lo, hi), f = drawn
    want, edges = histogram_oracle(f, bins, lo, hi)
    if want.sum() == 0:  # nothing but NaN, or nothing at all
        with pytest.raises(ValidationError, match="^no divergence factors to bin$"):
            kl_index(f, (bins, lo, hi), [10.0], [1.0])
        return
    counts, got_edges = distribution._bin_counts(f, bins, lo, hi)
    assert counts.dtype == want.dtype
    assert np.array_equal(counts, want)
    assert np.array_equal(got_edges, edges)
    # the scorer equals the checked public table function on the same values
    gammas, x_stars = np.array([1.0, 10.0, 80.0]), np.array([0.9, 1.0])
    table = reference_table(gammas, x_stars, edges)
    assert np.array_equal(
        kl_index(f, (bins, lo, hi), gammas, x_stars),
        kl_divergence_table(want / want.sum(), table),
    )


def test_all_nan_factors_raise_the_empty_input_error():
    for f in (np.array([]), np.full(5, np.nan)):
        with pytest.raises(ValidationError, match="^no divergence factors to bin$"):
            kl_index(f, (20, 0.0, 1.5), [10.0], [1.0])


def test_bin_edges_are_cached_read_only_and_equal_a_fresh_grid():
    edges, keys = distribution._bin_edges(20, 0.0, 1.5)
    again = distribution._bin_edges(20, 0.0, 1.5)
    assert again[0] is edges and again[1] is keys
    for array in (edges, keys):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.5
    assert np.array_equal(edges, np.linspace(0.0, 1.5, 21))
    assert np.array_equal(keys, np.append(np.linspace(0.0, 1.5, 21), np.nan), equal_nan=True)
    assert distribution._bin_counts(np.array([1.0]), 20, 0.0, 1.5)[1] is edges


# -- Gompertz reference -------------------------------------------------------------

def test_large_gamma_becomes_a_step():
    edges = np.linspace(0.0, 1.5, 21)
    ref = gompertz_reference_table([1e3], [1.0], edges)[0, 0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    below = centers < 1.0
    assert ref[below].sum() > 0.999


def test_reference_normalized_and_decreasing():
    edges = np.linspace(0.0, 1.5, 21)
    ref = gompertz_reference_table([10.0], [1.0], edges)[0, 0]
    assert ref.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(ref) <= 0)
    assert np.all(ref > 0)
    # strictly decreasing across the shift point
    ic = np.searchsorted(edges, 1.0) - 1
    assert ref[ic - 1] > ref[ic] > ref[ic + 1]


def test_reference_survives_extreme_gamma_without_zeros():
    edges = np.linspace(0.0, 1.5, 41)
    ref = gompertz_reference_table([200.0], [0.8], edges)[0, 0]
    assert np.all(ref > 0)
    assert ref.sum() == pytest.approx(1.0, abs=1e-12)


def test_reference_rejects_nonpositive_gamma():
    edges = np.linspace(0.0, 1.5, 21)
    with pytest.raises(ValidationError):
        gompertz_reference_table([0.0], [1.0], edges)
    with pytest.raises(ValidationError):
        gompertz_reference_table([-3.0], [1.0], edges)


@pytest.mark.parametrize(
    "n_gamma, n_x, gamma_hi",
    [(40, 26, 200.0), (118, 76, 200.0), (15, 11, 1e3)],
    ids=["default-grid", "fine-grid", "floored"],
)
def test_reference_table_rows_match_single_point_bit_for_bit(n_gamma, n_x, gamma_hi):
    edges = np.linspace(0.0, 1.5, 41)
    gammas = np.geomspace(1.0, gamma_hi, n_gamma)
    x_stars = np.linspace(0.8, 1.3, n_x)
    table = gompertz_reference_table(gammas, x_stars, edges)
    assert table.shape == (n_gamma, n_x, 40)
    for gi, gamma in enumerate(gammas):
        for xi, x_star in enumerate(x_stars):
            assert np.array_equal(table[gi, xi], reference_oracle(gamma, x_star, edges))
    if gamma_hi >= 1e3:
        assert np.any(table <= 2 * np.finfo(float).tiny)  # the floor applied


def test_reference_table_rejects_bad_grid():
    edges = np.linspace(0.0, 1.5, 21)
    for gammas in ([1.0, 0.0], [-2.0, 5.0], [np.nan]):
        with pytest.raises(ValidationError):
            gompertz_reference_table(np.array(gammas), np.array([1.0]), edges)
    with pytest.raises(ValidationError):
        gompertz_reference_table(np.array([1.0]), np.array([1.0]), np.array([0.0, 1.5]))
    with pytest.raises(ValidationError):
        gompertz_reference_table(np.array([1.0]), np.array([1.0]), edges[::-1])


# -- KL divergence -------------------------------------------------------------------

def test_kl_identical_distributions_is_exactly_zero():
    ref = gompertz_reference_table([10.0], [1.0], np.linspace(0.0, 1.5, 21))[0, 0]
    assert kl_divergence_table(ref, ref) == 0.0


def test_kl_two_bin_hand_computation():
    d = kl_divergence_table(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    assert d == pytest.approx(np.log(2.0), abs=1e-12)


def test_kl_rejects_zero_reference_bin():
    with pytest.raises(ValidationError):
        kl_divergence_table(np.array([0.5, 0.5]), np.array([1.0, 0.0]))


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_kl_gibbs_inequality(seed):
    rng = np.random.default_rng(seed)
    p_raw = rng.uniform(0, 1, 12)
    q_raw = rng.uniform(0.05, 1, 12)
    p, q = p_raw / p_raw.sum(), q_raw / q_raw.sum()
    d = kl_divergence_table(p, q)
    assert d >= 0.0
    if not np.allclose(p, q):
        assert d > 0.0
    assert kl_divergence_table(p, p) == 0.0


def test_kl_table_matches_single_point_bit_for_bit():
    rng = np.random.default_rng(7)
    edges = np.linspace(0.0, 1.5, 41)
    gammas = np.geomspace(1.0, 200.0, 40)
    x_stars = np.linspace(0.8, 1.3, 26)
    table = gompertz_reference_table(gammas, x_stars, edges)
    p = probabilities(rng.uniform(0.3, 1.2, 90), 40, 0.0, 1.5)
    assert np.any(p == 0)  # the zero bins are skipped
    scores = kl_divergence_table(p, table)
    assert scores.shape == (40, 26)
    for gi, gamma in enumerate(gammas):
        for xi, x_star in enumerate(x_stars):
            assert scores[gi, xi] == kl_oracle(p, table[gi, xi])
            assert scores[gi, xi] == kl_oracle(p, reference_oracle(gamma, x_star, edges))


def test_kl_table_rejects_zero_reference_bin_and_bin_mismatch():
    p = np.array([0.5, 0.5])
    with pytest.raises(ValidationError):
        kl_divergence_table(p, np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        kl_divergence_table(p, np.full((2, 3), 1.0 / 3.0))
