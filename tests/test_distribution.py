import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kl_oracle, reference_oracle
from stvs import distribution
from stvs.distribution import (
    DivergenceHistogram,
    gompertz_reference,
    gompertz_reference_table,
    histogram,
    kl_divergence,
    kl_divergence_table,
    kl_index,
    reference_table,
)
from stvs.errors import ValidationError


# -- histogram -------------------------------------------------------------------

def test_point_mass_at_unity():
    h = histogram(np.full(25, 1.0), 20, 0.0, 1.5)
    nz = np.flatnonzero(h.probabilities)
    assert len(nz) == 1
    assert h.bin_edges[nz[0]] <= 1.0 < h.bin_edges[nz[0] + 1]
    assert h.probabilities[nz[0]] == 1.0


def test_three_factors_three_equal_bins():
    h = histogram(np.array([0.9, 1.0, 1.1]), 20, 0.0, 1.5)
    nz = np.flatnonzero(h.probabilities)
    assert len(nz) == 3
    assert np.allclose(h.probabilities[nz], 1.0 / 3.0)


def test_uniform_law_of_large_numbers():
    rng = np.random.default_rng(100)
    factors = rng.uniform(0.0, 1.5, 1000)
    h = histogram(factors, 20, 0.0, 1.5)
    assert np.max(np.abs(h.probabilities - 0.05)) < 0.02


def test_out_of_range_factors_clamp_to_edge_bins():
    h = histogram(np.array([-3.0, 0.2, 9.9]), 10, 0.0, 1.5)
    assert h.probabilities[0] > 0  # clamped low outlier
    assert h.probabilities[-1] > 0  # clamped explosive factor


def test_histogram_rejects_empty_and_bad_grid():
    with pytest.raises(ValidationError):
        histogram(np.array([]), 20, 0.0, 1.5)
    with pytest.raises(ValidationError):
        histogram(np.array([1.0]), 1, 0.0, 1.5)
    with pytest.raises(ValidationError):
        histogram(np.array([1.0]), 20, 1.5, 0.0)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=30, deadline=None)
def test_histogram_invariant_under_permutation(seed):
    rng = np.random.default_rng(seed)
    factors = rng.uniform(0.0, 1.5, 60)
    a = histogram(factors, 20, 0.0, 1.5)
    b = histogram(rng.permutation(factors), 20, 0.0, 1.5)
    assert np.array_equal(a.probabilities, b.probabilities)


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


def histogram_oracle(f, bins, lo, hi):
    """The counts np.histogram gives on the clamped factors."""
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(np.clip(f, lo, hi), bins=edges)
    return counts, edges


@given(drawn=factors_on_a_grid())
@settings(max_examples=400, deadline=None)
def test_binning_equals_numpy_histogram_of_clamped_factors(drawn):
    (bins, lo, hi), f = drawn
    want, edges = histogram_oracle(f, bins, lo, hi)
    if want.sum() == 0:  # nothing but NaN, or nothing at all
        for bin_it in (
            lambda: histogram(f, bins, lo, hi),
            lambda: kl_index(f, (bins, lo, hi), [10.0], [1.0]),
        ):
            with pytest.raises(ValidationError, match="^no divergence factors to bin$"):
                bin_it()
        return
    counts, got_edges = distribution._bin_counts(f, bins, lo, hi)
    assert counts.dtype == want.dtype
    assert np.array_equal(counts, want)
    assert np.array_equal(got_edges, edges)
    h = histogram(f, bins, lo, hi)
    assert np.array_equal(h.probabilities, want / want.sum())
    assert np.array_equal(h.bin_edges, edges)
    # the scorer equals the checked public pair on the same values
    gammas, x_stars = np.array([1.0, 10.0, 80.0]), np.array([0.9, 1.0])
    table = reference_table(gammas, x_stars, edges)
    assert np.array_equal(
        kl_index(f, (bins, lo, hi), gammas, x_stars),
        kl_divergence_table(want / want.sum(), table),
    )


def test_all_nan_factors_raise_the_empty_input_error():
    for f in (np.array([]), np.full(5, np.nan)):
        with pytest.raises(ValidationError, match="^no divergence factors to bin$"):
            histogram(f, 20, 0.0, 1.5)
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
    assert histogram(np.array([1.0]), 20, 0.0, 1.5).bin_edges is edges


# -- Gompertz reference -------------------------------------------------------------

def test_large_gamma_becomes_a_step():
    edges = np.linspace(0.0, 1.5, 21)
    ref = gompertz_reference(1e3, 1.0, edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    below = centers < 1.0
    assert ref.probabilities[below].sum() > 0.999


def test_reference_normalized_and_decreasing():
    edges = np.linspace(0.0, 1.5, 21)
    ref = gompertz_reference(10.0, 1.0, edges)
    assert ref.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(ref.probabilities) <= 0)
    assert np.all(ref.probabilities > 0)
    # strictly decreasing across the shift point
    ic = np.searchsorted(edges, 1.0) - 1
    assert ref.probabilities[ic - 1] > ref.probabilities[ic] > ref.probabilities[ic + 1]


def test_reference_survives_extreme_gamma_without_zeros():
    edges = np.linspace(0.0, 1.5, 41)
    ref = gompertz_reference(200.0, 0.8, edges)
    assert np.all(ref.probabilities > 0)
    assert ref.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_reference_rejects_nonpositive_gamma():
    edges = np.linspace(0.0, 1.5, 21)
    with pytest.raises(ValidationError):
        gompertz_reference(0.0, 1.0, edges)
    with pytest.raises(ValidationError):
        gompertz_reference(-3.0, 1.0, edges)


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
            row = table[gi, xi]
            assert np.array_equal(row, gompertz_reference(gamma, x_star, edges).probabilities)
            assert np.array_equal(row, reference_oracle(gamma, x_star, edges))
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
    edges = np.linspace(0.0, 1.5, 21)
    ref = gompertz_reference(10.0, 1.0, edges)
    p = DivergenceHistogram(bin_edges=edges, probabilities=ref.probabilities)
    assert kl_divergence(p, ref) == 0.0


def test_kl_two_bin_hand_computation():
    edges = np.array([0.0, 0.5, 1.0])
    p = DivergenceHistogram(bin_edges=edges, probabilities=np.array([1.0, 0.0]))
    q = DivergenceHistogram(bin_edges=edges, probabilities=np.array([0.5, 0.5]))
    assert kl_divergence(p, q) == pytest.approx(np.log(2.0), abs=1e-12)


def test_kl_rejects_zero_reference_bin():
    edges = np.array([0.0, 0.5, 1.0])
    p = DivergenceHistogram(bin_edges=edges, probabilities=np.array([0.5, 0.5]))
    q = DivergenceHistogram(bin_edges=edges, probabilities=np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        kl_divergence(p, q)


def test_kl_rejects_grid_mismatch():
    p = DivergenceHistogram(
        bin_edges=np.linspace(0, 1.5, 21), probabilities=np.full(20, 0.05)
    )
    q = gompertz_reference(10.0, 1.0, np.linspace(0, 2.0, 21))
    with pytest.raises(ValidationError):
        kl_divergence(p, q)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_kl_gibbs_inequality(seed):
    rng = np.random.default_rng(seed)
    edges = np.linspace(0.0, 1.5, 13)
    p_raw = rng.uniform(0, 1, 12)
    q_raw = rng.uniform(0.05, 1, 12)
    p = DivergenceHistogram(bin_edges=edges, probabilities=p_raw / p_raw.sum())
    q = DivergenceHistogram(bin_edges=edges, probabilities=q_raw / q_raw.sum())
    d = kl_divergence(p, q)
    assert d >= 0.0
    if not np.allclose(p.probabilities, q.probabilities):
        assert d > 0.0
    assert kl_divergence(p, p) == 0.0


def test_kl_table_matches_single_point_bit_for_bit():
    rng = np.random.default_rng(7)
    edges = np.linspace(0.0, 1.5, 41)
    gammas = np.geomspace(1.0, 200.0, 40)
    x_stars = np.linspace(0.8, 1.3, 26)
    table = gompertz_reference_table(gammas, x_stars, edges)
    h = histogram(rng.uniform(0.3, 1.2, 90), 40, 0.0, 1.5)
    assert np.any(h.probabilities == 0)  # the zero bins are skipped
    scores = kl_divergence_table(h.probabilities, table)
    assert scores.shape == (40, 26)
    for gi, gamma in enumerate(gammas):
        for xi, x_star in enumerate(x_stars):
            ref = gompertz_reference(gamma, x_star, edges)
            assert scores[gi, xi] == kl_divergence(h, ref)
            assert scores[gi, xi] == kl_oracle(h.probabilities, table[gi, xi])


def test_kl_table_rejects_zero_reference_bin_and_bin_mismatch():
    p = np.array([0.5, 0.5])
    with pytest.raises(ValidationError):
        kl_divergence_table(p, np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        kl_divergence_table(p, np.full((2, 3), 1.0 / 3.0))
