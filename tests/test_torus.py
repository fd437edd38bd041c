"""Spectral torus calculus: round trips, multipliers, convolution, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from field_oracle import circular_convolution, evaluate
from nlhom.torus import (
    PeriodicField,
    TorusGrid,
    _multiplier_matrix,
    _symbol_column,
    derivative_symbol,
    field_from_function,
    fractional_symbol,
    spectral_derivative,
)
from nonlocal_oracle import fractional_laplacian_pointwise

TWO_PI = 2.0 * np.pi


def _rng(seed=0):
    return np.random.default_rng(seed)


def one_cell_matrix(column):
    """Torus matrix of the multiplier with this first column: the single
    Bloch block of the one-cell case, which must come out real."""
    blocks = _multiplier_matrix(column, column.size)
    assert blocks.shape == (1, column.size, column.size)
    assert blocks.dtype == np.float64
    return blocks[0]


def symbol_matrix(symbol):
    return one_cell_matrix(_symbol_column(symbol))


def fractional_laplacian(f, alpha):
    """(-Delta)^(alpha/2) f as the operators apply it: the multiplier
    |2 pi k|^alpha."""
    k = f.grid.wavenumbers().astype(float)
    return f.apply_multiplier(fractional_symbol(k, alpha))


def random_band_limited(grid, rng, max_mode=None, scale=1.0):
    """Random real field with modes strictly below max_mode (default n/4)."""
    if max_mode is None:
        max_mode = grid.n // 4
    c = np.zeros(grid.n, dtype=complex)
    for k in range(1, max_mode):
        z = rng.normal() + 1j * rng.normal()
        c[k] = z
        c[-k] = np.conj(z)
    c[0] = rng.normal()
    return PeriodicField.from_coeffs(grid, scale * c / max(1, max_mode))


# ---------------------------------------------------------------------------
# grid and field basics
# ---------------------------------------------------------------------------


def test_grid_validation():
    for bad in (7, 12, 0, -8, 4):
        with pytest.raises(ValueError):
            TorusGrid(bad)
    g = TorusGrid(16)
    assert g.h == pytest.approx(1.0 / 16)
    assert g.x[0] == 0.0 and g.x[-1] == pytest.approx(1.0 - 1.0 / 16)
    assert TorusGrid(np.int64(16)) == g


@pytest.mark.parametrize("n", [64.7, 64.0, "64", None, True])
def test_grid_refuses_non_integer_n(n):
    # int(n) turned 64.7 and "64" into a grid of 64 points
    with pytest.raises(ValueError, match="n must be an integer"):
        TorusGrid(n)


def test_field_values_immutable():
    g = TorusGrid(8)
    f = field_from_function(g, lambda x: np.sin(TWO_PI * x))
    with pytest.raises((ValueError, RuntimeError)):
        f.values[0] = 3.0
    _ = f.coeffs
    with pytest.raises((ValueError, RuntimeError)):
        f.coeffs[0] = 1.0 + 0j


def test_round_trip_identity():
    g = TorusGrid(64)
    rng = _rng(1)
    f = PeriodicField(g, rng.normal(size=g.n))
    back = PeriodicField.from_coeffs(g, f.coeffs)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_evaluate_matches_grid_samples():
    g = TorusGrid(32)
    f = field_from_function(g, lambda x: np.exp(np.sin(TWO_PI * x)))
    assert_allclose(evaluate(f, g.x), f.values, atol=1e-12)
    # interpolation of a band-limited function is exact off-grid too
    h = field_from_function(g, lambda x: np.cos(TWO_PI * 3 * x) + 0.5)
    pts = np.array([0.013, 0.41, 0.777])
    assert_allclose(evaluate(h, pts), np.cos(TWO_PI * 3 * pts) + 0.5, atol=1e-12)


@pytest.mark.parametrize("p", [1, 3, 16, 24, 64, 100, 128, 1000])
def test_uniform_samples_are_the_interpolant(p):
    # every mode up to the Nyquist cosine, on a stride (p | n), on a padded
    # grid of 2n points (p = 128) and on padded grids that are not powers
    # of two
    g = TorusGrid(64)
    f = PeriodicField(g, _rng(4).normal(size=g.n))
    samples = f.uniform_samples(p)
    assert samples.shape == (p,)
    assert_allclose(samples, evaluate(f, np.arange(p) / p), atol=1e-13)
    if g.n % p == 0:
        assert np.array_equal(samples, f.values[::g.n // p])


def test_uniform_samples_reject_empty_grid():
    with pytest.raises(ValueError, match="p must be at least 1"):
        PeriodicField(TorusGrid(8), np.ones(8)).uniform_samples(0)


def test_shift_is_exact_translation():
    g = TorusGrid(64)
    f = field_from_function(g, lambda x: np.sin(TWO_PI * x) + 0.3 * np.cos(TWO_PI * 4 * x))
    z = 0.2371
    shifted = f.shifted(z)
    assert_allclose(shifted.values, evaluate(f, g.x - z), atol=1e-12)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_derivative_single_mode():
    g = TorusGrid(32)
    f = field_from_function(g, lambda x: np.sin(TWO_PI * x))
    df = spectral_derivative(f, 1)
    assert_allclose(df.values, TWO_PI * np.cos(TWO_PI * g.x), atol=1e-12)
    d2f = spectral_derivative(f, 2)
    assert_allclose(d2f.values, -(TWO_PI**2) * np.sin(TWO_PI * g.x), atol=1e-11)


def test_derivative_order_validation():
    g = TorusGrid(16)
    f = field_from_function(g, lambda x: np.cos(TWO_PI * x))
    with pytest.raises(ValueError):
        spectral_derivative(f, 0)


def test_derivative_matrix_consistency():
    g = TorusGrid(32)
    rng = _rng(2)
    f = random_band_limited(g, rng)
    k = g.wavenumbers().astype(float)
    for order in (1, 2):
        D = symbol_matrix(derivative_symbol(k, order))
        assert_allclose(D @ f.values, spectral_derivative(f, order).values, atol=1e-10)
    # first-derivative matrix is antisymmetric, second symmetric
    D1 = symbol_matrix(derivative_symbol(k, 1))
    D2 = symbol_matrix(derivative_symbol(k, 2))
    assert np.max(np.abs(D1 + D1.T)) < 1e-10
    assert np.max(np.abs(D2 - D2.T)) < 1e-10


# ---------------------------------------------------------------------------
# fractional Laplacian
# ---------------------------------------------------------------------------


def test_fractional_laplacian_single_mode():
    g = TorusGrid(64)
    f = field_from_function(g, lambda x: np.cos(TWO_PI * x))
    out = fractional_laplacian(f, 1.5)
    assert_allclose(out.values, (TWO_PI**1.5) * np.cos(TWO_PI * g.x), atol=1e-11)


def test_fractional_laplacian_annihilates_constants():
    g = TorusGrid(16)
    f = PeriodicField(g, np.full(g.n, 2.7))
    out = fractional_laplacian(f, 0.9)
    assert np.max(np.abs(out.values)) < 1e-13


def test_fractional_laplacian_alpha_range():
    g = TorusGrid(16)
    f = field_from_function(g, lambda x: np.sin(TWO_PI * x))
    for bad in (0.0, 2.0, -0.3, 2.4):
        with pytest.raises(ValueError):
            fractional_laplacian(f, bad)


def test_fractional_laplacian_against_pv_quadrature():
    # real-space singular quadrature with analytic near-field derivatives:
    # an independent route to the same operator
    def f(y):
        return np.cos(TWO_PI * y)

    def d2(y):
        return -(TWO_PI**2) * np.cos(TWO_PI * y)

    def d4(y):
        return (TWO_PI**4) * np.cos(TWO_PI * y)

    g = TorusGrid(64)
    fld = field_from_function(g, f)
    alpha = 1.5
    spec = fractional_laplacian(fld, alpha)
    for x0 in (0.0, 0.3):
        pv = fractional_laplacian_pointwise(f, x0, alpha, periodic=True, d2=d2, d4=d4)
        assert abs(pv - evaluate(spec, np.array([x0]))[0]) < 1e-6


def test_fractional_laplacian_pv_multimode():
    def f(y):
        return np.cos(TWO_PI * y) + 0.5 * np.sin(2 * TWO_PI * y)

    def d2(y):
        return -(TWO_PI**2) * np.cos(TWO_PI * y) - 0.5 * (2 * TWO_PI) ** 2 * np.sin(2 * TWO_PI * y)

    def d4(y):
        return (TWO_PI**4) * np.cos(TWO_PI * y) + 0.5 * (2 * TWO_PI) ** 4 * np.sin(2 * TWO_PI * y)

    g = TorusGrid(64)
    spec = fractional_laplacian(field_from_function(g, f), 0.8)
    pv = fractional_laplacian_pointwise(f, 0.11, 0.8, periodic=True, d2=d2, d4=d4)
    assert abs(pv - evaluate(spec, np.array([0.11]))[0]) < 1e-6


def test_fractional_laplacian_matrix_consistency():
    g = TorusGrid(32)
    f = random_band_limited(g, _rng(3))
    F = symbol_matrix(fractional_symbol(g.wavenumbers().astype(float), 1.2))
    assert_allclose(F @ f.values, fractional_laplacian(f, 1.2).values, atol=1e-10)
    assert np.max(np.abs(F - F.T)) < 1e-10


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_convolution_single_modes():
    # convolving e^{2 pi i k x} against kernel c multiplies by the k-th
    # Fourier coefficient of c times the period
    g = TorusGrid(64)
    ker = field_from_function(g, lambda x: 1.0 + np.cos(TWO_PI * x))
    f = field_from_function(g, lambda x: np.cos(TWO_PI * x))
    out = circular_convolution(f, ker.values)
    # hat c(1) = 1/2, so c * cos(2 pi x) = 0.5 cos(2 pi x)
    assert_allclose(out.values, 0.5 * np.cos(TWO_PI * g.x), atol=1e-12)


def test_convolution_length_mismatch():
    g = TorusGrid(16)
    f = field_from_function(g, lambda x: np.sin(TWO_PI * x))
    with pytest.raises(ValueError):
        circular_convolution(f, np.ones(8))


def test_convolution_matrix_consistency():
    g = TorusGrid(32)
    rng = _rng(4)
    f = random_band_limited(g, rng)
    ker = np.abs(rng.normal(size=g.n)) + 0.1
    C = one_cell_matrix(ker * g.h)
    assert_allclose(C @ f.values, circular_convolution(f, ker).values, atol=1e-12)
    # even kernel samples give a symmetric circulant
    ker_even = np.r_[ker[0], 0.5 * (ker[1:] + ker[1:][::-1])]
    C2 = one_cell_matrix(ker_even * g.h)
    assert np.max(np.abs(C2 - C2.T)) < 1e-14


# ---------------------------------------------------------------------------
# property-based invariants
# ---------------------------------------------------------------------------


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_parseval(seed):
    g = TorusGrid(64)
    f = PeriodicField(g, np.random.default_rng(seed).normal(size=g.n))
    grid_norm2 = np.sum(f.values**2) * g.h
    coeff_norm2 = np.sum(np.abs(f.coeffs) ** 2)
    assert abs(grid_norm2 - coeff_norm2) <= 1e-12 * max(1.0, grid_norm2)


@given(seed=st.integers(0, 10_000), alpha=st.floats(0.2, 1.8))
@settings(max_examples=25, deadline=None)
def test_multiplier_linearity_and_real_output(seed, alpha):
    g = TorusGrid(32)
    rng = np.random.default_rng(seed)
    f = random_band_limited(g, rng)
    h = random_band_limited(g, rng)
    a, b = rng.normal(size=2)
    combo = PeriodicField(g, a * f.values + b * h.values)
    for op in (
        lambda u: spectral_derivative(u, 1),
        lambda u: fractional_laplacian(u, alpha),
    ):
        lhs = op(combo).values
        rhs = a * op(f).values + b * op(h).values
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * scale
        assert np.isrealobj(lhs)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_derivative_kills_constants_and_commutes_with_shift(seed):
    g = TorusGrid(32)
    rng = np.random.default_rng(seed)
    f = random_band_limited(g, rng)
    const = PeriodicField(g, np.full(g.n, float(rng.normal())))
    assert np.max(np.abs(spectral_derivative(const, 1).values)) < 1e-12
    z = float(rng.uniform(0, 1))
    a = spectral_derivative(f.shifted(z), 1).values
    b = spectral_derivative(f, 1).shifted(z).values
    assert np.max(np.abs(a - b)) < 1e-10
