"""Spectral torus calculus: round trips, multipliers, convolution, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from field_oracle import circular_convolution, evaluate
from nlhom.torus import (
    PeriodicField,
    TorusGrid,
    _apply_symbol,
    _multiplier_matrix,
    derivative_symbol,
    field_from_function,
    fractional_symbol,
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


def full_wavenumbers(n):
    """Integer wavenumbers in FFT order (0, 1, ..., n/2 - 1, -n/2, ..., -1)."""
    return np.fft.fftfreq(n, d=1.0 / n)


def half_wavenumbers(n):
    """Wavenumbers of the half spectrum (0, 1, ..., n/2), rfft order."""
    return np.arange(n // 2 + 1.0)


def symbol_matrix(symbol):
    """Torus matrix of the multiplier with a full-order symbol (FFT order),
    its first column by a full complex inverse FFT."""
    return one_cell_matrix(np.fft.ifft(symbol).real)


def fractional_laplacian(f, alpha):
    """(-Delta)^(alpha/2) f as the operators apply it: the multiplier
    |2 pi k|^alpha."""
    k = half_wavenumbers(f.grid.n)
    return f.with_values(_apply_symbol(f.values, fractional_symbol(k, alpha)))


def random_band_limited(grid, rng, max_mode=None, scale=1.0):
    """Random real field with modes strictly below max_mode (default n/4),
    from its full complex spectrum."""
    if max_mode is None:
        max_mode = grid.n // 4
    c = np.zeros(grid.n, dtype=complex)
    for k in range(1, max_mode):
        z = rng.normal() + 1j * rng.normal()
        c[k] = z
        c[-k] = np.conj(z)
    c[0] = rng.normal()
    c *= scale * grid.n / max(1, max_mode)
    return PeriodicField(grid, np.fft.ifft(c).real)


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
    df = f.derivative(1)
    assert_allclose(df.values, TWO_PI * np.cos(TWO_PI * g.x), atol=1e-12)
    d2f = f.derivative(2)
    assert_allclose(d2f.values, -(TWO_PI**2) * np.sin(TWO_PI * g.x), atol=1e-11)


def test_derivative_order_validation():
    g = TorusGrid(16)
    f = field_from_function(g, lambda x: np.cos(TWO_PI * x))
    with pytest.raises(ValueError):
        f.derivative(0)


def test_derivative_matrix_consistency():
    g = TorusGrid(32)
    rng = _rng(2)
    f = random_band_limited(g, rng)
    # full-order symbols: derivative_symbol zeroes the Nyquist entry, the
    # one of largest |k|, in FFT order too
    k = full_wavenumbers(g.n)
    for order in (1, 2):
        D = symbol_matrix(derivative_symbol(k, order))
        assert_allclose(D @ f.values, f.derivative(order).values, atol=1e-10)
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
    F = symbol_matrix(fractional_symbol(full_wavenumbers(g.n), 1.2))
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
        lambda u: u.derivative(1),
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
    assert np.max(np.abs(const.derivative(1).values)) < 1e-12
    z = float(rng.uniform(0, 1))
    a = f.shifted(z).derivative(1).values
    b = f.derivative(1).shifted(z).values
    assert np.max(np.abs(a - b)) < 1e-10


@given(seed=st.integers(0, 10_000), n=st.sampled_from([8, 16, 32, 64, 128]),
       alpha=st.floats(0.2, 1.8))
@settings(max_examples=30, deadline=None)
def test_half_spectrum_convention(seed, n, alpha):
    # one convention: every symbol is a half spectrum k = 0 ... n/2, and
    # _apply_symbol is the dense matrix built from it.  Rounding of the FFT
    # against the dense product stays below n u max|s| max|v| (measured at
    # most 5e-16 of max|s| max|v| for n = 8 ... 128); a shift by whole grid
    # steps rounds its phases to at most 2e-14 of max|v|
    g = TorusGrid(n)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)  # every mode, the Nyquist cosine included
    k = half_wavenumbers(n)
    bound = n * np.finfo(float).eps * np.max(np.abs(v))
    for symbol in [derivative_symbol(k, order) for order in (1, 2, 3)] \
            + [fractional_symbol(k, alpha)]:
        dense = _multiplier_matrix(np.fft.irfft(symbol), n)[0]
        assert np.max(np.abs(_apply_symbol(v, symbol) - dense @ v)) \
            <= bound * np.max(np.abs(symbol))
    # the derivative on every mode against a full complex FFT, whose real
    # part drops the odd orders' imaginary Nyquist term
    field = PeriodicField(g, v)
    spectrum = np.fft.fft(v)
    for order in (1, 2, 3):
        ref = np.fft.ifft((2j * np.pi * full_wavenumbers(n)) ** order
                          * spectrum).real
        assert np.max(np.abs(field.derivative(order).values - ref)) \
            <= bound * (np.pi * n) ** order
    j = int(rng.integers(0, n))
    assert_allclose(field.shifted(j / n).values, np.roll(v, j),
                    rtol=0, atol=1e-12 * np.max(np.abs(v)))
    # odd orders kill the Nyquist cosine, even orders keep it
    nyquist = PeriodicField(g, np.cos(np.pi * np.arange(n)))
    for order in (1, 3):
        scale = (np.pi * n) ** order * n * np.finfo(float).eps
        assert np.max(np.abs(nyquist.derivative(order).values)) <= scale
    assert_allclose(nyquist.derivative(2).values,
                    -(np.pi * n) ** 2 * nyquist.values, rtol=1e-13)
