"""Jump kernels: moments, periodization, validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.legendre import leggauss

from nlhom.kernels import (
    _PANEL_NODES,
    IntegrableKernel,
    _quadrature_nodes,
    box_kernel,
    gaussian_kernel,
    kernel_moments,
    laplace_kernel,
    triangle_kernel,
    wrapped_kernel_samples,
)
from nlhom.torus import TorusGrid


# -- oracle: high-resolution composite Gauss reference for moments ----------


def reference_moments(kernel, n_panels=4000, n_nodes=12):
    """Brute-force composite quadrature on uniform panels, independent of
    the breakpoint-split panel rule of kernels._quadrature_nodes."""
    R = kernel.truncation_radius
    edges = np.linspace(-R, R, n_panels + 1)
    xg, wg = leggauss(n_nodes)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    z = (mids[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    c = kernel.evaluate(z)
    return (np.sum(w * c), np.sum(w * np.abs(z) * c), np.sum(w * z * z * c))


def test_box_moments_closed_form():
    k = box_kernel()
    assert abs(k.a1 - 1.0) < 1e-12
    assert abs(k.s1 - 0.5) < 1e-12
    assert abs(k.s2 - 1.0 / 3.0) < 1e-12


def test_laplace_moments():
    k = laplace_kernel(rate=1.0, radius=40.0)
    assert abs(k.a1 - 1.0) < 1e-10
    assert abs(k.s1 - 1.0) < 1e-10
    assert abs(k.s2 - 2.0) < 1e-10


@pytest.mark.parametrize("rate", [0.3, 0.5])
def test_laplace_default_radius_keeps_slow_rates_accurate(rate):
    # a fixed radius of 40 dropped the tail mass e^{-40 rate}: at rate 0.3
    # a1 read 1 - 6.1e-6 and s2 22.2106 instead of 22.2222
    k = laplace_kernel(rate=rate)
    assert abs(k.a1 - 1.0) <= 1e-10
    assert abs(k.s2 - 2.0 / rate**2) <= 1e-9 * 2.0 / rate**2


def test_gaussian_moments_vs_reference_quadrature():
    k = gaussian_kernel()
    ref = reference_moments(k)
    assert abs(k.a1 - ref[0]) < 1e-10
    assert abs(k.s1 - ref[1]) < 1e-10
    assert abs(k.s2 - ref[2]) < 1e-10


def test_moments_invariant_under_radius_doubling():
    # once the tail is below 1e-10, enlarging R must not move the moments
    k1 = gaussian_kernel(width=0.2)
    k2 = gaussian_kernel(width=0.2, radius=2.0 * k1.truncation_radius)
    assert abs(k1.a1 - k2.a1) < 1e-10
    assert abs(k1.s2 - k2.s2) < 1e-10


def test_kernel_validation_errors():
    with pytest.raises(ValueError):  # asymmetric
        IntegrableKernel(lambda z: np.exp(-np.abs(z - 0.2)) * (np.abs(z) <= 3), 3.0)
    with pytest.raises(ValueError):  # negative
        IntegrableKernel(lambda z: -np.ones_like(np.asarray(z, dtype=float))
                         * (np.abs(z) <= 1), 1.0)
    with pytest.raises(ValueError):  # fat tail beyond R
        IntegrableKernel(lambda z: np.exp(-np.abs(z)), 2.0)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["gaussian", "laplace", "triangle", "box"]),
       u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_panel_moments_match_reference(family, u, v):
    # the one panel rule against the independent uniform-panel oracle
    kernel = {
        "gaussian": lambda: gaussian_kernel(width=0.05 + 0.35 * u),
        "laplace": lambda: laplace_kernel(rate=0.5 + 3.5 * u),
        "triangle": lambda: triangle_kernel(0.01 + 1.49 * u),
        "box": lambda: box_kernel(half_width=0.1 + 1.9 * u,
                                  height=0.1 + 1.9 * v),
    }[family]()
    ref = reference_moments(kernel)
    assert np.allclose((kernel.a1, kernel.s1, kernel.s2), ref, rtol=1e-13,
                       atol=0.0)


# -- the panel rule ----------------------------------------------------------

# every built-in family, each with breakpoints inside [0, R], from 2 panels
# a side (box, triangle) to 267 (Laplace at rate 0.3)
_BUILTIN_KERNELS = {
    "box": lambda: box_kernel(),
    "box-wide": lambda: box_kernel(2.5, 0.2),
    "triangle": lambda: triangle_kernel(0.3),
    "triangle-grid": lambda: triangle_kernel(1 / 64),
    "laplace": lambda: laplace_kernel(),
    "laplace-slow": lambda: laplace_kernel(0.3),
    "gaussian": lambda: gaussian_kernel(),
    "gaussian-wide": lambda: gaussian_kernel(0.6),
}

# (a1, s1, s2) of the kernels above as float.hex, recorded from the rule
# that called leggauss on every call: the module-constant rule must
# reproduce them bit for bit
_RECORDED_MOMENTS = {
    "box": ("0x1.0000000000000p+0", "0x1.0000000000000p-1",
            "0x1.5555555555558p-2"),
    "box-wide": ("0x1.0000000000000p+0", "0x1.4000000000000p+0",
                 "0x1.0aaaaaaaaaaacp+1"),
    "triangle": ("0x1.0000000000000p+0", "0x1.9999999999992p-4",
                 "0x1.eb851eb851eafp-7"),
    "triangle-grid": ("0x1.0000000000000p+0", "0x1.555555555554fp-8",
                      "0x1.555555555554fp-15"),
    "laplace": ("0x1.0000000000001p+0", "0x1.ffffffffffffdp-1",
                "0x1.fffffffffffe0p+0"),
    "laplace-slow": ("0x1.0000000000000p+0", "0x1.aaaaaaaaaaaa8p+1",
                     "0x1.638e38e38e378p+4"),
    "gaussian": ("0x1.0000000000003p+0", "0x1.677eafa68d3a1p-3",
                 "0x1.8c7e28240b773p-5"),
    "gaussian-wide": ("0x1.0000000000000p+0", "0x1.ea3863e31dac4p-2",
                      "0x1.70a3d70a3d700p-2"),
}


@pytest.mark.parametrize("name", sorted(_BUILTIN_KERNELS))
def test_quadrature_rule_is_mirrored_panel_by_panel(name):
    # cell._z_symbols sums over the positive half of the rule, so every
    # panel must be followed by its exact mirror image with equal weights
    kernel = _BUILTIN_KERNELS[name]()
    nodes, weights = _quadrature_nodes(kernel)
    z = nodes.reshape(-1, 2, _PANEL_NODES)
    w = weights.reshape(-1, 2, _PANEL_NODES)
    assert np.array_equal(z[:, 1], -z[:, 0])
    assert np.array_equal(w[:, 1], w[:, 0])
    assert np.all(z[:, 0] > 0.0) and np.all(z[:, 0] < kernel.truncation_radius)
    again = _quadrature_nodes(kernel)
    assert again[0].tobytes() == nodes.tobytes()
    assert again[1].tobytes() == weights.tobytes()


@pytest.mark.parametrize("name", sorted(_BUILTIN_KERNELS))
def test_kernel_moments_match_recorded_values(name):
    kernel = _BUILTIN_KERNELS[name]()
    moments = kernel_moments(kernel)
    assert tuple(float(v).hex() for v in moments) == _RECORDED_MOMENTS[name]
    assert moments == (kernel.a1, kernel.s1, kernel.s2)


# -- periodization -----------------------------------------------------------


def test_periodize_box_unit_scale_is_flat():
    g = TorusGrid(64)
    v = wrapped_kernel_samples(box_kernel(), g.x, 1.0, eps=1.0)
    # translates of the half-open box tile the torus exactly (midpoint edges)
    assert np.max(np.abs(v - 1.0)) < 1e-14


def test_periodize_box_scaled_mass():
    g = TorusGrid(128)
    v = wrapped_kernel_samples(box_kernel(), g.x, 1.0, eps=0.25)
    mass = float(np.sum(v) * g.h)
    assert abs(mass - 1.0) < 1e-8


def test_periodize_delta_limit():
    g = TorusGrid(64)
    v = wrapped_kernel_samples(triangle_kernel(g.h), g.x, 1.0, eps=1.0)
    expected = np.zeros(g.n)
    expected[0] = 1.0 / g.h
    assert np.max(np.abs(v - expected)) < 1e-12
    assert abs(np.sum(v) * g.h - 1.0) < 1e-12


def test_periodize_symmetry():
    g = TorusGrid(64)
    for kern in (box_kernel(), gaussian_kernel()):
        v = wrapped_kernel_samples(kern, g.x, 1.0, eps=0.25)
        assert np.max(np.abs(v[1:] - v[1:][::-1])) < 1e-12


def test_periodize_commutes_with_symmetrization():
    # symmetrizing the kernel before or after periodization must agree
    g = TorusGrid(64)
    base = gaussian_kernel(width=0.2)

    def skewed(z):
        z = np.asarray(z, dtype=float)
        return base.evaluate(z) * (1.0 + 0.2 * np.tanh(3 * z))

    def symmetrized(z):
        return 0.5 * (skewed(z) + skewed(-np.asarray(z, dtype=float)))

    sym_kernel = IntegrableKernel(symmetrized, base.truncation_radius,
                                  name="symmetrized")
    v_sym = wrapped_kernel_samples(sym_kernel, g.x, 1.0, eps=0.25)
    # periodize the skewed kernel directly (raw wrapped sum, bypassing the
    # evenness validation) and symmetrize the sample vector by index negation
    raw = _raw_wrap(skewed, base.truncation_radius, g, 0.25)
    v_after = np.r_[raw[0], 0.5 * (raw[1:] + raw[1:][::-1])]
    assert np.max(np.abs(v_sym - v_after)) < 1e-12


def _raw_wrap(fn, R, grid, eps):
    """Wrapped-sum periodization of an arbitrary callable (test helper)."""
    out = np.zeros(grid.n)
    kmax = int(np.ceil(R * eps + 1))
    for k in range(-kmax, kmax + 1):
        out += fn((grid.x + k) / eps) / eps
    return out


def test_wrapped_samples_laplace_unit_scale():
    # unrestricted wrapping handles support far beyond the period
    g = TorusGrid(64)
    k = laplace_kernel()
    v = wrapped_kernel_samples(k, g.x, 1.0, eps=1.0)
    # the kink at z = 0 makes the trapezoid mass accurate only to the
    # aliasing tail ~ 2/(2 pi n)^2, not machine precision
    assert abs(np.sum(v) * g.h - k.a1) < 2.0 / (2 * np.pi * g.n) ** 2 * 2
    # closed form: sum_j (1/2) e^{-|z+j|} = cosh(1/2 - frac) / (2 sinh(1/2))-type
    z = g.x[5]
    expected = 0.5 * (np.exp(-z) + np.exp(z - 1.0)) / (1.0 - np.exp(-1.0))
    assert abs(v[5] - expected) < 1e-10


def test_samplers_match_densities():
    rng = np.random.default_rng(42)
    for kern in (box_kernel(), laplace_kernel(), gaussian_kernel(), triangle_kernel(0.7)):
        x = kern.sampler(rng, 20000)
        assert np.max(np.abs(x)) <= kern.truncation_radius + 1e-12
        # second moment of the normalized density is s2/a1
        target = kern.s2 / kern.a1
        se = np.std(x**2) / np.sqrt(len(x))
        assert abs(np.mean(x**2) - target) < 4 * se + 1e-3
