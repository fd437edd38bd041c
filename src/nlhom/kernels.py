"""Integrable jump kernels: moments, periodization, sampling.

The nonlocal part of the Part I operators is built from an even, nonnegative,
integrable kernel c with finite second moment.  Kernels are truncated at a
radius R chosen so the neglected tail mass is below a configured tolerance.
The lab integrates a kernel against z on one rule, the symmetric
Gauss-Legendre panels of :func:`_quadrature_nodes`: the moments cached on
the kernel object here, and the z-integrals of the cell (``cell._z_symbols``).
Every panel maps the one _PANEL_NODES-point Gauss-Legendre rule, computed
once at import.  The rule on [-R, R] is the half rule on [0, R]
(:func:`_half_rule`) mirrored panel by panel; the cell sums over the half
rule alone.

Periodization: the scaled kernel (1/eps) c(z/eps) is wrapped onto a periodic
domain by summing translates (:func:`wrapped_kernel_samples`).  This is what
turns the full-line convolution of the multiscale operator into a circular
convolution on periodic grids, whose first column is :func:`jump_column`.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .torus import _check_positive

__all__ = [
    "IntegrableKernel",
    "kernel_moments",
    "wrapped_kernel_samples",
    "jump_column",
    "box_kernel",
    "laplace_kernel",
    "gaussian_kernel",
    "triangle_kernel",
]

_SYMMETRY_TOL = 1e-12
_TAIL_TOL = 1e-10
# Gauss-Legendre nodes per panel, and the longest panel, of the kernel rule
_PANEL_NODES = 48
_PANEL_MAX_LEN = 0.5
# the _PANEL_NODES-point Gauss-Legendre rule on [-1, 1], computed once
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(_PANEL_NODES)


@dataclass(frozen=True)
class IntegrableKernel:
    """Even nonnegative jump kernel c(z) truncated at radius R.

    Parameters
    ----------
    evaluate : callable
        Vectorized z -> c(z) >= 0; must vanish for |z| > R up to tail_tol.
    truncation_radius : float
        Support radius R, finite and positive.
    breakpoints : sequence of float
        Interior points of [0, R] where c is not smooth (quadrature panels
        split there; e.g. the edge of a box kernel).
    name : str
        Label used in reports and fixture lookups.
    sampler : callable, optional
        rng, size -> jump sizes distributed as c/a1.  Built-in kernels supply
        exact samplers; the Part I particles refuse a kernel without one.

    Moments (mass a1, first absolute moment s1, second moment s2) are
    computed at construction by :func:`kernel_moments`.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    truncation_radius: float
    breakpoints: Sequence[float] = ()
    name: str = "kernel"
    sampler: Optional[Callable] = None
    a1: float = field(init=False, default=0.0)
    s1: float = field(init=False, default=0.0)
    s2: float = field(init=False, default=0.0)

    def __post_init__(self):
        _check_positive("truncation_radius", self.truncation_radius)
        R = float(self.truncation_radius)
        # symmetry and nonnegativity probes
        z = np.linspace(0.013, R * 0.999, 37)
        cp, cm = self.evaluate(z), self.evaluate(-z)
        if np.max(np.abs(cp - cm)) > _SYMMETRY_TOL * max(1.0, np.max(np.abs(cp))):
            raise ValueError("kernel is not even: c(z) != c(-z)")
        if np.min(cp) < 0 or self.evaluate(np.zeros(1))[0] < 0:
            raise ValueError("kernel must be nonnegative")
        # tail probe just beyond R
        tail = np.max(np.abs(self.evaluate(np.array([1.001 * R, 1.5 * R, 3.0 * R]))))
        if tail > _TAIL_TOL:
            raise ValueError("kernel does not vanish beyond its truncation radius")
        a1, s1, s2 = kernel_moments(self)
        if a1 <= 0:
            raise ValueError("kernel mass must be positive")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "s1", s1)
        object.__setattr__(self, "s2", s2)

    def __repr__(self):
        return "IntegrableKernel(%s, R=%g, a1=%.6g, s2=%.6g)" % (
            self.name,
            self.truncation_radius,
            self.a1,
            self.s2,
        )


def _half_rule(kernel):
    """Gauss-Legendre nodes and weights on [0, R], shape (panels,
    _PANEL_NODES): panels at most _PANEL_MAX_LEN long, split at the
    kernel's breakpoints, in increasing order."""
    R = float(kernel.truncation_radius)
    edges = sorted({0.0, R} | {float(b) for b in kernel.breakpoints if 0.0 < b < R})
    zs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        pieces = max(1, int(np.ceil((hi - lo) / _PANEL_MAX_LEN)))
        sub = np.linspace(lo, hi, pieces + 1)
        for a, b in zip(sub[:-1], sub[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            zs.append(mid + half * _GAUSS_NODES)
            ws.append(half * _GAUSS_WEIGHTS)
    return np.array(zs), np.array(ws)


def _quadrature_nodes(kernel):
    """Gauss-Legendre nodes/weights on [-R, R]: each panel of
    :func:`_half_rule`, nodes zq, followed by its mirror image -zq with the
    same weights, so the layout is exactly symmetric (odd integrands cancel
    to rounding, which is what makes the discrete solvability integrals
    vanish the way the continuum ones do)."""
    z, w = _half_rule(kernel)
    return np.stack([z, -z], axis=1).ravel(), np.stack([w, w], axis=1).ravel()


def kernel_moments(kernel):
    """(a1, s1, s2) = integrals of c, |z| c, z^2 c, summed on the panel
    rule of :func:`_quadrature_nodes`."""
    z, w = _quadrature_nodes(kernel)
    wc = w * kernel.evaluate(z)
    az = np.abs(z)
    return float(np.sum(wc)), float(np.sum(wc * az)), float(np.sum(wc * az * az))


def wrapped_kernel_samples(kernel, z_points, period, eps=1.0):
    """Samples of sum_k (1/eps) c((z + k*period)/eps) at the given points.

    The workhorse behind all discrete convolutions: wrapping the scaled
    kernel onto a periodic domain of the given period.  The translate range
    covers the full truncated support.
    """
    z = np.asarray(z_points, dtype=float)
    R_scaled = float(kernel.truncation_radius) * eps
    kmax = int(np.ceil((R_scaled + period) / period))
    out = np.zeros_like(z)
    for k in range(-kmax, kmax + 1):
        arg = (z + k * period) / eps
        mask = np.abs(arg) <= kernel.truncation_radius
        if np.any(mask):
            out[mask] += kernel.evaluate(arg[mask]) / eps
    return out


def jump_column(kernel, n, period, eps):
    """First column of u -> K * u - a1_d u on n equispaced points of the
    period: K is the wrapped scaled kernel times the spacing, and its
    discrete mass a1_d, subtracted at lag 0, makes the column sum to zero."""
    spacing = period / n
    column = wrapped_kernel_samples(kernel, spacing * np.arange(n), period,
                                    eps=eps) * spacing
    column[0] -= np.sum(column)
    return column


# ---------------------------------------------------------------------------
# built-in kernels
# ---------------------------------------------------------------------------


def box_kernel(half_width=1.0, height=0.5):
    """c = height on |z| < half_width, with midpoint values at the edges.

    The midpoint (half-height) convention at the jump makes grid sampling
    trapezoid-exact: the default box periodized at unit scale is identically
    one on the torus, and discrete masses match a1 exactly on commensurate
    grids.
    """
    _check_positive("half_width", half_width)
    _check_positive("height", height)
    w, c0 = float(half_width), float(height)

    def evaluate(z):
        az = np.abs(np.asarray(z, dtype=float))
        out = np.where(az < w, c0, 0.0)
        return np.where(az == w, 0.5 * c0, out)

    def sampler(rng, size):
        return rng.uniform(-w, w, size=size)

    return IntegrableKernel(
        evaluate, w, breakpoints=(w * 0.5, w), name="box", sampler=sampler
    )


def laplace_kernel(rate=1.0, radius=None):
    """c(z) = (rate/2) e^{-rate |z|}, truncated where the tail is < 1e-10.

    The default radius 40 / rate keeps the dropped tail mass at e^{-40}
    for every rate.
    """
    _check_positive("rate", rate)
    r = float(rate)
    if radius is None:
        radius = 40.0 / r

    def evaluate(z):
        az = np.abs(np.asarray(z, dtype=float))
        return np.where(az <= radius, 0.5 * r * np.exp(-r * az), 0.0)

    def sampler(rng, size):
        u = rng.exponential(scale=1.0 / r, size=size)
        return u * rng.choice((-1.0, 1.0), size=size)

    return IntegrableKernel(evaluate, radius, breakpoints=(1.0 / r,), name="laplace",
                            sampler=sampler)


def gaussian_kernel(width=0.22, radius=None, mass=1.0):
    """Truncated-Gaussian kernel: smooth, short support, spectrally friendly.

    The default width keeps the support inside half a period even after the
    coarsest scaling used in the experiments (eps = 1/4), while the cutoff
    sits ~8.5 sigma out so the truncation error (~1e-16 relative) is far
    below every tolerance in the package.
    """
    _check_positive("width", width)
    _check_positive("mass", mass)
    s = float(width)
    R = 8.5 * s if radius is None else radius
    amp = mass / (s * np.sqrt(2.0 * np.pi))

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        return np.where(np.abs(z) <= R, amp * np.exp(-0.5 * (z / s) ** 2), 0.0)

    def sampler(rng, size):
        # rejection-free in practice: resample the negligible tail mass
        out = rng.normal(scale=s, size=size)
        bad = np.abs(out) > R
        while bad.any():
            out[bad] = rng.normal(scale=s, size=int(bad.sum()))
            bad = np.abs(out) > R
        return out

    return IntegrableKernel(evaluate, R, breakpoints=(s, 3 * s), name="gaussian",
                            sampler=sampler)


def triangle_kernel(half_width):
    """c(z) = (1/w) max(0, 1 - |z|/w): unit mass, support [-w, w].

    With w equal to one grid step its periodization is the discrete delta.
    """
    _check_positive("half_width", half_width)
    w = float(half_width)

    def evaluate(z):
        z = np.asarray(z, dtype=float)
        return np.maximum(0.0, 1.0 - np.abs(z) / w) / w

    def sampler(rng, size):
        u, v = rng.uniform(size=size), rng.uniform(size=size)
        return w * (u + v - 1.0)  # sum of two uniforms is triangular

    return IntegrableKernel(evaluate, w, breakpoints=(0.5 * w,), name="triangle",
                            sampler=sampler)
