"""Coefficient bundles for the two operator families, admissible when built.

Part I bundles (a, b, lambda, sigma; jump kernel c) feed the second-order
generator with scaled integrable jumps; Part II bundles (delta, d, g, e, f,
sigma; stability index alpha) feed the alpha-stable family.  A bundle
refuses data that break the standing assumptions when it is built, with a
ValueError naming the field and the bound: ellipticity and jump-intensity
bounds (Part I), a positive multiplier delta (Part II), and resolved fields,
a spectral-decay proxy for classical smoothness.  An uneven jump kernel is
refused by :class:`kernels.IntegrableKernel`.  The drift centering
condition is deliberately not checked here — it involves the invariant
density and lives with the cell solver.
"""

from dataclasses import dataclass, replace

import numpy as np

from .kernels import IntegrableKernel
from .torus import PeriodicField, _check_positive, _finite_real

__all__ = [
    "CoefficientSetI",
    "CoefficientSetII",
]

_BOUND_SLACK = 1e-14
_DECAY_TOL = 1e-8


def _eps_value(eps):
    """The scale eps as a float, refused unless it is 1/K for an integer
    K >= 2 (to 1e-12).

    The restriction keeps y = x/eps exactly 1-periodic in x on commensurate
    line grids, so oscillating coefficients sample without phase drift.
    """
    _check_positive("eps", eps)
    eps = float(eps)
    K = round(1.0 / eps) if 1.0 / eps < np.inf else 0
    if K < 2 or abs(K * eps - 1.0) > 1e-12:
        raise ValueError("eps must be 1/K for an integer K >= 2, got %r" % eps)
    return 1.0 / K


def _check_range(name, fld, bound, lo, hi):
    """Refuse a field leaving [lo, hi] (to _BOUND_SLACK); bound names it."""
    vmin, vmax = float(fld.values.min()), float(fld.values.max())
    if vmin < lo - _BOUND_SLACK or vmax > hi + _BOUND_SLACK:
        raise ValueError("%s must lie in %s = [%.6g, %.6g], got [%.6g, %.6g]"
                         % (name, bound, lo, hi, vmin, vmax))


def _check_resolved(cset, names):
    """Refuse the first named field with a Fourier mode at or above n/4 over
    _DECAY_TOL max(1, its largest coefficient), naming that largest mode."""
    n = cset.grid.n
    c = np.abs(np.fft.rfft([getattr(cset, nm).values for nm in names])) / n
    high = c[:, n // 4:]
    over = high.max(axis=1) > _DECAY_TOL * np.maximum(1.0, c.max(axis=1))
    if over.any():
        i = int(np.argmax(over))
        k = n // 4 + int(np.argmax(high[i]))
        raise ValueError("%s is unresolved on %d points: mode %d has amplitude"
                         " %.3g, above %g of its largest coefficient"
                         % (names[i], n, k, c[i, k], _DECAY_TOL))


@dataclass(frozen=True)
class CoefficientSetI:
    """Admissible bundle for the integrable-jump family.

    Refused unless kappa, alpha1 and alpha2 are finite and positive, kappa
    <= a <= 1/kappa and alpha1 <= lambda <= alpha2 (to 1e-14), and all four
    fields are resolved: no Fourier mode at or above n/4 exceeds 1e-8 of
    max(1, the field's largest coefficient).
    """

    a: PeriodicField
    b: PeriodicField
    lam: PeriodicField
    sigma: PeriodicField
    kernel: IntegrableKernel
    kappa: float
    alpha1: float
    alpha2: float
    name: str = "custom"

    def __post_init__(self):
        if len({f.grid.n for f in (self.a, self.b, self.lam, self.sigma)}) != 1:
            raise ValueError("all coefficient fields must share one torus grid")
        for nm in ("kappa", "alpha1", "alpha2"):
            _check_positive(nm, getattr(self, nm))
        _check_range("a", self.a, "[kappa, 1/kappa]", self.kappa,
                     1.0 / self.kappa)
        _check_range("lam", self.lam, "[alpha1, alpha2]", self.alpha1,
                     self.alpha2)
        _check_resolved(self, ("a", "b", "lam", "sigma"))

    @property
    def grid(self):
        return self.a.grid

    def with_fields(self, **kw):
        """A copy with the named fields replaced, checked as a new set."""
        return replace(self, **kw)


@dataclass(frozen=True)
class CoefficientSetII:
    """Admissible bundle for the alpha-stable family (jump index alpha).

    Refused unless alpha lies in (0, 2), delta > 0, and all six fields are
    resolved (as in :class:`CoefficientSetI`).
    """

    delta: PeriodicField
    d: PeriodicField
    g: PeriodicField
    e: PeriodicField
    f: PeriodicField
    sigma: PeriodicField
    alpha: float
    name: str = "custom"

    def __post_init__(self):
        if not (_finite_real(self.alpha) and 0.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie in (0, 2), got %r" % self.alpha)
        names = ("delta", "d", "g", "e", "f", "sigma")
        if len({getattr(self, nm).grid.n for nm in names}) != 1:
            raise ValueError("all coefficient fields must share one torus grid")
        dmin = float(self.delta.values.min())
        if dmin <= 0.0:
            raise ValueError("delta must be positive, min delta = %.6g" % dmin)
        _check_resolved(self, names)

    @property
    def grid(self):
        return self.delta.grid

    @property
    def delta_alpha(self):
        """The multiplier field delta(y)^alpha."""
        return PeriodicField(self.grid, self.delta.values**self.alpha)

    def with_fields(self, **kw):
        """A copy with the named fields replaced, checked as a new set."""
        return replace(self, **kw)
