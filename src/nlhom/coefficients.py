"""Coefficient bundles for the two operator families, with validation.

Part I bundles (a, b, lambda, sigma; jump kernel c) feed the second-order
generator with scaled integrable jumps; Part II bundles (delta, d, g, e, f,
sigma; stability index alpha) feed the alpha-stable family.  Validation
mirrors the standing assumptions: ellipticity bounds, positive jump rates,
and a spectral-decay proxy for classical smoothness.  The drift centering
condition is deliberately not checked here — it involves the invariant
density and lives with the cell solver.
"""

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .kernels import IntegrableKernel
from .torus import PeriodicField, _check_count, _check_positive, _finite_real

__all__ = [
    "Epsilon",
    "CoefficientSetI",
    "CoefficientSetII",
    "ValidationReport",
    "validate_I",
    "validate_II",
]

_DECAY_TOL = 1e-8


@dataclass(frozen=True)
class Epsilon:
    """Scale parameter restricted to reciprocals of integers K >= 2.

    The restriction keeps y = x/eps exactly 1-periodic in x on commensurate
    line grids, so oscillating coefficients sample without phase drift.
    """

    K: int

    def __post_init__(self):
        _check_count("K", self.K, 2)
        object.__setattr__(self, "K", int(self.K))

    @property
    def value(self):
        return 1.0 / self.K

    @classmethod
    def from_value(cls, value):
        _check_positive("eps", value)
        value = float(value)
        K = round(1.0 / value)
        if abs(K * value - 1.0) > 1e-12:
            raise ValueError("eps must be the reciprocal of an integer, got %r" % value)
        return cls(K)

    def __repr__(self):
        return "Epsilon(1/%d)" % self.K


def _eps_value(eps):
    """The float value of an Epsilon, or of a float that must be one."""
    if isinstance(eps, Epsilon):
        return eps.value
    return Epsilon.from_value(eps).value


@dataclass(frozen=True)
class CoefficientSetI:
    """Validated bundle for the integrable-jump family.

    kappa is the declared ellipticity constant (kappa <= a <= 1/kappa);
    alpha1 <= lambda <= alpha2 bounds the jump intensity.
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
        grids = {f.grid.n for f in (self.a, self.b, self.lam, self.sigma)}
        if len(grids) != 1:
            raise ValueError("all coefficient fields must share one torus grid")

    @property
    def grid(self):
        return self.a.grid

    def with_fields(self, **kw):
        data = {k: getattr(self, k) for k in
                ("a", "b", "lam", "sigma", "kernel", "kappa", "alpha1", "alpha2", "name")}
        data.update(kw)
        return CoefficientSetI(**data)


@dataclass(frozen=True)
class CoefficientSetII:
    """Validated bundle for the alpha-stable family (jump index alpha)."""

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
        grids = {fld.grid.n for fld in
                 (self.delta, self.d, self.g, self.e, self.f, self.sigma)}
        if len(grids) != 1:
            raise ValueError("all coefficient fields must share one torus grid")

    @property
    def grid(self):
        return self.delta.grid

    @property
    def delta_alpha(self):
        """The multiplier field delta(y)^alpha."""
        return PeriodicField(self.grid, self.delta.values**self.alpha)

    def with_fields(self, **kw):
        data = {k: getattr(self, k) for k in
                ("delta", "d", "g", "e", "f", "sigma", "alpha", "name")}
        data.update(kw)
        return CoefficientSetII(**data)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: str

    def __str__(self):
        return "[%s] %-34s %s" % ("PASS" if self.passed else "FAIL", self.name, self.measured)


@dataclass
class ValidationReport:
    set_name: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def add(self, name, passed, measured):
        self.checks.append(CheckResult(name, bool(passed), measured))

    def __str__(self):
        head = "validation of coefficient set '%s': %s" % (
            self.set_name, "PASS" if self.passed else "FAIL")
        return "\n".join([head] + ["  " + str(c) for c in self.checks])


def _spectral_decay_ok(fld, tol=_DECAY_TOL):
    """Smoothness proxy: coefficients beyond index n/4 negligible."""
    n = fld.grid.n
    k = np.abs(fld.grid.wavenumbers())
    c = np.abs(fld.coeffs)
    high = c[k >= n // 4]
    scale = max(1.0, float(np.max(c)))
    worst = float(np.max(high)) if high.size else 0.0
    return worst <= tol * scale, worst


def validate_I(cset):
    """Check the Part I standing assumptions; failures become report rows."""
    rep = ValidationReport(cset.name)
    a, lam = cset.a.values, cset.lam.values
    amin, amax = float(a.min()), float(a.max())
    rep.add("ellipticity kappa <= a <= 1/kappa",
            cset.kappa > 0 and amin >= cset.kappa - 1e-14 and amax <= 1.0 / cset.kappa + 1e-14,
            "min a = %.6g, max a = %.6g, kappa = %.6g" % (amin, amax, cset.kappa))
    lmin, lmax = float(lam.min()), float(lam.max())
    rep.add("jump intensity alpha1 <= lambda <= alpha2",
            cset.alpha1 > 0 and lmin >= cset.alpha1 - 1e-14 and lmax <= cset.alpha2 + 1e-14,
            "min lambda = %.6g, max lambda = %.6g" % (lmin, lmax))
    for nm in ("a", "b"):
        ok, worst = _spectral_decay_ok(getattr(cset, nm))
        rep.add("smoothness proxy for %s (decay by n/4)" % nm, ok,
                "max high-mode coeff = %.3g" % worst)
    k = cset.kernel
    z = np.linspace(0.01, k.truncation_radius, 23)
    sym = float(np.max(np.abs(k.evaluate(z) - k.evaluate(-z))))
    rep.add("kernel symmetry c(z) = c(-z)", sym <= 1e-12, "max asymmetry = %.3g" % sym)
    return rep


def validate_II(cset):
    """Part II analog: positive delta and smoothness proxies (the alpha
    range is refused when the set is built)."""
    rep = ValidationReport(cset.name)
    dmin = float(cset.delta.values.min())
    rep.add("delta > 0 (positive stable multiplier)", dmin > 0.0,
            "min delta = %.6g" % dmin)
    for nm in ("delta", "d", "g", "e", "f", "sigma"):
        ok, worst = _spectral_decay_ok(getattr(cset, nm))
        rep.add("smoothness proxy for %s (decay by n/4)" % nm, ok,
                "max high-mode coeff = %.3g" % worst)
    return rep
