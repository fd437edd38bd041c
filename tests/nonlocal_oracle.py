"""Real-space quadrature oracles of the 1-d nonlocal operators.

The package applies the fractional Laplacian only as the Fourier multiplier
|2 pi k|^alpha (``nlhom.torus.fractional_symbol``).  This module evaluates it
independently, pointwise, from the principal-value representation

    (-Delta)^{alpha/2} f(x) = C_{1,alpha} PV int (f(x) - f(y)) |x - y|^{-1-alpha} dy,

with the normalization constant chosen so the operator has Fourier symbol
|2 pi k|^alpha, i.e. matches the spectral route in :mod:`nlhom.torus` and the
generator (negated) of the standard symmetric alpha-stable process:

    C_{1,alpha} = 1 / (2 I(alpha)),
    I(alpha)    = int_0^inf (1 - cos w) w^{-1-alpha} dw
                = -Gamma(-alpha) cos(pi alpha / 2)   (alpha != 1),
    I(1)        = pi / 2.

The quadrature splits off the singularity: on |y - x| <= eta a two-term
Taylor expansion integrates the near field analytically; the far field is
handled by adaptive quadrature on unit panels, with analytic power-law tails.
These routines are deliberately independent of any FFT machinery — they serve
as real-space cross-checks for the spectral operators.

The second half is the paired nonlocal vector calculus of Du, Gunzburger,
Lehoucq & Zhou (M3AS 23, 2013): the antisymmetric pair kernel gamma, the
two-point gradient D* and the divergence D, normalized so that
D D* = -(1/2) (-Delta)^(alpha/2), and the check of that identity against
the principal-value route.
"""

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as _gamma


def cosine_tail_integral(alpha):
    """I(alpha) = int_0^inf (1 - cos w) w^{-1-alpha} dw for alpha in (0, 2)."""
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2), got %r" % alpha)
    if abs(alpha - 1.0) < 1e-12:
        return np.pi / 2.0
    return -_gamma(-alpha) * np.cos(np.pi * alpha / 2.0)


def pv_normalization(alpha):
    """C_{1,alpha} such that the PV operator has symbol |2 pi k|^alpha."""
    return 1.0 / (2.0 * cosine_tail_integral(alpha))


def _fd_derivative(f, x, order, step=1e-2):
    """High-order central finite difference (used when no analytic derivative
    is supplied; accuracy ~1e-10 for smooth f, ample for the eta^{2-alpha}
    near-field weights)."""
    if order == 2:
        w = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * step**2)
        offs = np.array([-2, -1, 0, 1, 2]) * step
    elif order == 4:
        w = np.array([-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0]) / (6.0 * step**4)
        offs = np.array([-3, -2, -1, 0, 1, 2, 3]) * step
    else:
        raise ValueError("only orders 2 and 4 supported")
    return float(np.dot(w, f(x + offs)))


def fractional_laplacian_pointwise(
    f,
    x0,
    alpha,
    periodic=False,
    eta=1e-3,
    cutoff=40.0,
    d2=None,
    d4=None,
    far_value=0.0,
):
    """Evaluate (-Delta)^{alpha/2} f at one point by singular PV quadrature.

    Parameters
    ----------
    f : callable
        Smooth function of a float array.  If `periodic` it must have period
        one; otherwise it must approach `far_value` fast beyond `cutoff`.
    x0 : float
        Evaluation point.
    alpha : float
        Order in (0, 2).
    periodic : bool
        Selects the tail treatment: exact constant-part tails plus a
        period-by-period sweep of the oscillatory remainder (periodic), or
        the analytic power tail of f(x0) - far_value (decaying).
    eta : float
        Near-field half-width for the Taylor split.
    cutoff : float
        Where the far-field quadrature hands over to analytic tails.
    d2, d4 : callable, optional
        Analytic second/fourth derivatives; finite differences otherwise.
    far_value : float
        Limit of f at infinity in the non-periodic case.

    Returns
    -------
    float
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2), got %r" % alpha)
    x0 = float(x0)
    fx0 = float(f(np.array([x0]))[0] if np.ndim(f(np.array([x0]))) else f(x0))

    f2 = d2(x0) if d2 is not None else _fd_derivative(f, x0, 2)
    f4 = d4(x0) if d4 is not None else _fd_derivative(f, x0, 4)

    # near field: PV kills odd Taylor terms; keep u^2 and u^4
    near = -(f2 * eta ** (2.0 - alpha) / (2.0 - alpha)
             + f4 * eta ** (4.0 - alpha) / (12.0 * (4.0 - alpha)))

    # far field on eta <= |u| <= cutoff, unit panels for adaptive quad
    def integrand(u):
        return (fx0 - f(x0 + u)) * np.abs(u) ** (-1.0 - alpha)

    far = 0.0
    edges = np.unique(np.concatenate([[eta], np.arange(1.0, cutoff), [cutoff]]))
    for lo, hi in zip(edges[:-1], edges[1:]):
        for sgn in (1.0, -1.0):
            val, _ = quad(lambda u, s=sgn: integrand(s * u), lo, hi, limit=200,
                          epsabs=1e-13, epsrel=1e-12)
            far += val

    # tails beyond the cutoff
    if periodic:
        fbar, _ = quad(lambda y: f(y), 0.0, 1.0, limit=200, epsabs=1e-13)
        tail = 2.0 * (fx0 - fbar) * cutoff ** (-alpha) / alpha
        # oscillatory remainder: period-by-period until negligible
        def osc(y):
            return -(f(y) - fbar)
        z = cutoff
        for _ in range(400):
            inc = 0.0
            for sgn in (1.0, -1.0):
                val, _ = quad(
                    lambda u, s=sgn: osc(x0 + s * u) * u ** (-1.0 - alpha),
                    z, z + 1.0, limit=100, epsabs=1e-14,
                )
                inc += val
            tail += inc
            z += 1.0
            if abs(inc) < 1e-14:
                break
    else:
        tail = 2.0 * (fx0 - far_value) * cutoff ** (-alpha) / alpha

    return pv_normalization(alpha) * (near + far + tail)


# ---------------------------------------------------------------------------
# paired nonlocal divergence
# ---------------------------------------------------------------------------


def pair_weight_scale(alpha):
    """Normalization s with gamma(x, y) = s (y-x) |y-x|^(-(3+alpha)/2).

    Chosen so that the composed operator D D* equals -(1/2) times the
    spectrally normalized fractional Laplacian (symbol |2 pi k|^alpha).
    """
    return 1.0 / np.sqrt(8.0 * cosine_tail_integral(alpha))


def gamma_pair(x, y, alpha):
    """Antisymmetric pair kernel gamma(x, y); scalar or array arguments."""
    diff = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    return pair_weight_scale(alpha) * diff * np.abs(diff) ** (
        -(3.0 + alpha) / 2.0)


def nonlocal_gradient(f, alpha):
    """Two-point field D* f with (D* f)(x, y) = (f(y) - f(x)) gamma(x, y).

    The orientation is fixed so that composing with the divergence gives
    -(1/2)(-Dx)^(alpha/2); the opposite sign makes the symmetrized pair sum
    in the divergence vanish identically.
    """

    def beta(x, y):
        return (f(y) - f(x)) * gamma_pair(x, y, alpha)

    return beta


def nonlocal_divergence(beta, x0, alpha, cutoff=40.0, tail=0.0,
                        quad_tol=1e-9, z_min=1e-4, near=0.0):
    """(D beta)(x0) = int (beta(x0, y) + beta(y, x0)) gamma(x0, y) dy.

    The integral is taken as a symmetric principal value: contributions at
    y = x0 +- z are summed before integrating over z > 0, which cancels the
    odd leading singularity of gradient-type beta fields.  The quadrature
    covers z in [z_min, cutoff]; ``near`` adds the caller's analytic value
    for z < z_min (where finite differences of beta drown in roundoff) and
    ``tail`` the analytic correction beyond ``cutoff``.
    """

    def symmetric_integrand(z):
        yp = x0 + z
        ym = x0 - z
        up = (beta(x0, yp) + beta(yp, x0)) * gamma_pair(x0, yp, alpha)
        um = (beta(x0, ym) + beta(ym, x0)) * gamma_pair(x0, ym, alpha)
        return up + um

    # z = t^q flattens the z^(1-alpha) behaviour of gradient-type beta to
    # O(t), so the near panel is polynomially smooth for the quadrature
    q = 2.0 / (2.0 - alpha)

    def desingularized(t):
        z = t**q
        return symmetric_integrand(z) * q * t ** (q - 1.0)

    lo_t, _ = quad(desingularized, z_min ** (1.0 / q), 1.0, epsabs=quad_tol,
                   epsrel=quad_tol, limit=400)
    hi_t, _ = quad(symmetric_integrand, 1.0, cutoff, epsabs=quad_tol,
                   epsrel=quad_tol, limit=400)
    val = lo_t + hi_t
    if not np.isfinite(val):
        raise RuntimeError("nonlocal divergence quadrature failed at %g" % x0)
    return val + near + tail


def nonlocal_divergence_identity_check(f, alpha, quad_tol=1e-9,
                                       points=(-0.5, 0.0, 0.7), cutoff=40.0,
                                       d2=None, d4=None):
    """Max residual of D(D* f) + (1/2)(-Dx)^(alpha/2) f at interior points.

    ``f`` must decay fast enough that it is negligible beyond ``cutoff``
    (the analytic tail correction keeps only the -f(x0) part of the
    difference).  The fractional Laplacian side is evaluated by the
    independent principal-value route.
    """
    beta = nonlocal_gradient(f, alpha)
    s2 = pair_weight_scale(alpha) ** 2
    z_min = 1e-4
    worst = 0.0
    for x0 in points:
        f2 = d2(x0) if d2 is not None else _fd_derivative(f, x0, 2)
        f4 = d4(x0) if d4 is not None else _fd_derivative(f, x0, 4)
        near = 2.0 * s2 * (f2 * z_min ** (2.0 - alpha) / (2.0 - alpha)
                           + f4 * z_min ** (4.0 - alpha) / (12.0 * (4.0 - alpha)))
        tail = -4.0 * s2 * f(x0) * cutoff ** (-alpha) / alpha
        lhs = nonlocal_divergence(beta, x0, alpha, cutoff=cutoff, tail=tail,
                                  quad_tol=quad_tol, z_min=z_min, near=near)
        rhs = -0.5 * fractional_laplacian_pointwise(
            f, x0, alpha, periodic=False, cutoff=cutoff, d2=d2, d4=d4)
        worst = max(worst, abs(lhs - rhs))
    return worst
