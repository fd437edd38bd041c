"""Heterogeneous and homogenized operators on a truncated periodic line.

The real line is replaced by a periodic window [-L, L) with all test data
supported away from the wrap.  Every operator here is a sum of eps-periodic
fields times Fourier multipliers, sum_k f_k(x) S_k + d(x), held as a
:class:`nlhom.torus.LineOperator`, the type of the cell generators of
``cell`` too: the (field trace, half-spectrum symbol) terms and one
diagonal d.  It applies pseudo-spectrally, each field in space and each
symbol in frequency, at O(K n log n) per vector; the adjoint for
dx * sum(u v) (the exact transpose) conjugates the symbols and moves the
fields inside.  The operator commutes with translation by one eps-cell of p
points, so an FFT over the N_c cells also splits it into N_c//2 + 1
independent p x p Bloch blocks, built on demand for the SPDE resolvent and
the materialized matrix; block t = 0 of eps^2 T_eps is the cell generator
at n = p.  Constant-coefficient operators are the case p = 1.

The window must tile the fast period exactly: 2L is an integer, eps is the
reciprocal of an integer, and the number of grid points per eps-cell is an
integer, so oscillating coefficients sample without phase drift and shifting
a profile by a multiple of eps is an exact lattice rotation.  A cell field
enters on the line as one cell of p uniform samples
(:meth:`nlhom.torus.PeriodicField.uniform_samples`) tiled over the cells,
and the random test fields of the dissipativity checks are built by one
batched inverse FFT.

Contents:

* :class:`LineGrid` (``LineOperator`` is imported from ``torus``);
* assembly of the two-scale generators (integrable-jump and stable
  families), their constant-coefficient limits, and the corrected test
  functions whose adjoint images converge to the limit action;
* two-scale residual diagnostics;
* the sign checks for the jump parts (weighted quadratic forms are
  nonpositive).

The paired nonlocal-divergence identity D D* = -(1/2) (-Delta)^(alpha/2),
which ties the stable form's sign to the nonlocal vector calculus, is a
real-space test oracle (``tests/nonlocal_oracle.py``), not run by the lab.
"""

import numpy as np

from .cell import CellSolutionI, CellSolutionII
from .coefficients import CoefficientSetI, CoefficientSetII, _eps_value
from .kernels import jump_column
from .torus import (
    LineOperator,
    _apply_symbol,
    _check_count,
    _check_positive,
    _check_type,
    _finite_real,
    _jump_terms,
    _stable_terms,
    derivative_symbol,
)

__all__ = [
    "ResolutionError",
    "LineGrid",
    "gaussian_bump",
    "assemble_T_eps",
    "assemble_T0",
    "assemble_V_eps",
    "assemble_V0",
    "corrector_test_function_I",
    "corrector_test_function_II",
    "residual_lemma_2_10",
    "residual_part_II",
    "dissipativity_check_I",
    "dissipativity_check_II",
]


class ResolutionError(ValueError):
    """The line grid cannot represent the requested fast scale."""


# fewest grid points per eps-cell a two-scale operator is assembled on
_MIN_POINTS_PER_CELL = 16


class LineGrid:
    """Uniform periodic grid on [-L, L) with 2L a positive integer.

    Parameters
    ----------
    half_width : float
        Half-width L of the window; 2L must be a positive integer so the
        unit cell tiles the domain.
    n : int
        Number of points, a power of two, at least 16.
    """

    def __init__(self, half_width, n):
        _check_positive("half_width", half_width)
        two_l = 2.0 * half_width
        if abs(two_l - round(two_l)) > 1e-12:
            raise ValueError("window width 2L must be a positive integer, got %r"
                             % (two_l,))
        _check_count("n", n, 16)
        n = int(n)
        if n & (n - 1) != 0:
            raise ValueError("n must be a power of two >= 16, got %d" % n)
        self._L = float(half_width)
        self._n = n
        self._dx = two_l / n
        self._x = -self._L + self._dx * np.arange(n)
        self._x.setflags(write=False)
        self._freqs = np.fft.rfftfreq(n, d=self._dx)
        self._freqs.setflags(write=False)

    @property
    def half_width(self):
        return self._L

    @property
    def n(self):
        return self._n

    @property
    def dx(self):
        return self._dx

    @property
    def x(self):
        return self._x

    @property
    def freqs(self):
        """Half-spectrum frequencies k / 2L, k = 0 ... n/2 (rfftfreq
        order), on which every line multiplier's symbol is built."""
        return self._freqs

    def points_per_cell(self, eps):
        """Number of grid points per eps-cell: an integer of at least 16."""
        eps = _eps_value(eps)
        cells = 2.0 * self._L / eps
        p = self._n / cells
        if abs(p - round(p)) > 1e-9:
            raise ResolutionError(
                "grid does not tile eps = %g: %g points per cell" % (eps, p))
        p = int(round(p))
        if p < _MIN_POINTS_PER_CELL:
            raise ResolutionError(
                "resolution violation: %d points per eps-cell < %d"
                % (p, _MIN_POINTS_PER_CELL))
        return p

    def apply_derivative(self, values, order):
        return _apply_symbol(values, derivative_symbol(self._freqs, order))

    def l2_norm(self, values):
        return float(np.sqrt(self.inner(values, values)))

    def inner(self, u, v):
        u, v = np.asarray(u), np.asarray(v)
        if u.shape != (self._n,) or v.shape != (self._n,):
            raise ValueError("grid values must have shape (%d,), got %r, %r"
                             % (self._n, u.shape, v.shape))
        return float(np.sum(u * v) * self._dx)


def gaussian_bump(grid, center=0.0, width=0.35):
    """exp(-(x - center)^2 / (2 width^2)) sampled on the grid."""
    if not _finite_real(center):
        raise ValueError("center must be a finite real, got %r" % (center,))
    _check_positive("width", width)
    return np.exp(-((grid.x - center) ** 2) / (2.0 * width**2))


def _cell_trace(field, grid, eps):
    """A unit-torus field at y = x/eps mod 1 on the line grid.

    The grid starts on a cell edge (x_0 / eps = -L K is an integer, since
    N_c = 2 L K and K are powers of two), so the trace is one cell of p
    uniform samples, ``field.uniform_samples(p)``, tiled over the N_c
    cells: a stride of the values when p divides the field's n, one padded
    FFT otherwise.
    """
    p = grid.points_per_cell(eps)
    start = grid.x[0] / eps
    if abs(start - round(start)) > 1e-9:
        raise ResolutionError(
            "line grid starts at x/eps = %.17g, off a cell edge" % start)
    return np.tile(field.uniform_samples(p), grid.n // p)


# ---------------------------------------------------------------------------
# assembly: integrable-jump family
# ---------------------------------------------------------------------------


def _line_jump_symbol(kernel, grid, eps):
    """Half spectrum of :func:`jump_column` on the window; the scaled kernel
    support must fit the half window, so the wrapped kernel does not overlap
    itself."""
    if eps * kernel.truncation_radius > grid.half_width + 1e-12:
        raise ResolutionError(
            "scaled jump support %.3g exceeds the half window %.3g"
            % (eps * kernel.truncation_radius, grid.half_width))
    return np.fft.rfft(jump_column(kernel, grid.n, 2.0 * grid.half_width, eps))


def assemble_T_eps(cset, eps, grid):
    """Two-scale generator a(x/e) u'' + (1/e) b(x/e) u' + jump part.

    The jump part is realized as (1/e^2) lambda(x/e) [K * u - a1_d u] with
    K the periodized scaled kernel on the line lattice and a1_d its discrete
    mass, so constants are annihilated exactly.
    """
    eps = _eps_value(eps)
    terms = _jump_terms(grid.freqs, _cell_trace(cset.a, grid, eps),
                        _cell_trace(cset.b, grid, eps) / eps,
                        _cell_trace(cset.lam, grid, eps) / eps**2,
                        _line_jump_symbol(cset.kernel, grid, eps))
    return LineOperator(grid, "T_eps[%s]" % cset.name,
                        grid.points_per_cell(eps), terms, 0.0)


def assemble_T0(Q, grid):
    """Constant-coefficient limit Q d^2/dx^2.

    One cell per grid point (p = 1): the one term's symbol acts exactly on
    every grid mode; self-adjoint.
    """
    _check_positive("Q", Q)
    return LineOperator(grid, "T0", 1,
                        [(Q, derivative_symbol(grid.freqs, 2))], 0.0)


# ---------------------------------------------------------------------------
# assembly: stable family
# ---------------------------------------------------------------------------


def assemble_V_eps(cset, eps, grid):
    """Stable-family two-scale generator plus first/zero-order terms:

        -delta^alpha(x/e) (-Dx)^(a/2) u + [e^(1-a) d(x/e) + g(x/e)] u'
        + [-e^(-a) e(x/e) + f(x/e)] u.

    The generator part annihilates constants; the zero-order field is the
    operator's image of the constant one.
    """
    eps = _eps_value(eps)
    alpha = cset.alpha
    drift_e = eps ** (1.0 - alpha) * _cell_trace(cset.d, grid, eps) \
        + _cell_trace(cset.g, grid, eps)
    zero_e = -_cell_trace(cset.e, grid, eps) / eps**alpha \
        + _cell_trace(cset.f, grid, eps)
    terms = _stable_terms(grid.freqs, alpha,
                          _cell_trace(cset.delta_alpha, grid, eps), drift_e)
    return LineOperator(grid, "V_eps[%s]" % cset.name,
                        grid.points_per_cell(eps), terms, zero_e)


def assemble_V0(cell, grid):
    """Homogenized stable generator: -dba (-Dx)^(a/2) + g_bar d/dx + f_bar."""
    return LineOperator(grid, "V0", 1, _stable_terms(
        grid.freqs, cell.cset.alpha, cell.delta_bar_alpha, cell.g_bar),
        cell.f_bar)


# ---------------------------------------------------------------------------
# corrected test functions and two-scale residuals
# ---------------------------------------------------------------------------


def corrector_test_function_I(xi, cell, eps, grid):
    """m(x/e) (xi + e h1(x/e) xi' + e^2 h2(x/e) xi'')."""
    eps = _eps_value(eps)
    xi = np.asarray(xi, dtype=float)
    xi1 = grid.apply_derivative(xi, 1)
    xi2 = grid.apply_derivative(xi, 2)
    m_e = _cell_trace(cell.m, grid, eps)
    h1_e = _cell_trace(cell.h1, grid, eps)
    h2_e = _cell_trace(cell.h2, grid, eps)
    return m_e * (xi + eps * h1_e * xi1 + eps**2 * h2_e * xi2)


def corrector_test_function_II(xi, cell, eps, grid):
    """m1(x/e) (xi + e h3(x/e) xi')."""
    eps = _eps_value(eps)
    xi = np.asarray(xi, dtype=float)
    xi1 = grid.apply_derivative(xi, 1)
    m1_e = _cell_trace(cell.m1, grid, eps)
    h3_e = _cell_trace(cell.h3, grid, eps)
    return m1_e * (xi + eps * h3_e * xi1)


def _check_operator(operator, grid, eps):
    """Refuse an operator assembled on another grid or at another eps."""
    got = (operator.grid.n, operator.grid.half_width, operator.p)
    want = (grid.n, grid.half_width, grid.points_per_cell(eps))
    if got != want:
        raise ValueError(
            "operator %s has (n, L, p) = %r, but the grid and eps = %g need"
            " %r" % (operator.label, got, eps, want))


def residual_lemma_2_10(xi, cell, cset, eps, grid, operator=None):
    """L2 norm of (T_eps)* xi_eps - Q xi'' on the line grid.

    The corrected test function makes the adjoint image collapse onto
    Q xi'' as eps -> 0; the returned norm is the surviving remainder.
    ``operator``, T_eps when given, must be assembled on ``grid`` at
    ``eps``.
    """
    _check_type("cell", cell, CellSolutionI)
    _check_type("cset", cset, CoefficientSetI)
    eps = _eps_value(eps)
    if operator is None:
        operator = assemble_T_eps(cset, eps, grid)
    _check_operator(operator, grid, eps)
    xi = np.asarray(xi, dtype=float)
    xi_eps = corrector_test_function_I(xi, cell, eps, grid)
    target = cell.Q * grid.apply_derivative(xi, 2)
    return grid.l2_norm(operator.adjoint_apply(xi_eps) - target)


def residual_part_II(xi, psi, cell, cset, eps, grid, operator=None):
    """|((V_eps)* xi_eps, psi) - ((V0)* xi, psi)| on the line grid.

    The limit pairing is the adjoint of the homogenized generator, the form
    the martingale characterization consumes; the forward pairing
    (V0 xi, psi) differs from it by 2 g_bar (xi', psi).  ``operator``,
    V_eps when given, must be assembled on ``grid`` at ``eps``.
    """
    _check_type("cell", cell, CellSolutionII)
    _check_type("cset", cset, CoefficientSetII)
    eps = _eps_value(eps)
    if operator is None:
        operator = assemble_V_eps(cset, eps, grid)
    _check_operator(operator, grid, eps)
    xi = np.asarray(xi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    xi_eps = corrector_test_function_II(xi, cell, eps, grid)
    lhs = grid.inner(operator.adjoint_apply(xi_eps), psi)
    rhs = grid.inner(assemble_V0(cell, grid).adjoint_apply(xi), psi)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# dissipativity of the jump parts
# ---------------------------------------------------------------------------


def _band_limited_fields(grid, trials, seed, max_mode):
    """(n, trials) normalized fields s + sum_k c_k cos(2 pi k (x + L) / 2L
    + phi_k), k = 1 .. max_mode (default n/8), with c_k ~ N(0, 1/k),
    phi_k uniform and s ~ N(0, 0.09), drawn in that order for each trial.

    One batched inverse real FFT builds them: X_0 = n s and X_k =
    (n/2) c_k e^{i phi_k} (-1)^k, the sign from x_0 = -L.
    """
    n = grid.n
    max_mode = n // 8 if max_mode is None else max_mode
    for label, val, stop in (("trials", trials, np.inf),
                             ("max_mode", max_mode, n // 2)):
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)) \
                or not 1 <= val < stop:
            raise ValueError("%s must be an integer in [1, %s), got %r"
                             % (label, stop, val))
    rng = np.random.default_rng(seed)
    ks = np.arange(1, max_mode + 1)
    sign = 0.5 * n * (-1.0) ** ks
    spec = np.zeros((n // 2 + 1, trials), dtype=complex)
    for i in range(trials):
        coeff = rng.standard_normal(max_mode) / np.sqrt(ks)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=max_mode)
        spec[0, i] = n * 0.3 * rng.standard_normal()
        spec[1:max_mode + 1, i] = sign * coeff * np.exp(1j * phase)
    U = np.fft.irfft(spec, n, axis=0)
    return U / np.sqrt(np.sum(U**2, axis=0) * grid.dx)


def _worst_form(form, grid, fields, trials, seed, max_mode):
    """max over fields u of dx * u . (form u), one batched application; the
    fields default to normalized band-limited draws."""
    if fields is None:
        U = _band_limited_fields(grid, trials, seed, max_mode)
    else:
        U = np.stack(list(fields), axis=1)
    return float(np.max(np.sum(U * form.apply(U), axis=0)) * grid.dx)


def dissipativity_check_I(cset, m, eps, grid, trials=100, seed=11,
                          max_mode=None, fields=None):
    """Max over random fields of the m-weighted drift-plus-jump form.

    The form dx * u . (B_m u + (1/e) beta_m(x/e) u') with beta_m = b m -
    (a m)' telescopes to a negative weighted sum of squared increments
    (the stationarity of m kills the cross terms), so its maximum over
    normalized band-limited fields certifies the sign numerically.
    """
    eps = _eps_value(eps)
    lamm = cset.lam.with_values(cset.lam.values * m.values)
    am = cset.a.with_values(cset.a.values * m.values)
    beta_m = cset.b.with_values(cset.b.values * m.values - am.derivative(1).values)
    terms = [
        (_cell_trace(lamm, grid, eps) / eps**2,
         _line_jump_symbol(cset.kernel, grid, eps)),
        (_cell_trace(beta_m, grid, eps) / eps,
         derivative_symbol(grid.freqs, 1)),
    ]
    form = LineOperator(grid, "form_I", grid.points_per_cell(eps), terms, 0.0)
    return _worst_form(form, grid, fields, trials, seed, max_mode)


def dissipativity_check_II(cset, m1, eps, grid, trials=100, seed=12,
                           max_mode=None, fields=None):
    """Max over random fields of the m1-weighted stable form.

    dx * v . (m1 L v) with L the jump-plus-drift part; nonpositivity is the
    pair identity -(1/2) <D* v, delta^alpha m1 D* v> transported to the
    grid.
    """
    eps = _eps_value(eps)
    alpha = cset.alpha
    w = cset.delta_alpha.with_values(cset.delta_alpha.values * m1.values)
    dm1 = cset.d.with_values(cset.d.values * m1.values)
    terms = _stable_terms(grid.freqs, alpha, _cell_trace(w, grid, eps),
                          eps ** (1.0 - alpha) * _cell_trace(dm1, grid, eps))
    form = LineOperator(grid, "form_II", grid.points_per_cell(eps), terms, 0.0)
    return _worst_form(form, grid, fields, trials, seed, max_mode)
