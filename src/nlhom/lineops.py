"""Heterogeneous and homogenized operators on a truncated periodic line.

The real line is replaced by a periodic window [-L, L) with all test data
supported away from the wrap.  Every operator here is a sum of eps-periodic
fields times Fourier multipliers, sum_k f_k(x) S_k + d(x), and a
LineOperator stores exactly that: the (field trace, half-spectrum symbol)
terms and one diagonal d.  It applies pseudo-spectrally, each field in
space and each symbol in frequency, at O(K n log n) per vector; the adjoint
for dx * sum(u v) (the exact transpose) conjugates the symbols and moves the
fields inside.  The operator commutes with translation by one eps-cell of p
points, so an FFT over the N_c cells also splits it into N_c//2 + 1
independent p x p Bloch blocks (:func:`nlhom.torus._field_blocks`); they are
built on demand, for the SPDE resolvent's batched p x p inverses and the
materialized matrix, and block t = 0 of eps^2 T_eps is the cell generator
of ``cell`` at n = p.  Constant-coefficient operators are the case p = 1.

The window must tile the fast period exactly: 2L is an integer, eps is the
reciprocal of an integer, and the number of grid points per eps-cell is an
integer, so oscillating coefficients sample without phase drift and shifting
a profile by a multiple of eps is an exact lattice rotation.  A cell field
enters on the line as one cell of p uniform samples
(:meth:`nlhom.torus.PeriodicField.uniform_samples`) tiled over the cells,
and the random test fields of the dissipativity checks are built by one
batched inverse FFT.

Contents:

* :class:`LineGrid`, :class:`LineOperator`;
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

from functools import cached_property

import numpy as np

from .coefficients import _eps_value
from .kernels import jump_column
from .torus import (
    _apply_symbol,
    _check_count,
    _check_positive,
    _field_blocks,
    _finite_real,
    _stable_terms,
    _symbol_column,
    derivative_symbol,
)

__all__ = [
    "ResolutionError",
    "LineGrid",
    "LineOperator",
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

    def apply_derivative(self, values, order=1):
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


class LineOperator:
    """A linear operator on a LineGrid that commutes with eps-cell
    translations: sum_k diag(f_k) S_k + diag(d), p points per cell.

    ``terms`` are (f_k, s_k) pairs: f_k a scalar or a cell-periodic field
    trace of shape (n,), s_k the half spectrum of the multiplier S_k.  The
    constant-killing rule sets d = zero_order - sum_k f_k Re s_k[0]: each
    term kills constants analytically, so f_k Re s_k[0] is rounding noise
    (beyond noise it is an assembly bug and raises), and ``apply(ones)`` is
    the zero-order field.  The Bloch blocks, shape ``(N_c//2 + 1, p, p)``,
    are built from the same terms only for :attr:`matrix` and
    :meth:`resolvent`; ``blocks[t]`` acts on the Fourier mode t over the
    cell index of a state reshaped to (N_c, p) (:meth:`to_bloch`,
    :meth:`from_bloch`).
    """

    def __init__(self, grid, label, p, terms, zero_order):
        self.grid = grid
        self.label = label
        self.p = p
        self.terms = tuple(terms)
        rows = sum(field * symbol[0].real for field, symbol in self.terms)
        scale = max(np.max(np.abs(field)) * np.max(np.abs(symbol))
                    for field, symbol in self.terms)
        if np.max(np.abs(rows)) > 1e-6 * max(1.0, scale):
            raise RuntimeError(
                "generator row sums %.3g exceed float noise at term scale %.3g"
                % (np.max(np.abs(rows)), scale))
        self.diagonal = zero_order - rows

    def to_bloch(self, values):
        """Bloch coefficients of (n,) states or (n, m) column blocks: the
        rfft over the cell index of the state reshaped to (N_c, p, m), of
        shape (N_c//2 + 1, p, m), m = 1 for a vector."""
        values = np.asarray(values, dtype=float)
        return np.fft.rfft(values.reshape(self.grid.n // self.p, self.p, -1),
                           axis=0)

    def from_bloch(self, u_hat):
        """Inverse of :meth:`to_bloch`: the real (n, m) column block."""
        return np.fft.irfft(u_hat, n=self.grid.n // self.p, axis=0) \
            .reshape(self.grid.n, -1)

    def apply(self, values):
        """Operator applied to (n,) states or (n, m) column blocks:
        sum_k f_k irfft(s_k rfft u) + d u, one rfft and K irffts."""
        values = np.asarray(values, dtype=float)
        spec = np.fft.rfft(values, axis=0)
        out = _down(self.diagonal, values) * values
        for field, symbol in self.terms:
            out += _down(field, values) * np.fft.irfft(
                _down(symbol, values) * spec, self.grid.n, axis=0)
        return out

    def adjoint_apply(self, values):
        """Exact transpose: irfft(sum_k conj(s_k) rfft(f_k u)) + d u, K
        rffts and one irfft."""
        values = np.asarray(values, dtype=float)
        spec = 0.0
        for field, symbol in self.terms:
            spec = spec + _down(np.conj(symbol), values) * np.fft.rfft(
                _down(field, values) * values, axis=0)
        return np.fft.irfft(spec, self.grid.n, axis=0) \
            + _down(self.diagonal, values) * values

    @cached_property
    def blocks(self):
        """Bloch blocks of the terms (:func:`nlhom.torus._field_blocks` on
        their columns), with d added to every block diagonal."""
        blocks = _field_blocks(self.p, [(field, _symbol_column(symbol))
                                        for field, symbol in self.terms])
        diag = np.arange(self.p)
        blocks[:, diag, diag] += np.broadcast_to(self.diagonal,
                                                 (self.grid.n,))[:self.p]
        return blocks

    def resolvent(self, dt):
        """(I - dt A)^-1 as its Bloch blocks, shape (N_c//2 + 1, p, p): one
        p x p inverse per block."""
        _check_positive("dt", dt)
        return np.linalg.inv(np.eye(self.p) - dt * self.blocks)

    @property
    def matrix(self):
        """The real n x n matrix, materialized from the blocks: the inverse
        FFT over t gives the cell-offset blocks C_d, and row cell a holds
        C_{a-b} in column cell b."""
        p = self.p
        cells = self.grid.n // p
        offsets = np.fft.irfft(self.blocks, n=cells, axis=0)
        out = np.empty((cells, p, cells, p))
        lag = np.arange(cells)
        for a in range(cells):
            out[a] = offsets[(a - lag) % cells].swapaxes(0, 1)
        return out.reshape(self.grid.n, self.grid.n)

    def __repr__(self):
        return "LineOperator(%s, n=%d, p=%d)" % (self.label, self.grid.n,
                                                 self.p)


def _down(a, values):
    """A scalar or a 1-d array along axis 0, broadcast over the columns of
    (n, m) values."""
    return np.reshape(a, np.shape(a) + (1,) * (values.ndim - 1))


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
    terms = [
        (_cell_trace(cset.a, grid, eps), derivative_symbol(grid.freqs, 2)),
        (_cell_trace(cset.b, grid, eps) / eps,
         derivative_symbol(grid.freqs, 1)),
        (_cell_trace(cset.lam, grid, eps) / eps**2,
         _line_jump_symbol(cset.kernel, grid, eps)),
    ]
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
