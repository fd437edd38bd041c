"""Torus cell problems and effective coefficients for both operator families.

Part I (integrable jumps).  The unit-cell generator is

    T v = a v'' + b v' + lambda(y) * int c(x - y) (v(x) - v(y)) dx,

realized as the one-cell case (p = n, block t = 0) of the Bloch-block
builder :func:`nlhom.torus._field_blocks` that also builds the Bloch
blocks of the line operators of ``lineops`` for the SPDE resolvent.
The solver chain is: invariant density m (adjoint null vector, normalized
mass one), drift centering check int b m = 0, first corrector chi
(T chi = -b with int chi m = 0), the effective diffusivity Q evaluated from
the symmetric two-term functional, the auxiliary correctors h1/h2 whose
solvability condition recovers Q by an independent route, and Q1, the
functional on h1, which is the measure-reweighted (time-reversed)
generator's corrector up to a constant.  The z-integrals of Q and of the
correctors' right-hand sides are sums over the kernel's one panel rule,
``kernels._quadrature_nodes`` (the rule of the kernel moments too), taken
as half-spectrum multipliers by :func:`_z_symbols`.
The rule is mirrored, so the multipliers are cosine and sine sums over its
positive half, ``kernels._half_rule``: exactly real for the even powers of
z, exactly imaginary for the odd one, with the phases of all n/2 + 1
frequencies built by angle addition from two tables of about sqrt(n/2)
phases per node.  The coercivity witness's random fields are real inverse
FFTs of half spectra.

Part II (alpha-stable jumps).  The unit-cell generator is

    L v = -delta(y)^alpha (-Delta)^{alpha/2} v + d(y) v',

with invariant density m1, auxiliary corrector h3, the zero-order corrector
e1, and the averaged coefficients of the limit operator.

All singular solves follow the same Fredholm discipline: check the
solvability integral, solve, fix the free constant by the stated
normalization, then verify the defining-equation residual.  The solve is one
LU factorization per generator of the bordered matrix [[A, s 1], [s 1^T, 0]]
(Keller's bordering), which is nonsingular exactly when the null space of A
is one-dimensional: every left null vector met here (constants, m, m1) pairs
positively with the ones border.  LAPACK's condition estimate of the LU is
the rank guard.  A :class:`CellOperator` is the one operator of the layer:
the generator of one coefficient set with that one LU, and every stage of
the chain takes it.  Direct and transposed solves with the LU serve the
whole chain -- m and m1 as adjoint null vectors, chi and e1 as direct
solves, and h1, h2, h3 through A*(m h) = rhs followed by a division by
the density -- and every stage checks its residual through
:meth:`CellOperator.residual`, matrix-free: h1, h2 and h3 on y = m h
against A^T.  The drift centering of ``fixtures`` factors only its first
sweep's generator B: a later sweep's operator is A = B - shift D1, which
solves on B's LU by defect correction (:meth:`CellOperator.shifted`).
"""

import copy
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Tuple

import numpy as np
from scipy.linalg import LinAlgWarning, circulant, lu_factor, lu_solve
from scipy.linalg.lapack import dgecon, dlange

from .coefficients import CoefficientSetI, CoefficientSetII
from .kernels import _half_rule, jump_column
from .torus import (
    TWO_PI,
    PeriodicField,
    _apply_symbol,
    _field_blocks,
    _stable_terms,
    _symbol_column,
    derivative_symbol,
)

__all__ = [
    "SolvabilityError",
    "RankDeficiencyError",
    "CellSolutionI",
    "CellSolutionII",
    "CellOperator",
    "assemble_torus_generator_I",
    "assemble_torus_generator_II",
    "solve_invariant_density_I",
    "check_centering_I",
    "solve_corrector_chi",
    "compute_Q",
    "solve_h1",
    "solve_h2",
    "zakai_cell_I",
    "solve_invariant_density_II",
    "check_centering_II",
    "solve_h3",
    "solve_e1",
    "effective_coefficients_II",
    "coercivity_witness_I",
    "solve_cell_I",
    "solve_cell_II",
]


class SolvabilityError(RuntimeError):
    """A Fredholm solvability integral exceeded its tolerance."""


class RankDeficiencyError(RuntimeError):
    """A singular system has more than a one-dimensional null space."""


_SOLVE_TOL = 1e-10
_SOLVABILITY_TOL = 1e-8
# reciprocal condition number below which a bordered generator counts as
# having more than a one-dimensional null space
_RCOND_MIN = 1e-10


# ---------------------------------------------------------------------------
# singular-solve machinery
# ---------------------------------------------------------------------------


class _BorderedLU:
    """One LU factorization of the bordered matrix [[A, s 1], [s 1^T, 0]].

    It keeps the generator A (``generator``) and its squared row and column
    2-norms (``rows``, ``cols``).  s = ``norm`` / sqrt(n), ``norm`` the
    largest row or column 2-norm of A (a lower bound on ||A||_2 within a
    factor sqrt(n) of it, for O(n^2) work instead of an SVD), gives the
    border the operator's scale.  The bordered matrix is nonsingular
    exactly when A has a one-dimensional null space whose right and left
    null vectors both have a nonzero sum; a condition estimate (LAPACK
    gecon) below _RCOND_MIN is reported as rank deficiency.  Because the
    border is symmetric, the transposed solve is the bordered system of
    A^T, so one factorization serves both A and its adjoint.
    """

    def __init__(self, A):
        n = A.shape[0]
        self.generator = A
        self.rows = np.einsum("ij,ij->i", A, A)
        self.cols = np.einsum("ij,ij->j", A, A)
        self.norm = float(np.sqrt(max(self.rows.max(), self.cols.max())))
        s = self.norm / np.sqrt(n)
        B = np.empty((n + 1, n + 1), order="F")  # LAPACK's layout: no copy
        B[:n, :n] = A
        B[:n, n] = s
        B[n, :n] = s
        B[n, n] = 0.0
        anorm = dlange("1", B)
        with warnings.catch_warnings():
            # an exactly zero pivot shows up below as rcond = 0
            warnings.simplefilter("ignore", LinAlgWarning)
            self._lu = lu_factor(B, overwrite_a=True, check_finite=False)
        rcond, _ = dgecon(self._lu[0], anorm, norm="1")
        if not rcond >= _RCOND_MIN:
            raise RankDeficiencyError(
                "bordered generator is numerically singular (rcond %.3g):"
                " null space dimension > 1" % rcond
            )
        self._n = n
        self._s = s

    @cached_property
    def derivative_cross(self):
        """(row_cross, col_cross, d2): the inner products of the rows and
        columns of A with those of the derivative matrix D1, and the
        squared norm of a row of D1.  The squared row norms of A - c D1
        are rows - 2 c row_cross + c^2 d2, and likewise its columns'."""
        A = self.generator
        k = np.arange(self._n // 2 + 1.0)
        column = _symbol_column(derivative_symbol(k, 1))
        D1 = circulant(column)  # D1[i, j] = column[(i - j) mod n]
        return (np.einsum("ij,ij->i", A, D1), np.einsum("ij,ij->j", A, D1),
                float(column @ column))

    def solve(self, rhs, total=0.0, adjoint=False):
        """x with A x = rhs (A^T x = rhs if adjoint) and sum(x) = total.

        rhs must lie in the range; otherwise the border absorbs the
        inconsistent part along the ones vector.
        """
        b = np.append(np.asarray(rhs, dtype=float), self._s * total)
        return self.solve_bordered(b, adjoint)[: self._n]

    def solve_bordered(self, b, adjoint=False):
        """The bordered system itself: (x, mu) for the n + 1 entries b."""
        return lu_solve(self._lu, b, trans=1 if adjoint else 0,
                        check_finite=False)


def _z_symbols(kernel, n):
    """rfft-ordered symbols S_j(k) = sum_q w_q c(z_q) z_q^j e^{-2 pi i k z_q}
    for j = 0, 1, 2, shape (n/2 + 1, 3).

    Column j is the Fourier multiplier of f -> sum_q w_q c(z_q) z_q^j
    f(y - z_q), the quadrature of int z^j c(z) f(y - z) dz with f extended
    periodically.  irfft keeps the real part at Nyquist, the cosine
    convention of :meth:`PeriodicField.shifted`.

    The panel rule is mirrored, each panel's nodes z_q followed by -z_q
    with the same weights, so the sums run over its positive half,
    ``kernels._half_rule``: S_0 and S_2 are sum 2 w c z^j cos(2 pi k z),
    exactly real, and S_1 is -i sum 2 w c z sin(2 pi k z), exactly
    imaginary.  The phases come by angle addition, e^{2 pi i (B a + b) z}
    = e^{2 pi i B a z} e^{2 pi i b z} with B = ceil(sqrt(n/2 + 1)): two
    tables of about sqrt(n/2) phases per node and one complex matrix
    product of them, instead of a phase per frequency and node.
    """
    z, w = (x.ravel() for x in _half_rule(kernel))
    moments = 2.0 * w * kernel.evaluate(z) * z ** np.arange(3)[:, None]
    size = n // 2 + 1
    B = int(np.ceil(np.sqrt(size)))
    low = _phases(np.arange(B), z)
    high = _phases(B * np.arange(-(-size // B)), z)
    # sums[a, 3 b + j] = sum_q e^{2 pi i (B a + b) z_q} moments[j, q]
    sums = high @ (low[:, None, :] * moments).reshape(3 * B, -1).T
    sums = sums.reshape(-1, 3)[:size]
    S = np.zeros((size, 3), dtype=complex)
    S.real[:, ::2] = sums.real[:, ::2]
    S.imag[:, 1] = -sums.imag[:, 1]
    return S


def _phases(k, z):
    """e^{2 pi i k z} for the integers k (rows) and the nodes z (columns),
    with k z reduced mod 1 exactly: z = zh + zl, zh on the grid 2^-30, so
    every product k zh is exact while |k z| < 2^23, and only the small
    k zl is rounded."""
    zh = np.round(z * 2.0**30) / 2.0**30
    turns = np.outer(k, zh)
    turns -= np.rint(turns)
    turns += np.outer(k, z - zh)
    return np.exp(1j * TWO_PI * turns)


def _assemble(cset):
    if isinstance(cset, CoefficientSetI):
        return assemble_torus_generator_I(cset)
    return assemble_torus_generator_II(cset)


# a defect correction whose correction fails to halve has converged if its
# relative residual is then at most this; the rounding floor, 1e-16 on the
# fixtures and random sets at n = 64 ... 2048, is far below it
_REFINE_TOL = 1e-15


class CellOperator:
    """The unit-cell generator A of one coefficient set, with one LU.

    ``lu`` is a :class:`_BorderedLU` of the generator B it factored, and A
    = B - ``shift`` D1, D1 the spectral derivative.  ``CellOperator(cset)``
    assembles T (Part I) or L (Part II) of ``cset`` and factors it, so
    shift = 0 and A = B; :meth:`shifted` gives the operator of a set whose
    drift is this one's lowered by a constant, on the same LU.
    :meth:`solve` serves every direct and adjoint solve of the chain, and
    :meth:`apply` and :meth:`residual` act with A and A^T without forming
    them; ``z_symbols`` are the Part I kernel-quadrature multipliers of
    :func:`_z_symbols`, built on first use.
    """

    # a first guess of the invariant density, for solves by refinement
    _density_start = None
    shift = 0.0

    def __init__(self, cset):
        self.cset = cset
        self.lu = _BorderedLU(_assemble(cset))

    @cached_property
    def z_symbols(self):
        return _z_symbols(self.cset.kernel, self.cset.grid.n)

    def shifted(self, cset, step, density_start):
        """The operator of ``cset``, whose drift is that of ``self.cset``
        lowered by the constant ``step``: A - step D1, on this operator's
        LU.  Its invariant density starts from ``density_start``."""
        op = copy.copy(self)
        op.cset = cset
        op.shift = self.shift + step
        op._density_start = density_start
        return op

    def apply(self, x, adjoint=False):
        """A x (A^T x if adjoint, with D1^T = -D1) for grid values x, or
        for each row of x."""
        B = self.lu.generator
        Ax = x @ B if adjoint else x @ B.T
        if self.shift:
            c = self.shift if adjoint else -self.shift
            k = np.arange(x.shape[-1] // 2 + 1.0)
            Ax += c * _apply_symbol(x, derivative_symbol(k, 1))
        return Ax

    def solve(self, rhs, total=0.0, adjoint=False, start=None):
        """x with A x = rhs (A^T x = rhs if adjoint) and sum(x) = total.

        At shift 0 it is the LU solve.  Otherwise it solves by defect
        correction on the LU (:meth:`_refine`) from ``start``, a first
        guess; if that fails to converge, it factors A itself in place and
        goes on at shift 0.
        """
        if self.shift:
            x = self._refine(rhs, total, adjoint, start)
            if x is not None:
                return x
            self.lu = None  # released before the new generator exists
            self.lu = _BorderedLU(_assemble(self.cset))
            self.shift = 0.0
        return self.lu.solve(rhs, total, adjoint)

    def _refine(self, rhs, total, adjoint, start):
        """The solve by defect correction on the bordered LU of B: y <- y +
        LU^-1 (b - M y), M the bordered matrix of A with B's border.

        Starts from ``start`` (or zero).  With rate the ratio of the last
        two corrections, it returns once the error left, at most
        rate / (1 - rate) times the last correction, is below n u ||x||.
        It stops at the first correction that fails to halve: there the
        corrections are rounding noise, or they do not contract, and the
        residual tells which.  It returns None unless the relative
        residual is then at most _REFINE_TOL.  The residual alone does not
        serve as the stop: the border row's rounding noise can hide a
        smooth residual that still moves int b m by 1e-13.
        """
        lu = self.lu
        n, s = lu._n, lu._s
        b = np.append(np.asarray(rhs, dtype=float), s * total)

        def defect(y):
            x = y[:n]
            return b - np.append(self.apply(x, adjoint) + s * y[n],
                                 s * np.sum(x))

        y = np.zeros(n + 1)
        if start is not None:
            y[:n] = start
        floor = n * np.finfo(float).eps
        dy = lu.solve_bordered(defect(y), adjoint)
        y += dy
        last = np.linalg.norm(dy[:n])
        while True:
            dy = lu.solve_bordered(defect(y), adjoint)
            y += dy
            size = np.linalg.norm(dy[:n])
            if not size < 0.5 * last:
                break
            rate = size / last
            if rate / (1.0 - rate) * size <= floor * np.linalg.norm(y[:n]):
                return y[:n]
            last = size
        scale = s * np.sqrt(n) * max(np.linalg.norm(y[:n]), 1.0) \
            + np.linalg.norm(b)
        converged = np.linalg.norm(defect(y)) <= _REFINE_TOL * scale
        return y[:n] if converged else None

    def residual(self, x, rhs, adjoint=False):
        """||A x - rhs|| / (||A|| max(||x||, 1) + ||rhs||), A^T for A if
        adjoint.

        ||A|| is the largest row or column 2-norm of A = B - shift D1,
        exact from the LU's squared norms of B and, at a nonzero shift,
        their cross terms with D1: a lower bound on the 2-norm, so the
        ratio is never smaller than with the exact 2-norm.  The unit floor
        keeps it meaningful when the exact solution is the zero field
        (constant-coefficient degenerate cases).
        """
        lu = self.lu
        norm = lu.norm
        if self.shift:
            c = self.shift
            row_cross, col_cross, d2 = lu.derivative_cross
            norm = np.sqrt(max(np.max(lu.rows - 2.0 * c * row_cross),
                               np.max(lu.cols - 2.0 * c * col_cross))
                           + c * c * d2)
        return np.linalg.norm(self.apply(x, adjoint) - rhs) / (
            norm * max(np.linalg.norm(x), 1.0) + np.linalg.norm(rhs))


def _invariant_density(op, label):
    """The adjoint null vector m of the generator of op, positive, with
    int m = 1."""
    n = op.cset.grid.n
    m = op.solve(np.zeros(n), total=n, adjoint=True,
                 start=op._density_start)
    rel = op.residual(m, np.zeros(n), adjoint=True)
    if np.min(m) <= 0.0:
        raise SolvabilityError(
            "%s is not positive (min %.3g): assumptions violated"
            % (label, np.min(m))
        )
    if rel > _SOLVE_TOL:
        raise RuntimeError("%s residual %.3g above tolerance" % (label, rel))
    return PeriodicField(op.cset.grid, m), rel


def _weighted_adjoint_solve(op, m, rhs, label):
    """Mean-zero h with A*(m h) = rhs, A the generator of op: the adjoint
    solve with the bordered LU, then a division by the density m.  The
    residual is that of A* y = rhs at y = m h."""
    h = op.solve(rhs, adjoint=True) / m.values
    h = h - np.mean(h)
    rel = op.residual(m.values * h, rhs, adjoint=True)
    if rel > _SOLVE_TOL:
        raise RuntimeError("%s residual %.3g above tolerance" % (label, rel))
    return PeriodicField(op.cset.grid, h), rel


# ---------------------------------------------------------------------------
# Part I: generator, invariant density, correctors, Q
# ---------------------------------------------------------------------------


def assemble_torus_generator_I(cset: CoefficientSetI):
    """Matrix of the unit-cell generator: the one-cell Bloch block (p = n,
    block t = 0) of a D2 + b D1 + lambda J.

    The jump column J subtracts the discrete mass of the periodized kernel
    at lag 0, so the matrix annihilates constants exactly rather than to
    quadrature accuracy.
    """
    n = cset.grid.n
    k = np.arange(n // 2 + 1.0)
    return _field_blocks(n, [
        (cset.a.values, _symbol_column(derivative_symbol(k, 2))),
        (cset.b.values, _symbol_column(derivative_symbol(k, 1))),
        (cset.lam.values, jump_column(cset.kernel, n, 1.0, 1.0)),
    ])[0]


def solve_invariant_density_I(op):
    """Invariant density: T* m = 0, int m = 1, as the adjoint null vector of
    the bordered generator of the :class:`CellOperator` ``op``."""
    return _invariant_density(op, "invariant density")


def check_centering_I(cset, m):
    """The admissibility integral int b m dy (must vanish for homogenization)."""
    return float(np.sum(cset.b.values * m.values) * cset.grid.h)


def solve_corrector_chi(op, m):
    """First corrector: T chi = -b on the torus, normalized by int chi m = 0."""
    cset = op.cset
    centering = check_centering_I(cset, m)
    if abs(centering) > _SOLVABILITY_TOL:
        raise SolvabilityError(
            "centering integral %.3g violates solvability of the corrector"
            % centering
        )
    chi = op.solve(-cset.b.values)
    chi = chi - np.sum(chi * m.values) * cset.grid.h  # exact m-orthogonality
    rel = op.residual(chi, -cset.b.values)
    if rel > _SOLVE_TOL:
        raise RuntimeError("corrector residual %.3g above tolerance" % rel)
    return PeriodicField(cset.grid, chi), rel


def compute_Q(op, m, chi):
    """Effective diffusivity from the symmetric two-term functional:

        Q = int a m (chi' + 1)^2 dy
            + 1/2 int_T int_R c(z) (lambda m)(y - z) [z + chi(y) - chi(y-z)]^2 dz dy.

    The z-integral runs over the kernel's truncated support with chi and m
    extended periodically, on symmetric Gauss panels.  Expanding the square
    turns the node sum into six convolutions with the multipliers
    ``op.z_symbols``.
    """
    cset = op.cset
    grid = cset.grid
    dchi = chi.derivative(1).values
    term1 = float(np.sum(cset.a.values * m.values * (dchi + 1.0) ** 2) * grid.h)

    S = op.z_symbols
    c = chi.values
    lamm = cset.lam.values * m.values
    lamm_c = lamm * c

    def conv(f, j):
        return _apply_symbol(f, S[:, j])

    acc = (conv(lamm, 2) + c * c * conv(lamm, 0) + conv(lamm_c * c, 0)
           + 2.0 * c * conv(lamm, 1) - 2.0 * conv(lamm_c, 1)
           - 2.0 * c * conv(lamm_c, 0))
    term2 = 0.5 * float(np.sum(acc) * grid.h)
    return term1 + term2


def _corrector_rhs_l(op, m):
    """l(y) = int z c(z) (lambda m)(y - z) dz + b m - 2 (a m)'."""
    cset = op.cset
    J = _apply_symbol(cset.lam.values * m.values, op.z_symbols[:, 1])
    am_prime = PeriodicField(cset.grid, cset.a.values * m.values) \
        .derivative(1).values
    return J + cset.b.values * m.values - 2.0 * am_prime


def solve_h1(op, m):
    """First auxiliary corrector: (T_m)* h1 = l, mean-zero h1.

    (T_m)* acts as h -> T*(m h); its solvability integral int l dy vanishes
    identically in the continuum and must vanish to 1e-8 discretely.  The
    solve is the adjoint one with the bordered LU of T, then h1 = (m h1) / m.
    """
    l = _corrector_rhs_l(op, m)
    solvability = float(np.sum(l) * op.cset.grid.h)
    if abs(solvability) > _SOLVABILITY_TOL:
        raise SolvabilityError(
            "int l dy = %.3g: discretization inconsistency (should vanish)"
            % solvability
        )
    h1, rel = _weighted_adjoint_solve(op, m, l, "h1")
    return h1, solvability, rel


def solve_h2(op, m, h1):
    """Second auxiliary corrector and the solvability route to Q:

        (T_m)* h2 = Q_alt - G(y),
        G = int c(z) (lambda m)(y-z) (z^2/2 - z h1(y-z)) dz + a m
            + 2 (a m h1)' - b m h1,

    with Q_alt = int G dy the unique constant making the system solvable.

    The sign of the right-hand side matters even though Q_alt does not
    depend on it: expanding the adjoint action on the corrected test
    function m(x/e)(xi + e h1 xi' + e^2 h2 xi'') gives a second-order
    coefficient G + (T_m)*h2, so only this orientation collapses it to the
    constant Q_alt; the opposite one doubles the oscillation instead of
    cancelling it (measured: the two-scale residual then stalls at O(1)).
    """
    cset = op.cset
    grid = cset.grid
    lamm = cset.lam.values * m.values
    S = op.z_symbols
    conv_half_z2 = 0.5 * _apply_symbol(lamm, S[:, 2])
    conv_z_h1 = _apply_symbol(lamm * h1.values, S[:, 1])
    amh1_prime = PeriodicField(
        grid, cset.a.values * m.values * h1.values
    ).derivative(1).values
    G = (
        conv_half_z2
        - conv_z_h1
        + cset.a.values * m.values
        + 2.0 * amh1_prime
        - cset.b.values * m.values * h1.values
    )
    Q_alt = float(np.sum(G) * grid.h)
    h2, rel = _weighted_adjoint_solve(op, m, Q_alt - G, "h2")
    return h2, Q_alt, rel


def zakai_cell_I(op, m, h1):
    """Effective diffusivity Q1 of the measure-reweighted
    (unnormalized-filter) generator, the exact m-reversal T_hat v = (1/m)
    T*(m v): drift 2(am)'/m - b, jump kernel c(y-x) lambda(x) m(x) / m(y).

    Its corrector solves T_hat chi1 = b_hat + J/m, b_hat = b - 2(am)'/m and
    J(y) = int z c(z) (lambda m)(y-z) dz, that is T*(m chi1) = l, the system
    of h1: chi1 is h1 up to a constant, which the two-term functional
    ignores.  So Q1 is that functional on h1, and it must reproduce Q, since
    reversing time does not change the stationary variance growth.
    """
    return compute_Q(op, m, h1)


# the coercivity witness's sample: _WITNESS_FIELDS random fields of the
# modes below n/4, drawn from one stream of seed _WITNESS_SEED
_WITNESS_FIELDS = 120
_WITNESS_SEED = 7


@lru_cache(maxsize=None)
def _witness_fields(n):
    """The witness's sample U on n grid points and its derivative dU, shape
    (_WITNESS_FIELDS, n): each field draws Re/Im of modes 1 .. n/4 - 1 in
    turn, then the mean, and is the irfft of that half spectrum.  They
    depend only on n, so they are drawn once per n and read-only."""
    rng = np.random.default_rng(_WITNESS_SEED)
    kmax = n // 4
    draws = rng.normal(size=(_WITNESS_FIELDS, 2 * (kmax - 1) + 1))
    coeffs = np.zeros((_WITNESS_FIELDS, n // 2 + 1), dtype=complex)
    coeffs[:, 0] = draws[:, -1]
    coeffs[:, 1:kmax] = draws[:, 0:-1:2] + 1j * draws[:, 1:-1:2]
    U = np.fft.irfft(coeffs, n, norm="forward")
    dU = np.fft.irfft(coeffs * (1j * TWO_PI * np.arange(n // 2 + 1)), n,
                      norm="forward")
    U.flags.writeable = False
    dU.flags.writeable = False
    return U, dU


def coercivity_witness_I(op, m):
    """Garding-inequality witness for the weighted form a[u,u] = -<m T u, u>.

    Returns (alpha_c, mu, margin) where alpha_c = kappa * min(m) and mu is
    computed from the coefficient bounds so that

        a[u,u] + mu ||u||^2 >= (alpha_c/2) (||u||^2 + ||u'||^2)

    holds for band-limited fields; margin is the worst observed slack over
    the random sample (negative margin = violation).  The sample is
    :func:`_witness_fields`: real fields built by irfft from half spectra,
    so no complex full-spectrum array is formed.
    """
    cset = op.cset
    grid = cset.grid
    h = grid.h
    am = cset.a.values * m.values
    am_field = PeriodicField(grid, am)
    # constants of the discrete Garding bound
    A1 = float(np.min(am))
    C1 = float(np.max(np.abs(am_field.derivative(1).values
                             - cset.b.values * m.values)))
    jump = np.fft.rfft(jump_column(cset.kernel, grid.n, 1.0, 1.0))
    jump_zero_order = _apply_symbol(cset.lam.values * m.values, jump)
    C2 = 0.5 * float(np.max(np.abs(jump_zero_order)))
    alpha_c = cset.kappa * float(np.min(m.values))
    mu = C1**2 / (2.0 * A1) + C2 + 0.5 * A1 + 0.5 * alpha_c

    U, dU = _witness_fields(grid.n)
    form = -np.sum(m.values * op.apply(U) * U, axis=1) * h
    l2 = np.sum(U**2, axis=1) * h
    h1n = l2 + np.sum(dU**2, axis=1) * h
    margin = float(np.min(form + mu * l2 - 0.5 * alpha_c * h1n))
    return alpha_c, mu, margin


@dataclass
class CellSolutionI:
    """Everything the Part I cell analysis produces."""

    cset: CoefficientSetI
    m: PeriodicField
    chi: PeriodicField
    h1: PeriodicField
    h2: PeriodicField
    Q: float
    Q_alt: float
    Q1: float
    sigma_bar: float
    solvability_l: float
    centering: float
    residuals: Dict[str, float]
    coercivity: Tuple[float, float]


def solve_cell_I(cset) -> CellSolutionI:
    """Run the full Part I chain with all cross-checks on one
    :class:`CellOperator`: one bordered LU of T serves every singular solve
    and one set of z-symbols every kernel quadrature."""
    op = CellOperator(cset)
    m, res_m = solve_invariant_density_I(op)
    centering = check_centering_I(cset, m)
    chi, res_chi = solve_corrector_chi(op, m)
    Q = compute_Q(op, m, chi)
    h1, solv_l, res_h1 = solve_h1(op, m)
    h2, Q_alt, res_h2 = solve_h2(op, m, h1)
    Q1 = zakai_cell_I(op, m, h1)
    sigma_bar = float(np.sum(cset.sigma.values * m.values) * cset.grid.h)
    alpha_c, mu, margin = coercivity_witness_I(op, m)
    if margin < -1e-9:
        raise RuntimeError("coercivity witness violated (margin %.3g)" % margin)
    return CellSolutionI(
        cset=cset,
        m=m,
        chi=chi,
        h1=h1,
        h2=h2,
        Q=Q,
        Q_alt=Q_alt,
        Q1=Q1,
        sigma_bar=sigma_bar,
        solvability_l=solv_l,
        centering=centering,
        residuals={
            "m": res_m,
            "chi": res_chi,
            "h1": res_h1,
            "h2": res_h2,
        },
        coercivity=(alpha_c, mu),
    )


# ---------------------------------------------------------------------------
# Part II: stable generator, m1, h3, e1, averages
# ---------------------------------------------------------------------------


def assemble_torus_generator_II(cset: CoefficientSetII):
    """Matrix of L v = -delta^alpha (-Delta)^{alpha/2} v + d v': the
    one-cell Bloch block (p = n, block t = 0)."""
    n = cset.grid.n
    terms = _stable_terms(np.arange(n // 2 + 1.0), cset.alpha,
                          cset.delta_alpha.values, cset.d.values)
    return _field_blocks(n, [(field, _symbol_column(symbol))
                             for field, symbol in terms])[0]


def solve_invariant_density_II(op):
    """Invariant density of the stable cell process: L* m1 = 0, int m1 = 1,
    from the :class:`CellOperator` ``op``."""
    return _invariant_density(op, "stable invariant density")


def check_centering_II(cset, m1):
    return float(np.sum(cset.d.values * m1.values) * cset.grid.h)


def solve_h3(op, m1):
    """Auxiliary corrector: (L_m)* h3 = d m1 with int h3 dy = 0.

    The mean-zero normalization matches the Part I corrector convention.
    Under it the corrected test function m1(x/e)(xi + e h3 xi') degenerates
    to xi itself for constant coefficients, so the drift-free two-scale
    residual vanishes identically rather than stalling at O(e).
    """
    cset = op.cset
    solvability = check_centering_II(cset, m1)
    if abs(solvability) > _SOLVABILITY_TOL:
        raise SolvabilityError(
            "int d m1 = %.3g violates solvability of h3" % solvability
        )
    return _weighted_adjoint_solve(op, m1, cset.d.values * m1.values, "h3")


def solve_e1(op, m1):
    """Zero-order corrector: L e1 = -e with int e1 m1 = 0.

    Exact solvability needs int e m1 = 0; if violated the system is solved
    in the least-squares sense and a warning records the defect.  The
    least-squares answer is the exact solution for -e projected off m1 (the
    left null vector of L); the reported residual is against -e itself.
    """
    cset = op.cset
    grid = cset.grid
    solvability = float(np.sum(cset.e.values * m1.values) * grid.h)
    if abs(solvability) > _SOLVABILITY_TOL:
        warnings.warn(
            "int e m1 = %.3g != 0: e1 computed in the least-squares sense"
            % solvability,
            RuntimeWarning,
        )
    rhs = -cset.e.values
    w = m1.values
    e1 = op.solve(rhs - w * (w @ rhs) / (w @ w))
    e1 = e1 - np.sum(e1 * w) * grid.h
    rel = op.residual(e1, rhs)
    if rel > _SOLVE_TOL and abs(solvability) <= _SOLVABILITY_TOL:
        raise RuntimeError("e1 residual %.3g above tolerance" % rel)
    return PeriodicField(grid, e1), solvability, rel


def effective_coefficients_II(cset, m1):
    """(delta_bar_alpha, g_bar, f_bar, sigma_bar): m1-weighted averages."""
    h = cset.grid.h
    w = m1.values
    return (
        float(np.sum(cset.delta_alpha.values * w) * h),
        float(np.sum(cset.g.values * w) * h),
        float(np.sum(cset.f.values * w) * h),
        float(np.sum(cset.sigma.values * w) * h),
    )


@dataclass
class CellSolutionII:
    cset: CoefficientSetII
    m1: PeriodicField
    h3: PeriodicField
    e1: PeriodicField
    delta_bar_alpha: float
    g_bar: float
    f_bar: float
    sigma_bar: float
    centering: float
    residuals: Dict[str, float]


def solve_cell_II(cset) -> CellSolutionII:
    """Run the full Part II chain on one :class:`CellOperator`, the one
    bordered LU of L."""
    op = CellOperator(cset)
    m1, res_m1 = solve_invariant_density_II(op)
    centering = check_centering_II(cset, m1)
    h3, res_h3 = solve_h3(op, m1)
    e1, solv_e, res_e1 = solve_e1(op, m1)
    dba, g_bar, f_bar, sigma_bar = effective_coefficients_II(cset, m1)
    if dba <= 0:
        raise SolvabilityError("averaged stable coefficient must be positive")
    return CellSolutionII(
        cset=cset,
        m1=m1,
        h3=h3,
        e1=e1,
        delta_bar_alpha=dba,
        g_bar=g_bar,
        f_bar=f_bar,
        sigma_bar=sigma_bar,
        centering=centering,
        residuals={"m1": res_m1, "h3": res_h3, "e1": res_e1},
    )
