"""Torus cell problems and effective coefficients for both operator families.

Part I (integrable jumps).  The unit-cell generator is

    T v = a v'' + b v' + lambda(y) * int c(x - y) (v(x) - v(y)) dx,

held as a one-cell :class:`nlhom.torus.LineOperator` (p = n), built from
the Part I terms that ``lineops.assemble_T_eps`` uses too.
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
positively with the ones border.  The factorization is banded, in real
Fourier coordinates where a field of modes up to w couples each Fourier
mode only to those within w of it or of its conjugate (:class:`_BorderedLU`,
built from the generator's terms in O(n w)); its condition estimate is the
rank guard.  A :class:`CellOperator` is the one operator of the layer: the
generator of one coefficient set as its terms, with that one LU, and no
dense cell matrix.  Direct and transposed solves with the LU serve the whole
chain -- m and m1 as adjoint null vectors, chi and e1 as direct solves, and
h1, h2, h3 through A*(m h) = rhs followed by a division by the density --
each refined against the FFT apply, since the band drops the field modes
below rounding.  Every stage checks its residual through
:meth:`CellOperator.residual`, from the terms by FFT: h1, h2 and h3 on
y = m h against A^T.  The drift centering of ``fixtures`` factors only its
first sweep's generator: a later sweep's operator, the same terms with its
drift field, solves on that LU by defect correction
(:meth:`CellOperator.shifted`).
"""

import copy
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Tuple

import numpy as np
from scipy.linalg.lapack import dgbcon, dgbtrf, dgbtrs

from .coefficients import CoefficientSetI, CoefficientSetII
from .kernels import _half_rule, jump_column
from .torus import (
    TWO_PI,
    LineOperator,
    PeriodicField,
    _apply_symbol,
    _check_type,
    _jump_terms,
    _stable_terms,
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
    """One banded LU factorization of the bordered generator [[A, s 1],
    [s 1^T, 0]] of a one-cell :class:`nlhom.torus.LineOperator` A, in real
    Fourier coordinates, and nothing else.

    s = ``norm`` / sqrt(n), ``norm`` the largest row or column 2-norm of A
    (:func:`_generator_norm`), gives the border the operator's scale.  In
    the coordinates y = Phi x (:func:`_to_real`) A is G = Phi A Phi^-1,
    whose entries couple Fourier modes k and m only through the modes m - k
    and m + k of the fields: with w the highest field mode the band keeps,
    G has the half-bandwidth 2w + 1 (:func:`_generator_band`), and the ones
    border touches only y_0 = sum(x).  The system factored is

        M = [[0, norm e_0^T], [norm e_0, G]]

    in the unknowns (sqrt(n) mu, y), a band matrix of (n + 1) rows.  M is
    nonsingular exactly when A has a one-dimensional null space whose right
    and left null vectors both have a nonzero sum; a condition estimate
    (LAPACK gbcon) below _RCOND_MIN is reported as rank deficiency.  Phi's
    rows are orthogonal with the squared norms W = (n, n/2, ..., n/2, n),
    so Phi^-T = W^-1 Phi and the transposed bordered system is M^T in the
    unknowns (mu / sqrt(n), W^-1 Phi x): one factorization serves both A and
    its adjoint.  The band drops field modes below rounding, so a solve is
    exact only to that rounding; :meth:`CellOperator.solve` refines it
    against the exact FFT apply.
    """

    def __init__(self, generator, norm):
        n = generator.grid.n
        ab, bw = _generator_band(generator, norm)
        anorm = float(np.max(np.sum(np.abs(ab), axis=0)))
        self._lu, self._piv, info = dgbtrf(ab, bw, bw, overwrite_ab=True)
        # an exactly zero pivot (info > 0) is rank deficiency outright
        rcond = dgbcon(bw, bw, self._lu, self._piv, anorm)[0] if info == 0 \
            else 0.0
        if not rcond >= _RCOND_MIN:
            raise RankDeficiencyError(
                "bordered generator is numerically singular (rcond %.3g):"
                " null space dimension > 1" % rcond
            )
        self._n = n
        self._s = norm / np.sqrt(n)
        self._bw = bw
        # W, the squared norms of Phi's rows
        self._weights = np.full(n, 0.5 * n)
        self._weights[[0, -1]] = n

    def solve_bordered(self, b, adjoint):
        """(x, mu) with [[A, s 1], [s 1^T, 0]] (x, mu) = b, the n + 1
        entries b, or with the transposed bordered matrix if adjoint."""
        n = self._n
        root = np.sqrt(n)
        weights = self._weights
        z = np.empty(n + 1)
        z[1:] = _to_real(np.fft.rfft(b[:n]))
        if adjoint:
            z[0] = b[n] / root
            z[1:] /= weights
        else:
            z[0] = b[n] * root
        z, _ = dgbtrs(self._lu, self._bw, self._bw, z, self._piv,
                      trans=int(adjoint))
        if adjoint:
            return np.append(np.fft.irfft(_from_real(weights * z[1:]), n),
                             root * z[0])
        return np.append(np.fft.irfft(_from_real(z[1:]), n), z[0] / root)


def _to_real(spec):
    """The real Fourier coordinates (Re X_0, Re X_1, Im X_1, ...,
    Re X_{n/2}) of a half spectrum X: its real view without Im X_0 and
    Im X_{n/2}, which vanish for a real field."""
    v = spec.view(float)
    return np.concatenate([v[:1], v[2:-1]])


def _from_real(y):
    """The half spectrum of the real Fourier coordinates y."""
    v = np.zeros(y.size + 2)
    v[0] = y[0]
    v[2:-1] = y[1:]
    return v.view(complex)


@lru_cache(maxsize=32)
def _band_maps(n, w):
    """Where :func:`_generator_band` reads each band entry of G.

    The column of the coordinate Re X_k (Im X_k) is the input X_k = phi,
    phi = 1 (i), with its conjugate at -k, and A maps it to Out_m =
    phi H1[m - k, k] + conj(phi) H2[m + k, k], with H1[j, k] = sum_t F_t[j]
    S_t[k] and H2[j, k] = sum_t F_t[j] conj(S_t[k]) over the terms, halved
    for k = 0 and n/2 (where the two inputs are one); field modes are taken
    mod n into [-n/2, n/2).  The row reads Re or Im Out_m.  So each entry is
    c1 R[i1] + c2 R[i2], R the real view of (H1, H2, 0), c1 and c2 in
    {+-1/2, +-1}, and field modes beyond w point at the trailing zero.
    Returns (i1, c1, i2, c2), each of the shape (2 bw + 1, n + 1) of the
    band rows of M's LAPACK storage, bw = min(2w + 1, n); read-only.
    """
    half = n // 2 + 1
    bw = min(2 * w + 1, n)
    yj = np.arange(-1, n)
    yi = yj + np.arange(-bw, bw + 1)[:, None]
    inside = (yi >= 0) & (yi < n) & (yj >= 0)
    yi = np.clip(yi, 0, n - 1)
    yj = np.clip(yj, 0, n - 1)
    m, k = (yi + 1) // 2, (yj + 1) // 2
    row_im = (yi % 2 == 0) & (yi > 0)
    col_im = (yj % 2 == 0) & (yj > 0)
    c1 = np.where((yj == 0) | (yj == n - 1), 0.5, 1.0)
    c1 = np.where(col_im & ~row_im, -c1, c1)
    c2 = np.where(col_im, -c1, c1)
    size = (2 * w + 1) * half

    def index(j, which):
        flat = 2 * (which * size + (j + w) * half + k) + (row_im ^ col_im)
        return np.where(inside & (np.abs(j) <= w), flat, 4 * size)

    maps = (index((m - k + n // 2) % n - n // 2, 0), c1,
            index((m + k + n // 2) % n - n // 2, 1), c2)
    for a in maps:
        a.flags.writeable = False
    return maps


def _term_arrays(generator):
    """The fields, shape (k, n), and the half-spectrum symbols, shape
    (k, n/2 + 1), of a one-cell generator's terms, with its diagonal d as
    one more term of symbol 1: A = sum_k diag(f_k) S_k."""
    n = generator.grid.n
    terms = generator.terms + ((generator.diagonal, np.ones(n // 2 + 1)),)
    fields = np.array([np.broadcast_to(field, (n,)) for field, _ in terms])
    symbols = np.array([symbol for _, symbol in terms], dtype=complex)
    return fields, symbols


def _generator_band(generator, norm):
    """LAPACK band storage of M = [[0, norm e_0^T], [norm e_0, G]] for the
    one-cell generator A (:class:`_BorderedLU`), and its half-bandwidth bw.

    With d as one more term, of symbol 1, A = sum_t diag(f_t) S_t
    (:func:`_term_arrays`); F_t = rfft(f_t) / n are the fields' Fourier
    coefficients, and w is the lowest mode such that the sum over all
    modes |j| > w of sum_t |F_t[j]| max|s_t|, a bound on the 2-norm of
    what the band drops, is at most n u ``norm``.  A field sampled to
    rounding has noise of about u max|f_t| / sqrt(n) at every mode, which
    sums to about sqrt(n) u max|f_t| max|s_t|, below that bound: w follows
    the fields' content, not their rounding, and
    :meth:`CellOperator.solve`'s refinement removes the dropped part.  G's entries come
    from the (2w + 1) x (n/2 + 1) products H1, H2 of :func:`_band_maps`,
    O(n w) of them, with no n x n array.
    """
    n = generator.grid.n
    half = n // 2 + 1
    fields, S = _term_arrays(generator)
    F = np.fft.rfft(fields) / n
    # irfft keeps the real parts of the modes 0 and n/2
    S[:, [0, -1]] = S[:, [0, -1]].real
    # bound of mode j's part of A, counting its conjugate -j: the sum of
    # these bounds over the modes above w bounds what the band drops
    mode = np.sum(np.abs(F) * np.max(np.abs(S), axis=1)[:, None], axis=0)
    mode[1:-1] *= 2.0
    dropped = np.append(np.cumsum(mode[::-1])[-2::-1], 0.0)
    w = int(np.argmax(dropped <= n * np.finfo(float).eps * norm))
    Fw = np.concatenate([np.conj(F[:, w:0:-1]), F[:, :w + 1]], axis=1)
    size = (2 * w + 1) * half
    H = np.zeros(2 * size + 1, dtype=complex)
    H[:size] = (Fw.T @ S).ravel()
    H[size:-1] = (Fw.T @ np.conj(S)).ravel()
    i1, c1, i2, c2 = _band_maps(n, w)
    R = H.view(float)
    bw = min(2 * w + 1, n)
    ab = np.zeros((3 * bw + 1, n + 1), order="F")
    ab[bw:] = c1 * R[i1] + c2 * R[i2]
    ab[2 * bw - 1, 1] = ab[2 * bw + 1, 0] = norm
    return ab, bw


def _generator_norm(generator):
    """The largest row or column 2-norm of the matrix of a one-cell
    LineOperator, from its terms (:func:`_term_arrays`): the matrix is
    sum_k diag(f_k) C_k, C_k the circulant of the column
    c_k = irfft(s_k): row i has the squared norm sum_kl f_k[i] f_l[i]
    <c_k, c_l>, and column j the circular correlation sum_kl sum_i
    (f_k f_l)[i] (c_k c_l)[i - j], taken by FFT."""
    n = generator.grid.n
    F, S = _term_arrays(generator)
    C = np.fft.irfft(S, n)
    rows = np.einsum("ki,kl,li->i", F, C @ C.T, F)
    FF, CC = ((X[:, None] * X).reshape(-1, n) for X in (F, C))
    cols = np.fft.irfft(np.sum(np.fft.rfft(FF) * np.conj(np.fft.rfft(CC)),
                               axis=0), n)
    return float(np.sqrt(max(rows.max(), cols.max())))


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


def _generator(cset, jump):
    """The one-cell generator of ``cset``'s family, with the half spectrum
    ``jump`` of the Part I jump multiplier J (:func:`_jump_symbol`; None in
    Part II): the one place that knows each family's terms, label and zero
    order."""
    n = cset.grid.n
    freqs = np.arange(n // 2 + 1.0)
    if isinstance(cset, CoefficientSetI):
        terms = _jump_terms(freqs, cset.a.values, cset.b.values,
                            cset.lam.values, jump)
        label = "T[%s]"
    else:
        terms = _stable_terms(freqs, cset.alpha, cset.delta_alpha.values,
                              cset.d.values)
        label = "L[%s]"
    return LineOperator(cset.grid, label % cset.name, n, terms, 0.0)


def _jump_symbol(cset):
    """The half spectrum of the Part I jump multiplier J of ``cset``.  Its
    column subtracts the discrete mass of the periodized kernel at lag 0,
    so J annihilates constants exactly rather than to quadrature
    accuracy."""
    return np.fft.rfft(jump_column(cset.kernel, cset.grid.n, 1.0, 1.0))


# a defect correction whose correction fails to halve has converged if its
# relative residual is then at most this; the rounding floor, 1e-16 on the
# fixtures and random sets at n = 64 ... 2048, is far below it
_REFINE_TOL = 1e-15


class CellOperator:
    """The unit-cell generator A of one coefficient set, with one LU.

    ``generator`` is T (Part I) or L (Part II) of ``cset``, a one-cell
    :class:`nlhom.torus.LineOperator` whose terms give :meth:`apply`,
    :meth:`residual` and ``norm`` (:func:`_generator_norm`).  ``lu`` is a
    :class:`_BorderedLU` of the generator, banded in real Fourier
    coordinates and built from the same terms, so no dense cell matrix
    exists; :meth:`shifted` puts another drift's generator on it.
    :meth:`solve` serves every solve of the chain, refined against the FFT
    apply.  ``jump`` is the Part I jump symbol (:func:`_jump_symbol`, None
    in Part II), computed once for the operator and every shift of it;
    ``z_symbols`` are the Part I quadrature multipliers of
    :func:`_z_symbols`, built on first use.
    """

    # a first guess of the invariant density, for solves by refinement
    _density_start = None
    # whether ``lu`` factors this operator's own generator
    _own_lu = True

    def __init__(self, cset):
        self.cset = cset
        if isinstance(cset, CoefficientSetI):
            self.jump = _jump_symbol(cset)
            self.generator = assemble_torus_generator_I(cset, self.jump)
        else:
            self.jump, self.generator = None, assemble_torus_generator_II(cset)
        self.norm = _generator_norm(self.generator)
        self.lu = _BorderedLU(self.generator, self.norm)

    @cached_property
    def z_symbols(self):
        return _z_symbols(self.cset.kernel, self.cset.grid.n)

    def shifted(self, cset, density_start):
        """The operator of ``cset``, this set with another drift field (the
        centering's next sweep), on this LU; its invariant density starts
        from ``density_start``.

        Its generator, A_c = A_0 - c D1 for a drift lowered by c, is built
        by :func:`_generator` from the new set's fields and this operator's
        jump symbol, so the jump multiplier is not computed again."""
        op = copy.copy(self)
        op.cset = cset
        op.generator = _generator(cset, self.jump)
        op.norm = _generator_norm(op.generator)
        op._own_lu = False
        op._density_start = density_start
        return op

    def apply(self, x, adjoint):
        """A x (A^T x if adjoint) for grid values x or each row of x."""
        act = self.generator.adjoint_apply if adjoint else self.generator.apply
        return act(np.transpose(x)).T

    def solve(self, rhs, total=0.0, adjoint=False, start=None):
        """x with A x = rhs (A^T x = rhs if adjoint) and sum(x) = total, by
        defect correction on the LU (:meth:`_refine`) from ``start``, a
        first guess.  On another generator's LU (:meth:`shifted`) a
        correction that fails to converge factors its own generator in
        place and refines again; on its own LU the last iterate is
        returned, for the caller's residual check to judge."""
        x, converged = self._refine(rhs, total, adjoint, start)
        if not (converged or self._own_lu):
            self.lu = _BorderedLU(self.generator, self.norm)
            self._own_lu = True
            x, _ = self._refine(rhs, total, adjoint, start)
        return x

    def _refine(self, rhs, total, adjoint, start):
        """The solve by defect correction on the bordered LU, the
        operator's own or another generator's: y <- y + LU^-1 (b - M y), M
        the bordered matrix of A applied by FFT.  Returns (x, converged).

        Starts from ``start``, or from zero, whose defect is b itself, so
        the first correction is LU^-1 b with no apply.  With rate the ratio
        of the last two corrections, it returns once the error left, at most
        rate / (1 - rate) times the last correction, is below n u ||x||.
        It stops at the first correction that fails to halve: there the
        corrections are rounding noise, or they do not contract, and the
        residual tells which: converged means the relative residual is
        then at most _REFINE_TOL.  The residual alone does not serve as
        the stop: the border row's rounding noise can hide a smooth
        residual that still moves int b m by 1e-13.
        """
        lu = self.lu
        n, s = lu._n, lu._s
        b = np.append(np.asarray(rhs, dtype=float), s * total)

        def defect(y):
            x = y[:n]
            return b - np.append(self.apply(x, adjoint) + s * y[n],
                                 s * np.sum(x))

        y = np.zeros(n + 1)
        r = b
        if start is not None:
            y[:n] = start
            r = defect(y)
        floor = n * np.finfo(float).eps
        dy = lu.solve_bordered(r, adjoint)
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
                return y[:n], True
            last = size
        scale = s * np.sqrt(n) * max(np.linalg.norm(y[:n]), 1.0) \
            + np.linalg.norm(b)
        return y[:n], np.linalg.norm(defect(y)) <= _REFINE_TOL * scale

    def residual(self, x, rhs, adjoint=False):
        """||A x - rhs|| / (||A|| max(||x||, 1) + ||rhs||), A^T for A if
        adjoint.

        ||A|| is ``norm``: a lower bound on the 2-norm, so the ratio is never
        smaller than with the exact 2-norm.  The unit floor keeps it
        meaningful when the exact solution is the zero field."""
        return np.linalg.norm(self.apply(x, adjoint) - rhs) / (
            self.norm * max(np.linalg.norm(x), 1.0) + np.linalg.norm(rhs))


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


def assemble_torus_generator_I(cset: CoefficientSetI, jump=None):
    """The unit-cell generator a D2 + b D1 + lambda J as a one-cell
    :class:`nlhom.torus.LineOperator` (p = n) on the set's grid, from the
    Part I term builder of ``lineops.assemble_T_eps``.

    ``jump`` is the half spectrum of J when the caller already has it, or
    None to compute it (:func:`_jump_symbol`); it does not change the
    generator.
    """
    return _generator(cset, _jump_symbol(cset) if jump is None else jump)


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
    ``op.z_symbols``, summed over y with the weights 1, chi and chi^2: the
    first group is mode 0 of its spectrum, the others are Parseval sums
    against the half spectra of chi and chi^2, so one rfft of five rows
    serves and nothing is transformed back.
    """
    cset = op.cset
    grid = cset.grid
    n = grid.n
    dchi = chi.derivative(1).values
    term1 = float(np.sum(cset.a.values * m.values * (dchi + 1.0) ** 2) * grid.h)

    S = op.z_symbols
    c = chi.values
    lamm = cset.lam.values * m.values
    F_g, F_gc, F_gcc, C, CC = np.fft.rfft([lamm, lamm * c, lamm * c * c,
                                           c, c * c])
    # sum_y f(y) irfft(X)(y) = sum_k weight_k Re(conj(F_k) X_k) / n
    weight = np.full(n // 2 + 1, 2.0 / n)
    weight[[0, -1]] = 1.0 / n
    plain = F_g[0] * S[0, 2] + F_gcc[0] * S[0, 0] - 2.0 * F_gc[0] * S[0, 1]
    by_c = 2.0 * (F_g * S[:, 1] - F_gc * S[:, 0])
    by_cc = F_g * S[:, 0]
    acc = plain.real + np.sum(weight * (np.conj(C) * by_c
                                        + np.conj(CC) * by_cc).real)
    term2 = 0.5 * float(acc * grid.h)
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
    """The witness's sample on n grid points: the fields U, shape
    (_WITNESS_FIELDS, n), their half spectra rfft(U), and per field the
    squared L2 norm ||U||^2 and H1 norm ||U||^2 + ||U'||^2 (h-weighted grid
    sums).  Each field draws Re/Im of modes 1 .. n/4 - 1 in turn, then the
    mean, and is the irfft of that half spectrum.  They depend only on n,
    so they are drawn once per n and read-only; U' is not kept."""
    rng = np.random.default_rng(_WITNESS_SEED)
    kmax = n // 4
    draws = rng.normal(size=(_WITNESS_FIELDS, 2 * (kmax - 1) + 1))
    coeffs = np.zeros((_WITNESS_FIELDS, n // 2 + 1), dtype=complex)
    coeffs[:, 0] = draws[:, -1]
    coeffs[:, 1:kmax] = draws[:, 0:-1:2] + 1j * draws[:, 1:-1:2]
    U = np.fft.irfft(coeffs, n, norm="forward")
    dU = np.fft.irfft(coeffs * (1j * TWO_PI * np.arange(n // 2 + 1)), n,
                      norm="forward")
    l2 = np.sum(U**2, axis=1) / n
    sample = (U, coeffs * n, l2, l2 + np.sum(dU**2, axis=1) / n)
    for a in sample:
        a.flags.writeable = False
    return sample


def coercivity_witness_I(op, m):
    """Garding-inequality witness for the weighted form a[u,u] = -<m T u, u>.

    Returns (alpha_c, mu, margin) where alpha_c = kappa * min(m) and mu is
    computed from the coefficient bounds so that

        a[u,u] + mu ||u||^2 >= (alpha_c/2) (||u||^2 + ||u'||^2)

    holds for band-limited fields; margin is the worst observed slack over
    the random sample (negative margin = violation).  The sample is
    :func:`_witness_fields`: real fields built by irfft from half spectra,
    so no complex full-spectrum array is formed, and the generator acts on
    them from those stored spectra (``LineOperator.apply_spectrum``), with
    no forward transform.
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
    jump_zero_order = _apply_symbol(cset.lam.values * m.values, op.jump)
    C2 = 0.5 * float(np.max(np.abs(jump_zero_order)))
    alpha_c = cset.kappa * float(np.min(m.values))
    mu = C1**2 / (2.0 * A1) + C2 + 0.5 * A1 + 0.5 * alpha_c

    U, spec, l2, h1n = _witness_fields(grid.n)
    AU = op.generator.apply_spectrum(spec, U)
    AU *= U
    form = -(AU @ m.values) * h
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
    centering: float
    residuals: Dict[str, float]
    coercivity: Tuple[float, float]


def solve_cell_I(cset) -> CellSolutionI:
    """Run the full Part I chain with all cross-checks on one
    :class:`CellOperator`: one bordered LU of T serves every singular solve
    and one set of z-symbols every kernel quadrature."""
    _check_type("cset", cset, CoefficientSetI)
    op = CellOperator(cset)
    m, res_m = solve_invariant_density_I(op)
    centering = check_centering_I(cset, m)
    chi, res_chi = solve_corrector_chi(op, m)
    Q = compute_Q(op, m, chi)
    h1, _, res_h1 = solve_h1(op, m)
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
    """L v = -delta^alpha (-Delta)^{alpha/2} v + d v' as a one-cell
    :class:`nlhom.torus.LineOperator` (p = n) on the set's grid."""
    return _generator(cset, None)


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
    _check_type("cset", cset, CoefficientSetII)
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
