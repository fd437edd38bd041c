"""Spectral calculus on the unit torus.

Everything downstream (cell problems, operator assembly, correctors) lives on
equispaced periodic grids, so derivatives, convolutions and the periodic
fractional Laplacian are all realized as Fourier multipliers.  All torus
integrals are h-weighted sums on the grid, which is spectrally accurate for
smooth periodic integrands and consistent with the FFT representation.

A field times a multiplier is one (field, half-spectrum symbol) term
(:func:`_jump_terms` and :func:`_stable_terms` build each family's), and
one type, :class:`LineOperator`, holds such terms and applies them by FFT:
the line operators of ``lineops`` and the cell generators of ``cell`` (one
cell, p = n).  Its dense Bloch blocks (:attr:`LineOperator.blocks`) are
built only for the SPDE resolvent and the materialized ``matrix``; the cell
LU is banded, built from the terms.
A field is sampled on a uniform grid of p points by one method too,
:meth:`PeriodicField.uniform_samples` (a stride of the values, or one
padded inverse FFT): the line traces of ``lineops`` and the lookup tables
of ``particles`` both take their samples there.

Conventions
-----------
* A field f on ``TorusGrid(n)`` is represented by its values at x_j = j/n.
* Every Fourier multiplier is a half spectrum: its symbol s(k) at the
  wavenumbers k = 0, 1, ..., n/2 (rfft order, ``np.arange(n // 2 + 1.0)``
  on the torus, ``LineGrid.freqs`` on the line).  :func:`_apply_symbol`,
  irfft(rfft(values) * s), is the one code that applies a multiplier to
  grid values, and irfft(s) is the first column of its matrix.
* irfft keeps the real part of the Nyquist bin, so a multiplier maps real
  fields to real fields; odd derivative orders zero the Nyquist mode, the
  standard choice, and all fields used here are effectively band-limited
  well below Nyquist, so this is exact in practice.
* Operators mapping constants to constants do so exactly (k = 0 handled
  explicitly where the symbol would be singular or ambiguous).
"""

import math
import numbers
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TWO_PI = 2.0 * np.pi

__all__ = [
    "TorusGrid",
    "PeriodicField",
    "field_from_function",
    "derivative_symbol",
    "fractional_symbol",
    "LineOperator",
]


def _check_count(name, value, least):
    """Refuse a count, size or seed that is not an integer >= least (numpy
    integers accepted, bool, floats and strings refused) with a ValueError
    naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    if value < least:
        raise ValueError("%s must be at least %d, got %r"
                         % (name, least, value))


def _finite_real(value):
    """Whether value is a finite real (numpy reals accepted, bool, strings
    and None refused)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real) \
        and math.isfinite(value)


def _check_positive(name, value):
    """Refuse a value that is not a finite positive real with a ValueError
    naming it."""
    if not (_finite_real(value) and value > 0):
        raise ValueError("%s must be finite and positive, got %r"
                         % (name, value))


def _check_type(name, value, expected):
    """Refuse a value of another type with a ValueError naming both."""
    if not isinstance(value, expected):
        raise ValueError("%s must be a %s, got a %s"
                         % (name, expected.__name__, type(value).__name__))


class TorusGrid:
    """Equispaced half-open grid x_j = j h, h = 1/n, on the unit torus.

    Parameters
    ----------
    n : int
        Number of points; must be a power of two and at least 8 (keeps FFTs
        fast and refinement studies trivial).
    """

    __slots__ = ("n", "h", "x")

    def __init__(self, n):
        _check_count("n", n, 8)
        n = int(n)
        if n & (n - 1) != 0:
            raise ValueError("n must be a power of two >= 8, got %r" % n)
        self.n = n
        self.h = 1.0 / n
        self.x = np.arange(n) * self.h
        self.x.setflags(write=False)

    def __repr__(self):
        return "TorusGrid(n=%d)" % self.n


class PeriodicField:
    """A real 1-periodic function sampled on a :class:`TorusGrid`.

    Values are immutable after construction (the array is copied and marked
    read-only); operations return new fields.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n,):
            raise ValueError(
                "values shape %r does not match grid size %d" % (values.shape, grid.n)
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        self.grid = grid
        v = values.copy()
        v.setflags(write=False)
        self.values = v

    # -- calculus -----------------------------------------------------------

    def derivative(self, order):
        """order-th derivative via the multiplier (2 pi i k)^order."""
        k = np.arange(self.grid.n // 2 + 1.0)
        return self.with_values(
            _apply_symbol(self.values, derivative_symbol(k, order)))

    def uniform_samples(self, p):
        """The trigonometric interpolant at y_j = j/p, j < p.

        When p divides n these are grid values, the exact stride
        ``values[::n // p]``.  Otherwise one zero-padded inverse real FFT
        on N points, N the smallest multiple of p that is at least 2n
        (max(2n, p) for powers of two), strided to p points: at N >= 2n
        the field's Nyquist cosine is a paired mode, and its bin is halved
        between the two half bins it becomes.
        """
        _check_count("p", p, 1)
        n = self.grid.n
        if n % p == 0:
            return self.values[::n // p]
        N = p * -(-2 * n // p)
        spec = np.zeros(N // 2 + 1, dtype=complex)
        spec[:n // 2 + 1] = np.fft.rfft(self.values) * (N / n)
        spec[n // 2] *= 0.5
        return np.fft.irfft(spec, N)[::N // p]

    def shifted(self, z):
        """Field y -> f(y - z), computed by exact spectral phase shift (the
        Nyquist mode keeps its cosine part, as irfft takes the real part)."""
        k = np.arange(self.grid.n // 2 + 1.0)
        return self.with_values(
            _apply_symbol(self.values, np.exp(-1j * TWO_PI * k * z)))

    # -- misc ---------------------------------------------------------------

    def with_values(self, values):
        return PeriodicField(self.grid, values)

    def __repr__(self):
        v = self.values
        return "PeriodicField(n=%d, min=%.3g, max=%.3g)" % (
            self.grid.n,
            v.min(),
            v.max(),
        )


def field_from_function(grid, fn):
    """Sample a callable on the grid."""
    return PeriodicField(grid, np.asarray(fn(grid.x), dtype=float))


# ---------------------------------------------------------------------------
# multiplier operators
# ---------------------------------------------------------------------------


def _apply_symbol(values, symbol, axis=-1):
    """The multiplier with the half spectrum ``symbol`` (k = 0 ... n/2)
    applied to real grid values along ``axis``: irfft(rfft(values) *
    symbol), the symbol broadcast over the other axes."""
    values = np.asarray(values, dtype=float)
    shape = [1] * values.ndim
    shape[axis] = -1
    spec = np.fft.rfft(values, axis=axis)
    spec *= np.reshape(symbol, shape)
    return np.fft.irfft(spec, values.shape[axis], axis=axis)


def derivative_symbol(freqs, order):
    """(2 pi i f)^order, order a positive integer, at frequencies f in cycles
    per unit length (rfft order).  Odd orders zero the entry of largest
    |f|: the Nyquist mode, in rfft and in FFT order alike."""
    _check_count("order", order, 1)
    sym = (1j * TWO_PI * freqs) ** order
    if order % 2 == 1:
        sym[np.argmax(np.abs(freqs))] = 0.0
    return sym


def fractional_symbol(freqs, alpha):
    """|2 pi f|^alpha at frequencies f in cycles per unit length (rfft
    order); the zero frequency maps to 0, so constants are annihilated."""
    if not (0.0 < alpha < 2.0):
        raise ValueError("alpha must lie in (0, 2), got %r" % alpha)
    return np.abs(TWO_PI * freqs) ** alpha


# ---------------------------------------------------------------------------
# field-times-multiplier operators and their Bloch blocks
# ---------------------------------------------------------------------------


def _multiplier_matrix(column, p):
    """Bloch blocks, p points per cell, of the periodic convolution with the
    given first column: shape (cells//2 + 1, p, p), cells = column.size / p.

    With c = column reshaped to (cells, p) and c_hat its FFT over the cell
    axis, the block entry (r, r') reads c_hat[t, r - r'] on and below the
    diagonal, and the neighbouring cell's c_hat[t, p + r - r'] twisted by
    exp(-2 pi i t / cells) above it.  One cell has the single block t = 0,
    the real circulant of the column, so its lag table stays real.
    """
    cells = column.size // p
    if cells == 1:
        lags = np.concatenate([column[1:], column])[None, :]
    else:
        c_hat = np.fft.rfft(column.reshape(cells, p), axis=0)
        twist = np.exp(-2j * np.pi * np.arange(c_hat.shape[0]) / cells)
        lags = np.concatenate([twist[:, None] * c_hat[:, 1:], c_hat], axis=1)
    # entry (r, r') is lags[:, r - r' + p - 1]: windows of the reversed row
    return sliding_window_view(lags[:, ::-1], p, axis=1)[:, ::-1, :].copy()


def _jump_terms(freqs, diffusion, drift, rate, jump_symbol):
    """(field, half-spectrum symbol) terms of diffusion Dx^2 + drift Dx +
    rate J, J the jump multiplier with the half spectrum ``jump_symbol``."""
    return [(diffusion, derivative_symbol(freqs, 2)),
            (drift, derivative_symbol(freqs, 1)),
            (rate, jump_symbol)]


def _stable_terms(freqs, alpha, frac_field, drift_field):
    """(field, half-spectrum symbol) terms of -frac_field (-Dx)^(alpha/2) +
    drift_field Dx."""
    return [(-frac_field, fractional_symbol(freqs, alpha)),
            (drift_field, derivative_symbol(freqs, 1))]


class LineOperator:
    """A linear operator on a periodic grid that commutes with translations
    by one cell of p points: sum_k diag(f_k) S_k + diag(d), on a line
    window of eps-cells (``lineops``) or on the torus as one cell, p = n
    (the cell generators of ``cell``).

    ``terms`` are (f_k, s_k) pairs: f_k a scalar or a cell-periodic field
    of shape (n,), s_k the half spectrum of the multiplier S_k.  The
    constant-killing rule sets d = zero_order - sum_k f_k Re s_k[0]: each
    term kills constants analytically, so f_k Re s_k[0] is rounding noise
    (beyond noise it is an assembly bug and raises), and ``apply(ones)`` is
    the zero-order field.  The Bloch blocks, shape ``(N_c//2 + 1, p, p)``,
    are built from the same terms on first read of :attr:`blocks`;
    ``blocks[t]`` acts on the Fourier mode t over the cell index of a state
    reshaped to (N_c, p) (:meth:`to_bloch`, :meth:`from_bloch`).
    """

    def __init__(self, grid, label, p, terms, zero_order):
        self.grid = grid
        self.label = label
        self.p = p
        self.terms = tuple(terms)
        if not self.terms:
            raise ValueError("operator %s has no (field, symbol) terms" % label)
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
        sum_k f_k irfft(s_k rfft u) + d u, one rfft and K irffts, taken
        along the last axis of the transposed block."""
        u = np.asarray(values, dtype=float).T
        return self.apply_spectrum(np.fft.rfft(u), u).T

    def apply_spectrum(self, spec, u):
        """:meth:`apply` to the rows of u, given spec = rfft(u) along the
        last axis: sum_k f_k irfft(s_k spec) + d u, K irffts."""
        out = self.diagonal * u
        for field, symbol in self.terms:
            term = np.fft.irfft(symbol * spec, self.grid.n)
            term *= field
            out += term
        return out

    def adjoint_apply(self, values):
        """Exact transpose: irfft(sum_k conj(s_k) rfft(f_k u)) + d u, one
        rfft of the K stacked products and one irfft."""
        u = np.asarray(values, dtype=float).T
        products = np.fft.rfft([field * u for field, _ in self.terms])
        spec = 0.0
        for (_, symbol), product in zip(self.terms, products):
            spec = spec + np.conj(symbol) * product
        return (np.fft.irfft(spec, self.grid.n) + self.diagonal * u).T

    @cached_property
    def blocks(self):
        """Bloch blocks, p points per cell, of sum_k diag(f_k) S_k + diag(d).

        The operator commutes with translation by one cell, so an FFT over
        the cells splits it into p x p blocks, one per cell wavenumber t;
        one cell (p = n) has one real block, the n x n matrix.  A term's
        blocks are :func:`_multiplier_matrix` of its column irfft(s_k), rows
        scaled by f_k, whose first cell is all that enters.
        """
        blocks = None
        for field, symbol in self.terms:
            column = np.fft.irfft(symbol)
            block = _multiplier_matrix(column, self.p)
            block *= np.broadcast_to(field, column.shape)[:self.p, None]
            blocks = block if blocks is None else np.add(blocks, block,
                                                         out=blocks)
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
        C_{a-b} in column cell b, so block row a is block row 0 turned right
        by a cells: rows [k, 2k) copy rows [0, k) (cells is a power of 2)."""
        cells, p = self.grid.n // self.p, self.p
        offsets = np.fft.irfft(self.blocks, n=cells, axis=0)
        out = np.empty((cells, p, cells, p))
        out[0] = np.roll(offsets[::-1], 1, axis=0).swapaxes(0, 1)
        k = 1
        while k < cells:
            out[k:2 * k, :, k:] = out[:k, :, :cells - k]
            out[k:2 * k, :, :k] = out[:k, :, cells - k:]
            k *= 2
        return out.reshape(self.grid.n, self.grid.n)

    def __repr__(self):
        return "LineOperator(%s, n=%d, p=%d)" % (self.label, self.grid.n,
                                                 self.p)
