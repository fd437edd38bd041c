"""Spectral calculus on the unit torus.

Everything downstream (cell problems, operator assembly, correctors) lives on
equispaced periodic grids, so derivatives, convolutions and the periodic
fractional Laplacian are all realized as Fourier multipliers.  All torus
integrals are h-weighted sums on the grid, which is spectrally accurate for
smooth periodic integrands and consistent with the FFT representation.

A field times a multiplier is one (field, half-spectrum symbol) term
(:func:`_stable_terms` builds the stable family's two).  The line operators
of ``lineops`` hold their terms and apply them by FFT; when a dense or
block form is needed, :func:`_field_blocks` builds the Bloch blocks: the
cell generators of ``cell`` are the one-cell case, the SPDE resolvent's
blocks the case of p points per eps-cell.
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
  grid values; :func:`_symbol_column` gives the first column of its matrix.
* irfft keeps the real part of the Nyquist bin, so a multiplier maps real
  fields to real fields; odd derivative orders zero the Nyquist mode, the
  standard choice, and all fields used here are effectively band-limited
  well below Nyquist, so this is exact in practice.
* Operators mapping constants to constants do so exactly (k = 0 handled
  explicitly where the symbol would be singular or ambiguous).
"""

import math
import numbers

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

TWO_PI = 2.0 * np.pi

__all__ = [
    "TorusGrid",
    "PeriodicField",
    "field_from_function",
    "derivative_symbol",
    "fractional_symbol",
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

    def __eq__(self, other):
        return isinstance(other, TorusGrid) and other.n == self.n

    def __hash__(self):
        return hash(("TorusGrid", self.n))

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

    def derivative(self, order=1):
        """order-th derivative via the multiplier (2 pi i k)^order."""
        k = np.arange(self.grid.n // 2 + 1.0)
        return self.with_values(
            _apply_symbol(self.values, derivative_symbol(k, order)))

    def mean(self):
        return float(np.mean(self.values))

    def integral(self):
        """h-weighted sum, the torus integral (period = 1 so = mean)."""
        return float(np.sum(self.values) * self.grid.h)

    def l2_norm(self):
        return float(np.sqrt(np.sum(self.values**2) * self.grid.h))

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
# Bloch blocks of field-times-multiplier operators
# ---------------------------------------------------------------------------


def _symbol_column(symbol):
    """First column of the multiplier with the given half spectrum."""
    return np.fft.irfft(symbol)


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


def _field_blocks(p, terms):
    """Bloch blocks, p points per cell, of sum_i diag(field_i) M_i.

    The operator commutes with translation by one cell, so an FFT over the
    cells splits it into p x p blocks, one per cell wavenumber t; one cell
    (p = n) is the torus matrix itself.  ``terms`` are (field, first column
    of M_i) pairs; a field is a scalar or its grid samples, periodic over the
    cell, so only its first cell enters.
    """
    blocks = None
    for field, column in terms:
        block = _multiplier_matrix(column, p)
        block *= np.broadcast_to(field, column.shape)[:p, None]
        blocks = block if blocks is None else np.add(blocks, block, out=blocks)
    return blocks


def _stable_terms(freqs, alpha, frac_field, drift_field):
    """(field, half-spectrum symbol) terms of -frac_field (-Dx)^(alpha/2) +
    drift_field Dx."""
    return [(-frac_field, fractional_symbol(freqs, alpha)),
            (drift_field, derivative_symbol(freqs, 1))]
