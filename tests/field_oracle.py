"""Off-grid evaluation of periodic fields, the oracle of the grid samplers.

:func:`evaluate` sums the trigonometric interpolant of a
:class:`nlhom.torus.PeriodicField` mode by mode at arbitrary points.  The
package samples fields only on uniform grids
(``PeriodicField.uniform_samples``); tests check those samples, and build
their dense references, against this independent route.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def _pruned_modes(field, tol=1e-15):
    """Wavenumbers and coefficients of the modes above tol of the largest
    (the mean always kept)."""
    c = field.coeffs
    k = field.grid.wavenumbers()
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=complex)
    keep = np.abs(c) > tol * scale
    keep[0] = True
    return k[keep], c[keep]


def evaluate(field, x):
    """Trigonometric interpolation of ``field`` at arbitrary points.

    Exact for the band-limited interpolant through the samples; modes with
    negligible coefficients are pruned so the cost tracks the field's
    effective bandwidth, not the grid size.
    """
    x = np.asarray(x, dtype=float)
    k, c = _pruned_modes(field)
    nyq = field.grid.n // 2
    out = np.zeros(x.shape, dtype=float)
    for ki, ci in zip(k, c):
        if ki == -nyq:
            # unpaired Nyquist mode: real cosine convention
            out += ci.real * np.cos(TWO_PI * nyq * x)
        else:
            ph = TWO_PI * ki * x
            out += ci.real * np.cos(ph) - ci.imag * np.sin(ph)
    return out
