"""Reference time steppers for the SPDE layer.

:class:`ExplicitStepper` is plain explicit Euler, u + dt T u + sigma u dW:
conditionally stable, so it runs at a fraction of the semi-implicit dt as a
refined-scheme cross-check of ``nlhom.spde.SemiImplicitStepper``.
:func:`run_path` drives any stepper with a ``step(state, dw)`` method (the
package's two steppers included) through a sequence of increments, one step
at a time.
"""

import numpy as np

from nlhom.coefficients import _eps_value
from nlhom.lineops import _cell_trace, assemble_T_eps, assemble_V_eps
from nlhom.spde import _check_dt


class ExplicitStepper:
    """Plain explicit Euler reference on (n,) states: u + dt T u + sigma u dW.
    """

    def __init__(self, operator, sigma_trace, dt):
        self.operator = operator
        self.grid = operator.grid
        self.sigma_trace = np.asarray(sigma_trace, dtype=float)
        self.dt = float(dt)

    def step(self, state, dw):
        state = np.asarray(state, dtype=float)
        drifted = state + self.dt * self.operator.apply(state)
        noise = state * (1.0 + self.sigma_trace * dw) - state
        return drifted + noise


def prepare_explicit(cset, eps, grid, dt, part):
    """Explicit-Euler reference stepper (refined-scheme oracle)."""
    _check_dt(dt, np.inf, "explicit")
    eps = _eps_value(eps)
    if part == "I":
        op = assemble_T_eps(cset, eps, grid)
    elif part == "II":
        op = assemble_V_eps(cset, eps, grid)
    else:
        raise ValueError("part must be 'I' or 'II', got %r" % (part,))
    sigma_trace = _cell_trace(cset.sigma, grid, eps)
    return ExplicitStepper(op, sigma_trace, dt)


def run_path(stepper, u0, increments):
    """Drive one state through a sequence of Brownian increments.

    Parameters
    ----------
    stepper : object with ``step(state, dw)``
    u0 : ndarray, shape (n,) or (n, m)
    increments : ndarray, shape (n_steps,) or (n_steps, m)

    Returns
    -------
    ndarray
        Terminal state.
    """
    state = np.array(u0, dtype=float)
    for dw in increments:
        state = stepper.step(state, dw)
    return state
