"""Time stepping for the two-scale stochastic PDEs and their limits.

Heterogeneous equations are advanced with a semi-implicit scheme: the stiff
generator (carrying the 1/eps and 1/eps^2 scalings) is treated implicitly
through a preassembled resolvent while the scalar multiplicative noise is
explicit Euler--Maruyama,

    (I - dt T) u_{n+1} = u_n (1 + sigma(x/eps) dW_n).

Homogenized equations use the exact constant-coefficient semigroup on the
grid's Fourier modes composed with the same explicit noise factor, so their
only time-discretization error is in the noise product.

Ensembles march the heterogeneous paths of a chunk in lockstep as the
columns of one state block, kept in Bloch space for the whole march.  The
generator commutes with translation by one eps-cell, and so does the noise
field sigma(x/eps): an FFT over the N_c cells splits both into the same
N_c//2 + 1 Bloch blocks, where the resolvent is a p x p block R_t and the
noise one diagonal shared by every block.  A step is then

    u_hat_t <- R_t (u_hat_t * (1 + sigma_cell dW)),

one batched block product over the whole path block and no forward
transform; every path still sees a strictly serial step sequence.  One
inverse transform per step gives the physical field that the energy monitor
and, at recorded times, the observations read.  That is what makes the
weak-convergence studies affordable at the dt demanded by the stability rule
(dt <= min(0.1 eps^2, 0.25 dx^2 / max a) for the integrable family,
dt <= 0.1 eps^alpha for the stable family).  The homogenized noise sigma_bar
u dW does not vary in x, so every homogenized path is the one deterministic
flow S_t u0 times its own scalar growth prod_k (1 + sigma_bar dW_k): a chunk
marches that one flow and an (m,) growth vector instead of m columns.
Heterogeneous and homogenized solvers consume identical Brownian increments
when the coupling is shared, which slashes the variance of paired law
comparisons.
"""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .coefficients import CoefficientSetII, _eps_value
from .lineops import (LineGrid, gaussian_bump, assemble_T0, assemble_T_eps,
                      assemble_V0, assemble_V_eps, _cell_trace)
from .particles import RngStream, _check_count, _step_grid

__all__ = [
    "SpdeConfig", "FieldPath", "initial_profile", "default_test_battery",
    "heterogeneous_dt_limit", "prepare_heterogeneous_I",
    "prepare_homogenized_I", "prepare_heterogeneous_II",
    "prepare_homogenized_II", "prepare_explicit", "step_heterogeneous_I",
    "step_homogenized_I", "step_heterogeneous_II", "step_homogenized_II",
    "run_path", "run_ensemble", "write_snapshot_csv", "write_functional_csv",
]

#: Energy-cap constant C in the monitor max_paths ||u_t||^4 <= C (1 + ||u_0||^4).
#: The multiplicative noise makes the per-path norm lognormal, so the max over
#: an ensemble is heavy-tailed even though the mean obeys a moment bound:
#: pilots measured max ratios ~0.2 (no noise), ~4.3 (64 paths, sigma_bar ~ 1,
#: T = 0.25) and the 2000-path acceptance configs project to O(10^2-10^3).
#: The default therefore sits at 1e4: far beyond any plausible noise
#: excursion of the acceptance runs, yet many orders of magnitude before a
#: genuine scheme blow-up, which is what the abort is for.  Tighten per run
#: via SpdeConfig.energy_cap_C when the noise level is known.
ENERGY_CAP_C = 1.0e4

_PROFILE_NAMES = ("gauss", "double", "indicator")


def initial_profile(grid, name):
    """Named initial conditions, all supported well inside [-L/2, L/2].

    Parameters
    ----------
    grid : LineGrid
        Spatial grid; widths scale with its half-width L.
    name : str
        One of ``"gauss"`` (single bump of width L/10), ``"double"`` (two
        bumps at +-L/6, width L/14), ``"indicator"`` (smoothed indicator of
        [-L/4, L/4], transition width L/40).

    Returns
    -------
    ndarray
        Profile samples; boundary mass is below 1e-12 of the total for
        every named profile.
    """
    L = grid.half_width
    x = grid.x
    if name == "gauss":
        return gaussian_bump(grid, 0.0, L / 10.0)
    if name == "double":
        w = L / 14.0
        return (gaussian_bump(grid, -L / 6.0, w)
                + gaussian_bump(grid, L / 6.0, w))
    if name == "indicator":
        s = L / 40.0
        return 0.5 * (np.tanh((x + L / 4.0) / s) - np.tanh((x - L / 4.0) / s))
    raise ValueError("unknown profile %r; expected one of %r"
                     % (name, _PROFILE_NAMES))


def default_test_battery(grid):
    """Default pairing battery: bump, derivative-of-bump, wide bump.

    Returns
    -------
    labels : list of str
    xi : ndarray, shape (3, n)
        Test functions on the grid.
    xi_d2 : ndarray, shape (3, n)
        Their second derivatives (spectral), stored so path records carry
        both <u, xi> and <u, xi''> for martingale diagnostics.
    """
    w = grid.half_width / 8.0
    bump = gaussian_bump(grid, 0.0, w)
    dbump = grid.apply_derivative(bump, 1) * w  # O(1) amplitude
    wide = gaussian_bump(grid, 0.0, grid.half_width / 4.0)
    xi = np.stack([bump, dbump, wide])
    xi_d2 = np.stack([grid.apply_derivative(row, 2) for row in xi])
    return ["bump", "dbump", "wide"], xi, xi_d2


def heterogeneous_dt_limit(cset, eps, grid):
    """Largest admissible dt for the heterogeneous semi-implicit step.

    Integrable family: min(0.1 eps^2, 0.25 dx^2 / max a) -- the first clause
    resolves the 1/eps^2 jump intensity in time, the second keeps the step
    small enough that a 10x-refined explicit scheme remains a stable
    cross-check.  Stable family: 0.1 eps^alpha resolves the eps^-alpha
    scaling; the fractional resolvent itself is unconditionally stable.
    """
    e = _eps_value(eps)
    if isinstance(cset, CoefficientSetII):
        return 0.1 * e ** cset.alpha
    amax = float(np.max(cset.a.values))
    return min(0.1 * e * e, 0.25 * grid.dx ** 2 / amax)


def _check_dt(dt, limit, label):
    """Reject a dt that is not finite and positive or above the limit."""
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError("dt must be finite and positive, got dt = %r" % (dt,))
    if dt > limit * (1.0 + 1e-9):
        raise ValueError("dt = %g exceeds the %s stability limit %g"
                         % (dt, label, limit))


class _Stepper:
    """Common shape handling: states are (n,) vectors or (n, m) column
    blocks, noise increments scalars or (m,) rows."""

    part = None
    kind = None

    def _noise_factor(self, state, dw, trace):
        if state.ndim == 1:
            return state * (1.0 + trace * dw)
        dw = np.asarray(dw)
        if np.ndim(trace) == 0:
            return state * (1.0 + trace * dw[None, :])
        return state * (1.0 + trace[:, None] * dw[None, :])


class SemiImplicitStepper(_Stepper):
    """Preassembled resolvent step for a heterogeneous generator.

    The resolvent (I - dt T)^-1 is held as its Bloch blocks R_t, and the
    noise field is one eps-cell of p samples tiled over the N_c cells, so it
    is the same diagonal sigma_cell in every Bloch block.  On the Bloch
    coefficients of :meth:`LineOperator.to_bloch` a step is one batched
    block product, u_hat_t <- R_t (u_hat_t * (1 + sigma_cell dW))
    (:meth:`bloch_step`); :meth:`step` is that step between ``to_bloch``
    and ``from_bloch``.

    Parameters
    ----------
    operator : LineOperator
        Two-scale generator (T^eps or V^eps).
    sigma_trace : ndarray, shape (n,)
        sigma(x/eps) sampled on the line grid: one eps-cell of p samples
        tiled over the N_c cells.
    dt : float
        Time step; must satisfy the family's stability rule.
    """

    kind = "semi-implicit"

    def __init__(self, operator, sigma_trace, dt, part):
        self.operator = operator
        self.grid = operator.grid
        self.sigma_trace = trace = np.asarray(sigma_trace, dtype=float)
        p = operator.blocks.shape[1]
        if trace.shape != (self.grid.n,) or not np.all(np.isfinite(trace)) \
                or np.any(trace.reshape(-1, p) != trace[:p]):
            raise ValueError("sigma_trace must be one eps-cell of %d finite "
                             "samples tiled over the %d cells, got shape %r"
                             % (p, self.grid.n // p, trace.shape))
        self._sigma_cell = trace[:p]
        self.dt = float(dt)
        self.part = part
        # resolvent stored as explicit inverse blocks: each step is then one
        # batched block product over a whole path block
        self._resolvent = operator.resolvent(self.dt)

    def bloch_step(self, u_hat, dw):
        """One step on Bloch coefficients of shape (N_c//2 + 1, p, m); dw is
        a scalar or an (m,) row."""
        factor = 1.0 + self._sigma_cell[:, None] * np.reshape(dw, (1, -1))
        return self._resolvent.blocks @ (u_hat * factor)

    def step(self, state, dw):
        state = np.asarray(state, dtype=float)
        op = self._resolvent
        return op.from_bloch(self.bloch_step(op.to_bloch(state), dw)) \
            .reshape(state.shape)


class SpectralStepper(_Stepper):
    """Exact constant-coefficient semigroup step plus explicit noise.

    The semigroup factor acts on the real-FFT modes; the noise enters as the
    scalar multiplier (1 + sigma_bar dW) after the deterministic flow.
    """

    kind = "spectral"

    def __init__(self, grid, factor, sigma_bar, dt, part):
        self.grid = grid
        self._factor = factor
        self.sigma_bar = float(sigma_bar)
        self.dt = float(dt)
        self.part = part

    def step(self, state, dw):
        state = np.asarray(state, dtype=float)
        u_hat = np.fft.rfft(state, axis=0)
        if state.ndim == 1:
            u_hat *= self._factor
        else:
            u_hat *= self._factor[:, None]
        flowed = np.fft.irfft(u_hat, n=self.grid.n, axis=0)
        return self._noise_factor(flowed, dw, self.sigma_bar)


class ExplicitStepper(_Stepper):
    """Plain explicit Euler reference: u + dt T u + sigma u dW.

    Only used as a refined cross-check oracle; conditionally stable, so it
    runs at a fraction of the semi-implicit dt.
    """

    kind = "explicit"

    def __init__(self, operator, sigma_trace, dt, part):
        self.operator = operator
        self.grid = operator.grid
        self.sigma_trace = np.asarray(sigma_trace, dtype=float)
        self.dt = float(dt)
        self.part = part

    def step(self, state, dw):
        state = np.asarray(state, dtype=float)
        drifted = state + self.dt * self.operator.apply(state)
        noise = self._noise_factor(state, dw, self.sigma_trace) - state
        return drifted + noise


def prepare_heterogeneous_I(cset, eps, grid, dt):
    """Semi-implicit stepper for the integrable-jump two-scale equation."""
    eps = _eps_value(eps)
    _check_dt(dt, heterogeneous_dt_limit(cset, eps, grid), "integrable-family")
    op = assemble_T_eps(cset, eps, grid)
    sigma_trace = _cell_trace(cset.sigma, grid, eps)
    return SemiImplicitStepper(op, sigma_trace, dt, part="I")


def prepare_homogenized_I(Q, sigma_bar, grid, dt):
    """Exact heat-semigroup stepper for the homogenized integrable limit:
    exp(dt T0) on T0's one-point Bloch blocks, its symbol -Q omega^2."""
    _check_dt(dt, np.inf, "spectral")
    T0, _ = assemble_T0(Q, sigma_bar, grid)
    factor = np.exp(dt * T0.blocks[:, 0, 0])
    return SpectralStepper(grid, factor, sigma_bar, dt, part="I")


def prepare_heterogeneous_II(cset, eps, grid, dt):
    """Semi-implicit stepper for the stable-family two-scale equation."""
    eps = _eps_value(eps)
    _check_dt(dt, heterogeneous_dt_limit(cset, eps, grid), "stable-family")
    op = assemble_V_eps(cset, eps, grid)
    sigma_trace = _cell_trace(cset.sigma, grid, eps)
    return SemiImplicitStepper(op, sigma_trace, dt, part="II")


def prepare_homogenized_II(cell, grid, dt):
    """Exact stable-semigroup stepper for the homogenized stable limit.

    exp(dt V0) on V0's one-point Bloch blocks, one complex multiplier per
    mode: the fractional decay exp(-dba |omega|^alpha dt), the advection
    phase exp(i omega g_bar dt) and the zero-order growth exp(f_bar dt).
    The derivative symbol drops the Nyquist phase, which keeps the inverse
    real transform consistent.
    """
    _check_dt(dt, np.inf, "spectral")
    factor = np.exp(dt * assemble_V0(cell, grid).blocks[:, 0, 0])
    return SpectralStepper(grid, factor, cell.sigma_bar, dt, part="II")


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
    return ExplicitStepper(op, sigma_trace, dt, part=part)


def _checked_step(state, dw, stepper, kind, part):
    if stepper.kind != kind or stepper.part != part:
        raise ValueError("stepper is %s/part %s; expected %s/part %s"
                         % (stepper.kind, stepper.part, kind, part))
    return stepper.step(state, dw)


def step_heterogeneous_I(state, dw, stepper):
    """One semi-implicit step of the integrable-family equation."""
    return _checked_step(state, dw, stepper, "semi-implicit", "I")


def step_homogenized_I(state, dw, stepper):
    """One exact-semigroup step of the homogenized integrable limit."""
    return _checked_step(state, dw, stepper, "spectral", "I")


def step_heterogeneous_II(state, dw, stepper):
    """One semi-implicit step of the stable-family equation."""
    return _checked_step(state, dw, stepper, "semi-implicit", "II")


def step_homogenized_II(state, dw, stepper):
    """One exact-semigroup step of the homogenized stable limit."""
    return _checked_step(state, dw, stepper, "spectral", "II")


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


# ---------------------------------------------------------------------------
# ensemble driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpdeConfig:
    """Run description for a paired heterogeneous/homogenized ensemble.

    Parameters
    ----------
    part : str
        "I" (integrable-jump family) or "II" (stable family).
    eps : Epsilon or float
        Scale separation; reciprocal of an integer.
    grid : LineGrid
        Periodic spatial grid; must tile eps with >= 16 points per cell.
    dt : float
        Time step; must satisfy the family's stability rule (the
        coefficient-dependent clause is enforced when operators are
        prepared).
    T_end : float
        Horizon; the effective step is T_end / ceil(T_end / dt).
    n_paths : int
        Ensemble size.
    seed : int
        Root seed, a non-negative integer; path j draws from the dedicated
        stream (seed, j).
    u0 : str or ndarray
        Named profile ("gauss", "double", "indicator") or explicit samples
        with finite, nonzero L2 norm.
    noise_coupling : str
        "shared" feeds both solvers identical increments; "independent"
        gives the homogenized solver the child stream.
    n_save : int
        Number of recorded times (pairings and snapshots), endpoints
        included.
    n_snapshot_paths : int
        Leading paths that retain full field snapshots.
    store_increments : bool
        Keep per-path increment arrays on the records (disable for large
        step counts; the variance check runs either way).
    energy_cap_C : float
        Abort threshold C in max_t ||u_t||^4 <= C (1 + ||u_0||^4).
    chunk_size : int
        Paths marched per state-matrix block.
    """

    part: str
    eps: Union[object, float]
    grid: LineGrid
    dt: float
    T_end: float
    n_paths: int
    seed: int
    u0: Union[str, np.ndarray] = "gauss"
    noise_coupling: str = "shared"
    n_save: int = 9
    n_snapshot_paths: int = 4
    store_increments: bool = True
    energy_cap_C: float = ENERGY_CAP_C
    chunk_size: int = 512

    def __post_init__(self):
        if self.part not in ("I", "II"):
            raise ValueError("part must be 'I' or 'II', got %r" % (self.part,))
        for label, val in (("dt", self.dt), ("T_end", self.T_end),
                           ("energy_cap_C", self.energy_cap_C)):
            if not (np.isfinite(val) and val > 0):
                raise ValueError("%s must be finite and positive, got %r"
                                 % (label, val))
        for label, least in (("n_paths", 1), ("n_save", 2),
                             ("n_snapshot_paths", 0), ("chunk_size", 1),
                             ("seed", 0)):
            _check_count(label, getattr(self, label), least)
        if self.noise_coupling not in ("shared", "independent"):
            raise ValueError("noise_coupling must be 'shared' or "
                             "'independent', got %r" % (self.noise_coupling,))
        e = _eps_value(self.eps)
        self.grid.points_per_cell(e)
        if self.part == "I" and self.dt > 0.1 * e * e * (1.0 + 1e-9):
            raise ValueError("dt = %g violates dt <= 0.1 eps^2 = %g"
                             % (self.dt, 0.1 * e * e))
        if isinstance(self.u0, str):
            if self.u0 not in _PROFILE_NAMES:
                raise ValueError("unknown profile %r" % (self.u0,))
        else:
            arr = np.asarray(self.u0, dtype=float)
            if arr.shape != (self.grid.n,):
                raise ValueError("u0 samples must have shape (%d,)"
                                 % self.grid.n)
            if not np.all(np.isfinite(arr)) or not np.any(arr):
                raise ValueError("u0 must be finite with nonzero norm")

    def initial_state(self):
        """Initial profile as a fresh array."""
        if isinstance(self.u0, str):
            return initial_profile(self.grid, self.u0)
        return np.array(self.u0, dtype=float)


@dataclass(frozen=True)
class FieldPath:
    """Record of one solution path.

    Attributes
    ----------
    path_index : int
    times : ndarray, shape (n_rec,)
        Recorded times (first is 0, last is T_end).
    pairings : ndarray, shape (n_rec, n_xi)
        <u_t, xi_j> for the run's battery.
    pairings_d2 : ndarray, shape (n_rec, n_xi)
        <u_t, xi_j''>, kept for martingale diagnostics.
    snapshots : ndarray or None, shape (n_rec, n)
        Full fields at the recorded times (leading paths only).
    increments : ndarray or None, shape (n_steps,)
        Brownian increments consumed by this path's solver.
    increment_var : float
        Sample variance of those increments (target: dt).
    max_norm4 : float
        max_t ||u_t||^4 observed along the path.
    boundary_frac : float
        Largest fraction of |u| mass in the outer 5% of the window at any
        recorded time.
    config : SpdeConfig
    """

    path_index: int
    times: np.ndarray
    pairings: np.ndarray
    pairings_d2: np.ndarray
    snapshots: Optional[np.ndarray]
    increments: Optional[np.ndarray]
    increment_var: float
    max_norm4: float
    boundary_frac: float
    config: SpdeConfig

    def __post_init__(self):
        if self.pairings.shape != self.pairings_d2.shape \
                or self.pairings.shape[0] != self.times.shape[0]:
            raise ValueError("inconsistent record shapes")
        if not (np.all(np.isfinite(self.pairings))
                and np.all(np.isfinite(self.pairings_d2))):
            raise RuntimeError("non-finite pairings on path %d"
                               % self.path_index)


def _prepare_pair(config, cell, cset, dt_eff):
    if config.part == "I":
        het = prepare_heterogeneous_I(cset, config.eps, config.grid, dt_eff)
        hom = prepare_homogenized_I(cell.Q, cell.sigma_bar, config.grid,
                                    dt_eff)
    else:
        het = prepare_heterogeneous_II(cset, config.eps, config.grid, dt_eff)
        hom = prepare_homogenized_II(cell, config.grid, dt_eff)
    return het, hom


def _battery_rows(battery, grid):
    """The battery's xi and xi_d2 as finite (n_xi, n) arrays."""
    _, xi, xi_d2 = battery
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    xi_d2 = np.atleast_2d(np.asarray(xi_d2, dtype=float))
    if xi.ndim != 2 or len(xi) < 1 or xi.shape[1] != grid.n \
            or xi_d2.shape != xi.shape \
            or not (np.all(np.isfinite(xi)) and np.all(np.isfinite(xi_d2))):
        raise ValueError("battery xi and xi_d2 must be finite (n_xi, %d) "
                         "arrays, got shapes %r and %r"
                         % (grid.n, xi.shape, xi_d2.shape))
    return xi, xi_d2


def run_ensemble(config, cell, cset, battery=None):
    """March paired heterogeneous/homogenized ensembles.

    Parameters
    ----------
    config : SpdeConfig
    cell : CellSolutionI or CellSolutionII
        Supplies the homogenized coefficients (Q, sigma_bar or the stable
        family's averaged set).
    cset : CoefficientSetI or CoefficientSetII
        Oscillating coefficients for the heterogeneous side.
    battery : (labels, xi, xi_d2), optional
        Pairing battery; defaults to `default_test_battery`.

    Returns
    -------
    (list of FieldPath, list of FieldPath)
        Heterogeneous and homogenized path records, index-aligned, with
        shared Brownian increments when the coupling is shared.

    Notes
    -----
    Each chunk marches its heterogeneous paths as the Bloch coefficients
    u_hat, shape (N_c//2 + 1, p, m), of one (n, m) state block: a step is
    ``SemiImplicitStepper.bloch_step``, one batched block product with no
    forward transform.  Every step takes the inverse transform once, and the
    energy monitor reads the squared norms of the physical field.  Recorded
    steps also read the pairings (one product with the stacked
    [xi; xi_d2]), the band and total L1 mass (one product with the stacked
    [band; 1]) and the snapshots from that field.  The homogenized
    side is one (n,) flow S_t u0, stepped by the same
    spectral stepper with no noise, and an (m,) growth vector multiplied by
    (1 + sigma_bar dW_k) at every step.  Every homogenized record (pairings,
    squared norms for the energy monitor, boundary fractions, snapshots) is
    the flow's value scaled by the path's growth.

    Raises
    ------
    ValueError
        On a battery whose xi and xi_d2 are not finite (n_xi, n) arrays.
    RuntimeError
        On non-finite states, energy-cap violation, or a pooled increment
        variance further than 6 standard errors from dt.
    """
    grid = config.grid
    if battery is None:
        battery = default_test_battery(grid)
    xi, xi_d2 = _battery_rows(battery, grid)
    xi_both = np.vstack([xi, xi_d2])
    n_steps, dt_eff, save_idx = _step_grid(config.T_end, config.dt,
                                           config.n_save)
    het, hom = _prepare_pair(config, cell, cset, dt_eff)
    het_op = het.operator

    u0 = config.initial_state()
    u0_hat = het_op.to_bloch(u0)
    norm0_sq = grid.l2_norm(u0) ** 2
    cap = config.energy_cap_C * (1.0 + norm0_sq ** 2)
    band = np.abs(grid.x) >= 0.95 * grid.half_width
    band_rows = np.vstack([band, np.ones(grid.n)])
    save_set = {int(k): i for i, k in enumerate(save_idx)}
    times = save_idx * dt_eff
    n_rec = len(save_idx)
    shared = config.noise_coupling == "shared"
    sqrt_dt = np.sqrt(dt_eff)

    # pooled second moment of all consumed increments, checked at the end
    pool_ss = 0.0
    pool_n = 0

    n_xi = xi.shape[0]
    het_paths, hom_paths = [], []
    for lo in range(0, config.n_paths, config.chunk_size):
        hi = min(lo + config.chunk_size, config.n_paths)
        m = hi - lo
        n_snap = min(m, max(0, config.n_snapshot_paths - lo))
        inc_het = np.empty((n_steps, m))
        inc_hom = inc_het if shared else np.empty((n_steps, m))
        for j in range(m):
            stream = RngStream(config.seed, stream=lo + j)
            inc_het[:, j] = stream.generator().standard_normal(n_steps)
            if not shared:
                inc_hom[:, j] = stream.child().generator() \
                    .standard_normal(n_steps)
        inc_het *= sqrt_dt
        if not shared:
            inc_hom *= sqrt_dt

        # heterogeneous paths march as the Bloch coefficients of one state
        # block; the homogenized ones are the one flow S_t u0 times a growth
        # per path
        U_hat = np.repeat(u0_hat, m, axis=2)
        U = np.tile(u0[:, None], (1, m))
        flow = u0.copy()
        growth = np.ones(m)
        pair = {s: np.empty((n_rec, n_xi, m)) for s in ("het", "hom")}
        pair2 = {s: np.empty((n_rec, n_xi, m)) for s in ("het", "hom")}
        snaps = {s: np.empty((n_snap, n_rec, grid.n)) for s in ("het", "hom")}
        max4 = {"het": np.zeros(m), "hom": np.zeros(m)}
        bfrac = {"het": np.zeros(m), "hom": np.zeros(m)}

        def monitor(side, k, nsq):
            if not np.all(np.isfinite(nsq)):
                bad = lo + int(np.argmax(~np.isfinite(nsq)))
                raise RuntimeError(
                    "non-finite %s state on path %d at t = %.6g"
                    % (side, bad, k * dt_eff))
            n4 = nsq ** 2
            np.maximum(max4[side], n4, out=max4[side])
            worst = int(np.argmax(n4))
            if n4[worst] > cap:
                raise RuntimeError(
                    "energy cap violated on %s path %d at t = %.6g: "
                    "||u||^4 = %.6g > %.6g" % (side, lo + worst,
                                               k * dt_eff, n4[worst], cap))

        def record(side, slot, p, p2, band_mass, total, snap):
            pair[side][slot] = p
            pair2[side][slot] = p2
            frac = band_mass / np.where(total > 0, total, 1.0)
            np.maximum(bfrac[side], frac, out=bfrac[side])
            if n_snap:
                snaps[side][:, slot, :] = snap

        def observe(k, slot):
            monitor("het", k, np.einsum("ij,ij->j", U, U) * grid.dx)
            monitor("hom", k, growth ** 2 * (flow @ flow) * grid.dx)
            if slot is None:
                return
            pairs = (xi_both @ U) * grid.dx
            mass = band_rows @ np.abs(U)
            record("het", slot, pairs[:n_xi], pairs[n_xi:], mass[0], mass[1],
                   U[:, :n_snap].T)
            abs_flow = np.abs(flow)
            abs_growth = np.abs(growth)
            record("hom", slot, ((xi @ flow) * grid.dx)[:, None] * growth,
                   ((xi_d2 @ flow) * grid.dx)[:, None] * growth,
                   abs_growth * abs_flow[band].sum(),
                   abs_growth * abs_flow.sum(),
                   growth[:n_snap, None] * flow)

        observe(0, 0)
        for k in range(n_steps):
            U_hat = het.bloch_step(U_hat, inc_het[k])
            U = het_op.from_bloch(U_hat)
            flow = hom.step(flow, 0.0)
            growth *= 1.0 + hom.sigma_bar * inc_hom[k]
            observe(k + 1, save_set.get(k + 1))

        pool_ss += float(np.sum(inc_het ** 2))
        pool_n += inc_het.size
        if not shared:
            pool_ss += float(np.sum(inc_hom ** 2))
            pool_n += inc_hom.size

        for side, out, inc in (("het", het_paths, inc_het),
                               ("hom", hom_paths, inc_hom)):
            for j in range(m):
                out.append(FieldPath(
                    path_index=lo + j,
                    times=times.copy(),
                    pairings=pair[side][:, :, j].copy(),
                    pairings_d2=pair2[side][:, :, j].copy(),
                    snapshots=snaps[side][j].copy() if j < n_snap else None,
                    increments=inc[:, j].copy()
                    if config.store_increments else None,
                    increment_var=float(np.var(inc[:, j], ddof=1))
                    if n_steps > 1 else 0.0,
                    max_norm4=float(max4[side][j]),
                    boundary_frac=float(bfrac[side][j]),
                    config=config))

    # per-run statistical verification of the consumed noise
    mean_sq = pool_ss / pool_n
    tol = 6.0 * np.sqrt(2.0 / pool_n) * dt_eff
    if abs(mean_sq - dt_eff) > max(tol, 1e-300):
        raise RuntimeError(
            "increment variance %.6g deviates from dt = %.6g beyond 6 SE"
            % (mean_sq, dt_eff))
    return het_paths, hom_paths


def write_snapshot_csv(path_record, out_path):
    """Dump a path's field snapshots as CSV rows (time, x, u)."""
    if path_record.snapshots is None:
        raise ValueError("path %d carries no snapshots"
                         % path_record.path_index)
    grid = path_record.config.grid
    with open(out_path, "w") as fh:
        fh.write("time,x,u\n")
        for t, row in zip(path_record.times, path_record.snapshots):
            for xv, uv in zip(grid.x, row):
                fh.write("%.17g,%.17g,%.17g\n" % (t, xv, uv))


def write_functional_csv(paths, out_path):
    """Dump pairing series as CSV rows (time, path, xi_index, value)."""
    with open(out_path, "w") as fh:
        fh.write("time,path,xi_index,value\n")
        for rec in paths:
            for i, t in enumerate(rec.times):
                for j in range(rec.pairings.shape[1]):
                    fh.write("%.17g,%d,%d,%.17g\n"
                             % (t, rec.path_index, j, rec.pairings[i, j]))
