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
flow S_t u0 times its own scalar growth prod_k (1 + sigma_bar dW_k): a run
marches that one flow once, and each chunk's homogenized records are the
flow's stored values times its (n_steps + 1, m) growth array.  One energy
monitor checks the squared norms of both sides.
Heterogeneous and homogenized solvers always consume identical Brownian
increments, which slashes the variance of paired law comparisons.

Each path's column evolves on its own, so a chunk's heterogeneous columns
march as two fixed halves at once, on the calling thread and on one worker:
the block products and inverse transforms that dominate a step release the
GIL.  The split depends only on the chunk's size, never on thread timing.

The two steppers, :class:`SemiImplicitStepper` and :class:`SpectralStepper`,
are what :func:`run_ensemble` marches; the results are the in-memory
:class:`FieldPath` records.  The refined explicit-Euler cross-check and the
one-path loop of the stepper tests are test oracles
(``tests/spde_oracle.py``), not run by the lab.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .cell import CellSolutionI, CellSolutionII
from .coefficients import CoefficientSetI, CoefficientSetII, _eps_value
from .lineops import (LineGrid, gaussian_bump, assemble_T0, assemble_T_eps,
                      assemble_V0, assemble_V_eps, _cell_trace)
from .particles import _rng, _step_grid
from .torus import _apply_symbol, _check_count, _check_positive, _check_type

__all__ = [
    "SpdeConfig", "FieldPath", "initial_profile", "default_test_battery",
    "heterogeneous_dt_limit", "prepare_heterogeneous_I",
    "prepare_homogenized_I", "prepare_heterogeneous_II",
    "prepare_homogenized_II", "run_ensemble",
]

#: Energy-cap constant C in the monitor max_paths ||u_t||^4 <= C (1 + ||u_0||^4).
#: The multiplicative noise makes the per-path norm lognormal, so the max over
#: an ensemble is heavy-tailed even though the mean obeys a moment bound:
#: pilots measured max ratios ~0.2 (no noise), ~4.3 (64 paths, sigma_bar ~ 1,
#: T = 0.25) and the 2000-path acceptance configs project to O(10^2-10^3).
#: The cap therefore sits at 1e4: far beyond any plausible noise
#: excursion of the acceptance runs, yet many orders of magnitude before a
#: genuine scheme blow-up, which is what the abort is for.
ENERGY_CAP_C = 1.0e4


def initial_profile(grid):
    """The ``"gauss"`` initial condition: a bump of width L/10 at 0, for the
    grid's half-width L, whose mass beyond L/2 is below 1e-12 of the total."""
    return gaussian_bump(grid, 0.0, grid.half_width / 10.0)


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
    _check_positive("dt", dt)
    if dt > limit * (1.0 + 1e-9):
        raise ValueError("dt = %g exceeds the %s stability limit %g"
                         % (dt, label, limit))


class SemiImplicitStepper:
    """Preassembled resolvent step for a heterogeneous generator.

    The resolvent (I - dt T)^-1 is held as its Bloch blocks R_t, the
    (N_c//2 + 1, p, p) array of :meth:`LineOperator.resolvent`, and the
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
        Time step; must satisfy the family's stability rule, and a dt that
        is not finite and positive raises.
    """

    def __init__(self, operator, sigma_trace, dt):
        self.operator = operator
        self.grid = operator.grid
        self.sigma_trace = trace = np.asarray(sigma_trace, dtype=float)
        p = operator.p
        if trace.shape != (self.grid.n,) or not np.all(np.isfinite(trace)) \
                or np.any(trace.reshape(-1, p) != trace[:p]):
            raise ValueError("sigma_trace must be one eps-cell of %d finite "
                             "samples tiled over the %d cells, got shape %r"
                             % (p, self.grid.n // p, trace.shape))
        self._sigma_cell = trace[:p]
        self.dt = float(dt)
        # resolvent stored as explicit inverse blocks: each step is then one
        # batched block product over a whole path block
        self._resolvent = operator.resolvent(self.dt)

    def bloch_step(self, u_hat, dw):
        """One step on Bloch coefficients of shape (N_c//2 + 1, p, m); dw is
        a scalar or an (m,) row."""
        factor = 1.0 + self._sigma_cell[:, None] * np.reshape(dw, (1, -1))
        return self._resolvent @ (u_hat * factor)

    def step(self, state, dw):
        state = np.asarray(state, dtype=float)
        op = self.operator
        return op.from_bloch(self.bloch_step(op.to_bloch(state), dw)) \
            .reshape(state.shape)


class SpectralStepper:
    """Exact constant-coefficient semigroup step plus explicit noise.

    The semigroup factor is a half-spectrum multiplier, applied along the
    grid axis by :func:`nlhom.torus._apply_symbol`; the noise enters as the
    scalar multiplier (1 + sigma_bar dW) after the deterministic flow.
    States are (n,) vectors or (n, m) column blocks, dW a scalar or an (m,)
    row.
    """

    def __init__(self, grid, factor, sigma_bar, dt):
        self.grid = grid
        self._factor = factor
        self.sigma_bar = float(sigma_bar)
        self.dt = float(dt)

    def step(self, state, dw):
        flowed = _apply_symbol(state, self._factor, axis=0)
        return flowed * (1.0 + self.sigma_bar * dw)


def prepare_heterogeneous_I(cset, eps, grid, dt):
    """Semi-implicit stepper for the integrable-jump two-scale equation."""
    eps = _eps_value(eps)
    _check_dt(dt, heterogeneous_dt_limit(cset, eps, grid), "integrable-family")
    op = assemble_T_eps(cset, eps, grid)
    sigma_trace = _cell_trace(cset.sigma, grid, eps)
    return SemiImplicitStepper(op, sigma_trace, dt)


def prepare_homogenized_I(Q, sigma_bar, grid, dt):
    """Exact heat-semigroup stepper for the homogenized integrable limit:
    exp(dt T0) on T0's symbol -Q omega^2."""
    _check_dt(dt, np.inf, "spectral")
    factor = _semigroup_factor(assemble_T0(Q, grid), dt)
    return SpectralStepper(grid, factor, sigma_bar, dt)


def prepare_heterogeneous_II(cset, eps, grid, dt):
    """Semi-implicit stepper for the stable-family two-scale equation."""
    eps = _eps_value(eps)
    _check_dt(dt, heterogeneous_dt_limit(cset, eps, grid), "stable-family")
    op = assemble_V_eps(cset, eps, grid)
    sigma_trace = _cell_trace(cset.sigma, grid, eps)
    return SemiImplicitStepper(op, sigma_trace, dt)


def prepare_homogenized_II(cell, grid, dt):
    """Exact stable-semigroup stepper for the homogenized stable limit.

    exp(dt V0) on V0's symbol, one complex multiplier per mode: the fractional decay exp(-dba |omega|^alpha dt), the advection
    phase exp(i omega g_bar dt) and the zero-order growth exp(f_bar dt).
    The derivative symbol drops the Nyquist phase, which keeps the inverse
    real transform consistent.
    """
    _check_dt(dt, np.inf, "spectral")
    factor = _semigroup_factor(assemble_V0(cell, grid), dt)
    return SpectralStepper(grid, factor, cell.sigma_bar, dt)


def _semigroup_factor(op, dt):
    """exp(dt A) per half-spectrum mode of a constant-coefficient operator
    A (p = 1, scalar fields), whose symbol is sum_k f_k s_k + d."""
    return np.exp(dt * (sum(f * s for f, s in op.terms) + op.diagonal))


# ---------------------------------------------------------------------------
# ensemble driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpdeConfig:
    """Run description for a paired heterogeneous/homogenized ensemble.

    Both solvers of a path consume the same Brownian increments, and every
    run aborts when max_t ||u_t||^4 > ENERGY_CAP_C (1 + ||u_0||^4).

    Parameters
    ----------
    part : str
        "I" (integrable-jump family) or "II" (stable family).
    eps : float
        Scale separation; reciprocal of an integer.
    grid : LineGrid
        Periodic spatial grid; must tile eps with >= 16 points per cell.
    dt : float
        Requested time step; the step taken, T_end / ceil(T_end / dt),
        must satisfy :func:`heterogeneous_dt_limit`, which
        :func:`run_ensemble` checks before it marches.
    T_end : float
        Horizon; the effective step is T_end / ceil(T_end / dt).
    n_paths : int
        Ensemble size.
    seed : int
        Root seed, a non-negative integer; path j draws from the dedicated
        stream (seed, j).
    u0 : str or ndarray
        ``"gauss"`` (:func:`initial_profile`) or explicit samples with
        finite, nonzero L2 norm.
    n_save : int
        Number of recorded times (pairings and snapshots), endpoints
        included.
    n_snapshot_paths : int
        Leading paths that retain full field snapshots.
    store_increments : bool
        Keep per-path increment arrays on the records (disable for large
        step counts; the variance check runs either way).
    chunk_size : int
        Paths marched per state-matrix block.  The heterogeneous columns of
        a block march as two halves on two threads; the pairings and masses
        depend on the half width at rounding level.
    """

    part: str
    eps: float
    grid: LineGrid
    dt: float
    T_end: float
    n_paths: int
    seed: int
    u0: Union[str, np.ndarray] = "gauss"
    n_save: int = 9
    n_snapshot_paths: int = 4
    store_increments: bool = True
    chunk_size: int = 512

    def __post_init__(self):
        if self.part not in ("I", "II"):
            raise ValueError("part must be 'I' or 'II', got %r" % (self.part,))
        for label in ("dt", "T_end"):
            _check_positive(label, getattr(self, label))
        for label, least in (("n_paths", 1), ("n_save", 2),
                             ("n_snapshot_paths", 0), ("chunk_size", 1),
                             ("seed", 0)):
            _check_count(label, getattr(self, label), least)
        _check_type("grid", self.grid, LineGrid)
        _check_type("store_increments", self.store_increments, bool)
        self.grid.points_per_cell(_eps_value(self.eps))
        if isinstance(self.u0, str):
            if self.u0 != "gauss":
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
            return initial_profile(self.grid)
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


def _violation(side, steps, nsq, first_path, cap, dt):
    """Energy monitor of squared norms, one row per step of ``steps`` and
    one column per path from ``first_path``: None, or the report (order,
    message) of the earliest bad row's lowest non-finite path or else its
    worst path above the cap; the least order is the serial march's."""
    n4 = nsq ** 2
    ok = np.all(n4 <= cap, axis=1)  # False on a non-finite norm too
    if ok.all():
        return None
    row = int(np.argmin(ok))
    k = steps[row]
    finite = np.isfinite(nsq[row])
    if not finite.all():
        path = first_path + int(np.argmax(~finite))
        return ((k, side == "hom", 0, 0.0, path),
                "non-finite %s state on path %d at t = %.6g"
                % (side, path, k * dt))
    worst = int(np.argmax(n4[row]))
    path = first_path + worst
    return ((k, side == "hom", 1, -n4[row, worst], path),
            "energy cap violated on %s path %d at t = %.6g: "
            "||u||^4 = %.6g > %.6g"
            % (side, path, k * dt, n4[row, worst], cap))


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
        Heterogeneous and homogenized path records, index-aligned; path j
        of both consumed the same Brownian increments.

    Notes
    -----
    Each chunk marches its heterogeneous paths as the Bloch coefficients
    u_hat, shape (N_c//2 + 1, p, m), of one (n, m) state block: a step is
    ``SemiImplicitStepper.bloch_step``, one batched block product with no
    forward transform.  Every step takes the inverse transform once, and the
    energy monitor reads the squared norms of the physical field.  Recorded
    steps also read the pairings (one product with the stacked
    [xi; xi_d2]), the band and total L1 mass (one product with the stacked
    [band; 1]) and the snapshots from that field.  The homogenized side
    is one (n,) flow S_t u0, marched once per call by the spectral stepper
    with no noise, up to its first non-finite step, and a chunk's growth
    array, the running products of (1 + sigma_bar dW_k): its squared norms,
    pairings, masses and snapshots are the flow's times the growth.

    The heterogeneous columns of a chunk march as two fixed halves, each
    with its own Bloch state: the first ceil(m/2) on the calling thread, the
    rest on a one-thread pool scoped to the call (no task when m = 1).  Each
    half writes only its own columns of the chunk's records.  Each path's
    state is bit-identical to a one-block march, but the pairings and
    masses are products over a half-width block: they differ at rounding
    level, a few 1e-15 of the largest pairing.  Set-up, the increment
    draws, the homogenized side and the path records stay on the calling
    thread.  The energy monitor :func:`_violation` reads each half at
    every step, to its first violation, and a chunk's homogenized norms at
    once.  The run raises the violation a serial march meets first: the
    earliest step, het before hom at that step, then the lowest non-finite
    path or else the worst path above the cap.  The worker is joined before
    the call returns or raises.

    Raises
    ------
    ValueError
        On a cell or set of the other family, or a battery whose xi and
        xi_d2 are not finite (n_xi, n) arrays.
    RuntimeError
        On non-finite states, energy-cap violation, or a pooled increment
        variance further than 6 standard errors from dt.
    """
    part_I = config.part == "I"
    _check_type("cell", cell, CellSolutionI if part_I else CellSolutionII)
    _check_type("cset", cset, CoefficientSetI if part_I else CoefficientSetII)
    grid = config.grid
    dx = grid.dx
    if battery is None:
        battery = default_test_battery(grid)
    xi, xi_d2 = _battery_rows(battery, grid)
    xi_both = np.vstack([xi, xi_d2])
    n_xi = xi.shape[0]
    n_steps, dt_eff, save_idx = _step_grid(config.T_end, config.dt,
                                           config.n_save)
    het, hom = _prepare_pair(config, cell, cset, dt_eff)
    het_op = het.operator

    u0 = config.initial_state()
    u0_hat = het_op.to_bloch(u0)
    norm0_sq = grid.l2_norm(u0) ** 2
    cap = ENERGY_CAP_C * (1.0 + norm0_sq ** 2)
    band = np.abs(grid.x) >= 0.95 * grid.half_width
    band_rows = np.vstack([band, np.ones(grid.n)])
    save_set = {int(k): i for i, k in enumerate(save_idx)}
    times = save_idx * dt_eff
    n_rec = len(save_idx)

    # the homogenized flow S_t u0, marched once; past its first non-finite
    # step its squared norms stay NaN, so every chunk's monitor stops there
    flow = u0
    flow_sq = np.full(n_steps + 1, np.nan)
    flow_pairs = np.empty((n_rec, 2 * n_xi))
    flow_mass = np.empty((n_rec, 2))
    flows = np.empty((n_rec, grid.n))
    for k in range(n_steps + 1):
        if k:
            flow = hom.step(flow, 0.0)
        flow_sq[k] = flow @ flow
        if not np.isfinite(flow_sq[k]):
            break
        slot = save_set.get(k)
        if slot is not None:
            abs_flow = np.abs(flow)
            flow_pairs[slot, :n_xi] = (xi @ flow) * dx
            flow_pairs[slot, n_xi:] = (xi_d2 @ flow) * dx
            flow_mass[slot] = abs_flow[band].sum(), abs_flow.sum()
            flows[slot] = flow

    # pooled second moment of all consumed increments, checked at the end
    pool_ss = 0.0
    pool_n = 0

    het_paths, hom_paths = [], []
    with ThreadPoolExecutor(max_workers=1) as pool:
        for lo in range(0, config.n_paths, config.chunk_size):
            m = min(config.chunk_size, config.n_paths - lo)
            n_snap = min(m, max(0, config.n_snapshot_paths - lo))
            inc = np.empty((n_steps, m))
            for j in range(m):
                inc[:, j] = _rng(config.seed, lo + j).standard_normal(n_steps)
            inc *= np.sqrt(dt_eff)

            # the heterogeneous records: pairings [xi; xi_d2], masses
            # [band; total] and snapshots per recorded time, max ||u||^4
            pairs = np.empty((n_rec, 2 * n_xi, m))
            mass = np.empty((n_rec, 2, m))
            snaps = np.empty((n_snap, n_rec, grid.n))
            max4 = np.zeros(m)

            def march_het(cols):
                """March and record the heterogeneous paths of the columns
                ``cols`` as the Bloch coefficients of one state block;
                returns the report of their first violation, or None."""
                width = cols.stop - cols.start
                U_hat = np.repeat(u0_hat, width, axis=2)
                U = np.tile(u0[:, None], (1, width))
                for k in range(n_steps + 1):
                    if k:
                        U_hat = het.bloch_step(U_hat, inc[k - 1, cols])
                        U = het_op.from_bloch(U_hat)
                    nsq = np.einsum("ij,ij->j", U, U) * dx
                    report = _violation("het", [k], nsq[None],
                                        lo + cols.start, cap, dt_eff)
                    if report is not None:
                        return report
                    np.maximum(max4[cols], nsq ** 2, out=max4[cols])
                    slot = save_set.get(k)
                    if slot is not None:
                        pairs[slot][:, cols] = (xi_both @ U) * dx
                        mass[slot][:, cols] = band_rows @ np.abs(U)
                        snaps[cols.start:min(cols.stop, n_snap), slot] = \
                            U[:, :max(0, n_snap - cols.start)].T
                return None

            growth = np.cumprod(np.vstack([np.ones(m),
                                           1.0 + hom.sigma_bar * inc]), axis=0)
            hom_sq = growth ** 2 * flow_sq[:, None] * dx

            # the worker marches the second half of the heterogeneous
            # columns, this thread the first; the least report is raised
            half = (m + 1) // 2
            second = pool.submit(march_het, slice(half, m)) if m > 1 else None
            reports = [march_het(slice(0, half)),
                       _violation("hom", range(n_steps + 1), hom_sq, lo, cap,
                                  dt_eff)]
            if second is not None:
                reports.append(second.result())
            reports = [r for r in reports if r is not None]
            if reports:
                raise RuntimeError(min(reports)[1])

            pool_ss += float(np.sum(inc ** 2))
            pool_n += inc.size

            g = growth[save_idx]
            hom_records = (flow_pairs[:, :, None] * g[:, None],
                           np.abs(g)[:, None] * flow_mass[:, :, None],
                           g[:, :n_snap].T[:, :, None] * flows,
                           np.max(hom_sq ** 2, axis=0))
            for (pr, ms, sn, m4), out in (
                    ((pairs, mass, snaps, max4), het_paths),
                    (hom_records, hom_paths)):
                bfrac = np.max(ms[:, 0] / np.where(ms[:, 1] > 0, ms[:, 1],
                                                   1.0), axis=0)
                for j in range(m):
                    out.append(FieldPath(
                        path_index=lo + j,
                        times=times.copy(),
                        pairings=pr[:, :n_xi, j].copy(),
                        pairings_d2=pr[:, n_xi:, j].copy(),
                        snapshots=sn[j].copy() if j < n_snap else None,
                        increments=inc[:, j].copy()
                        if config.store_increments else None,
                        max_norm4=float(m4[j]),
                        boundary_frac=float(bfrac[j]),
                        config=config))

    # per-run statistical verification of the consumed noise
    mean_sq = pool_ss / pool_n
    tol = 6.0 * np.sqrt(2.0 / pool_n) * dt_eff
    if abs(mean_sq - dt_eff) > max(tol, 1e-300):
        raise RuntimeError(
            "increment variance %.6g deviates from dt = %.6g beyond 6 SE"
            % (mean_sq, dt_eff))
    return het_paths, hom_paths
