"""Stepper exactness, scheme cross-checks, and ensemble-driver invariants."""

import dataclasses
import re
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlhom import cell, fixtures, spde
from nlhom import lineops as lo
from nlhom.coefficients import PeriodicField
from nlhom.lineops import LineGrid, ResolutionError, assemble_T_eps
from nlhom.particles import _step_grid
from nlhom.torus import TorusGrid
from spde_oracle import prepare_explicit, run_path


def _const_sigma_zero(cset):
    zero = PeriodicField(cset.grid, np.zeros(cset.grid.n))
    return cset.with_fields(sigma=zero)


@pytest.fixture(scope="module")
def varcoef():
    cset = fixtures.varcoef_1()
    return cset, cell.solve_cell_I(cset)


@pytest.fixture(scope="module")
def stable2():
    cset = fixtures.stable_2()
    return cset, cell.solve_cell_II(cset)


# ---------------------------------------------------------------------------
# initial profiles and battery
# ---------------------------------------------------------------------------


def test_initial_profiles_supported_inside_half_window():
    grid = LineGrid(2.0, 256)
    band = np.abs(grid.x) >= 0.75 * grid.half_width
    u = spde.initial_profile(grid)
    assert np.all(np.isfinite(u)) and u.max() > 0.5
    assert np.abs(u[band]).sum() <= 1e-12 * np.abs(u).sum()
    # "gauss" is the one named profile; other names are refused
    for name in ("double", "indicator", "sawtooth"):
        with pytest.raises(ValueError, match="unknown profile"):
            _small_config(u0=name)


def test_default_battery_shapes_and_d2():
    grid = LineGrid(2.0, 256)
    labels, xi, xi2 = spde.default_test_battery(grid)
    assert len(labels) == 3 and xi.shape == (3, grid.n) == xi2.shape
    # xi2 rows really are second derivatives (spectral identity on a bump)
    for j in range(3):
        assert np.allclose(xi2[j], grid.apply_derivative(xi[j], 2),
                           atol=1e-10)


# ---------------------------------------------------------------------------
# heterogeneous stepper, integrable family
# ---------------------------------------------------------------------------


def test_het_I_const_mode_decays_at_symbol_rate():
    cset = _const_sigma_zero(fixtures.const_1())
    grid = LineGrid(2.0, 256)
    eps = 1.0 / 4.0
    dt = spde.heterogeneous_dt_limit(cset, eps, grid)
    stepper = spde.prepare_heterogeneous_I(cset, eps, grid, dt)
    k = 3
    mode = np.cos(2.0 * np.pi * k * grid.x / (2.0 * grid.half_width))
    sym = grid.inner(stepper.operator.apply(mode), mode) / grid.inner(mode, mode)
    assert sym < 0.0
    n_steps = 200
    u = run_path(stepper, mode, np.zeros(n_steps))
    rate = np.log(grid.inner(u, mode) / grid.inner(mode, mode)) / (n_steps * dt)
    # semi-implicit log-rate bias is sym^2 dt / 2 + O(dt^2)
    assert abs(rate - sym) <= 0.75 * sym**2 * dt


def test_het_I_zero_noise_preserves_positivity(varcoef):
    cset, _ = varcoef
    grid = LineGrid(2.0, 512)
    dt = spde.heterogeneous_dt_limit(cset, 1.0 / 8.0, grid)
    stepper = spde.prepare_heterogeneous_I(cset, 1.0 / 8.0, grid, dt)
    u = run_path(stepper, spde.initial_profile(grid), np.zeros(400))
    assert u.min() >= -1e-9


def test_het_I_matches_tenfold_refined_explicit(varcoef):
    cset, _ = varcoef
    grid = LineGrid(1.0, 256)
    eps = 1.0 / 8.0
    dt = spde.heterogeneous_dt_limit(cset, eps, grid)
    semi = spde.prepare_heterogeneous_I(cset, eps, grid, dt)
    expl = prepare_explicit(cset, eps, grid, dt / 10.0, part="I")
    rng = np.random.default_rng(5)
    n_steps = 120
    dws = rng.normal(0.0, np.sqrt(dt), n_steps)
    u0 = spde.initial_profile(grid)
    u_semi = run_path(semi, u0, dws)
    # refined explicit driven by the same Brownian path; each macro increment
    # rides on the first substep so both schemes see the same noise factor
    # (splitting dW across substeps would change the realized product of
    # (1 + sigma dW) terms at O(sigma^2 T), independent of dt)
    fine = np.zeros(10 * n_steps)
    fine[0::10] = dws
    u_expl = run_path(expl, u0, fine)
    rel = grid.l2_norm(u_semi - u_expl) / grid.l2_norm(u_expl)
    assert rel <= 1e-3


def test_het_I_zero_noise_self_convergence_order_one(varcoef):
    cset, _ = varcoef
    grid = LineGrid(1.0, 256)
    eps = 1.0 / 8.0
    T = 2.0e-3
    u0 = spde.initial_profile(grid)
    terminal = []
    levels = [200, 400, 800, 1600]
    for n_steps in levels:
        st = spde.prepare_heterogeneous_I(cset, eps, grid, T / n_steps)
        terminal.append(run_path(st, u0, np.zeros(n_steps)))
    errs = [grid.l2_norm(terminal[i] - terminal[i + 1]) for i in range(3)]
    slope = np.polyfit(np.log2([T / n for n in levels[:3]]), np.log2(errs), 1)[0]
    assert 0.85 <= slope <= 1.3


def test_het_I_stability_guard(varcoef):
    cset, _ = varcoef
    grid = LineGrid(2.0, 512)
    lim = spde.heterogeneous_dt_limit(cset, 1.0 / 8.0, grid)
    with pytest.raises(ValueError):
        spde.prepare_heterogeneous_I(cset, 1.0 / 8.0, grid, 2.0 * lim)
    # the dx^2 clause binds at 16 points per cell
    assert lim < 0.1 / 64.0


# ---------------------------------------------------------------------------
# homogenized stepper, integrable family
# ---------------------------------------------------------------------------


def test_hom_I_gaussian_variance_grows_linearly(varcoef):
    _, sol = varcoef
    grid = LineGrid(8.0, 512)
    dt, T = 1e-3, 0.5
    st = spde.prepare_homogenized_I(sol.Q, 0.0, grid, dt)
    v0 = 0.04
    u = np.exp(-grid.x**2 / (2.0 * v0))
    u = run_path(st, u, np.zeros(int(T / dt)))
    var = grid.inner(grid.x**2, u) / grid.inner(np.ones(grid.n), u)
    assert abs(var - (v0 + 2.0 * sol.Q * T)) <= 1e-6


def test_hom_I_mass_multiplies_by_noise_factors(varcoef):
    _, sol = varcoef
    grid = LineGrid(2.0, 256)
    dt = 2e-3
    st = spde.prepare_homogenized_I(sol.Q, sol.sigma_bar, grid, dt)
    rng = np.random.default_rng(11)
    dws = rng.normal(0.0, np.sqrt(dt), 300)
    L = grid.half_width
    u0 = (lo.gaussian_bump(grid, -L / 6.0, L / 14.0)
          + lo.gaussian_bump(grid, L / 6.0, L / 14.0))
    mass0 = grid.inner(np.ones(grid.n), u0)
    u = run_path(st, u0, dws)
    mass = grid.inner(np.ones(grid.n), u)
    expected = mass0 * np.prod(1.0 + sol.sigma_bar * dws)
    assert abs(mass / expected - 1.0) <= 1e-12
    # sigma_bar = 0: conservation to 1e-10 over the whole run
    st0 = spde.prepare_homogenized_I(sol.Q, 0.0, grid, dt)
    u = run_path(st0, u0, dws)
    assert abs(grid.inner(np.ones(grid.n), u) - mass0) <= 1e-10


def test_hom_I_strong_self_convergence_order_half(varcoef):
    _, sol = varcoef
    grid = LineGrid(2.0, 64)
    T, n_paths = 0.5, 400
    finest = 256
    rng = np.random.default_rng(17)
    dw_fine = rng.normal(0.0, np.sqrt(T / finest), (finest, n_paths))
    u0 = spde.initial_profile(grid)
    U0 = np.tile(u0[:, None], (1, n_paths))
    terminals = {}
    for n_steps in (32, 64, 128, 256):
        agg = dw_fine.reshape(n_steps, finest // n_steps, n_paths).sum(axis=1)
        st = spde.prepare_homogenized_I(sol.Q, sol.sigma_bar, grid,
                                        T / n_steps)
        terminals[n_steps] = run_path(st, U0, agg)
    errs = [np.mean(np.sqrt(np.sum(
        (terminals[n] - terminals[2 * n])**2, axis=0) * grid.dx))
        for n in (32, 64, 128)]
    slope = np.polyfit(np.log2([T / n for n in (32, 64, 128)]),
                       np.log2(errs), 1)[0]
    assert abs(slope - 0.5) <= 0.15
    # homogenized deterministic part is exact: zero-noise refinement is flat
    z32 = run_path(spde.prepare_homogenized_I(sol.Q, sol.sigma_bar,
                                              grid, T / 32),
                   u0, np.zeros(32))
    z256 = run_path(spde.prepare_homogenized_I(sol.Q, sol.sigma_bar,
                                               grid, T / 256),
                    u0, np.zeros(256))
    assert grid.l2_norm(z32 - z256) <= 1e-12


# ---------------------------------------------------------------------------
# stable family steppers
# ---------------------------------------------------------------------------


def test_hom_II_pure_fractional_mode_decay(stable2):
    _, sol = stable2
    grid = LineGrid(2.0, 256)
    pure = dataclasses.replace(sol, delta_bar_alpha=1.0, g_bar=0.0,
                               f_bar=0.0, sigma_bar=0.0)
    dt = 0.05
    st = spde.prepare_homogenized_II(pure, grid, dt)
    k = 5
    omega = 2.0 * np.pi * k / (2.0 * grid.half_width)
    mode = np.cos(omega * grid.x)
    u = st.step(mode, 0.0)
    expected = np.exp(-abs(omega) ** sol.cset.alpha * dt)
    assert np.max(np.abs(u - expected * mode)) <= 1e-10


def test_hom_II_zero_order_growth_exact(stable2):
    _, sol = stable2
    grid = LineGrid(2.0, 256)
    only_f = dataclasses.replace(sol, delta_bar_alpha=0.0, g_bar=0.0,
                                 sigma_bar=0.0)
    dt, n_steps = 0.02, 50
    st = spde.prepare_homogenized_II(only_f, grid, dt)
    u0 = spde.initial_profile(grid)
    u = run_path(st, u0, np.zeros(n_steps))
    assert np.max(np.abs(u - u0 * np.exp(sol.f_bar * dt * n_steps))) <= 1e-12


def test_hom_II_advection_translates(stable2):
    _, sol = stable2
    grid = LineGrid(2.0, 512)
    adv = dataclasses.replace(sol, delta_bar_alpha=0.0, f_bar=0.0,
                              sigma_bar=0.0, g_bar=0.5)
    dt, n_steps = 0.01, 40
    st = spde.prepare_homogenized_II(adv, grid, dt)
    u0 = spde.initial_profile(grid)
    u = run_path(st, u0, np.zeros(n_steps))
    # d_t v = g_bar v' translates the profile to the left by g_bar t
    shift = adv.g_bar * dt * n_steps
    target = np.exp(-((grid.x + shift) ** 2)
                    / (2.0 * (grid.half_width / 10.0) ** 2))
    assert grid.l2_norm(u - target) <= 1e-6 * grid.l2_norm(target)
    # the Nyquist cosine takes no advection phase: the derivative symbol
    # zeroes the odd orders' Nyquist entry, so the semigroup factor keeps
    # that mode real (a phase exp(i g_bar omega_N dt) would scale it by
    # cos(2.01) = -0.43 here)
    nyquist = np.cos(np.pi * np.arange(grid.n))
    assert np.max(np.abs(st.step(nyquist, 0.0) - nyquist)) <= 1e-12


def test_het_II_matches_tenfold_refined_explicit():
    cset = fixtures.stable_1()
    grid = LineGrid(1.0, 128)
    eps = 1.0 / 4.0
    dt = 2e-4
    semi = spde.prepare_heterogeneous_II(cset, eps, grid, dt)
    expl = prepare_explicit(cset, eps, grid, dt / 10.0, part="II")
    rng = np.random.default_rng(23)
    n_steps = 250
    dws = rng.normal(0.0, np.sqrt(dt), n_steps)
    u0 = spde.initial_profile(grid)
    u_semi = run_path(semi, u0, dws)
    fine = np.zeros(10 * n_steps)
    fine[0::10] = dws
    u_expl = run_path(expl, u0, fine)
    assert grid.l2_norm(u_semi - u_expl) / grid.l2_norm(u_expl) <= 1e-3


def test_het_II_stability_guard(stable2):
    cset, _ = stable2
    grid = LineGrid(2.0, 512)
    lim = spde.heterogeneous_dt_limit(cset, 1.0 / 8.0, grid)
    assert lim == pytest.approx(0.1 * 0.125 ** cset.alpha)
    with pytest.raises(ValueError):
        spde.prepare_heterogeneous_II(cset, 1.0 / 8.0, grid, 1.5 * lim)


_PREPARES = {
    "heterogeneous_I": lambda vc, st, grid, dt: spde.prepare_heterogeneous_I(
        vc[0], 1.0 / 8.0, grid, dt),
    "homogenized_I": lambda vc, st, grid, dt: spde.prepare_homogenized_I(
        vc[1].Q, vc[1].sigma_bar, grid, dt),
    "heterogeneous_II": lambda vc, st, grid, dt:
        spde.prepare_heterogeneous_II(st[0], 1.0 / 8.0, grid, dt),
    "homogenized_II": lambda vc, st, grid, dt: spde.prepare_homogenized_II(
        st[1], grid, dt),
    "explicit": lambda vc, st, grid, dt: prepare_explicit(
        vc[0], 1.0 / 8.0, grid, dt, part="I"),
}


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
@pytest.mark.parametrize("prepare", sorted(_PREPARES))
def test_prepare_rejects_nonpositive_or_nonfinite_dt(prepare, dt, varcoef,
                                                     stable2):
    # a negative dt ran a backward step, nan and inf gave all-NaN fields
    with pytest.raises(ValueError, match="dt"):
        _PREPARES[prepare](varcoef, stable2, LineGrid(2.0, 512), dt)


def test_semi_implicit_stepper_needs_a_tiled_sigma_trace(varcoef):
    # the Bloch step applies one eps-cell of the noise field to every block,
    # so a trace that is not one cell tiled over the cells is refused
    cset, _ = varcoef
    grid, eps = LineGrid(2.0, 512), 1.0 / 8.0
    op = assemble_T_eps(cset, eps, grid)
    dt = spde.heterogeneous_dt_limit(cset, eps, grid)
    p = grid.points_per_cell(eps)
    cell_ramp = np.linspace(0.0, 1.0, p)
    for bad in (np.linspace(0.0, 1.0, grid.n), np.tile(cell_ramp, 16),
                np.full(grid.n, np.nan), np.zeros((grid.n, 1))):
        with pytest.raises(ValueError, match="sigma_trace"):
            spde.SemiImplicitStepper(op, bad, dt)
    stepper = spde.SemiImplicitStepper(op, np.tile(cell_ramp, grid.n // p),
                                       dt)
    assert np.array_equal(stepper.sigma_trace,
                          np.tile(cell_ramp, grid.n // p))


# ---------------------------------------------------------------------------
# ensemble driver
# ---------------------------------------------------------------------------


def _small_config(part="I", **kw):
    defaults = dict(part=part, eps=1.0 / 8.0, grid=LineGrid(2.0, 512),
                    dt=1e-5 if part == "I" else 8e-4, T_end=6e-4 if part == "I"
                    else 0.05, n_paths=6, seed=42, n_save=4,
                    n_snapshot_paths=2)
    defaults.update(kw)
    return spde.SpdeConfig(**defaults)


def test_config_validation(varcoef):
    grid = LineGrid(2.0, 512)
    with pytest.raises(ValueError):
        spde.SpdeConfig(part="III", eps=0.125, grid=grid, dt=1e-5,
                        T_end=0.1, n_paths=1, seed=0)
    with pytest.raises(ValueError):
        spde.SpdeConfig(part="I", eps=0.125, grid=grid, dt=-1e-5,
                        T_end=0.1, n_paths=1, seed=0)
    # violates dt <= 0.1 eps^2: the run refuses the step it would take
    cfg = spde.SpdeConfig(part="I", eps=0.125, grid=grid, dt=5e-3,
                          T_end=0.1, n_paths=1, seed=0)
    with pytest.raises(ValueError, match="exceeds the integrable-family "
                                         "stability limit"):
        spde.run_ensemble(cfg, varcoef[1], varcoef[0])
    # a torus grid used to raise AttributeError: no points_per_cell
    with pytest.raises(ValueError, match="grid must be a LineGrid, got a "
                                         "TorusGrid"):
        spde.SpdeConfig(part="I", eps=0.125, grid=TorusGrid(64), dt=1e-5,
                        T_end=0.1, n_paths=1, seed=0)
    # "no" used to be accepted as a truthy store_increments
    with pytest.raises(ValueError, match="store_increments must be a bool"):
        spde.SpdeConfig(part="I", eps=0.125, grid=grid, dt=1e-5,
                        T_end=0.1, n_paths=1, seed=0, store_increments="no")
    with pytest.raises(ValueError):
        spde.SpdeConfig(part="I", eps=0.125, grid=grid, dt=1e-5,
                        T_end=0.1, n_paths=1, seed=0, u0="sawtooth")
    with pytest.raises(ValueError):
        spde.SpdeConfig(part="I", eps=0.125, grid=grid, dt=1e-5,
                        T_end=0.1, n_paths=1, seed=0,
                        u0=np.ones(7))
    with pytest.raises(ResolutionError):  # 8 points per cell only
        spde.SpdeConfig(part="I", eps=1.0 / 16.0, grid=LineGrid(2.0, 512),
                        dt=1e-6, T_end=0.1, n_paths=1, seed=0)
    cfg = _small_config(u0=np.ones(512))
    assert cfg.initial_state().shape == (512,)


@pytest.fixture(scope="module")
def both_families():
    """A solved set of each family at n = 64: {"I": (cset, cell), "II": ...}."""
    sets = {"I": fixtures.varcoef_1(64), "II": fixtures.stable_2(64)}
    return {"I": (sets["I"], cell.solve_cell_I(sets["I"])),
            "II": (sets["II"], cell.solve_cell_II(sets["II"]))}


_GRID = LineGrid(2.0, 512)
_XI = lo.gaussian_bump(_GRID)


def _refusal(expected, given):
    return "must be a %s, got a %s$" % (expected, given)


@pytest.mark.parametrize("call, message", [
    (lambda f: cell.solve_cell_I(f["II"][0]),
     _refusal("CoefficientSetI", "CoefficientSetII")),
    (lambda f: cell.solve_cell_II(f["I"][0]),
     _refusal("CoefficientSetII", "CoefficientSetI")),
    (lambda f: spde.run_ensemble(_small_config("I"), f["I"][1], f["II"][0]),
     _refusal("CoefficientSetI", "CoefficientSetII")),
    (lambda f: spde.run_ensemble(_small_config("I"), f["II"][1], f["I"][0]),
     _refusal("CellSolutionI", "CellSolutionII")),
    (lambda f: spde.run_ensemble(_small_config("II"), f["I"][1], f["II"][0]),
     _refusal("CellSolutionII", "CellSolutionI")),
    (lambda f: lo.residual_lemma_2_10(_XI, f["II"][1], f["I"][0], 1.0 / 8,
                                      _GRID),
     _refusal("CellSolutionI", "CellSolutionII")),
    (lambda f: lo.residual_lemma_2_10(_XI, f["I"][1], f["II"][0], 1.0 / 8,
                                      _GRID),
     _refusal("CoefficientSetI", "CoefficientSetII")),
    (lambda f: lo.residual_part_II(_XI, _XI, f["I"][1], f["II"][0], 1.0 / 8,
                                   _GRID),
     _refusal("CellSolutionII", "CellSolutionI")),
    (lambda f: lo.residual_part_II(_XI, _XI, f["II"][1], f["I"][0], 1.0 / 8,
                                   _GRID),
     _refusal("CoefficientSetII", "CoefficientSetI")),
    (lambda f: lo.LineOperator(_GRID, "empty", 1, [], 0.0),
     "has no .* terms$"),
], ids=["solve_cell_I", "solve_cell_II", "ensemble-I-set", "ensemble-I-cell",
        "ensemble-II-cell", "residual-I-cell", "residual-I-set",
        "residual-II-cell", "residual-II-set", "empty-terms"])
def test_wrong_family_inputs_are_refused(both_families, call, message):
    # an input of the other family, or an operator without terms, is
    # refused before any work with a ValueError; the family checks name the
    # expected and the given type
    with pytest.raises(ValueError, match=message):
        call(both_families)


@pytest.mark.parametrize("field, value", [
    ("dt", np.nan), ("T_end", np.inf), ("T_end", np.nan),
    ("n_paths", 2.5), ("n_paths", 6.0), ("n_save", 4.0),
    ("n_snapshot_paths", 1.5), ("chunk_size", 2.0), ("chunk_size", True),
])
def test_config_rejects_bad_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        _small_config(**{field: value})


@pytest.mark.parametrize("seed, message", [
    (2.5, "seed must be an integer"), (True, "seed must be an integer"),
    (-1, "seed must be at least 0"),
])
def test_config_seed_must_be_a_non_negative_integer(seed, message):
    # SpdeConfig(seed=2.5) used to be accepted
    with pytest.raises(ValueError, match=message):
        _small_config(seed=seed)
    assert _small_config(seed=np.int64(3)).seed == 3


def test_run_ensemble_shared_noise_bit_identical(varcoef):
    cset, sol = varcoef
    cfg = _small_config()
    a1, b1 = spde.run_ensemble(cfg, sol, cset)
    a2, b2 = spde.run_ensemble(cfg, sol, cset)
    for p1, p2 in zip(a1 + b1, a2 + b2):
        assert np.array_equal(p1.pairings, p2.pairings)
        assert np.array_equal(p1.increments, p2.increments)
        if p1.snapshots is not None:
            assert np.array_equal(p1.snapshots, p2.snapshots)
    # het and hom consume identical increments
    for ph, pm in zip(a1, b1):
        assert np.array_equal(ph.increments, pm.increments)
        assert ph.path_index == pm.path_index
    # chunking does not change the draw assignment; the pairings can differ
    # by BLAS reduction order only (different block shapes), so equality is
    # up to roundoff rather than bitwise
    a3, _ = spde.run_ensemble(_small_config(chunk_size=2), sol, cset)
    for p1, p3 in zip(a1, a3):
        assert np.array_equal(p1.increments, p3.increments)
        assert np.allclose(p1.pairings, p3.pairings, rtol=1e-12, atol=1e-14)


def _draw_increments(cfg):
    """(n_steps, n_paths) increments of each side, drawn from the streams
    run_ensemble reads: path j of both sides from stream (seed, j)."""
    n_steps, dt_eff, _ = _step_grid(cfg.T_end, cfg.dt, cfg.n_save)
    inc = np.stack([spde._rng(cfg.seed, j).standard_normal(n_steps)
                    for j in range(cfg.n_paths)], axis=1) * np.sqrt(dt_eff)
    return {"het": inc, "hom": inc}


def _column_march(cfg, sol, cset, inc):
    """Records of both sides marched as (n, m) column blocks in physical
    space, one column per path, with the increments ``inc`` of
    :func:`_draw_increments`: the heterogeneous side multiplies by the noise
    factor of the full (n,) ``sigma_trace`` and applies the resolvent
    blocks by a Bloch round trip, apart from ``bloch_step``, and the
    homogenized side calls ``SpectralStepper.step`` with its own noise at
    every step.  Also returns each side's (n_steps + 1, n_paths) squared
    norms."""
    grid = cfg.grid
    n_steps, dt_eff, save_idx = _step_grid(cfg.T_end, cfg.dt, cfg.n_save)
    het, hom = spde._prepare_pair(cfg, sol, cset, dt_eff)
    _, xi, xi_d2 = spde.default_test_battery(grid)
    band = np.abs(grid.x) >= 0.95 * grid.half_width
    u0 = cfg.initial_state()
    out, norms = {}, {}
    for side, stepper in (("het", het), ("hom", hom)):
        U = np.tile(u0[:, None], (1, cfg.n_paths))
        pair, pair2, snaps, nsq = [], [], [], []
        bfrac = np.zeros(cfg.n_paths)
        for k in range(n_steps + 1):
            if k and side == "het":
                op = het.operator
                U = op.from_bloch(het._resolvent @ op.to_bloch(
                    U * (1.0 + het.sigma_trace[:, None] * inc[side][k - 1])))
            elif k:
                U = stepper.step(U, inc[side][k - 1])
            nsq.append(np.einsum("ij,ij->j", U, U) * grid.dx)
            if k in save_idx:
                pair.append((xi @ U) * grid.dx)
                pair2.append((xi_d2 @ U) * grid.dx)
                snaps.append(U.T.copy())
                absU = np.abs(U)
                total = absU.sum(axis=0)
                bfrac = np.maximum(bfrac, absU[band].sum(axis=0)
                                   / np.where(total > 0, total, 1.0))
        norms[side] = np.stack(nsq)
        max4 = np.max(norms[side] ** 2, axis=0)
        out[side] = [dict(pairings=np.stack(pair)[:, :, j],
                          pairings_d2=np.stack(pair2)[:, :, j],
                          snapshots=np.stack(snaps)[:, j, :],
                          max_norm4=max4[j], boundary_frac=bfrac[j])
                     for j in range(cfg.n_paths)]
    return out["het"], out["hom"], norms


def _assert_close(actual, ref):
    """Entrywise to 1e-12 relative, with an absolute floor of 64 ulps of
    the largest reference entry for entries that cancel to rounding."""
    np.testing.assert_allclose(
        actual, ref, rtol=1e-12,
        atol=64 * np.finfo(float).eps * np.max(np.abs(ref)))


def _assert_march_matches_column_march(cfg, sol, cset):
    """The Bloch-space march agrees with the column march to rounding: the
    pairings and snapshots entrywise to 1e-12 relative, max_norm4 to 1e-12
    relative and the boundary fraction (near 1e-15) to 1e-12 absolute."""
    het, hom = spde.run_ensemble(cfg, sol, cset)
    ref_het, ref_hom, _ = _column_march(
        cfg, sol, cset, {"het": np.stack([p.increments for p in het], 1),
                         "hom": np.stack([p.increments for p in hom], 1)})
    for paths, refs in ((het, ref_het), (hom, ref_hom)):
        for p, ref in zip(paths, refs):
            for name in ("pairings", "pairings_d2", "snapshots"):
                if getattr(p, name) is not None:
                    _assert_close(getattr(p, name), ref[name])
            assert p.max_norm4 == pytest.approx(ref["max_norm4"], rel=1e-12)
            assert abs(p.boundary_frac - ref["boundary_frac"]) <= 1e-12


# the ids keep naming the noise coupling, which is always shared
@pytest.mark.parametrize("part, every_step", [
    ("I", False), ("I", True), ("II", False), ("II", True),
], ids=["I-shared-False", "I-shared-True", "II-shared-False",
        "II-shared-True"])
def test_one_flow_march_equals_column_march(part, every_step, varcoef,
                                            stable2):
    cset, sol = varcoef if part == "I" else stable2
    cfg = _small_config(part=part, chunk_size=4, n_snapshot_paths=6)
    if every_step:
        n_steps = _step_grid(cfg.T_end, cfg.dt, 2)[0]
        cfg = dataclasses.replace(cfg, n_save=n_steps + 1)
    _assert_march_matches_column_march(cfg, sol, cset)


@given(part=st.sampled_from(["I", "II"]), n_paths=st.integers(1, 6),
       chunk_size=st.integers(1, 6), n_save=st.integers(2, 61))
@settings(max_examples=12, deadline=None)
def test_bloch_march_matches_column_march_property(part, n_paths,
                                                   chunk_size, n_save,
                                                   varcoef, stable2):
    cset, sol = varcoef if part == "I" else stable2
    cfg = _small_config(part=part, n_paths=n_paths, chunk_size=chunk_size,
                        n_save=n_save, n_snapshot_paths=3)
    _assert_march_matches_column_march(cfg, sol, cset)


@pytest.mark.parametrize("part", ["I", "II"])
def test_bloch_march_matches_column_march_on_a_rough_state(part, varcoef,
                                                           stable2):
    # white-noise samples put energy in every Bloch mode, the Nyquist mode
    # over the cells included, so an error in any block of the step shows
    cset, sol = varcoef if part == "I" else stable2
    u0 = np.random.default_rng(5).standard_normal(512)
    _assert_march_matches_column_march(
        _small_config(part=part, u0=u0, n_save=5), sol, cset)


def _pinned_streams(path, step, value):
    """``spde._rng`` whose draw on stream ``path`` is ``value`` at ``step``;
    the other streams come from the ``_rng`` in place, so pins compose."""
    rng = spde._rng

    def pinned(seed, stream):
        gen = rng(seed, stream)
        if stream != path:
            return gen

        class Draws:
            def standard_normal(self, size):
                out = gen.standard_normal(size)
                out[step] = value
                return out

        return Draws()

    return pinned


def _t_message(k, cfg):
    dt_eff = _step_grid(cfg.T_end, cfg.dt, cfg.n_save)[1]
    return re.escape("at t = %.6g" % (k * dt_eff))


def test_energy_cap_aborts_between_recorded_steps(stable2, monkeypatch):
    # a zero-order growth field f + 100 on the heterogeneous side only:
    # its norm grows by about 1.4 per step in ||u||^4, the homogenized one
    # does not; the cap sits between two steps' maxima of the column march
    cset, sol = stable2
    grow = cset.with_fields(f=PeriodicField(cset.grid, cset.f.values + 100.0))
    cfg = _small_config(part="II", n_save=2, n_paths=3)
    n_steps = _step_grid(cfg.T_end, cfg.dt, cfg.n_save)[0]
    _, _, norms = _column_march(cfg, sol, grow, _draw_increments(cfg))
    n4 = {side: norms[side] ** 2 for side in norms}
    k = n_steps // 2
    before, at = n4["het"][:k].max(), n4["het"][k].max()
    assert at > 1.2 * before
    cap = np.sqrt(before * at)
    assert n4["hom"][:k + 1].max() < cap
    norm0_4 = cfg.grid.l2_norm(cfg.initial_state()) ** 4
    monkeypatch.setattr(spde, "ENERGY_CAP_C", cap / (1.0 + norm0_4))
    with pytest.raises(RuntimeError, match="energy cap violated on het path "
                       "%d %s:" % (int(np.argmax(n4["het"][k])),
                                   _t_message(k, cfg))):
        spde.run_ensemble(cfg, sol, grow)


# run_ensemble marches the first ceil(m/2) heterogeneous columns of a chunk
# on the calling thread and the rest on a worker


@pytest.mark.parametrize("n_paths, pins", [
    (3, {2: 1e3}), (4, {3: 1e3}),
    (4, {0: 1e3, 3: 2e3}), (4, {0: 2e3, 3: 1e3}),
], ids=["worker-half-3", "worker-half-4", "worker-worse", "caller-worse"])
def test_energy_cap_aborts_across_the_halves(n_paths, pins, stable2,
                                             monkeypatch):
    # the pinned paths draw a huge increment at the same step, so they (and
    # the homogenized side) cross the cap at once; the cap sits between that
    # step's least pinned ||u||^4 and every earlier one of the column march,
    # and the run must name the het path of largest ||u||^4
    cset, sol = stable2
    cfg = _small_config(part="II", n_save=2, n_paths=n_paths)
    k = _step_grid(cfg.T_end, cfg.dt, cfg.n_save)[0] // 2
    for path, value in pins.items():
        monkeypatch.setattr(spde, "_rng",
                            _pinned_streams(path, k - 1, value))
    _, _, norms = _column_march(cfg, sol, cset, _draw_increments(cfg))
    n4 = {side: norms[side] ** 2 for side in norms}
    before = max(n4["het"][:k].max(), n4["hom"][:k].max())
    crossing = min(n4["het"][k, j] for j in pins)
    assert crossing > 1.2 * before
    worst = int(np.argmax(n4["het"][k]))
    assert worst == max(pins, key=pins.get)
    cap = np.sqrt(before * crossing)
    norm0_4 = cfg.grid.l2_norm(cfg.initial_state()) ** 4
    monkeypatch.setattr(spde, "ENERGY_CAP_C", cap / (1.0 + norm0_4))
    with pytest.raises(RuntimeError, match="energy cap violated on het path "
                       "%d %s:" % (worst, _t_message(k, cfg))):
        spde.run_ensemble(cfg, sol, cset)


# the first two cases poison path 1, on the calling thread; the others put
# the violation in the worker's half, or in both halves, where the last case
# meets a cap violation and a non-finite state at the same step
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("part, n_paths, pins", [
    ("I", 3, [(1, 2, np.nan)]), ("II", 3, [(1, 2, np.nan)]),
    ("I", 3, [(2, 2, np.nan)]), ("II", 4, [(3, 2, np.nan)]),
    ("I", 4, [(0, 3, np.nan), (3, 2, np.nan)]),
    ("II", 4, [(3, 3, np.nan), (0, 2, np.nan)]),
    ("I", 4, [(3, 2, np.nan), (1, 2, np.nan)]),
    ("II", 4, [(0, 2, 1e5), (3, 2, np.nan)]),
], ids=["I", "II", "I-worker-half", "II-worker-half", "I-caller-earlier",
        "II-worker-earlier", "I-same-step", "II-cap-and-non-finite"])
def test_non_finite_state_aborts_between_recorded_steps(part, n_paths, pins,
                                                        varcoef, stable2,
                                                        monkeypatch):
    # each pin (path, d, value) sets that path's draw at step n_steps // d
    cset, sol = varcoef if part == "I" else stable2
    cfg = _small_config(part=part, n_save=2, n_paths=n_paths)
    n_steps = _step_grid(cfg.T_end, cfg.dt, cfg.n_save)[0]
    for path, d, value in pins:
        monkeypatch.setattr(spde, "_rng",
                            _pinned_streams(path, n_steps // d, value))
    _, _, norms = _column_march(cfg, sol, cset, _draw_increments(cfg))
    bad = ~np.isfinite(norms["het"])
    k = int(np.argmax(bad.any(axis=1)))
    assert 0 < k < n_steps
    with pytest.raises(RuntimeError, match="non-finite het state on path "
                       "%d %s$" % (int(np.argmax(bad[k])),
                                   _t_message(k, cfg))):
        spde.run_ensemble(cfg, sol, cset)


def _records(paths):
    return [(p.pairings, p.pairings_d2, p.snapshots, p.max_norm4,
             p.boundary_frac) for p in paths]


def test_run_ensemble_records_do_not_depend_on_thread_timing(varcoef,
                                                             monkeypatch):
    # the worker's half is delayed at every step; chunks of 4 and 1 paths,
    # the second without a worker task
    cset, sol = varcoef
    cfg = _small_config(n_paths=5, chunk_size=4, n_snapshot_paths=5)
    ref = spde.run_ensemble(cfg, sol, cset)
    step = spde.SemiImplicitStepper.bloch_step
    threads = set()

    def slow_off_main(self, u_hat, dw):
        threads.add(threading.current_thread())
        if threading.current_thread() is not threading.main_thread():
            time.sleep(0.002)
        return step(self, u_hat, dw)

    monkeypatch.setattr(spde.SemiImplicitStepper, "bloch_step",
                        slow_off_main)
    got = spde.run_ensemble(cfg, sol, cset)
    assert len(threads) == 2 and threading.main_thread() in threads
    for side_ref, side_got in zip(ref, got):
        for r, g in zip(_records(side_ref), _records(side_got)):
            for a, b in zip(r, g):
                assert np.array_equal(a, b)


def test_run_ensemble_joins_its_worker(varcoef, monkeypatch):
    # after a return, an abort, or an exception raised on the worker
    # thread, no thread outlives the call
    cset, sol = varcoef
    cfg = _small_config(n_paths=4)
    before = threading.active_count()
    spde.run_ensemble(cfg, sol, cset)
    assert threading.active_count() == before
    with monkeypatch.context() as patch:
        patch.setattr(spde, "ENERGY_CAP_C", 1e-6)
        with pytest.raises(RuntimeError, match="energy cap"):
            spde.run_ensemble(cfg, sol, cset)
    assert threading.active_count() == before

    class StepError(Exception):
        pass

    step = spde.SemiImplicitStepper.bloch_step

    def failing_off_main(self, u_hat, dw):
        if threading.current_thread() is not threading.main_thread():
            raise StepError("worker step")
        return step(self, u_hat, dw)

    monkeypatch.setattr(spde.SemiImplicitStepper, "bloch_step",
                        failing_off_main)
    with pytest.raises(StepError, match="worker step"):
        spde.run_ensemble(cfg, sol, cset)
    assert threading.active_count() == before


@pytest.mark.parametrize("xi, xi_d2", [
    (np.zeros((3, 256)), np.zeros((3, 512))),
    (np.zeros((3, 512)), np.zeros((2, 512))),
    (np.zeros((3, 512)), np.zeros((3, 512, 1))),
    (np.full((3, 512), np.nan), np.zeros((3, 512))),
    (np.zeros((3, 512)), np.full((3, 512), np.inf)),
    (np.zeros((0, 512)), np.zeros((0, 512))),
], ids=["short-xi", "two-row-xi_d2", "3d-xi_d2", "nan-xi", "inf-xi_d2",
        "empty"])
def test_run_ensemble_rejects_malformed_battery(xi, xi_d2, varcoef):
    cset, sol = varcoef
    with pytest.raises(ValueError, match="battery"):
        spde.run_ensemble(_small_config(), sol, cset,
                          battery=(["a", "b", "c"], xi, xi_d2))


def test_run_ensemble_records_and_increment_variance(varcoef):
    cset, sol = varcoef
    cfg = _small_config(T_end=2e-3, n_save=5)
    het, hom = spde.run_ensemble(cfg, sol, cset)
    assert len(het) == len(hom) == cfg.n_paths
    p = het[0]
    n_steps = len(p.increments)
    dt_eff = cfg.T_end / n_steps
    assert p.times[0] == 0.0 and p.times[-1] == pytest.approx(cfg.T_end)
    assert p.pairings.shape == (len(p.times), 3)
    assert p.snapshots.shape == (len(p.times), cfg.grid.n)
    assert het[3].snapshots is None  # beyond the snapshot quota
    var = np.var(p.increments, ddof=1)
    assert abs(var / dt_eff - 1.0) <= 6.0 * np.sqrt(2.0 / n_steps)


@pytest.mark.parametrize("store_increments", [True, False])
def test_pooled_increment_variance_check(store_increments, varcoef,
                                         monkeypatch):
    # normals scaled by 1.5 give a pooled variance of about 2.25 dt, far
    # beyond 6 SE at 360 draws; the check runs whether or not the records
    # keep their increments
    cset, sol = varcoef
    cfg = _small_config(store_increments=store_increments)
    het, _ = spde.run_ensemble(cfg, sol, cset)
    assert (het[0].increments is None) is not store_increments
    rng = spde._rng

    class Wide:
        def __init__(self, seed, stream):
            self.gen = rng(seed, stream)

        def standard_normal(self, size):
            return 1.5 * self.gen.standard_normal(size)

    monkeypatch.setattr(spde, "_rng", Wide)
    with pytest.raises(RuntimeError, match="increment variance .* deviates"):
        spde.run_ensemble(cfg, sol, cset)


def test_one_homogenized_flow_per_run(varcoef, monkeypatch):
    # three chunks march the homogenized flow once, and their records equal
    # those of one chunk bitwise
    cset, sol = varcoef
    cfg = _small_config(n_paths=5, chunk_size=2, n_snapshot_paths=5)
    n_steps = _step_grid(cfg.T_end, cfg.dt, cfg.n_save)[0]
    step = spde.SpectralStepper.step
    calls = []

    def counted(self, state, dw):
        calls.append(dw)
        return step(self, state, dw)

    monkeypatch.setattr(spde.SpectralStepper, "step", counted)
    _, hom = spde.run_ensemble(cfg, sol, cset)
    assert len(calls) == n_steps
    _, ref = spde.run_ensemble(dataclasses.replace(cfg, chunk_size=5), sol,
                               cset)
    for p, r in zip(hom, ref):
        for name in ("pairings", "pairings_d2", "snapshots"):
            assert np.array_equal(getattr(p, name), getattr(r, name))
        assert p.max_norm4 == r.max_norm4


def test_run_ensemble_degenerate_const_coefficients_agree():
    cset = fixtures.const_1()
    sol = cell.solve_cell_I(cset)
    grid = LineGrid(2.0, 512)
    dt = spde.heterogeneous_dt_limit(cset, 1.0 / 8.0, grid)
    cfg = spde.SpdeConfig(part="I", eps=1.0 / 8.0, grid=grid, dt=dt,
                          T_end=0.05, n_paths=3, seed=9, n_snapshot_paths=0,
                          store_increments=False)
    het, hom = spde.run_ensemble(cfg, sol, cset)
    for ph, pm in zip(het, hom):
        scale = np.maximum(1.0, np.abs(pm.pairings))
        assert np.max(np.abs(ph.pairings - pm.pairings) / scale) <= 1e-2


def test_run_ensemble_single_deterministic_path(varcoef):
    cset, sol = varcoef
    zero = PeriodicField(cset.grid, np.zeros(cset.grid.n))
    cset0 = cset.with_fields(sigma=zero)
    sol0 = dataclasses.replace(sol, sigma_bar=0.0)
    cfg = _small_config(n_paths=1)
    het, hom = spde.run_ensemble(cfg, sol0, cset0)
    # no noise enters: a rerun with a different seed gives identical fields
    het2, hom2 = spde.run_ensemble(_small_config(n_paths=1, seed=77),
                                   sol0, cset0)
    assert np.array_equal(het[0].pairings, het2[0].pairings)
    assert np.array_equal(hom[0].pairings, hom2[0].pairings)


def test_run_ensemble_energy_monitor_and_abort(varcoef, monkeypatch):
    cset, sol = varcoef
    cfg = _small_config(T_end=2e-3)
    het, hom = spde.run_ensemble(cfg, sol, cset)
    u0 = cfg.initial_state()
    cap = spde.ENERGY_CAP_C * (1.0 + cfg.grid.l2_norm(u0) ** 4)
    assert all(p.max_norm4 <= cap for p in het + hom)
    assert all(p.max_norm4 > 0.0 for p in het + hom)
    monkeypatch.setattr(spde, "ENERGY_CAP_C", 1e-6)
    with pytest.raises(RuntimeError, match="energy cap"):
        spde.run_ensemble(cfg, sol, cset)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_ensemble_nonfinite_abort(stable2):
    cset, sol = stable2
    blow = dataclasses.replace(sol, f_bar=1e6)
    cfg = _small_config(part="II", T_end=0.016, dt=0.004,
                        eps=1.0 / 8.0, n_paths=1)
    with pytest.raises(RuntimeError, match="non-finite"):
        spde.run_ensemble(cfg, blow, cset)


def test_run_ensemble_boundary_mass_small(varcoef):
    cset, sol = varcoef
    cfg = _small_config(T_end=2e-3, n_paths=2)
    het, hom = spde.run_ensemble(cfg, sol, cset)
    assert max(p.boundary_frac for p in het + hom) <= 1e-8


def test_part_II_ensemble_gap_shrinks(stable2):
    cset, sol = stable2
    gaps = []
    for eps, n in ((1.0 / 4.0, 256), (1.0 / 8.0, 512)):
        grid = LineGrid(2.0, n)
        cfg = spde.SpdeConfig(part="II", eps=eps, grid=grid,
                              dt=0.02 * eps ** cset.alpha, T_end=0.25,
                              n_paths=128, seed=21, n_save=3,
                              n_snapshot_paths=0, store_increments=False)
        het, hom = spde.run_ensemble(cfg, sol, cset)
        dj = np.stack([ph.pairings[-1] - pm.pairings[-1]
                       for ph, pm in zip(het, hom)])
        gaps.append(abs(dj[:, 0].mean()))
    assert gaps[1] < gaps[0]
