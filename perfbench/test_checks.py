"""Each correctness check of the benchmark passes the program's output and
rejects a wrong one.

    python3 -m pytest perfbench -q
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from nlhom import cell, fixtures, lineops, spde  # noqa: E402
from nlhom.torus import PeriodicField  # noqa: E402

EPS = 1.0 / 8.0


@pytest.fixture(scope="module")
def varcoef():
    return cell.solve_cell_I(fixtures.varcoef_1(256))


@pytest.fixture(scope="module")
def stable2():
    return cell.solve_cell_II(fixtures.stable_2(256))


# ---------------------------------------------------------------------------
# cell
# ---------------------------------------------------------------------------


def test_cell_I_checks_pass_and_reject_perturbed_Q(varcoef):
    assert checks.cell_I_problems(varcoef) == []
    off = dataclasses.replace(varcoef, Q=varcoef.Q * (1.0 + 1e-6))
    assert checks.cell_I_problems(off)
    off = dataclasses.replace(varcoef, Q1=varcoef.Q1 * (1.0 + 1e-6))
    assert checks.cell_I_problems(off)


def test_cell_I_checks_reject_uncentered_drift(varcoef):
    cset = varcoef.cset
    b = PeriodicField(cset.grid, cset.b.values + 1e-9)
    off = dataclasses.replace(varcoef, cset=cset.with_fields(b=b))
    assert checks.cell_I_problems(off)


def test_const_closed_form():
    sol = cell.solve_cell_I(fixtures.const_1())
    assert checks.const_I_problems(sol) == []
    off = dataclasses.replace(sol, Q_alt=sol.Q_alt + 1e-8)
    assert checks.const_I_problems(off)


def test_cross_resolution():
    assert checks.cross_resolution_problems(0.9, 0.9 + 1e-12) == []
    assert checks.cross_resolution_problems(0.9, 0.9 + 1e-9)


def test_zero_drift_density_rejects_m1_of_another_set(stable2):
    assert checks.zero_drift_II_problems(stable2) == []
    assert checks.cell_II_problems(stable2) == []
    other = cell.solve_cell_II(fixtures.stable_1(256))
    off = dataclasses.replace(stable2, m1=other.m1)
    assert checks.zero_drift_II_problems(off)
    off = dataclasses.replace(stable2,
                              delta_bar_alpha=other.delta_bar_alpha)
    assert checks.zero_drift_II_problems(off)


def test_cell_II_checks_reject_uncentered_drift(stable2):
    cset = stable2.cset
    d = PeriodicField(cset.grid, cset.d.values + 1e-9)
    off = dataclasses.replace(stable2, cset=cset.with_fields(d=d))
    assert checks.cell_II_problems(off)


# ---------------------------------------------------------------------------
# line operators
# ---------------------------------------------------------------------------


def test_own_line_generators_match_the_program(varcoef):
    grid = lineops.LineGrid(2.0, 512)
    T = checks.line_generator_I(varcoef.cset, EPS, grid)
    ref = lineops.assemble_T_eps(varcoef.cset, EPS, grid).matrix
    assert np.max(np.abs(T - ref)) <= 1e-10 * np.max(np.abs(ref))
    s1 = fixtures.stable_1(256)
    V = checks.line_generator_II(s1, EPS, grid)
    ref = lineops.assemble_V_eps(s1, EPS, grid).matrix
    assert np.max(np.abs(V - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_constants_check(varcoef):
    grid = lineops.LineGrid(2.0, 512)
    T = lineops.assemble_T_eps(varcoef.cset, EPS, grid).matrix
    assert checks.constants_problems("T", T) == []
    bad = T.copy()
    bad[3, 3] += 1e-6 * np.max(np.abs(T))
    assert checks.constants_problems("T", bad)
    zero = np.full(grid.n, 0.25)
    assert checks.constants_problems("T + f", T + np.diag(zero), zero) == []
    assert checks.constants_problems("T + f", T + np.diag(zero), zero * 1.01)


def test_sweep_rules():
    assert checks.halving_problems("r", 0.0178, 0.0089) == []
    assert checks.halving_problems("r", 0.0044, 6.45)
    assert checks.halving_problems("r", 0.0178, 0.0178)
    assert checks.decrease_problems("r", 0.00198, 0.00142) == []
    assert checks.decrease_problems("r", 0.00142, 0.00198)
    assert checks.dissipativity_problems("f", -19.2) == []
    assert checks.dissipativity_problems("f", 1e-12)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def _ensemble(part, sol):
    grid = lineops.LineGrid(2.0, 512)
    cset = sol.cset
    dt = spde.heterogeneous_dt_limit(cset, EPS, grid)
    n_steps = 4
    cfg = spde.SpdeConfig(part=part, eps=EPS, grid=grid, dt=dt,
                          T_end=n_steps * dt, n_paths=16, seed=5,
                          n_save=n_steps + 1, n_snapshot_paths=2,
                          chunk_size=16)
    het, hom = spde.run_ensemble(cfg, sol, cset)
    dt = het[0].times[-1] / n_steps
    _, xi, _ = spde.default_test_battery(grid)
    width = grid.half_width / 10.0
    u0 = np.exp(-grid.x ** 2 / (2.0 * width ** 2))
    p = int(round(grid.n * EPS / (2.0 * grid.half_width)))
    sigma_trace = checks.cell_trace(cset.sigma, grid.n, p)
    if part == "I":
        m = sol.m.values
        T = checks.line_generator_I(cset, EPS, grid)
        flows = np.stack([checks.heat_flow_gauss(grid.x, width, sol.Q, t)
                          for t in hom[0].times])
    else:
        m = sol.m1.values
        T = checks.line_generator_II(cset, EPS, grid)
        flows = np.stack([checks.stable_flow(
            u0, grid, cset.alpha, np.mean(cset.delta.values ** cset.alpha * m),
            np.mean(cset.g.values * m), np.mean(cset.f.values * m), t)
            for t in hom[0].times])
    sigma_bar = float(np.mean(cset.sigma.values * m))
    return dict(het=het, hom=hom, dt=dt, xi=xi, u0=u0, flows=flows, T=T,
                sigma_trace=sigma_trace, sigma_bar=sigma_bar, dx=grid.dx,
                seed=cfg.seed)


@pytest.fixture(scope="module", params=["I", "II"])
def ensemble(request, varcoef, stable2):
    return _ensemble(request.param, varcoef if request.param == "I"
                     else stable2)


def _scaled(paths, factor, field="pairings"):
    return [dataclasses.replace(p, **{field: getattr(p, field) * factor})
            for p in paths]


def test_increment_check(ensemble):
    e = ensemble
    assert checks.increment_problems(e["het"], e["hom"], e["seed"],
                                     e["dt"]) == []
    assert checks.increment_problems(e["het"], e["hom"], e["seed"] + 1,
                                     e["dt"])
    shifted = list(e["hom"])
    shifted[0] = dataclasses.replace(
        shifted[0], increments=shifted[0].increments[::-1].copy())
    assert checks.increment_problems(e["het"], shifted, e["seed"], e["dt"])


def test_homogenized_pairing_check_rejects_scaled_pairing(ensemble):
    e = ensemble
    assert checks.homogenized_pairing_problems(
        e["hom"], e["flows"], e["xi"], e["dx"], e["sigma_bar"]) == []
    assert checks.homogenized_pairing_problems(
        _scaled(e["hom"], 1.01), e["flows"], e["xi"], e["dx"],
        e["sigma_bar"])
    assert checks.homogenized_pairing_problems(
        e["hom"], e["flows"], e["xi"], e["dx"], e["sigma_bar"] * 1.01)


def test_heterogeneous_step_check(ensemble):
    e = ensemble
    assert checks.heterogeneous_step_problems(
        e["het"], e["T"], e["dt"], e["sigma_trace"]) == []
    assert checks.heterogeneous_step_problems(
        e["het"], e["T"], e["dt"] * 1.001, e["sigma_trace"])
    snaps = e["het"][0].snapshots.copy()
    snaps[2] *= 1.0 + 1e-6  # one state off the recursion
    bad = [dataclasses.replace(e["het"][0], snapshots=snaps)] + e["het"][1:]
    assert checks.heterogeneous_step_problems(
        bad, e["T"], e["dt"], e["sigma_trace"])


def test_mean_gap_check(ensemble):
    e = ensemble
    lu = checks.resolvent_lu(e["T"], e["dt"])
    assert checks.mean_gap_problems(
        e["het"], e["hom"], lu, e["u0"], e["flows"][-1], e["xi"],
        e["dx"]) == []
    assert checks.mean_gap_problems(
        _scaled(e["het"], 1.01), e["hom"], lu, e["u0"], e["flows"][-1],
        e["xi"], e["dx"])


# ---------------------------------------------------------------------------
# particles
# ---------------------------------------------------------------------------


def test_z_and_characteristic_checks():
    assert checks.z_problems("Q", 0.90, 0.91, 0.01) == []
    assert checks.z_problems("Q", 0.90, 0.95, 0.01)
    x = np.random.default_rng(3).standard_normal(20000)

    def gauss(theta):
        return np.exp(-0.5 * theta ** 2), 0.0

    assert checks.characteristic_problems("g", x, (0.5, 1.0, 2.0), gauss) == []
    assert checks.characteristic_problems("g", x + 0.2, (0.5, 1.0, 2.0), gauss)
    assert checks.characteristic_problems("g", 1.1 * x, (0.5, 1.0, 2.0), gauss)
    assert checks.truncation_problems("s", 3, 100) == []
    assert checks.truncation_problems("s", 101, 100)
