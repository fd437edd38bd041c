"""The four workloads: inputs made from the seed, timed phases, checks.

Each workload has a set-up phase that builds the coefficient sets (drift
centering included) and the cell solutions later phases consume, a Part I
phase on the integrable-jump family and a Part II phase on the alpha-stable
family.  A phase is a sequence of operations; each operation is timed on its
own and checked right after, outside the timed interval, so large outputs
can be freed before the next operation starts.
"""

import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import checks
from nlhom import cell, fixtures, lineops, particles, spde
from nlhom.coefficients import CoefficientSetII
from nlhom.torus import PeriodicField, TorusGrid


def sub_seeds(seed, tag, k):
    """k independent integer seeds derived from the workload seed."""
    state = np.random.SeedSequence([int(seed), tag]).generate_state(k)
    return [int(s) for s in state]


def clear_fixture_caches():
    """Without this a repeated build returns the cached set at no cost."""
    for builder in (fixtures.varcoef_1, fixtures.stable_1, fixtures.const_1):
        builder.cache_clear()


@dataclass
class OpResult:
    name: str
    seconds: float
    problems: List[str]
    summary: object = None


@dataclass
class Phase:
    ops: List[OpResult] = field(default_factory=list)

    @property
    def seconds(self):
        return sum(op.seconds for op in self.ops)

    def run(self, name, fn, inspect: Optional[Callable] = None):
        """Time fn(); then inspect(result) -> (problems, summary), untimed.

        A raised exception fails the operation and is reported; the phase
        goes on with the next operation.
        """
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # one failed operation must not end the run
            seconds = time.perf_counter() - start
            self.ops.append(OpResult(name, seconds, [
                "raised %s" % "".join(traceback.format_exception_only(exc))
                .strip()]))
            return None
        seconds = time.perf_counter() - start
        problems, summary = inspect(result) if inspect else ([], result)
        self.ops.append(OpResult(name, seconds, list(problems), summary))
        return summary

    def summary(self, name):
        for op in self.ops:
            if op.name == name:
                return op.summary
        return None

    def add_problems(self, name, problems):
        for op in self.ops:
            if op.name == name:
                op.problems.extend(problems)


class Workload:
    name = ""
    #: seconds one round took on the reference machine when it was written
    nominal_round_s = 0.0
    #: operations that fail on every run because of a known program fault
    known_faults = frozenset()

    def setup(self):
        raise NotImplementedError

    def part_I(self, inputs):
        raise NotImplementedError

    def part_II(self, inputs):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# cell: torus cell problems
# ---------------------------------------------------------------------------


class CellWorkload(Workload):
    """Part I chains on varcoef-1 (two grids), const-1 and two random sets;
    Part II chains on stable-1, stable-2, stable-filter and a random set."""

    name = "cell"
    nominal_round_s = 9.0

    def __init__(self, seed, small=False):
        self.seeds = sub_seeds(seed, 1, 3)
        self.n_fine = 64 if small else 512
        self.n_coarse = 32 if small else 256

    def setup(self):
        n2, n1 = self.n_fine, self.n_coarse
        sets_I = [fixtures.const_1(), fixtures.varcoef_1(n2),
                  fixtures.varcoef_1(n1)]
        sets_I += [fixtures.random_set_I(s, n1) for s in self.seeds[:2]]
        sets_II = [fixtures.stable_1(n2), fixtures.stable_2(n2),
                   fixtures.stable_filter(n2),
                   fixtures.random_set_II(self.seeds[2], n2)]
        return sets_I, sets_II

    @staticmethod
    def _label(cset):
        return "%s n=%d" % (cset.name, cset.grid.n)

    def part_I(self, inputs):
        phase = Phase()
        for cset in inputs[0]:
            def inspect(sol):
                problems = checks.cell_I_problems(sol)
                if sol.cset.name == "const-1":
                    problems += checks.const_I_problems(sol)
                return problems, sol.Q
            phase.run(self._label(cset), lambda c=cset: cell.solve_cell_I(c),
                      inspect)
        fine = "varcoef-1 n=%d" % self.n_fine
        q_fine = phase.summary(fine)
        q_coarse = phase.summary("varcoef-1 n=%d" % self.n_coarse)
        if q_fine is not None and q_coarse is not None:
            phase.add_problems(fine, checks.cross_resolution_problems(
                q_fine, q_coarse))
        return phase

    def part_II(self, inputs):
        phase = Phase()
        for cset in inputs[1]:
            def inspect(sol):
                problems = checks.cell_II_problems(sol)
                if sol.cset.name == "stable-2":
                    problems += checks.zero_drift_II_problems(sol)
                return problems, None
            phase.run(self._label(cset), lambda c=cset: cell.solve_cell_II(c),
                      inspect)
        return phase


# ---------------------------------------------------------------------------
# ensemble: paired heterogeneous / homogenized SPDE ensembles
# ---------------------------------------------------------------------------


class EnsembleWorkload(Workload):
    """128 paths in one chunk under shared noise, varcoef-1 (Part I) and
    stable-2 (Part II) at eps = 1/8 on LineGrid(2, 2048)."""

    name = "ensemble"
    nominal_round_s = 7.0
    EPS = 1.0 / 8.0

    def __init__(self, seed, small=False):
        self.seeds = sub_seeds(seed, 2, 2)
        self.n_cell = 64 if small else 256
        self.grid = lineops.LineGrid(2.0, 512 if small else 2048)
        self.n_paths = 8 if small else 128
        self.n_steps = 4 if small else 40
        # the check's own operator and its LU depend only on the inputs,
        # which every round rebuilds identically: factor them once
        self._references = {}

    def setup(self):
        v = fixtures.varcoef_1(self.n_cell)
        s2 = fixtures.stable_2(self.n_cell)
        return (v, cell.solve_cell_I(v)), (s2, cell.solve_cell_II(s2))

    def _config(self, part, cset, seed):
        dt = spde.heterogeneous_dt_limit(cset, self.EPS, self.grid)
        return spde.SpdeConfig(
            part=part, eps=self.EPS, grid=self.grid, dt=dt,
            T_end=self.n_steps * dt, n_paths=self.n_paths, seed=seed,
            n_save=self.n_steps + 1, n_snapshot_paths=4,
            chunk_size=self.n_paths)

    def _inspect(self, cfg, cset, sol, part):
        grid = self.grid
        p = int(round(grid.n * self.EPS / (2.0 * grid.half_width)))
        _, xi, _ = spde.default_test_battery(grid)
        width = grid.half_width / 10.0  # the "gauss" initial profile
        u0 = np.exp(-grid.x ** 2 / (2.0 * width ** 2))
        sigma_trace = checks.cell_trace(cset.sigma, grid.n, p)
        if part == "I":
            m = sol.m.values
            sigma_bar = float(np.mean(cset.sigma.values * m))
            build = checks.line_generator_I

            def flow(t):
                return checks.heat_flow_gauss(grid.x, width, sol.Q, t)
        else:
            m1 = sol.m1.values
            sigma_bar = float(np.mean(cset.sigma.values * m1))
            dba = float(np.mean(cset.delta.values ** cset.alpha * m1))
            g_bar = float(np.mean(cset.g.values * m1))
            f_bar = float(np.mean(cset.f.values * m1))
            build = checks.line_generator_II

            def flow(t):
                return checks.stable_flow(u0, grid, cset.alpha, dba, g_bar,
                                          f_bar, t)

        def inspect(result):
            het, hom = result
            dt = het[0].times[-1] / het[0].increments.size
            if part not in self._references:
                T = build(cset, self.EPS, grid)
                self._references[part] = T, checks.resolvent_lu(T, dt)
            T, lu = self._references[part]
            flows = np.stack([flow(t) for t in hom[0].times])
            problems = checks.increment_problems(het, hom, cfg.seed, dt)
            problems += checks.homogenized_pairing_problems(
                hom, flows, xi, grid.dx, sigma_bar)
            problems += checks.heterogeneous_step_problems(
                het, T, dt, sigma_trace)
            problems += checks.mean_gap_problems(
                het, hom, lu, u0, flows[-1], xi, grid.dx)
            return problems, None

        return inspect

    def part_I(self, inputs):
        (v, sol), _ = inputs
        cfg = self._config("I", v, self.seeds[0])
        phase = Phase()
        phase.run("ensemble-I", lambda: spde.run_ensemble(cfg, sol, v),
                  self._inspect(cfg, v, sol, "I"))
        return phase

    def part_II(self, inputs):
        _, (s2, sol) = inputs
        cfg = self._config("II", s2, self.seeds[1])
        phase = Phase()
        phase.run("ensemble-II", lambda: spde.run_ensemble(cfg, sol, s2),
                  self._inspect(cfg, s2, sol, "II"))
        return phase


# ---------------------------------------------------------------------------
# line-diag: two-scale residuals and dissipativity on the largest dense grid
# ---------------------------------------------------------------------------


class LineDiagWorkload(Workload):
    """Residuals and dissipativity forms over eps = 1/8 .. 1/64 on
    LineGrid(2, 4096).  The Part I residual at eps = 1/64 (16 points per
    cell, the least the grid admits) is a known fault: it grows like
    eps^-2 instead of halving."""

    name = "line-diag"
    nominal_round_s = 12.0
    known_faults = frozenset({"residual-I eps=1/64"})

    def __init__(self, seed, small=False):
        self.seeds = sub_seeds(seed, 3, 8)
        self.n_cell = 64 if small else 256
        self.grid = lineops.LineGrid(2.0, 512 if small else 4096)
        self.Ks = (8,) if small else (8, 16, 32, 64)
        self.trials = 2 if small else 8
        self.max_mode = 64

    def setup(self):
        v = fixtures.varcoef_1(self.n_cell)
        s1 = fixtures.stable_1(self.n_cell)
        return (v, cell.solve_cell_I(v)), (s1, cell.solve_cell_II(s1))

    def _test_functions(self):
        xi = lineops.gaussian_bump(self.grid, 0.0, 0.35)
        psi = lineops.gaussian_bump(self.grid, 0.2, 0.4)
        return xi, psi

    def part_I(self, inputs):
        (v, sol), _ = inputs
        grid = self.grid
        xi, _ = self._test_functions()
        phase = Phase()
        for i, K in enumerate(self.Ks):
            eps = 1.0 / K

            def residual(eps=eps):
                T = lineops.assemble_T_eps(v, eps, grid)
                return T, lineops.residual_lemma_2_10(xi, sol, v, eps, grid,
                                                      operator=T)

            def inspect(result, K=K):
                T, r = result
                return checks.constants_problems(
                    "T_eps at eps=1/%d" % K, T.matrix), r

            phase.run("residual-I eps=1/%d" % K, residual, inspect)
            phase.run("dissipativity-I eps=1/%d" % K,
                      lambda eps=eps, s=self.seeds[i]:
                      lineops.dissipativity_check_I(
                          v, sol.m, eps, grid, self.trials, s, self.max_mode),
                      lambda w, K=K: (checks.dissipativity_problems(
                          "T_eps form at eps=1/%d" % K, w), w))
        self._sweep_checks(phase, "residual-I", checks.halving_problems)
        return phase

    def part_II(self, inputs):
        _, (s1, sol) = inputs
        grid = self.grid
        xi, psi = self._test_functions()
        phase = Phase()
        for i, K in enumerate(self.Ks):
            eps = 1.0 / K

            def residual(eps=eps):
                V = lineops.assemble_V_eps(s1, eps, grid)
                return V, lineops.residual_part_II(xi, psi, sol, s1, eps, grid,
                                                   operator=V)

            def inspect(result, K=K, eps=eps):
                V, r = result
                p = int(round(grid.n * eps / (2.0 * grid.half_width)))
                zero = checks.cell_trace(s1.f, grid.n, p) \
                    - checks.cell_trace(s1.e, grid.n, p) / eps ** s1.alpha
                return checks.constants_problems(
                    "V_eps at eps=1/%d" % K, V.matrix, zero), r

            phase.run("residual-II eps=1/%d" % K, residual, inspect)
            phase.run("dissipativity-II eps=1/%d" % K,
                      lambda eps=eps, s=self.seeds[4 + i]:
                      lineops.dissipativity_check_II(
                          s1, sol.m1, eps, grid, self.trials, s, self.max_mode),
                      lambda w, K=K: (checks.dissipativity_problems(
                          "V_eps form at eps=1/%d" % K, w), w))
        self._sweep_checks(phase, "residual-II", checks.decrease_problems)
        return phase

    def _sweep_checks(self, phase, prefix, rule):
        """Compare each residual with its neighbour at twice the eps; the
        comparison is charged to the finer eps, and to eps = 1/8 against
        1/16 since it has no coarser neighbour."""
        names = ["%s eps=1/%d" % (prefix, K) for K in self.Ks]
        values = [phase.summary(nm) for nm in names]
        for i in range(1, len(names)):
            if values[i - 1] is None or values[i] is None:
                continue
            label = "%s 1/%d -> 1/%d" % (prefix, self.Ks[i - 1], self.Ks[i])
            problems = rule(label, values[i - 1], values[i])
            phase.add_problems(names[i], problems)
            if i == 1:
                phase.add_problems(names[0], problems)


# ---------------------------------------------------------------------------
# particles: Monte-Carlo oracles
# ---------------------------------------------------------------------------


class ParticleWorkload(Workload):
    """Jump-diffusion variance oracle for Q (varcoef-1, const-1) and the
    alpha-stable signal (stable-2, constant delta).

    Each signal ensemble of 16384 paths runs as four calls of 4096 paths,
    the package's own chunk size, so the work is that of one call; the
    shorter operations give best-of-k more chances to meet an undisturbed
    interval.  The law checks use the four calls' paths together.
    """

    name = "particles"
    nominal_round_s = 8.0
    EPS_I = 1.0 / 8.0
    EPS_II = 1.0 / 16.0
    T_END = 0.5
    DELTA = 0.8
    ALPHA = 1.5
    THETAS = (0.5, 1.0, 2.0)
    SIGNAL_CALLS = 4

    def __init__(self, seed, small=False):
        self.seeds = sub_seeds(seed, 4, 2 + 2 * self.SIGNAL_CALLS)
        self.n_cell = 64 if small else 512
        self.n_stable = 64 if small else 256
        self.n_q = 64 if small else 2048
        self.n_signal = 64 if small else 4096
        self.t_end = 0.02 if small else self.T_END

    def setup(self):
        v = fixtures.varcoef_1(self.n_cell)
        q_ref = cell.solve_cell_I(v).Q
        c1 = fixtures.const_1()
        s2 = fixtures.stable_2(self.n_stable)
        grid = TorusGrid(64)

        def const(value):
            return PeriodicField(grid, np.full(grid.n, value))

        flat = CoefficientSetII(
            delta=const(self.DELTA), d=const(0.0), g=const(0.0), e=const(0.0),
            f=const(0.0), sigma=const(1.0), alpha=self.ALPHA,
            name="const-delta")
        return v, q_ref, c1, s2, flat

    def part_I(self, inputs):
        v, q_ref, c1, _, _ = inputs
        phase = Phase()
        for cset, ref, seed in ((v, q_ref, self.seeds[0]),
                                (c1, 4.0 / 3.0, self.seeds[1])):
            phase.run(
                "Q-MC %s" % cset.name,
                lambda c=cset, s=seed: particles.estimate_Q_monte_carlo(
                    c, self.EPS_I, self.t_end, self.n_q, s),
                lambda est, c=cset, ref=ref: (checks.z_problems(
                    "Q-MC %s" % c.name, est[0], ref, est[1]), est))
        return phase

    def part_II(self, inputs):
        _, _, _, s2, flat = inputs
        dt = self.EPS_II / 80.0
        scale = self.DELTA ** self.ALPHA * self.t_end

        def symmetric(theta):
            return None, 0.0

        def stable_law(theta):
            return np.exp(-scale * abs(theta) ** self.ALPHA), 0.0

        phase = Phase()
        calls = self.SIGNAL_CALLS
        for j, (cset, law) in enumerate(((s2, symmetric),
                                         (flat, stable_law))):
            names = ["signal %s #%d" % (cset.name, k) for k in range(calls)]
            for name, seed in zip(names, self.seeds[2 + j * calls:]):
                phase.run(
                    name,
                    lambda c=cset, s=seed: particles.simulate_signal_II(
                        c, self.EPS_II, self.t_end, dt, self.n_signal, s,
                        n_save=2),
                    lambda ens, c=cset: (checks.truncation_problems(
                        c.name, ens.truncation_count, ens.n_paths),
                        ens.positions[-1]))
            finals = [phase.summary(name) for name in names]
            if all(x is not None for x in finals):
                phase.add_problems(names[-1], checks.characteristic_problems(
                    cset.name, np.concatenate(finals), self.THETAS, law))
        return phase


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (CellWorkload, EnsembleWorkload, LineDiagWorkload,
                        ParticleWorkload)
}
