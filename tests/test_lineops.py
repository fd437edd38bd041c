"""Line-operator assembly, two-scale residuals, and sign checks."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from field_oracle import evaluate
from nlhom import lineops as lo
from nlhom import spde, torus
from nlhom.cell import (
    assemble_torus_generator_I,
    assemble_torus_generator_II,
    solve_cell_I,
    solve_cell_II,
)
from nlhom.coefficients import CoefficientSetII
from nlhom.fixtures import coefficient_set_by_name, random_set_I, random_set_II
from nlhom.torus import PeriodicField, TorusGrid, field_from_function
from nonlocal_oracle import gamma_pair, nonlocal_divergence_identity_check


# ---------------------------------------------------------------------------
# shared fixtures (cell problems are solved once per module)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid():
    return lo.LineGrid(4.0, 2048)


@pytest.fixture(scope="module")
def big_grid():
    return lo.LineGrid(4.0, 4096)


@pytest.fixture(scope="module")
def varcoef():
    cset = coefficient_set_by_name("varcoef-1", n=256)
    return cset, solve_cell_I(cset)


@pytest.fixture(scope="module")
def const_I():
    cset = coefficient_set_by_name("const-1", n=64)
    return cset, solve_cell_I(cset)


@pytest.fixture(scope="module")
def stable(request):
    cset = coefficient_set_by_name("stable-1", n=256)
    return cset, solve_cell_II(cset)


def _const_set_II(n=64, alpha=1.2, delta=1.0, d=0.0, g=0.3, e=0.0, f=0.2,
                  sigma=1.5):
    tg = TorusGrid(n)

    def const(v):
        return field_from_function(tg, lambda y: v + 0.0 * y)

    return CoefficientSetII(delta=const(delta), d=const(d), g=const(g),
                            e=const(e), f=const(f), sigma=const(sigma),
                            alpha=alpha, name="const-II")


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_grid_construction_guards():
    with pytest.raises(ValueError):
        lo.LineGrid(1.3, 256)  # 2L not an integer
    with pytest.raises(ValueError):
        lo.LineGrid(4.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        lo.LineGrid(4.0, 8)  # too small


@pytest.mark.parametrize("n", [1024.9, 512.0, "512", None, True])
def test_grid_refuses_non_integer_n(n):
    # int(n) turned 1024.9 into a grid of 1024 points and "512" into 512
    with pytest.raises(ValueError, match="n must be an integer"):
        lo.LineGrid(2.0, n)


def test_points_per_cell(grid):
    assert grid.points_per_cell(0.25) == 64
    assert grid.points_per_cell(1.0 / 16) == 16
    with pytest.raises(lo.ResolutionError):
        grid.points_per_cell(1.0 / 32)  # 8 points per cell
    with pytest.raises(lo.ResolutionError):
        lo.LineGrid(4.0, 2048).points_per_cell(1.0 / 3)  # does not tile


def test_grid_spectral_exactness(grid):
    u = np.sin(2.0 * np.pi * 3 * grid.x / 8.0)
    du = grid.apply_derivative(u, 1)
    expected = (2.0 * np.pi * 3 / 8.0) * np.cos(2.0 * np.pi * 3 * grid.x / 8.0)
    assert np.max(np.abs(du - expected)) < 1e-10


# ---------------------------------------------------------------------------
# heterogeneous assembly, part I
# ---------------------------------------------------------------------------


def test_T_eps_annihilates_constants(varcoef, grid):
    cset, _ = varcoef
    op = lo.assemble_T_eps(cset, 1.0 / 8, grid)
    ones = np.ones(grid.n)
    assert np.max(np.abs(op.apply(ones))) < 1e-9


def test_second_order_part_fourier_mode(grid):
    # b = 0 and lam = 1e-12 isolate a(x/e) u''; a constant makes the mode
    # exact
    tg = TorusGrid(64)
    a = field_from_function(tg, lambda y: 0.7 + 0.0 * y)
    zero = field_from_function(tg, lambda y: 0.0 * y)
    lam = field_from_function(tg, lambda y: 1e-12 + 0.0 * y)
    base = coefficient_set_by_name("const-1", n=64)
    cset = base.with_fields(a=a, b=zero, lam=lam, kappa=0.7, alpha1=1e-12,
                            alpha2=1e-12)
    op = lo.assemble_T_eps(cset, 1.0 / 8, grid)
    L = grid.half_width
    u = np.cos(2.0 * np.pi * grid.x / (2.0 * L))
    expected = -0.7 * (np.pi / L) ** 2 * u
    # the spectral-derivative columns carry rounding at the scale of their
    # largest entries, (pi n / 2L)^2 ~ 1e5 here
    assert np.max(np.abs(op.apply(u) - expected)) < 1e-8


def direct_jump_quadrature(cset, eps, grid, u):
    """O(N^2) reference: explicit wrapped displacements, no circulant."""
    lam_e = evaluate(cset.lam, np.mod(grid.x / eps, 1.0))
    two_l = 2.0 * grid.half_width
    out = np.empty(grid.n)
    for i in range(grid.n):
        w = grid.x[i] - grid.x
        w = (w + grid.half_width) % two_l - grid.half_width
        K = cset.kernel.evaluate(w / eps) / eps
        out[i] = lam_e[i] / eps**2 * (np.sum(K * (u - u[i])) * grid.dx)
    return out


def test_jump_part_matches_direct_quadrature(varcoef):
    cset, _ = varcoef
    small = lo.LineGrid(4.0, 1024)
    eps = 1.0 / 8
    # the jump part by linearity: doubling lam adds it once more
    doubled = cset.with_fields(
        lam=PeriodicField(cset.grid, 2.0 * cset.lam.values),
        alpha1=2.0 * cset.alpha1, alpha2=2.0 * cset.alpha2)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(small.n)
    jump = lo.assemble_T_eps(doubled, eps, small).apply(u) \
        - lo.assemble_T_eps(cset, eps, small).apply(u)
    direct = direct_jump_quadrature(cset, eps, small, u)
    assert np.max(np.abs(jump - direct)) < 1e-8


def test_duality_pairing_exact(varcoef, grid):
    cset, _ = varcoef
    op = lo.assemble_T_eps(cset, 1.0 / 8, grid)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.standard_normal(grid.n)
        v = rng.standard_normal(grid.n)
        lhs = grid.inner(op.apply(u), v)
        rhs = grid.inner(u, op.adjoint_apply(v))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_resolution_guards(varcoef):
    cset, _ = varcoef
    with pytest.raises(lo.ResolutionError):
        lo.assemble_T_eps(cset, 1.0 / 32, lo.LineGrid(4.0, 2048))
    # scaled jump support (eps R = 0.94 for the gaussian kernel, R = 1.87)
    # must fit inside the half window L = 0.5
    with pytest.raises(lo.ResolutionError):
        lo.assemble_T_eps(cset, 1.0 / 2, lo.LineGrid(0.5, 1024))


# ---------------------------------------------------------------------------
# homogenized operators
# ---------------------------------------------------------------------------


def test_T0_eigenfunction_and_multiplier(grid):
    op = lo.assemble_T0(4.0 / 3.0, grid)
    L = grid.half_width
    u = np.sin(2.0 * np.pi * grid.x / (2.0 * L))
    expected = -(4.0 / 3.0) * (np.pi / L) ** 2 * u
    assert np.max(np.abs(op.apply(u) - expected)) < 1e-9
    with pytest.raises(ValueError):
        lo.assemble_T0(0.0, grid)


@pytest.mark.parametrize("Q", [np.nan, np.inf, 0.0, -1.0])
def test_T0_refuses_a_nonpositive_or_nonfinite_Q(grid, Q):
    # a NaN or infinite Q used to pass the Q <= 0 guard and build a
    # non-finite operator
    with pytest.raises(ValueError, match="Q must be finite and positive, got "
                       + re.escape(repr(Q))):
        lo.assemble_T0(Q, grid)


@pytest.mark.parametrize("center", [np.nan, np.inf, -np.inf])
def test_gaussian_bump_refuses_a_nonfinite_center(grid, center):
    with pytest.raises(ValueError, match="center must be a finite real, got "
                       + re.escape(repr(center))):
        lo.gaussian_bump(grid, center)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1.0])
def test_resolvent_refuses_a_nonpositive_or_nonfinite_dt(varcoef, dt):
    # resolvent(nan) used to return non-finite inverse blocks; a directly
    # built stepper reaches the same check
    cset, _ = varcoef
    grid, eps = lo.LineGrid(2.0, 512), 1.0 / 8.0
    op = lo.assemble_T_eps(cset, eps, grid)
    message = "dt must be finite and positive, got " + re.escape(repr(dt))
    with pytest.raises(ValueError, match=message):
        op.resolvent(dt)
    with pytest.raises(ValueError, match=message):
        spde.SemiImplicitStepper(op, lo._cell_trace(cset.sigma, grid, eps), dt)


def test_T0_self_adjoint(grid):
    op = lo.assemble_T0(4.0 / 3.0, grid)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid.n)
    v = rng.standard_normal(grid.n)
    assert abs(grid.inner(op.apply(u), v)
               - grid.inner(u, op.apply(v))) < 1e-12 * grid.n


# ---------------------------------------------------------------------------
# heterogeneous assembly, part II
# ---------------------------------------------------------------------------


def test_V_eps_pure_fractional_eigenfunction(grid):
    cset = _const_set_II(delta=1.0, g=0.0, e=0.0, f=0.0, alpha=1.5)
    op = lo.assemble_V_eps(cset, 1.0 / 8, grid)
    k = 3
    L = grid.half_width
    u = np.cos(2.0 * np.pi * k * grid.x / (2.0 * L))
    expected = -abs(2.0 * np.pi * k / (2.0 * L)) ** 1.5 * u
    assert np.max(np.abs(op.apply(u) - expected)) < 1e-9


def test_V_eps_annihilates_constants_without_zero_order(stable, grid):
    cset, _ = stable
    tg = cset.grid
    zero = field_from_function(tg, lambda y: 0.0 * y)
    gen_only = cset.with_fields(e=zero, f=zero)
    op = lo.assemble_V_eps(gen_only, 1.0 / 8, grid)
    assert np.max(np.abs(op.apply(np.ones(grid.n)))) < 1e-9


def test_duality_at_n_8192(varcoef, stable):
    # a window above 4096 points: both families assemble, apply and stay
    # dual
    huge = lo.LineGrid(4.0, 8192)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(huge.n)
    v = rng.standard_normal(huge.n)
    for op in (lo.assemble_T_eps(varcoef[0], 1.0 / 8, huge),
               lo.assemble_V_eps(stable[0], 1.0 / 8, huge)):
        lhs = huge.inner(op.apply(u), v)
        rhs = huge.inner(u, op.adjoint_apply(v))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_V0_matches_averages(stable, grid):
    cset, cell = stable
    op = lo.assemble_V0(cell, grid)
    k = 2
    L = grid.half_width
    u = np.cos(2.0 * np.pi * k * grid.x / (2.0 * L))
    frac = -cell.delta_bar_alpha * abs(2.0 * np.pi * k / (2.0 * L)) ** cset.alpha * u
    drift = -cell.g_bar * (2.0 * np.pi * k / (2.0 * L)) * np.sin(
        2.0 * np.pi * k * grid.x / (2.0 * L))
    expected = frac + drift + cell.f_bar * u
    assert np.max(np.abs(op.apply(u) - expected)) < 1e-10


# ---------------------------------------------------------------------------
# Bloch blocks against a dense reference over random admissible sets
# ---------------------------------------------------------------------------


def _dense_multiplier(grid, symbol):
    """Dense matrix of a Fourier multiplier, built column by column."""
    unit = np.fft.fft(np.eye(grid.n), axis=0)
    return np.fft.ifft(symbol[:, None] * unit, axis=0).real


def _dense_T_eps(cset, eps, grid):
    omega = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    d1 = 1j * omega
    d1[grid.n // 2] = 0.0
    y = np.mod(grid.x / eps, 1.0)
    lag = grid.dx * ((np.arange(grid.n) + grid.n // 2) % grid.n - grid.n // 2)
    K = np.where(np.abs(lag / eps) <= cset.kernel.truncation_radius,
                 cset.kernel.evaluate(lag / eps) / eps, 0.0)
    conv = _dense_multiplier(grid, np.fft.fft(K)) * grid.dx
    jump = conv - np.sum(K) * grid.dx * np.eye(grid.n)
    return (evaluate(cset.a, y)[:, None] * _dense_multiplier(grid, -omega**2)
            + (evaluate(cset.b, y) / eps)[:, None] * _dense_multiplier(grid, d1)
            + (evaluate(cset.lam, y) / eps**2)[:, None] * jump)


def _dense_V_eps(cset, eps, grid):
    omega = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    d1 = 1j * omega
    d1[grid.n // 2] = 0.0
    y = np.mod(grid.x / eps, 1.0)
    alpha = cset.alpha
    drift = eps ** (1.0 - alpha) * evaluate(cset.d, y) + evaluate(cset.g, y)
    zero = evaluate(cset.f, y) - evaluate(cset.e, y) / eps**alpha
    gen = (-evaluate(cset.delta_alpha, y)[:, None]
           * _dense_multiplier(grid, np.abs(omega) ** alpha)
           + drift[:, None] * _dense_multiplier(grid, d1))
    return gen, zero


@given(seed=st.integers(0, 10_000), K=st.sampled_from([4, 8]))
@settings(max_examples=8, deadline=None)
def test_bloch_blocks_match_dense_reference(seed, K):
    grid = lo.LineGrid(1.0, 512)
    eps = 1.0 / K
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((grid.n, 3))
    dw = 0.1 * rng.standard_normal(3)
    tol = grid.n * np.finfo(float).eps
    for part, cset in (("I", random_set_I(seed, 64)),
                       ("II", random_set_II(seed, 64))):
        if part == "I":
            op = lo.assemble_T_eps(cset, eps, grid)
            ref, zero = _dense_T_eps(cset, eps, grid), np.zeros(grid.n)
            stepper = spde.prepare_heterogeneous_I(
                cset, eps, grid, spde.heterogeneous_dt_limit(cset, eps, grid))
        else:
            op = lo.assemble_V_eps(cset, eps, grid)
            gen, zero = _dense_V_eps(cset, eps, grid)
            ref = gen + np.diag(zero)
            stepper = spde.prepare_heterogeneous_II(
                cset, eps, grid, spde.heterogeneous_dt_limit(cset, eps, grid))
        for got, want in ((op.apply(U), ref @ U),
                          (op.adjoint_apply(U), ref.T @ U),
                          (op.apply(U[:, 0]), ref @ U[:, 0])):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the materialized matrix annihilates constants up to the rounding
        # of a row sum, and otherwise is the reference
        A = op.matrix
        scale = np.max(np.abs(A))
        assert np.max(np.abs(A @ np.ones(grid.n) - zero)) <= tol * scale
        assert np.max(np.abs(A - ref)) <= 1e-12 * scale
        # one semi-implicit step is a solve with the dense resolvent
        rhs = U * (1.0 + stepper.sigma_trace[:, None] * dw[None, :])
        want = np.linalg.solve(np.eye(grid.n) - stepper.dt * ref, rhs)
        got = stepper.step(U, dw)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _term_scale(op):
    """sum_k max|f_k| max|s_k| + max|d|: the size of one entry of the
    operator's image of a unit vector, before cancellation."""
    return sum(np.max(np.abs(f)) * np.max(np.abs(s)) for f, s in op.terms) \
        + np.max(np.abs(op.diagonal))


@given(seed=st.integers(0, 10_000), K=st.sampled_from([4, 8]),
       m=st.sampled_from([None, 3]))
@settings(max_examples=10, deadline=None)
def test_bloch_transforms_round_trip_and_define_apply(seed, K, m):
    # apply works from the (field, symbol) terms and the blocks are built
    # from the same terms, so the two paths differ only by rounding: within
    # n u (sum_k max|f_k| max|s_k| + max|d|) max|u| (measured: at most 0.4%
    # of it over 60 draws).  The terms also give the exact adjoint and map
    # the constant one to the zero-order field exactly
    grid, eps = lo.LineGrid(1.0, 512), 1.0 / K
    u_mach = np.finfo(float).eps
    rng = np.random.default_rng(seed)
    shape = grid.n if m is None else (grid.n, m)
    u, v = rng.standard_normal(shape), rng.standard_normal(shape)
    for part in ("I", "II"):
        if part == "I":
            cset = random_set_I(seed, 64)
            op = lo.assemble_T_eps(cset, eps, grid)
            zero = np.zeros(grid.n)
        else:
            cset = random_set_II(seed, 64)
            op = lo.assemble_V_eps(cset, eps, grid)
            zero = -lo._cell_trace(cset.e, grid, eps) / eps**cset.alpha \
                + lo._cell_trace(cset.f, grid, eps)
        p = op.p
        u_hat = op.to_bloch(u)
        assert u_hat.shape == (grid.n // p // 2 + 1, p, 1 if m is None else m)
        assert np.max(np.abs(op.from_bloch(u_hat).reshape(u.shape) - u)) \
            <= 1e-14 * np.max(np.abs(u))
        bound = grid.n * u_mach * _term_scale(op)
        blocks_h = op.blocks.conj().swapaxes(1, 2)
        for got, blocks in ((op.apply(u), op.blocks),
                            (op.adjoint_apply(u), blocks_h)):
            want = op.from_bloch(blocks @ op.to_bloch(u)).reshape(u.shape)
            assert got.shape == u.shape
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(u))
        pair = np.sum(v * op.apply(u)) - np.sum(op.adjoint_apply(v) * u)
        assert abs(pair) * grid.dx <= bound * grid.dx * np.sqrt(
            np.sum(u * u) * np.sum(v * v))
        assert np.array_equal(op.apply(np.ones(grid.n)), zero)


def _matrix_by_cells(op):
    """The dense matrix of ``op``, one row cell at a time: row cell a holds
    the cell-offset block C_{a-b} in column cell b."""
    p = op.p
    cells = op.grid.n // p
    offsets = np.fft.irfft(op.blocks, n=cells, axis=0)
    out = np.empty((cells, p, cells, p))
    lag = np.arange(cells)
    for a in range(cells):
        out[a] = offsets[(a - lag) % cells].swapaxes(0, 1)
    return out.reshape(op.grid.n, op.grid.n)


@pytest.mark.parametrize("p", [1, 16, 64, 512])
def test_matrix_matches_the_per_cell_loop(p):
    # a circulant (p = 1), a multi-cell operator and one cell (p = n):
    # the block-row doubling places every block where the per-cell loop does
    grid = lo.LineGrid(1.0, 512)
    rng = np.random.default_rng(p)
    cell_field = lambda: np.tile(rng.uniform(0.5, 1.5, p), grid.n // p)
    op = torus.LineOperator(
        grid, "test", p,
        [(cell_field(), torus.derivative_symbol(grid.freqs, 2)),
         (cell_field(), torus.derivative_symbol(grid.freqs, 1))],
        cell_field())
    A = op.matrix
    assert A.flags.c_contiguous and A.flags.writeable
    assert np.array_equal(A, _matrix_by_cells(op))


# ---------------------------------------------------------------------------
# torus cells and line operators: one Bloch-block structure
# ---------------------------------------------------------------------------


def _rel_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_line_block_zero_is_the_torus_generator(seed):
    # 16 cells of p = 64 points: block t = 0 of eps^2 T_eps (eps^alpha V_eps
    # without g, e, f) is the cell generator at n = 64; measured gaps 5e-16
    # to 2.2e-15
    eps = 1.0 / 8
    grid = lo.LineGrid(1.0, 16 * 64)
    cset = random_set_I(seed, 64)
    T = assemble_torus_generator_I(cset).matrix
    blocks = lo.assemble_T_eps(cset, eps, grid).blocks
    assert _rel_gap(eps**2 * blocks[0], T) <= 1e-13
    cset = random_set_II(seed, 64)
    zero = PeriodicField(cset.grid, np.zeros(64))
    cset = cset.with_fields(g=zero, e=zero, f=zero)
    L = assemble_torus_generator_II(cset).matrix
    blocks = lo.assemble_V_eps(cset, eps, grid).blocks
    assert _rel_gap(eps**cset.alpha * blocks[0], L) <= 1e-13


def test_bloch_eigenvalue_reproduces_Q(varcoef):
    # block t = 1 of eps^2 T_eps over 1/eps cells is the cell generator
    # twisted by theta = 2 pi eps; its principal eigenvalue is
    # -Q theta^2 + O(theta^4), so Q_B = -Re(lambda) / theta^2 has an
    # O(theta^2) error that one Richardson step removes.  Measured: Q_B =
    # 0.9039000811 and 0.9039043876, extrapolated 0.9039058230 against
    # Q = 0.9039058145 (9.5e-9 relative); |Im lambda| 2.0e-8 and 2.5e-9.
    cset, sol = varcoef
    q_b = []
    for eps in (1.0 / 128, 1.0 / 256):
        grid = lo.LineGrid(0.5, int(64 / eps))
        block = eps**2 * lo.assemble_T_eps(cset, eps, grid).blocks[1]
        lam = max(np.linalg.eigvals(block), key=lambda z: z.real)
        assert abs(lam.imag) <= 1e-7
        q_b.append(-lam.real / (2.0 * np.pi * eps) ** 2)
    extrapolated = (4.0 * q_b[1] - q_b[0]) / 3.0
    assert abs(extrapolated - sol.Q) <= 1e-7 * sol.Q


# ---------------------------------------------------------------------------
# corrected test functions
# ---------------------------------------------------------------------------


def test_corrector_test_function_trivial(const_I, grid):
    _, cell = const_I
    xi = lo.gaussian_bump(grid, width=0.5)
    out = lo.corrector_test_function_I(xi, cell, 1.0 / 8, grid)
    assert np.max(np.abs(out - xi)) < 1e-12
    zero = lo.corrector_test_function_I(np.zeros(grid.n), cell, 1.0 / 8, grid)
    assert np.max(np.abs(zero)) == 0.0


def test_corrector_first_order_deviation(varcoef, big_grid):
    cset, cell = varcoef
    xi = lo.gaussian_bump(big_grid, width=0.5)
    ratios = []
    for K in (8, 16, 32):
        eps = 1.0 / K
        out = lo.corrector_test_function_I(xi, cell, eps, big_grid)
        m_e = evaluate(cell.m, np.mod(big_grid.x / eps, 1.0))
        dev = np.max(np.abs(out - m_e * xi))
        ratios.append(dev / eps)
    # deviation scales linearly in eps: the normalized ratios stay flat
    assert max(ratios) / min(ratios) < 1.5


# ---------------------------------------------------------------------------
# two-scale residuals
# ---------------------------------------------------------------------------


def test_residual_monotone_heterogeneous(varcoef, big_grid):
    cset, cell = varcoef
    xi = lo.gaussian_bump(big_grid, width=0.5)
    r = [lo.residual_lemma_2_10(xi, cell, cset, 1.0 / K, big_grid)
         for K in (4, 8, 16)]
    assert r[0] > r[1] > r[2] > 0.0
    assert r[2] < 0.5 * r[0]


def test_residual_const_coefficients_tracks_dispersion(const_I, grid):
    # with constant coefficients the corrected test function is xi itself
    # and the only residual is the jump operator's dispersion error
    # (c-hat(eps f) - a1)/eps^2 + s2/2 (2 pi f)^2 ~ lam s4 eps^2 (2 pi f)^4/24;
    # the measured norm must track that quartic prediction and fall as eps^2
    cset, cell = const_I
    xi = lo.gaussian_bump(grid, width=0.5)
    xi4 = grid.apply_derivative(xi, 4)
    lam = float(cset.lam.values[0])
    R = cset.kernel.truncation_radius
    s4, _ = quad(lambda z: z**4 * cset.kernel.evaluate(np.array([z]))[0],
                 -R, R, points=list(cset.kernel.breakpoints) or None)
    r_prev = np.inf
    for K in (4, 8, 16):
        eps = 1.0 / K
        r = lo.residual_lemma_2_10(xi, cell, cset, eps, grid)
        bound = lam * s4 / 24.0 * eps**2 * grid.l2_norm(xi4)
        assert r < r_prev
        assert r <= 1.2 * bound
        if K <= 8:
            assert r >= 0.4 * bound
        r_prev = r


def test_residual_translation_invariance(varcoef, grid):
    cset, cell = varcoef
    eps = 1.0 / 8
    op = lo.assemble_T_eps(cset, eps, grid)
    base = lo.residual_lemma_2_10(lo.gaussian_bump(grid, 0.0, 0.35), cell,
                                  cset, eps, grid, operator=op)
    for k in (1, 3, 8):
        shifted = lo.residual_lemma_2_10(
            lo.gaussian_bump(grid, k * eps, 0.35), cell, cset, eps, grid,
            operator=op)
        assert abs(shifted - base) < 1e-8


def _long_double_adjoint(op, values):
    """op.adjoint_apply(values) with every sum and FFT in long double: the
    same float64 terms and diagonal, promoted."""
    u = np.asarray(values, np.longdouble)
    spec = sum(np.asarray(np.conj(s), np.clongdouble)
               * np.fft.rfft(np.asarray(f, np.longdouble) * u)
               for f, s in op.terms)
    return np.fft.irfft(spec, op.grid.n) + np.asarray(op.diagonal,
                                                      np.longdouble) * u


def test_residuals_match_a_long_double_oracle(varcoef, stable):
    # each residual cancels terms of size eps^-2 down to O(eps); a path's
    # rounding is bounded by one unit roundoff u of the largest term,
    # u (sum_k max|f_k| max|s_k| + max|d|) times the norm it acts on.
    # Measured on this grid: 1.1e-14 and 3.3e-17 absolute (6e-13 and
    # 1.7e-14 relative), 4e-5 and 4e-6 of the bound
    grid, eps = lo.LineGrid(2.0, 1024), 1.0 / 8
    u_mach, dx = np.finfo(float).eps, np.longdouble(grid.dx)
    xi = lo.gaussian_bump(grid, 0.0, 0.35)
    psi = lo.gaussian_bump(grid, 0.2, 0.4)
    d2 = np.asarray(torus.derivative_symbol(grid.freqs, 2), np.clongdouble)
    cset, cell = varcoef
    T = lo.assemble_T_eps(cset, eps, grid)
    xi_eps = lo.corrector_test_function_I(xi, cell, eps, grid)
    target = np.longdouble(cell.Q) * np.fft.irfft(
        d2 * np.fft.rfft(np.asarray(xi, np.longdouble)), grid.n)
    want = np.sqrt(np.sum((_long_double_adjoint(T, xi_eps) - target) ** 2)
                   * dx)
    got = lo.residual_lemma_2_10(xi, cell, cset, eps, grid, operator=T)
    bound = u_mach * (_term_scale(T) * grid.l2_norm(xi_eps) + cell.Q
                      * np.max(np.abs(d2)) * grid.l2_norm(xi))
    assert abs(got - want) <= bound
    cset, cell = stable
    V, V0 = lo.assemble_V_eps(cset, eps, grid), lo.assemble_V0(cell, grid)
    xi_eps = lo.corrector_test_function_II(xi, cell, eps, grid)
    psi_ld = np.asarray(psi, np.longdouble)
    want = abs(np.sum(_long_double_adjoint(V, xi_eps) * psi_ld) * dx
               - np.sum(_long_double_adjoint(V0, xi) * psi_ld) * dx)
    got = lo.residual_part_II(xi, psi, cell, cset, eps, grid, operator=V)
    bound = u_mach * (_term_scale(V) * grid.l2_norm(xi_eps)
                      + _term_scale(V0) * grid.l2_norm(xi)) \
        * grid.l2_norm(psi)
    assert abs(got - want) <= bound


def test_sweeps_build_no_blocks_and_prepare_builds_them_once(
        varcoef, stable, monkeypatch):
    # the residuals and forms apply their terms by FFT; only a resolvent
    # builds Bloch blocks, one _multiplier_matrix per term
    grid, eps = lo.LineGrid(2.0, 512), 1.0 / 8
    (v, sol_v), (s1, sol_s) = varcoef, stable
    xi = lo.gaussian_bump(grid, 0.0, 0.35)
    psi = lo.gaussian_bump(grid, 0.2, 0.4)
    build = torus._multiplier_matrix
    calls = []

    def refuse(*args):
        raise AssertionError("Bloch blocks built on a sweep")

    monkeypatch.setattr(torus, "_multiplier_matrix", refuse)
    lo.residual_lemma_2_10(xi, sol_v, v, eps, grid)
    lo.residual_part_II(xi, psi, sol_s, s1, eps, grid)
    lo.dissipativity_check_I(v, sol_v.m, eps, grid, 4, 1, 16)
    lo.dissipativity_check_II(s1, sol_s.m1, eps, grid, 4, 2, 16)

    def count(*args):
        calls.append(args[1])
        return build(*args)

    monkeypatch.setattr(torus, "_multiplier_matrix", count)
    p = grid.points_per_cell(eps)
    for prepare, cset, terms in ((spde.prepare_heterogeneous_I, v, 3),
                                 (spde.prepare_heterogeneous_II, s1, 2)):
        calls.clear()
        prepare(cset, eps, grid, spde.heterogeneous_dt_limit(cset, eps, grid))
        assert calls == [p] * terms
    calls.clear()
    spde.prepare_homogenized_I(sol_v.Q, 1.0, grid, 1e-3)
    spde.prepare_homogenized_II(sol_s, grid, 1e-3)
    assert calls == []


@pytest.mark.parametrize("m", [None, 3])
def test_adjoint_takes_one_rfft(monkeypatch, m):
    # the adjoint transforms the K stacked products f_k u at once: one rfft
    # for a 3-term operator, where one transform per term took 3, with the
    # same bits as the per-term sum
    grid = lo.LineGrid(2.0, 512)
    op = lo.assemble_T_eps(random_set_I(0, 64), 1.0 / 8, grid)
    u = np.random.default_rng(0).normal(
        size=grid.n if m is None else (grid.n, m))
    want = 0.0
    for field, symbol in op.terms:
        want = want + np.conj(symbol) * np.fft.rfft(field * u.T)
    want = (np.fft.irfft(want, grid.n) + op.diagonal * u.T).T
    rfft = np.fft.rfft
    calls = []
    monkeypatch.setattr(np.fft, "rfft", lambda *args, **kw: (
        calls.append(1), rfft(*args, **kw))[1])
    got = op.adjoint_apply(u)
    assert len(op.terms) == 3 and len(calls) == 1
    assert np.array_equal(got, want)


def test_residual_part_II_monotone(stable, big_grid):
    cset, cell = stable
    xi = lo.gaussian_bump(big_grid, width=0.5)
    psi = lo.gaussian_bump(big_grid, center=0.3, width=0.7)
    r = [lo.residual_part_II(xi, psi, cell, cset, 1.0 / K, big_grid)
         for K in (4, 8, 16)]
    assert r[0] > r[1] > r[2] > 0.0


def test_residual_part_II_const_trivial(grid):
    cset = _const_set_II(d=0.0)
    cell = solve_cell_II(cset)
    xi = lo.gaussian_bump(grid, width=0.5)
    psi = lo.gaussian_bump(grid, center=0.3, width=0.7)
    for K in (4, 8, 16):
        assert lo.residual_part_II(xi, psi, cell, cset, 1.0 / K, grid) < 1e-6
    assert lo.residual_part_II(xi, np.zeros(grid.n), cell, cset, 0.25, grid) == 0.0


@pytest.mark.parametrize("family", ["I", "II"])
def test_residual_refuses_operator_of_another_grid_or_eps(varcoef, stable,
                                                         family):
    # T_eps assembled at eps = 1/8 and passed at eps = 1/16 read 5106.1
    # instead of 0.40 (Part II: 9.57 instead of 0.0014); one assembled on
    # LineGrid(2, 2048) failed in a reshape
    grid = lo.LineGrid(2.0, 1024)
    xi = lo.gaussian_bump(grid, 0.0, 0.35)
    if family == "I":
        cset, cell = varcoef
        assemble = lo.assemble_T_eps

        def residual(eps, operator):
            return lo.residual_lemma_2_10(xi, cell, cset, eps, grid,
                                          operator=operator)
    else:
        cset, cell = stable
        assemble = lo.assemble_V_eps
        psi = lo.gaussian_bump(grid, 0.2, 0.4)

        def residual(eps, operator):
            return lo.residual_part_II(xi, psi, cell, cset, eps, grid,
                                       operator=operator)
    eps = 1.0 / 16.0
    assert residual(eps, assemble(cset, eps, grid)) == residual(eps, None)
    for operator in (assemble(cset, 1.0 / 8.0, grid),
                     assemble(cset, eps, lo.LineGrid(2.0, 2048)),
                     assemble(cset, eps, lo.LineGrid(4.0, 2048))):
        with pytest.raises(ValueError, match=r"has \(n, L, p\)"):
            residual(eps, operator)


def test_residual_part_II_forward_target_offset(grid):
    # the forward pairing (V0 xi, psi) differs from the converging adjoint
    # one by the 2 g_bar (xi', psi) drift-orientation term; with constants
    # the adjoint residual vanishes and the offset is exact
    cset = _const_set_II(d=0.0, g=0.3)
    cell = solve_cell_II(cset)
    xi = lo.gaussian_bump(grid, width=0.5)
    psi = lo.gaussian_bump(grid, center=0.3, width=0.7)
    V0 = lo.assemble_V0(cell, grid)
    gap = grid.inner(V0.apply(xi) - V0.adjoint_apply(xi), psi)
    offset = 2.0 * 0.3 * grid.inner(grid.apply_derivative(xi, 1), psi)
    assert abs(gap - offset) < 1e-10
    assert lo.residual_part_II(xi, psi, cell, cset, 0.25, grid) < 1e-10


# ---------------------------------------------------------------------------
# paired nonlocal divergence identity
# ---------------------------------------------------------------------------


def test_nonlocal_divergence_trivial_fields():
    zero = lambda x: 0.0 * np.asarray(x)
    flat = lambda x: 0.7 + 0.0 * np.asarray(x)
    no_d = dict(d2=lambda x: 0.0, d4=lambda x: 0.0)
    assert nonlocal_divergence_identity_check(zero, 1.0, **no_d) < 1e-12
    assert nonlocal_divergence_identity_check(flat, 1.0, **no_d) < 1e-9


def test_nonlocal_divergence_identity_gaussian():
    # refinement level: quad_tol 1e-9, near-field switch 1e-4, cutoff 40
    f = lambda x: np.exp(-np.asarray(x) ** 2)
    d2 = lambda x: (4.0 * x * x - 2.0) * np.exp(-x * x)
    d4 = lambda x: (16.0 * x**4 - 48.0 * x * x + 12.0) * np.exp(-x * x)
    res = nonlocal_divergence_identity_check(f, 1.0, quad_tol=1e-9,
                                             d2=d2, d4=d4)
    assert res < 1e-4
    # the identity is not special to alpha = 1
    assert nonlocal_divergence_identity_check(f, 1.5, d2=d2, d4=d4) < 1e-4


def test_gamma_pair_antisymmetric():
    y = np.array([0.3, 1.7, -2.2])
    g1 = gamma_pair(0.1, y, 1.2)
    g2 = gamma_pair(y, 0.1, 1.2)
    assert np.max(np.abs(g1 + g2)) < 1e-14


# ---------------------------------------------------------------------------
# dissipativity of the jump parts
# ---------------------------------------------------------------------------


def test_dissipativity_part_I(varcoef, grid):
    cset, cell = varcoef
    worst = lo.dissipativity_check_I(cset, cell.m, 1.0 / 8, grid, trials=100)
    assert worst <= 1e-9


def test_dissipativity_part_II(stable, grid):
    cset, cell = stable
    worst = lo.dissipativity_check_II(cset, cell.m1, 1.0 / 8, grid, trials=100)
    assert worst <= 1e-9


def test_dissipativity_constant_field_is_zero(varcoef, stable, grid):
    cset, cell = varcoef
    ones = [np.ones(grid.n) / grid.l2_norm(np.ones(grid.n))]
    formed = lo.dissipativity_check_I(cset, cell.m, 1.0 / 8, grid, fields=ones)
    assert abs(formed) < 1e-9
    cset2, cell2 = stable
    formed2 = lo.dissipativity_check_II(cset2, cell2.m1, 1.0 / 8, grid,
                                        fields=ones)
    assert abs(formed2) < 1e-9


@pytest.mark.parametrize("trials", [0, -3, 2.5, True, None])
def test_dissipativity_rejects_bad_trials(varcoef, stable, trials):
    grid = lo.LineGrid(2.0, 512)
    (cset, cell), (cset2, cell2) = varcoef, stable
    with pytest.raises(ValueError, match="trials"):
        lo.dissipativity_check_I(cset, cell.m, 1.0 / 8, grid, trials=trials)
    with pytest.raises(ValueError, match="trials"):
        lo.dissipativity_check_II(cset2, cell2.m1, 1.0 / 8, grid,
                                  trials=trials)


@pytest.mark.parametrize("max_mode", [0, -1, 256, 300, 2000, 64.0])
def test_dissipativity_rejects_bad_max_mode(varcoef, stable, max_mode):
    # max_mode=0 would certify constant fields, and modes at or above n/2
    # alias onto lower modes of the 512-point grid
    grid = lo.LineGrid(2.0, 512)
    (cset, cell), (cset2, cell2) = varcoef, stable
    with pytest.raises(ValueError, match="max_mode"):
        lo.dissipativity_check_I(cset, cell.m, 1.0 / 8, grid, trials=2,
                                 max_mode=max_mode)
    with pytest.raises(ValueError, match="max_mode"):
        lo.dissipativity_check_II(cset2, cell2.m1, 1.0 / 8, grid, trials=2,
                                  max_mode=max_mode)


def _cosine_fields(grid, trials, seed, max_mode):
    """The band-limited fields as a sum of cosines, one mode at a time."""
    max_mode = grid.n // 8 if max_mode is None else max_mode
    rng = np.random.default_rng(seed)
    ks = np.arange(1, max_mode + 1)
    for _ in range(trials):
        coeff = rng.standard_normal(max_mode) / np.sqrt(ks)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=max_mode)
        u = rng.standard_normal() * 0.3 + np.zeros(grid.n)
        for k, c, p in zip(ks, coeff, phase):
            u = u + c * np.cos(2.0 * np.pi * k * grid.x
                               / (2.0 * grid.half_width) + p)
        yield u / grid.l2_norm(u)


def _reduced_cosine_fields(grid, trials, seed, max_mode):
    """The same sum with the phase 2 pi k j / n reduced mod 2 pi exactly."""
    rng = np.random.default_rng(seed)
    ks = np.arange(1, max_mode + 1)
    j = np.arange(grid.n)
    for _ in range(trials):
        coeff = rng.standard_normal(max_mode) / np.sqrt(ks)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=max_mode)
        u = rng.standard_normal() * 0.3 + np.zeros(grid.n)
        for k, c, p in zip(ks, coeff, phase):
            u = u + c * (-1.0) ** k * np.cos(
                2.0 * np.pi * ((k * j) % grid.n) / grid.n + p)
        yield u / grid.l2_norm(u)


@pytest.mark.parametrize("n, trials, seed, max_mode", [
    (512, 5, 11, None), (512, 3, 4, 1), (512, 3, 4, 255), (4096, 8, 3, 64),
])
def test_band_limited_fields_match_cosine_sum(n, trials, seed, max_mode):
    grid = lo.LineGrid(2.0, n)
    U = lo._band_limited_fields(grid, trials, seed, max_mode)
    ref = np.stack(list(_cosine_fields(grid, trials, seed, max_mode)), axis=1)
    assert U.shape == (n, trials)
    assert np.max(np.abs(U - ref)) <= 1e-13


def test_band_limited_fields_top_mode_on_the_large_grid():
    # at n = 4096 the cosine sum's arguments reach 2 pi 2047 * 1 + phase,
    # about 1.3e4 rad with an ulp of 1.8e-12, and its rounding sums to
    # 2.9e-13; with the phase reduced exactly the sum agrees to 7e-15
    grid = lo.LineGrid(2.0, 4096)
    U = lo._band_limited_fields(grid, 3, 7, 2047)
    ref = np.stack(list(_reduced_cosine_fields(grid, 3, 7, 2047)), axis=1)
    assert np.max(np.abs(U - ref)) <= 1e-13


def _evaluated_trace(field, grid, eps):
    """The cell trace by off-grid evaluation at y = x/eps mod 1."""
    return evaluate(field, np.mod(grid.x / eps, 1.0))


def test_sampled_traces_match_evaluated_traces(varcoef, stable, monkeypatch):
    # the line-diag benchmark's operators, forms and residuals with the
    # traces sampled by stride against the same with off-grid evaluation
    # and the fields summed as cosines
    grid = lo.LineGrid(2.0, 4096)
    (v, sol_v), (s1, sol_s) = varcoef, stable
    s2 = coefficient_set_by_name("stable-2", n=256)
    xi = lo.gaussian_bump(grid, 0.0, 0.35)
    psi = lo.gaussian_bump(grid, 0.2, 0.4)

    def run():
        out = []
        for K in (8, 16, 32, 64):
            eps = 1.0 / K
            T = lo.assemble_T_eps(v, eps, grid)
            out.append((
                T.blocks,
                lo.assemble_V_eps(s1, eps, grid).blocks,
                lo.assemble_V_eps(s2, eps, grid).blocks,
                lo.residual_lemma_2_10(xi, sol_v, v, eps, grid, operator=T),
                lo.residual_part_II(xi, psi, sol_s, s1, eps, grid),
                lo.dissipativity_check_I(v, sol_v.m, eps, grid, 8, K, 64),
                lo.dissipativity_check_II(s1, sol_s.m1, eps, grid, 8, K, 64),
            ))
        return out

    sampled = run()
    monkeypatch.setattr(lo, "_cell_trace", _evaluated_trace)
    monkeypatch.setattr(lo, "_band_limited_fields", lambda *args: np.stack(
        list(_cosine_fields(*args)), axis=1))
    evaluated = run()
    for got, want in zip(sampled, evaluated):
        for blocks, ref in zip(got[:3], want[:3]):
            assert np.max(np.abs(blocks - ref)) <= 1e-14 * np.max(np.abs(ref))
        # each residual is an O(1e-3) remainder of terms of size about
        # eps^-2 times O(1) fields, so trace roundoff of 1e-15 can show up
        # amplified by about 1e6
        for r, r_ref in zip(got[3:5], want[3:5]):
            assert abs(r - r_ref) <= 1e-8 * abs(r_ref)
        for w, w_ref in zip(got[5:], want[5:]):
            assert abs(w - w_ref) <= 1e-12 * abs(w_ref)


_TRACE_FIELDS = ["a", "b", "lam", "sigma"]


@pytest.mark.parametrize("n, line_n, half_width, K", [
    (256, 4096, 2.0, 16),  # p = 64 < n: a stride of the values
    (128, 2048, 1.0, 8),  # p = n
    (64, 8192, 2.0, 8),  # p = 256 > n: one padded FFT
])
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_cell_trace_samples_the_interpolant(n, line_n, half_width, K, data):
    grid = lo.LineGrid(half_width, line_n)
    eps = 1.0 / K
    p = grid.points_per_cell(eps)
    source = data.draw(st.sampled_from(["varcoef-1", "random-I", "random-II"]))
    seed = data.draw(st.integers(0, 10_000))
    if source == "varcoef-1":
        cset = coefficient_set_by_name("varcoef-1", n=n)
        fields = [getattr(cset, name) for name in _TRACE_FIELDS]
    elif source == "random-I":
        cset = random_set_I(seed, n)
        fields = [getattr(cset, name) for name in _TRACE_FIELDS]
    else:
        cset = random_set_II(seed, n)
        fields = [cset.delta, cset.d, cset.e, cset.f, cset.g, cset.sigma]
    # and a field with every mode up to the Nyquist cosine
    rng = np.random.default_rng(seed)
    fields.append(PeriodicField(TorusGrid(n), rng.standard_normal(n)))
    y = np.mod(grid.x / eps, 1.0)
    for field in fields:
        cell = field.uniform_samples(p)
        trace = lo._cell_trace(field, grid, eps)
        scale = np.max(np.abs(field.values))
        assert cell.shape == (p,) and trace.shape == (grid.n,)
        assert np.max(np.abs(cell - evaluate(field, np.arange(p) / p))) \
            <= 1e-13 * scale
        assert np.max(np.abs(trace - evaluate(field, y))) <= 1e-13 * scale
        assert np.array_equal(trace[p:], trace[:-p])
        if n % p == 0:
            assert np.array_equal(trace[:p], field.values[::n // p])


def test_cell_trace_needs_a_grid_on_cell_edges(varcoef):
    cset, _ = varcoef
    grid = lo.LineGrid(2.0, 1024)
    trace = lo._cell_trace(cset.a, grid, 1.0 / 8)
    assert np.array_equal(trace[:32], cset.a.values[::8])
    # every LineGrid starts at -L, on a cell edge; a window shifted by a
    # third of a cell does not
    shifted = lo.LineGrid(2.0, 1024)
    shifted._x = shifted.x + 1.0 / 24
    with pytest.raises(lo.ResolutionError, match="cell edge"):
        lo._cell_trace(cset.a, shifted, 1.0 / 8)
