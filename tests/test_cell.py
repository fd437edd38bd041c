"""Cell problems, correctors, and effective coefficients (both families).

Oracles used here, written independently of the solver internals:

* a direct 2-D quadrature of the effective-diffusivity double integral
  (adaptive in the jump variable, fine trapezoid on the torus), against the
  panel/multiplier route in compute_Q;
* the per-node phase-shift loop over the same Gauss panels, against the
  multiplier form of the z-quadrature;
* the six z-convolutions inverted to the grid, against the mode-0 and
  Parseval sums of compute_Q;
* the phase matrix over the full mirrored rule, one exponential per
  frequency and node, against the half-rule angle-addition z-symbols;
* Fourier-mode evaluation of the generator against scalar quadrature of the
  kernel transform;
* inverse-power iteration as a second route to the invariant density;
* the fixed-point drift centering b <- b - int b m[b], against the Newton
  centering of the fixtures;
* augmented least squares (lstsq), against the bordered LU solves;
* defect correction with at least two corrections written out from its
  first banded solve, against the own-LU solves from a zero start;
* the dense Phi A Phi^-1, Phi the real Fourier matrix of cosines and
  sines, against the band the LU factors;
* the relative residual on an assembled dense matrix, against the
  matrix-free residual of the cell operator;
* the field-by-field loop of the coercivity witness, against its batched form;
* the witness fields from full complex spectra, against the irfft of half
  spectra;
* cross-resolution (n vs 2n) agreement for every solved field.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad, quad_vec
from scipy.linalg import lu_factor, lu_solve, null_space

from field_oracle import evaluate
from nlhom import cell, fixtures, torus

from nlhom.cell import (
    CellOperator,
    RankDeficiencyError,
    SolvabilityError,
    _BorderedLU,
    _witness_fields,
    _z_symbols,
    assemble_torus_generator_I,
    assemble_torus_generator_II,
    check_centering_I,
    check_centering_II,
    coercivity_witness_I,
    compute_Q,
    effective_coefficients_II,
    solve_cell_I,
    solve_cell_II,
    solve_corrector_chi,
    solve_e1,
    solve_h1,
    solve_h3,
    solve_invariant_density_I,
    solve_invariant_density_II,
    zakai_cell_I,
)
from nlhom.coefficients import CoefficientSetI, CoefficientSetII
from nlhom.fixtures import (
    center_drift_I,
    center_drift_II,
    const_1,
    random_set_I,
    random_set_II,
    stable_1,
    varcoef_1,
)
from nlhom.kernels import (
    _quadrature_nodes,
    box_kernel,
    gaussian_kernel,
    laplace_kernel,
    triangle_kernel,
)
from nlhom.torus import (
    PeriodicField,
    TorusGrid,
    _apply_symbol,
    field_from_function,
)

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def q_double_quadrature(cset, m, chi, epsabs=1e-11):
    """Direct 2-D quadrature of the two-term diffusivity functional.

    Adaptive quadrature (quad_vec) in z with the y-integral done on a
    trapezoid grid three times finer than the solver's, evaluating the torus
    fields by trigonometric interpolation.  Entirely independent of the
    Gauss-panel + phase-shift route used by compute_Q.
    """
    grid = cset.grid
    n_fine = 4 * grid.n
    y = np.arange(n_fine) / n_fine
    a_y = evaluate(cset.a, y)
    m_y = evaluate(m, y)
    lam_m = lambda q: evaluate(cset.lam, q) * evaluate(m, q)
    chi_y = evaluate(chi, y)
    dchi_y = evaluate(chi.derivative(1), y)
    term1 = np.mean(a_y * m_y * (dchi_y + 1.0) ** 2)

    R = cset.kernel.truncation_radius

    def inner(z):
        cz = cset.kernel.evaluate(np.array([z]))[0]
        if cz == 0.0:
            return np.zeros(1)
        vals = cz * lam_m(y - z) * (z + chi_y - evaluate(chi, y - z)) ** 2
        return np.array([np.mean(vals)])

    val, _ = quad_vec(inner, -R, R, epsabs=epsabs, epsrel=1e-10)
    return term1 + 0.5 * float(val[0])


def dense_norm(A):
    """The largest row or column 2-norm of a dense matrix A."""
    rows = np.einsum("ij,ij->i", A, A)
    cols = np.einsum("ij,ij->j", A, A)
    return float(np.sqrt(max(rows.max(), cols.max())))


def relative_residual(A, x, rhs):
    """||A x - rhs|| / (||A|| max(||x||, 1) + ||rhs||) on a dense matrix A,
    ||A|| its largest row or column 2-norm."""
    return np.linalg.norm(A @ x - rhs) / (
        dense_norm(A) * max(np.linalg.norm(x), 1.0) + np.linalg.norm(rhs))


def lstsq_singular(A, rhs, weight, target):
    """Least-squares solve of A x = rhs with <weight, x> h = target: the
    constraint enters as an extra row scaled to ||A||_2."""
    n = A.shape[0]
    w = np.asarray(weight, dtype=float) / n
    rho = np.linalg.norm(A, 2) / np.linalg.norm(w)
    x, *_ = np.linalg.lstsq(np.vstack([A, rho * w[None, :]]),
                            np.append(rhs, rho * target), rcond=None)
    return x


def refine_two_corrections(op, rhs, total, adjoint):
    """The solve on the operator's own LU by defect correction from zero
    with at least two corrections: it stops at the first correction that
    fails to halve, or once rate / (1 - rate) times the last correction,
    rate the ratio of the last two, is below n u ||x||."""
    lu = op.lu
    n, s = lu._n, lu._s
    b = np.append(rhs, s * total)

    def defect(y):
        return b - np.append(op.apply(y[:n], adjoint) + s * y[n],
                             s * np.sum(y[:n]))

    y = lu.solve_bordered(b, adjoint)
    last = np.linalg.norm(y[:n])
    while True:
        dy = lu.solve_bordered(defect(y), adjoint)
        y += dy
        size = np.linalg.norm(dy[:n])
        if not size < 0.5 * last:
            return y[:n]
        rate = size / last
        if rate / (1.0 - rate) * size \
                <= n * np.finfo(float).eps * np.linalg.norm(y[:n]):
            return y[:n]
        last = size


def z_convolution_loop(kernel, power, f):
    """sum_q w_q c(z_q) z_q^power f(y - z_q), one phase shift per node."""
    nodes, weights = _quadrature_nodes(kernel)
    acc = np.zeros(f.grid.n)
    for zq, wq in zip(nodes, weights * kernel.evaluate(nodes) * nodes**power):
        if wq != 0.0:
            acc += wq * f.shifted(zq).values
    return acc


def z_symbols_phase_matrix(kernel, n):
    """S_j(k) = sum_q w_q c(z_q) z_q^j e^{-2 pi i k z_q} over the full rule,
    from the (n/2 + 1) x nodes matrix of phases.

    k z is reduced mod 1 in numpy's longdouble before the exponential, which
    is exact where that type has a 64-bit mantissa (x86): in double the
    rounding of k z alone puts the phases off by up to 7e-14 of a column's
    maximum for the random-set kernels at n = 2048, and by 3e-11 for the
    Laplace kernel (R = 40).
    """
    nodes, weights = _quadrature_nodes(kernel)
    wc = weights * kernel.evaluate(nodes)
    turns = np.outer(np.arange(n // 2 + 1, dtype=np.longdouble),
                     nodes.astype(np.longdouble))
    turns = (turns - np.rint(turns)).astype(float)
    phase = np.exp(-1j * TWO_PI * turns)
    return phase @ (wc[:, None] * nodes[:, None] ** np.arange(3))


def witness_fields_full_spectrum(n, n_fields=120, seed=7):
    """The coercivity witness's fields and derivatives from full complex
    spectra: the conjugate modes filled in, ifft, real part."""
    rng = np.random.default_rng(seed)
    kmax = n // 4
    draws = rng.normal(size=(n_fields, 2 * (kmax - 1) + 1))
    z = draws[:, 0:-1:2] + 1j * draws[:, 1:-1:2]
    coeffs = np.zeros((n_fields, n), dtype=complex)
    coeffs[:, 0] = draws[:, -1]
    coeffs[:, 1:kmax] = z
    coeffs[:, n - kmax + 1:] = np.conj(z[:, ::-1])
    k = np.fft.fftfreq(n, d=1.0 / n)
    U = np.fft.ifft(coeffs * n, axis=1).real
    dU = np.fft.ifft(coeffs * (1j * TWO_PI * k) * n, axis=1).real
    return U, dU


def q_phase_shift_loop(cset, m, chi):
    """The two-term diffusivity functional with the jump term summed node by
    node on phase-shifted fields."""
    grid = cset.grid
    dchi = chi.derivative(1).values
    term1 = float(np.sum(cset.a.values * m.values * (dchi + 1.0) ** 2) * grid.h)
    lamm = PeriodicField(grid, cset.lam.values * m.values)
    nodes, weights = _quadrature_nodes(cset.kernel)
    acc = np.zeros(grid.n)
    for zq, wq, cq in zip(nodes, weights, cset.kernel.evaluate(nodes)):
        if cq == 0.0:
            continue
        lm_s = lamm.shifted(zq).values
        chi_s = chi.shifted(zq).values
        acc += wq * cq * lm_s * (zq + chi.values - chi_s) ** 2
    return term1 + 0.5 * float(np.sum(acc) * grid.h)


def q_six_convolutions(op, m, chi):
    """The two-term diffusivity functional with the z-integral as six
    convolutions with the z-symbols, each inverted to the grid and summed
    against its weight 1, chi or chi^2."""
    cset = op.cset
    grid = cset.grid
    dchi = chi.derivative(1).values
    term1 = float(np.sum(cset.a.values * m.values * (dchi + 1.0) ** 2) * grid.h)
    S = op.z_symbols
    c = chi.values
    lamm = cset.lam.values * m.values
    lamm_c = lamm * c

    def conv(f, j):
        return _apply_symbol(f, S[:, j])

    acc = (conv(lamm, 2) + c * c * conv(lamm, 0) + conv(lamm_c * c, 0)
           + 2.0 * c * conv(lamm, 1) - 2.0 * conv(lamm_c, 1)
           - 2.0 * c * conv(lamm_c, 0))
    return term1 + 0.5 * float(np.sum(acc) * grid.h)


def coercivity_margin_loop(cset, m, T, alpha_c, mu, n_fields=120, seed=7):
    """Worst Garding slack over random band-limited fields, drawn and
    evaluated one field (and one coefficient) at a time."""
    grid = cset.grid
    h = grid.h
    rng = np.random.default_rng(seed)
    margin = np.inf
    kmax = grid.n // 4
    for _ in range(n_fields):
        coeffs = np.zeros(grid.n, dtype=complex)
        for k in range(1, kmax):
            z = rng.normal() + 1j * rng.normal()
            coeffs[k], coeffs[-k] = z, np.conj(z)
        coeffs[0] = rng.normal()
        u = PeriodicField(grid, np.fft.ifft(coeffs * grid.n).real)
        uv = u.values
        du = u.derivative(1).values
        form = -float(np.sum(m.values * (T @ uv) * uv) * h)
        l2 = float(np.sum(uv**2) * h)
        h1n = l2 + float(np.sum(du**2) * h)
        margin = min(margin, form + mu * l2 - 0.5 * alpha_c * h1n)
    return margin


def invariant_density_power_iteration(cset, shift=1e-6, n_iter=60):
    """Second route to m: inverse power iteration on (T* - shift I).

    Independent of the bordered solve; used as a cross-check oracle.
    """
    T_adj = assemble_torus_generator_I(cset).matrix.T
    n = cset.grid.n
    B = T_adj - shift * np.eye(n)
    lu = lu_factor(B)
    v = np.ones(n)
    for _ in range(n_iter):
        v = lu_solve(lu, v)
        v /= np.linalg.norm(v)
    if np.sum(v) < 0:
        v = -v
    v = v / (np.sum(v) / n)  # normalize the torus integral to one
    return PeriodicField(cset.grid, v)


def center_drift_fixed_point(cset, name, tol=1e-13, max_iter=80):
    """Drift centering by the fixed-point sweep b <- b - int b m[b], with m
    from a fresh assembly and bordered solve per sweep.

    Once the bias is below ``tol`` the sweep goes on while the bias still
    halves, so the drift lands on the rounding floor of the bias rather
    than anywhere below ``tol``.
    """
    if name == "b":
        density = solve_invariant_density_I
    else:
        density = solve_invariant_density_II
    current = cset
    previous = np.inf
    for _ in range(max_iter):
        m, _ = density(CellOperator(current))
        drift = getattr(current, name)
        bias = float(np.sum(drift.values * m.values) * current.grid.h)
        if abs(bias) <= tol and abs(bias) >= 0.5 * previous:
            return current
        previous = abs(bias)
        current = current.with_fields(
            **{name: PeriodicField(current.grid, drift.values - bias)})
    raise RuntimeError("fixed-point centering did not converge")


def kernel_fourier_coefficient(kernel, k):
    """hat c(k) = int c(z) cos(2 pi k z) dz over the truncated support."""
    R = kernel.truncation_radius
    pts = sorted(p for p in kernel.breakpoints if 0 < p < R)
    val, _ = quad(
        lambda z: kernel.evaluate(np.array([z]))[0] * np.cos(TWO_PI * k * z),
        0.0, R, points=pts or None, limit=300, epsabs=1e-14,
    )
    return 2.0 * val


# ---------------------------------------------------------------------------
# Part I: generator
# ---------------------------------------------------------------------------


# the cell-layer contracts run over random admissible sets of both families
# at n = 64, with the named fixtures as examples
_CONTRACT_FIXTURES = {"const_1": const_1, "varcoef_1": varcoef_1}
contract_sets = given(family=st.sampled_from(["I", "II"]),
                      seed=st.integers(0, 10_000))
UNIT_ROUNDOFF = np.finfo(float).eps


def contract_operator(family, seed):
    """The cell operator of random_set_I/II(seed, 64) for family "I"/"II",
    or of the named fixture (seed unused)."""
    if family in _CONTRACT_FIXTURES:
        return CellOperator(_CONTRACT_FIXTURES[family]())
    build = random_set_I if family == "I" else random_set_II
    return CellOperator(build(seed, 64))


def contract_density(op):
    """The invariant density of op's family: m (Part I) or m1 (Part II)."""
    if isinstance(op.cset, CoefficientSetI):
        return solve_invariant_density_I(op)[0]
    return solve_invariant_density_II(op)[0]


@contract_sets
@settings(max_examples=10, deadline=None)
@example(family="const_1", seed=0)
@example(family="varcoef_1", seed=0)
def test_generator_annihilates_constants(family, seed):
    op = contract_operator(family, seed)
    T = op.generator.matrix
    n = T.shape[0]
    # T 1 = 0 up to the rounding of n-term row sums, n u max|T| (measured:
    # at most 0.08 of it on seeds 0-39 of each family)
    assert np.max(np.abs(T @ np.ones(n))) <= n * UNIT_ROUNDOFF \
        * np.max(np.abs(T))
    # the adjoint annihilates the invariant density instead, up to the
    # rounding scale of the solve, n u ||T||_1 max m (measured: at most 0.02
    # of it), and at most the 1e-8 this test held the fixtures to before
    m = contract_density(op)
    bound = n * UNIT_ROUNDOFF * np.max(np.sum(np.abs(T), axis=0)) \
        * np.max(m.values)
    assert np.max(np.abs(T.T @ m.values)) <= min(bound, 1e-8)


@contract_sets
@settings(max_examples=10, deadline=None)
@example(family="varcoef_1", seed=0)
def test_generator_adjoint_pairing(family, seed):
    # <A u, v> = <u, A^T v> for the operator's direct and adjoint actions.
    # Both apply the generator's terms by FFT, so the gap is the rounding of
    # the FFTs, the model of the line operators' pairing: n u (sum_k
    # max|f_k| max|s_k| + max|d|) h ||u|| ||v|| (measured: at most 0.0031
    # of it on seeds 0-19 of each family, five pairs each)
    op = contract_operator(family, seed)
    n = op.cset.grid.n
    h = op.cset.grid.h
    gen = op.generator
    scale = sum(np.max(np.abs(f)) * np.max(np.abs(s)) for f, s in gen.terms) \
        + np.max(np.abs(gen.diagonal))
    rng = np.random.default_rng(3)
    for _ in range(5):
        u, v = rng.normal(size=(2, n))
        lhs = np.sum(op.apply(u, False) * v) * h
        rhs = np.sum(u * op.apply(v, True)) * h
        bound = n * UNIT_ROUNDOFF * scale * h * np.linalg.norm(u) \
            * np.linalg.norm(v)
        assert abs(lhs - rhs) <= bound


def test_generator_fourier_mode_oracle():
    # a=1, b=0, lambda=1: on cos(2 pi y) the generator acts as the scalar
    # -4 pi^2 + (hat c(1) - a1), with hat c from independent quadrature
    for kern in (box_kernel(), gaussian_kernel()):
        grid = TorusGrid(128)
        one = PeriodicField(grid, np.ones(grid.n))
        cset = CoefficientSetI(
            a=one, b=PeriodicField(grid, np.zeros(grid.n)), lam=one, sigma=one,
            kernel=kern, kappa=1.0, alpha1=1.0, alpha2=1.0, name="mode-test",
        )
        T = assemble_torus_generator_I(cset).matrix
        u = np.cos(TWO_PI * grid.x)
        c_hat_1 = kernel_fourier_coefficient(kern, 1)
        expected = (-(TWO_PI**2) + (c_hat_1 - kern.a1)) * u
        assert np.max(np.abs(T @ u - expected)) < 1e-9


# ---------------------------------------------------------------------------
# Part I: invariant density and centering
# ---------------------------------------------------------------------------


def test_invariant_density_constant_coefficients():
    m, _ = solve_invariant_density_I(CellOperator(const_1()))
    assert np.max(np.abs(m.values - 1.0)) < 1e-12


def test_invariant_density_cross_resolution():
    m_c, _ = solve_invariant_density_I(CellOperator(varcoef_1()))
    m_f, _ = solve_invariant_density_I(CellOperator(varcoef_1(512)))
    fine = TorusGrid(512)
    assert np.max(np.abs(evaluate(m_c, fine.x) - m_f.values)) < 1e-9


def test_invariant_density_power_iteration_agrees():
    cset = varcoef_1()
    m_ls, _ = solve_invariant_density_I(CellOperator(cset))
    m_pi = invariant_density_power_iteration(cset)
    assert np.max(np.abs(m_ls.values - m_pi.values)) < 1e-9


def test_invariant_density_properties():
    for cset in (varcoef_1(), random_set_I(0)):
        m, _ = solve_invariant_density_I(CellOperator(cset))
        assert np.min(m.values) > 0
        assert abs(np.mean(m.values) - 1.0) < 1e-12


def _vanishing_multiplier_operator(second):
    """A one-cell generator (1 + 0.5 cos 2 pi y) S on TorusGrid(16) whose
    symbol -k^2 (k - 3)^2 / 9 - k^2 vanishes at the mode 0 and reads
    ``second`` at the mode 3: its null space is the constants plus, for
    second = 0, the two fields of mode 3."""
    grid = TorusGrid(16)
    k = np.arange(grid.n // 2 + 1.0)
    symbol = -(k * (k - 3.0)) ** 2 / 9.0 - k**2
    symbol[3] = second
    field = 1.0 + 0.5 * np.cos(TWO_PI * grid.x)
    return torus.LineOperator(grid, "vanishing", grid.n, [(field, symbol)],
                              0.0)


def test_rank_deficiency_detected():
    A = _vanishing_multiplier_operator(0.0)
    with pytest.raises(RankDeficiencyError):
        _BorderedLU(A, cell._generator_norm(A))


def test_near_rank_deficiency_detected():
    # the multiplier at mode 3 is 7e-14 of its largest value: numerically
    # a three-dimensional null space
    k = np.arange(9.0)
    largest = np.max((k * (k - 3.0)) ** 2 / 9.0 + k**2)
    A = _vanishing_multiplier_operator(-7e-14 * largest)
    with pytest.raises(RankDeficiencyError):
        _BorderedLU(A, cell._generator_norm(A))


def test_centering_values():
    cset = const_1()
    m, _ = solve_invariant_density_I(CellOperator(cset))
    assert check_centering_I(cset, m) == 0.0
    m_v, _ = solve_invariant_density_I(CellOperator(varcoef_1()))
    assert abs(check_centering_I(varcoef_1(), m_v)) < 1e-10
    # b = 1 with otherwise constant coefficients: centering returns 1,
    # and the corrector refuses to solve
    g = cset.grid
    bad = cset.with_fields(b=PeriodicField(g, np.ones(g.n)), name="uncentered")
    op_bad = CellOperator(bad)
    m_bad, _ = solve_invariant_density_I(op_bad)
    assert abs(check_centering_I(bad, m_bad) - 1.0) < 1e-10
    with pytest.raises(SolvabilityError):
        solve_corrector_chi(op_bad, m_bad)


# ---------------------------------------------------------------------------
# Part I: corrector and Q
# ---------------------------------------------------------------------------


def test_corrector_zero_drift():
    op = CellOperator(const_1())
    m, _ = solve_invariant_density_I(op)
    chi, _ = solve_corrector_chi(op, m)
    assert np.max(np.abs(chi.values)) < 1e-12


def test_corrector_residual_and_orthogonality():
    cset = varcoef_1()
    op = CellOperator(cset)
    T = assemble_torus_generator_I(cset).matrix
    m, _ = solve_invariant_density_I(op)
    chi, _ = solve_corrector_chi(op, m)
    resid = T @ chi.values + cset.b.values
    assert np.linalg.norm(resid) / np.linalg.norm(T, 2) < 1e-9
    assert abs(np.sum(chi.values * m.values) * cset.grid.h) < 1e-10


def test_corrector_cross_resolution():
    op_c = CellOperator(varcoef_1())
    chi_c, _ = solve_corrector_chi(op_c, solve_invariant_density_I(op_c)[0])
    op_f = CellOperator(varcoef_1(512))
    chi_f, _ = solve_corrector_chi(op_f, solve_invariant_density_I(op_f)[0])
    fine = TorusGrid(512)
    assert np.max(np.abs(evaluate(chi_c, fine.x) - chi_f.values)) < 1e-9


def test_Q_constant_coefficients_closed_form():
    sol = solve_cell_I(const_1())
    assert abs(sol.Q - 4.0 / 3.0) < 1e-10
    assert abs(sol.Q_alt - 4.0 / 3.0) < 1e-10


def test_Q_zero_drift_against_double_quadrature():
    # b = 0 keeps chi = 0 but leaves m nontrivial; compare against the
    # independent 2-D quadrature oracle
    grid = TorusGrid(128)
    a = field_from_function(grid, lambda y: 1.0 + 0.4 * np.cos(TWO_PI * y))
    lam = field_from_function(grid, lambda y: 1.0 + 0.25 * np.sin(TWO_PI * y))
    cset = CoefficientSetI(
        a=a, b=PeriodicField(grid, np.zeros(grid.n)), lam=lam,
        sigma=PeriodicField(grid, np.ones(grid.n)), kernel=gaussian_kernel(),
        kappa=0.6, alpha1=0.7, alpha2=1.3, name="b0",
    )
    op = CellOperator(cset)
    m, _ = solve_invariant_density_I(op)
    chi, _ = solve_corrector_chi(op, m)
    assert np.max(np.abs(chi.values)) < 1e-10
    Q = compute_Q(op, m, chi)
    Q_oracle = q_double_quadrature(cset, m, chi)
    assert abs(Q - Q_oracle) < 1e-9


def test_Q_varcoef_against_double_quadrature():
    cset = varcoef_1()
    sol = solve_cell_I(cset)
    Q_oracle = q_double_quadrature(cset, sol.m, sol.chi)
    assert abs(sol.Q - Q_oracle) < 1e-8


# ---------------------------------------------------------------------------
# Part I: auxiliary correctors and the solvability route
# ---------------------------------------------------------------------------


def test_h1_constant_coefficients():
    op = CellOperator(const_1())
    m, _ = solve_invariant_density_I(op)
    h1, solv, _ = solve_h1(op, m)
    assert abs(solv) < 1e-12
    assert np.max(np.abs(h1.values)) < 1e-10


@contract_sets
@settings(max_examples=10, deadline=None)
@example(family="varcoef_1", seed=0)
def test_h1_solvability_and_residual(family, seed):
    # Fredholm solvability of the weighted adjoint corrector, h1 (Part I)
    # or h3 (Part II)
    op = contract_operator(family, seed)
    m = contract_density(op)
    if isinstance(op.cset, CoefficientSetI):
        h, solv, rel = solve_h1(op, m)
    else:
        solv = check_centering_II(op.cset, m)
        h, rel = solve_h3(op, m)
    n = op.cset.grid.n
    # the solvability integral is the centering integral (int b m, int d m1)
    # plus rounding; the fixtures center it to 0.5e-13, and 1e-12 is the
    # benchmark's centering bound (measured: at most 3.5e-14 on seeds 0-39
    # of each family), against the 1e-9 this test held varcoef-1 to before
    assert abs(solv) <= 1e-12
    # h is made mean-zero by one subtraction: n u max|h| (measured: at most
    # 1.7e-18 absolute)
    assert abs(np.mean(h.values)) \
        <= n * UNIT_ROUNDOFF * np.max(np.abs(h.values))
    # a backward-stable solve has a normwise backward error of order n u
    # (Higham, Accuracy and Stability, ch. 7; measured: at most 4.6e-16)
    assert rel <= n * UNIT_ROUNDOFF


def test_h2_route_agrees_with_Q():
    # the central dual-route identity, on the named fixtures and randomized
    # admissible sets
    for cset in (const_1(), varcoef_1(), random_set_I(0), random_set_I(1),
                 random_set_I(2)):
        sol = solve_cell_I(cset)
        assert abs(sol.Q - sol.Q_alt) / sol.Q <= 1e-8
        assert abs(np.mean(sol.h2.values)) < 1e-10


def test_h2_residual_recheck():
    cset = varcoef_1()
    sol = solve_cell_I(cset)
    assert sol.residuals["h2"] < 1e-9


def test_filter_corrector_identities():
    sol = solve_cell_I(const_1())
    assert abs(sol.Q1 - 4.0 / 3.0) < 1e-10
    for cset in (varcoef_1(), random_set_I(1)):
        sol = solve_cell_I(cset)
        assert abs(sol.Q1 - sol.Q) / sol.Q <= 1e-8


# ---------------------------------------------------------------------------
# Part I: invariants
# ---------------------------------------------------------------------------


def test_coercivity_witness():
    cset = varcoef_1()
    op = CellOperator(cset)
    m, _ = solve_invariant_density_I(op)
    alpha_c, mu, margin = coercivity_witness_I(op, m)
    assert alpha_c > 0 and mu > 0
    assert margin > -1e-9
    loop = coercivity_margin_loop(cset, m,
                                  assemble_torus_generator_I(cset).matrix,
                                  alpha_c, mu)
    assert abs(margin - loop) <= 1e-12 * abs(loop)


def test_scaling_covariance_sigma():
    cset = varcoef_1()
    sol = solve_cell_I(cset)
    s = 3.7
    scaled = cset.with_fields(sigma=PeriodicField(cset.grid, s * cset.sigma.values))
    m, _ = solve_invariant_density_I(CellOperator(scaled))
    sigma_bar_scaled = float(np.sum(scaled.sigma.values * m.values) * cset.grid.h)
    assert abs(sigma_bar_scaled - s * sol.sigma_bar) < 1e-12 * s


def _ellipticity(a):
    """The largest kappa with kappa <= a <= 1/kappa."""
    return min(float(a.values.min()), 1.0 / float(a.values.max()))


def test_scaling_covariance_Q_zero_drift():
    # with b = 0 the literal (a, lambda) joint scaling leaves m, chi fixed
    grid = TorusGrid(128)
    a = field_from_function(grid, lambda y: 1.0 + 0.4 * np.cos(TWO_PI * y))
    lam = field_from_function(grid, lambda y: 1.0 + 0.25 * np.sin(TWO_PI * y))
    zero = PeriodicField(grid, np.zeros(grid.n))
    one = PeriodicField(grid, np.ones(grid.n))
    cset = CoefficientSetI(a=a, b=zero, lam=lam, sigma=one,
                           kernel=gaussian_kernel(), kappa=0.6, alpha1=0.7,
                           alpha2=1.3, name="b0")
    s = 2.3
    a_s = PeriodicField(grid, s * a.values)
    scaled = CoefficientSetI(
        a=a_s, b=zero, lam=PeriodicField(grid, s * lam.values), sigma=one,
        kernel=gaussian_kernel(), kappa=_ellipticity(a_s), alpha1=0.7 * s,
        alpha2=1.3 * s, name="b0-scaled",
    )
    op1, op2 = CellOperator(cset), CellOperator(scaled)
    m1, _ = solve_invariant_density_I(op1)
    m2, _ = solve_invariant_density_I(op2)
    assert np.max(np.abs(m1.values - m2.values)) < 1e-10
    chi1, _ = solve_corrector_chi(op1, m1)
    chi2, _ = solve_corrector_chi(op2, m2)
    assert np.max(np.abs(chi1.values - chi2.values)) < 1e-10
    Q1 = compute_Q(op1, m1, chi1)
    Q2 = compute_Q(op2, m2, chi2)
    assert abs(Q2 - s * Q1) < 1e-10 * s


def test_scaling_covariance_Q_joint_drift():
    # with nonzero drift the invariance extends to joint (a, b, lambda)
    # scaling (a time change of the cell process)
    cset = varcoef_1()
    s = 1.9
    a_s = PeriodicField(cset.grid, s * cset.a.values)
    scaled = cset.with_fields(
        a=a_s,
        b=PeriodicField(cset.grid, s * cset.b.values),
        lam=PeriodicField(cset.grid, s * cset.lam.values),
        kappa=_ellipticity(a_s), alpha1=cset.alpha1 * s,
        alpha2=cset.alpha2 * s, name="varcoef-scaled",
    )
    sol = solve_cell_I(cset)
    sol_s = solve_cell_I(scaled)
    assert np.max(np.abs(sol.m.values - sol_s.m.values)) < 1e-10
    assert abs(sol_s.Q - s * sol.Q) < 1e-10 * s


def test_grid_refinement_stability():
    sol_c = solve_cell_I(varcoef_1())
    sol_f = solve_cell_I(varcoef_1(512))
    assert abs(sol_c.Q - sol_f.Q) < 1e-8
    assert abs(sol_c.Q_alt - sol_f.Q_alt) < 1e-8
    assert abs(sol_c.Q1 - sol_f.Q1) < 1e-8
    assert abs(sol_c.sigma_bar - sol_f.sigma_bar) < 1e-8
    fine = TorusGrid(512)
    for name in ("m", "chi", "h1", "h2"):
        coarse = evaluate(getattr(sol_c, name), fine.x)
        assert np.max(np.abs(coarse - getattr(sol_f, name).values)) < 1e-8


# ---------------------------------------------------------------------------
# Part II
# ---------------------------------------------------------------------------


def _const_set_II(n=64, alpha=1.2, delta=1.0, d=0.0, g=0.3, e=0.0, f=0.2, sigma=1.5):
    grid = TorusGrid(n)
    mk = lambda v: PeriodicField(grid, np.full(n, float(v)))
    return CoefficientSetII(delta=mk(delta), d=mk(d), g=mk(g), e=mk(e), f=mk(f),
                            sigma=mk(sigma), alpha=alpha, name="const-II")


def test_generator_II_basics():
    cset = stable_1()
    L = assemble_torus_generator_II(cset).matrix
    L_adj = L.T
    n = cset.grid.n
    assert np.max(np.abs(L @ np.ones(n))) < 1e-10
    rng = np.random.default_rng(5)
    u, v = rng.normal(size=(2, n))
    lhs = np.sum((L @ u) * v)
    rhs = np.sum(u * (L_adj @ v))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_generator_II_eigenfunction():
    cset = _const_set_II(alpha=1.5)
    L = assemble_torus_generator_II(cset).matrix
    u = np.cos(TWO_PI * cset.grid.x)
    assert np.max(np.abs(L @ u + (TWO_PI**1.5) * u)) < 1e-10


def test_m1_constant_drift_free():
    cset = _const_set_II(d=0.0, delta=1.3)
    m1, _ = solve_invariant_density_II(CellOperator(cset))
    assert np.max(np.abs(m1.values - 1.0)) < 1e-12
    assert abs(check_centering_II(cset, m1)) < 1e-14


def test_m1_stable_fixture():
    cset = stable_1()
    m1, _ = solve_invariant_density_II(CellOperator(cset))
    assert np.min(m1.values) > 0
    assert abs(np.mean(m1.values) - 1.0) < 1e-12
    assert abs(check_centering_II(cset, m1)) < 1e-10
    m1f, _ = solve_invariant_density_II(CellOperator(stable_1(512)))
    fine = TorusGrid(512)
    assert np.max(np.abs(evaluate(m1, fine.x) - m1f.values)) < 1e-9


def test_h3_trivial_and_fixture():
    op = CellOperator(_const_set_II(d=0.0))
    m1, _ = solve_invariant_density_II(op)
    h3, _ = solve_h3(op, m1)
    assert np.max(np.abs(h3.values)) < 1e-10
    op = CellOperator(stable_1())
    m1, _ = solve_invariant_density_II(op)
    h3, rel = solve_h3(op, m1)
    assert rel < 1e-9
    assert abs(np.mean(h3.values)) < 1e-10
    op_f = CellOperator(stable_1(512))
    h3f, _ = solve_h3(op_f, solve_invariant_density_II(op_f)[0])
    fine = TorusGrid(512)
    assert np.max(np.abs(evaluate(h3, fine.x) - h3f.values)) < 1e-9


def test_e1_single_mode_closed_form():
    grid = TorusGrid(64)
    cset = _const_set_II(n=64, alpha=1.5).with_fields(
        e=field_from_function(grid, lambda y: np.sin(TWO_PI * y)))
    op = CellOperator(cset)
    e1, solv, rel = solve_e1(op, solve_invariant_density_II(op)[0])
    assert abs(solv) < 1e-12
    expected = np.sin(TWO_PI * grid.x) / (TWO_PI**1.5)
    assert np.max(np.abs(e1.values - expected)) < 1e-10
    assert rel < 1e-9


def test_e1_zero_and_warning():
    cset = _const_set_II(e=0.0)
    op = CellOperator(cset)
    m1, _ = solve_invariant_density_II(op)
    e1, _, _ = solve_e1(op, m1)
    assert np.max(np.abs(e1.values)) < 1e-12
    bad = cset.with_fields(e=PeriodicField(cset.grid, np.ones(cset.grid.n)))
    with pytest.warns(RuntimeWarning):
        solve_e1(CellOperator(bad), m1)
    # off the solvable set e1 is still the least-squares solution
    s1 = stable_1(128)
    bad = s1.with_fields(e=PeriodicField(s1.grid, s1.e.values + 0.3))
    op = CellOperator(bad)
    m1, _ = solve_invariant_density_II(op)
    with pytest.warns(RuntimeWarning):
        e1, solv, rel = solve_e1(op, m1)
    ref = lstsq_singular(assemble_torus_generator_II(bad).matrix,
                         -bad.e.values, m1.values, 0.0)
    assert abs(solv) > 0.1
    assert np.max(np.abs(e1.values - ref)) < 1e-10


def test_effective_coefficients_II():
    cset = _const_set_II(alpha=1.2, delta=1.3, g=0.3, f=0.2, sigma=1.5)
    m1, _ = solve_invariant_density_II(CellOperator(cset))
    dba, g_bar, f_bar, sigma_bar = effective_coefficients_II(cset, m1)
    assert abs(dba - 1.3**1.2) < 1e-12
    assert abs(g_bar - 0.3) < 1e-13
    assert abs(f_bar - 0.2) < 1e-13
    assert abs(sigma_bar - 1.5) < 1e-13
    # sigma = 1 averages to 1 against any density
    cset2 = stable_1().with_fields(sigma=PeriodicField(stable_1().grid,
                                                       np.ones(stable_1().grid.n)))
    m1b, _ = solve_invariant_density_II(CellOperator(cset2))
    assert abs(effective_coefficients_II(cset2, m1b)[3] - 1.0) < 1e-12


def test_cell_II_grid_doubling():
    s1 = solve_cell_II(stable_1())
    s2 = solve_cell_II(stable_1(512))
    assert abs(s1.delta_bar_alpha - s2.delta_bar_alpha) < 1e-10
    assert abs(s1.g_bar - s2.g_bar) < 1e-10
    assert abs(s1.f_bar - s2.f_bar) < 1e-10
    assert abs(s1.sigma_bar - s2.sigma_bar) < 1e-10


# ---------------------------------------------------------------------------
# bordered solves and multiplier quadrature over random admissible sets
# ---------------------------------------------------------------------------


def real_fourier_matrix(n):
    """Phi, grid values to their real Fourier coordinates (Re X_0, Re X_1,
    Im X_1, ..., Re X_{n/2}), X the DFT: rows of cosines and sines."""
    j = np.arange(n)
    rows = [np.ones(n)]
    for k in range(1, n // 2):
        rows += [np.cos(TWO_PI * k * j / n), -np.sin(TWO_PI * k * j / n)]
    rows.append(np.cos(np.pi * j))
    return np.array(rows)


def band_to_dense(ab, bw):
    """The dense matrix of LAPACK band storage with kl = ku = bw."""
    size = ab.shape[1]
    out = np.zeros((size, size))
    for offset in range(-bw, bw + 1):
        j = np.arange(max(0, -offset), min(size, size - offset))
        out[j + offset, j] = ab[2 * bw + offset, j]
    return out


def wide_band_set(family, n=64):
    """A Part I or Part II set on TorusGrid(n) whose fields carry the mode
    n/4 - 1, the highest a resolved set may: the widest band."""
    grid = TorusGrid(n)
    top = n // 4 - 1

    def field(mean, amp, phase=0.0):
        return field_from_function(
            grid, lambda y: mean + amp * np.cos(TWO_PI * top * y + phase))

    if family == "I":
        return CoefficientSetI(
            a=field(1.0, 0.3), b=field(0.0, 0.2, 1.0), lam=field(1.0, 0.2, 0.5),
            sigma=field(1.0, 0.0), kernel=gaussian_kernel(), kappa=0.7,
            alpha1=0.8, alpha2=1.2, name="wide-I")
    zero = field(0.0, 0.0)
    return CoefficientSetII(delta=field(1.0, 0.3), d=field(0.0, 0.2, 1.0),
                            g=zero, e=zero, f=zero, sigma=field(1.0, 0.0),
                            alpha=1.5, name="wide-II")


def _assert_band_matches_dense_oracles(cset):
    """The banded LU's input and its refined solves against dense oracles.

    * Inside the band, the storage equals M = [[0, norm], [norm, G]], G =
      Phi A Phi^-1 from ``.matrix``, to n u max|M| (measured: at most 0.50
      of it on seeds 0-9 of each family and n, 0.32 on the wide sets).
    * Outside the band, M has no entry above n u max|M| (measured: at most
      0.35 of it).
    * Direct and adjoint bordered solves of A x = A x0 (A^T x = A^T x0)
      with sum(x) = sum(x0) match augmented least squares to 1e-10 (the
      bound the chain's solves met; measured: at most 2.9e-13).
    """
    op = CellOperator(cset)
    n = cset.grid.n
    A = op.generator.matrix
    Phi = real_fourier_matrix(n)
    M = np.zeros((n + 1, n + 1))
    M[1:, 1:] = Phi @ A @ (Phi.T / np.sum(Phi**2, axis=1))
    M[0, 1] = M[1, 0] = op.norm
    ab, bw = cell._generator_band(op.generator, op.norm)
    in_band = np.abs(np.subtract.outer(np.arange(n + 1),
                                       np.arange(n + 1))) <= bw
    bound = n * UNIT_ROUNDOFF * np.max(np.abs(M))
    assert np.max(np.abs(band_to_dense(ab, bw) - M)[in_band]) <= bound
    assert np.max(np.abs(M[~in_band]), initial=0.0) <= bound
    rng = np.random.default_rng(n)
    for adjoint, dense in ((False, A), (True, A.T)):
        x0 = rng.normal(size=n)
        rhs = dense @ x0
        ref = lstsq_singular(dense, rhs, np.ones(n), np.sum(x0) / n)
        x = op.solve(rhs, np.sum(x0), adjoint)
        assert np.max(np.abs(x - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


band_sets = given(family=st.sampled_from(["I", "II"]),
                  seed=st.integers(0, 10_000), n=st.sampled_from([16, 64, 128]))


@band_sets
@settings(max_examples=10, deadline=None)
def test_banded_generator_matches_dense_oracles(family, seed, n):
    build = random_set_I if family == "I" else random_set_II
    _assert_band_matches_dense_oracles(build(seed, n))


@pytest.mark.parametrize("family", ["I", "II"])
def test_widest_band_matches_dense_oracles(family):
    _assert_band_matches_dense_oracles(wide_band_set(family))


@pytest.mark.parametrize("n", [256, 512])
def test_band_follows_field_content_not_sampling_noise(n):
    # wide-I's fields are cos(2 pi (n/4 - 1) y) sampled on the grid, with
    # rounding noise at every mode: the band keeps their content, the mode
    # n/4 - 1, and the noise does not widen it
    op = CellOperator(wide_band_set("I", n))
    _, bw = cell._generator_band(op.generator, op.norm)
    assert bw == 2 * (n // 4 - 1) + 1


@given(seed=st.integers(0, 10_000), n=st.sampled_from([16, 64, 128]))
@settings(max_examples=10, deadline=None)
def test_bordered_solves_match_lstsq(seed, n):
    # the chains' refined solves against the least-squares oracle of
    # _assert_band_matches_dense_oracles, on the sizes of its sets
    cset = random_set_I(seed, n)
    sol = solve_cell_I(cset)
    T = assemble_torus_generator_I(cset).matrix
    m = sol.m.values
    l = cell._corrector_rhs_l(CellOperator(cset), sol.m)
    for x, ref in (
        (m, lstsq_singular(T.T, np.zeros(n), np.ones(n), 1.0)),
        (sol.chi.values, lstsq_singular(T, -cset.b.values, m, 0.0)),
        (sol.h1.values, lstsq_singular(T.T * m[None, :], l, np.ones(n), 0.0)),
    ):
        assert np.max(np.abs(x - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))

    cset = random_set_II(seed, n)
    sol = solve_cell_II(cset)
    L = assemble_torus_generator_II(cset).matrix
    m1 = sol.m1.values
    for x, ref in (
        (m1, lstsq_singular(L.T, np.zeros(n), np.ones(n), 1.0)),
        (sol.h3.values, lstsq_singular(L.T * m1[None, :],
                                       cset.d.values * m1, np.ones(n), 0.0)),
        (sol.e1.values, lstsq_singular(L, -cset.e.values, m1, 0.0)),
    ):
        assert np.max(np.abs(x - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


@given(seed=st.integers(0, 10_000), shift=st.floats(-50.0, 50.0))
@settings(max_examples=10, deadline=None)
def test_shifted_operator_matches_dense_generator(seed, shift):
    # the operator of the set whose drift is lowered by shift, on the LU of
    # the unshifted set, acts and measures its residual as the dense matrix
    # of its own generator: the residual from the terms (FFT apply, norm
    # from the Gram and the correlations of the term columns) matches the
    # dense oracle to 1e-12 at every shift, 0 included (measured: at most
    # 9.8e-16 relative on seeds 0-29)
    rng = np.random.default_rng(seed)
    for cset, name, assemble in (
            (random_set_I(seed, 64), "b", assemble_torus_generator_I),
            (random_set_II(seed, 64), "d", assemble_torus_generator_II)):
        op = CellOperator(cset)
        x, rhs = rng.normal(size=(2, cset.grid.n))
        for c in (0.0, 0.3, -5.0, 40.0, shift):
            moved = _shifted(cset, name, -c)
            A = assemble(moved).matrix
            shifted = op.shifted(moved, None)
            assert shifted.lu is op.lu
            _assert_applies_generator(shifted, A)
            for adjoint, dense in ((False, A), (True, A.T)):
                got = shifted.residual(x, rhs, adjoint)
                ref = relative_residual(dense, x, rhs)
                assert abs(got - ref) <= 1e-12 * ref


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_Q_routes_agree_on_random_sets(seed):
    sol = solve_cell_I(random_set_I(seed, 64))
    assert abs(sol.Q_alt - sol.Q) <= 1e-8 * sol.Q
    assert abs(sol.Q1 - sol.Q) <= 1e-8 * sol.Q


@given(seed=st.integers(0, 10_000), n=st.sampled_from([16, 64, 256]))
@settings(max_examples=12, deadline=None)
def test_Q_parseval_sums_match_six_convolutions(seed, n):
    # Q's z-integral by mode 0 and Parseval sums against the convolutions
    # inverted to the grid, on chi (Q) and on h1 (Q1, the same functional)
    cset = random_set_I(seed, n)
    op = CellOperator(cset)
    sol = solve_cell_I(cset)
    for corrector, value in ((sol.chi, sol.Q), (sol.h1, sol.Q1)):
        ref = q_six_convolutions(op, sol.m, corrector)
        assert abs(compute_Q(op, sol.m, corrector) - ref) <= 1e-13 * ref
        assert value == compute_Q(op, sol.m, corrector)
    assert zakai_cell_I(op, sol.m, sol.h1) == sol.Q1


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_multiplier_quadrature_matches_phase_shift_loop(seed):
    cset = random_set_I(seed, 64)
    sol = solve_cell_I(cset)
    S = _z_symbols(cset.kernel, cset.grid.n)
    lamm = PeriodicField(cset.grid, cset.lam.values * sol.m.values)
    for f in (lamm, sol.chi, sol.h1):
        for power in (0, 1, 2):
            ref = z_convolution_loop(cset.kernel, power, f)
            got = _apply_symbol(f.values, S[:, power])
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    ref = q_phase_shift_loop(cset, sol.m, sol.chi)
    assert abs(compute_Q(CellOperator(cset), sol.m, sol.chi) - ref) \
        <= 1e-12 * ref


def _assert_symbols_match_phase_matrix(kernel, n, bound=None):
    """The z-symbols match the phase-matrix oracle within ``bound`` per
    column (default: 1e-13 of each column's largest entry), and S_0 and S_2
    are exactly real, S_1 exactly imaginary (the mirrored rule)."""
    S = _z_symbols(kernel, n)
    ref = z_symbols_phase_matrix(kernel, n)
    assert S.shape == ref.shape == (n // 2 + 1, 3)
    if bound is None:
        bound = 1e-13 * np.max(np.abs(ref), axis=0)
    assert np.all(np.max(np.abs(S - ref), axis=0) <= bound)
    assert np.all(S[:, 0].imag == 0.0) and np.all(S[:, 2].imag == 0.0)
    assert np.all(S[:, 1].real == 0.0)


@given(seed=st.integers(0, 10_000), n=st.sampled_from([8, 64, 512, 2048]))
@settings(max_examples=12, deadline=None)
def test_z_symbols_match_full_rule_phase_matrix(seed, n):
    # the kernel's width is drawn after the fields, so it does not depend on
    # the grid the set is built on
    _assert_symbols_match_phase_matrix(random_set_I(seed, 64).kernel, n)


@pytest.mark.parametrize("kernel", [
    box_kernel(), triangle_kernel(0.3), laplace_kernel(), laplace_kernel(0.3),
], ids=["box", "triangle", "laplace", "laplace-slow"])
@pytest.mark.parametrize("n", [7, 256])
def test_z_symbols_of_builtin_kernels(kernel, n):
    # the wide Laplace supports (R = 40 and 133) give phases k z of up to
    # 17,000 turns.  The bound is on the sum of the terms' magnitudes,
    # (a1, s1, s2): the odd column of a wide smooth kernel is small (its
    # largest entry 7.7e-3 against s1 = 1 at rate 1).  The symbols meet it
    # with 5x to spare; without the exact reduction of k z the Laplace
    # kernels miss it at n = 256 (errors 2.3e-14 to 8.5e-14 of the moments).
    moments = np.array([kernel.a1, kernel.s1, kernel.s2])
    _assert_symbols_match_phase_matrix(kernel, n, 4e-15 * moments)


@pytest.mark.parametrize("n", [8, 64, 512])
def test_witness_fields_match_full_spectrum_construction(n):
    # the derivative is not kept: it is rebuilt from the stored spectra
    U, spec, l2, h1n = _witness_fields(n)
    U_ref, dU_ref = witness_fields_full_spectrum(n)
    dU = np.fft.irfft(spec * (1j * TWO_PI * np.arange(n // 2 + 1)), n)
    assert U.shape == dU.shape == (120, n)
    assert np.max(np.abs(U - U_ref)) <= 1e-13 * np.max(np.abs(U_ref))
    assert np.max(np.abs(dU - dU_ref)) <= 1e-13 * max(np.max(np.abs(dU_ref)),
                                                      1.0)
    l2_ref = np.sum(U_ref**2, axis=1) / n
    h1_ref = l2_ref + np.sum(dU_ref**2, axis=1) / n
    assert np.max(np.abs(l2 - l2_ref) / l2_ref) <= 1e-13
    assert np.max(np.abs(h1n - h1_ref) / h1_ref) <= 1e-13


def test_witness_fields_are_drawn_once_per_n_and_read_only():
    # the fields, their half spectra and their norms: one read-only set of
    # objects per n, the spectra those of the fields
    for n in (8, 64, 512):
        sample = _witness_fields(n)
        assert len(sample) == 4
        assert all(a is b for a, b in zip(_witness_fields(n), sample))
        assert not any(a.flags.writeable for a in sample)
        U, spec = sample[:2]
        ref = np.fft.rfft(U)
        assert spec.shape == ref.shape == (120, n // 2 + 1)
        assert np.max(np.abs(spec - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_one_factorization_per_chain(monkeypatch):
    # one banded factorization of the bordered generator, n + 1 columns; on
    # the fixtures two banded solves per solve of the chain (m, chi, h1, h2;
    # m1, h3, e1), the second one the rate rule's check, and no solve
    # applies the generator to its zero start
    csets = (varcoef_1(64), random_set_II(3, 64), stable_1(64))
    factorizations = []
    solves = []
    zero_applies = []
    dgbtrf, dgbtrs = cell.dgbtrf, cell.dgbtrs
    apply = CellOperator.apply

    def counting_dgbtrf(*args, **kwargs):
        factorizations.append(args[0].shape[1])
        return dgbtrf(*args, **kwargs)

    def counting_dgbtrs(*args, **kwargs):
        solves.append(args[0].shape[1])
        return dgbtrs(*args, **kwargs)

    def recording_apply(self, x, adjoint=False):
        zero_applies.append(not np.any(x))
        return apply(self, x, adjoint)

    def forbidden(*args, **kwargs):
        raise AssertionError("SVD-class decomposition in a cell solve")

    monkeypatch.setattr(cell, "dgbtrf", counting_dgbtrf)
    monkeypatch.setattr(cell, "dgbtrs", counting_dgbtrs)
    monkeypatch.setattr(CellOperator, "apply", recording_apply)
    for name in ("svd", "lstsq", "pinv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    solve_cell_I(csets[0])
    assert factorizations == [65]
    assert solves == [65] * 8
    solve_cell_II(csets[1])
    assert factorizations == [65] * 2
    solves.clear()
    solve_cell_II(csets[2])
    assert factorizations == [65] * 3
    assert solves == [65] * 6
    assert zero_applies and not any(zero_applies)


@given(family=st.sampled_from(["I", "II"]), seed=st.integers(0, 10_000),
       n=st.sampled_from([16, 64, 256, 1024]))
@example(family="I", seed=4, n=1024)
@example(family="II", seed=4, n=1024)
@settings(max_examples=12, deadline=None)
def test_own_lu_solve_is_the_two_correction_rule(family, seed, n):
    # a solve from a zero start takes b as its first defect, with no apply,
    # and changes no bit: the density, and a direct and an adjoint solve of
    # consistent right sides, equal the rule written out from LU^-1 b
    cset = (random_set_I if family == "I" else random_set_II)(seed, n)
    op = CellOperator(cset)
    x0 = np.random.default_rng(seed).normal(size=n)
    x0 -= np.mean(x0)
    cases = [(np.zeros(n), n, True)]
    cases += [(op.apply(x0, adjoint), 0.0, adjoint)
              for adjoint in (False, True)]
    for rhs, total, adjoint in cases:
        assert np.array_equal(op.solve(rhs, total, adjoint),
                              refine_two_corrections(op, rhs, total, adjoint))


# ---------------------------------------------------------------------------
# drift centering (both families)
# ---------------------------------------------------------------------------


def _shifted(cset, name, c):
    """cset with the drift field ``name`` raised by the constant c."""
    drift = getattr(cset, name)
    return cset.with_fields(**{name: PeriodicField(cset.grid, drift.values + c)})


def _centering_bias(cset, name):
    if name == "b":
        m, _ = solve_invariant_density_I(CellOperator(cset))
    else:
        m, _ = solve_invariant_density_II(CellOperator(cset))
    return float(np.sum(getattr(cset, name).values * m.values) * cset.grid.h)


_CELL_QUANTITIES = {
    "b": (center_drift_I, solve_cell_I, ("Q", "Q_alt", "Q1")),
    "d": (center_drift_II, solve_cell_II,
          ("delta_bar_alpha", "g_bar", "f_bar", "sigma_bar")),
}


def _assert_centering_matches_fixed_point(fixture, name, drift_tol=1e-13):
    """Newton and fixed-point centering from the fixture's drift raised by
    0.05 land on the fixture's drift, with the same cell quantities.

    The fixed-point oracle ends on the rounding floor of the bias; Newton
    ends on its first sweep with |bias| <= 0.5e-13, which on the named
    fixtures is the floor too.  On random sets that sweep can land
    anywhere below 0.5e-13, so ``drift_tol=None`` takes the bound that the
    stop itself gives: a drift off the root by a constant dc has the bias
    dc dB/dc, so two drifts that pass the stop, with biases measured to the
    1e-14 floor of n = 128, sit at most 2.2e-13 / |dB/dc| apart (|dB/dc|,
    a finite difference here, falls to 0.87 on random sets).
    """
    center, solve, quantities = _CELL_QUANTITIES[name]
    start = _shifted(fixture, name, 0.05)
    got = center(start)
    ref = center_drift_fixed_point(start, name)
    drift = getattr(ref, name).values
    bound = drift_tol
    if bound is None:
        bias_ref = _centering_bias(ref, name)
        shifted = _centering_bias(_shifted(ref, name, -1e-6), name)
        bound = 2.2e-13 / abs((shifted - bias_ref) / 1e-6)
    for cset in (got, fixture):
        assert abs(_centering_bias(cset, name)) <= 1e-13
        assert np.max(np.abs(getattr(cset, name).values - drift)) <= bound
    sol, sol_ref = solve(got), solve(ref)
    for q in quantities:
        value, reference = getattr(sol, q), getattr(sol_ref, q)
        assert abs(value - reference) <= 1e-12 * abs(reference), q


@pytest.mark.parametrize("build, name", [
    (lambda: varcoef_1(512), "b"),
    (lambda: random_set_I(0), "b"),
    (lambda: stable_1(512), "d"),
    (lambda: random_set_II(0), "d"),
], ids=["varcoef-1", "random-I", "stable-1", "random-II"])
def test_centering_fixtures_match_fixed_point(build, name):
    _assert_centering_matches_fixed_point(build(), name)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
# a stop at the contract's 1e-13 read up to 1.024e-13 on a direct solve
# for these seeds' fixtures (and for 5742's re-centering)
@example(seed=860)
@example(seed=1604)
@example(seed=1789)
@example(seed=1817)
@example(seed=1865)
@example(seed=5742)
def test_centering_random_sets_match_fixed_point(seed):
    _assert_centering_matches_fixed_point(random_set_I(seed, 128), "b", None)
    _assert_centering_matches_fixed_point(random_set_II(seed, 128), "d", None)


def test_centering_density_matches_independent_oracles():
    cset, m, op = fixtures._center_drift(
        _shifted(varcoef_1(256), "b", 0.05), "b",
        cell.solve_invariant_density_I)
    ref = invariant_density_power_iteration(cset).values
    assert np.max(np.abs(m.values - ref)) <= 1e-10 * np.max(ref)
    assert op.cset is cset
    _assert_applies_generator(op, assemble_torus_generator_I(cset).matrix)

    cset, m1, op = fixtures._center_drift(
        _shifted(stable_1(128), "d", 0.05), "d",
        cell.solve_invariant_density_II)
    ref = null_space(assemble_torus_generator_II(cset).matrix.T)[:, 0]
    ref = ref / (np.sum(ref) * cset.grid.h)
    assert np.max(np.abs(m1.values - ref)) <= 1e-10 * np.max(ref)
    assert op.cset is cset
    _assert_applies_generator(op, assemble_torus_generator_II(cset).matrix)


def _assert_applies_generator(op, A):
    """op.apply acts as the dense generator A in both orientations, to
    1e-13 of its largest entry, on the unit vectors (the rows of the
    identity)."""
    eye = np.eye(A.shape[0])
    for adjoint, ref in ((False, A), (True, A.T)):
        assert np.max(np.abs(op.apply(eye, adjoint).T - ref)) \
            <= 1e-13 * np.max(np.abs(ref))


def _count_calls(monkeypatch, build, names):
    """Calls of the ``cell`` functions ``names`` while ``build`` runs, per
    name."""
    calls = dict.fromkeys(names, 0)
    with monkeypatch.context() as patch:
        for name in names:
            original = getattr(cell, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            patch.setattr(cell, name, counting)
        build()
    return calls


_DENSITIES = ("solve_invariant_density_I", "solve_invariant_density_II")


def _count_sweeps(monkeypatch, build):
    """Invariant-density solves while ``build`` runs: one per sweep."""
    return sum(_count_calls(monkeypatch, build, _DENSITIES).values())


@pytest.mark.parametrize("build", [
    lambda: varcoef_1.__wrapped__(64),
    lambda: stable_1.__wrapped__(64),
    lambda: random_set_II(3, 64),
], ids=["varcoef-1", "stable-1", "random-II"])
def test_centering_factors_once_per_centering(monkeypatch, build):
    # the first sweep factors its generator; the later two solve on that LU
    # by defect correction, and stable-1's h3 uses the last sweep's operator
    # without a new LU; no kernel quadrature, so no z-symbols
    calls = _count_calls(monkeypatch, build,
                         _DENSITIES + ("dgbtrf", "_z_symbols"))
    sweeps = calls["solve_invariant_density_I"] \
        + calls["solve_invariant_density_II"]
    assert sweeps == 3
    assert (calls["dgbtrf"], calls["_z_symbols"]) == (1, 0)


def _large_shift_set(d0, alpha):
    """A stable set on TorusGrid(128) whose drift d = d0 + 0.3 sin 2 pi y
    has a large mean, so its centering moves far from c = 0."""
    grid = TorusGrid(128)
    zero = PeriodicField(grid, np.zeros(grid.n))
    return CoefficientSetII(
        delta=field_from_function(grid, lambda y: 1.0 + 0.3 * np.cos(TWO_PI * y)),
        d=field_from_function(grid, lambda y: d0 + 0.3 * np.sin(TWO_PI * y)),
        g=zero, e=zero, f=zero, sigma=PeriodicField(grid, np.ones(grid.n)),
        alpha=alpha, name="large-shift",
    )


def _center_drift_direct(cset, name, density):
    """Newton centering with its own assembly and LU in every sweep: the
    same iteration as ``fixtures._center_drift``, solved directly."""
    b0 = getattr(cset, name).values
    h = cset.grid.h
    c = 0.0
    current = cset
    for _ in range(40):
        op = CellOperator(current)
        m, _ = density(op)
        b = getattr(current, name).values
        bias = float(np.sum(b * m.values) * h)
        if abs(bias) <= 1e-13:
            return current
        dm = op.solve(-m.derivative(1).values, adjoint=True)
        c -= bias / (float(np.sum(b * dm) * h) - 1.0)
        current = current.with_fields(
            **{name: PeriodicField(cset.grid, b0 - c)})
    raise RuntimeError("direct centering did not converge")


@pytest.mark.parametrize("d0, alpha", [(2.0, 0.6), (5.0, 0.9), (20.0, 1.5)])
def test_centering_large_shift_refactors(monkeypatch, d0, alpha):
    # defect correction from c = 0 does not contract for drift means this
    # large, so a sweep factors its own generator and the centering goes on
    # from that LU
    cset = _large_shift_set(d0, alpha)
    got = []
    calls = _count_calls(monkeypatch, lambda: got.append(center_drift_II(cset)),
                         ("dgbtrf",))
    ref = _center_drift_direct(cset, "d", solve_invariant_density_II)
    assert calls["dgbtrf"] >= 2
    assert np.max(np.abs(got[0].d.values - ref.d.values)) <= 1e-12
    assert abs(_centering_bias(got[0], "d")) <= 1e-13


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_centering_by_refinement_matches_fixed_point(seed):
    # the fixed-point oracle starts from the centered drift raised by 0.05
    for build, name, solve in ((random_set_I, "b", solve_cell_I),
                               (random_set_II, "d", solve_cell_II)):
        got = build(seed, 64)
        ref = center_drift_fixed_point(_shifted(got, name, 0.05), name)
        assert np.max(np.abs(getattr(got, name).values
                             - getattr(ref, name).values)) <= 1e-12
        sol = solve(got)
        density = sol.m if name == "b" else sol.m1
        bias = np.sum(getattr(got, name).values * density.values) * got.grid.h
        assert abs(bias) <= 1e-12


@pytest.mark.parametrize("build, solve, z_builds", [
    (const_1, solve_cell_I, 1),
    (lambda: varcoef_1(64), solve_cell_I, 1),
    (lambda: random_set_I(0, 64), solve_cell_I, 1),
    (lambda: stable_1(64), solve_cell_II, 0),
    (lambda: random_set_II(3, 64), solve_cell_II, 0),
], ids=["const-1", "varcoef-1", "random-I", "stable-1", "random-II"])
def test_cell_chain_factors_once(monkeypatch, build, solve, z_builds):
    cset = build()
    calls = _count_calls(monkeypatch, lambda: solve(cset),
                         ("dgbtrf", "_z_symbols"))
    assert calls == {"dgbtrf": 1, "_z_symbols": z_builds}


def test_one_assembly_per_factorization(monkeypatch):
    # a chain, and stable-1's centering with h3 on its last sweep's
    # operator, assemble their generator's terms once, as the input of their
    # one banded LU: a later sweep replaces the drift term's field, and no
    # dense Bloch block is built
    built = []
    multiplier_matrix = torus._multiplier_matrix
    monkeypatch.setattr(torus, "_multiplier_matrix", lambda column, p: (
        built.append(p), multiplier_matrix(column, p))[1])
    cset_I, cset_II = varcoef_1(64), random_set_II(3, 64)
    names = ("dgbtrf", "assemble_torus_generator_I",
             "assemble_torus_generator_II")
    for build in (lambda: stable_1.__wrapped__(64),
                  lambda: solve_cell_I(cset_I),
                  lambda: solve_cell_II(cset_II)):
        calls = _count_calls(monkeypatch, build, names)
        assert calls["dgbtrf"] == 1 and built == []
        assert calls["assemble_torus_generator_I"] \
            + calls["assemble_torus_generator_II"] == 1


@pytest.mark.parametrize("n", [64, 256, 512])
def test_centering_takes_few_sweeps(monkeypatch, n):
    # the fixed-point sweep took 7 (varcoef-1) and 10 (stable-1)
    assert _count_sweeps(monkeypatch, lambda: varcoef_1.__wrapped__(n)) <= 4
    assert _count_sweeps(
        monkeypatch, lambda: stable_1.__wrapped__(n)) <= 4


def test_centering_sweep_count_independent_of_resolution(monkeypatch):
    counts = [_count_sweeps(monkeypatch, lambda: varcoef_1.__wrapped__(n))
              for n in (64, 128, 256, 512, 1024)]
    assert counts == [counts[0]] * 5


def test_centering_stop_clears_the_rounding_floor(monkeypatch):
    # varcoef_1(1024)'s centered drift shifted by k x 2e-16 re-solves to
    # |int b m| up to 1.4e-13, above the 1e-13 tolerance in 3 of 24 shifts,
    # which then took a sweep on rounding alone; the stop sits above that
    # rounding floor, so every shift stops on its first sweep
    v = varcoef_1(1024)
    for k in range(-12, 12):
        start = _shifted(v, "b", k * 2e-16)
        assert _count_sweeps(monkeypatch, lambda: center_drift_I(start)) \
            == 1, k


@pytest.mark.parametrize("center, build, name", [
    (center_drift_I, lambda: varcoef_1(64), "b"),
    (center_drift_II, lambda: stable_1(64), "d"),
], ids=["I", "II"])
def test_centering_reports_last_bias(monkeypatch, center, build, name):
    monkeypatch.setattr(fixtures, "_CENTER_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="last bias"):
        center(_shifted(build(), name, 0.05))
