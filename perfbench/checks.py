"""Correctness checks of the benchmark, computed apart from the program.

Every check returns a list of problems (empty when the output passes), so
the benchmark can count failed operations and the tests in
``test_checks.py`` can show that each check rejects a wrong input.  The
references are closed forms, properties the method must have, or
quantities the benchmark computes with its own FFT code; none is a stored
copy of an earlier output.
"""

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# ---------------------------------------------------------------------------
# cell problems
# ---------------------------------------------------------------------------

Q_ROUTES_RTOL = 1e-8
CENTERING_TOL = 1e-12
CLOSED_FORM_TOL = 1e-10


def _torus_integral(values):
    values = np.asarray(values, dtype=float)
    return float(np.sum(values) / values.size)


def cell_I_problems(sol):
    """Q = Q_alt = Q1 to 1e-8 relative, m > 0, |int b m| <= 1e-12."""
    out = []
    for label, q in (("Q_alt", sol.Q_alt), ("Q1", sol.Q1)):
        gap = abs(q - sol.Q) / abs(sol.Q)
        if not gap <= Q_ROUTES_RTOL:
            out.append("%s: |%s - Q|/Q = %.3g" % (sol.cset.name, label, gap))
    if not np.min(sol.m.values) > 0.0:
        out.append("%s: m not positive" % sol.cset.name)
    bias = _torus_integral(sol.cset.b.values * sol.m.values)
    if not abs(bias) <= CENTERING_TOL:
        out.append("%s: int b m = %.3g" % (sol.cset.name, bias))
    return out


def const_I_problems(sol):
    """Constant coefficients with the box kernel: Q = Q_alt = Q1 = 4/3."""
    out = []
    for label, q in (("Q", sol.Q), ("Q_alt", sol.Q_alt), ("Q1", sol.Q1)):
        if not abs(q - 4.0 / 3.0) <= CLOSED_FORM_TOL:
            out.append("const-1: %s - 4/3 = %.3g" % (label, q - 4.0 / 3.0))
    return out


def cross_resolution_problems(q_fine, q_coarse):
    """The same smooth set gives the same Q on two grids."""
    if abs(q_fine - q_coarse) <= CLOSED_FORM_TOL:
        return []
    return ["Q differs across resolutions by %.3g" % (q_fine - q_coarse)]


def cell_II_problems(sol):
    """m1 > 0 and |int d m1| <= 1e-12."""
    out = []
    if not np.min(sol.m1.values) > 0.0:
        out.append("%s: m1 not positive" % sol.cset.name)
    bias = _torus_integral(sol.cset.d.values * sol.m1.values)
    if not abs(bias) <= CENTERING_TOL:
        out.append("%s: int d m1 = %.3g" % (sol.cset.name, bias))
    return out


def zero_drift_II_problems(sol):
    """With d = 0, L* m1 = 0 reads (-Delta)^(alpha/2) (delta^alpha m1) = 0,
    so m1 = delta^-alpha / int delta^-alpha and the averaged stable
    coefficient is 1 / int delta^-alpha."""
    cset = sol.cset
    w = cset.delta.values ** (-cset.alpha)
    mass = _torus_integral(w)
    out = []
    gap = float(np.max(np.abs(sol.m1.values - w / mass)))
    if not gap <= CLOSED_FORM_TOL:
        out.append("%s: m1 differs from delta^-alpha/int by %.3g"
                   % (cset.name, gap))
    gap = abs(sol.delta_bar_alpha - 1.0 / mass)
    if not gap <= CLOSED_FORM_TOL:
        out.append("%s: delta_bar_alpha differs from 1/int delta^-alpha by"
                   " %.3g" % (cset.name, gap))
    return out


# ---------------------------------------------------------------------------
# line operators, assembled by the benchmark with its own FFTs
# ---------------------------------------------------------------------------


def cell_trace(field, n, p):
    """Samples of a torus field at y = x/eps mod 1 on a line grid with p
    points per eps-cell whose left edge is a cell boundary.  Those points
    are torus grid points, so the trace is an exact subsample."""
    N = field.grid.n
    if N % p:
        raise ValueError("torus grid n=%d is not a multiple of %d" % (N, p))
    return field.values[(np.arange(n) % p) * (N // p)]


def _symbols(grid, alpha=None):
    f = np.fft.fftfreq(grid.n, d=grid.dx)
    d1 = 2j * np.pi * f
    d1[grid.n // 2] = 0.0
    d2 = -(2.0 * np.pi * f) ** 2
    frac = None if alpha is None else np.abs(2.0 * np.pi * f) ** alpha
    return d1, d2, frac


def line_generator_I(cset, eps, grid):
    """Dense T_eps = a u'' + (1/e) b u' + (1/e^2) lambda (K * u - a1 u),
    built column by column from FFT multipliers and the wrapped kernel."""
    n, dx, L = grid.n, grid.dx, grid.half_width
    p = int(round(n * eps / (2.0 * L)))
    a = cell_trace(cset.a, n, p)
    b = cell_trace(cset.b, n, p)
    lam = cell_trace(cset.lam, n, p)
    w = dx * np.arange(n)
    K = np.zeros(n)
    R = cset.kernel.truncation_radius
    reach = int(np.ceil((eps * R + 2.0 * L) / (2.0 * L)))
    for k in range(-reach, reach + 1):
        z = (w + 2.0 * L * k) / eps
        inside = np.abs(z) <= R
        K[inside] += cset.kernel.evaluate(z[inside]) / eps
    a1 = float(np.sum(K) * dx)
    d1, d2, _ = _symbols(grid)
    U = np.fft.fft(np.eye(n), axis=0)
    D1 = np.fft.ifft(d1[:, None] * U, axis=0).real
    D2 = np.fft.ifft(d2[:, None] * U, axis=0).real
    C = np.fft.ifft(np.fft.fft(K)[:, None] * U, axis=0).real * dx
    C[np.diag_indices(n)] -= a1
    return a[:, None] * D2 + (b / eps)[:, None] * D1 \
        + (lam / eps ** 2)[:, None] * C


def line_generator_II(cset, eps, grid):
    """Dense V_eps = -delta^alpha (-Dx)^(alpha/2) + (e^(1-alpha) d + g) Dx
    + (f - e^-alpha e), from FFT multipliers."""
    n, L = grid.n, grid.half_width
    p = int(round(n * eps / (2.0 * L)))
    alpha = cset.alpha
    da = cell_trace(cset.delta, n, p) ** alpha
    drift = eps ** (1.0 - alpha) * cell_trace(cset.d, n, p) \
        + cell_trace(cset.g, n, p)
    zero = cell_trace(cset.f, n, p) - cell_trace(cset.e, n, p) / eps ** alpha
    d1, _, frac = _symbols(grid, alpha)
    U = np.fft.fft(np.eye(n), axis=0)
    F = np.fft.ifft(frac[:, None] * U, axis=0).real
    D1 = np.fft.ifft(d1[:, None] * U, axis=0).real
    V = -da[:, None] * F + drift[:, None] * D1
    V[np.diag_indices(n)] += zero
    return V


def constants_problems(label, op_matrix, zero_order=None):
    """A generator annihilates constants; with a zero-order term f the
    image of the constant one is f itself.  The tolerance is rounding of
    a row sum: n unit roundoffs of the largest entry."""
    ones = np.ones(op_matrix.shape[0])
    image = op_matrix @ ones
    if zero_order is not None:
        image = image - zero_order
    scale = float(np.max(np.abs(op_matrix)))
    worst = float(np.max(np.abs(image)))
    tol = op_matrix.shape[0] * np.finfo(float).eps * scale
    if worst <= tol:
        return []
    return ["%s maps constants to %.3g (tolerance %.3g)" % (label, worst, tol)]


# ---------------------------------------------------------------------------
# residual sweeps
# ---------------------------------------------------------------------------

HALVING_BAND = (0.45, 0.55)


def halving_problems(label, coarse, fine):
    """First-order convergence: halving eps halves the residual."""
    ratio = fine / coarse
    lo, hi = HALVING_BAND
    if np.isfinite(ratio) and lo <= ratio <= hi:
        return []
    return ["%s: residual ratio %.4g outside [%g, %g] (%.4g -> %.4g)"
            % (label, ratio, lo, hi, coarse, fine)]


def decrease_problems(label, coarse, fine):
    """Residual decreases as eps decreases."""
    if np.isfinite(fine) and 0.0 <= fine < coarse:
        return []
    return ["%s: residual %.4g does not drop below %.4g" % (label, fine, coarse)]


def dissipativity_problems(label, worst):
    """The weighted quadratic form of a jump-plus-drift part is <= 0."""
    if worst <= 0.0:
        return []
    return ["%s: weighted form reaches %.3g > 0" % (label, worst)]


# ---------------------------------------------------------------------------
# paired SPDE ensembles
# ---------------------------------------------------------------------------

PAIRING_RTOL = 1e-10
STEP_RTOL = 1e-10
Z_LIMIT = 4.0


def path_increments(seed, path, n_steps, dt):
    """Increments of path ``path``: the documented stream (seed, path)."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(path), 0))
    return np.random.default_rng(seq).standard_normal(n_steps) * np.sqrt(dt)


def increment_problems(het, hom, seed, dt):
    """Shared noise: both sides consume the stream (seed, j) of path j."""
    for ph, pm in zip(het, hom):
        ref = path_increments(seed, ph.path_index, ph.increments.size, dt)
        if not (np.array_equal(ph.increments, pm.increments)
                and np.array_equal(ph.increments, ref)):
            return ["path %d: increments differ between the sides or from "
                    "stream (seed, %d)" % (ph.path_index, ph.path_index)]
    return []


def heat_flow_gauss(x, width, Q, t):
    """Closed-form flow of exp(-x^2 / (2 w^2)) under Q d^2/dx^2."""
    s2 = width ** 2 + 2.0 * Q * t
    return np.sqrt(width ** 2 / s2) * np.exp(-x ** 2 / (2.0 * s2))


def stable_flow(u0, grid, alpha, dba, g_bar, f_bar, t):
    """Flow of -dba (-Dx)^(alpha/2) + g_bar Dx + f_bar by a complex FFT."""
    omega = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    sym = -dba * np.abs(omega) ** alpha + 1j * g_bar * omega + f_bar
    return np.fft.ifft(np.fft.fft(u0) * np.exp(t * sym)).real


def _step_index(path):
    """Step number of each recorded time of a path record."""
    dt = path.times[-1] / path.increments.size
    return np.rint(path.times / dt).astype(int)


def homogenized_pairing_problems(hom, flows, xi, dx, sigma_bar):
    """Each homogenized pairing equals <S_t u0, xi> prod_k (1 + s dW_k).

    ``flows`` holds S_t u0 at each recorded time.  The tolerance is
    relative to the largest pairing of the battery at that time, since
    odd test functions pair to zero with an even profile.
    """
    ref = (flows @ xi.T) * dx  # (n_rec, n_xi)
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    for p in hom:
        growth = np.concatenate([[1.0], np.cumprod(1.0 + sigma_bar
                                                   * p.increments)])
        growth = growth[_step_index(p)]
        gap = np.abs(p.pairings - ref * growth[:, None])
        if not np.all(gap <= PAIRING_RTOL * scale * np.abs(growth)[:, None]):
            return ["path %d: homogenized pairing off by %.3g relative"
                    % (p.path_index,
                       float(np.max(gap / (scale * np.abs(growth)[:, None]))))]
    return []


def heterogeneous_step_problems(het, T, dt, sigma_trace):
    """(I - dt T) u_{k+1} = u_k (1 + sigma(x/eps) dW_k) for each recorded
    consecutive pair of snapshots, with the benchmark's own T."""
    worst = 0.0
    for p in het:
        if p.snapshots is None:
            continue
        steps = _step_index(p)
        for k in np.flatnonzero(np.diff(steps) == 1):
            u0, u1 = p.snapshots[k], p.snapshots[k + 1]
            rhs = u0 * (1.0 + sigma_trace * p.increments[steps[k]])
            res = u1 - dt * (T @ u1) - rhs
            worst = max(worst, float(np.linalg.norm(res) / np.linalg.norm(rhs)))
    if worst <= STEP_RTOL:
        return []
    return ["heterogeneous step residual %.3g relative" % worst]


def resolvent_lu(T, dt):
    """LU factors of I - dt T, for the deterministic mean path."""
    return lu_factor(np.eye(T.shape[0]) - dt * T)


def mean_gap_problems(het, hom, lu, u0, flow_T, xi, dx):
    """Mean pairing gap at T_end against its expectation.

    The noise factor of each step has mean one and is independent of the
    state it multiplies, so E u_het(T) = (I - dt T)^-N u0 and
    E u_hom(T) = S_T u0.  The sample gap of the paired pairings must lie
    within four standard errors of the paired differences around that
    deterministic gap, which is the homogenization error of the run.
    ``lu`` factors I - dt T.
    """
    n_steps = het[0].increments.size
    mean_het = u0.copy()
    for _ in range(n_steps):
        mean_het = lu_solve(lu, mean_het)
    expected = ((mean_het - flow_T) @ xi.T) * dx
    diffs = np.stack([ph.pairings[-1] - pm.pairings[-1]
                      for ph, pm in zip(het, hom)])
    gap = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / np.sqrt(diffs.shape[0])
    z = np.abs(gap - expected) / np.maximum(se, 1e-300)
    if np.all(z <= Z_LIMIT):
        return []
    return ["mean pairing gap %s vs expected %s (z up to %.2f)"
            % (np.array2string(gap, precision=4),
               np.array2string(expected, precision=4), float(z.max()))]


# ---------------------------------------------------------------------------
# particles
# ---------------------------------------------------------------------------


def z_problems(label, estimate, reference, se):
    z = abs(estimate - reference) / se
    if z <= Z_LIMIT:
        return []
    return ["%s: %.6g vs %.6g is %.2f standard errors away"
            % (label, estimate, reference, z)]


def characteristic_problems(label, x, thetas, reference):
    """Empirical E cos / E sin of theta x against ``reference(theta)``
    (a pair (cos part, sin part)), within four standard errors each."""
    out = []
    n = x.size
    for th in thetas:
        ref_cos, ref_sin = reference(th)
        for part, vals, ref in (("cos", np.cos(th * x), ref_cos),
                                ("sin", np.sin(th * x), ref_sin)):
            if ref is None:
                continue
            se = vals.std(ddof=1) / np.sqrt(n)
            out += z_problems("%s E %s(%g x)" % (label, part, th),
                              float(vals.mean()), ref, se)
    return out


def truncation_problems(label, count, n_paths):
    if count <= n_paths:
        return []
    return ["%s: %d clipped stable increments > %d paths"
            % (label, count, n_paths)]
