"""Particle simulation: stable sampler, thinned jump-diffusion, Q oracle."""

import dataclasses
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.special import gamma as gamma_fn

from field_oracle import evaluate
from nlhom import lineops as lo
from nlhom import particles as pm
from nlhom.cell import solve_cell_I, solve_cell_II
from nlhom.coefficients import CoefficientSetI
from nlhom.fixtures import coefficient_set_by_name, stable_1
from nlhom.kernels import IntegrableKernel, box_kernel
from nlhom.torus import (PeriodicField, TorusGrid, field_from_function,
                         fractional_symbol)


# ---------------------------------------------------------------------------
# reference material
# ---------------------------------------------------------------------------


def stable_cdf_oracle(alpha, x_eval, window=50.0, t_max=60.0):
    """Reference CDF of the standard symmetric alpha-stable law.

    Gil-Pelaez inversion F(x) = 1/2 + (1/pi) int_0^inf sin(x t)
    exp(-t^alpha)/t dt, evaluated on a grid over [-window, window] with a
    power substitution near t = 0 (the characteristic function has a t^alpha
    kink there) and Simpson panels elsewhere, then interpolated; beyond the
    window the two-term tail series 1 - F(x) = (1/pi) sum_k (-1)^(k-1)
    Gamma(alpha k)/k! sin(k pi alpha/2) x^(-alpha k) takes over.

    The grid's x are uniform with step h, so each block of B = 128 nodes
    takes its sines by angle addition from the block's anchor x_b:
    sin((x_b + j h) t) = sin(x_b t) cos(j h t) + cos(x_b t) sin(j h t).
    The cos(j h t) and sin(j h t) tables serve every block, so the libm
    sines and cosines run over (B + number of blocks) rows of quadrature
    nodes instead of one row per x, and the quadrature becomes two matrix
    products.

    Entirely independent of the Chambers-Mallows-Stuck sampler under test.
    """

    def simpson_weights(n_nodes, h):
        w = np.ones(n_nodes)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (h / 3.0)

    xs = np.linspace(-window, window, 6145)
    # t in [0, 1] via t = s^q so the integrand is smooth at the origin
    q = max(2.0, 4.0 / alpha)
    s = np.linspace(0.0, 1.0, 2001)
    t_lo = s**q
    # t in [1, t_max]
    t_hi = np.linspace(1.0, t_max, 30001)

    # integral(x) = sum_k c_k sin(x t_k) over both node sets; the s = 0
    # node contributes 0 (sin(x s^q)/s ~ x s^(q-1) -> 0 since q >= 2)
    w_lo = simpson_weights(s.size, s[1] - s[0])
    w_hi = simpson_weights(t_hi.size, t_hi[1] - t_hi[0])
    c_lo = np.zeros_like(s)
    c_lo[1:] = q * np.exp(-(s[1:] ** (q * alpha))) * w_lo[1:] / s[1:]
    c_hi = np.exp(-(t_hi**alpha)) / t_hi * w_hi
    t = np.concatenate([t_lo, t_hi])
    c = np.concatenate([c_lo, c_hi])

    block = 128
    offsets = np.outer(np.arange(block) * (xs[1] - xs[0]), t)
    anchors = np.outer(xs[::block], t)
    integral = (np.cos(offsets) @ (np.sin(anchors) * c).T
                + np.sin(offsets) @ (np.cos(anchors) * c).T)
    F = 0.5 + integral.T.ravel()[:xs.size] / np.pi

    def tail(y):
        # upper-tail probability, two-term Bergstroem series
        out = np.zeros_like(y)
        for k in (1, 2):
            out += ((-1) ** (k - 1) * gamma_fn(alpha * k) / gamma_fn(k + 1)
                    * np.sin(0.5 * k * np.pi * alpha) * y ** (-alpha * k))
        return out / np.pi

    x_eval = np.asarray(x_eval, dtype=float)
    out = np.interp(np.clip(x_eval, -window, window), xs, F)
    hi = x_eval > window
    lo_mask = x_eval < -window
    out[hi] = 1.0 - tail(x_eval[hi])
    out[lo_mask] = tail(-x_eval[lo_mask])
    return out


def _const_field(grid, value):
    return field_from_function(grid, lambda y: np.full_like(y, value))


def _diffusion_only_set(a_value=1.0):
    grid = TorusGrid(64)
    lam = 1e-12
    return CoefficientSetI(
        a=_const_field(grid, a_value),
        b=_const_field(grid, 0.0),
        lam=_const_field(grid, lam),
        sigma=_const_field(grid, 1.0),
        kernel=box_kernel(),
        kappa=min(a_value, 1.0 / a_value),
        alpha1=lam,
        alpha2=lam,
        name="diffusion-only",
    )


def _jump_only_set(lam_value=2.0, lam_bound=None):
    grid = TorusGrid(64)
    return CoefficientSetI(
        a=_const_field(grid, 1e-12),
        b=_const_field(grid, 0.0),
        lam=_const_field(grid, lam_value),
        sigma=_const_field(grid, 1.0),
        kernel=box_kernel(),
        kappa=1e-12,
        alpha1=lam_value,
        alpha2=lam_bound if lam_bound is not None else lam_value,
        name="jump-only",
    )


@pytest.fixture(scope="module")
def varcoef():
    cset = coefficient_set_by_name("varcoef-1")
    return cset, solve_cell_I(cset)


@pytest.fixture(scope="module")
def stable():
    cset = coefficient_set_by_name("stable-1")
    return cset, solve_cell_II(cset)


# ---------------------------------------------------------------------------
# stable increment sampler
# ---------------------------------------------------------------------------


def test_stable_ecf_and_median():
    g = pm._rng(101, 0)
    draws, _ = pm._stable_draws(1.5, 10**6, g)
    # characteristic function at theta = 1 is exp(-1)
    c = np.cos(draws)
    se = c.std(ddof=1) / np.sqrt(c.size)
    assert abs(c.mean() - np.exp(-1.0)) <= 3 * se
    # symmetry: median 0, SE via the density at 0, f(0) = Gamma(1+1/alpha)/pi
    f0 = gamma_fn(1.0 + 1.0 / 1.5) / np.pi
    se_med = 1.0 / (2.0 * f0 * np.sqrt(draws.size))
    assert abs(np.median(draws)) <= 3 * se_med


def test_stable_self_similarity():
    # an increment over dt = 2, the sum of two independent unit draws,
    # matches unit draws scaled by 2^(1/alpha)
    n = 10**5
    alpha = 1.3
    pairs, _ = pm._stable_draws(alpha, 400, pm._rng(7, 0))
    over_two = pairs.reshape(200, 2).sum(axis=1)
    unit, _ = pm._stable_draws(alpha, n, pm._rng(7, 1))
    scaled = 2.0 ** (1.0 / alpha) * unit
    res = stats.ks_2samp(over_two, scaled)
    assert res.pvalue > 0.01
    # same comparison at full sample size
    bulk, _ = pm._stable_draws(alpha, 2 * n, pm._rng(7, 2))
    res2 = stats.ks_2samp(bulk.reshape(n, 2).sum(axis=1), scaled)
    assert res2.statistic < 1.63 * np.sqrt(2.0 / n)  # 1% two-sample critical


def test_stable_alpha_one_is_cauchy():
    g = pm._rng(5, 0)
    draws, _ = pm._stable_draws(1.0, 10**5, g)
    ks = stats.kstest(draws, stats.cauchy.cdf)
    assert ks.pvalue > 0.01


def _clipped_draws(alpha, size, rng, truncation):
    """``pm._stable_draws`` with the clip magnitude set to ``truncation``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pm, "_TRUNCATION", truncation)
        return pm._stable_draws(alpha, size, rng)


def test_stable_truncation_counted():
    g = pm._rng(11, 0)
    draws, clipped = _clipped_draws(0.8, 10**4, g, 3.0)
    assert clipped > 0
    assert np.abs(draws).max() <= 3.0


def test_rng_stream_reproducible_and_independent():
    a = pm._rng(42, 1).normal(size=5)
    b = pm._rng(42, 1).normal(size=5)
    c = pm._rng(42, 2).normal(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# jump-diffusion and the Q oracle
# ---------------------------------------------------------------------------


def test_pure_diffusion_variance():
    q_hat, se = pm.estimate_Q_monte_carlo(
        _diffusion_only_set(), 0.5, 2.0, 4000, seed=21
    )
    assert se > 0
    assert abs(q_hat - 1.0) <= 3 * se


def test_pure_jump_variance_matches_compound_poisson():
    cset = _jump_only_set(lam_value=2.0)
    # independent route: a compound Poisson path with rate lam*a1/eps^2 and
    # jumps eps*Z has Var(x_T) = rate * E[(eps Z)^2] * T = lam * s2 * T,
    # so Var/(2T) = lam*s2/2 -- the eps-dependence cancels exactly.
    target = 2.0 * cset.kernel.s2 / 2.0
    assert abs(target - 1.0 / 3.0) < 1e-12
    q_hat, se = pm.estimate_Q_monte_carlo(cset, 0.5, 2.0, 4000, seed=22)
    assert abs(q_hat - target) <= 3 * se


def test_const_set_q_and_se_scaling():
    cset = coefficient_set_by_name("const-1")
    q_hat, se = pm.estimate_Q_monte_carlo(cset, 0.5, 2.0, 4000, seed=23)
    assert abs(q_hat - 4.0 / 3.0) <= 3 * se
    _, se_half = pm.estimate_Q_monte_carlo(cset, 0.5, 2.0, 2000, seed=24)
    ratio = se / se_half
    assert abs(ratio - 1.0 / np.sqrt(2.0)) <= 0.2 * (1.0 / np.sqrt(2.0))


def test_varcoef_q_brackets_cell_value(varcoef):
    cset, cell = varcoef
    q_hat, se = pm.estimate_Q_monte_carlo(cset, 1.0 / 16.0, 2.0, 2500, seed=25)
    assert abs(q_hat - cell.Q) <= 3 * se
    assert se / cell.Q < 0.06


def test_dt_guard_and_intensity_bound():
    cset = _jump_only_set()
    with pytest.raises(ValueError, match="dt"):
        pm.simulate_jump_diffusion_I(cset, 0.5, 1.0, 0.1, 16, seed=1)
    # alpha2 at lambda's grid maximum admits the set, but lambda's
    # interpolant peaks between grid points, above alpha2
    grid = cset.grid
    lam = field_from_function(
        grid, lambda y: 1.0 + 0.3 * np.cos(2.0 * np.pi * (y - grid.h / 2)))
    over = cset.with_fields(lam=lam, alpha1=float(lam.values.min()),
                            alpha2=float(lam.values.max()))
    with pytest.raises(ValueError, match="intensity bound alpha2=1.29964 "
                                         "below max lambda=1.3;"):
        pm.simulate_jump_diffusion_I(over, 0.5, 1.0, 0.02, 16, seed=1)


def test_jump_diffusion_reproducible():
    cset = coefficient_set_by_name("const-1")
    kw = dict(eps=0.5, T_end=1.0, dt=0.02, n_paths=300, seed=77)
    a = pm.simulate_jump_diffusion_I(cset, **kw)
    b = pm.simulate_jump_diffusion_I(cset, **kw)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.jump_counts, b.jump_counts)
    c = pm.simulate_jump_diffusion_I(cset, eps=0.5, T_end=1.0, dt=0.02,
                                     n_paths=300, seed=78)
    assert not np.array_equal(a.positions, c.positions)


def test_table_samples_the_interpolant():
    # the padded-FFT table equals the oracle's evaluate at y = j / R
    v = coefficient_set_by_name("varcoef-1")
    s2 = coefficient_set_by_name("stable-2")
    fields = [v.a, v.a.derivative(1), v.b, v.lam, v.sigma, s2.delta, s2.d,
              coefficient_set_by_name("const-1").a]
    # a Nyquist cosine below, at and above the table resolution
    for n in (8, pm._TABLE_RESOLUTION, 2 * pm._TABLE_RESOLUTION):
        fields.append(field_from_function(
            TorusGrid(n), lambda x, n=n: np.cos(np.pi * n * x)
            + np.sin(6.0 * np.pi * x)))
    ys = np.linspace(0.0, 1.0, pm._TABLE_RESOLUTION + 1)
    table = pm._Tables(*[pm._cell_samples(field) for field in fields])
    assert table.value.shape == table.slope.shape == (len(fields), ys.size)
    for field, value, slope in zip(fields, table.value, table.slope):
        ref = evaluate(field, ys)
        assert value[-1] == value[0]
        assert np.max(np.abs(value - ref)) \
            <= 1e-13 * np.max(np.abs(ref)), field.grid.n
        assert np.array_equal(slope[:-1], np.diff(value))
        assert slope[-1] == slope[0]


def _padded_fft_table(field):
    """The table values as one zero-padded inverse real FFT on
    N = max(2n, R) points, the field's Nyquist bin halved, strided to R."""
    n, R = field.grid.n, pm._TABLE_RESOLUTION
    N = max(2 * n, R)
    spec = np.zeros(N // 2 + 1, dtype=complex)
    spec[:n // 2 + 1] = np.fft.rfft(field.values) * (N / n)
    spec[n // 2] *= 0.5
    vals = np.fft.irfft(spec, N)[::N // R]
    return np.append(vals, vals[0])


def test_table_is_the_padded_fft_table():
    # up to n = 4096 the shared sampler pads to the table's own 8192
    # points, so the tables (and every particle draw and position) are
    # bit-identical to the padded-FFT construction
    fields = []
    for n in (64, 256, 512):
        v = coefficient_set_by_name("varcoef-1", n=n)
        fields += [v.a, v.a.derivative(1), v.b, v.lam, v.sigma]
    for n in (256, 512):
        s2 = coefficient_set_by_name("stable-2", n=n)
        fields += [s2.delta, s2.d]
    fields.append(coefficient_set_by_name("const-1").a)
    rng = np.random.default_rng(5)
    for n in (8, 1024, 2048, 4096):
        fields.append(PeriodicField(TorusGrid(n), rng.standard_normal(n)))
    for field in fields:
        assert np.array_equal(pm._cell_samples(field),
                              _padded_fft_table(field)), field.grid.n
    v = coefficient_set_by_name("varcoef-1", n=512)
    table = pm._Tables(np.sqrt(2.0 * pm._cell_samples(v.a)) * 0.1,
                       pm._cell_samples(v.b))
    assert np.array_equal(table.value[0],
                          np.sqrt(2.0 * _padded_fft_table(v.a)) * 0.1)
    assert np.array_equal(table.value[1], _padded_fft_table(v.b))


def test_start_a_hair_left_of_a_cell_boundary():
    # x0 / eps = -1.6e-19 folds to y = 1.0 exactly, the table's end point
    cset = coefficient_set_by_name("varcoef-1")
    ens = pm.simulate_jump_diffusion_I(cset, 1 / 16, 1e-4, 1e-5, 4, seed=1,
                                       x0=-1e-20)
    assert np.isfinite(ens.positions).all()
    assert np.mod(-1e-20 * 16.0, 1.0) == 1.0
    idx, frac = pm._locate(np.array([-1e-20, 0.0]), 16.0)
    table = pm._Tables(pm._cell_samples(cset.a))
    at = table.at(idx, frac)[0]
    assert at[0] == at[1] == table.value[0, 0]


@given(seed=st.integers(0, 10_000), m=st.integers(0, 300),
       k=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_stacked_lookup_is_the_one_row_lookup(seed, m, k):
    # each row of a stacked lookup equals the one-field lookup it replaced
    # (two flat gathers, slope * frac + value) bit for bit
    rng = np.random.default_rng(seed)
    v = coefficient_set_by_name("varcoef-1")
    rows = [pm._cell_samples(f) * rng.uniform(0.1, 10.0)
            for f in (v.a, v.b, v.a.derivative(1))[:k]]
    table = pm._Tables(*rows)
    x = rng.uniform(-3.0, 3.0, m)
    x[:m // 4] = -1e-20  # the y == 1.0 round-up reads the wrapped entry
    idx, frac = pm._locate(x, 8.0)
    got = table.at(idx, frac)
    assert got.shape == (k, m) and got.flags.c_contiguous
    for row, out in zip(rows, got):
        slope = np.append(np.diff(row), row[1] - row[0])
        one = np.take(slope, idx)
        one *= frac
        one += np.take(row, idx)
        assert np.array_equal(out, one)


@given(s=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
def test_locate_fold_is_np_mod(s):
    # idx + frac = y * resolution exactly (floor splits are exact and the
    # resolution is a power of two), so this compares the fold bit for bit
    x = np.array([s, -s, s * 1e-20, -s * 1e-20])
    idx, frac = pm._locate(x, 1.0)
    assert ((0 <= frac) & (frac < 1.0)).all()
    assert ((0 <= idx) & (idx <= pm._TABLE_RESOLUTION)).all()
    folded = (idx + frac) / pm._TABLE_RESOLUTION
    assert np.array_equal(folded.view(np.int64),
                          np.mod(x, 1.0).view(np.int64))


@given(seed=st.integers(0, 10_000),
       chunk=st.sampled_from([64, 100, 256, 1024]), extra=st.integers(1, 2))
@settings(max_examples=10, deadline=None)
def test_chunked_paths_extend_deterministically(seed, chunk, extra):
    # growing the ensemble by whole chunks must not disturb earlier chunks
    cset = coefficient_set_by_name("const-1")
    base = coefficient_set_by_name("stable-1")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pm, "_CHUNK_SIZE", chunk)
        small = pm.simulate_jump_diffusion_I(cset, 0.5, 1.0, 0.02, chunk,
                                             seed=seed)
        large = pm.simulate_jump_diffusion_I(cset, 0.5, 1.0, 0.02,
                                             (1 + extra) * chunk, seed=seed)
        assert np.array_equal(small.positions, large.positions[:, :chunk])
        assert np.array_equal(small.jump_counts, large.jump_counts[:chunk])
        patch.setattr(pm, "_TRUNCATION", 5.0)
        small = pm.simulate_signal_II(base, 0.25, 1.0, 0.02, chunk,
                                      seed=seed)
        large = pm.simulate_signal_II(base, 0.25, 1.0, 0.02,
                                      (1 + extra) * chunk, seed=seed)
    assert np.array_equal(small.positions, large.positions[:, :chunk])
    assert small.truncation_count <= large.truncation_count


def test_thinning_count_is_poisson():
    # lambda constant = 2 with bound alpha2 = 4 exercises real thinning
    # (acceptance probability 1/2); the accepted count over [0, T] must be
    # Poisson with mean lam*a1*T/eps^2 = 4.
    cset = _jump_only_set(lam_value=2.0, lam_bound=4.0)
    ens = pm.simulate_jump_diffusion_I(cset, 0.5, 0.5, 0.02, 10**4, seed=31)
    mean = 2.0 * cset.kernel.a1 * 0.5 / 0.25
    counts = np.bincount(ens.jump_counts)
    k = np.arange(counts.size)
    expected = ens.n_paths * stats.poisson.pmf(k, mean)
    # merge the tail so every expected bin count is at least 5
    cut = np.searchsorted(np.cumsum(expected[::-1]), 5.0)
    cut = counts.size - cut - 1
    obs = np.concatenate([counts[:cut], [counts[cut:].sum()]]).astype(float)
    exp = np.concatenate([expected[:cut],
                          [ens.n_paths - expected[:cut].sum()]])
    res = stats.chisquare(obs, exp)
    assert res.pvalue > 0.01


def test_jump_sizes_follow_kernel_law():
    # jumps arrive at rate lam a1 / eps^2 = 8, so a path averages one jump
    # by T = 1/8; a path that jumped once ends at x_T = eps Z (the set's
    # diffusion moves it by about 1e-7)
    cset = _jump_only_set(lam_value=2.0)
    ens = pm.simulate_jump_diffusion_I(cset, 0.5, 0.125, 0.025, 3 * 10**4,
                                       seed=32)
    z = ens.positions[-1, ens.jump_counts == 1] / 0.5
    assert z.size >= 10**4
    # box kernel: Z ~ Uniform(-1, 1)
    res = stats.kstest(z, stats.uniform(loc=-1.0, scale=2.0).cdf)
    assert res.pvalue > 0.01


@pytest.mark.parametrize("run", [
    lambda cset: pm.simulate_jump_diffusion_I(cset, 0.5, 0.1, 0.02, 16, 0),
    lambda cset: pm.estimate_Q_monte_carlo(cset, 0.5, 0.1, 16, 0),
], ids=["jump-diffusion", "Q-oracle"])
def test_kernel_without_sampler_is_refused(run):
    # jump sizes come from the kernel's exact sampler of c/a1 only
    kernel = IntegrableKernel(
        lambda z: np.where(np.abs(z) <= 1.0, 0.75 * (1.0 - z**2), 0.0),
        truncation_radius=1.0,
        name="parabolic",
    )
    cset = _jump_only_set().with_fields(kernel=kernel)
    with pytest.raises(ValueError, match="kernel 'parabolic' has no sampler"):
        run(cset)


# ---------------------------------------------------------------------------
# the alpha-stable signal
# ---------------------------------------------------------------------------


def test_signal_standard_stable_law():
    # d = 0, delta = 1: x_T is exactly alpha-stable with scale T^(1/alpha)
    base = coefficient_set_by_name("stable-1")
    cset = base.with_fields(
        d=_const_field(base.grid, 0.0),
        delta=_const_field(base.grid, 1.0),
    )
    ens = pm.simulate_signal_II(cset, 0.25, 1.0, 0.025, 10**5, seed=51,
                                n_save=2)
    x = ens.positions[-1]  # T = 1 so the scale is 1: standard law
    # oracle self-check at alpha = 1 against the closed-form Cauchy CDF
    probe = np.linspace(-30.0, 30.0, 101)
    cauchy_ref = stable_cdf_oracle(1.0, probe)
    assert np.max(np.abs(cauchy_ref - stats.cauchy.cdf(probe))) < 1e-4
    res = stats.kstest(x, lambda t: stable_cdf_oracle(cset.alpha, t))
    n = x.size
    assert res.statistic < 1.63 / np.sqrt(n)  # 1% critical value


def test_signal_multiplicative_scaling():
    raw = coefficient_set_by_name("stable-1")
    base = raw.with_fields(
        d=_const_field(raw.grid, 0.0),
        delta=_const_field(raw.grid, 1.0),
    )
    scaled_set = base.with_fields(delta=_const_field(raw.grid, 0.7))
    unit = pm.simulate_signal_II(base, 0.25, 1.0, 0.025, 2 * 10**4, seed=52,
                                 n_save=2)
    scl = pm.simulate_signal_II(scaled_set, 0.25, 1.0, 0.025, 2 * 10**4,
                                seed=53, n_save=2)
    res = stats.ks_2samp(0.7 * unit.positions[-1], scl.positions[-1])
    assert res.pvalue > 0.01


def test_signal_guards():
    cset = coefficient_set_by_name("stable-1")
    with pytest.raises(ValueError, match="dt"):
        pm.simulate_signal_II(cset, 1.0 / 16.0, 1.0, 0.05, 16, seed=1)


def test_signal_reproducible():
    cset = coefficient_set_by_name("stable-1")
    kw = dict(eps=1.0 / 8.0, T_end=0.5, dt=0.0125, n_paths=300, seed=54)
    a = pm.simulate_signal_II(cset, **kw)
    b = pm.simulate_signal_II(cset, **kw)
    assert np.array_equal(a.positions, b.positions)


def test_signal_generator_matches_homogenized_action(stable):
    # finite-difference generator oracle at coarse times: for smooth phi,
    # (E[phi(x_{t+D})] - E[phi(x_t)])/D must match the ensemble average of
    # delta_bar_alpha * (-(-Lap)^(alpha/2) phi) — the homogenized generator
    # of the signal (the centered drift homogenizes to zero).  Paired
    # differences keep the SE small.  The step must resolve the cell: with
    # the coefficient frozen over a step the statistic carries a bias of
    # -0.049/-0.023/-0.0004 at dt/eps = 0.05/0.0125/0.003, so the test
    # runs at dt = 0.0025 eps where the remaining bias is below the noise.
    cset, cell = stable
    eps = 1.0 / 16.0
    dt = 0.0025 * eps
    ens = pm.simulate_signal_II(cset, eps, 0.75, dt, 4 * 10**4, seed=55,
                                n_save=4)
    assert ens.truncation_count <= ens.n_paths  # clipping is rare
    t_idx, s_idx = 2, 3  # t = 0.5, t + Delta = 0.75
    delta_t = ens.times[s_idx] - ens.times[t_idx]

    line = lo.LineGrid(16.0, 4096)
    phi_vals = np.exp(-0.5 * line.x**2)
    freqs = np.fft.fftfreq(line.n, d=line.dx)  # full FFT order
    psi_vals = -cell.delta_bar_alpha * np.fft.ifft(
        fractional_symbol(freqs, cset.alpha) * np.fft.fft(phi_vals)
    ).real

    def phi(x):
        return np.exp(-0.5 * x**2)

    def psi(x):
        return np.interp(x, line.x, psi_vals)

    def paired_stat(ensemble):
        x_t = ensemble.positions[t_idx]
        x_s = ensemble.positions[s_idx]
        paired = ((phi(x_s) - phi(x_t)) / delta_t
                  - 0.5 * (psi(x_t) + psi(x_s)))
        return paired.mean(), paired.std(ddof=1) / np.sqrt(paired.size)

    mean_op, se_op = paired_stat(ens)
    assert abs(mean_op) <= 3 * se_op

    # the literal 1/eps drift scaling (d raised by eps**(alpha - 2) at the
    # package's eps**(1 - alpha) scale) leaves the drift at a lower order
    # than the fractional part, so its fast dynamics equilibrates to a
    # different (drift-dominated) cell law: the same statistic moves
    # clearly off zero (measured +0.046 vs a 3-SE band of 0.016)
    literal = cset.with_fields(d=PeriodicField(
        cset.grid, cset.d.values * eps ** (cset.alpha - 2.0)))
    lit = pm.simulate_signal_II(literal, eps, 0.75, dt, 4 * 10**4, seed=55,
                                n_save=4)
    mean_lit, se_lit = paired_stat(lit)
    assert abs(mean_lit) > 3 * se_lit
    assert abs(mean_lit) > abs(mean_op)


# ---------------------------------------------------------------------------
# edge inputs
# ---------------------------------------------------------------------------


def _simulate(family, **kw):
    args = dict(eps=0.5, T_end=0.1, dt=0.02, n_paths=8, seed=1)
    args.update(kw)
    if family == "jump":
        return pm.simulate_jump_diffusion_I(
            coefficient_set_by_name("const-1"), **args)
    return pm.simulate_signal_II(coefficient_set_by_name("stable-1"), **args)


FAMILIES = ["jump", "signal"]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dt", [-1.0, 0.0, np.nan, np.inf])
def test_dt_must_be_finite_and_positive(family, dt):
    # dt = -1 used to run one step of size T_end, dt = 0 divided by zero
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        _simulate(family, dt=dt)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("T_end", [np.inf, np.nan, 0.0])
def test_T_end_must_be_finite_and_positive(family, T_end):
    with pytest.raises(ValueError, match="T_end must be finite and positive"):
        _simulate(family, T_end=T_end)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
def test_x0_must_be_finite(family, x0):
    # x0 = nan used to index the tables at -2**63
    with pytest.raises(ValueError, match="x0 must be finite"):
        _simulate(family, x0=x0)


@pytest.mark.parametrize("name, value, message", [
    ("n_paths", 0, "n_paths must be at least 1"),
    ("n_paths", -3, "n_paths must be at least 1"),
    ("n_paths", 2.5, "n_paths must be an integer"),
    ("n_paths", True, "n_paths must be an integer"),
    ("n_save", 0, "n_save must be at least 2"),
    ("n_save", 1, "n_save must be at least 2"),
    ("n_save", -5, "n_save must be at least 2"),
    ("n_save", 2.5, "n_save must be an integer"),
    ("n_save", True, "n_save must be an integer"),
])
@pytest.mark.parametrize("family", FAMILIES)
def test_counts_must_be_integers_in_range(family, name, value, message):
    # n_paths = 0 used to return an empty ensemble, -3 raised numpy's
    # "negative dimensions", 2.5 and True a TypeError; n_save of 0, -5 or
    # 2.5 silently became 2
    with pytest.raises(ValueError, match=message):
        _simulate(family, **{name: value})


@pytest.mark.parametrize("family", FAMILIES)
def test_numpy_integer_counts_are_accepted(family):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pm, "_CHUNK_SIZE", 4)
        ens = _simulate(family, n_paths=np.int64(8), n_save=np.int32(3))
        ref = _simulate(family, n_paths=8, n_save=3)
    assert np.array_equal(ens.positions, ref.positions)
    assert ens.positions.shape[0] == 3


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed, message", [
    (2.5, "seed must be an integer"),
    (True, "seed must be an integer"),
    (None, "seed must be an integer"),
    (-1, "seed must be at least 0"),
    (np.int64(-2), "seed must be at least 0"),
])
def test_seed_must_be_a_non_negative_integer(family, seed, message):
    # 2.5 used to run as seed 2, True as 1, and -1 raised numpy's
    # "expected non-negative integer" without naming the seed
    with pytest.raises(ValueError, match=message):
        _simulate(family, seed=seed)


def test_numpy_integer_seeds_are_accepted():
    ref = pm._rng(5, 2).standard_normal(4)
    got = pm._rng(np.int64(5), np.uint32(2)).standard_normal(4)
    assert np.array_equal(got, ref)
    ens = _simulate("jump", seed=np.uint64(3))
    assert np.array_equal(ens.positions, _simulate("jump", seed=3).positions)


def _jump_set_with_sampler(sampler):
    return _jump_only_set().with_fields(
        kernel=dataclasses.replace(box_kernel(), sampler=sampler))


def test_sampler_error_in_the_worker_reaches_the_caller():
    # the block draws run on a worker thread; an exception there must
    # surface at the call, and the worker must not outlive it
    class SamplerError(Exception):
        pass

    threads = []

    def sampler(rng, size):
        threads.append(threading.current_thread())
        if len(threads) == 3:
            raise SamplerError("third block")
        return rng.uniform(-1.0, 1.0, size)

    before = threading.active_count()
    with pytest.raises(SamplerError, match="third block"):
        pm.simulate_jump_diffusion_I(
            _jump_set_with_sampler(sampler), 0.5, 0.02 * 5 * pm._STEP_BLOCK,
            0.02, 16, seed=1)
    assert threading.active_count() == before
    assert len(threads) >= 3
    assert threading.main_thread() not in threads


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("saves", ["every step", "end only"])
def test_non_finite_state_raises_at_the_save_step(saves):
    # infinite jumps from the second block on.  Saving every step, the
    # check meets them while the third block is being drawn; saving only
    # the end, the paths stay non-finite until the last step (the table
    # reads used to raise IndexError on them first)
    calls = []

    def sampler(rng, size):
        calls.append(size)
        out = rng.uniform(-1.0, 1.0, size)
        if len(calls) >= 2:
            out[:] = np.inf
        return out

    steps = 3 * pm._STEP_BLOCK
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="non-finite particle state at "
                                           "step") as info:
        pm.simulate_jump_diffusion_I(
            _jump_set_with_sampler(sampler), 0.5, 0.02 * steps, 0.02, 16,
            seed=1, n_save=steps + 1 if saves == "every step" else 2)
    step = int(str(info.value).split()[-1])
    assert step > pm._STEP_BLOCK
    if saves == "end only":
        assert step == steps
    assert threading.active_count() == before


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_signal_non_finite_state_raises_at_the_save_step(monkeypatch):
    # infinite increments from the fifth step on; saving at steps 0, 10,
    # the shared march's finite check reports them at step 10
    calls = []
    draws = pm._stable_draws

    def infinite_from_fifth(alpha, size, rng):
        calls.append(size)
        x, clipped = draws(alpha, size, rng)
        if len(calls) >= 5:
            x[:] = np.inf
        return x, clipped

    monkeypatch.setattr(pm, "_stable_draws", infinite_from_fifth)
    with pytest.raises(RuntimeError,
                       match="non-finite particle state at step 10$"):
        pm.simulate_signal_II(stable_1(64), 0.25, 0.2, 0.02, 8, seed=1,
                              n_save=2)


@pytest.mark.parametrize("n_paths", [0, 1, 2])
def test_q_oracle_needs_three_paths_before_simulating(n_paths, monkeypatch):
    # used to simulate first, warn about the degenerate variance, then
    # raise from the jackknife
    def simulate(*args, **kwargs):
        raise AssertionError("simulated before checking n_paths")

    monkeypatch.setattr(pm, "simulate_jump_diffusion_I", simulate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="n_paths must be at least"):
            pm.estimate_Q_monte_carlo(coefficient_set_by_name("const-1"),
                                      0.5, 0.1, n_paths, seed=1)


def test_q_oracle_runs_on_three_paths():
    q_hat, se = pm.estimate_Q_monte_carlo(
        coefficient_set_by_name("const-1"), 0.5, 0.1, 3, seed=1)
    assert np.isfinite(q_hat) and np.isfinite(se)


# ---------------------------------------------------------------------------
# step kernels against the step loops they replaced
# ---------------------------------------------------------------------------
#
# The oracle below is the earlier formulation of both simulations: np.mod fold,
# one (1 - frac, frac) interpolation per table, bincount jumps and the
# two-power CMS draw.  It consumes the same random draws in the same order
# (the jump-diffusion's in blocks of ``_STEP_BLOCK`` steps), so jump counts,
# jump sizes and clip counts must be equal, and positions may differ only by
# rounding.  Each interpolated coefficient differs by a few ulps, and every
# step multiplies a position gap by the slope of the Euler map,
# 1 + (field' x increment)/eps.  The horizons are therefore short: 16 steps
# at dt = 0.1 eps**2 (jump-diffusion) and dt = 0.02 eps (signal).  At
# dt = 0.1 eps a stable-1 path through steep d and delta grows its gap up to
# 5x per step and 16 steps reach 4e-10; at 0.02 eps the largest gap over 100
# seeds of every (alpha, eps, x0) below was 1.5e-12, and the
# jump-diffusion's 1.0e-12.  The jump-diffusion runs that span two or three
# blocks and end in a short one (129 and 261 steps) take dt = 0.01 eps**2:
# at 0.1 eps**2 the gap reaches 5.9e-9 by step 261 and 6.9e-8 by step 383,
# at 0.01 eps**2 it stayed below 1.2e-13 over 80 random cases up to 383.  POSITION_RTOL
# sits 70x above all of these, and still fails on a 1e-6 relative error in
# the table slopes or a 1e-7 relative error in the CMS log-cosine term.

POSITION_RTOL = 1e-10


def _old_table(field, transform=None):
    res = pm._TABLE_RESOLUTION
    vals = np.asarray(evaluate(field, np.linspace(0.0, 1.0, res + 1)),
                      dtype=float)
    vals[-1] = vals[0]
    if transform is not None:
        vals = transform(vals)
    vals = np.append(vals, vals[1])

    def lookup(y):
        t = y * res
        idx = t.astype(np.int64)
        frac = t - idx
        return vals[idx] * (1.0 - frac) + vals[idx + 1] * frac

    return lookup


def _old_stable_draws(alpha, size, rng, truncation):
    u = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
    if alpha == 1.0:
        x = np.tan(u)
    else:
        w = rng.exponential(1.0, size)
        x = (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)) * (
            np.cos((1.0 - alpha) * u) / w
        ) ** ((1.0 - alpha) / alpha)
    clipped = int(np.count_nonzero(np.abs(x) > truncation))
    if clipped:
        x = np.clip(x, -truncation, truncation)
    return x, clipped


def _old_chunks(n_paths, chunk_size):
    return [(c, lo, min(lo + chunk_size, n_paths))
            for c, lo in enumerate(range(0, n_paths, chunk_size))]


def _old_jump_diffusion(cset, eps, T_end, dt, n_paths, seed, x0, chunk_size):
    n_steps, dt_eff, _ = pm._step_grid(T_end, dt, 2)
    lam_tab = _old_table(cset.lam)
    lam_max = float(cset.alpha2)
    sampler = cset.kernel.sampler
    proposal_rate = lam_max * cset.kernel.a1 / eps**2
    inv_eps = 1.0 / eps
    sqrt_dt = np.sqrt(dt_eff)
    bdt_tab = _old_table(cset.b, lambda v: v * (inv_eps * dt_eff))
    sig_tab = _old_table(cset.a, lambda v: np.sqrt(2.0 * v) * sqrt_dt)
    mil_tab = _old_table(cset.a.derivative(1),
                         lambda v: v * (0.5 * inv_eps * dt_eff))
    paths = np.empty((n_steps + 1, n_paths))
    counts = np.zeros(n_paths, dtype=np.int64)
    for chunk, lo, hi in _old_chunks(n_paths, chunk_size):
        g = pm._rng(seed, chunk)
        m = hi - lo
        x = np.full(m, float(x0))
        paths[0, lo:hi] = x
        for first in range(1, n_steps + 1, pm._STEP_BLOCK):
            # one block of draws: dW, Poisson totals, owners, thinning
            # uniforms, jump sizes
            n = min(pm._STEP_BLOCK, n_steps + 1 - first)
            dW_block = g.standard_normal((n, m))
            totals = g.poisson(m * proposal_rate * dt_eff, n)
            owners_block = g.integers(0, m, totals.sum())
            u_block = g.uniform(0.0, 1.0, totals.sum())
            z_block = sampler(g, totals.sum())
            offsets = np.concatenate([[0], np.cumsum(totals)])
            for j in range(n):
                y = np.mod(x * inv_eps, 1.0)
                dW = dW_block[j]
                sl = slice(offsets[j], offsets[j + 1])
                owners, z = owners_block[sl], z_block[sl]
                accept = u_block[sl] * lam_max < lam_tab(y[owners])
                jump_sum = np.bincount(owners, weights=eps * z * accept,
                                       minlength=m)
                counts[lo:hi] += np.bincount(owners[accept], minlength=m)
                x = x + (bdt_tab(y) + sig_tab(y) * dW + jump_sum)
                x += mil_tab(y) * (dW * dW - 1.0)
                paths[first + j, lo:hi] = x
    return paths, counts


def _old_signal(cset, eps, T_end, dt, n_paths, seed, x0, truncation,
                chunk_size):
    alpha = float(cset.alpha)
    drift_scale = eps ** (1.0 - alpha)
    n_steps, dt_eff, _ = pm._step_grid(T_end, dt, 2)
    jump_scale = dt_eff ** (1.0 / alpha)
    inv_eps = 1.0 / eps
    d_tab, delta_tab = _old_table(cset.d), _old_table(cset.delta)
    paths = np.empty((n_steps + 1, n_paths))
    n_clipped = 0
    for chunk, lo, hi in _old_chunks(n_paths, chunk_size):
        g = pm._rng(seed, chunk)
        m = hi - lo
        x = np.full(m, float(x0))
        paths[0, lo:hi] = x
        for step in range(1, n_steps + 1):
            y = np.mod(x * inv_eps, 1.0)
            draws, clipped = _old_stable_draws(alpha, m, g, truncation)
            n_clipped += clipped
            x = x + drift_scale * d_tab(y) * dt_eff \
                + delta_tab(y) * jump_scale * draws
            paths[step, lo:hi] = x
    return paths, n_clipped


def _position_gap(new, old):
    return float(np.max(np.abs(new - old) / np.maximum(1.0, np.abs(old))))


RUN_SHAPES = st.tuples(st.sampled_from([32, 100]), st.integers(1, 250))


# (steps, dt / eps**2): within one block, and across two or three blocks
# ending in a short one
HORIZONS = [(16, 0.1), (pm._STEP_BLOCK + 1, 0.01),
            (2 * pm._STEP_BLOCK + 5, 0.01)]


@given(seed=st.integers(0, 10_000), shape=RUN_SHAPES,
       set_name=st.sampled_from(["varcoef-1", "const-1"]),
       x0=st.sampled_from([0.0, -1e-20, 0.37]),
       eps=st.sampled_from([0.5, 0.125]),
       horizon=st.sampled_from(HORIZONS))
@example(seed=7, shape=(32, 70), set_name="varcoef-1", x0=0.37,
         eps=0.125, horizon=HORIZONS[2])
@example(seed=8, shape=(100, 250), set_name="varcoef-1", x0=-1e-20,
         eps=0.5, horizon=HORIZONS[1])
@settings(max_examples=25, deadline=None)
def test_jump_diffusion_kernels_match_old_loop(seed, shape, set_name, x0,
                                               eps, horizon):
    chunk, n_paths = shape
    steps, ratio = horizon
    cset = coefficient_set_by_name(set_name)
    dt = ratio * eps**2
    T_end = steps * dt
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pm, "_CHUNK_SIZE", chunk)
        ens = pm.simulate_jump_diffusion_I(
            cset, eps, T_end, dt, n_paths, seed, x0=x0, n_save=steps + 1)
    paths, counts = _old_jump_diffusion(
        cset, eps, T_end, dt, n_paths, seed, x0, chunk)
    assert np.array_equal(ens.jump_counts, counts)
    assert _position_gap(ens.positions, paths) <= POSITION_RTOL


@given(seed=st.integers(0, 10_000), shape=RUN_SHAPES,
       alpha=st.sampled_from([0.8, 1.0, 1.5]),
       x0=st.sampled_from([0.0, -1e-20, 0.37]),
       eps=st.sampled_from([0.5, 0.125]),
       truncation=st.sampled_from([1e6, 5.0]))
@settings(max_examples=25, deadline=None)
def test_signal_kernels_match_old_loop(seed, shape, alpha, x0, eps,
                                       truncation):
    chunk, n_paths = shape
    cset = coefficient_set_by_name("stable-1").with_fields(alpha=alpha)
    dt = 0.02 * eps
    T_end = 16 * dt
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pm, "_TRUNCATION", truncation)
        patch.setattr(pm, "_CHUNK_SIZE", chunk)
        ens = pm.simulate_signal_II(
            cset, eps, T_end, dt, n_paths, seed, x0=x0, n_save=17)
    paths, n_clipped = _old_signal(cset, eps, T_end, dt, n_paths, seed, x0,
                                   truncation, chunk)
    assert ens.truncation_count == n_clipped
    assert _position_gap(ens.positions, paths) <= POSITION_RTOL


# ---------------------------------------------------------------------------
# trig-free CMS draws against the libm formula
# ---------------------------------------------------------------------------
#
# ``_old_stable_draws`` above takes sin(alpha u), cos((1 - alpha) u) and
# cos u from libm; ``_stable_draws`` takes them from half-angle tangents and
# cos u as sin of the complement angle.  Both consume the same uniform and
# exponential draws, so they must agree draw for draw up to rounding.

CMS_RTOL = 5e-14


def _relative_gap(new, old):
    return float(np.max(np.abs(new - old)
                        / np.maximum(np.abs(old), np.finfo(float).tiny)))


class _FixedDraws:
    """Generator stand-in that hands out given u and w."""

    def __init__(self, u, w):
        self.u, self.w = np.asarray(u, float), np.asarray(w, float)

    def uniform(self, low, high, size):
        assert (low, high, size) == (-0.5 * np.pi, 0.5 * np.pi, self.u.size)
        return self.u.copy()

    def standard_exponential(self, size):
        assert size == self.w.size
        return self.w.copy()


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.2, 1.5, 1.95])
def test_cms_draws_match_libm_formula(alpha):
    new, _ = _clipped_draws(alpha, 10**6, pm._rng(61, 0),
                            np.inf)
    old, _ = _old_stable_draws(alpha, 10**6, pm._rng(61, 0),
                               np.inf)
    assert _relative_gap(new, old) <= CMS_RTOL


def test_cms_draws_near_the_pole_match_mpmath():
    # u = +-(pi/2 - 10^-k): cos u is down to 1e-15, where the half-angle
    # cosine (1 - tau^2) / (1 + tau^2) would lose up to 1e-10 relative
    mp = pytest.importorskip("mpmath")
    gaps = 10.0 ** -np.arange(1, 16)
    u = np.concatenate([0.5 * np.pi - gaps, gaps - 0.5 * np.pi])
    for alpha in (0.3, 0.8, 1.2, 1.5, 1.95):
        for w_value in (0.05, 1.0, 4.0):
            w = np.full(u.size, w_value)
            got, _ = _clipped_draws(alpha, u.size, _FixedDraws(u, w),
                                    np.inf)
            with mp.workdps(50):
                a = mp.mpf(alpha)
                ref = np.array([float(
                    mp.sin(a * mp.mpf(ui)) / mp.cos(mp.mpf(ui)) ** (1 / a)
                    * (mp.cos((1 - a) * mp.mpf(ui)) / mp.mpf(w_value))
                    ** ((1 - a) / a)) for ui in u])
            assert _relative_gap(got, ref) <= CMS_RTOL, (alpha, w_value)


@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
@pytest.mark.parametrize("size", [1, 4097])
def test_cms_draws_leave_the_stream_where_the_libm_formula_does(alpha, size):
    g = pm._rng(62, 0)
    pm._stable_draws(alpha, size, g)
    ref = pm._rng(62, 0)
    ref.uniform(-0.5 * np.pi, 0.5 * np.pi, size)
    if alpha != 1.0:
        ref.exponential(1.0, size)
    assert g.bit_generator.state == ref.bit_generator.state
    # so the next draw of a run is the same number
    assert g.standard_normal() == ref.standard_normal()


def test_cms_alpha_one_is_the_tangent():
    draws, _ = _clipped_draws(1.0, 10**5, pm._rng(63, 0),
                              np.inf)
    u = pm._rng(63, 0).uniform(-0.5 * np.pi, 0.5 * np.pi,
                                             10**5)
    assert np.array_equal(draws, np.tan(u))


@pytest.mark.parametrize("alpha", [0.3, 0.8, 1.0, 1.5, 1.95])
@pytest.mark.parametrize("truncation", [3.0, 5.0, 1e6])
def test_cms_clip_counts_match_libm_formula(alpha, truncation):
    new, n_new = _clipped_draws(alpha, 10**5, pm._rng(64, 0),
                                truncation)
    old, n_old = _old_stable_draws(alpha, 10**5,
                                   pm._rng(64, 0), truncation)
    assert n_new == n_old
    assert np.abs(new).max() <= truncation
    assert _relative_gap(new, old) <= CMS_RTOL
