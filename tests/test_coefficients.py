"""Coefficient-set containers, scale separation, validation reports."""

import numpy as np
import pytest

from nlhom import particles, spde
from nlhom.coefficients import (
    CoefficientSetI,
    Epsilon,
    _eps_value,
    validate_I,
    validate_II,
)
from nlhom.fixtures import (
    coefficient_set_by_name,
    const_1,
    random_set_I,
    random_set_II,
    stable_1,
    stable_2,
    stable_filter,
    varcoef_1,
)
from nlhom.kernels import (IntegrableKernel, box_kernel, gaussian_kernel,
                           laplace_kernel, triangle_kernel)
from nlhom.lineops import LineGrid, gaussian_bump
from nlhom.torus import PeriodicField, TorusGrid, field_from_function


def test_epsilon_reciprocal():
    eps = Epsilon(8)
    assert eps.value == 0.125
    assert Epsilon.from_value(0.25).K == 4
    with pytest.raises(ValueError):
        Epsilon(1)
    with pytest.raises(ValueError):
        Epsilon.from_value(0.3)


@pytest.mark.parametrize("eps", [0.0, -0.25, np.nan, np.inf, -np.inf])
def test_eps_refuses_non_finite_or_non_positive(eps):
    # 0 divided by zero and NaN failed converting 1/eps to an integer
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        _eps_value(eps)


def _spde_config(**bad):
    kw = dict(part="I", eps=0.25, grid=LineGrid(2.0, 256), dt=1e-3,
              T_end=0.01, n_paths=2, seed=0)
    kw.update(bad)
    return spde.SpdeConfig(**kw)


def _jump_run(T_end=0.01, dt=1e-3, x0=0.0):
    return particles.simulate_jump_diffusion_I(const_1(), 0.25, T_end, dt,
                                               n_paths=2, seed=0, x0=x0)


def _signal_run(T_end=0.01, dt=1e-3, x0=0.0):
    return particles.simulate_signal_II(stable_2(64), 0.25, T_end, dt, 2, 0,
                                        x0=x0)


# (name in the message, call taking the value)
POSITIVE_SITES = {
    "eps": ("eps", _eps_value),
    "Epsilon.from_value": ("eps", Epsilon.from_value),
    "prepare dt": ("dt", lambda v: spde.prepare_homogenized_I(
        1.0, 0.0, LineGrid(2.0, 64), v)),
    "SpdeConfig dt": ("dt", lambda v: _spde_config(dt=v)),
    "SpdeConfig T_end": ("T_end", lambda v: _spde_config(T_end=v)),
    "jump-diffusion T_end": ("T_end", lambda v: _jump_run(T_end=v)),
    "jump-diffusion dt": ("dt", lambda v: _jump_run(dt=v)),
    "signal T_end": ("T_end", lambda v: _signal_run(T_end=v)),
    "signal dt": ("dt", lambda v: _signal_run(dt=v)),
    "stable increment dt": ("dt", lambda v: particles.sample_stable_increment(
        1.5, v, np.random.default_rng(0))),
}


@pytest.mark.parametrize("site", sorted(POSITIVE_SITES))
def test_finite_positive_sites_refuse_non_reals(site):
    # a string eps was parsed by float(), strings and None crashed in
    # numpy's isfinite, and True passed as 1
    name, call = POSITIVE_SITES[site]
    for value in ("0.5", True, None):
        with pytest.raises(ValueError,
                           match="%s must be finite and positive" % name):
            call(value)


# (start of the message, call taking the value)
RAW_NUMBER_SITES = {
    "Epsilon": ("K must be an integer", Epsilon),
    "LineGrid": ("half_width must be finite and positive",
                 lambda v: LineGrid(v, 64)),
    "CoefficientSetII": ("alpha must lie in",
                         lambda v: stable_2(64).with_fields(alpha=v)),
    "jump-diffusion x0": ("x0 must be finite", lambda v: _jump_run(x0=v)),
    "signal x0": ("x0 must be finite", lambda v: _signal_run(x0=v)),
}


@pytest.mark.parametrize("site", sorted(RAW_NUMBER_SITES))
@pytest.mark.parametrize("value", [None, "1", np.inf, np.nan, True])
def test_raw_number_sites_refuse_non_numbers(site, value):
    # None and strings raised TypeError or failed in numpy's isfinite,
    # infinities raised OverflowError, and True passed as 1
    message, call = RAW_NUMBER_SITES[site]
    with pytest.raises(ValueError, match=message):
        call(value)


def _bump(z):
    return np.maximum(0.0, 1.0 - np.asarray(z, dtype=float) ** 2)


# (start of the message, call) of edge inputs that gave a silently wrong
# result or a crash: a derivative order of 0, -1 or 1.5 returned u, NaN or
# zeros on the line and order 1 on the torus; pairings of mismatched
# lengths returned a number; p = 2.5 sampled 2 points; a kernel radius of
# inf was integrated to infinity and True ran as 1; zero kernel parameters
# divided by zero or failed on the kernel's mass
EDGE_INPUT_SITES = {
    "line derivative order 0": ("order must be at least 1", lambda: LineGrid(
        2.0, 64).apply_derivative(np.ones(64), 0)),
    "line derivative order -1": ("order must be at least 1", lambda: LineGrid(
        2.0, 64).apply_derivative(np.ones(64), -1)),
    "line derivative order 1.5": ("order must be an integer", lambda: LineGrid(
        2.0, 64).apply_derivative(np.ones(64), 1.5)),
    "torus derivative order 1.5": ("order must be an integer",
                                   lambda: const_1().a.derivative(1.5)),
    "line inner length": ("grid values must have shape", lambda: LineGrid(
        2.0, 512).inner(np.ones(512), np.ones(1))),
    "line l2_norm length": ("grid values must have shape", lambda: LineGrid(
        2.0, 512).l2_norm(np.ones(256))),
    "uniform_samples p 2.5": ("p must be an integer",
                              lambda: const_1().a.uniform_samples(2.5)),
    "kernel radius inf": ("truncation_radius must be finite and positive",
                          lambda: IntegrableKernel(_bump, np.inf)),
    "kernel radius True": ("truncation_radius must be finite and positive",
                           lambda: IntegrableKernel(_bump, True)),
    "laplace rate 0": ("rate must be finite and positive",
                       lambda: laplace_kernel(rate=0)),
    "laplace radius inf": ("radius must be finite and positive",
                           lambda: laplace_kernel(radius=np.inf)),
    "gaussian width 0": ("width must be finite and positive",
                         lambda: gaussian_kernel(width=0.0)),
    "gaussian mass 0": ("mass must be finite and positive",
                        lambda: gaussian_kernel(mass=0.0)),
    "gaussian radius -1": ("radius must be finite and positive",
                           lambda: gaussian_kernel(radius=-1.0)),
    "box half_width 0": ("half_width must be finite and positive",
                         lambda: box_kernel(half_width=0.0)),
    "box height 0": ("height must be finite and positive",
                     lambda: box_kernel(height=0.0)),
    "triangle half_width 0": ("half_width must be finite and positive",
                              lambda: triangle_kernel(0.0)),
    "bump width 0": ("width must be finite and positive",
                     lambda: gaussian_bump(LineGrid(2.0, 64), 0.0, 0.0)),
}


@pytest.mark.parametrize("site", sorted(EDGE_INPUT_SITES))
def test_edge_inputs_are_refused(site):
    message, call = EDGE_INPUT_SITES[site]
    with pytest.raises(ValueError, match=message):
        call()


def test_validate_const_passes():
    report = validate_I(const_1())
    assert report.passed
    assert "PASS" in str(report)


def test_validate_flags_lost_ellipticity():
    cset = const_1()
    g = cset.grid
    bad_a = field_from_function(g, lambda y: 0.5 + 0.5 * np.cos(2 * np.pi * y))
    bad = cset.with_fields(a=bad_a, name="degenerate")
    report = validate_I(bad)
    assert not report.passed
    assert any("ellipticity" in c.name and not c.passed for c in report.checks)


def test_validate_varcoef_bounds():
    cset = varcoef_1()
    report = validate_I(cset)
    assert report.passed
    # kappa = 0.5 really is a lower bound for this a
    assert np.min(cset.a.values) >= cset.kappa


def test_validate_flags_rough_field():
    cset = const_1()
    g = cset.grid
    rng = np.random.default_rng(0)
    rough = PeriodicField(g, 1.0 + 0.2 * rng.standard_normal(g.n))
    report = validate_I(cset.with_fields(a=rough, name="rough"))
    assert not report.passed
    assert any("smoothness" in c.name and not c.passed for c in report.checks)


def test_validate_II_passes_and_fails():
    assert validate_II(stable_1()).passed
    cset = stable_1()
    g = cset.grid
    bad_delta = field_from_function(g, lambda y: 0.1 + 0.2 * np.cos(2 * np.pi * y))
    report = validate_II(cset.with_fields(delta=bad_delta, name="bad-delta"))
    assert not report.passed


def test_all_builtin_fixtures_valid():
    for cset in (const_1(), varcoef_1(), random_set_I(0), random_set_I(7)):
        assert validate_I(cset).passed, cset.name
    for cset in (stable_1(), random_set_II(0), random_set_II(7)):
        assert validate_II(cset).passed, cset.name


def test_fixture_lookup_by_name():
    assert coefficient_set_by_name("const-1").name == "const-1"
    assert coefficient_set_by_name("varcoef-1").name == "varcoef-1"
    assert coefficient_set_by_name("stable-1").name == "stable-1"
    r = coefficient_set_by_name("random-I-11")
    assert r.name == "random-I-11"
    # deterministic in the seed
    assert np.array_equal(r.a.values, coefficient_set_by_name("random-I-11").a.values)
    assert coefficient_set_by_name("random-II-3").name == "random-II-3"
    with pytest.raises(KeyError) as err:
        coefficient_set_by_name("no-such-set")
    for name in ("const-1", "varcoef-1", "stable-1", "stable-2",
                 "stable-filter", "random-I-<seed>", "random-II-<seed>"):
        assert name in str(err.value)


def test_fixture_lookup_refuses_a_bad_grid_size():
    # n = 0 built a 256-point random set, while the named sets refused it
    for name in ("varcoef-1", "random-I-3", "random-II-3"):
        with pytest.raises(ValueError, match="n must be at least 8"):
            coefficient_set_by_name(name, n=0)


@pytest.mark.parametrize("build", [random_set_I, random_set_II])
@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer"),
    ("3", "seed must be an integer"),
    (-1, "seed must be at least 0"),
])
def test_random_sets_refuse_bad_seeds(build, seed, message):
    # 1.5 raised numpy's TypeError
    with pytest.raises(ValueError, match=message):
        build(seed, 64)


@pytest.mark.parametrize("name", ["random-I-x", "random-II-", "random-I--3",
                                  "random-II-1.5"])
def test_fixture_lookup_refuses_a_malformed_seed(name):
    # "invalid literal for int()" named neither the set nor the seed
    with pytest.raises(ValueError, match="coefficient set %r" % name):
        coefficient_set_by_name(name)


def test_stable_1_spellings_share_one_build():
    stable_1.cache_clear()
    stable_1(64)
    stable_2(64)
    stable_filter(64)
    stable_1(64, 1.5)
    stable_1(n=64, alpha=1.5)
    assert stable_1.cache_info().misses == 1


@pytest.mark.parametrize("build", [stable_1, stable_2, stable_filter])
def test_stable_builders_refuse_fractional_n(build):
    # int(n) used to build and cache a 64-point set for n = 64.9
    before = stable_1.cache_info()
    with pytest.raises(ValueError, match="n must be an integer"):
        build(64.9)
    after = stable_1.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_coefficient_set_shares_grid():
    g1, g2 = TorusGrid(64), TorusGrid(128)
    one = PeriodicField(g1, np.ones(64))
    with pytest.raises(ValueError):
        CoefficientSetI(a=one, b=one, lam=one,
                        sigma=PeriodicField(g2, np.ones(128)),
                        kernel=box_kernel(), kappa=1.0, alpha1=1.0,
                        alpha2=1.0, name="mismatch")


def test_delta_alpha_field():
    cset = stable_1()
    np.testing.assert_allclose(cset.delta_alpha.values,
                               cset.delta.values**cset.alpha, rtol=1e-14)
