"""Coefficient-set containers, scale separation, construction refusals."""

import numpy as np
import pytest

from nlhom import particles, spde
from nlhom.coefficients import CoefficientSetI, _eps_value
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
    # eps is 1/K for an integer K >= 2, returned as the float 1/K
    assert _eps_value(0.125) == 0.125
    assert _eps_value(np.float64(0.25)) == 0.25
    assert type(_eps_value(np.float64(0.25))) is float
    # 5e-324 used to raise OverflowError: 1/eps is inf before rounding
    for bad in (1.0, 0.3, 3.0, 5e-324):
        with pytest.raises(ValueError, match="eps must be 1/K"):
            _eps_value(bad)


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
    "prepare dt": ("dt", lambda v: spde.prepare_homogenized_I(
        1.0, 0.0, LineGrid(2.0, 64), v)),
    "SpdeConfig dt": ("dt", lambda v: _spde_config(dt=v)),
    "SpdeConfig T_end": ("T_end", lambda v: _spde_config(T_end=v)),
    "jump-diffusion T_end": ("T_end", lambda v: _jump_run(T_end=v)),
    "jump-diffusion dt": ("dt", lambda v: _jump_run(dt=v)),
    "signal T_end": ("T_end", lambda v: _signal_run(T_end=v)),
    "signal dt": ("dt", lambda v: _signal_run(dt=v)),
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


def _set_I(**bad):
    """A new Part I set from varcoef-1's data on 64 points, some replaced."""
    return CoefficientSetI(**{**vars(varcoef_1(64)), **bad})


def _const64(value):
    return PeriodicField(TorusGrid(64), np.full(64, value))


def _cos64(mean, amp):
    return field_from_function(TorusGrid(64),
                               lambda y: mean + amp * np.cos(2 * np.pi * y))


def _rough64():
    return PeriodicField(TorusGrid(64), 1.0 + 0.2 * np.random.default_rng(
        0).standard_normal(64))


# (start of the message, call) of edge inputs that gave a silently wrong
# result or a crash: a derivative order of 0, -1 or 1.5 returned u, NaN or
# zeros on the line and order 1 on the torus; pairings of mismatched
# lengths returned a number; p = 2.5 sampled 2 points; a kernel radius of
# inf was integrated to infinity and True ran as 1; zero kernel parameters
# divided by zero or failed on the kernel's mass; inadmissible coefficient
# sets built and failed later under another name (a = -0.5 as a violated
# solvability, a = 1e-9 as a negative density, a negative delta as
# non-finite field values); random_set_I built on 8 points, where its
# fields are unresolved
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
    "a = -0.5": (r"a must lie in \[kappa, 1/kappa\] = \[0.5, 2\], got "
                 r"\[-0.5, -0.5\]", lambda: _set_I(a=_const64(-0.5))),
    "a = 1e-9": (r"a must lie in \[kappa, 1/kappa\]",
                 lambda: _set_I(a=_const64(1e-9))),
    "delta negative": ("delta must be positive, min delta = -0.2", lambda:
                       stable_1(64).with_fields(delta=_cos64(0.3, 0.5))),
    "lam above alpha2": (r"lam must lie in \[alpha1, alpha2\] = \[0.7, 1.3\]",
                         lambda: _set_I(lam=_const64(1.5))),
    "alpha1 above alpha2": (r"lam must lie in \[alpha1, alpha2\] = "
                            r"\[1.3, 0.7\]",
                            lambda: _set_I(alpha1=1.3, alpha2=0.7)),
    "kappa nan": ("kappa must be finite and positive",
                  lambda: _set_I(kappa=np.nan)),
    "rough a": ("a is unresolved on 64 points: mode 25 has amplitude",
                lambda: _set_I(a=_rough64())),
    "random-I on 8 points": ("a is unresolved on 8 points: mode 3 ",
                             lambda: random_set_I(0, 8)),
}


@pytest.mark.parametrize("site", sorted(EDGE_INPUT_SITES))
def test_edge_inputs_are_refused(site):
    message, call = EDGE_INPUT_SITES[site]
    with pytest.raises(ValueError, match=message):
        call()


def test_validate_const_passes():
    # const-1 sits on its bounds: a = kappa = 1/kappa and lam = alpha1 =
    # alpha2; a bound missed by more than the 1e-14 slack is refused
    cset = const_1()
    assert cset.a.values.min() == cset.kappa == 1.0 / cset.kappa
    assert cset.lam.values.min() == cset.alpha1 == cset.alpha2
    with pytest.raises(ValueError, match="a must lie in"):
        cset.with_fields(kappa=1.0 + 1e-13)
    with pytest.raises(ValueError, match="lam must lie in"):
        cset.with_fields(alpha2=2.0 - 1e-13)


def test_validate_flags_lost_ellipticity():
    # with_fields builds a new set, so it re-runs the refusals
    cset = const_1()
    bad_a = _cos64(0.5, 0.5)
    with pytest.raises(ValueError, match=r"a must lie in \[kappa, 1/kappa\]"):
        cset.with_fields(a=bad_a, name="degenerate")


def test_validate_varcoef_bounds():
    cset = varcoef_1()
    # kappa = 0.5 really is a lower bound for this a, and alpha1, alpha2
    # bound lambda
    assert np.min(cset.a.values) >= cset.kappa
    assert cset.alpha1 <= np.min(cset.lam.values)
    assert np.max(cset.lam.values) <= cset.alpha2
    with pytest.raises(ValueError, match="a must lie in"):
        cset.with_fields(kappa=np.min(cset.a.values) + 1e-9)


def test_validate_flags_rough_field():
    # the rough field's values, in [0.53, 1.39], keep within its bounds
    cset = varcoef_1(64).with_fields(alpha1=0.5, alpha2=1.5)
    for name in ("a", "b", "lam", "sigma"):
        with pytest.raises(ValueError, match="%s is unresolved on 64 points:"
                                             " mode " % name):
            cset.with_fields(**{name: _rough64(), "name": "rough"})


def test_validate_II_passes_and_fails():
    cset = stable_1()
    assert np.min(cset.delta.values) > 0
    bad_delta = field_from_function(
        cset.grid, lambda y: 0.1 + 0.2 * np.cos(2 * np.pi * y))
    with pytest.raises(ValueError, match="delta must be positive"):
        cset.with_fields(delta=bad_delta, name="bad-delta")
    rough = PeriodicField(cset.grid, np.random.default_rng(0).standard_normal(
        cset.grid.n))
    for name in ("d", "g", "e", "f", "sigma"):
        with pytest.raises(ValueError, match="%s is unresolved" % name):
            cset.with_fields(**{name: rough})


_NAMED_SETS = ["const-1", "varcoef-1", "stable-1", "stable-2", "stable-filter"]


@pytest.mark.parametrize("name", _NAMED_SETS
                         + ["random-I-%d" % s for s in range(100)]
                         + ["random-II-%d" % s for s in range(100)])
def test_all_builtin_fixtures_valid(name):
    # every built-in is admissible: named sets at their default grid, the
    # random sets on 64 points
    n = None if name in _NAMED_SETS else 64
    cset = coefficient_set_by_name(name, n)
    assert cset.name == name


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
    # stable_2 and stable_filter read stable_1's cache entry of the
    # benchmark workloads' positional call
    stable_1(64)
    before = stable_1.cache_info()
    stable_2(64)
    stable_filter(64)
    after = stable_1.cache_info()
    assert (after.hits - before.hits, after.misses) == (2, before.misses)


@pytest.mark.parametrize("build", [stable_1, stable_2, stable_filter])
def test_stable_builders_refuse_fractional_n(build):
    # int(n) used to build and cache a 64-point set for n = 64.9; the
    # cache counts the refused call as a miss but keeps no entry for it
    before = stable_1.cache_info()
    with pytest.raises(ValueError, match="n must be an integer"):
        build(64.9)
    assert stable_1.cache_info().currsize == before.currsize


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
