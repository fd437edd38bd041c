"""Coefficient-set containers, scale separation, validation reports."""

import numpy as np
import pytest

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
from nlhom.kernels import box_kernel
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


def test_stable_1_spellings_share_one_build():
    stable_1.cache_clear()
    stable_1(64)
    stable_2(64)
    stable_filter(64)
    stable_1(64, 1.5)
    stable_1(n=64, alpha=1.5)
    assert stable_1.cache_info().misses == 1


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
