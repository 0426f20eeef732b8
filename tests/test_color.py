"""Closed-form color field: exact ODE facts and limit behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfsim.color import ColorProfile


def test_boundary_values_exact():
    prof = ColorProfile(eps=0.05, p=1.0, M=2.0)
    assert prof.evaluate_v(-2.0) == pytest.approx(-1.0)
    assert prof.evaluate_v(2.0) == pytest.approx(1.0)
    assert prof.evaluate_v(0.0) == pytest.approx(0.0, abs=1e-15)


@settings(deadline=None)
@given(st.floats(0.01, 0.5), st.floats(0.5, 2.0))
def test_v_is_odd_and_monotone(eps, p):
    prof = ColorProfile(eps=eps, p=p, M=2.0)
    xi = np.linspace(-2.0, 2.0, 401)
    v = prof.evaluate_v(xi)
    # for eps^p <= 1/18 the grid crosses |xi / a| = 6, where erf switches to sgn
    assert np.array_equal(v, -prof.evaluate_v(-xi))
    assert np.all(np.diff(v) >= 0)
    assert np.all(np.abs(v) <= 1.0)
    assert v[0] == -1.0 and v[-1] == 1.0


def test_psi_is_the_derivative_of_v():
    prof = ColorProfile(eps=0.05, p=1.0, M=2.0)
    xi = np.linspace(-1.5, 1.5, 2001)
    v = prof.evaluate_v(xi)
    dv = np.gradient(v, xi)
    np.testing.assert_allclose(prof.evaluate_psi(xi), dv, rtol=1e-4, atol=1e-6)


def test_v_solves_the_self_similar_heat_equation():
    # -xi v' = eps^p v'' away from the window boundary
    eps, p = 0.08, 1.0
    prof = ColorProfile(eps=eps, p=p, M=2.0)
    xi = np.linspace(-1.0, 1.0, 4001)
    v = prof.evaluate_v(xi)
    dv = np.gradient(v, xi)
    d2v = np.gradient(dv, xi)
    resid = -xi * dv - eps ** p * d2v
    assert np.abs(resid[50:-50]).max() < 1e-4


def test_psi_mass_is_the_total_color_jump():
    prof = ColorProfile(eps=0.03, p=1.0, M=2.0)
    xi = np.linspace(-2.0, 2.0, 8001)
    assert np.trapezoid(prof.evaluate_psi(xi), xi) == pytest.approx(2.0, rel=1e-6)


def test_sgn_deviation_matches_direct_sup():
    prof = ColorProfile(eps=0.05, p=1.0, M=2.0)
    c = 0.5
    xi = np.linspace(c, 2.0, 20001)
    direct = float(np.abs(prof.evaluate_v(xi) - 1.0).max())
    assert prof.sgn_deviation(c) == pytest.approx(direct, rel=1e-6)


def test_sgn_deviation_shrinks_with_eps():
    devs = [ColorProfile(eps, 1.0, 2.0).sgn_deviation(0.5)
            for eps in (0.1, 0.05, 0.025, 0.0125)]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_parameter_validation():
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            ColorProfile(eps=bad)
    with pytest.raises(ValueError):
        ColorProfile(eps=0.1, p=0.0)
    prof = ColorProfile(eps=0.1)
    with pytest.raises(ValueError):
        prof.sgn_deviation(-0.1)


def test_erf_matches_the_scipy_oracle():
    # scipy.special is the reference here only; selfsim computes erf with math
    from scipy.special import erf, erfc
    # a = sqrt(2 eps) = 1/4 exactly, so xi / a hits x = +-6 and the grid exactly
    prof = ColorProfile(eps=1.0 / 32.0, p=1.0, M=4.0)
    x = np.concatenate([np.linspace(-8.0, 8.0, 20001), [6.0, -6.0, np.inf, -np.inf]])
    v = prof.evaluate_v(x / 4.0)
    assert np.abs(v - erf(x)).max() <= 2.3e-16
    assert v[-4:].tolist() == [1.0, -1.0, 1.0, -1.0]
    for t in (0.0, 0.3, -2.5, 6.0, -6.0, np.inf, -np.inf):
        for arg in (t / 4.0, np.float64(t / 4.0), np.asarray(t / 4.0)):
            got = prof.evaluate_v(arg)
            assert np.ndim(got) == 0
            assert abs(got - erf(t)) <= 2.3e-16
    assert prof.evaluate_v(1.5) == 1.0 and prof.evaluate_v(-1.5) == -1.0
    for M in 0.25 * np.linspace(0.0, 8.0, 201)[1:]:
        norm = ColorProfile(eps=1.0 / 32.0, p=1.0, M=M).normalization
        assert abs(norm - 0.25 * np.sqrt(np.pi) * erf(M / 0.25)) <= 2.3e-16
    # past c/a = 10 (erfc < 2e-45) scipy's erfc is off by up to 1.1e-14
    # relative against a 50-digit reference, and math.erfc by 2.4e-16
    for eps in (0.1, 0.05, 0.025, 0.0125, 0.00625):
        prof = ColorProfile(eps=eps, p=1.0, M=2.0)
        a = np.sqrt(2.0 * eps)
        for c in np.linspace(0.0, 2.0, 81)[:-1]:
            if c / a <= 10.0:
                ref = (erfc(c / a) - erfc(2.0 / a)) / erf(2.0 / a)
                assert prof.sgn_deviation(c) == pytest.approx(ref, rel=1e-14, abs=0.0)
        assert prof.sgn_deviation(2.0) == 0.0
