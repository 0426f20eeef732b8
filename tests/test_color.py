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
    np.testing.assert_allclose(v, -prof.evaluate_v(-xi), atol=1e-14)
    assert np.all(np.diff(v) >= 0)
    assert np.all(np.abs(v) <= 1.0)


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
