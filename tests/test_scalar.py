"""Scalar viscous Riemann solver: structural invariants of the fixed point."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selfsim.scalar as scalar_module
from selfsim.color import ColorProfile
from selfsim.diagnostics import exact_scalar_riemann, l1_distance
from selfsim.grid import GridFunction, uniform_grid
from selfsim.models import build_scalar_model
from selfsim.quadrature import log_cumtrapz_from, log_trapz
from selfsim.scalar import (NonConvergence, QuadratureFailure, ScalarSolveConfig,
                            exponent_h, picard_step, solve_scalar,
                            trace_window_check)


def _solve(model, uL, uR, eps=0.05, **kw):
    return solve_scalar(model, ScalarSolveConfig(eps=eps, **kw), uL, uR)


def test_config_validation():
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            ScalarSolveConfig(eps=bad)
    with pytest.raises(ValueError):
        ScalarSolveConfig(eps=0.1, M=np.nan)
    with pytest.raises(ValueError):
        ScalarSolveConfig(eps=0.1, grid_size=10)
    # the fixed-point tolerance is a module constant, read on an instance
    assert ScalarSolveConfig(eps=0.1).fix_tol == scalar_module.FIX_TOL == 1e-10
    with pytest.raises(TypeError):
        ScalarSolveConfig(eps=0.1, fix_tol=1e-8)
    assert ScalarSolveConfig(eps=0.05, M=2.0).resolved_grid_size() == 1600


def test_shock_solution_basic_properties(burgers):
    sol = _solve(burgers, 1.0, 0.0)
    assert sol.monotone
    assert sol.tv_u <= 1.0 + 1e-9
    assert sol.u.values[0] == pytest.approx(1.0)
    assert sol.u.values[-1] == pytest.approx(0.0)
    assert sol.residual <= 1e-10


def test_rarefaction_solution(burgers):
    sol = _solve(burgers, -1.0, 1.0)
    assert sol.monotone
    assert sol.tv_u == pytest.approx(2.0, abs=1e-9)
    # the exact rarefaction is u = xi on [-1, 1]; the viscous profile tracks it
    mid = (np.abs(sol.u.xi) < 0.6) & (np.abs(sol.u.xi) > 0.3)
    assert np.abs(sol.u.values[mid] - sol.u.xi[mid]).max() < 5 * sol.eps


def test_constant_data_is_a_fixed_point(burgers):
    sol = _solve(burgers, 0.4, 0.4)
    np.testing.assert_allclose(sol.u.values, 0.4)
    assert sol.tv_u == 0.0


def test_jump_of_one_double_spacing_converges(burgers):
    # the profile can only take the two data values, so T(u) - u cannot fall
    # below their spacing: a stop at FIX_TOL * jump is never reached
    uL, uR = 1.3999999999999997, 1.4
    assert uR - uL == np.spacing(uL)
    sol = _solve(burgers, uL, uR, eps=0.1, grid_size=800)
    assert sol.monotone and sol.tv_u <= uR - uL
    assert np.all((sol.u.values == uL) | (sol.u.values == uR))


def test_domain_violation_rejected(burgers):
    with pytest.raises(ValueError):
        _solve(burgers, 2.0, 0.0)


def test_picard_step_always_monotone(burgers):
    # the representation map is monotonicity- and TV-preserving even from a
    # wildly oscillating iterate
    cfg = ScalarSolveConfig(eps=0.05, grid_size=512)
    xi = uniform_grid(cfg.M, 512)
    v = GridFunction(xi, ColorProfile(cfg.eps, cfg.p, cfg.M).evaluate_v(xi))
    wild = GridFunction(xi, 1.0 - (xi + 2.0) / 4.0 + 0.4 * np.sin(9.0 * xi) * (4 - xi ** 2) / 4)
    wild = GridFunction(xi, np.clip(wild.values, -1.4, 1.4))
    vals = wild.values.copy()
    vals[0], vals[-1] = 1.0, 0.0
    out = picard_step(burgers, cfg, GridFunction(xi, vals), v)
    assert out.is_monotone()
    assert out.tv() <= 1.0 + 1e-9


@pytest.mark.parametrize("eps", [0.05, 0.00625])
def test_picard_step_matches_log_space_weight(burgers, eps):
    """The one-pass weight against the log-space quadrature reference; the
    summation order differs, so equality holds to rounding."""
    cfg = ScalarSolveConfig(eps=eps, M=2.5)
    n = cfg.resolved_grid_size()
    xi = uniform_grid(cfg.M, n)
    v = GridFunction(xi, ColorProfile(cfg.eps, cfg.p, cfg.M).evaluate_v(xi))
    u = GridFunction(xi, -0.8131 + 1.2093 * (v.values + 1.0) / 2.0)
    h = exponent_h(burgers, u, v)
    log_w = -h.values / eps - np.log(burgers.B0(u.values, v.values))
    log_cum, _ = log_cumtrapz_from(log_w, xi, anchor=0)
    ratio = np.exp(np.minimum(log_cum - log_trapz(log_w, xi), 0.0))
    ratio[0] = 0.0
    out = picard_step(burgers, cfg, u, v)
    np.testing.assert_allclose(out.values, -0.8131 + 1.2093 * ratio, rtol=0, atol=1e-13)
    assert out.values[0] == -0.8131 and out.is_monotone()


def test_picard_step_rejects_non_finite_weight(burgers):
    broken = dataclasses.replace(burgers, B0=lambda u, v: np.zeros_like(u + v))
    cfg = ScalarSolveConfig(eps=0.05, grid_size=512)
    xi = uniform_grid(cfg.M, 512)
    v = GridFunction(xi, ColorProfile(cfg.eps, cfg.p, cfg.M).evaluate_v(xi))
    u = GridFunction(xi, 1.0 - (v.values + 1.0) / 2.0)
    with pytest.raises(QuadratureFailure), np.errstate(all="ignore"):
        picard_step(broken, cfg, u, v)


def test_exponent_h_is_nonnegative_with_zero_min(burgers):
    sol = _solve(burgers, 1.0, 0.0)
    assert sol.h.values.min() == 0.0
    assert np.all(sol.h.values >= 0.0)


def test_warm_start_agrees_with_cold_start(burgers):
    cold = _solve(burgers, 1.0, 0.0, eps=0.05)
    coarse = _solve(burgers, 1.0, 0.0, eps=0.1)
    warm = solve_scalar(burgers, ScalarSolveConfig(eps=0.05), 1.0, 0.0,
                        initial=coarse.u)
    assert np.abs(cold.u.values - warm.u.values).max() < 1e-8
    assert warm.iterations <= cold.iterations


def test_nonconvergence_is_reported(monkeypatch):
    # a single iteration cannot satisfy a 1e-10 fixed-point tolerance from
    # the default initial guess
    monkeypatch.setattr(scalar_module, "MAX_ITERS", 1)
    model_args = (lambda u: np.asarray(u, float), lambda u: np.asarray(u, float),
                  lambda u: np.asarray(u, float) ** 2 / 2.0,
                  lambda u: np.asarray(u, float) ** 2 / 2.0)
    model = build_scalar_model(*model_args)
    with pytest.raises(NonConvergence) as err:
        solve_scalar(model, ScalarSolveConfig(eps=0.05), 1.0, 0.0)
    assert len(err.value.residuals) == 1
    exc = err.value
    assert (exc.eps, exc.n, exc.u_left, exc.u_right, exc.iterations) == (0.05, 1600, 1.0, 0.0, 1)
    for part in ("after 1 iterations", "eps=0.05", "n=1600", "u_left=1", "u_right=0",
                 f"{exc.residuals[-1]:.3e}"):
        assert part in str(exc)


def test_solution_keeps_residual_history(burgers):
    sol = _solve(burgers, 1.0, 0.0)
    assert len(sol.residuals) == sol.iterations
    assert sol.residuals[-1] == sol.residual <= 1e-10
    assert all(r > 1e-10 for r in sol.residuals[:-1])


@pytest.mark.parametrize("uL, uR", [(-0.8131, 0.3962), (-0.8569, 0.0358), (-1.13, 0.655)])
def test_resonant_rarefaction_converges_cold(burgers, uL, uR):
    """Transonic rarefactions have their sonic point at the interface speed
    0; each rung is solved cold and must approach the exact solution."""
    exact = exact_scalar_riemann(lambda w: np.asarray(w, float) ** 2 / 2.0, uL, uR)
    distances = []
    for eps in (0.05, 0.0125, 0.00625):
        sol = _solve(burgers, uL, uR, eps=eps, M=burgers.Lambda + 1.0)
        assert sol.iterations <= 100
        assert sol.monotone
        assert sol.tv_u <= abs(uR - uL) + 1e-12
        distances.append(l1_distance(sol.u, GridFunction(sol.u.xi, exact(sol.u.xi))))
    assert distances[0] > distances[1] > distances[2]


@pytest.mark.parametrize("uL, uR", [(1.2153, -0.3982), (1.257, -0.1119), (1.1052, -0.2164)])
def test_cold_shock_far_from_the_interface_converges(burgers, uL, uR):
    """The cold guess puts the jump in the color layer; these shocks must
    travel 0.41 to 0.57 to their speed, many layer widths at eps = 0.0125,
    which unsafeguarded extrapolation does not survive."""
    sol = _solve(burgers, uL, uR, eps=0.0125, M=burgers.Lambda + 1.0)
    assert sol.monotone
    assert sol.tv_u <= abs(uR - uL) + 1e-12
    mid = sol.u.xi[np.argmin(np.abs(sol.u.values - (uL + uR) / 2.0))]
    assert mid == pytest.approx((uL + uR) / 2.0, abs=0.02)


def test_viscosity_rescaling_invariance(burgers):
    """Scaling structure of the profile equation: multiplying B0 by kappa and
    dividing eps by kappa leaves the equation (and the solution) unchanged."""
    kappa = 3.0
    scaled = build_scalar_model(
        lambda u: np.asarray(u, float), lambda u: np.asarray(u, float),
        lambda u: np.asarray(u, float) ** 2 / 2.0,
        lambda u: np.asarray(u, float) ** 2 / 2.0,
        B0=lambda u, v: kappa * np.ones_like(np.asarray(u, float) + np.asarray(v, float)),
        name="burgers-thick")
    eps = 0.08
    base = solve_scalar(burgers, ScalarSolveConfig(eps=eps, grid_size=2000), 1.0, 0.0)
    resc = solve_scalar(scaled, ScalarSolveConfig(eps=eps / kappa, grid_size=2000,
                                                  p=np.log(eps) / np.log(eps / kappa)),
                        1.0, 0.0)
    # p is adjusted so both runs share the same color field eps^p
    assert np.abs(base.u.values - resc.u.values).max() < 1e-9


@settings(deadline=None, max_examples=15)
@given(st.floats(-1.4, 1.4), st.floats(-1.4, 1.4))
def test_tv_bound_random_data(burgers, uL, uR):
    sol = _solve(burgers, uL, uR, eps=0.1, grid_size=800)
    assert sol.monotone
    assert sol.tv_u <= abs(uR - uL) + 1e-6


def test_trace_window_deviations_small(burgers):
    sol = _solve(burgers, 1.0, 0.0, eps=0.05)
    win = trace_window_check(sol, burgers)
    assert win["sup_dev_left"] < 1e-6
    assert win["sup_dev_right"] < 1e-6
