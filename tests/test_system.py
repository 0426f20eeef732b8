"""Small-system solver: contraction structure, envelopes, and estimates."""

import numpy as np
import pytest

from selfsim.models import build_scalar_model, system_from_scalar
from selfsim.scalar import ScalarSolveConfig, solve_scalar
from selfsim.system import (SmallnessViolation, SystemSolveConfig,
                            admissible_jump_radius, assemble_coefficients,
                            build_measures, correction_map, envelope_bound,
                            solve_system, strength_matrix, weighted_norm)

EPS = 0.1


@pytest.fixture(scope="module")
def p_state(p_system):
    jump = 0.01 * p_system.delta0
    uL = p_system.u_ref - np.array([jump / 2.0, 0.0])
    uR = p_system.u_ref + np.array([jump / 2.0, 0.0])
    return solve_system(p_system, SystemSolveConfig(eps=EPS), uL, uR)


def test_config_validation():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            SystemSolveConfig(eps=bad)
    with pytest.raises(ValueError):
        SystemSolveConfig(eps=0.1, relaxation=1.5)
    for field in ("M", "outer_tol", "strength_tol", "fix_tol"):
        for bad in (np.nan, -1.0):
            with pytest.raises(ValueError, match="positive finite"):
                SystemSolveConfig(eps=0.1, **{field: bad})
    with pytest.raises(ValueError, match="grid_size"):
        SystemSolveConfig(eps=0.1, grid_size=3)
    for field in ("max_iters", "strength_max_iters", "outer_max_iters"):
        with pytest.raises(ValueError, match=field):
            SystemSolveConfig(eps=0.1, **{field: 0})


def test_boundary_conditions_met(p_state):
    assert p_state.boundary_residual <= 1e-8
    np.testing.assert_allclose(p_state.u.values[0], p_state.u_left, atol=1e-14)


def test_contractions_strictly_below_one(p_state):
    assert p_state.contraction_estimates
    assert max(p_state.contraction_estimates) < 1.0


def test_correction_envelope_holds(p_state):
    # p-system has B = I, so eta = 0 in the envelope
    bound = envelope_bound(p_state.tau, 0.0, nu=_nu(p_state), A=p_state.envelope_constant)
    denom = np.maximum(p_state.measures.phi_sum(), 1e-300)
    worst = float((np.abs(p_state.theta) / denom[:, None]).max())
    assert worst <= bound * (1.0 + 1e-9)


def _nu(state):
    # recover nu from the fitted bound: with eta = 0 the envelope is
    # A (|tau|^2 + nu |tau|); use the preset's estimated nu
    return 0.03  # conservative upper bound for the k=1.0/1.2 preset


def test_strength_scales_with_jump(p_system):
    # tau is approximately linear in the data jump for small jumps
    taus = []
    for scale in (0.005, 0.01):
        jump = scale * p_system.delta0
        uL = p_system.u_ref - np.array([jump / 2.0, 0.0])
        uR = p_system.u_ref + np.array([jump / 2.0, 0.0])
        st = solve_system(p_system, SystemSolveConfig(eps=EPS), uL, uR)
        taus.append(st.tau)
    ratio = np.linalg.norm(taus[1]) / np.linalg.norm(taus[0])
    assert ratio == pytest.approx(2.0, rel=0.05)


def test_strength_bounded_by_matrix_norm(p_state, p_system):
    A0_norm = np.linalg.norm(p_system.A0(p_system.u_ref, 0.0), 2)
    jump = np.linalg.norm(p_state.u_right - p_state.u_left)
    assert np.linalg.norm(p_state.tau) <= 2.0 * A0_norm * p_state.beta * jump


def test_data_outside_ball_rejected(p_system):
    big = p_system.u_ref + np.array([2.0 * p_system.delta0, 0.0])
    with pytest.raises(SmallnessViolation):
        solve_system(p_system, SystemSolveConfig(eps=EPS), p_system.u_ref, big)


def test_jump_exceeding_radius_rejected(p_system):
    r = admissible_jump_radius(p_system, p_system.delta0 / 4.0)
    uL = p_system.u_ref - np.array([r, 0.0])
    uR = p_system.u_ref + np.array([r, 0.0])
    assert np.linalg.norm(uR - uL) > r
    with pytest.raises(SmallnessViolation):
        solve_system(p_system, SystemSolveConfig(eps=EPS), uL, uR)


def test_coefficient_fields_shapes_and_eta_pi(p_system):
    n = 64
    xi = np.linspace(-p_system.M, p_system.M, n)
    from selfsim.color import ColorProfile
    prof = ColorProfile(EPS, 1.0, p_system.M)
    v, psi = prof.evaluate_v(xi), prof.evaluate_psi(xi)
    U = np.tile(p_system.u_ref, (n, 1))
    coeffs = assemble_coefficients(p_system, U, v, xi, psi)
    assert coeffs.kappa.shape == (n, 2, 2, 2)
    # B = I: B d_xi r_hat = d_xi r_hat, and r_hat is xi-independent at fixed
    # (u, v), so the eta*pi product vanishes identically
    assert np.abs(coeffs.eta_pi).max() < 1e-8
    # sigma is nonzero: eigenvectors rotate with the color
    assert np.abs(coeffs.sigma).max() > 1e-4


def test_zero_correction_is_fixed_point_at_zero_strength(p_system):
    n = 128
    xi = np.linspace(-p_system.M, p_system.M, n)
    from selfsim.color import ColorProfile
    prof = ColorProfile(EPS, 1.0, p_system.M)
    v, psi = prof.evaluate_v(xi), prof.evaluate_psi(xi)
    U = np.tile(p_system.u_ref, (n, 1))
    coeffs = assemble_coefficients(p_system, U, v, xi, psi)
    measures = build_measures(p_system, coeffs, EPS)
    tau = np.zeros(2)
    theta = np.zeros((n, 2))
    out = correction_map(measures, coeffs, tau, theta)
    assert weighted_norm(out, measures) == 0.0


def test_strength_matrix_invertible(p_state):
    C, beta = strength_matrix(p_state.measures, p_state.coefficients)
    assert C.shape == (2, 2)
    assert beta > 0
    assert np.isfinite(np.linalg.cond(C))


def test_tv_and_slope_estimates_recorded(p_state):
    jump = np.linalg.norm(p_state.u_right - p_state.u_left)
    assert p_state.tv_u <= 4.0 * jump  # uniform TV estimate, generous constant
    assert p_state.sup_eps_du < 10.0 * jump


def test_n1_system_matches_scalar_solver(burgers):
    # gamma = u + 0.2 u^3 with B0 = 1 + 0.3 u^2 has A0 != I and B != I, so
    # the eta_pi, kappa and A0^{-1} terms enter the system solve (eta > 0)
    def gamma(u):
        return u + 0.2 * np.asarray(u, dtype=float) ** 3

    def flux(w):
        return np.asarray(w, dtype=float) ** 2 / 2.0

    cubic = build_scalar_model(
        gamma, gamma, flux, flux, name="cubic-gamma-viscous",
        B0=lambda u, v: 1.0 + 0.3 * np.asarray(u, dtype=float) ** 2 + 0.0 * np.asarray(v))
    from selfsim.diagnostics import l1_distance
    from selfsim.grid import GridFunction
    # u_center = 0 puts the band [-0.4, 0.4] of Burgers speeds across the
    # interface speed 0 (resonance), in both data orders and down the ladder
    cases = [(burgers, 0.5, 0.1, 0.52, 0.48), (cubic, 0.5, 0.1, 0.52, 0.48)]
    cases += [(burgers, 0.0, eps, uL, -uL)
              for eps in (0.1, 0.05, 0.025) for uL in (0.02, -0.02)]
    for scalar_model, u_center, eps, uL, uR in cases:
        sys_model = system_from_scalar(scalar_model, u_center=u_center, delta0=0.4)
        assert (sys_model.eta > 0) == (scalar_model is cubic)
        scal = solve_scalar(scalar_model, ScalarSolveConfig(eps=eps, M=sys_model.M),
                            uL, uR)
        syst = solve_system(sys_model, SystemSolveConfig(eps=eps),
                            np.array([uL]), np.array([uR]))
        d = l1_distance(scal.u, GridFunction(syst.u.xi, syst.u.values[:, 0]))
        assert d <= 10.0 * (1e-10 + syst.boundary_residual + 1e-8)
