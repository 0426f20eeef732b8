"""Small-system solver: contraction structure, envelopes, and estimates."""

import dataclasses
import re

import numpy as np
import pytest
from scipy.special import erf

import selfsim.models
import selfsim.spectral
import selfsim.system
from selfsim.color import ColorProfile
from selfsim.grid import default_grid_size, uniform_grid
from selfsim.measures import build_phi_star
from selfsim.models import (_CHECK_COLORS, COLOR_STEP, HYPOTHESIS_SAMPLES, SystemCouplingModel,
                            build_scalar_model, estimate_eta_nu, preset_model,
                            system_from_scalar, validate_hypotheses)
from selfsim.quadrature import LOG_FLOOR, log_cumtrapz_from, log_of
from selfsim.scalar import ScalarSolveConfig, solve_scalar
from selfsim.spectral import pencil_eigen
from selfsim.system import (ENVELOPE_C, FIX_TOL, OUTER_TOL, ContractionFailure,
                            EnvelopeViolation, SmallnessViolation,
                            SystemSolveConfig, _converged, admissible_jump_radius,
                            assemble_coefficients, build_measures, correction_map,
                            envelope_bound, envelope_ratio, equation_residual, reconstruct_u,
                            solve_frozen_path, solve_system, strength_matrix,
                            weighted_norm)

from conftest import shifted_p_system, with_estimated_eta_nu

EPS = 0.1


def _cubic_gamma_model(closed_form: bool = False):
    # gamma = u + 0.2 u^3 with B0 = 1 + 0.3 u^2 has A0 != I and B != I, so
    # the coupling's state dependence and A0^{-1} enter the system solve
    # (eta > 0).
    # Without closed_form, gamma' and f' are the builder's finite differences.
    def gamma(u):
        return u + 0.2 * np.asarray(u, dtype=float) ** 3

    def flux(w):
        return np.asarray(w, dtype=float) ** 2 / 2.0

    def d_gamma(u):
        return 1.0 + 0.6 * np.asarray(u, dtype=float) ** 2

    def d_flux(w):
        return np.asarray(w, dtype=float)

    derivatives = dict(d_gamma_minus=d_gamma, d_gamma_plus=d_gamma,
                       d_f_minus=d_flux, d_f_plus=d_flux) if closed_form else {}
    return build_scalar_model(
        gamma, gamma, flux, flux, name="cubic-gamma-viscous",
        B0=lambda u, v: 1.0 + 0.3 * np.asarray(u, dtype=float) ** 2 + 0.0 * np.asarray(v),
        **derivatives)


def _state_dependent_viscosity(p_system):
    """The p-system with a B0 that depends on the state and the color, with
    its own (eta, nu)."""
    tau0 = p_system.u_ref[0]

    def B0(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        out = np.zeros(np.broadcast_shapes(u.shape[:-1], v.shape) + (2, 2))
        out[..., 0, 0] = 1.0 + 0.3 * (u[..., 0] - tau0)
        out[..., 0, 1] = 0.05 * v
        out[..., 1, 0] = 0.1 * (u[..., 0] - tau0)
        out[..., 1, 1] = 1.0 + 0.2 * u[..., 1] + 0.1 * v
        return out

    return with_estimated_eta_nu(dataclasses.replace(p_system, B0=B0, name="p-system-variable-B0"))


def _distinct_halves_model():
    """Burgers flux with gamma_- = u and gamma_+ = 1.5 u: B = 1 / gamma'
    changes across the color layer, so the coupling has a color part."""
    def identity(w):
        return np.asarray(w, dtype=float)

    def flux(w):
        return identity(w) ** 2 / 2.0

    def slope(c):
        return lambda u: np.full(np.shape(u), c)

    return build_scalar_model(
        identity, lambda u: 1.5 * identity(u), flux, flux,
        d_gamma_minus=slope(1.0), d_gamma_plus=slope(1.5),
        d_f_minus=identity, d_f_plus=identity, name="distinct-halves")


def test_every_model_passes_the_eta_check_of_its_own_constants(p_system, burgers):
    # estimate_eta_nu takes eta on the (state, color) sample that
    # validate_hypotheses checks, so the check measures eta itself
    scalars = (_cubic_gamma_model(), _distinct_halves_model(), burgers)
    models = [p_system, _state_dependent_viscosity(p_system),
              *(system_from_scalar(m, u_center=0.5, delta0=0.4) for m in scalars)]
    for model in models:
        check, = (c for c in validate_hypotheses(model)["checks"]
                  if c["name"] == "|B - I| <= eta")
        assert check["passed"] and check["extremal"] == model.eta, (model.name, check)


def _one_stack_eta_nu(model):
    """(eta, nu) as ``estimate_eta_nu`` defines them, with every (state,
    color) triple repeated over the 5 xi samples, each triple's copies kept
    consecutive, and one ``pencil_eigen`` call over the whole stack."""
    N, h = model.N, COLOR_STEP
    pts = model.ball_samples(HYPOTHESIS_SAMPLES)
    B = model.pencil(np.repeat(pts, len(_CHECK_COLORS), axis=0),
                     np.tile(_CHECK_COLORS, len(pts)))[1]
    eta = np.linalg.norm(B - np.eye(N), 2, axis=(1, 2)).max()
    vs = np.linspace(-1.0 + h, 1.0 - h, len(_CHECK_COLORS))
    xis = np.linspace(-model.M, model.M, 5)
    U = np.repeat(pts, 3 * len(vs), axis=0)
    v = (np.tile(vs, len(pts))[:, None] + [0.0, h, -h]).ravel()

    def over_xi(x):
        triples = np.repeat(x.reshape(-1, 3, *x.shape[1:]), len(xis), axis=0)
        return triples.reshape(-1, *x.shape[1:])

    A, B = (over_xi(m) for m in model.pencil(U, v)[:2])
    data = pencil_eigen(A, B, over_xi(U), over_xi(v),
                        np.tile(np.repeat(xis, 3), len(pts) * len(vs)))
    BR = (B @ np.swapaxes(data.r_hat, 1, 2)).reshape(-1, 3, N, N)
    nu = np.abs(data.l_hat[::3] @ (BR[:, 1] - BR[:, 2])).max() / (2.0 * h)
    return float(eta), float(nu)


def test_eta_nu_do_not_depend_on_how_the_samples_are_stacked(p_system, monkeypatch):
    # the sign continuation of pencil_eigen runs along the stack, but it only
    # sets each triple's overall sign, which |l_hat_i . (B r_hat_j)| drops:
    # one xi sample at a time, one stack over all of them, and the ball
    # states in reverse order give the same constants to the last bit
    variable_B0 = _state_dependent_viscosity(p_system)
    scalars = (_cubic_gamma_model(), _distinct_halves_model())
    models = [p_system, preset_model("p-system", k_plus=1.0), variable_B0,
              shifted_p_system(p_system, 0.855),
              *(system_from_scalar(m, u_center=0.5, delta0=0.4) for m in scalars)]
    for model in models:
        assert estimate_eta_nu(model) == _one_stack_eta_nu(model), model.name
    forward = [estimate_eta_nu(m) for m in (p_system, variable_B0)]
    ball_samples = SystemCouplingModel.ball_samples
    monkeypatch.setattr(SystemCouplingModel, "ball_samples",
                        lambda self, count: ball_samples(self, count)[::-1])
    assert [estimate_eta_nu(m) for m in (p_system, variable_B0)] == forward


def _resonant_p_system(p_system):
    """The p-system shifted to the middle of family 1's band, which then lies
    across the interface speed 0."""
    model = shifted_p_system(p_system, -0.5 * (p_system.lam_low[0] + p_system.lam_high[0]))
    assert model.lam_low[0] < 0.0 < model.lam_high[0]
    return model


def _difference_reference(model, U, v, xi, h):
    """The coupling l_hat_i . d_m(B r_hat_j), m = xi, u_1..u_N, v, by central
    differences of whole eigensolves, each shifted r_hat matched in sign to
    the base point by hand; stacked as (n, N + 2, N, N)."""
    def eigen(U, v, xi):
        A, B, _ = model.pencil(U, v)
        return pencil_eigen(A, B, U, v, xi)

    base = eigen(U, v, xi)
    L = base.l_hat

    def cols(dU, dv, dxi):
        shifted = eigen(U + dU, v + dv, xi + dxi)
        flips = np.sign(np.einsum("nij,nij->ni", base.r_hat, shifted.r_hat))
        return np.swapaxes(shifted.r_hat * flips[..., None], 1, 2)

    def B(U, v):
        return model.pencil(U, v)[1]

    def L_dBr(dU, dv, step):
        hi = B(U + dU, v + dv) @ cols(dU, dv, 0.0)
        lo = B(U - dU, v - dv) @ cols(-dU, -dv, 0.0)
        return L @ (hi - lo) / (2.0 * step)

    d_xi = L @ B(U, v) @ (cols(0.0, 0.0, h) - cols(0.0, 0.0, -h)) / (2.0 * h)
    hu = h * model.delta0
    d_u = [L_dBr(hu * e, 0.0, hu) for e in np.eye(model.N)]
    return np.stack([d_xi, *d_u, L_dBr(0.0, h, h)], axis=1)


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
    for field in ("M", "p"):
        for bad in (np.nan, -1.0):
            with pytest.raises(ValueError, match="positive finite"):
                SystemSolveConfig(eps=0.1, **{field: bad})
    with pytest.raises(ValueError, match="grid_size"):
        SystemSolveConfig(eps=0.1, grid_size=3)


def test_boundary_conditions_met(p_state):
    assert p_state.boundary_residual <= 1e-8
    np.testing.assert_allclose(p_state.u.values[0], p_state.u_left, atol=1e-14)


def test_contractions_strictly_below_one(p_state):
    assert p_state.contraction_estimates
    assert max(p_state.contraction_estimates) < 1.0


def test_correction_envelope_holds(p_state, p_system):
    # p-system has B = I, so eta = 0 in the envelope; the recorded constant
    # is the measured C of the returned theta
    bound = envelope_bound(p_state.tau, 0.0, nu=p_system.nu, A=p_state.envelope_constant)
    denom = np.maximum(p_state.measures.phi_sum(), 1e-300)
    worst = float((np.abs(p_state.theta) / denom[:, None]).max())
    assert worst == pytest.approx(bound, rel=1e-12)
    assert 0.0 < p_state.envelope_constant <= ENVELOPE_C


def _law_states(model, direction, eps_values=(0.1, 0.0125)):
    """Solves at each eps and at 0.01 and 0.9 of the admissible radius along
    ``direction``, keyed by (eps, fraction)."""
    radius = admissible_jump_radius(model)
    unit = np.asarray(direction) / np.linalg.norm(direction)
    states = {}
    for eps in eps_values:
        for frac in (0.01, 0.9):
            jump = frac * radius * unit
            states[eps, frac] = solve_system(model, SystemSolveConfig(eps=eps),
                                             model.u_ref - jump / 2.0, model.u_ref + jump / 2.0)
    return states


def test_interaction_constant_belongs_to_the_model(p_system):
    # the measured C of |theta_k| <= C (eta t + t^2 + nu t) sum_h phi*_h
    # depends neither on the jump, over two decades, nor on resonance: it
    # stays at most 0.32 on the p-system, its shifts across the interface
    # speed and the variable-B0 variant, and grows by at most 1.46x from
    # eps 0.1 to 0.0125
    for model in (p_system, *(shifted_p_system(p_system, s) for s in (0.5, 0.855, 1.2)),
                  _state_dependent_viscosity(p_system)):
        C = {key: state.envelope_constant for key, state in
             _law_states(model, [1.0, 0.7]).items()}
        assert max(C.values()) <= 0.5, (model.name, C)
        for frac in (0.01, 0.9):
            assert C[0.0125, frac] <= 2.0 * C[0.1, frac], (model.name, C)


def test_interaction_is_quadratic_in_the_strength_without_color_coupling():
    # identical halves: eta = 0 and nu is rounding, so the envelope ratio is
    # C t^2 and its slope in log |tau| over two decades of jump is 2
    model = preset_model("p-system", k_plus=1.0)
    assert model.eta == 0.0 and model.nu < 1e-10
    states = _law_states(model, [1.0, 0.7])
    for eps in (0.1, 0.0125):
        small, large = states[eps, 0.01], states[eps, 0.9]
        ratios = [float(envelope_ratio(s.theta, s.measures).max()) for s in (small, large)]
        slope = (np.log(ratios[1] / ratios[0])
                 / np.log(np.linalg.norm(large.tau) / np.linalg.norm(small.tau)))
        assert slope == pytest.approx(2.0, abs=0.05), eps


def test_constant_coefficients_make_no_interaction():
    # the 3-speed fixture's eigenfields do not move, at any eps, so its
    # coupling and its corrections vanish and C is rounding
    model = preset_model("two-band-fixture", speeds=[-1.2, 0.0, 0.8])
    for key, state in _law_states(model, [1.0, 0.7, 0.0], eps_values=(0.1,)).items():
        assert state.envelope_constant <= 1e-12, key


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


def test_riemann_data_of_the_wrong_dimension_rejected(p_system):
    # checked before the ball: a 1-vector would broadcast to (u, u)
    for uL, uR in (([1.249], [1.251]), ([1.249, 0.0, 0.0], [1.251, 0.0, 0.0]),
                   (p_system.u_ref, [1.251])):
        with pytest.raises(ValueError, match=r"shape \(\d,\); the model has N = 2"):
            solve_system(p_system, SystemSolveConfig(eps=EPS), np.array(uL), np.array(uR))


def test_jump_exceeding_radius_rejected(p_system):
    r = admissible_jump_radius(p_system)
    uL = p_system.u_ref - np.array([r, 0.0])
    uR = p_system.u_ref + np.array([r, 0.0])
    assert np.linalg.norm(uR - uL) > r
    with pytest.raises(SmallnessViolation):
        solve_system(p_system, SystemSolveConfig(eps=EPS), uL, uR)


def test_profile_leaving_the_ball_names_the_point(p_system):
    # data on the ball boundary with a tau jump: the p-system's intermediate
    # state bulges out of the ball, which the data checks cannot see
    jump = 0.9 * admissible_jump_radius(p_system)
    d = np.sqrt(p_system.delta0 ** 2 - jump ** 2 / 4.0) * (1.0 - 1e-12)
    uL = p_system.u_ref + np.array([-jump / 2.0, d])
    uR = p_system.u_ref + np.array([jump / 2.0, d])
    with pytest.raises(SmallnessViolation, match=r"leaves the state ball at xi=-?\d") as err:
        solve_system(p_system, SystemSolveConfig(eps=EPS), uL, uR)
    excess = float(str(err.value).rsplit(" by ", 1)[1])
    assert 1e-6 < excess < 0.1 * p_system.delta0


def test_coefficient_fields_shapes_and_xi_row(p_system):
    n = 64
    xi = np.linspace(-p_system.M, p_system.M, n)
    U = np.tile(p_system.u_ref, (n, 1))
    coeffs = assemble_coefficients(p_system, U, ColorProfile(EPS, 1.0, p_system.M).evaluate_v(xi), xi)
    assert [f.name for f in dataclasses.fields(coeffs)] == [
        "xi", "mu", "r_hat", "A0_inv", "coupling"]
    assert coeffs.coupling.shape == (n, 2, 2)
    # B = I and r_hat is xi-independent at fixed (u, v): along a path that
    # moves in xi alone the coupling vanishes to rounding over the spacing
    still = assemble_coefficients(p_system, U, np.full(n, 0.3), xi)
    assert np.abs(still.coupling).max() <= 1e-14
    # across the color layer it does not: eigenvectors rotate with the color
    assert np.abs(coeffs.coupling).max() > 1e-4


def _smooth_path(model, n):
    """A path (xi, U, v) through the state ball on n grid points, with its
    exact rates U' and psi = v'."""
    xi = np.linspace(-model.M, model.M, n)
    prof = ColorProfile(EPS, 1.0, model.M)
    c = 0.3 * model.delta0 / np.sqrt(model.N)
    U = model.u_ref + c * np.stack([np.tanh(xi + k) for k in range(model.N)], axis=1)
    dU = c * np.stack([1.0 - np.tanh(xi + k) ** 2 for k in range(model.N)], axis=1)
    return xi, U, prof.evaluate_v(xi), dU, prof.evaluate_psi(xi)


def test_grid_coupling_matches_eigensolve_differences_at_second_order(p_system):
    # the coupling is a central difference of B r_hat along the grid; the
    # reference is the chain rule, (1, U', psi) contracted with the partial
    # derivatives of whole eigensolves.  On nested grids the interior error
    # falls at second order.  The cubic-gamma model takes closed-form gamma',
    # f' here, so that the reference's 1e-4 state step sees no rounding noise
    cubic, halves = (system_from_scalar(m, u_center=0.5, delta0=0.4)
                     for m in (_cubic_gamma_model(closed_form=True), _distinct_halves_model()))
    models = [p_system, cubic, _state_dependent_viscosity(p_system),
              _resonant_p_system(p_system), halves]
    h = 1e-4
    for model in models:
        errors = []
        for n in (401, 801):
            xi, U, v, dU, psi = _smooth_path(model, n)
            ref = _difference_reference(model, U, v, xi, h)
            rate = np.column_stack([np.ones(n), dU, psi])
            total = np.einsum("nm,nmij->nij", rate, ref)
            coupling = assemble_coefficients(model, U, v, xi).coupling
            errors.append(np.abs(coupling - total)[1:-1].max() / np.abs(total).max())
        assert errors[1] <= errors[0] / 3.5 and errors[1] <= 1e-3, (model.name, errors)


def test_finite_difference_model_coupling_matches_the_closed_form():
    # N = 1: r_hat = 1 and l_hat = 1/B, so the coupling along a solved profile
    # is (B'(u) / B) u' with B = B0 / A0.  The builder's finite-difference A0
    # carries about 1e-10 of rounding noise; a grid difference amplifies it
    # by 1/spacing only, not by the 1e5/delta0 of a state step, so the coupling
    # matches the closed form as closely as with closed-form gamma', f'
    errors = []
    for closed_form in (True, False):
        model = system_from_scalar(_cubic_gamma_model(closed_form), u_center=0.5, delta0=0.4)
        state = solve_system(model, SystemSolveConfig(eps=EPS, grid_size=599),
                             np.array([0.52]), np.array([0.48]))
        xi, u = state.u.xi, state.u.values[:, 0]
        coupling = assemble_coefficients(model, state.u.values, state.v.values, xi).coupling
        a0, b0 = 1.0 + 0.6 * u ** 2, 1.0 + 0.3 * u ** 2
        dB = (0.6 * u * a0 - 1.2 * u * b0) / a0 ** 2
        closed = dB * a0 / b0 * np.gradient(u, xi)
        errors.append(np.abs(coupling[:, 0, 0] - closed)[1:-1].max() / np.abs(closed).max())
    # the closed-form model's error is the grid's O(h^2), about 2e-6 here
    assert errors[0] <= 1e-5 and errors[1] <= 2.0 * errors[0], errors


def test_assembly_makes_one_eigensolve(p_system, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[-1]))
        return pencil_eigen(*args, **kwargs)

    monkeypatch.setattr(selfsim.system, "pencil_eigen", counted)
    n = 64
    xi = np.linspace(-p_system.M, p_system.M, n)
    assemble_coefficients(p_system, np.tile(p_system.u_ref, (n, 1)),
                          np.linspace(-1.0, 1.0, n), xi)
    assert calls == [n]


def test_assembly_forms_the_pencil_once(p_system):
    # one pencil, at the n points of the path, shared by the eigensolve and
    # the coupling; the coupling differences along the grid, at no shifted point
    calls = []

    def A0(u, v):
        calls.append(len(v))
        return p_system.A0(u, v)

    model = dataclasses.replace(p_system, A0=A0)
    n = 64
    xi = np.linspace(-p_system.M, p_system.M, n)
    assemble_coefficients(model, np.tile(p_system.u_ref, (n, 1)),
                          np.linspace(-1.0, 1.0, n), xi)
    assert calls == [n]


def test_assembly_inverts_3n_matrices(p_system, monkeypatch):
    # A0 once in the pencil, and B and B r_hat once each in the eigensolve,
    # all through the one stacked inverse
    inv = selfsim.spectral.stacked_inv
    matrices = []

    def counted(a):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return inv(a)

    monkeypatch.setattr(selfsim.models, "stacked_inv", counted)
    monkeypatch.setattr(selfsim.spectral, "stacked_inv", counted)
    n = 64
    xi = np.linspace(-p_system.M, p_system.M, n)
    assemble_coefficients(p_system, np.tile(p_system.u_ref, (n, 1)),
                          np.linspace(-1.0, 1.0, n), xi)
    assert matrices == [n] * 3


def test_solve_builds_one_strength_matrix_per_outer_iteration(p_system, monkeypatch):
    # one A0^-1-weighted matrix per outer iteration, the part of the
    # strength solve's matrix without the corrections, plus the unweighted
    # one for beta
    calls = []

    def counted(measures, cols):
        calls.append(cols)
        return strength_matrix(measures, cols)

    monkeypatch.setattr(selfsim.system, "strength_matrix", counted)
    jump = 0.01 * p_system.delta0
    state = solve_system(p_system, SystemSolveConfig(eps=EPS),
                         p_system.u_ref - np.array([jump / 2.0, 0.0]),
                         p_system.u_ref + np.array([jump / 2.0, 0.0]))
    coeffs = state.coefficients
    weighted = np.einsum("nab,nkb->nka", coeffs.A0_inv, coeffs.r_hat)
    assert len(calls) == state.outer_iterations + 1 and calls[-1] is coeffs.r_hat
    assert not any(c is coeffs.r_hat for c in calls[:-1])
    np.testing.assert_allclose(calls[-2], weighted, rtol=1e-14, atol=1e-15)


def test_solve_takes_one_strength_2_norm(p_system, monkeypatch):
    # matrix 2-norms: |A0(u_ref)| for the admissible radius, and beta once,
    # for the returned state (not once per outer iteration)
    norm = np.linalg.norm
    calls = []

    def counted(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            calls.append(np.shape(x))
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    jump = 0.01 * p_system.delta0
    state = solve_system(p_system, SystemSolveConfig(eps=EPS),
                         p_system.u_ref - np.array([jump / 2.0, 0.0]),
                         p_system.u_ref + np.array([jump / 2.0, 0.0]))
    assert state.outer_iterations > 1
    assert calls == [(2, 2)] * 2


def test_converged_stops_on_the_a_posteriori_bound():
    tol = 1e-8
    # the first update alone stops when it is within the tolerance
    assert _converged(tol, None, tol) and not _converged(1.01 * tol, None, tol)
    # a measured ratio >= 1 never stops, however small the update
    assert not _converged(1e-20, 1e-20, tol) and not _converged(1e-20, 1e-21, tol)
    # q/(1 - q)·update: 9e-9 at q = 0.9, 1.9e-8 at q = 0.95
    assert _converged(1e-9, 1e-9 / 0.9, tol)
    assert not _converged(1e-9, 1e-9 / 0.95, tol)


def test_contraction_failure_says_ge_1_only_for_a_ratio_ge_1():
    diverged = ContractionFailure("correction map", 1.25, 3e-4)
    assert str(diverged) == ("correction map: measured contraction factor 1.25 >= 1, "
                             "last residual 3.000e-04")
    stalled = ContractionFailure("outer state iteration (no convergence)", 0.5, 3e-4)
    assert ">= 1" not in str(stalled) and "0.5" in str(stalled)
    assert (stalled.estimate, stalled.residual) == (0.5, 3e-4)


@pytest.mark.parametrize("cap, stage", [("MAX_ITERS", "correction map"),
                                        ("OUTER_MAX_ITERS", "outer state iteration")])
def test_no_convergence_reports_its_ratio_and_residual(p_system, monkeypatch, cap, stage):
    # two steps are too few for each level at 0.9 of the admissible radius;
    # the error carries the ratio of the last two updates (or residuals),
    # below 1, and the last one, not a residual called a contraction factor
    monkeypatch.setattr(selfsim.system, cap, 2)
    jump = 0.9 * admissible_jump_radius(p_system)
    with pytest.raises(ContractionFailure) as info:
        solve_system(p_system, SystemSolveConfig(eps=EPS),
                     p_system.u_ref - np.array([0.0, jump / 2.0]),
                     p_system.u_ref + np.array([0.0, jump / 2.0]))
    err = info.value
    assert err.stage == f"{stage} (no convergence)"
    assert 0.0 < err.estimate < 1.0 and err.residual > 0.0
    assert ">= 1" not in str(err) and f"{err.residual:.3e}" in str(err)


def test_strength_gate_reports_the_boundary_residual(p_system, monkeypatch):
    # the strength solve is exact, so the boundary residual |u(M) - u_R| is
    # rounding; STRENGTH_TOL gates it on the returned profile, and a miss
    # names the residual
    jump = 0.9 * admissible_jump_radius(p_system)
    uL = p_system.u_ref - np.array([0.0, jump / 2.0])
    uR = p_system.u_ref + np.array([0.0, jump / 2.0])
    residual = solve_system(p_system, SystemSolveConfig(eps=EPS), uL, uR).boundary_residual
    assert 0.0 < residual <= selfsim.system.STRENGTH_TOL
    monkeypatch.setattr(selfsim.system, "STRENGTH_TOL", residual / 2.0)
    with pytest.raises(SmallnessViolation, match=f"misses u_R by {residual:.3e}"):
        solve_system(p_system, SystemSolveConfig(eps=EPS), uL, uR)


def test_envelope_gate_fails_a_model_with_stale_eta_nu(p_system):
    # the variable-B0 variant keeping the p-system's (eta, nu) = (0, 0.025)
    # instead of its own (0.139, 0.135): its theta is 1.84x the envelope
    model = dataclasses.replace(_state_dependent_viscosity(p_system),
                                eta=p_system.eta, nu=p_system.nu)
    jump = 0.1 * admissible_jump_radius(model) * np.array([0.6, 0.8])
    with pytest.raises(EnvelopeViolation, match=r"component 1 exceeds its admissible "
                       r"envelope at xi=-0\.07\d+ \(ratio 1\.8\d+\)") as err:
        solve_system(model, SystemSolveConfig(eps=EPS),
                     model.u_ref - jump / 2.0, model.u_ref + jump / 2.0)
    assert err.value.family == 0 and -0.08 < err.value.xi < -0.07
    assert 1.8 < err.value.ratio < 1.9


def _frozen_p_system_path(p_system):
    """Measures, coefficients and end states of ``_layer_path`` on 599 points."""
    n = 599
    xi, U, v = _layer_path(p_system, n)
    coeffs = assemble_coefficients(p_system, U, v, xi)
    return build_measures(p_system, coeffs, EPS), coeffs, U[0], U[-1]


def test_strength_outside_the_ball_is_a_smallness_violation(p_system):
    measures, coeffs, uL, uR = _frozen_p_system_path(p_system)
    tau, _, _, _ = solve_frozen_path(measures, coeffs, uL, uR, 1.0, np.zeros((2, 599, 2)))
    delta = 0.5 * float(np.linalg.norm(tau))
    with pytest.raises(SmallnessViolation, match=re.escape(
            f"strength |tau|={np.linalg.norm(tau):.3e} escaped the admissible ball "
            f"of radius {delta:.3e}")):
        solve_frozen_path(measures, coeffs, uL, uR, delta, np.zeros((2, 599, 2)))


def test_singular_strength_matrix_is_a_smallness_violation(p_system):
    measures, _, _, _ = _frozen_p_system_path(p_system)
    with pytest.raises(SmallnessViolation, match="strength matrix singular to tolerance"):
        strength_matrix(measures, np.zeros((599, 2, 2)))


def test_diverging_correction_map_reports_its_factor(p_system, monkeypatch):
    # a map theta -> 2 theta + tau phi* doubles every update: the solve stops
    # at its fourth map with the measured factor 2
    monkeypatch.setattr(selfsim.system, "correction_map",
                        lambda measures, coeffs, tau, theta:
                        2.0 * theta + tau[:, None, :] * measures.phi)
    jump = np.array([0.01 * p_system.delta0, 0.0])
    with pytest.raises(ContractionFailure, match="measured contraction factor 2 >= 1") as err:
        solve_system(p_system, SystemSolveConfig(eps=EPS),
                     p_system.u_ref - jump / 2.0, p_system.u_ref + jump / 2.0)
    assert err.value.stage == "correction map" and err.value.estimate == pytest.approx(2.0)
    assert err.value.residual > 0.0


def test_boundary_residual_is_rounding(p_system):
    # u(M) = u_L + S tau with tau = S^-1 (u_R - u_L): the returned profile
    # meets u_R to rounding, at every jump size and direction
    model = _state_dependent_viscosity(p_system)
    for m in (p_system, model, _resonant_p_system(p_system)):
        radius = admissible_jump_radius(m)
        for frac in (0.01, 0.9):
            for direction in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
                jump = frac * radius * direction
                state = solve_system(m, SystemSolveConfig(eps=EPS),
                                     m.u_ref - jump / 2.0, m.u_ref + jump / 2.0)
                bound = 1e-12 * max(float(np.linalg.norm(jump)), 1.0)
                assert state.boundary_residual <= bound, (m.name, frac, direction)


@pytest.mark.parametrize("eps", [0.1, 0.0125])
def test_zero_jump_measures_are_the_eigendata_frozen_at_u_ref(p_system, eps):
    # verify-lemmas solves uL = uR = u_ref when given no data: its measures
    # are, bit for bit, those of the pencil's eigendata frozen at u_ref on
    # the default grid
    for model in (p_system, preset_model("two-band-fixture"),
                  preset_model("two-band-fixture", speeds=[-1.2, 0.0, 0.8])):
        xi = uniform_grid(model.M, default_grid_size(model.M, eps))
        v = ColorProfile(eps, 1.0, model.M).evaluate_v(xi)
        U = np.tile(model.u_ref, (len(xi), 1))
        A, B, _ = model.pencil(U, v)
        frozen = build_phi_star(xi, pencil_eigen(A, B, U, v, xi).mu, eps,
                                model.lam_low, model.lam_high)
        solved = solve_system(model, SystemSolveConfig(eps=eps), model.u_ref,
                              model.u_ref).measures
        for f in dataclasses.fields(frozen):
            assert np.array_equal(getattr(solved, f.name), getattr(frozen, f.name)), \
                (model.name, model.N, f.name)


@pytest.mark.parametrize("variant", [lambda m: m, _state_dependent_viscosity,
                                     _resonant_p_system],
                         ids=["p-system", "variable-B0", "resonant"])
def test_returned_state_is_within_the_tolerances(p_system, variant):
    # the loops stop on an error bound, not on a small update: one more
    # outer step, and one more correction map, built by hand from the
    # returned state, move it by no more than the tolerances
    model = variant(p_system)
    radius = admissible_jump_radius(model)
    for frac in (0.1, 0.9):
        for direction in np.eye(2):
            for eps in (0.1, 0.025):
                jump = frac * radius * direction
                uL, uR = model.u_ref - jump / 2.0, model.u_ref + jump / 2.0
                state = solve_system(model, SystemSolveConfig(eps=eps), uL, uR)
                U, xi = state.u.values, state.u.xi
                coeffs = assemble_coefficients(model, U, state.v.values, xi)
                measures = build_measures(model, coeffs, eps)
                tau, theta, _, _ = solve_frozen_path(measures, coeffs, uL, uR, state.delta,
                                                     np.zeros((2, len(xi), 2)))
                U_next = reconstruct_u(measures, coeffs, tau[None, :] * measures.phi + theta, uL)
                scale = max(float(np.linalg.norm(jump)), 1.0)
                assert np.abs(U_next - U).max() <= OUTER_TOL * scale, (frac, direction, eps)

                theta_next, = correction_map(state.measures, state.coefficients,
                                             state.tau[None], state.theta[None])
                tol = FIX_TOL * max(float(np.linalg.norm(state.tau)), 1.0)
                assert weighted_norm(theta_next - state.theta, state.measures) <= tol


def test_solve_makes_two_assemblies_and_at_most_8_correction_maps(p_system, monkeypatch):
    # at eps 0.1 the outer loop stops on its second update's error bound;
    # each outer iteration makes one batched correction solve, the second
    # started from the first one's unit corrections, and records its
    # measured contraction factor
    calls = {"assemble": 0, "correction": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(selfsim.system, "assemble_coefficients",
                        counting("assemble", assemble_coefficients))
    monkeypatch.setattr(selfsim.system, "correction_map",
                        counting("correction", correction_map))
    jump = 0.01 * p_system.delta0
    state = solve_system(p_system, SystemSolveConfig(eps=EPS),
                         p_system.u_ref - np.array([jump / 2.0, 0.0]),
                         p_system.u_ref + np.array([jump / 2.0, 0.0]))
    assert calls["assemble"] == 2 and calls["correction"] <= 8, calls
    estimates = np.array(state.contraction_estimates)
    assert len(estimates) == state.outer_iterations == 2
    assert np.all(np.isfinite(estimates) & (estimates > 0.0) & (estimates < 1.0)), estimates


def test_warm_started_solve_makes_at_most_11_correction_maps(p_system, monkeypatch):
    # from the second outer iteration on, the unit corrections start from
    # the last iteration's: at 0.9 of the admissible radius the solve takes
    # 3 outer iterations and 11 batched maps, where starts from zero take 12
    calls = []

    def counted(*args):
        calls.append(args)
        return correction_map(*args)

    monkeypatch.setattr(selfsim.system, "correction_map", counted)
    jump = 0.9 * admissible_jump_radius(p_system) * np.array([0.8, 0.6])
    state = solve_system(p_system, SystemSolveConfig(eps=EPS),
                         p_system.u_ref - jump / 2.0, p_system.u_ref + jump / 2.0)
    assert len(calls) <= 11 and state.outer_iterations == 3, len(calls)
    # only the first map of the solve starts from theta = 0
    assert [not np.any(args[3]) for args in calls] == [True] + [False] * (len(calls) - 1)
    estimates = np.array(state.contraction_estimates)
    assert len(estimates) == state.outer_iterations
    assert np.all(np.isfinite(estimates) & (estimates > 0.0) & (estimates < 1.0)), estimates


def test_zero_jump_returns_the_constant_state(p_system):
    # tau = S^-1 0 = 0 exactly, so theta = 0 and the profile is u_L; the unit
    # corrections still measure their contraction factor
    state = solve_system(p_system, SystemSolveConfig(eps=EPS), p_system.u_ref, p_system.u_ref)
    assert np.array_equal(state.u.values, np.tile(p_system.u_ref, (len(state.u.xi), 1)))
    assert state.outer_iterations == 1 and len(state.contraction_estimates) == 1
    assert 0.0 < state.contraction_estimates[0] < 1.0


def test_nan_source_is_rejected_by_correction_map(p_system):
    n = 64
    xi = np.linspace(-p_system.M, p_system.M, n)
    prof = ColorProfile(EPS, 1.0, p_system.M)
    coeffs = assemble_coefficients(p_system, np.tile(p_system.u_ref, (n, 1)),
                                   prof.evaluate_v(xi), xi)
    measures = build_measures(p_system, coeffs, EPS)
    theta = np.zeros((1, n, 2))
    theta[0, n // 2, 0] = np.nan
    with pytest.raises(ValueError, match="finite nonnegative"):
        correction_map(measures, coeffs, np.array([[1e-3, 1e-3]]), theta)


def _row_transfer(log_phi, log_source, x, anchor):
    """The transfer kernel on one row, as it was before the rows were
    stacked: an exp at every point, the log floor included."""
    if np.all(np.isneginf(log_source)):
        return np.zeros_like(log_phi)
    log_abs, orient = log_cumtrapz_from(log_source - log_phi, x, anchor)
    with np.errstate(over="ignore", under="ignore"):
        return orient * np.exp(np.clip(log_phi + log_abs, LOG_FLOOR, 700.0))


def _per_family_correction(measures, coeffs, tau, theta):
    """The correction map at one strength with one transfer call per family
    and sign."""
    source = -(coeffs.coupling @ (tau[None, :] * measures.phi + theta)[..., None])[..., 0]
    out = np.empty_like(theta)
    for k in range(measures.N):
        pos, neg = (_row_transfer(measures.log_phi[:, k],
                                  log_of(np.maximum(sgn * source[:, k], 0.0)),
                                  measures.xi, int(measures.c_index[k]))
                    for sgn in (1.0, -1.0))
        out[:, k] = pos - neg
    return out


def _layer_path(p_system, n):
    xi = np.linspace(-p_system.M, p_system.M, n)
    v = ColorProfile(EPS, 1.0, p_system.M).evaluate_v(xi)
    jump = np.array([0.01 * p_system.delta0, 0.0])
    return xi, p_system.u_ref - jump / 2.0 + jump * (v[:, None] + 1.0) / 2.0, v


def test_stacked_correction_map_matches_per_family_transfers(p_system):
    n = 599
    xi, U, v = _layer_path(p_system, n)
    tau = np.array([2e-3, -1e-3])
    for model in (p_system, _state_dependent_viscosity(p_system)):
        coeffs = assemble_coefficients(model, U, v, xi)
        measures = build_measures(model, coeffs, EPS)
        theta = np.zeros((n, 2))
        for _ in range(2):
            new, = correction_map(measures, coeffs, tau[None], theta[None])
            assert np.array_equal(new, _per_family_correction(measures, coeffs, tau, theta))
            assert np.abs(new).max() > 0.0
            theta = new


def test_batched_correction_map_matches_per_unit_maps(p_system):
    # the N unit strengths in one call (2N^2 transfer rows) give, bit for
    # bit, the N maps made one strength at a time
    n = 599
    xi, U, v = _layer_path(p_system, n)
    for model in (p_system, _state_dependent_viscosity(p_system)):
        coeffs = assemble_coefficients(model, U, v, xi)
        measures = build_measures(model, coeffs, EPS)
        units = np.eye(2)
        theta = np.zeros((2, n, 2))
        for _ in range(2):
            new = correction_map(measures, coeffs, units, theta)
            single = [correction_map(measures, coeffs, units[k:k + 1], theta[k:k + 1])[0]
                      for k in range(2)]
            assert np.array_equal(new, np.stack(single))
            assert np.abs(new).max() > 0.0
            theta = new


def test_zero_correction_is_fixed_point_at_zero_strength(p_system):
    n = 128
    xi = np.linspace(-p_system.M, p_system.M, n)
    v = ColorProfile(EPS, 1.0, p_system.M).evaluate_v(xi)
    coeffs = assemble_coefficients(p_system, np.tile(p_system.u_ref, (n, 1)), v, xi)
    measures = build_measures(p_system, coeffs, EPS)
    out, = correction_map(measures, coeffs, np.zeros((1, 2)), np.zeros((1, n, 2)))
    assert weighted_norm(out, measures) == 0.0


def test_strength_matrix_invertible(p_state):
    C = strength_matrix(p_state.measures, p_state.coefficients.r_hat)
    assert C.shape == (2, 2)
    assert p_state.beta == np.linalg.norm(np.linalg.inv(C), 2) > 0
    assert np.isfinite(np.linalg.cond(C))


def test_tv_and_slope_estimates_recorded(p_state):
    jump = np.linalg.norm(p_state.u_right - p_state.u_left)
    assert p_state.tv_u <= 4.0 * jump  # uniform TV estimate, generous constant
    assert p_state.sup_eps_du < 10.0 * jump


def test_n1_system_matches_scalar_solver(burgers):
    cubic, halves = _cubic_gamma_model(), _distinct_halves_model()
    from selfsim.diagnostics import l1_distance
    from selfsim.grid import GridFunction
    # u_center = 0 puts the band [-0.4, 0.4] of Burgers speeds across the
    # interface speed 0 (resonance), in both data orders and down the ladder;
    # the distinct halves carry the coupling's color row into the solve
    cases = [(burgers, 0.5, 0.1, 0.52, 0.48), (cubic, 0.5, 0.1, 0.52, 0.48)]
    cases += [(burgers, 0.0, eps, uL, -uL)
              for eps in (0.1, 0.05, 0.025) for uL in (0.02, -0.02)]
    cases += [(halves, 0.5, eps, uL, 1.0 - uL)
              for eps in (0.1, 0.05) for uL in (0.51, 0.49)]
    for scalar_model, u_center, eps, uL, uR in cases:
        sys_model = system_from_scalar(scalar_model, u_center=u_center, delta0=0.4)
        assert (sys_model.eta > 0) == (scalar_model is not burgers)
        scal = solve_scalar(scalar_model, ScalarSolveConfig(eps=eps, M=sys_model.M),
                            uL, uR)
        syst = solve_system(sys_model, SystemSolveConfig(eps=eps),
                            np.array([uL]), np.array([uR]))
        d = l1_distance(scal.u, GridFunction(syst.u.xi, syst.u.values[:, 0]))
        assert d <= 10.0 * (1e-10 + syst.boundary_residual + 1e-8)


def test_two_band_fixture_solve_is_the_truncated_gaussian_cdf():
    # A0 = B0 = I and A1 = diag(lam): each component solves
    # (lam_i - xi) u_i' = eps u_i'' alone, so u = uL + jump_i CDF_i, with
    # CDF_i the CDF of the Gaussian phi*_i truncated to [-M, M] (N = 2)
    model = preset_model("two-band-fixture")
    lam = np.array([-1.2, 0.4])
    uL = model.u_ref
    jump = np.array([0.6, -0.5]) * admissible_jump_radius(model)
    for eps in (0.1, 0.0125):
        state = solve_system(model, SystemSolveConfig(eps=eps), uL, uL + jump)
        scale = np.sqrt(2.0 * eps)
        lo, hi = erf((-model.M - lam) / scale), erf((model.M - lam) / scale)
        cdf = (erf((state.u.xi[:, None] - lam) / scale) - lo) / (hi - lo)
        error = np.abs(state.u.values - (uL + jump * cdf)).max()
        assert error <= 1e-5 * np.linalg.norm(jump), (eps, error)


@pytest.mark.parametrize("variant", [lambda m: m, _state_dependent_viscosity,
                                     _resonant_p_system],
                         ids=["p-system", "variable-B0", "resonant"])
def test_equation_residual_falls_with_the_grid(p_system, variant):
    # the profile solves the README equation to the grid's second order, so
    # doubling the grid cuts the central-difference residual by about 4
    model = variant(p_system)
    jump = 0.9 * admissible_jump_radius(model)
    uL = model.u_ref - np.array([jump / 2.0, 0.0])
    uR = model.u_ref + np.array([jump / 2.0, 0.0])
    res = []
    for n in (599, 1197):
        state = solve_system(model, SystemSolveConfig(eps=EPS, grid_size=n), uL, uR)
        assert state.equation_residual == equation_residual(
            model, state.u.xi, state.u.values, state.v.values, EPS)
        res.append(state.equation_residual)
    assert res[1] <= res[0] / 3.0, res
