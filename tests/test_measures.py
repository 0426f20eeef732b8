"""Fundamental measures and transfer coefficients against closed forms.

The constant-speed fixture mu_i(x) = lam_i - x makes phi*_i a truncated
Gaussian centered at lam_i with variance eps, so masses, minimizers, and the
leading behavior of J, F, J^psi all have pencil-and-paper oracles.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

import selfsim.measures as measures_module
from selfsim.color import ColorProfile
from selfsim.grid import uniform_grid
from selfsim.measures import (ClassLViolation, _transfer_via_rho, build_phi_star,
                              compute_F, compute_J, compute_J_psi,
                              constant_speed_fields, verify_bounds)
from selfsim.quadrature import LOG_FLOOR, log_cumtrapz_from
from selfsim.system import SystemSolveConfig, admissible_jump_radius, solve_system

from conftest import shifted_p_system

M = 2.0
EPS = 0.05


def _measures(lams=(-1.2, 0.4), eps=EPS, n=3201):
    xi = uniform_grid(M, n)
    mu, lo, hi = constant_speed_fields(xi, lams)
    return build_phi_star(xi, mu, eps, lo, hi)


def test_phi_star_is_truncated_gaussian():
    m = _measures()
    lam = -1.2
    xi = m.xi
    assert m.rho[0] == pytest.approx(lam, abs=xi[1] - xi[0])
    # g = (xi - lam)^2 / 2 up to quadrature error
    np.testing.assert_allclose(m.g[:, 0], (xi - lam) ** 2 / 2.0,
                               atol=1e-6, rtol=1e-6)
    # normalizing mass ~ sqrt(2 pi eps) for a band far from the window edge
    assert m.I[0] == pytest.approx(np.sqrt(2 * np.pi * EPS), rel=1e-3)
    # unit total mass
    assert np.trapezoid(m.phi[:, 0], xi) == pytest.approx(1.0, abs=1e-10)


def test_class_l_sign_pattern_enforced():
    xi = uniform_grid(M, 801)
    mu = np.abs(xi)[:, None]  # positive on both sides: not class L
    with pytest.raises(ClassLViolation):
        build_phi_star(xi, mu, EPS, np.array([-0.1]), np.array([0.1]))


def test_self_transfer_closed_form():
    """J_{i->i}(y) = phi_i(y) (y - c_i): the inner ratio is exactly 1."""
    m = _measures()
    for i in range(2):
        J = compute_J(m, i, i)
        assert J.crosscheck < 1e-8
        expected = m.phi[:, i] * (m.xi - m.c[i])
        keep = m.phi[:, i] > 1e-200
        np.testing.assert_allclose(J.values.values[keep], expected[keep],
                                   rtol=1e-6, atol=1e-12)


def test_self_transfer_pointwise_bound():
    m = _measures()
    for i in range(2):
        J = np.abs(compute_J(m, i, i).values.values)
        keep = m.phi[:, i] > 1e-250
        assert np.all(J[keep] <= 2 * M * m.phi[keep, i] * (1 + 1e-9))


def test_quadratic_self_transfer_closed_form():
    """F_{i,i->i}(y) = phi_i(y) int_{c_i}^y phi_i = phi_i (Phi(y) - Phi(c))."""
    m = _measures()
    i = 0
    F = compute_F(m, i, i, i)
    assert F.crosscheck < 1e-8
    from scipy.integrate import cumulative_trapezoid
    Phi = cumulative_trapezoid(m.phi[:, i], m.xi, initial=0.0)
    expected = m.phi[:, i] * (Phi - Phi[m.c_index[i]])
    keep = m.phi[:, i] > 1e-200
    np.testing.assert_allclose(F.values.values[keep], expected[keep],
                               rtol=1e-5, atol=1e-12)


def test_cross_transfer_scales_linearly_in_eps():
    sups = []
    for eps in (0.1, 0.05, 0.025):
        m = _measures(eps=eps, n=int(80 * M / eps))
        J = compute_J(m, 1, 0).values.values
        denom = m.phi[:, 0] + m.phi[:, 1]
        keep = denom > 1e-250
        sups.append(np.abs(J[keep] / denom[keep]).max())
    slopes = np.diff(np.log(sups)) / np.diff(np.log([0.1, 0.05, 0.025]))
    np.testing.assert_allclose(slopes, 1.0, atol=0.05)


def test_dual_organizations_agree_on_stiff_problem():
    # the default anchor c_i is the minimizer rho_i on this fixture; anchors
    # moved off it make the two organizations take different paths
    m = _measures(eps=0.0125, n=12800)
    for (j, i) in ((0, 1), (1, 0), (0, 0), (1, 1)):
        assert compute_J(m, j, i).crosscheck < 1e-6
        assert compute_F(m, j, j, i).crosscheck < 1e-6
        for shift in (-0.05, 0.05, 0.3):
            c_index = m.c_index.copy()
            c_index[i] = np.argmin(np.abs(m.xi - (m.rho[i] + shift)))
            assert c_index[i] != m.rho_index[i]
            moved = replace(m, c_index=c_index)
            assert compute_J(moved, j, i).crosscheck < 1e-6
            assert compute_F(moved, j, j, i).crosscheck < 1e-6


def _transfer_via_rho_pointwise(log_source, log_phi_i, xi, anchor, rho_idx):
    """Per-point reference for the vectorized rho organization."""
    log_abs, orient = log_cumtrapz_from(log_source - log_phi_i, xi, rho_idx)
    la_c, s_c = log_abs[anchor], orient[anchor]
    out = np.zeros_like(log_abs)
    for k in range(len(xi)):
        m = max(log_abs[k], la_c)
        if not np.isfinite(m):
            continue
        diff = orient[k] * np.exp(log_abs[k] - m) - s_c * np.exp(la_c - m)
        if diff == 0.0:
            continue
        log_val = m + np.log(abs(diff)) + log_phi_i[k]
        out[k] = np.sign(diff) * np.exp(np.clip(log_val, LOG_FLOOR, 700.0))
    return out


def test_transfer_via_rho_matches_pointwise_loop():
    m = _measures(lams=(-1.2, 0.0), eps=0.025, n=1601)
    sources = (m.log_phi[:, 0], m.log_phi[:, 0] + m.log_phi[:, 1],
               np.full_like(m.xi, -np.inf))
    for i in range(2):
        for shift in (0.0, -0.05, 0.3):
            anchor = int(np.argmin(np.abs(m.xi - (m.rho[i] + shift))))
            for src in sources:
                args = (src, m.log_phi[:, i], m.xi, anchor, int(m.rho_index[i]))
                assert np.array_equal(_transfer_via_rho(*args),
                                      _transfer_via_rho_pointwise(*args))


def test_color_weighted_transfer_with_gaussian_weight():
    m = _measures(lams=(-1.2, 0.0))
    psi = ColorProfile(EPS, 1.0, M).evaluate_psi(m.xi)
    Jp = compute_J_psi(m, psi, 1, 1)
    assert Jp.crosscheck < 1e-8
    norm1 = np.trapezoid(psi, m.xi)
    denom = norm1 * 2.0 * m.phi[:, 1]
    keep = m.phi[:, 1] > 1e-250
    ratio = np.abs(Jp.values.values[keep]) / denom[keep]
    # resonant band (0 inside band 2): the sup ratio is 1/4 exactly in the
    # eps -> 0 limit (product of two unit-mass Gaussians at the same center)
    assert ratio.max() == pytest.approx(0.25, rel=0.02)


def test_verify_bounds_two_band_fixture():
    ladder = [0.1, 0.05, 0.025, 0.0125]

    def measure_factory(eps):
        return _measures(lams=(-1.2, 0.0), eps=eps, n=int(80 * M / eps))

    def psi_factory(eps):
        n = int(80 * M / eps)
        return ColorProfile(eps, 1.0, M).evaluate_psi(uniform_grid(M, n))

    report = verify_bounds(measure_factory, ladder, psi_factory=psi_factory)
    names = [c["name"] for c in report["checks"]]
    assert "J^psi fitted constant stability" in names
    for check in report["checks"]:
        assert check["passed"], check
    # cross-family linear slopes are sharp (exactly eps for this fixture)
    for check in report["checks"]:
        if check["name"].startswith("|J_{2->1}"):
            assert check["fitted_slope"] == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("s", [0.0, 0.5, 0.855, 1.2])
def test_estimates_on_solved_measures_are_uniform_across_resonance(p_system, s):
    # A1 + s A0 moves family 1's band from [-1.00, -0.71] through the
    # interface speed 0 (s = 0.855) to [0.20, 0.49]: the estimates hold on
    # the measures of the solved profiles, with the same J^psi constant
    model = shifted_p_system(p_system, s)
    jump = 0.05 * model.delta0 * np.array([1.0, 0.0])
    assert np.linalg.norm(jump) <= admissible_jump_radius(model)
    states = {eps: solve_system(model, SystemSolveConfig(eps=eps), model.u_ref - jump / 2.0,
                                model.u_ref + jump / 2.0)
              for eps in (0.1, 0.05, 0.025)}
    report = verify_bounds(
        lambda eps: states[eps].measures, list(states),
        lambda eps: ColorProfile(eps, 1.0, model.M).evaluate_psi(states[eps].u.xi))
    assert len(report["checks"]) == 20
    assert [c["name"] for c in report["checks"] if not c["passed"]] == []
    constant = next(c for c in report["checks"] if c["name"] == "J^psi fitted constant stability")
    for value in constant["per_eps"].values():
        assert value == pytest.approx(0.5, rel=0.01), (s, constant["per_eps"])


def test_verify_bounds_single_family():
    ladder = [0.1, 0.05]

    def measure_factory(eps):
        return _measures(lams=(0.3,), eps=eps, n=int(80 * M / eps))

    report = verify_bounds(measure_factory, ladder)
    assert report["passed"], report


TWO_FAMILY_CHECKS = [
    "unit mass |int phi - 1|",
    "mass bound c*eps <= I <= 2M",
    "|J_{i->i}| <= 2M phi_i",
    "|J_{2->1}| = O(eps)(phi_i+phi_j)",
    "|J_{1->2}| = O(eps)(phi_i+phi_j)",
    "|F_{1,1->1}| <= C(phi_i+phi_j+phi_k)",
    "|F_{1,2->1}| <= C(phi_i+phi_j+phi_k)",
    "|F_{2,2->1}| <= C(phi_i+phi_j+phi_k)",
    "|F_{1,1->2}| <= C(phi_i+phi_j+phi_k)",
    "|F_{1,2->2}| <= C(phi_i+phi_j+phi_k)",
    "|F_{2,2->2}| <= C(phi_i+phi_j+phi_k)",
    "|J^psi_{1->1}| <= C ||psi||_1 (phi_j+phi_i)",
    "|J^psi_{2->1}| <= C ||psi||_1 (phi_j+phi_i)",
    "|J^psi_{1->2}| <= C ||psi||_1 (phi_j+phi_i)",
    "|J^psi_{2->2}| <= C ||psi||_1 (phi_j+phi_i)",
    "J^psi fitted constant stability",
    "band-2 suppression of phi_1",
    "band-1 suppression of phi_2",
    "tail integral <= eps / h_min",
    "transfer cross-check",
]


def test_verify_bounds_enumerates_every_check_in_order():
    ladder = [0.1, 0.05]

    def psi_factory(eps):
        return ColorProfile(eps, 1.0, M).evaluate_psi(uniform_grid(M, 1601))

    report = verify_bounds(lambda eps: _measures(eps=eps, n=1601), ladder, psi_factory)
    assert [c["name"] for c in report["checks"]] == TWO_FAMILY_CHECKS
    for check in report["checks"]:
        assert list(check["per_eps"]) == ladder
    # one family: no cross-family, quadratic, color or suppression estimate
    report = verify_bounds(lambda eps: _measures(lams=(0.3,), eps=eps, n=1601),
                           ladder, psi_factory)
    assert [c["name"] for c in report["checks"]] == (
        TWO_FAMILY_CHECKS[:3] + TWO_FAMILY_CHECKS[-2:])


@pytest.mark.parametrize("ladder", [[0.1], [0.1, 0.1]])
def test_verify_bounds_rejects_a_ladder_without_two_distinct_rungs(ladder):
    def measure_factory(eps):
        raise AssertionError("a measure was built")

    with pytest.raises(ValueError, match="two distinct rungs"):
        verify_bounds(measure_factory, ladder)


def test_verify_bounds_fits_an_increasing_ladder():
    def fitted(ladder):
        report = verify_bounds(lambda eps: _measures(eps=eps, n=int(80 * M / eps)), ladder)
        return {c["name"]: c.get("fitted_slope", c.get("fitted_D"))
                for c in report["checks"]}

    forward, backward = fitted([0.1, 0.05]), fitted([0.05, 0.1])
    assert forward.keys() == backward.keys()
    for name, value in forward.items():
        assert backward[name] == pytest.approx(value, rel=1e-12, abs=1e-12), name


def test_verify_bounds_reports_the_transfer_crosscheck(monkeypatch):
    ladder = [0.1, 0.05]

    def measure_factory(eps):
        return _measures(eps=eps, n=int(80 * M / eps))

    def crosscheck(report):
        return next(c for c in report["checks"] if c["name"] == "transfer cross-check")

    check = crosscheck(verify_bounds(measure_factory, ladder))
    assert check["passed"] and max(check["per_eps"].values()) <= 1e-6
    # a 1% error in one organization must fail the check on every rung
    monkeypatch.setattr(measures_module, "_transfer_via_rho",
                        lambda *args: 1.01 * _transfer_via_rho(*args))
    report = verify_bounds(measure_factory, ladder)
    check = crosscheck(report)
    assert not check["passed"] and not report["passed"]
    for value in check["per_eps"].values():
        assert value == pytest.approx(0.01 / 1.01)
