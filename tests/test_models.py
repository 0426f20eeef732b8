"""Model construction, endpoint pinning, presets, and hypothesis validation."""

import dataclasses

import numpy as np
import pytest

from selfsim.models import (ModelConstructionError, ScalarCouplingModel,
                            SystemCouplingModel, affine_blend,
                            build_p_system_model, build_scalar_model,
                            model_from_config, preset_model,
                            system_from_scalar, validate_hypotheses)


def test_scalar_endpoints_pin_to_half_models(burgers):
    us = np.linspace(-1.0, 1.0, 17)
    # burgers halves: gamma = id, f = u^2/2, so A0 = 1 and A1 = u at v = +-1
    np.testing.assert_allclose(burgers.A0(us, -1.0), 1.0)
    np.testing.assert_allclose(burgers.A0(us, 1.0), 1.0)
    np.testing.assert_allclose(burgers.A1(us, -1.0), us, atol=1e-9)
    np.testing.assert_allclose(burgers.A1(us, 1.0), us, atol=1e-9)


def test_linear_pair_blends_speeds(linear_pair):
    us = np.linspace(-1.0, 1.0, 9)
    np.testing.assert_allclose(linear_pair.lam(us, -1.0), -0.5, atol=1e-9)
    np.testing.assert_allclose(linear_pair.lam(us, 1.0), 0.5, atol=1e-9)
    np.testing.assert_allclose(linear_pair.lam(us, 0.0), 0.0, atol=1e-9)


def test_structural_constants(burgers):
    assert burgers.c1 > 0
    assert 0 < burgers.c2 <= burgers.c3
    assert burgers.Lambda == pytest.approx(1.5)  # max |u| on the domain
    assert burgers.contains(0.3)
    assert not burgers.contains(2.0)


def test_rejects_nonmonotone_gamma():
    with pytest.raises(ModelConstructionError):
        build_scalar_model(lambda u: -np.asarray(u, float),
                           lambda u: np.asarray(u, float),
                           lambda u: u, lambda u: u)


def test_rejects_nonpositive_viscosity():
    with pytest.raises(ModelConstructionError):
        build_scalar_model(lambda u: np.asarray(u, float),
                           lambda u: np.asarray(u, float),
                           lambda u: u, lambda u: u,
                           B0=lambda u, v: 0.0 * np.asarray(u, float))


def test_affine_blend_endpoints():
    assert affine_blend(-1.0) == 0.0
    assert affine_blend(1.0) == 1.0


def test_validate_hypotheses_scalar(burgers):
    report = validate_hypotheses(burgers)
    assert report["passed"], report
    assert len(report["checks"]) == 6


def test_validate_hypotheses_system(p_system):
    report = validate_hypotheses(p_system)
    assert report["passed"], report
    names = [c["name"] for c in report["checks"]]
    assert "bands disjoint" in names
    assert "l_i . r_i >= 1 - delta0" in names


def test_validate_hypotheses_is_deterministic(p_system):
    a = validate_hypotheses(p_system)
    b = validate_hypotheses(p_system)
    assert a == b


def test_validate_hypotheses_reports_complex_eigenvalues():
    # A = [[0, -1], [c, 0]] has eigenvalues +-sqrt(-c): complex where the
    # state's first component exceeds 1, on part of the ball
    def A1(u, v):
        c = np.asarray(u, dtype=float)[..., 0] - 1.0 + 0.0 * np.asarray(v, dtype=float)
        out = np.zeros(np.shape(c) + (2, 2))
        out[..., 0, 1] = -1.0
        out[..., 1, 0] = c
        return out

    def eye(u, v):
        return np.broadcast_to(np.eye(2), np.shape(u)[:-1] + (2, 2))

    model = SystemCouplingModel(
        N=2, A0=eye, A1=A1, B0=eye, delta0=0.4,
        lam_low=np.array([-1.0, 0.1]), lam_high=np.array([-0.1, 1.0]),
        eta=0.0, nu=0.0, M=1.5, u_ref=np.array([1.0, 0.0]), name="complex")
    report = validate_hypotheses(model)
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["real separated eigenvalues"]["passed"] is False
    assert checks["|B - I| <= eta"]["passed"] is True
    assert report["passed"] is False


def test_validate_hypotheses_reports_coincident_eigenvalues():
    # A1 = 0 and A0 = B0 = I: both speeds are 0 at every sample, real but
    # not separated
    def eye(u, v):
        return np.broadcast_to(np.eye(2), np.shape(u)[:-1] + (2, 2))

    def zero(u, v):
        return np.zeros(np.shape(u)[:-1] + (2, 2))

    model = SystemCouplingModel(
        N=2, A0=eye, A1=zero, B0=eye, delta0=0.4,
        lam_low=np.array([-1.0, 0.1]), lam_high=np.array([-0.1, 1.0]),
        eta=0.0, nu=0.0, M=1.5, u_ref=np.array([1.0, 0.0]), name="coincident")
    checks = {c["name"]: c for c in validate_hypotheses(model)["checks"]}
    assert checks["real separated eigenvalues"] == {
        "name": "real separated eigenvalues", "extremal": 0.0, "passed": False}


def test_validate_hypotheses_reports_a_singular_A0(p_system):
    # A0 = diag(v, 1) is singular at v = 0, one of the sampled colors: the
    # report says so, and no sample reaches the inversion of A0
    def A0(u, v):
        v = np.broadcast_to(np.asarray(v, dtype=float), np.shape(u)[:-1])
        out = np.zeros(v.shape + (2, 2))
        out[..., 0, 0] = v
        out[..., 1, 1] = 1.0
        return out

    report = validate_hypotheses(dataclasses.replace(p_system, A0=A0))
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["A0 invertible on samples"] == {
        "name": "A0 invertible on samples", "extremal": 0.0, "passed": False}
    assert report["passed"] is False


def test_p_system_speed_bands(p_system):
    # c = sqrt(-pbar') with pbar' in [-k_plus, -k_minus]/tau^2 over the blend:
    # bands must straddle the reference sound speed and stay disjoint
    assert p_system.N == 2
    assert p_system.lam_high[0] < 0 < p_system.lam_low[1]
    tau0 = p_system.u_ref[0]
    c0 = np.sqrt(1.0 / tau0 ** 2)  # k_minus = 1 endpoint
    assert p_system.lam_low[1] < c0 < p_system.lam_high[1]
    assert p_system.eta == 0.0  # B0 = A0 = I
    assert 0.0 < p_system.delta0 < 0.5


def test_p_system_eigenvalues_match_closed_form(p_system):
    # A(u, v) has eigenvalues +-sqrt(-pbar'(tau, v))
    tau, v = 1.3, 0.4
    A, _, _ = p_system.pencil(np.array([tau, 0.0]), v)
    lam = np.sort(np.linalg.eigvals(A).real)
    km, kp = 1.0, 1.2
    w = affine_blend(v)
    c = np.sqrt((w * kp + (1 - w) * km) / tau ** 2)
    np.testing.assert_allclose(lam, [-c, c], rtol=1e-12)


def test_p_system_rejects_positive_pressure_slope():
    with pytest.raises(ModelConstructionError):
        build_p_system_model(lambda t: t, lambda t: 1.0 / np.asarray(t, float))


def test_system_from_scalar_wraps_dimensions(burgers):
    sys_model = system_from_scalar(burgers, u_center=0.5, delta0=0.4)
    assert sys_model.N == 1
    assert sys_model.in_ball(np.array([0.5]))
    A, _, _ = sys_model.pencil(np.array([0.6]), 0.0)
    assert A.shape == (1, 1)
    assert A[0, 0] == pytest.approx(burgers.lam(0.6, 0.0), rel=1e-12)


def test_in_ball_takes_stacked_states(p_system):
    inside = p_system.ball_samples(16)
    outside = p_system.u_ref + np.array([1.01 * p_system.delta0, 0.0])
    assert p_system.in_ball(inside[0]) and p_system.in_ball(inside)
    assert not p_system.in_ball(outside)
    # true only if every row is in the ball
    assert not p_system.in_ball(np.vstack([inside, outside]))
    assert p_system.in_ball(np.vstack([inside, outside]), slack=0.02 * p_system.delta0)


def test_preset_unknown_name():
    with pytest.raises(KeyError):
        preset_model("no-such-model")


def test_model_from_config_polynomial_scalar():
    cfg = {"kind": "scalar",
           "gamma_minus": [0.0, 1.0], "gamma_plus": [0.0, 1.0],
           "f_minus": [0.0, 0.0, 0.5], "f_plus": [0.0, 0.0, 0.5],
           "u_domain": [-1.0, 1.0]}
    model = model_from_config(cfg)
    assert isinstance(model, ScalarCouplingModel)
    us = np.linspace(-0.9, 0.9, 7)
    np.testing.assert_allclose(model.lam(us, 0.0), us, atol=1e-6)


def test_polynomial_config_model_has_closed_form_coefficients():
    # gamma = u + 0.2 u^3 and f = w^2 / 2 on the minus side, so at v = -1
    # A0 = gamma' = 1 + 0.6 u^2 and A1 = f'(gamma) gamma' = gamma gamma'
    cfg = {"kind": "scalar",
           "gamma_minus": [0.0, 1.0, 0.0, 0.2], "gamma_plus": [0.0, 1.0],
           "f_minus": [0.0, 0.0, 0.5], "f_plus": [0.0, 0.0, 0.5]}
    model = model_from_config(cfg)
    u = np.linspace(-1.5, 1.5, 31)
    gamma, d_gamma = u + 0.2 * u ** 3, 1.0 + 0.6 * u ** 2
    for v, a0, a1 in ((-1.0, d_gamma, gamma * d_gamma), (1.0, 1.0, u),
                      (0.0, 0.5 * (d_gamma + 1.0), 0.5 * (gamma * d_gamma + u))):
        np.testing.assert_allclose(model.A0(u, v), a0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(model.A1(u, v), a1, rtol=0, atol=1e-13)
    # p-system: the (2, 1) entry of A1 is p'(tau) at the endpoints
    psys = model_from_config({"kind": "p-system", "p_minus": [3.0, -1.0],
                              "p_plus": [3.0, -1.0, 0.1]})
    U = psys.ball_samples(8)
    for v, dp in ((-1.0, -1.0), (1.0, -1.0 + 0.2 * U[:, 0])):
        np.testing.assert_allclose(psys.A1(U, v)[:, 1, 0], dp, rtol=0, atol=1e-13)


def test_model_from_config_table():
    xs = np.linspace(-1.5, 1.5, 301)
    cfg = {"kind": "scalar",
           "gamma_minus": {"table": {"x": xs.tolist(), "y": xs.tolist()}},
           "gamma_plus": [0.0, 1.0],
           "f_minus": [0.0, 0.5], "f_plus": [0.0, 0.5]}
    model = model_from_config(cfg)
    assert model.contains(1.0)


def test_model_from_config_preset_and_unknown_kind(p_system):
    model = model_from_config({"kind": "preset", "name": "p-system"})
    assert isinstance(model, SystemCouplingModel)
    assert model.delta0 == pytest.approx(p_system.delta0)
    with pytest.raises(KeyError):
        model_from_config({"kind": "mystery"})


def test_stacked_callables_match_pointwise(p_system, burgers):
    # gamma = u + 0.2 u^3 gives A0 != I for N = 1; the p-system with a
    # state- and color-dependent A0 checks the order of the products for N = 2
    cubic = lambda u: u + 0.2 * np.asarray(u, dtype=float) ** 3
    flux = lambda w: np.asarray(w, dtype=float) ** 2 / 2.0
    cubic_gamma = build_scalar_model(cubic, cubic, flux, flux)

    def A0(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        out = np.zeros(np.broadcast_shapes(u.shape[:-1], v.shape) + (2, 2))
        out[..., 0, 0] = 1.0 + 0.2 * u[..., 0]
        out[..., 0, 1] = 0.1 * v
        out[..., 1, 1] = 1.5 + 0.1 * u[..., 1]
        return out

    rng = np.random.default_rng(5)
    for model in (p_system, system_from_scalar(burgers, u_center=0.5, delta0=0.4),
                  system_from_scalar(cubic_gamma, u_center=0.5, delta0=0.4),
                  dataclasses.replace(p_system, A0=A0)):
        U = model.ball_samples(12)
        v = rng.uniform(-1.0, 1.0, 12)

        def fields(u, w):
            return (model.A0(u, w), model.A1(u, w), model.B0(u, w), *model.pencil(u, w))

        stacked = fields(U, v)
        for values in stacked:
            assert values.shape == (12, model.N, model.N)
        for k in range(12):
            for values, point in zip(stacked, fields(U[k], v[k])):
                np.testing.assert_array_equal(values[k], point)
        a0, a1, b0, A, B, A0_inv = stacked
        np.testing.assert_allclose(A @ a0, a1, rtol=0, atol=1e-13)
        np.testing.assert_allclose(B @ a0, b0, rtol=0, atol=1e-13)
        np.testing.assert_allclose(A0_inv @ a0, np.broadcast_to(np.eye(model.N), a0.shape),
                                   rtol=0, atol=1e-13)
