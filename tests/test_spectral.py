"""Generalized eigenstructure: exact identities and sign continuity."""

import dataclasses
import sys

import numpy as np
import pytest

import selfsim.models
import selfsim.spectral
from selfsim.color import ColorProfile
from selfsim.grid import uniform_grid
from selfsim.models import (SystemCouplingModel, estimate_eta_nu, preset_model,
                            validate_hypotheses)
from selfsim.spectral import (GAP_FLOOR, HyperbolicityError, _fix_signs, eig_decomposition,
                              pencil_eigen, stacked_inv)
from selfsim.system import assemble_coefficients

from conftest import traced_peak_mib, with_estimated_eta_nu


def _eigen(model, U, v, xi):
    """The model's pencil at the stacked points, through the kernel."""
    A, B, _ = model.pencil(U, v)
    return pencil_eigen(A, B, U, v, xi)


def _eigen_with_residual(model, U, v, xi):
    """``_eigen`` and, per point, the pencil residual
    |(-xi I + A) R - B R diag(mu)|_2, R the matrix of columns r_hat_i."""
    A, B, _ = model.pencil(U, v)
    data = pencil_eigen(A, B, U, v, xi)
    R = np.swapaxes(data.r_hat, 1, 2)
    residual = (-xi[:, None, None] * np.eye(model.N) + A) @ R - (B @ R) * data.mu[:, None, :]
    return data, np.linalg.norm(residual, 2, axis=(1, 2))


def test_eig_decomposition_eigenpairs():
    A = np.array([[0.0, -1.0], [-0.7, 0.0]])
    w, R, real = eig_decomposition(A)
    assert real and np.all(np.diff(w) > 0)
    for i in range(2):
        np.testing.assert_allclose(A @ R[i], w[i] * R[i], atol=1e-14)
    np.testing.assert_allclose(np.linalg.norm(R, axis=1), 1.0, rtol=1e-14)
    assert np.all(R[np.arange(2), np.abs(R).argmax(axis=1)] > 0)


def _lapack_decomposition(A):
    """eig_decomposition's contract through np.linalg.eig: the oracle of the
    closed form."""
    w, V = np.linalg.eig(A)
    real = np.abs(w.imag).max(axis=-1) <= 1e-9 * np.maximum(1.0, np.abs(w.real).max(axis=-1))
    order = np.argsort(w.real, axis=-1)
    V = np.take_along_axis(V.real, order[..., None, :], axis=-1)
    V = _fix_signs(V / np.linalg.norm(V, axis=-2, keepdims=True))
    return np.take_along_axis(w.real, order, axis=-1), np.swapaxes(V, -1, -2), real


def _with_spectrum(rng, w, count):
    """``count`` matrices V diag(w) V^-1 of 2x2 eigenvector matrices V with
    unit columns and condition number below 10."""
    V = rng.standard_normal((4 * count, 2, 2))
    V = V[np.linalg.cond(V) < 10.0][:count]
    return (V * w[:, None, :]) @ np.linalg.inv(V)


def _assert_matches_lapack(A, w_tol, r_tol):
    w, R, real = eig_decomposition(A)
    w_ref, R_ref, real_ref = _lapack_decomposition(A)
    scale = np.abs(A).max(axis=(-2, -1))
    assert real.all() and real_ref.all()
    residual = A @ np.swapaxes(R, -1, -2) - np.swapaxes(R, -1, -2) * w[..., None, :]
    assert np.all(np.abs(residual).max(axis=(-2, -1)) <= 1e-14 * scale)
    np.testing.assert_allclose(np.linalg.norm(R, axis=-1), 1.0, rtol=1e-15)
    assert np.all(np.abs(w - w_ref) <= w_tol * scale[:, None])
    assert np.all(np.abs(R - R_ref) <= r_tol[:, None, None])
    # the same sign rule: every vector points the way of LAPACK's
    assert np.all(np.einsum("...ij,...ij->...i", R, R_ref) > 0)


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e3, 1e8])
def test_closed_form_matches_lapack_on_real_spectra(rng, scale):
    w = np.sort(rng.uniform(-1.0, 1.0, (200, 2)), axis=1) * scale
    w[:, 1] += 0.1 * scale   # well separated
    A = _with_spectrum(rng, w, 200)
    _assert_matches_lapack(A, 1e-14, np.full(len(A), 1e-12))


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_closed_form_matches_lapack_down_to_the_gap_floor(rng, scale):
    # relative gaps from 1e-1 down to GAP_FLOOR, on a common shift: the
    # eigenvectors of both paths are then accurate to about eps |A| / gap
    gap = np.logspace(-1, np.log10(GAP_FLOOR), 50).repeat(4)
    lam = rng.uniform(-1.0, 1.0, len(gap))
    w = np.column_stack([lam, lam + gap * np.maximum(1.0, np.abs(lam))]) * scale
    A = _with_spectrum(rng, w, len(gap))
    _assert_matches_lapack(A, 1e-14, 1e-14 * np.abs(A).max(axis=(1, 2)) / (w[:, 1] - w[:, 0]))


def test_closed_form_on_triangular_and_diagonal_matrices(rng):
    for mask in ([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[1, 0], [0, 1]]):
        for scale in (1e-8, 1.0, 1e8):
            A = rng.uniform(-1.0, 1.0, (100, 2, 2)) * scale * np.array(mask)
            _assert_matches_lapack(A, 1e-14, np.full(len(A), 1e-12))
    # a diagonal matrix gets the exact unit vectors, and its diagonal exactly
    A = np.array([[[0.4, 0.0], [0.0, -1.2]], [[-3e8, 0.0], [0.0, 7e-8]]])
    w, R, real = eig_decomposition(A)
    assert real.all()
    assert np.array_equal(R, np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]))
    assert np.array_equal(w, np.sort(np.diagonal(A, axis1=1, axis2=2), axis=1))
    # and a multiple of the identity, whose vectors are all eigenvectors
    w, R, real = eig_decomposition(2.5 * np.eye(2))
    assert real and np.array_equal(w, [2.5, 2.5]) and np.array_equal(R, np.eye(2))


def test_closed_form_complex_pairs_get_identity_vectors(rng):
    # the pair m +- i y, with y on both sides of the 1e-9 max(1, |m|) rule
    m = rng.uniform(-3.0, 3.0, 40)
    y = np.tile([1e-6, 1e-8, 2e-9, 5e-10, 1e-11], 8) * np.maximum(1.0, np.abs(m))
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    V = np.array([[1.0, 0.3], [-0.2, 1.0]])
    A = V @ (m[:, None, None] * np.eye(2) + y[:, None, None] * rotation) @ np.linalg.inv(V)
    w, R, real = eig_decomposition(A)
    _, _, real_ref = _lapack_decomposition(A)
    assert np.array_equal(real, real_ref) and np.array_equal(real, y < 1e-9 * np.maximum(1.0, np.abs(m)))
    assert np.array_equal(R[~real], np.broadcast_to(np.eye(2), R[~real].shape))
    np.testing.assert_allclose(w[~real], np.column_stack([m, m])[~real], rtol=1e-14)


def test_closed_form_on_one_component():
    A = np.array([[[-2.0]], [[0.0]], [[3e-8]]])
    w, R, real = eig_decomposition(A)
    assert real.all() and np.array_equal(w, A[..., 0]) and np.array_equal(R, np.ones_like(A))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_stacked_inverse_matches_lapack(rng, N):
    for scale in (1e-8, 1.0, 1e8):
        A = (rng.standard_normal((200, N, N)) + 2.0 * np.eye(N)) * scale
        A = A[np.linalg.cond(A) < 100.0]
        np.testing.assert_allclose(stacked_inv(A) @ A, np.broadcast_to(np.eye(N), A.shape), atol=1e-12)
        np.testing.assert_allclose(stacked_inv(A), np.linalg.inv(A), rtol=1e-12, atol=1e-12 / scale)
    with pytest.raises(np.linalg.LinAlgError):
        stacked_inv(np.zeros((3, N, N)))


def test_pencil_identities_p_system(p_system):
    u = np.array([1.1, 0.05])
    v, xi = 0.3, 0.2
    data, residual = _eigen_with_residual(p_system, u[None], np.array([v]), np.array([xi]))
    mu, r_hat, l_hat, lambda_hat, d = (a[0] for a in (data.mu, data.r_hat, data.l_hat,
                                                      data.lambda_hat, data.d))
    A, B, _ = p_system.pencil(u, v)
    # defining relation (-xi I + A) r = mu B r
    for i in range(2):
        r = r_hat[i]
        np.testing.assert_allclose((-xi * np.eye(2) + A) @ r,
                                   mu[i] * (B @ r), atol=1e-12)
    # biorthogonality l_i . (B r_j) = delta_ij
    np.testing.assert_allclose(l_hat @ (B @ r_hat.T), np.eye(2),
                               atol=1e-13)
    # with B = I: mu = -xi + lambda_hat exactly, d = 1
    np.testing.assert_allclose(mu, -xi + lambda_hat, atol=1e-13)
    np.testing.assert_allclose(d, 1.0, atol=1e-13)
    assert residual[0] <= 1e-12
    assert np.all(np.diff(lambda_hat) > 0)


def test_eigen_sample_identity_over_ball(p_system):
    # 100-point (state, color, xi) sample of the exact identity
    rng = np.random.default_rng(7)
    pts = p_system.ball_samples(100)
    v, xi = np.array([(rng.uniform(-1.0, 1.0), rng.uniform(-p_system.M, p_system.M))
                      for _ in pts]).T
    data, residual = _eigen_with_residual(p_system, pts, v, xi)
    worst_mu = np.abs(data.mu - (-xi[:, None] + data.lambda_hat)).max()
    worst_res = residual.max()
    assert worst_mu <= 1e-10
    assert worst_res <= 1e-9


def test_sweep_is_sign_continuous(p_system):
    xi = uniform_grid(p_system.M, 801)
    v = ColorProfile(0.05, 1.0, p_system.M).evaluate_v(xi)
    U = np.tile(p_system.u_ref, (len(xi), 1))
    # second path: along tau in [0.8, 1.4] the sound speed crosses 1, so the
    # largest component of r_hat_2 = (1, -c) / |.| changes and its per-point
    # sign flips; the continuation along the points must undo that flip
    U_path = np.column_stack([np.linspace(0.8, 1.4, len(xi)), np.zeros(len(xi))])
    for U, v in ((U, v), (U_path, np.zeros(len(xi)))):
        sweep = _eigen(p_system, U, v, xi)
        # eigenvectors vary continuously: no sign jumps along the grid
        dots = np.einsum("nij,nij->ni", sweep.r_hat[1:], sweep.r_hat[:-1])
        assert dots.min() > 0.9
        # with B = I the exact identity mu = -xi + lambda_hat holds pointwise
        np.testing.assert_allclose(sweep.mu, -xi[:, None] + sweep.lambda_hat,
                                   atol=1e-12)


def test_kernel_matches_eig_decomposition_for_identity_viscosity(p_system):
    # B = I: the pencil eigenvalues are those of A shifted by -xi, and the
    # eigenvectors are A's, up to sign
    rng = np.random.default_rng(3)
    U = p_system.ball_samples(50)
    v = rng.uniform(-1.0, 1.0, 50)
    xi = rng.uniform(-p_system.M, p_system.M, 50)
    data = _eigen(p_system, U, v, xi)
    w, R, real = eig_decomposition(p_system.pencil(U, v)[0])
    assert real.all()
    np.testing.assert_allclose(data.mu, w - xi[:, None], atol=1e-12)
    np.testing.assert_allclose(data.mu, data.lambda_hat - xi[:, None], atol=1e-12)
    dots = np.abs(np.einsum("nij,nij->ni", data.r_hat, R))
    np.testing.assert_allclose(dots, 1.0, atol=1e-12)


def test_estimate_eta_nu_identity_viscosity(p_system):
    eta, nu = estimate_eta_nu(p_system)
    assert eta == 0.0
    assert 0.0 < nu < 1.0  # eigenvectors genuinely rotate in v


def test_estimate_eta_nu_forms_the_pencil_once_per_state_and_color(p_system):
    # 64 ball states x 9 colors: the pencil for eta, and the pencil for nu at
    # the interior colors, each with its two color shifts; none is formed
    # per xi sample
    calls = []

    def A0(u, v):
        calls.append(len(v))
        return p_system.A0(u, v)

    estimate_eta_nu(dataclasses.replace(p_system, A0=A0))
    assert calls == [576, 1728]


def test_estimate_eta_nu_solves_one_xi_sample_at_a_time(p_system, monkeypatch):
    # the pencil at the 1,728 (state, color-triple) points is solved at each
    # of the 5 xi samples in turn: one stack of all 8,640 (triple, xi)
    # pencils peaks at 3.7 MiB, one xi sample at a time at 1.1 MiB
    assert traced_peak_mib(estimate_eta_nu, p_system) <= 1.5
    sizes = []

    def counted(A, B, U, v, xi):
        sizes.append(len(xi))
        return pencil_eigen(A, B, U, v, xi)

    monkeypatch.setattr(selfsim.models, "pencil_eigen", counted)
    estimate_eta_nu(p_system)
    assert sizes == [1728] * 5


def test_eig_is_called_only_by_eig_decomposition(p_system, monkeypatch):
    # one assembly (one eigensolve) and one hypothesis check (three) make 4
    # eig_decomposition calls; LAPACK's eig serves them only for N >= 3
    decompositions, callers = [], []
    eig, decompose = np.linalg.eig, selfsim.spectral.eig_decomposition

    def counted_eig(a):
        callers.append(sys._getframe(1).f_code.co_name)
        return eig(a)

    def counted_decomposition(a):
        decompositions.append(np.shape(a)[-1])
        return decompose(a)

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    monkeypatch.setattr(selfsim.spectral, "eig_decomposition", counted_decomposition)
    monkeypatch.setattr(selfsim.models, "eig_decomposition", counted_decomposition)
    n = 64
    for model in (p_system, preset_model("two-band-fixture", speeds=[-1.2, 0.4, 1.5])):
        decompositions.clear()
        callers.clear()
        xi = np.linspace(-model.M, model.M, n)
        assemble_coefficients(model, np.tile(model.u_ref, (n, 1)),
                              np.linspace(-1.0, 1.0, n), xi)
        validate_hypotheses(model)
        assert decompositions == [model.N] * 4
        assert callers == (["eig_decomposition"] * 4 if model.N >= 3 else [])


@pytest.mark.parametrize("c", [0.05, 0.2, 0.5])
def test_eta_covers_the_colors_of_the_hypothesis_check(p_system, c):
    # B = I + c diag(tau - tau0, v/2) is extremal at v = +-1, which the
    # check samples: |B - I| = c/2 inside the state ball
    tau0 = p_system.u_ref[0]

    def B0(u, v):
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        out = np.zeros(np.broadcast_shapes(u.shape[:-1], v.shape) + (2, 2))
        out[..., 0, 0] = 1.0 + c * (u[..., 0] - tau0)
        out[..., 1, 1] = 1.0 + c * v / 2.0
        return out

    model = with_estimated_eta_nu(dataclasses.replace(p_system, B0=B0))
    check, = (ck for ck in validate_hypotheses(model)["checks"] if ck["name"] == "|B - I| <= eta")
    assert check["passed"], check
    assert model.eta == pytest.approx(c / 2.0, rel=1e-12)


def test_complex_speeds_raise_typed_error_at_their_point():
    # B = I and A the rotation at the second point: -xi I + A has the
    # eigenvalues -xi +- i there
    A = np.stack([np.diag([1.0, 2.0]), np.array([[0.0, -1.0], [1.0, 0.0]])])
    U = np.array([[0.01, 0.0], [0.0, 0.02]])
    v, xi = np.array([0.3, -0.2]), np.array([0.5, 0.1])
    with pytest.raises(HyperbolicityError, match="complex eigenvalues") as err:
        pencil_eigen(A, np.broadcast_to(np.eye(2), A.shape), U, v, xi)
    u, v0, xi0 = err.value.point
    np.testing.assert_array_equal(u, U[1])
    assert (v0, xi0) == (-0.2, 0.1)


def test_coincident_speeds_raise_typed_error():
    # A = 0: both speeds equal -xi, so r_hat is not defined by the pencil
    eye = np.eye(2)

    def ident(u, v):
        return np.broadcast_to(eye, np.shape(u)[:-1] + (2, 2))

    model = SystemCouplingModel(
        N=2, A0=ident, A1=lambda u, v: np.zeros(np.shape(u)[:-1] + (2, 2)),
        B0=ident, delta0=0.1, lam_low=np.zeros(2), lam_high=np.zeros(2),
        eta=0.0, nu=0.0, M=1.0, u_ref=np.zeros(2))
    U = np.array([[0.01, 0.0], [0.0, 0.02]])
    v, xi = np.array([0.3, -0.2]), np.array([0.5, 0.1])
    with pytest.raises(HyperbolicityError, match="coincident speeds") as err:
        _eigen(model, U, v, xi)
    u, v0, xi0 = err.value.point
    np.testing.assert_array_equal(u, U[0])
    assert (v0, xi0) == (0.3, 0.5)
    # the floor is GAP_FLOOR max(1, max |mu|): twice it passes, half of it
    # raises at its point
    A = np.stack([np.diag([0.0, 2.0 * GAP_FLOOR]), np.diag([0.0, 0.5 * GAP_FLOOR])])
    B = np.broadcast_to(eye, A.shape)
    pencil_eigen(A[:1], B[:1], U[:1], v[:1], np.zeros(1))
    with pytest.raises(HyperbolicityError, match="coincident speeds") as err:
        pencil_eigen(A, B, U, v, np.zeros(2))
    assert err.value.point[1] == -0.2
