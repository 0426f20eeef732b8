"""Generalized eigenstructure of the self-similar first-order system.

At each (u, v, xi) the operator pencil (-xi I + A(u, v), B(u, v)) is
diagonalized: (-xi I + A) r_hat_i = mu_i B r_hat_i, with r_hat_i of unit
Euclidean norm and left covectors l_hat_i satisfying l_hat_i . (B r_hat_j) =
delta_ij.  The derived quantities lambda_hat_i = r_hat_i . A r_hat_i and
d_i = 1 / (r_hat_i . B r_hat_i) give mu_i = (-xi + lambda_hat_i) d_i exactly.

All of it is computed by one kernel, ``eigen_fields``, on stacked points with
stacked LAPACK calls; the single-point ``solve_generalized_eigen`` is its
n = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .models import ModelConstructionError, SystemCouplingModel


class HyperbolicityError(ValueError):
    """Complex eigenvalues encountered; records the offending point."""

    def __init__(self, u, v, xi):
        super().__init__(f"complex eigenvalues at u={np.asarray(u)}, v={v}, xi={xi}")
        self.point = (np.asarray(u).copy(), float(v), float(xi))


@dataclass(frozen=True)
class SpectralData:
    """Eigendata at one point, or at n stacked points (leading axis n)."""

    mu: np.ndarray            # (..., N)
    r_hat: np.ndarray         # (..., N, N), row i = right eigenvector of family i
    l_hat: np.ndarray         # (..., N, N), row i = left covector of family i
    lambda_hat: np.ndarray    # (..., N)
    d: np.ndarray             # (..., N)
    residual: np.ndarray      # (...,) 2-norm of the pencil residual


def _fix_signs(R: np.ndarray) -> np.ndarray:
    """Columns of each matrix in R get the deterministic sign: largest-|.|
    component > 0."""
    k = np.argmax(np.abs(R), axis=-2)[..., None, :]
    return np.where(np.take_along_axis(R, k, axis=-2) < 0, -R, R)


def _signs(dots: np.ndarray) -> np.ndarray:
    s = np.sign(dots)
    s[s == 0] = 1.0
    return s


def eig_decomposition(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real sorted eigenvalues of A with unit right eigenvectors (rows) and
    left covectors (rows) normalized so that l_i . r_j = delta_ij."""
    w, V = np.linalg.eig(np.asarray(A, dtype=float))
    if np.max(np.abs(w.imag)) > 1e-9 * max(1.0, np.max(np.abs(w.real))):
        raise ModelConstructionError("complex eigenvalues: loss of hyperbolicity")
    order = np.argsort(w.real)
    V = V[:, order].real
    V = V / np.linalg.norm(V, axis=0, keepdims=True)
    V = _fix_signs(V)
    L = np.linalg.inv(V)
    return w.real[order], V.T, L


def eigen_fields(model: SystemCouplingModel, U, v, xi,
                 reference: np.ndarray | None = None) -> SpectralData:
    """Eigendata of the pencil at the stacked points (U[k], v[k], xi[k]).

    Eigenvector signs are fixed per point (largest component positive) and
    then, without ``reference``, continued along the points: each r_hat_i
    is flipped so that r_hat_i(k) . r_hat_i(k-1) >= 0.  With ``reference``
    (n, N, N), each r_hat_i(k) is matched to reference[k, i] instead.  The
    left covectors always flip with their eigenvectors.
    """
    U = np.asarray(U, dtype=float).reshape(-1, model.N)
    v = np.asarray(v, dtype=float).reshape(-1)
    xi = np.asarray(xi, dtype=float).reshape(-1)
    A = model.A(U, v)
    B = model.B(U, v)
    shifted = -xi[:, None, None] * np.eye(model.N) + A
    w, V = np.linalg.eig(np.linalg.solve(B, shifted))
    bad = np.max(np.abs(w.imag), axis=1) > 1e-9 * np.maximum(
        1.0, np.max(np.abs(w.real), axis=1))
    if bad.any():
        k = int(np.argmax(bad))
        raise HyperbolicityError(U[k], v[k], xi[k])
    V = V.real
    V = _fix_signs(V / np.linalg.norm(V, axis=-2, keepdims=True))

    lam_hat = np.einsum("nji,njk,nki->ni", V, A, V)
    order = np.argsort(lam_hat, axis=1)
    V = np.take_along_axis(V, order[:, None, :], axis=2)
    lam_hat = np.take_along_axis(lam_hat, order, axis=1)

    d = 1.0 / np.einsum("nji,njk,nki->ni", V, B, V)
    mu = (-xi[:, None] + lam_hat) * d
    BV = B @ V
    L = np.linalg.inv(BV)   # rows l_hat_i: l_hat_i . (B r_hat_j) = delta_ij
    residual = np.linalg.norm(shifted @ V - BV * mu[:, None, :], 2, axis=(1, 2))

    R = np.swapaxes(V, 1, 2)
    if reference is None:
        flips = np.ones_like(mu)
        flips[1:] = np.cumprod(_signs(np.einsum("nij,nij->ni", R[:-1], R[1:])), axis=0)
    else:
        flips = _signs(np.einsum("nij,nij->ni", reference, R))
    return SpectralData(mu=mu, r_hat=R * flips[:, :, None],
                        l_hat=L * flips[:, :, None], lambda_hat=lam_hat, d=d,
                        residual=residual)


def solve_generalized_eigen(model: SystemCouplingModel, u, v: float, xi: float) -> SpectralData:
    """Eigendata at one point: ``eigen_fields`` with n = 1."""
    data = eigen_fields(model, u, v, xi)
    point = {f.name: getattr(data, f.name)[0] for f in fields(SpectralData)}
    point["residual"] = float(point["residual"])
    return SpectralData(**point)


def estimate_eta_nu(model: SystemCouplingModel, sample_count: int = 24,
                    v_step: float = 1e-5) -> tuple[float, float]:
    """eta = max sampled operator-norm distance of B from the identity;
    nu = max sampled |l_hat_i . d/dv (B r_hat_j)| by central differences."""
    pts = model.ball_samples(sample_count)
    vs = np.linspace(-1.0 + v_step, 1.0 - v_step, 9)
    xis = np.linspace(-model.M, model.M, 5)
    # the (state, color, xi) sample grid, flattened in that order
    i, j, k = np.indices((len(pts), len(vs), len(xis))).reshape(3, -1)
    U, v, xi = pts[i], vs[j], xis[k]
    eta = np.linalg.norm(model.B(U, v) - np.eye(model.N), 2, axis=(1, 2)).max()
    # the signs continued along the samples cancel in |l_hat_i . d/dv (B r_hat_j)|
    base = eigen_fields(model, U, v, xi)

    def Br(dv):
        shifted = eigen_fields(model, U, v + dv, xi, reference=base.r_hat)
        return model.B(U, v + dv) @ np.swapaxes(shifted.r_hat, 1, 2)

    dBr = (Br(v_step) - Br(-v_step)) / (2.0 * v_step)
    nu = np.abs(base.l_hat @ dBr).max()
    return float(eta), float(nu)


def check_xi_derivatives(model: SystemCouplingModel, u, v: float, xi: float,
                         step: float = 1e-5) -> dict:
    """Finite-difference d/dxi of r_hat and mu, with a Richardson half-step
    consistency estimate; for B = I these are 0 and -1 exactly."""
    base = eigen_fields(model, u, v, xi)

    def fd(h):
        hi = eigen_fields(model, u, v, xi + h, reference=base.r_hat)
        lo = eigen_fields(model, u, v, xi - h, reference=base.r_hat)
        return (hi.r_hat[0] - lo.r_hat[0]) / (2.0 * h), (hi.mu[0] - lo.mu[0]) / (2.0 * h)

    dr, dmu = fd(step)
    dr_half, dmu_half = fd(step / 2.0)
    return {
        "d_r_norm": np.linalg.norm(dr, axis=1),
        "d_mu": dmu,
        "d_mu_plus_one": np.abs(dmu + 1.0),
        "richardson_r": float(np.abs(dr - dr_half).max()),
        "richardson_mu": float(np.abs(dmu - dmu_half).max()),
        "eta": model.eta,
    }
