"""Generalized eigenstructure of the self-similar first-order system.

At each (u, v, xi) the operator pencil (-xi I + A(u, v), B(u, v)) is
diagonalized: (-xi I + A) r_hat_i = mu_i B r_hat_i, with r_hat_i of unit
Euclidean norm and left covectors l_hat_i satisfying l_hat_i . (B r_hat_j) =
delta_ij.  The derived quantities lambda_hat_i = r_hat_i . A r_hat_i and
d_i = 1 / (r_hat_i . B r_hat_i) give mu_i = (-xi + lambda_hat_i) d_i exactly.

Kernels on stacked matrices, importing nothing from ``models``.  The one
eigensolve, ``eig_decomposition``, takes stacked matrices to sorted
eigenvalues, unit eigenvectors with a sign rule and a realness mask: the
quadratic formula for N <= 2, ``np.linalg.eig`` for N >= 3.  The one stacked
inverse is ``stacked_inv``.  ``pencil_eigen`` builds the pencil's eigendata
on both, at stacked points, from pencil matrices the caller formed once with
``SystemCouplingModel.pencil``, and raises ``HyperbolicityError`` where the
speeds are complex or coincide.  Nothing here differentiates the eigendata:
the system solver differences B r_hat along its grid, and
``models.estimate_eta_nu`` differences whole eigensolves in the color.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# speeds closer than this fraction of max(1, max |mu|) count as coincident
GAP_FLOOR = 1e-8


class HyperbolicityError(ValueError):
    """Complex or coincident eigenvalues; records the offending point."""

    def __init__(self, u, v, xi, reason: str = "complex eigenvalues"):
        super().__init__(f"{reason} at u={np.asarray(u)}, v={v}, xi={xi}")
        self.point = (np.asarray(u).copy(), float(v), float(xi))


@dataclass(frozen=True)
class SpectralData:
    """Eigendata at n stacked points (leading axis n)."""

    mu: np.ndarray            # (..., N)
    r_hat: np.ndarray         # (..., N, N), row i = right eigenvector of family i
    l_hat: np.ndarray         # (..., N, N), row i = left covector of family i
    lambda_hat: np.ndarray    # (..., N)
    d: np.ndarray             # (..., N)


def _fix_signs(R: np.ndarray) -> np.ndarray:
    """Columns of each matrix in R get the deterministic sign: largest-|.|
    component > 0."""
    k = np.argmax(np.abs(R), axis=-2)[..., None, :]
    return np.where(np.take_along_axis(R, k, axis=-2) < 0, -R, R)


def _eig_closed_form(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``eig_decomposition`` for N <= 2, from the quadratic formula.  With
    h = (a - d)/2 and s = -+sqrt(h^2 + bc), the eigenvalues of
    [[a, b], [c, d]] are a + p = d + q, p = s - h and q = s + h, each taken
    with the smaller of p and q, so a triangular matrix gets its diagonal
    exactly.  The eigenvector is the larger of (b, p) and (q, c), so a
    diagonal matrix gets exact unit vectors.  Where both vanish (A = a I),
    and where the spectrum is not real, the vectors are those of the
    identity."""
    if A.shape[-1] == 1:
        return A[..., 0], np.ones_like(A), np.ones(A.shape[:-2], dtype=bool)
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    m, h = (a + d) / 2.0, (a - d) / 2.0
    disc = h * h + b * c
    # the rule of the LAPACK path, with |Im w| = sqrt(-disc) for a complex pair
    real = -disc <= (1e-9 * np.maximum(1.0, np.abs(m))) ** 2
    # the last axis runs over the two families, s = -+sqrt(disc)
    s = np.sqrt(np.maximum(disc, 0.0))[..., None] * np.array([-1.0, 1.0])
    a, b, c, d, h = (x[..., None] for x in (a, b, c, d, h))
    p, q = s - h, s + h   # lambda - a and lambda - d
    w = np.where(np.abs(p) <= np.abs(q), a + p, d + q)
    # sorted also where rounding swaps a pair closer than a few ulps
    w = np.stack([np.minimum(w[..., 0], w[..., 1]), np.maximum(w[..., 0], w[..., 1])], axis=-1)
    size1, size2 = b * b + p * p, q * q + c * c
    first = size1 >= size2
    identity = ~real[..., None] | (np.maximum(size1, size2) == 0.0)
    x = np.where(identity, [1.0, 0.0], np.where(first, b, q))
    y = np.where(identity, [0.0, 1.0], np.where(first, p, c))
    # unit length, largest-|.| component (the first on a tie) positive
    norm = np.sqrt(x * x + y * y) * np.where(np.where(np.abs(x) >= np.abs(y), x, y) < 0, -1.0, 1.0)
    return w, np.stack([x / norm, y / norm], axis=-1), real


def eig_decomposition(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted eigenvalues of the stacked matrices A (..., N, N), their unit
    eigenvectors (rows, largest-|.| component positive), and the mask (...,)
    of matrices whose spectrum is real: |Im w| <= 1e-9 max(1, max |Re w|).
    Where it is not, the eigenvalues are the real parts and the vectors are
    those of the identity.  N <= 2 takes the closed form, N >= 3
    ``np.linalg.eig``."""
    A = np.asarray(A, dtype=float)
    if A.shape[-1] <= 2:
        return _eig_closed_form(A)
    w, V = np.linalg.eig(A)
    real = np.max(np.abs(w.imag), axis=-1) <= 1e-9 * np.maximum(
        1.0, np.max(np.abs(w.real), axis=-1))
    V = np.where(real[..., None, None], V.real, np.eye(V.shape[-1]))
    order = np.argsort(w.real, axis=-1)
    V = np.take_along_axis(V, order[..., None, :], axis=-1)
    V = _fix_signs(V / np.linalg.norm(V, axis=-2, keepdims=True))
    return np.take_along_axis(w.real, order, axis=-1), np.swapaxes(V, -1, -2), real


def stacked_inv(A) -> np.ndarray:
    """Inverses of the stacked matrices A (..., N, N): the adjugate over the
    determinant for N <= 2, where LAPACK's per-matrix overhead would dominate,
    and ``np.linalg.inv`` above.  A singular matrix raises LinAlgError, as in
    ``np.linalg.inv``."""
    A = np.asarray(A, dtype=float)
    if A.shape[-1] > 2:
        return np.linalg.inv(A)
    if A.shape[-1] == 1:
        det, adj = A[..., 0, 0], np.ones_like(A)
    else:
        a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
        det, adj = a * d - b * c, np.stack([d, -b, -c, a], axis=-1).reshape(A.shape)
    if not det.all():
        raise np.linalg.LinAlgError("Singular matrix")
    return adj / det[..., None, None]


def pencil_eigen(A: np.ndarray, B: np.ndarray, U, v, xi) -> SpectralData:
    """Eigendata of the pencil (-xi I + A, B), given its matrices A, B
    (n, N, N) at the stacked points (U[k], v[k], xi[k]), from
    ``eig_decomposition`` of B^-1 (-xi I + A); the points only name the first
    non-hyperbolic one in a HyperbolicityError: complex speeds, or two speeds
    closer than GAP_FLOOR max(1, max |mu|).

    Eigenvector signs are fixed per point (largest component positive) and
    then continued along the points: each r_hat_i is flipped so that
    r_hat_i(k) . r_hat_i(k-1) >= 0.  The left covectors flip with their
    eigenvectors.
    """
    shifted = -xi[:, None, None] * np.eye(A.shape[-1]) + A
    _, R, real = eig_decomposition(stacked_inv(B) @ shifted)
    if not real.all():
        k = int(np.argmin(real))
        raise HyperbolicityError(U[k], v[k], xi[k])
    V = np.swapaxes(R, 1, 2)

    lam_hat = np.einsum("nji,nji->ni", V, A @ V)
    order = np.argsort(lam_hat, axis=1)
    V = np.take_along_axis(V, order[:, None, :], axis=2)
    lam_hat = np.take_along_axis(lam_hat, order, axis=1)

    BV = B @ V
    d = 1.0 / np.einsum("nji,nji->ni", V, BV)
    mu = (-xi[:, None] + lam_hat) * d
    gap = np.where(np.eye(mu.shape[1], dtype=bool), np.inf, np.abs(mu[:, None, :] - mu[:, :, None]))
    close = (gap < GAP_FLOOR * np.maximum(1.0, np.abs(mu).max(axis=1))[:, None, None]).any(axis=(1, 2))
    if close.any():
        k = int(np.argmax(close))
        raise HyperbolicityError(U[k], v[k], xi[k], "coincident speeds")
    L = stacked_inv(BV)   # rows l_hat_i: l_hat_i . (B r_hat_j) = delta_ij

    R = np.swapaxes(V, 1, 2)
    flips = np.ones_like(mu)
    dots = np.einsum("nij,nij->ni", R[:-1], R[1:])
    flips[1:] = np.cumprod(np.where(dots < 0, -1.0, 1.0), axis=0)
    return SpectralData(mu=mu, r_hat=R * flips[:, :, None],
                        l_hat=L * flips[:, :, None], lambda_hat=lam_hat, d=d)

