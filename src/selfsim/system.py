"""Small-system self-similar viscous Riemann solver.

The state derivative is decomposed in the generalized eigenbasis,
A0 u_xi = sum_j a_j r_hat_j.  Projecting the profile equation on l_hat_i gives
eps a_i' = mu_i a_i - eps sum_j a_j l_hat_i . (B r_hat_j)', where the
derivative runs along the profile's path (xi, u(xi), v(xi)).  Each
characteristic coefficient is written as a_i = tau_i phi*_i + theta_i: a wave
strength times the fundamental measure of its family plus a small
correction.  The solve is a two-level fixed point:

  1. frozen path: the eigenfields and the path are frozen at the current
     iterate U, so the coupling l_hat_i . (B r_hat_j)' is a grid difference
     along U and the correction map is linear in a.  Its fixed points at the
     N unit strengths tau = e_k, theta^(k), come from one batched Picard
     iteration, a contraction in the weighted sup-norm
     ||theta|| = sum_k sup |theta_k| / sum_h phi*_h.  The strength then
     solves u(M) = u_L + S tau = u_R exactly, column k of S being
     int A0^-1 sum_j (e_k phi*_k + theta^(k))_j r_hat_j dxi, and
     theta = sum_k tau_k theta^(k);
  2. state: outer Picard iteration on u itself.

Both contractions stop on the a-posteriori error bound q/(1 - q)·update,
with q the measured ratio of their last two updates; the first update alone
stops when it is within the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .color import ColorProfile
from .grid import GridFunction, default_grid_size, uniform_grid
from .measures import WaveMeasureSet, build_phi_star
from .models import SystemCouplingModel, affine_blend
from .quadrature import log_of, weighted_transfer
from .spectral import pencil_eigen

PHI_SUM_FLOOR = 1e-300

# the error bound of the correction's E-norm update (relative to
# max(|tau|, 1)), the gate on the returned profile's boundary residual
# |u(M) - u_R|, and the error bound of the outer state update (relative to
# max(|jump|, 1))
FIX_TOL, MAX_ITERS = 1e-12, 400
STRENGTH_TOL = 1e-9
OUTER_TOL, OUTER_MAX_ITERS = 1e-8, 40
STRENGTH_BALL = 0.25  # delta = STRENGTH_BALL·delta0 bounds |tau| and the jump radius
# the constant of the interaction estimate
# |theta_k| <= ENVELOPE_C (eta t + t^2 + nu t) sum_h phi*_h, t = |tau|,
# checked at every outer iteration
ENVELOPE_C = 1.0


class SmallnessViolation(RuntimeError):
    """Data or iterate outside the regime where the contractions are valid."""


class ContractionFailure(RuntimeError):
    """A loop that diverged or ran out of iterations; carries the measured
    ratio of its last two updates (or residuals) and the last one."""

    def __init__(self, stage: str, estimate: float, residual: float):
        verdict = " >= 1" if estimate >= 1.0 else ""
        super().__init__(f"{stage}: measured contraction factor {estimate:.3g}{verdict}, "
                         f"last residual {residual:.3e}")
        self.stage = stage
        self.estimate = estimate
        self.residual = residual


def _ratio(history: list[float]) -> float:
    """Measured contraction factor: the ratio of the last two entries (an
    entry before the last is above its tolerance, so it is positive)."""
    return history[-1] / history[-2] if len(history) > 1 else float("nan")


def _error_bound(update: float, previous: float | None) -> float:
    """A-posteriori error bound q/(1 - q)·update of a contraction whose
    measured ratio is q = update/previous (Hairer-Wanner II, IV.8): the
    update itself when there is no previous one, inf when q >= 1."""
    if previous is None:
        return update
    q = update / previous
    return q / (1.0 - q) * update if q < 1.0 else float("inf")


def _converged(update: float, previous: float | None, tol: float) -> bool:
    """The stopping rule of the correction map and of the outer loop."""
    return _error_bound(update, previous) <= tol


class EnvelopeViolation(RuntimeError):
    def __init__(self, k: int, xi: float, ratio: float):
        super().__init__(
            f"correction component {k + 1} exceeds its admissible envelope "
            f"at xi={xi:.4f} (ratio {ratio:.3f})")
        self.family = k
        self.xi = xi
        self.ratio = ratio


@dataclass(frozen=True)
class SystemSolveConfig:
    eps: float
    p: float = 1.0
    M: float | None = None
    grid_size: int | None = None
    # for error budgets; unannotated, so not fields
    strength_tol, outer_tol = STRENGTH_TOL, OUTER_TOL

    def __post_init__(self):
        positive = [self.eps, self.p]
        if self.M is not None:
            positive.append(self.M)
        if not all(np.isfinite(x) and x > 0 for x in positive):
            raise ValueError("eps, p, M must be positive finite numbers")
        if self.grid_size is not None and self.grid_size < 64:
            raise ValueError("grid_size must be >= 64")


@dataclass(frozen=True)
class CoefficientFields:
    """Grid samples of the eigenstructure along a path (xi, U(xi), v(xi)) and
    of the coupling ``coupling[n, i, j] = l_hat_i . (B r_hat_j)'``, the
    derivative taken along the path."""

    xi: np.ndarray
    mu: np.ndarray            # (n, N)
    r_hat: np.ndarray         # (n, N, N), [point, family, component]
    A0_inv: np.ndarray        # (n, N, N)
    coupling: np.ndarray      # (n, N, N), [point, i, j]


def assemble_coefficients(model: SystemCouplingModel, U: np.ndarray,
                          v: np.ndarray, xi: np.ndarray) -> CoefficientFields:
    """Pointwise eigendata along the path, from one pencil and one
    eigensolve, and the coupling from central differences of B r_hat along
    the grid (one-sided at the two ends)."""
    N = model.N
    U = np.asarray(U, dtype=float).reshape(len(xi), N)
    v = np.asarray(v, dtype=float)
    xi = np.asarray(xi, dtype=float)

    A, B, A0_inv = model.pencil(U, v)
    base = pencil_eigen(A, B, U, v, xi)
    coupling = base.l_hat @ np.gradient(B @ np.swapaxes(base.r_hat, 1, 2), xi, axis=0)
    return CoefficientFields(xi=xi, mu=base.mu, r_hat=base.r_hat, A0_inv=A0_inv,
                             coupling=coupling)


def build_measures(model: SystemCouplingModel, coeffs: CoefficientFields,
                   eps: float) -> WaveMeasureSet:
    return build_phi_star(coeffs.xi, coeffs.mu, eps, model.lam_low, model.lam_high)


def weighted_norm(theta: np.ndarray, measures: WaveMeasureSet) -> float:
    """E-norm: sum over families of sup |theta_k| / sum_h phi*_h."""
    return float(np.sum(np.max(envelope_ratio(theta, measures), axis=0)))


def envelope_bound(tau: np.ndarray, eta: float, nu: float, A: float) -> float:
    t = float(np.linalg.norm(tau))
    return A * (eta * t + t * t + nu * t)


def envelope_ratio(theta: np.ndarray, measures: WaveMeasureSet) -> np.ndarray:
    """Per-point, per-family ratio |theta_k| / sum_h phi*_h."""
    denom = np.maximum(measures.phi_sum(), PHI_SUM_FLOOR)
    return np.abs(theta) / denom[:, None]


def _state_rate(coeffs: CoefficientFields, a: np.ndarray) -> np.ndarray:
    """u_xi from A0 u_xi = sum_j a_j r_hat_j, for a (..., n, N)."""
    return np.einsum("nab,...nb->...na", coeffs.A0_inv,
                     np.einsum("...nj,njb->...nb", a, coeffs.r_hat))


def correction_map(measures: WaveMeasureSet, coeffs: CoefficientFields,
                   tau: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """One application of the correction map at m strengths at once: tau
    (m, N) and theta (m, n, N) to T(u, tau, theta) (m, n, N).  The source is
    -sum_j a_j l_hat_i . (B r_hat_j)' with a = tau phi* + theta, so the map is
    linear in (tau, theta)."""
    a = tau[:, None, :] * measures.phi + theta
    source = -np.swapaxes(coeffs.coupling @ a[..., None], 1, 2).reshape(-1, len(measures.xi))
    # the kernel takes a nonnegative source: the positive and the negative
    # part of every (strength, family) row are its 2mN rows, each anchored
    # at the family's c_k
    rows = len(source)
    log_phi = np.tile(measures.log_phi.T, (2 * len(tau), 1))
    T = weighted_transfer(log_phi, log_of(np.maximum(np.concatenate([source, -source]), 0.0)),
                          measures.xi, np.tile(measures.c_index, 2 * len(tau)))
    return np.swapaxes((T[:rows] - T[rows:]).reshape(len(tau), measures.N, -1), 1, 2)


def solve_corrections(measures: WaveMeasureSet, coeffs: CoefficientFields,
                      theta: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Picard iteration of the correction map at the N unit strengths
    tau = e_k, batched, from ``theta`` (N, n, N); it stops on the error bound
    of the largest of the N E-norm updates, at ``tol``.  Returns
    (theta, measured contraction factor).  It makes at least two maps, so
    that the factor is a measured ratio, unless the first update is exactly
    zero."""
    units = np.eye(measures.N)
    alpha, q = 0.0, float("nan")
    prev_update = None
    for it in range(1, MAX_ITERS + 1):
        new = correction_map(measures, coeffs, units, theta)
        update = max(weighted_norm(d, measures) for d in new - theta)
        if prev_update is not None and prev_update > 0:
            q = update / prev_update
            alpha = max(alpha, q)
            if it > 3 and q >= 1.0:
                raise ContractionFailure("correction map", q, update)
        theta = new
        if update == 0.0 or (it > 1 and _converged(update, prev_update, tol)):
            break
        prev_update = update
    else:
        raise ContractionFailure("correction map (no convergence)", q, update)
    return theta, alpha


def strength_matrix(measures: WaveMeasureSet, cols: np.ndarray) -> np.ndarray:
    """Matrix with k-th column int phi*_k cols_k dxi, for columns given as
    (n, N, N) [point, family, component]: A0^{-1} r_hat_k for the strength
    solve, r_hat_k for beta."""
    C = np.trapezoid(measures.phi[:, :, None] * cols, measures.xi, axis=0).T
    if abs(np.linalg.det(C)) < 1e-12:
        raise SmallnessViolation("strength matrix singular to tolerance; "
                                 "band separation insufficient")
    return C


def reconstruct_u(measures: WaveMeasureSet, coeffs: CoefficientFields,
                  a: np.ndarray, u_left: np.ndarray) -> np.ndarray:
    """Integrate A0 u_xi = sum_j a_j r_hat_j from u(-M) = u_left."""
    return u_left[None, :] + GridFunction(measures.xi, _state_rate(coeffs, a)).cumtrapz().values


def solve_frozen_path(measures: WaveMeasureSet, coeffs: CoefficientFields,
                      u_left: np.ndarray, u_right: np.ndarray, delta: float,
                      units: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """One outer iteration's solve on the frozen path: the unit corrections
    theta^(k) from ``units`` (N, n, N), then the strength tau with
    u(M) = u_R.  The unit solves stop at FIX_TOL / (sqrt(N) min(delta, 1)),
    so that theta = sum_k tau_k theta^(k) meets FIX_TOL max(|tau|, 1) for
    |tau| <= delta, which is checked.  Returns (tau, theta, units, the
    measured contraction factor of the unit solves)."""
    N = measures.N
    units, alpha = solve_corrections(measures, coeffs, units,
                                     FIX_TOL / (np.sqrt(N) * min(delta, 1.0)))
    Ct = strength_matrix(measures, coeffs.r_hat @ np.swapaxes(coeffs.A0_inv, 1, 2))
    S = Ct + np.trapezoid(_state_rate(coeffs, units), measures.xi, axis=1).T
    tau = np.linalg.solve(S, u_right - u_left)
    if np.linalg.norm(tau) > delta * (1.0 + 1e-9):
        raise SmallnessViolation(
            f"strength |tau|={np.linalg.norm(tau):.3e} escaped the "
            f"admissible ball of radius {delta:.3e}")
    return tau, np.tensordot(tau, units, axes=1), units, alpha


def _check_envelope(theta: np.ndarray, measures: WaveMeasureSet, tau: np.ndarray,
                    eta: float, nu: float) -> float:
    """The interaction estimate at strength ``tau``: returns the measured
    constant C = max |theta_k| / sum_h phi*_h over (eta t + t^2 + nu t),
    0 at t = 0, and raises EnvelopeViolation where C exceeds ENVELOPE_C."""
    ratio = envelope_ratio(theta, measures)
    worst = float(ratio.max())
    scale = envelope_bound(tau, eta, nu, 1.0)
    bound = ENVELOPE_C * scale
    if worst > bound * (1.0 + 1e-9) + 1e-15:
        n_idx, k_idx = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
        raise EnvelopeViolation(int(k_idx), float(measures.xi[n_idx]),
                                worst / max(bound, 1e-300))
    return worst / scale if scale > 0 else 0.0


@dataclass(frozen=True)
class SystemSolveState:
    u: GridFunction
    v: GridFunction
    tau: np.ndarray
    theta: np.ndarray
    a: np.ndarray
    measures: WaveMeasureSet
    coefficients: CoefficientFields
    weighted_norm_theta: float
    boundary_residual: float
    equation_residual: float
    outer_residuals: tuple[float, ...]  # every outer update, relative to max(|jump|, 1)
    tv_u: float
    sup_eps_du: float
    beta: float
    envelope_constant: float  # the measured C of the interaction estimate
    delta: float
    # one per outer iteration: the largest measured ratio of its correction solve
    contraction_estimates: tuple[float, ...]
    eps: float
    u_left: np.ndarray
    u_right: np.ndarray

    @property
    def outer_iterations(self) -> int:
        return len(self.outer_residuals)

    @property
    def outer_error_bound(self) -> float:
        """The error bound the outer loop stopped on."""
        r = self.outer_residuals
        return _error_bound(r[-1], r[-2] if len(r) > 1 else None)


def equation_residual(model: SystemCouplingModel, xi: np.ndarray, U: np.ndarray,
                      v: np.ndarray, eps: float) -> float:
    """max |(-xi A0 + A1) u' - eps (B0 u')'| / max |(-xi A0 + A1) u'| of a
    profile, by central differences on its grid, without the two points at
    each end that the one-sided end differences enter."""
    du = np.gradient(U, xi, axis=0)[..., None]
    K = np.asarray(model.A1(U, v)) - xi[:, None, None] * np.asarray(model.A0(U, v))
    lhs = (K @ du)[2:-2, :, 0]
    rhs = eps * np.gradient((np.asarray(model.B0(U, v)) @ du)[..., 0], xi, axis=0)[2:-2]
    return float(np.abs(lhs - rhs).max() / max(np.abs(lhs).max(), 1e-300))


def admissible_jump_radius(model: SystemCouplingModel) -> float:
    A0_norm = float(np.linalg.norm(model.A0(model.u_ref, 0.0), 2))
    return STRENGTH_BALL * model.delta0 / (2.0 * A0_norm)


def solve_system(model: SystemCouplingModel, config: SystemSolveConfig,
                 u_left, u_right) -> SystemSolveState:
    u_left = np.asarray(u_left, dtype=float)
    u_right = np.asarray(u_right, dtype=float)
    for name, u in (("u_left", u_left), ("u_right", u_right)):
        if u.shape != (model.N,):
            raise ValueError(f"Riemann data {name} has shape {u.shape}; the model has "
                             f"N = {model.N} components, so it must have shape ({model.N},)")
    if not (model.in_ball(u_left) and model.in_ball(u_right)):
        raise SmallnessViolation("Riemann data outside the model state ball")

    delta = STRENGTH_BALL * model.delta0
    r = admissible_jump_radius(model)
    jump = float(np.linalg.norm(u_right - u_left))
    if jump > r:
        raise SmallnessViolation(
            f"|u_R - u_L| = {jump:.3e} exceeds the admissible radius {r:.3e}")

    M = config.M if config.M is not None else model.M
    n = config.grid_size if config.grid_size is not None else default_grid_size(M, config.eps)
    xi = uniform_grid(M, n)
    v = ColorProfile(config.eps, config.p, M).evaluate_v(xi)

    U = u_left[None, :] + (u_right - u_left)[None, :] * affine_blend(v[:, None])

    outer_res: list[float] = []
    alphas: list[float] = []
    scale = max(jump, 1.0)
    units = np.zeros((model.N, n, model.N))

    for outer in range(1, OUTER_MAX_ITERS + 1):
        coeffs = assemble_coefficients(model, U, v, xi)
        measures = build_measures(model, coeffs, config.eps)
        # the unit corrections start from the last iteration's
        tau, theta, units, alpha = solve_frozen_path(measures, coeffs, u_left, u_right,
                                                     delta, units)
        alphas.append(alpha)
        C = _check_envelope(theta, measures, tau, model.eta, model.nu)
        a = tau[None, :] * measures.phi + theta
        U_new = reconstruct_u(measures, coeffs, a, u_left)
        outer_res.append(float(np.abs(U_new - U).max()) / scale)
        U = U_new
        if _converged(outer_res[-1], outer_res[-2] if outer > 1 else None, OUTER_TOL):
            break
    else:
        raise ContractionFailure("outer state iteration (no convergence)",
                                 _ratio(outer_res), outer_res[-1])

    if not model.in_ball(U, slack=1e-6):
        dist = np.linalg.norm(U - model.u_ref, axis=1)
        k = int(np.argmax(dist > model.delta0 + 1e-6))
        raise SmallnessViolation(
            f"converged profile leaves the state ball at xi={xi[k]:.4f}: |u - u_ref| = "
            f"{dist[k]:.6g} exceeds delta0 = {model.delta0:.6g} by {dist[k] - model.delta0:.3e}")

    boundary_residual = float(np.linalg.norm(U[-1] - u_right))
    if boundary_residual > STRENGTH_TOL:
        raise SmallnessViolation(
            f"the profile misses u_R by {boundary_residual:.3e} > {STRENGTH_TOL:g}: "
            "the strength solve is ill-conditioned")
    u_fn = GridFunction(xi, U)
    du = np.gradient(U, xi, axis=0)
    beta = float(np.linalg.norm(np.linalg.inv(strength_matrix(measures, coeffs.r_hat)), 2))
    return SystemSolveState(
        u=u_fn, v=GridFunction(xi, v),
        tau=tau, theta=theta, a=a,
        measures=measures, coefficients=coeffs,
        weighted_norm_theta=weighted_norm(theta, measures),
        boundary_residual=boundary_residual,
        equation_residual=equation_residual(model, xi, U, v, config.eps),
        outer_residuals=tuple(outer_res),
        tv_u=u_fn.tv(),
        sup_eps_du=float(config.eps * np.linalg.norm(du, axis=1).max()),
        beta=beta, envelope_constant=C, delta=delta,
        contraction_estimates=tuple(alphas),
        eps=config.eps, u_left=u_left, u_right=u_right,
    )
