"""Scalar self-similar viscous Riemann solver.

Solves the boundary-value problem for u(xi) on [-M, M],

    (-xi A0(u, v) + A1(u, v)) u_xi = eps (B0(u, v) u_xi)_xi,

with u(-M) = u_L, u(M) = u_R and the closed-form color field v(xi), by
fixed-point iteration of the explicit representation

    T[u](xi) = u_L + (u_R - u_L) * int_{-M}^{xi} e^{-h/eps} / B0
                                 / int_{-M}^{M}  e^{-h/eps} / B0,

where h is the antiderivative of (zeta - lambda(u, v)) G(u, v) shifted to be
nonnegative.  Every iterate of T is monotone with TV <= |u_R - u_L|, which is
the discrete counterpart of the uniform total-variation bound.

The fixed point u = T(u) is found by type-II Anderson mixing of T (Walker &
Ni, SIAM J. Numer. Anal. 49, 2011) with depth ``ANDERSON_DEPTH`` and mixing
weight ``ANDERSON_MIXING``, for at most ``MAX_ITERS`` iterations.  Plain
damped Picard stalls or cycles on resonant rarefactions, whose sonic point
sits at the interface speed 0.  Each extrapolated iterate is clipped to
[min(u_L, u_R), max(u_L, u_R)] with its ends re-pinned; one that is not
finite, not monotone or outside the model's domain is replaced by the plain
mixed step.  That, or ANDERSON_DEPTH iterations without a new smallest
residual, restarts the history.  The solver returns T(u) of the last
iterate, so the returned profile is monotone with TV <= |u_R - u_L|
whatever the extrapolation did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .color import ColorProfile
from .grid import GridFunction, default_grid_size, uniform_grid
from .models import ScalarCouplingModel, affine_blend

ANDERSON_DEPTH = 5
ANDERSON_MIXING = 0.5
FIX_TOL = 1e-10
MAX_ITERS = 2500


class QuadratureFailure(RuntimeError):
    """The weight of the representation map is not finite."""


class NonConvergence(RuntimeError):
    """The fixed point was not reached within ``MAX_ITERS``; carries the
    residual history and the problem that was being solved."""

    def __init__(self, residuals, eps: float, n: int,
                 u_left: float, u_right: float):
        self.residuals = list(residuals)
        self.iterations = len(self.residuals)
        self.eps, self.n = eps, n
        self.u_left, self.u_right = u_left, u_right
        super().__init__(
            f"fixed point not reached after {self.iterations} iterations "
            f"(eps={eps:g}, n={n}, u_left={u_left:g}, u_right={u_right:g}); "
            f"last residual {self.residuals[-1]:.3e}")


@dataclass(frozen=True)
class ScalarSolveConfig:
    eps: float
    p: float = 1.0
    M: float = 2.0
    grid_size: int | None = None
    fix_tol = FIX_TOL  # for error budgets; unannotated, so not a field

    def __post_init__(self):
        if not all(np.isfinite(x) and x > 0 for x in (self.eps, self.p, self.M)):
            raise ValueError("eps, p, M must be positive finite numbers")
        if self.grid_size is not None and self.grid_size < 64:
            raise ValueError("grid_size must be >= 64")

    def resolved_grid_size(self) -> int:
        if self.grid_size is not None:
            return self.grid_size
        return default_grid_size(self.M, self.eps)


@dataclass(frozen=True)
class ScalarSolution:
    u: GridFunction
    v: GridFunction
    h: GridFunction
    tv_u: float
    monotone: bool
    eps: float
    p: float
    u_left: float
    u_right: float
    residuals: tuple  # max|T(u) - u| / |jump| of every iteration

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def residual(self) -> float:
        return self.residuals[-1]


def exponent_h(model: ScalarCouplingModel, u_tilde: GridFunction,
               v: GridFunction) -> GridFunction:
    """h(xi) = int_alpha^xi (zeta - lambda) G dzeta, with the anchor alpha at
    the grid argmin of the antiderivative (ties leftmost) so that h >= 0."""
    xi = u_tilde.xi
    if not model.contains(u_tilde.values):
        raise ValueError("iterate left the model's u domain")
    integrand = (xi - model.lam(u_tilde.values, v.values)) * model.G(u_tilde.values, v.values)
    H = GridFunction(xi, integrand).cumtrapz().values
    return GridFunction(xi, H - H[int(np.argmin(H))])


def picard_step(model: ScalarCouplingModel, config: ScalarSolveConfig,
                u_tilde: GridFunction, v: GridFunction) -> GridFunction:
    """One application of the representation map T; always monotone from
    u_L = u_tilde(-M) to u_R = u_tilde(M).

    The weight exp(log_w) is shifted by its peak and integrated in one
    linear pass: weights below e^-745 of the peak underflow to 0 and move
    the ratio by less than 1e-300."""
    xi = u_tilde.xi
    u_left = float(u_tilde.values[0])
    u_right = float(u_tilde.values[-1])
    if u_left == u_right:
        return GridFunction(xi, np.full_like(xi, u_left))

    h = exponent_h(model, u_tilde, v)
    log_w = -h.values / config.eps - np.log(model.B0(u_tilde.values, v.values))
    peak = float(np.max(log_w))
    if not np.isfinite(peak):
        raise QuadratureFailure("weight exp(-h/eps)/B0 is not finite")
    cum = GridFunction(xi, np.exp(log_w - peak)).cumtrapz().values
    # a running sum of nonnegative terms over its positive last entry:
    # nondecreasing from exactly 0 to exactly 1
    return GridFunction(xi, u_left + (u_right - u_left) * (cum / cum[-1]))


def solve_scalar(model: ScalarCouplingModel, config: ScalarSolveConfig,
                 u_left: float, u_right: float,
                 initial: GridFunction | None = None) -> ScalarSolution:
    if not (model.contains(u_left) and model.contains(u_right)):
        raise ValueError("Riemann data outside the model's u domain")
    n = config.resolved_grid_size()
    xi = uniform_grid(config.M, n)
    profile = ColorProfile(config.eps, config.p, config.M)
    v = GridFunction(xi, profile.evaluate_v(xi))

    jump = abs(u_right - u_left)
    scale = jump if jump > 0 else 1.0
    # T(u) - u cannot fall below the spacing of the doubles at the data, so a
    # jump of a few spacings stops there instead of at FIX_TOL * jump
    tol = max(FIX_TOL, float(np.spacing(max(abs(u_left), abs(u_right)))) / scale)
    if initial is not None:
        # warm start: interpolate onto this grid, re-pin the boundary data
        vals = np.interp(xi, initial.xi, initial.values)
        vals[0], vals[-1] = u_left, u_right
        u = GridFunction(xi, vals)
    else:
        # monotone initial guess riding the color layer
        u = GridFunction(xi, u_left + (u_right - u_left) * affine_blend(v.values))

    # type-II Anderson mixing of T: the last ANDERSON_DEPTH differences of
    # iterates (dU) and of residuals f = T(u) - u (dF), in rows 0..stored-1
    lo, hi = min(u_left, u_right), max(u_left, u_right)
    dU = np.empty((ANDERSON_DEPTH, n))
    dF = np.empty((ANDERSON_DEPTH, n))
    pushed = 0
    u_prev = f_prev = None
    best, best_it = np.inf, 0
    residuals: list[float] = []
    for it in range(1, MAX_ITERS + 1):
        u_new = picard_step(model, config, u, v)
        f = u_new.values - u.values
        res = float(np.max(np.abs(f))) / scale
        residuals.append(res)
        if res <= tol:
            u = u_new
            break
        if res < best:
            best, best_it = res, it
        elif it - best_it >= ANDERSON_DEPTH:
            # no new minimum for ANDERSON_DEPTH iterations: the history
            # describes iterates the solve has left, so restart it
            best_it = it
            pushed = 0
            f_prev = None
        if f_prev is not None:
            slot = pushed % ANDERSON_DEPTH
            np.subtract(u.values, u_prev, out=dU[slot])
            np.subtract(f, f_prev, out=dF[slot])
            pushed += 1
        u_prev, f_prev = u.values, f

        # the plain mixed step, a convex combination of u and T(u)
        cand = u.values + ANDERSON_MIXING * f
        stored = min(pushed, ANDERSON_DEPTH)
        if stored:
            gamma = np.linalg.lstsq(dF[:stored].T, f, rcond=None)[0]
            extrap = cand - gamma @ (dU[:stored] + ANDERSON_MIXING * dF[:stored])
            finite = bool(np.all(np.isfinite(extrap)))
            extrap = np.clip(extrap, lo, hi)
            extrap[0], extrap[-1] = u_left, u_right
            # T maps onto monotone profiles; far from the fixed point (a
            # shock that must travel from the color layer) extrapolations
            # that leave that class stall the iteration
            monotone = np.sum(np.abs(np.diff(extrap))) <= (hi - lo) * (1.0 + 1e-9)
            if finite and monotone and model.contains(extrap):
                cand = extrap
            else:
                pushed = 0  # keep the mixed step and restart the history
        u = GridFunction(xi, cand)
    else:
        raise NonConvergence(residuals, config.eps, n, float(u_left), float(u_right))

    h = exponent_h(model, u, v)
    return ScalarSolution(
        u=u, v=v, h=h,
        tv_u=u.tv(), monotone=u.is_monotone(),
        eps=config.eps, p=config.p,
        u_left=float(u_left), u_right=float(u_right),
        residuals=tuple(residuals),
    )


def trace_window_check(solution: ScalarSolution, model: ScalarCouplingModel) -> dict:
    """Sup deviation from the boundary data outside the characteristic range:
    |u - u_R| on ((Lambda+M)/2, M] and |u - u_L| on [-M, -(Lambda+M)/2).
    A side whose window holds no grid point (M <= Lambda) reads None."""
    xi, u = solution.u.xi, solution.u.values
    cut = 0.5 * (model.Lambda + solution.u.M)
    def sup_dev(side, data):
        return float(np.max(np.abs(u[side] - data))) if side.any() else None
    return {"cut": float(cut), "sup_dev_left": sup_dev(xi < -cut, solution.u_left),
            "sup_dev_right": sup_dev(xi > cut, solution.u_right)}
