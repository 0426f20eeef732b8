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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .color import ColorProfile
from .grid import GridFunction, default_grid_size, uniform_grid
from .models import ScalarCouplingModel
from .quadrature import log_cumtrapz_from, log_trapz


class QuadratureFailure(RuntimeError):
    """The normalizing integral underflowed even in log space."""


class NonConvergence(RuntimeError):
    def __init__(self, residuals):
        super().__init__(f"fixed point not reached; last residual {residuals[-1]:.3e}")
        self.residuals = residuals


@dataclass(frozen=True)
class ScalarSolveConfig:
    eps: float
    p: float = 1.0
    M: float = 2.0
    grid_size: int | None = None
    fix_tol: float = 1e-10
    max_iters: int = 2500
    relaxation: float = 0.5

    def __post_init__(self):
        if not all(np.isfinite(x) and x > 0
                   for x in (self.eps, self.p, self.M, self.fix_tol)):
            raise ValueError("eps, p, M, fix_tol must be positive finite numbers")
        if not 0.0 < self.relaxation <= 1.0:
            raise ValueError("relaxation must lie in (0, 1]")
        if self.grid_size is not None and self.grid_size < 64:
            raise ValueError("grid_size must be >= 64")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def resolved_grid_size(self) -> int:
        if self.grid_size is not None:
            return self.grid_size
        return default_grid_size(self.M, self.eps)


@dataclass(frozen=True)
class ScalarSolution:
    u: GridFunction
    v: GridFunction
    h: GridFunction
    iterations: int
    residual: float
    tv_u: float
    monotone: bool
    eps: float
    p: float
    u_left: float
    u_right: float


def exponent_h(model: ScalarCouplingModel, u_tilde: GridFunction,
               v: GridFunction, alpha: int | None = None) -> GridFunction:
    """h(xi) = int_alpha^xi (zeta - lambda) G dzeta, with the anchor alpha at
    the grid argmin of the antiderivative (ties leftmost) so that h >= 0."""
    xi = u_tilde.xi
    if not model.contains(u_tilde.values):
        raise ValueError("iterate left the model's u domain")
    integrand = (xi - model.lam(u_tilde.values, v.values)) * model.G(u_tilde.values, v.values)
    H = GridFunction(xi, integrand).cumtrapz().values
    if alpha is None:
        alpha = int(np.argmin(H))
    return GridFunction(xi, H - H[alpha])


def picard_step(model: ScalarCouplingModel, config: ScalarSolveConfig,
                u_tilde: GridFunction, v: GridFunction) -> GridFunction:
    """One application of the representation map T; always monotone from
    u_L = u_tilde(-M) to u_R = u_tilde(M)."""
    xi = u_tilde.xi
    u_left = float(u_tilde.values[0])
    u_right = float(u_tilde.values[-1])
    if u_left == u_right:
        return GridFunction(xi, np.full_like(xi, u_left))

    h = exponent_h(model, u_tilde, v)
    log_w = -h.values / config.eps - np.log(model.B0(u_tilde.values, v.values))
    log_total = log_trapz(log_w, xi)
    if not np.isfinite(log_total):
        raise QuadratureFailure("normalizing weight integral underflowed; refine the grid")
    log_cum, _ = log_cumtrapz_from(log_w, xi, anchor=0)
    ratio = np.exp(np.minimum(log_cum - log_total, 0.0))
    ratio[0] = 0.0
    ratio[-1] = 1.0
    ratio = np.maximum.accumulate(np.clip(ratio, 0.0, 1.0))
    return GridFunction(xi, u_left + (u_right - u_left) * ratio)


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
    if initial is not None:
        # warm start: interpolate onto this grid, re-pin the boundary data
        vals = np.interp(xi, initial.xi, initial.values)
        vals[0], vals[-1] = u_left, u_right
        u = GridFunction(xi, vals)
    else:
        # monotone initial guess riding the color layer
        u = GridFunction(xi, u_left + (u_right - u_left) * (v.values + 1.0) / 2.0)

    residuals: list[float] = []
    omega = config.relaxation
    for it in range(1, config.max_iters + 1):
        u_new = picard_step(model, config, u, v)
        res = float(np.max(np.abs(u_new.values - u.values))) / scale
        # adaptive damping: back off when the iteration overshoots or
        # stagnates (a residual plateau signals a damped cycle), creep back
        # toward the configured relaxation once it settles
        if residuals:
            if res >= 0.999 * residuals[-1]:
                omega = max(0.005, 0.5 * omega)
            elif res < 0.5 * residuals[-1]:
                omega = min(config.relaxation, 1.2 * omega)
        residuals.append(res)
        u = GridFunction(xi, (1.0 - omega) * u.values + omega * u_new.values)
        if res <= config.fix_tol:
            u = u_new
            break
    else:
        raise NonConvergence(residuals)

    h = exponent_h(model, u, v)
    return ScalarSolution(
        u=u, v=v, h=h,
        iterations=it, residual=residuals[-1],
        tv_u=u.tv(), monotone=u.is_monotone(),
        eps=config.eps, p=config.p,
        u_left=float(u_left), u_right=float(u_right),
    )


def trace_window_check(solution: ScalarSolution, model: ScalarCouplingModel) -> dict:
    """Sup deviation from the boundary data outside the characteristic range:
    |u - u_R| on ((Lambda+M)/2, M] and |u - u_L| on [-M, -(Lambda+M)/2)."""
    xi = solution.u.xi
    M = solution.u.M
    cut = 0.5 * (model.Lambda + M)
    right = xi > cut
    left = xi < -cut
    dev_right = float(np.max(np.abs(solution.u.values[right] - solution.u_right))) if right.any() else 0.0
    dev_left = float(np.max(np.abs(solution.u.values[left] - solution.u_left))) if left.any() else 0.0
    return {"cut": float(cut), "sup_dev_left": dev_left, "sup_dev_right": dev_right}
