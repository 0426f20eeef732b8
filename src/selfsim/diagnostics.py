"""Limit verification: weak-form residuals, exact Riemann oracles,
ladder Cauchy diagnostics, and interface trace extraction.

The inviscid limit must satisfy, on each open half-line and in the sense of
distributions,

    -xi d/dxi gamma_+-(u) + d/dxi f_+-(gamma_+-(u)) = 0,
    -xi d/dxi eta(gamma_+-(u)) + d/dxi q_+-(gamma_+-(u)) <= 0,

for convex entropies eta with flux q' = eta' f'.  Both are tested in weak
form: derivatives are moved onto smooth compactly supported bump functions
that stay clear of the color layer around xi = 0, so no noisy numerical
differentiation of the solution enters the residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .grid import GridFunction, uniform_grid
from .models import ScalarCouplingModel
from .scalar import ScalarSolveConfig, ScalarSolution

EXCLUSION_FACTOR = 3.0  # excluded zone is |xi| < 3 eps^(p/2)
WEAK_TOLERANCE = 1e-3   # pass mark of every weak residual
KRUZHKOV_COUNT = 9      # entropies |w - k| at interior points k of the data
RIEMANN_SAMPLES = 4001  # flux samples of the exact Riemann construction
RIEMANN_TOL = 1e-6      # pass mark of the Rankine-Hugoniot and Oleinik checks
TRACE_AGREE_TOL = 1e-2  # one-sided traces closer than this agree


# ---------------------------------------------------------------------------
# test functions


def bump_family(xi: np.ndarray, eps: float, p: float,
                side: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Smooth bumps (1 - s^2)^4 supported in one half-line outside the color
    layer; returns 12 pairs (phi, phi') sampled on ``xi``.

    The family mixes four width fractions with three positions each, so both
    broad averages and localized probes are represented.
    """
    M = float(xi[-1])
    z = EXCLUSION_FACTOR * eps ** (p / 2.0)
    if side == "minus":
        a, b = -M, -z
    elif side == "plus":
        a, b = z, M
    else:
        raise ValueError("side must be 'minus' or 'plus'")
    if b - a <= 0:
        raise ValueError("half-line entirely inside the excluded color layer")

    half = (b - a) / 2.0
    fractions = (1.0, 0.7, 0.45, 0.25)
    positions = (0.25, 0.5, 0.75)
    out = []
    for frac in fractions:
        w = frac * half
        lo, hi = a + w, b - w
        for t in positions:
            c = lo + t * (hi - lo)
            s = (xi - c) / w
            inside = np.abs(s) < 1.0
            phi = np.where(inside, (1.0 - s ** 2) ** 4, 0.0)
            dphi = np.where(inside, -8.0 * s * (1.0 - s ** 2) ** 3 / w, 0.0)
            out.append((phi, dphi))
    return out


# ---------------------------------------------------------------------------
# weak residuals


def _half_model(model: ScalarCouplingModel, side: str) -> tuple[Callable, Callable]:
    if side == "minus":
        return model.gamma_minus, model.f_minus
    return model.gamma_plus, model.f_plus


def _weak_form(xi: np.ndarray, density: np.ndarray, flux: np.ndarray,
               phi: np.ndarray, dphi: np.ndarray) -> float:
    """int density (phi + xi phi') - flux phi' dxi  (all derivatives moved
    onto the test function)."""
    return float(np.trapezoid(density * (phi + xi * dphi) - flux * dphi, xi))


def weak_conservation_residual(solution: ScalarSolution, model: ScalarCouplingModel,
                               side: str, test_set) -> float:
    """Largest weak conservation residual over the (phi, phi') pairs of
    ``test_set``."""
    xi = solution.u.xi
    gamma, f = _half_model(model, side)
    w = gamma(solution.u.values)
    fw = f(w)
    return max(abs(_weak_form(xi, w, fw, phi, dphi)) for phi, dphi in test_set)


def kruzhkov_entropies(u_left: float, u_right: float) -> np.ndarray:
    lo, hi = min(u_left, u_right), max(u_left, u_right)
    return np.linspace(lo, hi, KRUZHKOV_COUNT + 2)[1:-1]


def weak_entropy_residual(solution: ScalarSolution, model: ScalarCouplingModel,
                          side: str, k: float, test_set) -> float:
    """Signed Kruzhkov residual for eta(w) = |w - k| over ``test_set``;
    admissible limits give values <= WEAK_TOLERANCE (one-sided)."""
    xi = solution.u.xi
    gamma, f = _half_model(model, side)
    w = gamma(solution.u.values)
    wk = gamma(np.asarray(k, dtype=float))
    eta = np.abs(w - wk)
    q = np.sign(w - wk) * (f(w) - f(wk))
    return max(_weak_form(xi, eta, q, phi, dphi) for phi, dphi in test_set)


@dataclass(frozen=True)
class WeakResidualReport:
    test_functions: str
    conservation_minus: float
    conservation_plus: float
    entropy_residuals: tuple  # of (side, k, value)
    tolerance: float
    passed: bool


def weak_residual_report(solution: ScalarSolution,
                         model: ScalarCouplingModel) -> WeakResidualReport:
    ks = kruzhkov_entropies(solution.u_left, solution.u_right)
    conservation, entropy = {}, []
    for side in ("minus", "plus"):
        test_set = bump_family(solution.u.xi, solution.eps, solution.p, side)
        conservation[side] = weak_conservation_residual(solution, model, side, test_set)
        for k in ks:
            entropy.append((side, float(k),
                            weak_entropy_residual(solution, model, side, k, test_set)))
    passed = (all(v <= WEAK_TOLERANCE for v in conservation.values())
              and all(v <= WEAK_TOLERANCE for _, _, v in entropy))
    return WeakResidualReport(
        test_functions="(1-s^2)^4 bumps, 12 per side, excluded zone |xi| < 3 eps^(p/2)",
        conservation_minus=conservation["minus"], conservation_plus=conservation["plus"],
        entropy_residuals=tuple(entropy), tolerance=WEAK_TOLERANCE, passed=passed)


# ---------------------------------------------------------------------------
# exact scalar Riemann oracle


@dataclass(frozen=True)
class ExactRiemannSolution:
    """Self-similar entropy solution of u_t + f(u)_x = 0 with two-state data,
    represented by flux-envelope vertices: speeds[k] is the propagation speed
    of the transition states[k] -> states[k + 1]."""

    u_left: float
    u_right: float
    states: np.ndarray   # hull vertices in u, from u_left to u_right
    speeds: np.ndarray   # nondecreasing segment slopes, len(states) - 1
    shocks: tuple        # (speed, u_minus, u_plus) for genuine jumps

    def __call__(self, xi):
        xi = np.asarray(xi, dtype=float)
        idx = np.searchsorted(self.speeds, xi, side="left")
        return self.states[np.clip(idx, 0, len(self.states) - 1)]

    def trace(self, side: str) -> float:
        return float(self(np.array(-0.0 if side == "minus" else +0.0)
                          + (-1e-14 if side == "minus" else 1e-14)))


def _lower_convex_hull(us: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull of the graph (us increasing)."""
    hull: list[int] = []
    for i in range(len(us)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = ((us[i1] - us[i0]) * (fs[i] - fs[i0])
                     - (fs[i1] - fs[i0]) * (us[i] - us[i0]))
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=int)


def exact_scalar_riemann(flux: Callable, u_left: float,
                         u_right: float) -> ExactRiemannSolution:
    """Entropy solution by flux-envelope construction: lower convex envelope
    for increasing data; decreasing data is mapped through u -> -u, under
    which the flux transforms to g(w) = -f(-w)."""
    if u_left == u_right:
        u = float(u_left)
        return ExactRiemannSolution(u, u, np.array([u]), np.array([]), ())
    if u_left > u_right:
        mirrored = exact_scalar_riemann(
            lambda w: -np.asarray(flux(-np.asarray(w, dtype=float))),
            -u_left, -u_right)
        return ExactRiemannSolution(
            float(u_left), float(u_right),
            states=-mirrored.states, speeds=mirrored.speeds,
            shocks=tuple((s, -um, -up) for s, um, up in mirrored.shocks))

    us = np.linspace(u_left, u_right, RIEMANN_SAMPLES)
    fs = np.asarray(flux(us), dtype=float)
    hull = _lower_convex_hull(us, fs)
    states = us[hull]
    speeds = np.diff(fs[hull]) / np.diff(states)
    speeds = np.maximum.accumulate(speeds)  # guard rounding monotonicity
    gap = 10.0 * (u_right - u_left) / (RIEMANN_SAMPLES - 1)
    shocks = tuple((float(speeds[k]), float(states[k]), float(states[k + 1]))
                   for k in range(len(speeds))
                   if states[k + 1] - states[k] > gap)
    return ExactRiemannSolution(float(u_left), float(u_right),
                                states=states, speeds=speeds, shocks=shocks)


def riemann_soundness(flux: Callable, sol: ExactRiemannSolution) -> dict:
    """Direct Rankine-Hugoniot and Oleinik checks at every discontinuity."""
    worst_rh = 0.0
    worst_oleinik = 0.0
    for s, um, up in sol.shocks:
        fm, fp = float(flux(um)), float(flux(up))
        worst_rh = max(worst_rh, abs(s * (up - um) - (fp - fm)))
        interior = np.linspace(um, up, 101)[1:-1]
        interior = interior[interior != um]  # a jump of a few ulps rounds onto um
        if len(interior):
            chords = (np.asarray(flux(interior)) - fm) / (interior - um)
            # Oleinik: chord slopes from u_minus must not undercut s; the
            # same inequality holds for both data orientations (the mirror
            # w -> -w, f -> -f(-.) preserves the chord slopes)
            worst_oleinik = max(worst_oleinik, float(np.max(s - chords)))
    return {"rankine_hugoniot": worst_rh, "oleinik": worst_oleinik,
            "passed": worst_rh <= RIEMANN_TOL and worst_oleinik <= RIEMANN_TOL}


def l1_distance(a: GridFunction, b: GridFunction) -> float:
    """L1 distance of two scalar grid functions on the union grid."""
    xi = a.xi if len(a.xi) >= len(b.xi) else b.xi
    return float(np.trapezoid(np.abs(np.interp(xi, a.xi, a.values)
                                 - np.interp(xi, b.xi, b.values)), xi))


# ---------------------------------------------------------------------------
# ladder Cauchy diagnostics and traces


def _far_from(sample: np.ndarray, points: np.ndarray, radius: float) -> np.ndarray:
    """Mask of the ``sample`` values farther than ``radius`` from every one of
    the increasing ``points``.  The nearest point is one of the two
    neighbours ``searchsorted`` finds, and rounded subtraction is monotone,
    so this is the all-pairs test ``np.all(|sample - points| > radius)``
    exactly, in O(len(sample) + len(points)) memory."""
    if not len(points):
        return np.ones(len(sample), dtype=bool)
    i = np.searchsorted(points, sample)
    lo = points[np.maximum(i - 1, 0)]
    hi = points[np.minimum(i, len(points) - 1)]
    return np.minimum(np.abs(sample - lo), np.abs(sample - hi)) > radius


def ladder_cauchy(solutions: Sequence[ScalarSolution]) -> dict:
    """Cauchy diagnostics of the solutions of a strictly decreasing eps
    ladder: pairwise L1 distances, and a pointwise-Cauchy verdict away from
    steep-wave neighborhoods (``pointwise_samples`` of its 401 samples are
    kept)."""
    eps_ladder = [s.eps for s in solutions]
    if any(b >= a for a, b in zip(eps_ladder, eps_ladder[1:])):
        raise ValueError("eps ladder must be strictly decreasing")

    distances = [l1_distance(a.u, b.u) for a, b in zip(solutions, solutions[1:])]

    # pointwise comparison away from steep waves of the finest solution; a
    # profile without a jump has no steep wave, only gradient rounding noise
    cauchy_sups = []
    kept = 0
    if len(solutions) >= 2:
        fine = solutions[-1]
        du = np.abs(np.gradient(fine.u.values, fine.u.xi))
        jump = abs(fine.u_right - fine.u_left)
        steep = fine.u.xi[du * fine.eps > 0.1 * jump] if jump else fine.u.xi[:0]
        radius = 10.0 * eps_ladder[0] ** fine.p
        sample = np.linspace(-fine.u.M, fine.u.M, 401)
        sample = sample[_far_from(sample, steep, radius)]
        kept = len(sample)
        for a, b in zip(solutions, solutions[1:]):
            cauchy_sups.append(float(np.max(np.abs(a.u(sample) - b.u(sample))))
                               if len(sample) else 0.0)

    def nonincreasing(vals):
        return all(y <= x * (1.0 + 1e-9) + 1e-12 for x, y in zip(vals, vals[1:]))

    return {
        "l1_distances": distances,
        "l1_cauchy": nonincreasing(distances) if distances else True,
        "pointwise_sups": cauchy_sups,
        "pointwise_cauchy": nonincreasing(cauchy_sups) if cauchy_sups else True,
        "pointwise_samples": kept,
    }


class TraceWindowError(ValueError):
    """A one-sided trace window holds fewer than two grid points."""


def _trace_window(xi: np.ndarray, eps: float, p: float, side: str) -> tuple[np.ndarray, dict]:
    """Mask of the fit window +-[5, 10] eps^(p/2) on the grid ``xi``, and the
    window as fitted: the part of it inside [-M, M] as [lo, hi], its number
    of grid points, and whether [-M, M] cut it."""
    scale = eps ** (p / 2.0)
    lo, hi = 5.0 * scale, 10.0 * scale
    if side == "minus":
        mask = (xi >= -hi) & (xi <= -lo)
    else:
        mask = (xi >= lo) & (xi <= hi)
    points = int(mask.sum())
    M = float(xi[-1])
    if points < 2:
        raise TraceWindowError(
            f"eps={eps:g}: trace window {'-' if side == 'minus' else '+'}"
            f"[{lo:.4g}, {hi:.4g}] holds fewer than 2 grid points of "
            f"[-M, M], M={M:g}; shrink eps or enlarge M")
    fit_lo, fit_hi = (-min(hi, M), -lo) if side == "minus" else (lo, min(hi, M))
    return mask, {"eps": eps, "lo": fit_lo, "hi": fit_hi, "points": points,
                  "truncated": hi > M}


def check_trace_windows(config: ScalarSolveConfig, eps_ladder: Sequence[float]) -> None:
    """Raise TraceWindowError before any solve if a rung's window holds
    fewer than two points of its grid.  The window is not moved inside
    [-M, M] to make it fit: a fit out at M would return the boundary state
    as the trace."""
    for eps in eps_ladder:
        cfg = replace(config, eps=float(eps))
        xi = uniform_grid(cfg.M, cfg.resolved_grid_size())
        for side in ("minus", "plus"):
            _trace_window(xi, cfg.eps, cfg.p, side)


def _one_sided_trace(sol: ScalarSolution, side: str) -> float:
    """Linear fit of u over xi in +-[5, 10] eps^(p/2), extrapolated to 0."""
    xi = sol.u.xi
    mask, _ = _trace_window(xi, sol.eps, sol.p, side)
    coeff = np.polyfit(xi[mask], sol.u.values[mask], 1)
    return float(np.polyval(coeff, 0.0))


def _richardson(eps_pair, val_pair) -> float:
    (e1, e2), (t1, t2) = eps_pair, val_pair
    return float(t2 + (t2 - t1) * e2 / (e1 - e2))


def interface_trace_report(solutions: Sequence[ScalarSolution],
                           model: ScalarCouplingModel) -> dict:
    """Extrapolated interface traces u(0-) and u(0+) from an eps ladder of
    converged solutions, with the scalar weak-coupling admissibility check
    run through the exact-Riemann trace construction."""
    solutions = sorted(solutions, key=lambda s: -s.eps)
    ladder = [s.eps for s in solutions]
    per_eps = {side: [_one_sided_trace(s, side) for s in solutions]
               for side in ("minus", "plus")}
    traces = {}
    for side in ("minus", "plus"):
        vals = per_eps[side]
        traces[side] = (_richardson(ladder[-2:], vals[-2:])
                        if len(vals) >= 2 else vals[-1])

    # admissibility: the extrapolated trace must be reachable as the xi = 0
    # trace of the corresponding half-model Riemann problem
    sol0 = solutions[-1]
    gamma_m, f_m = model.gamma_minus, model.f_minus
    gamma_p, f_p = model.gamma_plus, model.f_plus
    w_trace_m = float(gamma_m(traces["minus"]))
    w_trace_p = float(gamma_p(traces["plus"]))
    half_m = exact_scalar_riemann(f_m, float(gamma_m(sol0.u_left)), w_trace_m)
    half_p = exact_scalar_riemann(f_p, w_trace_p, float(gamma_p(sol0.u_right)))
    admissible_m = abs(half_m.trace("minus") - w_trace_m) <= TRACE_AGREE_TOL
    admissible_p = abs(half_p.trace("plus") - w_trace_p) <= TRACE_AGREE_TOL

    return {
        "eps_ladder": ladder,
        "per_eps_traces": per_eps,
        # a window that only partly lies inside [-M, M] is fitted on what is
        # left of it; "truncated" says so
        "fit_windows": {side: [_trace_window(s.u.xi, s.eps, s.p, side)[1]
                               for s in solutions] for side in ("minus", "plus")},
        "trace_minus": traces["minus"],
        "trace_plus": traces["plus"],
        "traces_agree": abs(traces["minus"] - traces["plus"]) <= TRACE_AGREE_TOL,
        "resonant": abs(traces["minus"] - traces["plus"]) > TRACE_AGREE_TOL,
        "weak_condition_minus": bool(admissible_m),
        "weak_condition_plus": bool(admissible_p),
    }
