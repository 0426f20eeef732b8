"""Fundamental wave measures and interaction coefficients.

Each characteristic family i carries a generalized speed field mu_i(xi) that
is almost linear ("class L"): mu_i(x) = d_i(x) (lam_i(x) - x) with positive
bounded factor d and speeds confined to a band.  The associated fundamental
measure solves eps phi' = mu_i phi, giving

    phi*_i = exp(-g_i / eps) / I_i,     g_i(y) = -int_{rho_i}^{y} mu_i,

a probability density concentrating on the band as eps -> 0.  The transfer
integrals

    J_{j->i}(y)     = phi*_i(y) int_{c_i}^{y} phi*_j / phi*_i dx
    F_{j,k->i}(y)   = phi*_i(y) int_{c_i}^{y} phi*_j phi*_k / phi*_i dx
    J^psi_{j->i}(y) = phi*_i(y) int_{c_i}^{y} psi phi*_j / phi*_i dx

quantify linear, quadratic, and color-coupled exchange between families.  All
three are evaluated by the one log-space kernel `quadrature.weighted_transfer`
(direct anchoring at c_i) and cross-checked against an algebraically
equivalent organization, `_transfer_via_rho` (additive splitting through the
minimizer rho_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product
from typing import Sequence

import numpy as np

from .grid import GridFunction
from .quadrature import LOG_FLOOR, log_cumtrapz_from, log_of, log_trapz, weighted_transfer


# largest admitted relative disagreement of the two transfer organizations
CROSSCHECK_TOL = 1e-6


class ClassLViolation(ValueError):
    """Speed field fails the class-L sign pattern for its band."""


@dataclass(frozen=True)
class WaveMeasureSet:
    xi: np.ndarray
    eps: float
    g: np.ndarray          # (n, N), g_i >= 0 with min 0
    log_phi: np.ndarray    # (n, N)
    phi: np.ndarray        # (n, N), linear values (may underflow to 0)
    rho: np.ndarray        # (N,)
    rho_index: np.ndarray  # (N,) grid argmin indices
    I: np.ndarray          # (N,) normalizing masses
    c: np.ndarray          # (N,) transfer anchors
    c_index: np.ndarray    # (N,)
    lam_low: np.ndarray
    lam_high: np.ndarray

    @property
    def N(self) -> int:
        return self.g.shape[1]

    def phi_sum(self) -> np.ndarray:
        return self.phi.sum(axis=1)


def build_phi_star(xi: np.ndarray, mu: np.ndarray, eps: float,
                   lam_low: np.ndarray, lam_high: np.ndarray) -> WaveMeasureSet:
    """Fundamental measures from per-family speed fields mu (shape (n, N)),
    with the transfer anchors c at the band midpoints."""
    xi = np.asarray(xi, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if mu.ndim == 1:
        mu = mu[:, None]
    n, N = mu.shape
    lam_low = np.asarray(lam_low, dtype=float)
    lam_high = np.asarray(lam_high, dtype=float)

    for i in range(N):
        left = xi < lam_low[i]
        right = xi > lam_high[i]
        if np.any(mu[left, i] <= 0) or np.any(mu[right, i] >= 0):
            raise ClassLViolation(
                f"family {i + 1}: speed field violates the class-L sign pattern "
                f"for band [{lam_low[i]}, {lam_high[i]}]")

    g = np.empty((n, N))
    log_phi = np.empty((n, N))
    rho = np.empty(N)
    rho_index = np.empty(N, dtype=int)
    I = np.empty(N)
    for i in range(N):
        G = -GridFunction(xi, mu[:, i]).cumtrapz().values
        k = int(np.argmin(G))
        g[:, i] = G - G[k]
        rho_index[i] = k
        rho[i] = float(xi[k])
        logI = log_trapz(-g[:, i] / eps, xi)
        I[i] = float(np.exp(logI))
        log_phi[:, i] = -g[:, i] / eps - logI

    c = 0.5 * (lam_low + lam_high)
    c_index = np.array([int(np.argmin(np.abs(xi - ci))) for ci in c])

    with np.errstate(under="ignore"):
        phi = np.exp(np.maximum(log_phi, LOG_FLOOR))
    return WaveMeasureSet(xi=xi, eps=eps, g=g, log_phi=log_phi, phi=phi,
                          rho=rho, rho_index=rho_index, I=I,
                          c=c, c_index=c_index,
                          lam_low=lam_low, lam_high=lam_high)


def _transfer_via_rho(log_source: np.ndarray, log_phi_i: np.ndarray,
                      xi: np.ndarray, anchor: int, rho_idx: int) -> np.ndarray:
    """Equivalent organization through the minimizer: the cumulative is
    anchored at rho_i and the anchor value subtracted (additivity of the
    elementary weights), recombined in log space."""
    log_abs, orient = log_cumtrapz_from(log_source - log_phi_i, xi, rho_idx)
    la_c, s_c = log_abs[anchor], orient[anchor]
    m = np.maximum(log_abs, la_c)
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = orient * np.exp(log_abs - m) - s_c * np.exp(la_c - m)
        live = np.isfinite(m) & (diff != 0.0)
        log_val = m + np.log(np.abs(diff)) + log_phi_i
        return np.where(live, np.sign(diff) * np.exp(np.clip(log_val, LOG_FLOOR, 700.0)), 0.0)


@dataclass(frozen=True)
class TransferResult:
    values: GridFunction
    crosscheck: float  # sup relative disagreement of the two organizations


def _dual_transfer(measures: WaveMeasureSet, log_source: np.ndarray,
                   i: int) -> TransferResult:
    """Both organizations of the transfer into family i, anchored at c_i."""
    xi = measures.xi
    anchor = int(measures.c_index[i])
    a = weighted_transfer(measures.log_phi[None, :, i], log_source[None], xi, [anchor])[0]
    b = _transfer_via_rho(log_source, measures.log_phi[:, i], xi, anchor,
                          int(measures.rho_index[i]))
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
    mask = np.maximum(np.abs(a), np.abs(b)) > 1e-12 * scale
    if mask.any():
        rel = float(np.max(np.abs(a - b)[mask] / np.maximum(np.abs(a), np.abs(b))[mask]))
    else:
        rel = 0.0
    return TransferResult(GridFunction(xi, a), rel)


def compute_J(measures: WaveMeasureSet, j: int, i: int) -> TransferResult:
    """Linear coefficient J_{j->i}; indices are 0-based families."""
    return _dual_transfer(measures, measures.log_phi[:, j], i)


def compute_F(measures: WaveMeasureSet, j: int, k: int, i: int) -> TransferResult:
    """Quadratic coefficient F_{j,k->i}."""
    return _dual_transfer(measures, measures.log_phi[:, j] + measures.log_phi[:, k], i)


def compute_J_psi(measures: WaveMeasureSet, psi: np.ndarray, j: int, i: int) -> TransferResult:
    """Color-coupled coefficient J^psi_{j->i} for a nonnegative weight psi."""
    return _dual_transfer(measures, log_of(psi) + measures.log_phi[:, j], i)


def constant_speed_fields(xi: np.ndarray, lams: Sequence[float],
                          band_halfwidth: float = 0.1,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant-speed class-L fixture: mu_i(x) = lam_i - x with narrow
    bands around each speed; the associated measures are truncated Gaussians,
    giving closed-form oracles for the transfer coefficients."""
    xi = np.asarray(xi, dtype=float)
    lams = np.asarray(sorted(lams), dtype=float)
    mu = lams[None, :] - xi[:, None]
    return mu, lams - band_halfwidth, lams + band_halfwidth


# ---------------------------------------------------------------------------
# lemma verification harness


def _fit_slope(per_eps: dict, x=np.log) -> float:
    """Least-squares slope of log(value) against x(eps) over the rungs."""
    vals = np.maximum(np.asarray(list(per_eps.values()), dtype=float), 1e-300)
    return float(np.polyfit(x(np.asarray(list(per_eps))), np.log(vals), 1)[0])


def _sup_ratio(values: np.ndarray, denom: np.ndarray, keep=None) -> float:
    """sup |values| / denom over ``keep``, by default where denom > 1e-250."""
    keep = denom > 1e-250 if keep is None else keep
    return float((np.abs(values[keep]) / denom[keep]).max())


def _spread(per_eps: dict) -> float:
    """(max - min) / max of the per-rung values."""
    vals = list(per_eps.values())
    return float((max(vals) - min(vals)) / max(max(vals), 1e-300))


def verify_bounds(measure_factory, eps_ladder: Sequence[float],
                  psi_factory=None) -> dict:
    """Fit the structural constants of the transfer-coefficient bounds over an
    eps ladder and return verdicts (never exceptions, once the ladder has
    the two distinct rungs that a slope fit needs).

    measure_factory(eps) -> WaveMeasureSet on a shared-band model;
    psi_factory(eps) -> nonnegative weight array on the same grid (optional).
    Every estimate is a per-rung value evaluated on every rung by ``ladder``.
    """
    eps_ladder = [float(e) for e in eps_ladder]
    if len(set(eps_ladder)) < 2:
        raise ValueError(f"a slope fit needs two distinct rungs, got the ladder {eps_ladder}")
    sets = {eps: measure_factory(eps) for eps in eps_ladder}
    first = sets[eps_ladder[0]]
    N = first.N
    M = float(first.xi[-1])
    report: dict = {"eps_ladder": eps_ladder, "checks": []}

    def add(name, per_eps, passed, **extra):
        report["checks"].append({"name": name, "per_eps": per_eps,
                                 "passed": bool(passed), **extra})

    def add_bounded(name, per_eps, top):
        add(name, per_eps, all(v <= top for v in per_eps.values()))

    def ladder(value):
        """value(eps, measures) on every rung, as {eps: float}."""
        return {eps: float(value(eps, m)) for eps, m in sets.items()}

    # worst cross-check of every transfer coefficient evaluated, per eps
    crosscheck = dict.fromkeys(sets, 0.0)

    def transfer(eps, coefficient, *args):
        result = coefficient(sets[eps], *args)
        crosscheck[eps] = max(crosscheck[eps], result.crosscheck)
        return result.values.values

    add_bounded("unit mass |int phi - 1|", ladder(lambda eps, m: max(
        abs(np.trapezoid(m.phi[:, i], m.xi) - 1.0) for i in range(N))), 1e-8)

    # mass bound c eps <= I <= 2M
    ratios = ladder(lambda eps, m: min(m.I) / eps)
    upper_ok = all(m.I.max() <= 2 * M + 1e-12 for m in sets.values())
    add("mass bound c*eps <= I <= 2M", ratios,
        upper_ok and min(ratios.values()) > 0,
        fitted_lower_c=float(min(ratios.values())))

    # self-transfer pointwise bound
    add_bounded("|J_{i->i}| <= 2M phi_i", ladder(lambda eps, m: max(
        _sup_ratio(transfer(eps, compute_J, i, i), 2 * M * m.phi[:, i], m.phi[:, i] > 1e-250)
        for i in range(N))), 1.0 + 1e-9)

    if N > 1:
        # cross-family linear coefficient is O(eps), quadratic coefficient
        # with bounded constant: (name, coefficient, its arguments, the
        # families of the denominator, least slope)
        fits = [(f"|J_{{{j + 1}->{i + 1}}}| = O(eps)(phi_i+phi_j)",
                 compute_J, (j, i), (i, j), 0.8)
                for i, j in permutations(range(N), 2)]
        fits += [(f"|F_{{{j + 1},{k + 1}->{i + 1}}}| <= C(phi_i+phi_j+phi_k)",
                  compute_F, (j, k, i), (i, j, k), -0.2)
                 for i, (j, k) in product(range(N), combinations_with_replacement(range(N), 2))]
        for name, coefficient, args, families, least in fits:
            sups = ladder(lambda eps, m: _sup_ratio(transfer(eps, coefficient, *args),
                                                    sum(m.phi[:, f] for f in families)))
            slope = _fit_slope(sups)
            add(name, sups, slope >= least, fitted_slope=slope)

        # color-coupled coefficient with bounded constant
        if psi_factory is not None:
            psi = {eps: np.asarray(psi_factory(eps), dtype=float) for eps in sets}
            norm1 = {eps: float(np.trapezoid(np.abs(psi[eps]), m.xi)) for eps, m in sets.items()}
            pair_sups = []
            for i, j in product(range(N), repeat=2):
                sups = ladder(lambda eps, m: _sup_ratio(
                    transfer(eps, compute_J_psi, psi[eps], j, i),
                    norm1[eps] * (m.phi[:, i] + m.phi[:, j])))
                pair_sups.append(sups)
                slope = _fit_slope(sups)
                add(f"|J^psi_{{{j + 1}->{i + 1}}}| <= C ||psi||_1 (phi_j+phi_i)",
                    sups, slope >= -0.2, fitted_slope=slope, relative_spread=_spread(sups))
            # the fitted constant sup_pairs C(eps) must be stable across the
            # ladder (the extremal pair includes self-transfers j = i)
            per_eps = {eps: max(s[eps] for s in pair_sups) for eps in sets}
            spread = _spread(per_eps)
            add("J^psi fitted constant stability", per_eps,
                spread < 0.25, relative_spread=spread)

        # cross-band suppression: sup over band j of phi_i / phi_j, with
        # log sup ~ log C - D / eps
        for i, j in permutations(range(N), 2):
            sups = ladder(lambda eps, m: np.exp((m.log_phi[:, i] - m.log_phi[:, j])[
                (m.xi >= m.lam_low[j]) & (m.xi <= m.lam_high[j])].max()))
            D = -_fit_slope(sups, np.reciprocal)
            add(f"band-{j + 1} suppression of phi_{i + 1}", sups, D > 0, fitted_D=D)

    def tail(eps, m):
        """Worst h_min / eps * int_{x'}^{y} exp(-(g_i(x') - g_i(y)) / eps) dx'
        over the families, on a subinterval left of the band where the
        speed field stays >= h_min > 0."""
        worst = 0.0
        for i in range(N):
            left = m.xi <= m.lam_low[i] - 0.05 * (m.xi[-1] - m.lam_low[i] + 1)
            h_min = float((-np.gradient(m.g[:, i], m.xi))[left].min()) if left.sum() >= 4 else 0.0
            if h_min > 0:
                seg = np.flatnonzero(left)
                expo = -(m.g[seg, i] - m.g[seg[-1], i]) / eps
                val = float(np.trapezoid(np.exp(np.minimum(expo, 0.0)), m.xi[seg]))
                worst = max(worst, val * h_min / eps)
        return worst

    # linear-in-eps tail integral: int phi(x', y; -h) dx' <= eps / h_min
    add_bounded("tail integral <= eps / h_min", ladder(tail), 1.0 + 1e-6)
    add_bounded("transfer cross-check", crosscheck, CROSSCHECK_TOL)

    report["passed"] = all(c["passed"] for c in report["checks"])
    return report
