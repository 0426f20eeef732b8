"""Underflow/overflow-safe quadrature on log-represented exponential weights.

Exponents of the form g/eps routinely reach several hundred at the small end
of an eps ladder, so every integral against exp(-g/eps) is carried either with
a running max-shift or entirely in log space via logaddexp accumulation.
`weighted_transfer` is the one transfer-integral kernel (the J, F and J^psi
coefficients of `measures` and the correction map of `system`), and `log_of`
the one way a nonnegative weight enters log space.
"""

from __future__ import annotations

import numpy as np

LOG_FLOOR = -745.0  # below exp() underflow


def log_trapz(log_f: np.ndarray, x: np.ndarray) -> float:
    """log of trapz(exp(log_f), x), computed with a max shift."""
    m = float(np.max(log_f))
    if not np.isfinite(m):
        return -np.inf
    return m + float(np.log(np.trapezoid(np.exp(log_f - m), x)))


def _cell_log_terms(log_integrand: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-cell log of the trapezoid contribution of a positive integrand."""
    dx = np.diff(x)
    with np.errstate(divide="ignore"):
        return np.logaddexp(log_integrand[:-1], log_integrand[1:]) + np.log(dx / 2.0)


def _one_sided_accumulate(cell_terms: np.ndarray) -> np.ndarray:
    """logaddexp running sum of cell terms, -inf when empty."""
    if len(cell_terms) == 0:
        return cell_terms
    return np.logaddexp.accumulate(cell_terms)


def log_cumtrapz_from(log_integrand: np.ndarray, x: np.ndarray, anchor: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative integral of a nonnegative integrand given in log form.

    Returns (log_abs, sign) of C(x_i) = int_{x[anchor]}^{x_i} exp(log_integrand) dx;
    the sign is -1 left of the anchor (orientation of the integral).
    """
    n = len(x)
    cells = _cell_log_terms(log_integrand, x)
    log_abs = np.full(n, -np.inf)
    sign = np.zeros(n)
    if anchor < n - 1:
        fwd = _one_sided_accumulate(cells[anchor:])
        log_abs[anchor + 1:] = fwd
        sign[anchor + 1:] = 1.0
    if anchor > 0:
        bwd = _one_sided_accumulate(cells[:anchor][::-1])
        log_abs[:anchor] = bwd[::-1]
        sign[:anchor] = -1.0
    return log_abs, sign


def log_of(values: np.ndarray) -> np.ndarray:
    """log of a finite nonnegative weight, -inf where it vanishes."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values) & (values >= 0)):
        raise ValueError("expected a finite nonnegative weight")
    with np.errstate(divide="ignore"):
        return np.where(values > 0, np.log(np.where(values > 0, values, 1.0)), -np.inf)


def weighted_transfer(log_phi: np.ndarray, log_source: np.ndarray, x: np.ndarray, anchor: int) -> np.ndarray:
    """T(y) = exp(log_phi(y)) * int_{x[anchor]}^{y} exp(log_source - log_phi) dx.

    This is the J/F/J^psi-type transfer integral of a nonnegative source; the
    inner ratio can overflow by hundreds of e-folds, so it is accumulated in
    log space and exponentiated only after the outer exp(log_phi) prefactor
    has been applied.  A source that vanishes everywhere gives exact zeros.
    """
    if np.all(np.isneginf(log_source)):
        return np.zeros_like(log_phi)
    log_abs, orient = log_cumtrapz_from(log_source - log_phi, x, anchor)
    with np.errstate(over="ignore", under="ignore"):
        return orient * np.exp(np.clip(log_phi + log_abs, LOG_FLOOR, 700.0))
