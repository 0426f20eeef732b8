"""Underflow/overflow-safe quadrature on log-represented exponential weights.

Exponents of the form g/eps routinely reach several hundred at the small end
of an eps ladder, so every integral against exp(-g/eps) is carried either with
a running max-shift or entirely in log space via logaddexp accumulation.
`weighted_transfer` is the one transfer-integral kernel, on stacked rows with
one anchor each: a J, F or J^psi coefficient of `measures` is one row, and
the correction map of `system` is one call of 2N rows per strength.
`log_of` is the one way a nonnegative weight enters log space.
"""

from __future__ import annotations

import numpy as np

LOG_FLOOR = -745.0  # below exp() underflow
EXP_FLOOR = float(np.exp(LOG_FLOOR))  # the smallest subnormal float


def log_trapz(log_f: np.ndarray, x: np.ndarray) -> float:
    """log of trapz(exp(log_f), x), computed with a max shift."""
    m = float(np.max(log_f))
    if not np.isfinite(m):
        return -np.inf
    return m + float(np.log(np.trapezoid(np.exp(log_f - m), x)))


def _cell_log_terms(log_integrand: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-cell log of the trapezoid contribution of a positive integrand,
    along the last axis."""
    with np.errstate(divide="ignore"):
        return (np.logaddexp(log_integrand[..., :-1], log_integrand[..., 1:])
                + np.log(np.diff(x) / 2.0))


def _accumulate_from(cells: np.ndarray, anchor: int, log_abs: np.ndarray, sign: np.ndarray) -> None:
    """Write into one row (log_abs, sign) of n nodes the logaddexp running
    sums of its n - 1 cell terms outward from the anchor node, with sign -1
    left of the anchor (orientation of the integral); the anchor is left
    as it was."""
    if anchor < len(cells):
        log_abs[anchor + 1:] = np.logaddexp.accumulate(cells[anchor:])
        sign[anchor + 1:] = 1.0
    if anchor > 0:
        log_abs[:anchor] = np.logaddexp.accumulate(cells[:anchor][::-1])[::-1]
        sign[:anchor] = -1.0


def log_cumtrapz_from(log_integrand: np.ndarray, x: np.ndarray, anchor: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative integral of a nonnegative integrand given in log form.

    Returns (log_abs, sign) of C(x_i) = int_{x[anchor]}^{x_i} exp(log_integrand) dx;
    the sign is -1 left of the anchor (orientation of the integral).
    """
    log_abs = np.full(len(x), -np.inf)
    sign = np.zeros(len(x))
    _accumulate_from(_cell_log_terms(log_integrand, x), anchor, log_abs, sign)
    return log_abs, sign


def log_of(values: np.ndarray) -> np.ndarray:
    """log of a finite nonnegative weight, -inf where it vanishes."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values) & (values >= 0)):
        raise ValueError("expected a finite nonnegative weight")
    with np.errstate(divide="ignore"):
        return np.where(values > 0, np.log(np.where(values > 0, values, 1.0)), -np.inf)


def weighted_transfer(log_phi: np.ndarray, log_source: np.ndarray, x: np.ndarray, anchors) -> np.ndarray:
    """Rows T_r(y) = exp(log_phi_r(y)) * int_{x[anchors[r]]}^{y} exp(log_source_r - log_phi_r) dx.

    This is the J/F/J^psi-type transfer integral of a nonnegative source, on
    stacked rows (m, n) with one anchor per row.  The inner ratio can
    overflow by hundreds of e-folds, so it is accumulated in log space and
    exponentiated only after the outer exp(log_phi) prefactor has been
    applied.  The elementwise work is done on all rows at once; each row's
    running sum runs on that row alone.  A row whose source vanishes
    everywhere gives exact zeros.
    """
    cells = _cell_log_terms(log_source - log_phi, x)
    log_abs = np.full(np.shape(log_phi), -np.inf)
    orient = np.zeros(np.shape(log_phi))
    # a row whose source vanishes keeps orientation 0
    for r in np.flatnonzero(~np.all(np.isneginf(log_source), axis=1)):
        _accumulate_from(cells[r], int(anchors[r]), log_abs[r], orient[r])
    log_T = np.clip(log_phi + log_abs, LOG_FLOOR, 700.0)
    # exp at the floor underflows to a subnormal, two orders of magnitude
    # slower than elsewhere: that value is the constant EXP_FLOOR
    T = np.full(log_T.shape, EXP_FLOOR)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(log_T, out=T, where=log_T > LOG_FLOOR)
    return orient * T
