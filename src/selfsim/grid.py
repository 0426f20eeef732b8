"""Sampled functions of the self-similar variable xi on a uniform grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridFunction:
    """Real- or vector-valued function of xi sampled on [-M, M].

    ``values`` has shape (n,) for scalar functions or (n, N) for vector
    functions; the xi grid is shared between all quantities of one solve so
    that no inter-module interpolation is ever needed.
    """

    xi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if xi.ndim != 1 or len(xi) < 2:
            raise ValueError("xi grid must be 1-d with at least two points")
        if values.shape[0] != xi.shape[0]:
            raise ValueError("values and xi length mismatch")
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "values", values)

    @property
    def M(self) -> float:
        return float(self.xi[-1])

    def __call__(self, x):
        """Linear interpolation (scalar-valued functions only)."""
        if self.values.ndim != 1:
            raise ValueError("interpolation only supported for scalar values")
        return np.interp(x, self.xi, self.values)

    def cumtrapz(self) -> "GridFunction":
        """Running trapezoid integral from xi[0], zero at the first point."""
        y = self.values
        d = np.diff(self.xi).reshape((-1,) + (1,) * (y.ndim - 1))
        cum = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
        return GridFunction(self.xi, np.concatenate([np.zeros_like(y[:1]), cum]))

    def tv(self) -> float:
        """Total variation; vector values use the Euclidean norm of jumps."""
        d = np.diff(self.values, axis=0)
        if d.ndim == 1:
            return float(np.sum(np.abs(d)))
        return float(np.sum(np.linalg.norm(d, axis=1)))

    def is_monotone(self) -> bool:
        """Nondecreasing or nonincreasing in xi, to 1e-12 per step (scalar values only)."""
        if self.values.ndim != 1:
            raise ValueError("monotonicity only defined for scalar values")
        d = np.diff(self.values)
        return bool(np.all(d >= -1e-12) or np.all(d <= 1e-12))


def uniform_grid(M: float, n: int) -> np.ndarray:
    return np.linspace(-M, M, n)


def default_grid_size(M: float, eps: float) -> int:
    """Uniform grid resolving the O(eps) viscous layer with >= 40 points,
    and never fewer than 512 points."""
    return max(512, int(np.ceil(40.0 * M / eps)))
