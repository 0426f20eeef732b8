"""Closed-form color field v(xi) and its derivative psi(xi).

The color field selects between the two half-models: it solves the decoupled
self-similar heat equation exactly, rising from -1 to +1 across a Gaussian
layer of thickness eps^(p/2). Normalization is taken over the solve window
[-M, M] (so v(+-M) = +-1 exactly); the discrepancy against the whole-line
normalization is of size exp(-M^2 / 2 eps^p).

erf and erfc come from the standard library's ``math`` module. ``math.erf``
is monotone and equals +-1 exactly for |x| >= 6, so arrays call it only
below that and take sgn(x) elsewhere, with the same result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ERF_SATURATION = 6.0  # math.erf(x) == sgn(x) for |x| >= ERF_SATURATION


def _erf(x: np.ndarray) -> np.ndarray:
    """``math.erf`` elementwise."""
    flat = x.ravel()
    out = np.sign(flat)
    inner = np.abs(flat) < ERF_SATURATION
    out[inner] = [math.erf(t) for t in flat[inner].tolist()]
    return out.reshape(x.shape)


@dataclass(frozen=True)
class ColorProfile:
    eps: float
    p: float = 1.0
    M: float = 2.0
    normalization: float = field(init=False)

    def __post_init__(self):
        if not all(np.isfinite(x) and x > 0 for x in (self.eps, self.p, self.M)):
            raise ValueError("eps, p and M must be positive finite numbers")
        a = self._scale()
        norm = a * np.sqrt(np.pi) * math.erf(self.M / a)
        object.__setattr__(self, "normalization", float(norm))

    def _scale(self) -> float:
        # exp(-xi^2 / 2 eps^p) = exp(-(xi/a)^2) with a = sqrt(2 eps^p)
        return float(np.sqrt(2.0 * self.eps ** self.p))

    def evaluate_v(self, xi):
        """Color value in [-1, 1]; odd, strictly increasing, v(+-M) = +-1."""
        a = self._scale()
        x = np.asarray(xi, dtype=float) / a
        return np.clip(_erf(x) / math.erf(self.M / a), -1.0, 1.0)

    def evaluate_psi(self, xi):
        """psi = dv/dxi = 2 exp(-xi^2 / 2 eps^p) / normalization >= 0."""
        xi = np.asarray(xi, dtype=float)
        return 2.0 * np.exp(-(xi ** 2) / (2.0 * self.eps ** self.p)) / self.normalization

    def sgn_deviation(self, c: float) -> float:
        """sup over c <= |xi| <= M of |v(xi) - sgn(xi)|.

        By monotonicity and oddness the sup is attained at |xi| = c.
        """
        if not 0.0 <= c <= self.M:
            raise ValueError("require 0 <= c <= M")
        a = self._scale()
        # 1 - v(c) = (erfc(c/a) - erfc(M/a)) / erf(M/a)
        return float((math.erfc(c / a) - math.erfc(self.M / a)) / math.erf(self.M / a))
