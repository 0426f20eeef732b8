"""Coupled-model coefficient fields and their structural hypotheses.

A scalar or small-system coupling model packages the coefficient fields
A0, A1 (time/space coefficients) and B0 (viscosity), built from two
half-model data sets (gamma_-, f_-) and (gamma_+, f_+) by interpolation in
the color variable v, together with the structural constants (coercivity,
Lipschitz, speed bound, band data) estimated by deterministic tensor-grid
sampling.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ModelConstructionError(ValueError):
    """Raised when supplied half-model data violates a structural hypothesis."""


FD_STEP = 1e-6  # central-difference step of a derivative not given in closed form
SCALAR_SAMPLES = 64      # (u, v) grid points per axis of a scalar model's constants
P_SYSTEM_SAMPLES = 24    # tau, v grid points and ball states of a p-system's constants
HYPOTHESIS_SAMPLES = 64  # ball states (scalar: grid points per axis) of the check
A0_DET_FLOOR = 1e-12     # |det A0| at or below which a sampled A0 counts as singular


def finite_difference(fn: Callable) -> Callable:
    def dfn(x):
        return (np.asarray(fn(x + FD_STEP)) - np.asarray(fn(x - FD_STEP))) / (2.0 * FD_STEP)
    return dfn


def affine_blend(v):
    """Weight of the v = +1 endpoint; the smooth connection in v."""
    return (1.0 + np.asarray(v)) / 2.0


# ---------------------------------------------------------------------------
# scalar model


@dataclass(frozen=True)
class ScalarCouplingModel:
    A0: Callable
    A1: Callable
    B0: Callable
    gamma_minus: Callable
    gamma_plus: Callable
    f_minus: Callable
    f_plus: Callable
    c1: float
    c2: float
    c3: float
    omega0: float
    omega1: float
    Lambda: float
    u_domain: tuple[float, float]
    name: str = "scalar"

    def lam(self, u, v):
        return self.A1(u, v) / self.A0(u, v)

    def G(self, u, v):
        return self.A0(u, v) / self.B0(u, v)

    def contains(self, u) -> bool:
        lo, hi = self.u_domain
        return bool(np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12))


def _lipschitz(f2d: np.ndarray, us: np.ndarray, vs: np.ndarray) -> float:
    """Largest sampled |partial derivative| of f on the (us x vs) grid."""
    gu = np.abs(np.gradient(f2d, us[1] - us[0], axis=0)).max()
    gv = np.abs(np.gradient(f2d, vs[1] - vs[0], axis=1)).max()
    return float(max(gu, gv))


def build_scalar_model(
    gamma_minus: Callable,
    gamma_plus: Callable,
    f_minus: Callable,
    f_plus: Callable,
    u_domain: tuple[float, float] = (-1.5, 1.5),
    B0: Callable | None = None,
    d_gamma_minus: Callable | None = None,
    d_gamma_plus: Callable | None = None,
    d_f_minus: Callable | None = None,
    d_f_plus: Callable | None = None,
    name: str = "scalar",
) -> ScalarCouplingModel:
    """Assemble A0, A1 by blending the v = -1 and v = +1 endpoint values.

    The endpoints are pinned to the half-model data, A0(u, -+1) = gamma'_-+(u)
    and A1(u, -+1) = (f_-+ o gamma_-+)'(u); in between, the blend is affine
    in v.  Derivatives not given in closed form are finite differences.
    """
    dgm = d_gamma_minus or finite_difference(gamma_minus)
    dgp = d_gamma_plus or finite_difference(gamma_plus)
    dfm = d_f_minus or finite_difference(f_minus)
    dfp = d_f_plus or finite_difference(f_plus)

    def A0(u, v):
        weight = affine_blend(v)
        return (1.0 - weight) * dgm(u) + weight * dgp(u)

    def A1(u, v):
        weight = affine_blend(v)
        return ((1.0 - weight) * dfm(gamma_minus(u)) * dgm(u)
                + weight * dfp(gamma_plus(u)) * dgp(u))

    if B0 is None:
        def B0(u, v):  # noqa: A001 - shadow on purpose
            return np.ones_like(np.asarray(u, dtype=float) + np.asarray(v, dtype=float))

    us = np.linspace(u_domain[0], u_domain[1], SCALAR_SAMPLES)
    vs = np.linspace(-1.0, 1.0, SCALAR_SAMPLES)
    UU, VV = np.meshgrid(us, vs, indexing="ij")

    if np.any(dgm(us) <= 0) or np.any(dgp(us) <= 0):
        raise ModelConstructionError("gamma_+- must be strictly increasing on the u domain")

    a0 = np.asarray(A0(UU, VV), dtype=float)
    a1 = np.asarray(A1(UU, VV), dtype=float)
    b0 = np.asarray(B0(UU, VV), dtype=float)
    if np.any(a0 <= 0):
        raise ModelConstructionError("sampled A0 violates positivity")
    if np.any(b0 <= 0):
        raise ModelConstructionError("sampled B0 violates positivity")

    return ScalarCouplingModel(
        A0=A0, A1=A1, B0=B0,
        gamma_minus=gamma_minus, gamma_plus=gamma_plus,
        f_minus=f_minus, f_plus=f_plus,
        c1=float(a0.min()), c2=float(b0.min()), c3=float(b0.max()),
        omega0=_lipschitz(a0, us, vs), omega1=_lipschitz(a1, us, vs),
        Lambda=float(np.abs(a1 / a0).max()),
        u_domain=(float(u_domain[0]), float(u_domain[1])),
        name=name,
    )


# ---------------------------------------------------------------------------
# system model


def _leading_shape(u, v) -> tuple:
    """Shape of the stack of points given by states u (..., N) and colors v."""
    return np.broadcast_shapes(np.shape(u)[:-1], np.shape(v))


@dataclass(frozen=True)
class SystemCouplingModel:
    """Small-system coupling model.

    ``A0``, ``A1`` and ``B0`` take states u of shape (..., N) and colors v
    that broadcast to the leading shape, and return matrices (..., N, N).
    ``pencil`` forms the matrices of the self-similar pencil
    (-xi I + A, B), A = A1 A0^-1 and B = B0 A0^-1, under the same stacked
    contract; it is the one place where A0 is inverted.
    """

    N: int
    A0: Callable
    A1: Callable
    B0: Callable
    delta0: float
    lam_low: np.ndarray
    lam_high: np.ndarray
    eta: float
    nu: float
    M: float
    u_ref: np.ndarray
    name: str = "system"

    def pencil(self, u, v) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, B, A0^-1) at the stacked points, with A = A1 A0^-1 and
        B = B0 A0^-1 sharing one evaluation and one inversion of A0."""
        A0_inv = np.linalg.inv(np.asarray(self.A0(u, v), dtype=float))
        return (np.asarray(self.A1(u, v)) @ A0_inv,
                np.asarray(self.B0(u, v)) @ A0_inv, A0_inv)

    def in_ball(self, u, slack: float = 1e-9) -> bool:
        """True if every stacked state u (..., N) lies in the state ball."""
        return bool(np.all(np.linalg.norm(np.asarray(u) - self.u_ref, axis=-1) <= self.delta0 + slack))

    def ball_samples(self, count: int) -> np.ndarray:
        """Deterministic low-discrepancy-ish samples of the state ball."""
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((count, self.N))
        radii = rng.random(count) ** (1.0 / self.N)
        pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * radii[:, None] * self.delta0
        return self.u_ref[None, :] + pts


def build_p_system_model(
    p_minus: Callable,
    p_plus: Callable,
    tau_domain: tuple[float, float] = (0.5, 2.0),
    dp_minus: Callable | None = None,
    dp_plus: Callable | None = None,
    delta0: float | None = None,
    name: str = "p-system",
) -> SystemCouplingModel:
    """Two p-systems with pressure laws p_+-(tau), coupled by averaging the
    flux Jacobians in v; A0 = B0 = I so eta = 0 and the coupling strength nu
    is carried entirely by the v-dependence of the eigenvectors.
    """
    dpm = dp_minus or finite_difference(p_minus)
    dpp = dp_plus or finite_difference(p_plus)

    taus = np.linspace(tau_domain[0], tau_domain[1], P_SYSTEM_SAMPLES)
    if np.any(dpm(taus) >= 0) or np.any(dpp(taus) >= 0):
        raise ModelConstructionError("p'_+- must be negative on tau_domain (hyperbolicity)")

    def pbar_prime(tau, v):
        wv = affine_blend(v)
        return wv * dpp(tau) + (1.0 - wv) * dpm(tau)

    def A1(u, v):
        c = pbar_prime(np.asarray(u, dtype=float)[..., 0], v)
        out = np.zeros(np.shape(c) + (2, 2))
        out[..., 0, 1] = -1.0
        out[..., 1, 0] = c
        return out

    eye = np.eye(2)

    def A0(u, v):
        return np.broadcast_to(eye, _leading_shape(u, v) + (2, 2))

    B0 = A0

    tau0 = 0.5 * (tau_domain[0] + tau_domain[1])
    u_ref = np.array([tau0, 0.0])
    gap0 = 2.0 * np.sqrt(-pbar_prime(tau0, 0.0))
    if delta0 is None:
        delta0 = min(gap0 / 4.0, 0.45 * (tau_domain[1] - tau_domain[0]))

    def make(d0: float) -> SystemCouplingModel:
        # speed bands over the state ball x color interval
        tgrid = np.linspace(max(tau_domain[0], tau0 - d0),
                            min(tau_domain[1], tau0 + d0), P_SYSTEM_SAMPLES)
        vgrid = np.linspace(-1.0, 1.0, P_SYSTEM_SAMPLES)
        TT, VV = np.meshgrid(tgrid, vgrid, indexing="ij")
        c = np.sqrt(-pbar_prime(TT, VV))
        lam_low = np.array([-c.max(), c.min()])
        lam_high = np.array([-c.min(), c.max()])
        margin = 1e-9 + 1e-6 * c.max()
        lam_low -= margin
        lam_high += margin
        if lam_high[0] >= lam_low[1]:
            raise ModelConstructionError("speed bands overlap; shrink delta0 or tau_domain")
        return SystemCouplingModel(
            N=2, A0=A0, A1=A1, B0=B0,
            delta0=float(d0),
            lam_low=lam_low, lam_high=lam_high,
            eta=0.0, nu=0.0,
            M=float(lam_high[-1] + 0.5),
            u_ref=u_ref, name=name,
        )

    # shrink the state ball until eigenvector near-orthogonality holds
    # across sampled state pairs
    model = make(delta0)
    for _ in range(12):
        worst_diag, worst_off = _near_orthogonality(model, P_SYSTEM_SAMPLES)
        if worst_diag >= 1.0 - model.delta0 and worst_off <= model.delta0:
            break
        model = make(model.delta0 * 0.6)
    else:
        raise ModelConstructionError("could not find a state ball satisfying "
                                     "eigenvector near-orthogonality")
    from .spectral import estimate_eta_nu
    eta, nu = estimate_eta_nu(model)
    return dataclasses.replace(model, eta=float(eta), nu=float(nu))


def system_from_scalar(model: ScalarCouplingModel, u_center: float,
                       delta0: float | None = None) -> SystemCouplingModel:
    """Wrap a scalar model as an N = 1 system for cross-solver comparison;
    its speed band is sampled on a 64 x 64 (u, v) grid."""
    if delta0 is None:
        lo, hi = model.u_domain
        delta0 = min(u_center - lo, hi - u_center)
        if delta0 <= 0:
            raise ModelConstructionError("u_center outside the scalar model domain")

    def wrap(f):
        def mat(u, v):
            vals = np.asarray(f(np.asarray(u, dtype=float)[..., 0], v), dtype=float)
            return np.broadcast_to(vals, _leading_shape(u, v))[..., None, None]
        return mat

    us = np.linspace(u_center - delta0, u_center + delta0, 64)
    vs = np.linspace(-1.0, 1.0, 64)
    UU, VV = np.meshgrid(us, vs, indexing="ij")
    lam = np.asarray(model.lam(UU, VV), dtype=float)

    sys_model = SystemCouplingModel(
        N=1,
        A0=wrap(model.A0), A1=wrap(model.A1), B0=wrap(model.B0),
        delta0=float(delta0),
        lam_low=np.array([lam.min() - 1e-9]),
        lam_high=np.array([lam.max() + 1e-9]),
        eta=0.0, nu=0.0,
        M=float(max(abs(lam.min()), abs(lam.max())) + 1.0),
        u_ref=np.array([float(u_center)]),
        name=model.name + "-as-system",
    )
    from .spectral import estimate_eta_nu
    eta, nu = estimate_eta_nu(sys_model)
    return dataclasses.replace(sys_model, eta=float(eta), nu=float(nu))


# ---------------------------------------------------------------------------
# hypothesis validation


def _check(name: str, extremal: float, passed: bool) -> dict:
    return {"name": name, "extremal": float(extremal), "passed": bool(passed)}


def validate_hypotheses(model) -> dict:
    """Sampled verification of the structural hypotheses on a fixed,
    deterministic sample; failures are report entries, never exceptions."""
    if isinstance(model, ScalarCouplingModel):
        checks = _validate_scalar(model, HYPOTHESIS_SAMPLES)
    elif isinstance(model, SystemCouplingModel):
        checks = _validate_system(model, HYPOTHESIS_SAMPLES)
    else:
        raise TypeError(f"unknown model type {type(model)!r}")
    return {"model": model.name, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


def _validate_scalar(model: ScalarCouplingModel, n: int) -> list[dict]:
    us = np.linspace(model.u_domain[0], model.u_domain[1], n)
    vs = np.linspace(-1.0, 1.0, n)
    UU, VV = np.meshgrid(us, vs, indexing="ij")
    a0 = np.asarray(model.A0(UU, VV), dtype=float)
    b0 = np.asarray(model.B0(UU, VV), dtype=float)
    a1 = np.asarray(model.A1(UU, VV), dtype=float)
    lam = np.abs(a1 / a0)

    dgm = finite_difference(model.gamma_minus)
    dgp = finite_difference(model.gamma_plus)
    dfm = finite_difference(model.f_minus)
    dfp = finite_difference(model.f_plus)
    cons = max(
        np.abs(np.asarray(model.A0(us, -1.0)) - dgm(us)).max(),
        np.abs(np.asarray(model.A0(us, 1.0)) - dgp(us)).max(),
        np.abs(np.asarray(model.A1(us, -1.0)) - dfm(model.gamma_minus(us)) * dgm(us)).max(),
        np.abs(np.asarray(model.A1(us, 1.0)) - dfp(model.gamma_plus(us)) * dgp(us)).max(),
    )

    lip0, lip1 = _lipschitz(a0, us, vs), _lipschitz(a1, us, vs)

    return [
        _check("A0 >= c1 > 0", a0.min(), a0.min() >= model.c1 - 1e-12 and model.c1 > 0),
        _check("c2 <= B0 <= c3", b0.min(), model.c2 - 1e-12 <= b0.min() and b0.max() <= model.c3 + 1e-12),
        _check("|A1/A0| <= Lambda", lam.max(), lam.max() <= model.Lambda + 1e-12),
        _check("endpoint consistency with gamma_+-, f_+-", cons, cons <= 1e-6),
        _check("Lipschitz bound omega0", lip0, lip0 <= model.omega0 * (1 + 1e-9) + 1e-12),
        _check("Lipschitz bound omega1", lip1, lip1 <= model.omega1 * (1 + 1e-9) + 1e-12),
    ]


def _abs_det_A0(model: SystemCouplingModel, U, v) -> np.ndarray:
    """|det A0| at the stacked points (U, v).  Only points where it exceeds
    A0_DET_FLOOR reach ``model.pencil``, which inverts A0."""
    return np.abs(np.linalg.det(np.asarray(model.A0(U, v), dtype=float)))


def _near_orthogonality(model: SystemCouplingModel, n: int) -> tuple[float, float]:
    """Worst sampled l_i(u1).r_i(u2) diagonal and off-diagonal magnitudes
    across state pairs in the ball (hypothesis of approximate biorthogonality
    uniformly over the ball), l_i the rows of R(u1)^-T; pairs without an
    invertible A0 or a real spectrum are skipped."""
    from .spectral import eig_decomposition

    rng = np.random.default_rng(0)
    pts = model.ball_samples(n)
    pair_idx = rng.integers(0, len(pts), size=(min(32, n), 2))
    v = rng.uniform(-1.0, 1.0, size=len(pair_idx))
    u1, u2 = pts[pair_idx[:, 0]], pts[pair_idx[:, 1]]
    ok = np.minimum(_abs_det_A0(model, u1, v), _abs_det_A0(model, u2, v)) > A0_DET_FLOOR
    _, r1, real1 = eig_decomposition(model.pencil(u1[ok], v[ok])[0])
    _, r2, real2 = eig_decomposition(model.pencil(u2[ok], v[ok])[0])
    l1 = np.linalg.inv(np.swapaxes(r1, -1, -2))
    cross = (l1 @ np.swapaxes(r2, -1, -2))[real1 & real2]
    off = np.where(np.eye(model.N, dtype=bool), 0.0, cross)
    return (float(np.diagonal(cross, axis1=-2, axis2=-1).min(initial=1.0)),
            float(np.abs(off).max(initial=0.0)))


def _validate_system(model: SystemCouplingModel, n: int) -> list[dict]:
    from .spectral import GAP_FLOOR, eig_decomposition

    vs = np.linspace(-1.0, 1.0, 9)
    # every (state, color) sample, states outer
    U = np.repeat(model.ball_samples(n), len(vs), axis=0)
    V = np.tile(vs, n)
    det = _abs_det_A0(model, U, V)
    # a singular A0 fails the first check; its samples skip the others
    ok = det > A0_DET_FLOOR
    A, B, _ = model.pencil(U[ok], V[ok])
    lam, _, real = eig_decomposition(A)
    # smallest gap of the sorted speeds relative to max(1, max |lambda|), the
    # scale of eigenvector_derivative's coincidence floor; 0 where a sample
    # has a complex pair
    gap = (np.diff(lam, axis=-1).min(axis=-1, initial=np.inf)
           / np.maximum(1.0, np.abs(lam).max(axis=-1)))
    min_gap = gap.min(initial=np.inf) if real.all() else 0.0
    dev = np.maximum(model.lam_low - lam, lam - model.lam_high).max(axis=-1)[real]
    worst_band = dev.max(initial=0.0)
    band_ok = bool(np.all(dev <= 1e-9))
    B_dev = (B - np.eye(model.N))[real]
    max_bnorm = np.linalg.norm(B_dev, 2, axis=(-2, -1)).max(initial=0.0)

    gaps = model.lam_low[1:] - model.lam_high[:-1] if model.N > 1 else np.array([np.inf])

    # eigenvector near-orthogonality across state pairs in the ball
    worst_diag, worst_off = _near_orthogonality(model, n)

    return [
        _check("A0 invertible on samples", det.min(), bool(ok.all())),
        _check("real separated eigenvalues", min_gap, min_gap >= GAP_FLOOR),
        _check("eigenvalues inside bands", worst_band, band_ok),
        _check("bands disjoint", float(gaps.min()), bool(gaps.min() > 0)),
        _check("|B - I| <= eta", max_bnorm, max_bnorm <= model.eta + 1e-9),
        _check("l_i . r_i >= 1 - delta0", worst_diag, worst_diag >= 1.0 - model.delta0 - 1e-9),
        _check("|l_i . r_j| <= delta0 (i != j)", worst_off, worst_off <= model.delta0 + 1e-9),
    ]


# ---------------------------------------------------------------------------
# presets and declarative configs


def preset_model(name: str, **kwargs):
    key = name.lower()
    if key == "burgers-identical":
        ident = lambda u: np.asarray(u, dtype=float)
        burgers = lambda u: np.asarray(u, dtype=float) ** 2 / 2.0
        defaults = dict(u_domain=(-1.5, 1.5), name="burgers-identical",
                        d_gamma_minus=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                        d_gamma_plus=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                        d_f_minus=lambda u: np.asarray(u, dtype=float),
                        d_f_plus=lambda u: np.asarray(u, dtype=float))
        defaults.update(kwargs)
        return build_scalar_model(ident, ident, burgers, burgers, **defaults)
    if key == "linear-advection-pair":
        a = kwargs.pop("a", -0.5)
        b = kwargs.pop("b", 0.5)
        ident = lambda u: np.asarray(u, dtype=float)
        defaults = dict(u_domain=(-1.5, 1.5), name="linear-advection-pair",
                        d_gamma_minus=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                        d_gamma_plus=lambda u: np.ones_like(np.asarray(u, dtype=float)),
                        d_f_minus=lambda u: np.full_like(np.asarray(u, dtype=float), a),
                        d_f_plus=lambda u: np.full_like(np.asarray(u, dtype=float), b))
        defaults.update(kwargs)
        return build_scalar_model(ident, ident,
                                  lambda u: a * np.asarray(u, dtype=float),
                                  lambda u: b * np.asarray(u, dtype=float),
                                  **defaults)
    if key == "p-system":
        km = kwargs.pop("k_minus", 1.0)
        kp = kwargs.pop("k_plus", 1.2)
        defaults = dict(tau_domain=(0.5, 2.0), name="p-system",
                        dp_minus=lambda t: -km / np.asarray(t, dtype=float) ** 2,
                        dp_plus=lambda t: -kp / np.asarray(t, dtype=float) ** 2)
        defaults.update(kwargs)
        return build_p_system_model(lambda t: km / np.asarray(t, dtype=float),
                                    lambda t: kp / np.asarray(t, dtype=float),
                                    **defaults)
    raise KeyError(f"unknown model preset {name!r}")


def _polynomial(coeffs: np.ndarray) -> Callable:
    return lambda u: np.polynomial.polynomial.polyval(np.asarray(u, dtype=float), coeffs)


def _callable_from_spec(spec) -> tuple[Callable, Callable | None]:
    """Polynomial (list of coefficients, low order first) or tabulated data;
    returns the function and its closed-form derivative, which a table does
    not have (None)."""
    if isinstance(spec, dict) and "table" in spec:
        xs = np.asarray(spec["table"]["x"], dtype=float)
        ys = np.asarray(spec["table"]["y"], dtype=float)
        return (lambda u: np.interp(u, xs, ys)), None
    coeffs = np.asarray(spec, dtype=float)
    return _polynomial(coeffs), _polynomial(np.polynomial.polynomial.polyder(coeffs))


def model_from_config(cfg: dict):
    """Declarative model: {"kind": "scalar", "gamma_minus": [...], ...} with
    polynomial coefficient lists or {"table": {"x": [...], "y": [...]}}."""
    kind = cfg.get("kind", "preset")
    if kind == "preset":
        return preset_model(cfg["name"], **cfg.get("options", {}))
    if kind == "scalar":
        kw = {}
        if "u_domain" in cfg:
            kw["u_domain"] = tuple(cfg["u_domain"])
        if "B0" in cfg:
            b0, _ = _callable_from_spec(cfg["B0"])
            kw["B0"] = lambda u, v: b0(u) + 0.0 * np.asarray(v, dtype=float)
        for key in ("gamma_minus", "gamma_plus", "f_minus", "f_plus"):
            kw[key], kw[f"d_{key}"] = _callable_from_spec(cfg[key])
        return build_scalar_model(name=cfg.get("name", "scalar-config"), **kw)
    if kind == "p-system":
        kw = {}
        if "tau_domain" in cfg:
            kw["tau_domain"] = tuple(cfg["tau_domain"])
        kw["p_minus"], kw["dp_minus"] = _callable_from_spec(cfg["p_minus"])
        kw["p_plus"], kw["dp_plus"] = _callable_from_spec(cfg["p_plus"])
        return build_p_system_model(name=cfg.get("name", "p-system-config"), **kw)
    raise KeyError(f"unknown model kind {kind!r}")
