"""End-to-end acceptance checks, one test (and one PASS/FAIL line) each.

Run with ``pytest -v tests/test_acceptance.py``; every criterion prints a
single summary line in addition to its pytest verdict.
"""

import json

import numpy as np
import pytest

from selfsim.cli import main
from selfsim.color import ColorProfile
from selfsim.diagnostics import (exact_scalar_riemann, l1_distance,
                                 weak_residual_report)
from selfsim.grid import GridFunction, uniform_grid
from selfsim.measures import build_phi_star, constant_speed_fields, verify_bounds
from selfsim.models import preset_model, system_from_scalar
from selfsim.scalar import ScalarSolveConfig, solve_scalar
from selfsim.spectral import pencil_eigen
from selfsim.system import ENVELOPE_C, SystemSolveConfig, envelope_bound, solve_system

LADDER4 = (0.1, 0.05, 0.025, 0.0125)
LADDER3 = (0.1, 0.05, 0.025)


def _line(num, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} {detail}".rstrip())
    return passed


@pytest.fixture(scope="module")
def shock_ladder(burgers):
    sols = {}
    prev = None
    for eps in LADDER4:
        sols[eps] = solve_scalar(burgers, ScalarSolveConfig(eps=eps), 1.0, 0.0,
                                 initial=prev)
        prev = sols[eps].u
    return sols


@pytest.fixture(scope="module")
def rarefaction_ladder(burgers):
    sols = {}
    prev = None
    for eps in LADDER4:
        sols[eps] = solve_scalar(burgers, ScalarSolveConfig(eps=eps), -1.0, 1.0,
                                 initial=prev)
        prev = sols[eps].u
    return sols


def test_criterion_01_scalar_tv_bound(burgers, linear_pair):
    """TV(u) <= |uR - uL| + 1e-6 and monotone, 20 random pairs x 2 presets
    x eps in {0.1, 0.05, 0.025}."""
    rng = np.random.default_rng(11)
    pairs = rng.uniform(-1.4, 1.4, size=(20, 2))
    worst = 0.0
    all_monotone = True
    for model in (burgers, linear_pair):
        for uL, uR in pairs:
            prev = None
            for eps in LADDER3:
                sol = solve_scalar(model, ScalarSolveConfig(eps=eps),
                                   float(uL), float(uR), initial=prev)
                prev = sol.u
                worst = max(worst, sol.tv_u - abs(uR - uL))
                all_monotone = all_monotone and sol.monotone
    ok = worst <= 1e-6 and all_monotone
    assert _line(1, "scalar TV bound + monotonicity", ok,
                 f"(worst TV excess {worst:.2e})")


def test_criterion_02_color_limit():
    """sgn_deviation(0.5)/eps decreases along the ladder and ends < 1e-6.

    The closed form gives erfc(0.5 / sqrt(2 eps)) / (eps erf(M / sqrt(2 eps)))
    ~ 6e-4 at eps = 0.0125, so the final-value threshold is not attainable
    with this color profile; the monotone decrease does hold.
    """
    vals = [ColorProfile(eps, 1.0, 2.0).sgn_deviation(0.5) / eps
            for eps in LADDER4]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    final_small = vals[-1] < 1e-6
    ok = decreasing and final_small
    _line(2, "color-function limit", ok,
          f"(monotone={decreasing}, final={vals[-1]:.2e} vs 1e-6)")
    assert decreasing
    assert final_small, (
        f"final sgn_deviation/eps = {vals[-1]:.3e} exceeds 1e-6; the decay of "
        "the error-function tail at c/sqrt(2 eps) ~ 3.2 standard deviations "
        "is far from its asymptotic regime at eps = 0.0125")


def test_criterion_03_inviscid_limit_vs_oracle(burgers, shock_ladder):
    """L1 distance to the exact shock <= 5 eps; midpoint within 3 eps of 0.5."""
    oracle = exact_scalar_riemann(lambda u: np.asarray(u, float) ** 2 / 2.0,
                                  1.0, 0.0)
    ok = True
    details = []
    for eps, sol in shock_ladder.items():
        exact = GridFunction(sol.u.xi, oracle(sol.u.xi))
        d = l1_distance(sol.u, exact)
        mid = float(np.interp(-0.5, -sol.u.values, sol.u.xi))
        ok = ok and d <= 5.0 * eps and abs(mid - 0.5) <= 3.0 * eps
        details.append(f"{eps}: L1={d:.3f}, mid={mid:.3f}")
    assert _line(3, "inviscid scalar limit vs oracle", ok, f"({'; '.join(details)})")


def test_criterion_04_entropy_inequalities(burgers, shock_ladder,
                                           rarefaction_ladder):
    """Kruzhkov residuals <= 1e-3 one-sided on both half-lines, with the
    positive part decreasing along the ladder, for shock and rarefaction."""
    ok = True
    details = []
    for tag, sols in (("shock", shock_ladder), ("fan", rarefaction_ladder)):
        worsts = []
        for eps in LADDER4:
            report = weak_residual_report(sols[eps], burgers)
            worsts.append(max(v for _, _, v in report.entropy_residuals))
        ok = ok and all(v <= 1e-3 for v in worsts)
        pos = [max(v, 0.0) for v in worsts]
        ok = ok and all(b <= a + 1e-15 for a, b in zip(pos, pos[1:]))
        details.append(f"{tag} worst={max(worsts):.2e}")
    assert _line(4, "entropy inequalities", ok, f"({'; '.join(details)})")


def test_criterion_05_generalized_eigen_consistency(p_system):
    """mu = -xi + lambda within 1e-10 and eigen residual <= 1e-9 on a
    100-point (state, color, xi) sample of the p-system (B = I)."""
    rng = np.random.default_rng(5)
    pts = p_system.ball_samples(100)
    v, xi = np.array([(rng.uniform(-1.0, 1.0), rng.uniform(-p_system.M, p_system.M))
                      for _ in pts]).T
    A, B, _ = p_system.pencil(pts, v)
    data = pencil_eigen(A, B, pts, v, xi)
    # |(-xi I + A) R - B R diag(mu)|_2 per point, R the matrix of columns r_hat_i
    R = np.swapaxes(data.r_hat, 1, 2)
    residual = (-xi[:, None, None] * np.eye(2) + A) @ R - (B @ R) * data.mu[:, None, :]
    worst_mu = float(np.abs(data.mu - (-xi[:, None] + data.lambda_hat)).max())
    worst_res = float(np.linalg.norm(residual, 2, axis=(1, 2)).max())
    ok = worst_mu <= 1e-10 and worst_res <= 1e-9
    assert _line(5, "generalized eigen consistency", ok,
                 f"(|mu-(-xi+lam)|={worst_mu:.2e}, residual={worst_res:.2e})")


def test_criterion_06_wave_coefficient_lemmas():
    """Two-band fixture with gap 1.0 (second band containing the interface
    speed 0): cross-transfer slope >= 0.8, self-transfer pointwise bound,
    J^psi constant stable to < 25%, cross-band suppression rate D > 0."""
    M = 2.0
    lams = (-1.2, 0.0)

    def measure_factory(eps):
        n = max(512, int(np.ceil(40 * M / eps)))
        xi = uniform_grid(M, n)
        mu, lo, hi = constant_speed_fields(xi, lams)
        return build_phi_star(xi, mu, eps, lo, hi)

    def psi_factory(eps):
        n = max(512, int(np.ceil(40 * M / eps)))
        return ColorProfile(eps, 1.0, M).evaluate_psi(uniform_grid(M, n))

    report = verify_bounds(measure_factory, list(LADDER4), psi_factory)
    by_name = {c["name"]: c for c in report["checks"]}
    cross_ok = all(c["passed"] for n, c in by_name.items() if "= O(eps)" in n)
    self_ok = by_name["|J_{i->i}| <= 2M phi_i"]["passed"]
    stab = by_name["J^psi fitted constant stability"]
    supp_ok = all(c["passed"] for n, c in by_name.items() if "suppression" in n)
    ok = cross_ok and self_ok and stab["passed"] and supp_ok
    assert _line(6, "wave-coefficient lemma bounds", ok,
                 f"(J^psi spread={stab['relative_spread']:.3f}, "
                 f"all={report['passed']})")


def test_criterion_07_system_uniform_estimates(p_system):
    """p-system, |uR-uL| = 0.01 delta0: boundary residual <= 1e-6, TV/jump
    spread < 15%, sup eps|u_xi| uniformly bounded, contraction factors < 1."""
    jump = 0.01 * p_system.delta0
    uL = p_system.u_ref - np.array([jump / 2.0, 0.0])
    uR = p_system.u_ref + np.array([jump / 2.0, 0.0])
    ratios, slopes, ok = [], [], True
    for eps in LADDER3:
        st = solve_system(p_system, SystemSolveConfig(eps=eps), uL, uR)
        ok = ok and st.boundary_residual <= 1e-6
        ok = ok and all(a < 1.0 for a in st.contraction_estimates)
        ratios.append(st.tv_u / jump)
        slopes.append(st.sup_eps_du)
    spread = (max(ratios) - min(ratios)) / max(ratios)
    ok = ok and spread < 0.15
    # uniform slope bound: one constant (fixed at the coarsest eps) caps the
    # whole ladder
    ok = ok and max(slopes) <= 2.0 * slopes[0]
    assert _line(7, "system uniform estimates", ok,
                 f"(TV/jump spread={spread:.3f}, sup eps|du|={max(slopes):.2e})")


def test_criterion_08_cross_solver_agreement(burgers):
    """N = 1 model through both solvers agrees in L1 to <= 10x the combined
    solver tolerances."""
    sys_model = system_from_scalar(burgers, u_center=0.5, delta0=0.4)
    eps, uL, uR = 0.1, 0.52, 0.48
    scal_cfg = ScalarSolveConfig(eps=eps, M=sys_model.M)
    sys_cfg = SystemSolveConfig(eps=eps)
    scal = solve_scalar(burgers, scal_cfg, uL, uR)
    syst = solve_system(sys_model, sys_cfg, np.array([uL]), np.array([uR]))
    d = l1_distance(scal.u, GridFunction(syst.u.xi, syst.u.values[:, 0]))
    budget = 10.0 * (scal_cfg.fix_tol + sys_cfg.outer_tol
                     + sys_cfg.strength_tol + syst.boundary_residual)
    ok = d <= budget
    assert _line(8, "cross-solver agreement", ok,
                 f"(L1={d:.2e} vs budget {budget:.2e})")


def test_criterion_09_correction_strength_contracts(p_system):
    """Correction envelope holds at the accepted iterate and |tau| <=
    2 ||A0|| beta |uR - uL| on 10 random small-jump instances."""
    rng = np.random.default_rng(9)
    A0_norm = float(np.linalg.norm(p_system.A0(p_system.u_ref, 0.0), 2))
    ok = True
    worst_margin = 0.0
    for _ in range(10):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        jump = rng.uniform(0.002, 0.01) * p_system.delta0
        uL = p_system.u_ref - 0.5 * jump * direction
        uR = p_system.u_ref + 0.5 * jump * direction
        st = solve_system(p_system, SystemSolveConfig(eps=0.1), uL, uR)
        # envelope (checked during the solve; re-assert on the final iterate)
        denom = np.maximum(st.measures.phi_sum(), 1e-300)
        worst = float((np.abs(st.theta) / denom[:, None]).max())
        bound = envelope_bound(st.tau, p_system.eta, p_system.nu, ENVELOPE_C)
        ok = ok and worst <= bound * (1.0 + 1e-9) and st.envelope_constant <= ENVELOPE_C
        cap = 2.0 * A0_norm * st.beta * jump
        margin = float(np.linalg.norm(st.tau)) / cap
        worst_margin = max(worst_margin, margin)
        ok = ok and margin <= 1.0
    assert _line(9, "correction/strength contracts", ok,
                 f"(worst |tau| / cap = {worst_margin:.3f})")


def test_criterion_10_cli_determinism(tmp_path):
    """Repeated CLI runs produce byte-identical artifacts (manifest wall time
    and output path excluded)."""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["solve-scalar", "--eps", "0.05", "--uL", "1.0",
                     "--uR", "0.0", "--strict", "--out", str(out)])
        assert code == 0
        outs.append(out)
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in ("solution.csv", "diagnostics.json"))
    manifests = []
    for out in outs:
        m = json.loads((out / "manifest.json").read_text())
        m["wall_time_s"] = 0.0
        m["config_sha256"] = ""
        m["config"]["out"] = ""
        m["config"]["overrides"].pop("out", None)
        manifests.append(m)
    ok = same and manifests[0] == manifests[1]
    assert _line(10, "CLI determinism", ok)
