"""Weak residuals, the exact Riemann oracle, continuation, and traces."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfsim.diagnostics import (_far_from, bump_family, exact_scalar_riemann,
                                 interface_trace_report, kruzhkov_entropies,
                                 l1_distance, ladder_cauchy, riemann_soundness,
                                 weak_residual_report)
from selfsim.grid import GridFunction, uniform_grid
from selfsim.scalar import ScalarSolveConfig, solve_scalar

BURGERS = lambda u: np.asarray(u, dtype=float) ** 2 / 2.0


# ---------------------------------------------------------------------------
# exact Riemann oracle


def test_shock_from_decreasing_convex_data():
    sol = exact_scalar_riemann(BURGERS, 1.0, 0.0)
    assert len(sol.shocks) == 1
    s, um, up = sol.shocks[0]
    assert s == pytest.approx(0.5, abs=1e-3)  # Rankine-Hugoniot speed
    assert sol(np.array([0.3]))[0] == pytest.approx(1.0)
    assert sol(np.array([0.7]))[0] == pytest.approx(0.0)


def test_rarefaction_from_increasing_convex_data():
    sol = exact_scalar_riemann(BURGERS, -1.0, 1.0)
    assert sol.shocks == ()
    xi = np.array([-0.5, 0.0, 0.5])
    np.testing.assert_allclose(sol(xi), xi, atol=2e-3)  # u = xi inside the fan


def test_constant_data():
    sol = exact_scalar_riemann(BURGERS, 0.3, 0.3)
    assert sol(np.array([0.0]))[0] == 0.3
    assert sol.shocks == ()


def test_nonconvex_flux_composite_wave():
    # cubic flux with decreasing data: shock-rarefaction composite
    flux = lambda u: np.asarray(u, dtype=float) ** 3
    sol = exact_scalar_riemann(flux, 1.0, -1.0)
    report = riemann_soundness(flux, sol)
    assert report["passed"], report
    # speeds nondecreasing (valid self-similar fan)
    assert np.all(np.diff(sol.speeds) >= 0)


@settings(deadline=None, max_examples=25)
@given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
@example(-0.19999999999999996, -0.2)  # data two ulps apart: no genuine shock
def test_oracle_soundness_random_data(uL, uR):
    sol = exact_scalar_riemann(BURGERS, uL, uR)
    assert riemann_soundness(BURGERS, sol)["passed"]
    # traces at the endpoints
    assert sol(np.array([-10.0]))[0] == pytest.approx(uL, abs=1e-9)
    assert sol(np.array([10.0]))[0] == pytest.approx(uR, abs=1e-9)


def test_l1_distance_simple():
    xi = uniform_grid(1.0, 101)
    a = GridFunction(xi, np.ones_like(xi))
    b = GridFunction(xi, np.zeros_like(xi))
    assert l1_distance(a, b) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# bumps and weak residuals


def test_bump_family_supports_avoid_color_layer():
    xi = uniform_grid(2.0, 4001)
    eps, p = 0.05, 1.0
    for side in ("minus", "plus"):
        fam = bump_family(xi, eps, p, side)
        assert len(fam) == 12
        z = 3.0 * eps ** (p / 2.0)
        for phi, dphi in fam:
            inside_layer = np.abs(xi) < z
            assert np.all(phi[inside_layer] == 0.0)
            assert phi.max() > 0
            # dphi integrates phi' (fundamental theorem on the support)
            assert np.trapezoid(dphi, xi) == pytest.approx(0.0, abs=1e-8)


def test_kruzhkov_entropies_interior():
    ks = kruzhkov_entropies(0.0, 1.0)
    assert len(ks) == 9
    assert ks.min() > 0.0 and ks.max() < 1.0


def test_weak_residuals_shock(burgers):
    sol = solve_scalar(burgers, ScalarSolveConfig(eps=0.05), 1.0, 0.0)
    report = weak_residual_report(sol, burgers)
    assert report.passed, report
    assert report.conservation_minus <= 1e-3
    assert all(v <= 1e-3 for _, _, v in report.entropy_residuals)


def test_weak_residuals_rarefaction_strictly_negative(burgers):
    sol = solve_scalar(burgers, ScalarSolveConfig(eps=0.05), -1.0, 1.0)
    report = weak_residual_report(sol, burgers)
    # a rarefaction is entropic with strict inequality; the conservation
    # residual is O(eps) over the fan and not asserted here
    assert all(v <= 1e-6 for _, _, v in report.entropy_residuals)


# ---------------------------------------------------------------------------
# continuation and traces


def test_continuation_ladder(burgers):
    # warm-started solves down the ladder, as the CLI's scalar rungs run them
    sols = []
    for eps in (0.1, 0.05, 0.025):
        sols.append(solve_scalar(burgers, ScalarSolveConfig(eps=eps), 1.0, 0.0,
                                 initial=sols[-1].u if sols else None))
    report = ladder_cauchy(sols)
    assert report["l1_cauchy"]
    assert report["pointwise_cauchy"]
    assert all(s.tv_u <= 1.0 + 1e-9 for s in sols)
    assert all(b < a for a, b in zip(report["l1_distances"],
                                     report["l1_distances"][1:])) or \
        len(report["l1_distances"]) < 2


@settings(deadline=None, max_examples=200)
@given(points=st.lists(st.floats(-6.0, 6.0), max_size=60),
       M=st.floats(0.5, 3.0), radius=st.floats(0.0, 4.0),
       pick=st.none() | st.tuples(st.integers(0, 400), st.integers(0, 59)))
@example(points=[0.3], M=2.5, radius=0.5, pick=None)
@example(points=[-7.0, -2.6, 2.7, 9.0], M=2.5, radius=0.25, pick=None)
@example(points=[-1.0, 0.1, 0.1, 2.0], M=2.5, radius=0.0, pick=(200, 1))
def test_far_from_matches_the_all_pairs_test(points, M, radius, pick):
    # ``pick`` sets the radius to one sample-to-point distance, so that
    # sample lies exactly radius away from a steep point
    sample = np.linspace(-M, M, 401)
    points = np.sort(np.array(points, dtype=float))
    if pick is not None and len(points):
        radius = abs(sample[pick[0]] - points[pick[1] % len(points)])
    dense = np.all(np.abs(sample[:, None] - points[None, :]) > radius, axis=1)
    np.testing.assert_array_equal(_far_from(sample, points, radius), dense)


def test_far_from_memory_does_not_grow_with_the_steep_set():
    # the all-pairs test would allocate 401 x 8000 doubles (about 25 MiB)
    sample = np.linspace(-2.5, 2.5, 401)
    points = np.linspace(-2.0, 2.0, 8000)
    tracemalloc.start()
    try:
        _far_from(sample, points, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_continuation_rejects_bad_ladder():
    for ladder in ((0.05, 0.1), (0.1, 0.1)):
        sols = [_synthetic_solution(lambda xi: np.tanh(xi / eps), eps, -1.0, 1.0)
                for eps in ladder]
        with pytest.raises(ValueError, match="strictly decreasing"):
            ladder_cauchy(sols)


def _synthetic_solution(values_of_xi, eps, uL, uR, M=2.0, n=4001):
    from selfsim.scalar import ScalarSolution
    xi = uniform_grid(M, n)
    u = GridFunction(xi, values_of_xi(xi))
    zero = GridFunction(xi, np.zeros_like(xi))
    return ScalarSolution(u=u, v=zero, h=zero, tv_u=u.tv(), monotone=u.is_monotone(),
                          eps=eps, p=1.0, u_left=uL, u_right=uR, residuals=(0.0,))


def test_one_sided_trace_extrapolates_linear_profile():
    from selfsim.diagnostics import _one_sided_trace
    sol = _synthetic_solution(lambda xi: 3.0 * xi + 2.0, 0.01, 2.0, 2.0)
    assert _one_sided_trace(sol, "plus") == pytest.approx(2.0, abs=1e-10)
    assert _one_sided_trace(sol, "minus") == pytest.approx(2.0, abs=1e-10)


def test_richardson_removes_linear_error():
    from selfsim.diagnostics import _richardson
    # t(eps) = t0 + c eps: the extrapolation recovers t0 exactly
    t0, c = 0.7, -3.0
    eps_pair = (0.02, 0.01)
    vals = tuple(t0 + c * e for e in eps_pair)
    assert _richardson(eps_pair, vals) == pytest.approx(t0, abs=1e-12)


def test_trace_report_constant_solution(burgers):
    sols = [_synthetic_solution(lambda xi: np.full_like(xi, 0.4), eps, 0.4, 0.4)
            for eps in (0.05, 0.025)]
    report = interface_trace_report(sols, burgers)
    assert report["trace_minus"] == pytest.approx(0.4, abs=1e-12)
    assert report["trace_plus"] == pytest.approx(0.4, abs=1e-12)
    assert report["traces_agree"]
    assert not report["resonant"]
    assert report["weak_condition_minus"]
    assert report["weak_condition_plus"]


def test_trace_report_linear_pair_interface_jump(linear_pair):
    # speeds -0.5 (left) / +0.5 (right): data uL != uR is carried to the
    # interface from the left and leaves to the right; traces may differ
    sols = []
    prev = None
    for eps in (0.1, 0.05, 0.025):
        sol = solve_scalar(linear_pair, ScalarSolveConfig(eps=eps), 1.0, 0.0,
                           initial=prev)
        prev = sol.u
        sols.append(sol)
    report = interface_trace_report(sols, linear_pair)
    assert report["weak_condition_minus"]
    assert report["weak_condition_plus"]
