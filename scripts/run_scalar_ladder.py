#!/usr/bin/env python3
"""Solve a scalar Riemann problem along an eps ladder and print the
convergence table (TV, iterations, L1 distance to the exact solution).

The ladder runs through ``epsilon_continuation`` on ``[-M, M]`` with
``M = Lambda + 1``, as the ``continuation`` CLI does."""

import argparse

from selfsim.diagnostics import epsilon_continuation, exact_scalar_riemann, l1_distance
from selfsim.grid import GridFunction
from selfsim.models import preset_model
from selfsim.scalar import ScalarSolveConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default="burgers-identical")
    ap.add_argument("--uL", type=float, default=1.0)
    ap.add_argument("--uR", type=float, default=0.0)
    ap.add_argument("--eps-ladder", default="0.1,0.05,0.025,0.0125")
    args = ap.parse_args()

    model = preset_model(args.model)
    ladder = [float(x) for x in args.eps_ladder.split(",")]
    # oracle for the identical-halves case (the two flux functions agree)
    oracle = exact_scalar_riemann(
        lambda w: model.f_plus(model.gamma_plus(w)), args.uL, args.uR)
    config = ScalarSolveConfig(eps=ladder[0], M=model.Lambda + 1.0)
    report = epsilon_continuation(model, config, args.uL, args.uR, ladder)

    print(f"{'eps':>8} {'iters':>6} {'TV':>10} {'L1 vs exact':>12}")
    for sol in report["solutions"]:
        exact = GridFunction(sol.u.xi, oracle(sol.u.xi))
        d = l1_distance(sol.u, exact)
        print(f"{sol.eps:8.4f} {sol.iterations:6d} {sol.tv_u:10.6f} {d:12.3e}")
    for failure in report["failures"]:
        print(f"{failure['eps']:8.4f} failed: {failure['error']}")
    return 1 if report["failures"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
