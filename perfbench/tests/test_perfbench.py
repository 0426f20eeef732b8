"""Tests of the benchmark itself: tracing, call patterns, inputs, contract.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The call-pattern tests run each workload's traced pass on reduced inputs
(shorter ladders, fewer scalar pairs) so that they finish in seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import selfsim  # noqa: E402
import selfsim.cli  # noqa: E402
import selfsim.diagnostics  # noqa: E402
import selfsim.models  # noqa: E402
import selfsim.scalar  # noqa: E402
import selfsim.spectral  # noqa: E402
import selfsim.system  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _traced(wl, seed=0):
    tracer = tracing.Tracer()
    with tracer.installed():
        state = wl.setup()
        _, failures = run.run_pass(wl, state, wl.traced(state, seed), tracer)
    metrics = {k: v for k, (v, _) in tracing.layer_metrics(tracer).items()}
    return metrics, failures


# -- wrapping ----------------------------------------------------------------


def test_every_importing_namespace_gets_the_wrapper():
    originals = {
        "eig": selfsim.spectral.solve_generalized_eigen,
        "solve_scalar": selfsim.scalar.solve_scalar,
        "A": selfsim.models.SystemCouplingModel.A,
    }
    tracer = tracing.Tracer()
    with tracer.installed():
        eig = tracer.wrapped["spectral.solve_generalized_eigen"]
        assert selfsim.spectral.solve_generalized_eigen is eig
        assert selfsim.system.solve_generalized_eigen is eig
        assert selfsim.solve_generalized_eigen is eig
        solve = tracer.wrapped["scalar.solve_scalar"]
        for ns in (selfsim.scalar, selfsim.cli, selfsim.diagnostics, selfsim):
            assert ns.solve_scalar is solve
        assert (selfsim.models.SystemCouplingModel.A
                is tracer.wrapped["models.SystemCouplingModel.A"])
        # no selfsim namespace still holds an unwrapped traced function
        unwrapped = {id(w.__wrapped__) for w in tracer.wrapped.values()}
        for name, mod in list(sys.modules.items()):
            if name == "selfsim" or name.startswith("selfsim."):
                stale = [a for a, v in vars(mod).items() if id(v) in unwrapped]
                assert not stale, (name, stale)
    assert selfsim.spectral.solve_generalized_eigen is originals["eig"]
    assert selfsim.system.solve_generalized_eigen is originals["eig"]
    assert selfsim.cli.solve_scalar is originals["solve_scalar"]
    assert selfsim.models.SystemCouplingModel.A is originals["A"]


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: their union
    # covers 5) and one child [8, 12] running past the root's end; the first
    # child has a grandchild [2, 3]
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert tracing.self_times(start, end, parent) == pytest.approx(
        [10.0 - 5.0 - 2.0, 3.0 - 1.0, 1.0, 3.0, 4.0])


def test_tracer_summary_and_ancestry():
    tr = tracing.Tracer()
    with tr.span("bench.a"):
        with tr.span("layer.b"):
            with tr.span("other.c"):
                pass
        with tr.span("other.c"):
            pass
    s = tr.summary()
    assert s["other.c"]["calls"] == 2
    assert tr.calls_under("other.c", "layer.b") == 1
    assert tr.calls_from_layer("other.c", "layer") == 1
    assert tr.outermost_seconds(["bench.a", "other.c"]) == s["bench.a"]["s"]
    assert s["bench.a"]["self_s"] == pytest.approx(
        s["bench.a"]["s"] - s["layer.b"]["s"] - (tr.end[3] - tr.start[3]))


def test_tracing_leaves_solver_outputs_bit_identical(burgers, p_system):
    def solve():
        sc = selfsim.scalar.solve_scalar(
            burgers, selfsim.scalar.ScalarSolveConfig(eps=0.05), -1.0, 1.0)
        jump = 0.01 * p_system.delta0
        st = selfsim.system.solve_system(
            p_system, selfsim.system.SystemSolveConfig(eps=0.1, grid_size=128),
            p_system.u_ref - [jump / 2, 0.0], p_system.u_ref + [jump / 2, 0.0])
        return sc.u.values, st.u.values, st.tau, st.theta

    plain = solve()
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = solve()
    assert len(tracer) > 0
    for a, b in zip(plain, traced):
        assert np.array_equal(a, b)


# -- inputs ------------------------------------------------------------------


def test_same_seed_gives_the_same_pairs():
    assert workloads.seeded_pairs(7, 5) == workloads.seeded_pairs(7, 5)
    assert workloads.seeded_pairs(7, 5) != workloads.seeded_pairs(8, 5)
    wl = workloads.ScalarCliLadder(Path("."))
    assert wl.cases(7) == wl.cases(7)
    # the seed changes only the untimed pairs
    assert wl.cases(7)[0] == wl.cases(8)[0]
    assert wl.cases(7)[1] != wl.cases(8)[1]
    assert np.all(np.abs(np.array(wl.cases(7)[1])) <= 1.4)


def test_lattice_spreads_pairs_evenly():
    pts = np.array(workloads.lattice_pairs(8, 3))
    # each coordinate takes each of the 8 levels -1.4 + 0.35 k exactly once
    for axis in (0, 1):
        assert sorted(np.round((pts[:, axis] + 1.4) / 0.35).astype(int)) == list(range(8))
    # three rarefactions, three shocks and two constant states
    assert np.sum(pts[:, 0] < pts[:, 1]) == 3 and np.sum(pts[:, 0] > pts[:, 1]) == 3


def test_scalar_cases_include_the_resonant_shock():
    timed, seeded = workloads.ScalarCliLadder(Path(".")).cases(3)
    assert len(timed) == 9 and len(seeded) == 2
    assert timed[-1] == (1.0, -1.0)


# -- call patterns (reduced inputs) ------------------------------------------


def test_psys_ladder_call_pattern():
    m, failures = _traced(workloads.PSystemLadder(ladder=(0.1,)))
    assert not failures
    assert m["spectral.eigen_calls"] > 0
    assert m["spectral.eigen_per_point"] == 9.0
    assert m["system.outer_iters"] == 3.0
    assert m["models.calls"] > 0 and m["spectral.eta_nu_s"] > 0
    for zero in ("scalar.solves", "measures.transfer_calls", "cli.solve_calls",
                 "cli.write_bytes", "diagnostics.continuation_s"):
        assert m[zero] == 0, zero


def test_scalar_cli_ladder_call_pattern(tmp_path):
    wl = workloads.ScalarCliLadder(tmp_path, ladder=(0.1, 0.05), n=2, g=1, k=1)
    m, failures = _traced(wl)
    assert not failures
    # the traced pass runs the timed and the seeded pairs, two calls each
    calls = 2 * sum(map(len, wl.cases(0)))
    # the CLI solves every ladder twice: in epsilon_continuation and again
    # to write the curves
    assert m["scalar.solves"] == 2 * 2 * calls
    assert m["cli.solve_calls"] == 2 * calls
    assert m["scalar.picard_calls"] > 0 and m["cli.write_bytes"] > 0
    assert m["diagnostics.continuation_s"] > 0 and m["models.calls"] > 0
    for zero in ("spectral.eigen_calls", "system.assemble_calls",
                 "measures.transfer_calls", "system.correction_calls"):
        assert m[zero] == 0, zero


def test_lemma_ladder_call_pattern():
    m, failures = _traced(workloads.LemmaLadder(ladder=(0.1, 0.05)))
    assert not failures
    assert m["measures.transfer_calls"] > 0 and m["quadrature.cumtrapz_calls"] > 0
    assert m["measures.transfer_self_s"] > 0
    for zero in ("spectral.eigen_calls", "models.calls", "scalar.solves",
                 "system.assemble_calls", "cli.solve_calls"):
        assert m[zero] == 0, zero


def test_eta_system_call_pattern():
    m, failures = _traced(workloads.EtaSystem(eps=0.2))
    assert not failures
    assert m["spectral.eigen_per_point"] == 7.0
    assert m["system.outer_iters"] > 3.0
    assert m["scalar.solves"] == 1
    assert m["system.correction_calls"] > 0
    for zero in ("measures.transfer_calls", "cli.solve_calls"):
        assert m[zero] == 0, zero


# -- contract ----------------------------------------------------------------


class _Tiny(workloads.Workload):
    """A stand-in workload with one instant, always-correct instance and one
    untimed check."""

    def setup(self):
        return SimpleNamespace()

    def instances(self, state, seed):
        return [("noop", lambda: selfsim.color.ColorProfile(0.1).evaluate_v(0.0))]

    def checks(self, state, seed):
        return [("check", lambda: None)]

    def gate(self, state, results):
        return [err for _, _, err in results]


def test_run_repeats_the_timed_instances_and_checks_once():
    args = SimpleNamespace(seed=0, seconds=0.05)
    metrics, attempted, failures, extra = run.measure(_Tiny(), args, 0.1)
    assert extra["passes"] > 1
    assert len(extra["instance_latencies_s"]["noop"]) == extra["passes"]
    assert len(extra["check_latencies_s"]) == 1
    assert attempted == extra["passes"] + 1 and not failures
    assert metrics["wall_s"][0] == pytest.approx(
        np.median(extra["instance_latencies_s"]["noop"]))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = SimpleNamespace(seed=0, seconds=0.01)
    e2e, attempted, failures, _ = run.measure(_Tiny(), args, 0.1)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(e2e[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    layers, _, _, _ = run.measure_traced(_Tiny(), args)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(layers[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert attempted >= 1 and not failures


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma-ladder",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def burgers():
    return selfsim.models.preset_model("burgers-identical")


@pytest.fixture(scope="module")
def p_system():
    return selfsim.models.preset_model("p-system")
