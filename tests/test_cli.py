"""Command-line interface: config handling, artifacts, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import selfsim
import selfsim.cli
import selfsim.scalar
from selfsim.cli import CSV_BLOCK_ROWS, ConfigError, main, parse_config, run, write_csv
from selfsim.diagnostics import TraceWindowError
from selfsim.system import admissible_jump_radius


def _run(tmp_path, *args):
    out = tmp_path / "run"
    code = main([*args, "--out", str(out)])
    return code, out


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


# ---------------------------------------------------------------------------
# configuration


def test_parse_requires_subcommand():
    with pytest.raises(SystemExit):
        parse_config([])


def test_flag_overrides_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"eps": 0.2, "uL": 1.0, "uR": 0.0}))
    cfg = parse_config(["solve-scalar", "--config", str(cfg_file),
                        "--eps", "0.1"])
    assert cfg.eps == 0.1
    assert cfg.uL == 1.0
    assert cfg.overrides == {"eps": 0.1}


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    for data in ({"epsilon": 0.1}, {"seed": 0}, {"fix_tol": 1e-10},
                 {"command": "x"}, {"overrides": {}}):
        cfg_file.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(["solve-scalar", "--config", str(cfg_file)])
    for flag in ("--seed", "--fix-tol"):
        with pytest.raises(SystemExit):
            parse_config(["solve-scalar", flag, "0"])


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(["solve-scalar", "--config", str(tmp_path / "nope.json")])


def test_ladder_must_decrease():
    with pytest.raises(ConfigError, match="strictly decreasing"):
        parse_config(["continuation", "--eps-ladder", "0.05,0.1"])


@pytest.mark.parametrize("data, message", [
    ({"eps": "0.1"}, "--eps must be a positive finite number, got '0.1'"),
    ({"eps": True}, "--eps must be a positive finite number, got True"),
    ({"eps_ladder": 0.1}, "--eps-ladder must be a non-empty list, got 0.1"),
    ({"eps_ladder": []}, "--eps-ladder must be a non-empty list, got []"),
    ({"eps_ladder": [0.1, "0.05"]},
     "--eps-ladder entry must be a positive finite number, got '0.05'"),
    ({"grid": 100.5}, "--grid must be an integer >= 64, got 100.5"),
    ({"out": 5}, "--out must be a path, got 5"),
    ({"model_options": 5}, "model_options must be an object, got 5"),
    ({"strict": "false"}, "--strict must be true or false, got 'false'"),
    ({"strict": None}, "--strict must be true or false, got None"),
    ({"model": 5}, "--model must be a preset name or a model object, got 5"),
    ({"uL": "a"}, "--uL must be a number or a non-empty list of numbers, got 'a'"),
    ({"uL": True}, "--uL must be a number or a non-empty list of numbers, got True"),
    ({"uR": []}, "--uR must be a number or a non-empty list of numbers, got []"),
    ({"u": [0.1, None]},
     "--u must be a number or a non-empty list of numbers, got [0.1, None]"),
], ids=["eps-string", "eps-bool", "ladder-number", "ladder-empty",
        "ladder-string-entry", "grid-float", "out-number", "model-options-number",
        "strict-string", "strict-null", "model-number", "uL-string", "uL-bool", "uR-empty",
        "u-null-entry"])
def test_config_file_value_of_the_wrong_type_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                               data, message):
    # no --out flag, which would override the config file's "out"
    monkeypatch.chdir(tmp_path)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"uL": 1.0, "uR": 0.0, **data}))
    argv = ["solve-scalar", "--config", str(cfg_file)]
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(argv)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()
    assert list(tmp_path.iterdir()) == [cfg_file]


def _flags(data: dict) -> list[str]:
    """The flags that set the config-file values ``data``."""
    return [arg for key, val in data.items()
            for arg in (f"--{key.replace('_', '-')}",
                        ",".join(map(str, val)) if isinstance(val, list) else str(val))]


@pytest.mark.parametrize("command, data, message", [
    ("solve-scalar", {"eps": 0.1, "eps_ladder": [0.05], "uL": 1.0, "uR": 0.0},
     "give --eps or --eps-ladder, not both: got 0.1 and [0.05]"),
    ("verify-lemmas", {"model": "two-band-fixture", "eps_ladder": [0.1, 0.05],
                       "uL": 5.0, "uR": 7.0, "u": 3.0},
     "verify-lemmas does not read --u"),
    ("continuation", {"eps_ladder": [0.1, 0.05], "uL": 1.0, "uR": 0.0, "u": 0.5},
     "continuation does not read --u"),
    ("spectral-sweep", {"model": "p-system", "eps": 0.1, "uL": [1.25, 0.0]},
     "spectral-sweep does not read --uL"),
    ("spectral-sweep", {"model": "p-system", "eps": 0.1, "uR": [1.25, 0.0]},
     "spectral-sweep does not read --uR"),
    ("verify-lemmas", {"model": "p-system", "eps_ladder": [0.1, 0.05], "uL": [1.25, 0.0]},
     "verify-lemmas takes --uL and --uR together, got only --uL"),
    ("solve-system", {"model": "p-system", "eps": 0.1, "uR": [1.25, 0.0]},
     "solve-system takes --uL and --uR together, got only --uR"),
], ids=["eps-and-ladder", "u-on-verify-lemmas", "u-on-continuation", "uL-on-spectral-sweep",
        "uR-on-spectral-sweep", "verify-lemmas-uL-only", "solve-system-uR-only"])
def test_a_value_the_command_does_not_read_is_a_config_error(tmp_path, capsys, command, data,
                                                             message):
    # as a flag and as a config-file key alike, before any file is written
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(data))
    out = ["--out", str(tmp_path / "run")]
    for argv in ([command, *_flags(data), *out], [command, "--config", str(cfg_file), *out]):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(argv)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg_file]


def test_scalar_model_with_vector_data_is_a_config_error(tmp_path, capsys):
    # well-typed, so it passes parse_config; the model it names takes no vector data
    message = "a scalar model takes a number for --uL and --uR, got [1.0, 2.0] and 0.0"
    argv = ["solve-scalar", "--uL", "1.0,2.0", "--uR", "0.0", "--out", str(tmp_path / "run")]
    with pytest.raises(ConfigError, match=re.escape(message)):
        run(parse_config(argv))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


# B0 = u, which the builder reads and rejects; without "B0" it is 1
_B0_SPEC = {"kind": "scalar", "gamma_minus": [0.0, 1.0], "gamma_plus": [0.0, 1.0],
            "f_minus": [0.0, 0.0, 0.5], "f_plus": [0.0, 0.0, 0.5], "B0": [0.0, 1.0]}
# p = 3 - tau + 0.1 tau^2 is hyperbolic for tau < 5: on the default
# tau_domain [0.5, 2], not on [4, 6]
_TAU_DOMAIN_SPEC = {"kind": "p-system", "p_minus": [3.0, -1.0, 0.1],
                    "p_plus": [3.0, -1.0, 0.1], "tau_domain": [4.0, 6.0]}


@pytest.mark.parametrize("command, data, message", [
    ("solve-scalar", {"model": {"kind": "preset"}},
     "cannot build the model {'kind': 'preset'} with options {}: KeyError: 'name'"),
    ("solve-scalar", {"model_options": {"bogus": 1}},
     "cannot build the model 'burgers-identical' with options {'bogus': 1}: TypeError: "),
    # "speed" for "speeds" must not run on the default speeds
    ("verify-lemmas", {"model": "two-band-fixture", "model_options": {"speed": [-1.2, 0.0]},
                       "eps_ladder": [0.1, 0.05]},
     "cannot build the model 'two-band-fixture' with options {'speed': [-1.2, 0.0]}: "
     "TypeError: unknown options ['speed']"),
    ("verify-lemmas", {"model": "two-band-fixture", "model_options": {"speeds": "ab"},
                       "eps_ladder": [0.1, 0.05]},
     "cannot build the model 'two-band-fixture' with options {'speeds': 'ab'}: "
     "ValueError: could not convert string to float: 'ab'"),
    ("verify-lemmas", {"model": "two-band-fixture", "model_options": {"speeds": 0.4},
                       "eps_ladder": [0.1, 0.05]},
     "cannot build the model 'two-band-fixture' with options {'speeds': 0.4}: "
     "ModelConstructionError: speeds must be a non-empty list of finite numbers, got 0.4"),
    ("verify-lemmas", {"model": "two-band-fixture", "model_options": {"speeds": []},
                       "eps_ladder": [0.1, 0.05]},
     "cannot build the model 'two-band-fixture' with options {'speeds': []}: "
     "ModelConstructionError: speeds must be a non-empty list of finite numbers, got []"),
    ("verify-lemmas", {"model": "two-band-fixture",
                       "model_options": {"speeds": [-1.2, float("nan")]},
                       "eps_ladder": [0.1, 0.05]},
     "cannot build the model 'two-band-fixture' with options {'speeds': [-1.2, nan]}: "
     "ModelConstructionError: speeds must be a non-empty list of finite numbers, "
     "got [-1.2, nan]"),
    # an inverted band, which no M would cover
    ("verify-lemmas", {"model": "two-band-fixture", "model_options": {"band_halfwidth": -0.1},
                       "eps_ladder": [0.1, 0.05]},
     "cannot build the model 'two-band-fixture' with options {'band_halfwidth': -0.1}: "
     "ModelConstructionError: band_halfwidth must be positive and finite, got -0.1"),
    ("solve-system", {"model": "p-system", "model_options": {"k_minus": -1.0}},
     "cannot build the model 'p-system' with options {'k_minus': -1.0}: "
     "ModelConstructionError: p'_+- must be negative on tau_domain (hyperbolicity)"),
    ("solve-scalar", {"model": _B0_SPEC},
     f"cannot build the model {_B0_SPEC!r} with options {{}}: "
     "ModelConstructionError: sampled B0 violates positivity"),
    ("solve-system", {"model": _TAU_DOMAIN_SPEC},
     f"cannot build the model {_TAU_DOMAIN_SPEC!r} with options {{}}: "
     "ModelConstructionError: p'_+- must be negative on tau_domain (hyperbolicity)"),
], ids=["preset-without-name", "unknown-option", "fixture-unknown-option",
        "fixture-string-speeds", "fixture-number-speeds", "fixture-empty-speeds",
        "fixture-nan-speed", "fixture-negative-halfwidth", "p-system-negative-k",
        "scalar-config-B0", "p-system-config-tau-domain"])
def test_model_spec_that_cannot_be_built_is_a_config_error(tmp_path, capsys, command, data,
                                                           message):
    # well-typed, so it passes parse_config; the model cannot be built from it
    cfg_file = tmp_path / "cfg.json"
    # the verify-lemmas cases give a ladder, which --eps may not go with
    eps = {} if "eps_ladder" in data else {"eps": 0.1}
    cfg_file.write_text(json.dumps({"uL": 1.0, "uR": 0.0, **eps, **data}))
    argv = [command, "--config", str(cfg_file), "--out", str(tmp_path / "run")]
    with pytest.raises(ConfigError, match=re.escape(message)):
        run(parse_config(argv))
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [cfg_file]


@pytest.mark.parametrize("command, data, message", [
    ("spectral-sweep", {"model": {"kind": "preset", "name": "p-system"},
                        "model_options": {"bogus": 1}},
     "model_options {'bogus': 1} go with a preset name; the model object "
     "{'kind': 'preset', 'name': 'p-system'} takes a preset's options under \"options\""),
    ("verify-lemmas", {"model": "two-band-fixture", "model_options": {"speeds": [0.0, 0.1]},
                       "eps_ladder": [0.1, 0.05]},
     "cannot build the model 'two-band-fixture' with options {'speeds': [0.0, 0.1]}: "
     "ModelConstructionError: speed bands overlap"),
], ids=["options-beside-a-model-object", "fixture-overlapping-bands"])
def test_model_options_the_model_cannot_take_are_a_config_error(tmp_path, capsys, command,
                                                                data, message):
    cfg_file = tmp_path / "cfg.json"
    eps = {} if "eps_ladder" in data else {"eps": 0.1}
    cfg_file.write_text(json.dumps({"grid": 128, **eps, **data}))
    argv = [command, "--config", str(cfg_file), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [cfg_file]


@pytest.mark.parametrize("command, model, data", [
    ("solve-scalar", "p-system", ["--eps", "0.1", "--uL", "1.0", "--uR", "0.0"]),
    ("solve-system", "burgers-identical", ["--eps", "0.1", "--uL", "1.0", "--uR", "0.0"]),
    ("spectral-sweep", "burgers-identical", ["--eps", "0.1"]),
    ("verify-lemmas", "burgers-identical",
     ["--eps-ladder", "0.1,0.05", "--uL", "1.0", "--uR", "0.0"]),
    ("trace-report", "p-system", ["--eps-ladder", "0.1,0.05", "--uL", "1.0", "--uR", "0.0"]),
], ids=["solve-scalar", "solve-system", "spectral-sweep", "verify-lemmas", "trace-report"])
def test_command_on_a_model_of_the_wrong_kind_is_a_config_error(tmp_path, capsys, command,
                                                                model, data):
    kind = "scalar" if model == "p-system" else "system"
    code, _ = _run(tmp_path, command, "--model", model, *data)
    assert code == 1
    assert capsys.readouterr().err == f"config error: {command} requires a {kind} model\n"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_out_root_environment_variable_does_not_redirect_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SELFSIM_OUT_ROOT", str(tmp_path / "elsewhere"))
    assert parse_config(["spectral-sweep", "--out", "out"]).out == "out"
    argv = ["spectral-sweep", "--model", "p-system", "--eps", "0.1", "--grid", "128"]
    assert main(argv) == 0
    assert (tmp_path / "out" / "sweep.csv").exists()
    assert _manifest(tmp_path / "out")["config"]["out"] == "out"
    assert not (tmp_path / "elsewhere").exists()


def test_negative_eps_rejected():
    for args in (["solve-scalar", "--eps", "-0.1"], ["solve-scalar", "--eps", "nan"],
                 ["solve-scalar", "--eps", "inf"], ["solve-scalar", "--M", "nan"],
                 ["continuation", "--eps-ladder", "0.1,nan"]):
        with pytest.raises(ConfigError, match="positive finite"):
            parse_config(args)


def test_vector_data_parsing():
    cfg = parse_config(["solve-system", "--uL", "1.5,0.0", "--uR", "1.51,0.0",
                        "--eps", "0.1"])
    assert cfg.uL == [1.5, 0.0]
    assert cfg.uR == [1.51, 0.0]
    with pytest.raises(ConfigError, match=re.escape("expected comma-separated numbers, "
                                                    "got '1,a'")):
        parse_config(["solve-system", "--uL", "1,a", "--uR", "1.51,0.0", "--eps", "0.1"])


# ---------------------------------------------------------------------------
# exit codes


def test_config_error_exits_1(tmp_path, capsys):
    code, _ = _run(tmp_path, "solve-scalar", "--eps", "0.1")  # missing uL/uR
    assert code == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, data", [
    ("solve-scalar", ["--uL", "1.0", "--uR", "0.0"]),
    ("solve-system", ["--model", "p-system", "--uL", "1.249,0.0", "--uR", "1.251,0.0"]),
    ("spectral-sweep", ["--model", "p-system", "--grid", "128"]),
])
def test_single_solve_commands_reject_a_ladder(tmp_path, capsys, cmd, data):
    code, _ = _run(tmp_path / "ladder", cmd, *data, "--eps-ladder", "0.1,0.05")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error" in err and "continuation" in err
    # no eps at all
    code, _ = _run(tmp_path / "none", cmd, *data)
    assert code == 1
    assert capsys.readouterr().err == "config error: provide --eps or --eps-ladder\n"
    # a one-rung ladder is one eps
    code, _ = _run(tmp_path / "rung", cmd, *data, "--eps-ladder", "0.1")
    assert code == 0


def test_solver_failure_exits_1_with_incomplete_manifest(tmp_path, capsys):
    # data outside the model domain is a solver-level failure
    for cmd, eps in (("solve-scalar", ["--eps", "0.1"]),
                     ("continuation", ["--eps-ladder", "0.1,0.05"]),
                     ("trace-report", ["--eps-ladder", "0.1,0.05"])):
        code, out = _run(tmp_path / cmd, cmd, *eps, "--uL", "9.0", "--uR", "0.0")
        assert code == 1
        assert _manifest(out)["complete"] is False
        assert "error:" in (err := capsys.readouterr().err) and "ValueError" in err
        if cmd != "solve-scalar":
            assert "RuntimeError: rung eps=0.1: ValueError" in err


def test_strict_mode_passes_on_good_run(tmp_path):
    code, out = _run(tmp_path, "solve-scalar", "--eps", "0.1",
                     "--uL", "1.0", "--uR", "0.0", "--strict")
    assert code == 0
    assert _manifest(out)["complete"] is True


def test_runtime_loads_no_scipy(tmp_path):
    # a fresh interpreter: this one has imported scipy for the test oracles
    src = Path(selfsim.__file__).resolve().parents[1]
    code = textwrap.dedent(f"""
        import sys
        import selfsim, selfsim.cli
        from selfsim.cli import main
        assert main(["continuation", "--model", "burgers-identical",
                     "--eps-ladder", "0.1,0.05", "--uL", "1.0", "--uR", "0.0",
                     "--out", {str(tmp_path / "scalar")!r}]) == 0
        assert main(["solve-system", "--model", "p-system", "--eps", "0.1",
                     "--uL", "1.249,0.0", "--uR", "1.251,0.0",
                     "--out", {str(tmp_path / "system")!r}]) == 0
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "scalar" / "solution_eps0p05.csv").exists()
    assert (tmp_path / "system" / "solution.csv").exists()


# ---------------------------------------------------------------------------
# artifacts per subcommand


def test_solve_scalar_artifacts(tmp_path):
    code, out = _run(tmp_path, "solve-scalar", "--eps", "0.1",
                     "--uL", "1.0", "--uR", "0.0")
    assert code == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["schema_version"] == 3
    assert diag["monotone"] is True
    assert diag["tv_u"] <= 1.0 + 1e-9
    header = (out / "solution.csv").read_text().splitlines()[0]
    assert header == "xi,u,v,h"
    assert sorted(_manifest(out)["outputs"]) == ["diagnostics.json", "solution.csv"]
    assert sorted(_manifest(out)["versions"]) == ["numpy", "selfsim"]


def test_trace_window_records_null_for_a_window_without_grid_points(tmp_path):
    # the windows lie beyond (Lambda + M)/2 = 0.475 from xi = 0: with
    # M = 0.45 < Lambda = 0.5 they hold no grid point and measure nothing,
    # while at the default M = Lambda + 1 they hold the boundary data
    for M, empty in (("0.45", True), ("1.5", False)):
        code, out = _run(tmp_path / M, "solve-scalar", "--model", "linear-advection-pair",
                         "--uL", "1", "--uR", "0", "--eps", "0.05", "--M", M)
        assert code == 0
        window = json.loads((out / "diagnostics.json").read_text())["trace_window"]
        for side in ("sup_dev_left", "sup_dev_right"):
            assert (window[side] is None) if empty else (0.0 < window[side] < 1e-2), window


def test_solve_system_artifacts(tmp_path):
    code, out = _run(tmp_path, "solve-system", "--model", "p-system",
                     "--eps", "0.1", "--uL", "1.249,0.0", "--uR", "1.251,0.0",
                     "--strict")
    assert code == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["boundary_residual"] <= 1e-6
    assert all(a < 1.0 for a in diag["contraction_estimates"])
    # the profile equation's relative residual on the grid: O(h^2) (about
    # 2e-4 here), not the O(1)-in-h 1e-2 of a wrong-signed coupling term
    assert 0.0 < diag["equation_residual"] < 1e-3
    # the outer loop's stop decision, from the artifact alone: every update,
    # and the error bound q/(1 - q)·update it stopped on
    res = diag["outer_residuals"]
    assert len(res) == diag["outer_iterations"] >= 2
    q = res[-1] / res[-2]
    assert diag["outer_error_bound"] == pytest.approx(q / (1.0 - q) * res[-1], rel=1e-12)
    assert diag["outer_error_bound"] <= 1e-8
    header = (out / "solution.csv").read_text().splitlines()[0]
    assert header == "xi,u_1,u_2,v,a_1,a_2"


def test_solve_system_rejects_data_of_the_wrong_dimension(tmp_path, capsys):
    for tag, uL, uR in (("1", "1.249", "1.251"), ("3", "1.249,0,0", "1.251,0,0")):
        code, out = _run(tmp_path / tag, "solve-system", "--model", "p-system",
                         "--eps", "0.1", "--uL", uL, "--uR", uR)
        assert code == 1
        assert _manifest(out)["complete"] is False
        err = capsys.readouterr().err
        assert f"error: ValueError: Riemann data u_left has shape ({tag},)" in err
        assert "N = 2" in err


def test_spectral_sweep_rejects_a_state_of_the_wrong_dimension(tmp_path, capsys):
    code, out = _run(tmp_path, "spectral-sweep", "--model", "p-system",
                     "--eps", "0.1", "--u", "1.25")
    assert code == 1
    err = capsys.readouterr().err
    assert "config error: --u has shape (1,)" in err and "N = 2" in err
    assert not (out / "sweep.csv").exists()


def test_spectral_sweep_artifacts(tmp_path):
    code, out = _run(tmp_path, "spectral-sweep", "--model", "p-system",
                     "--eps", "0.1", "--grid", "128")
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "xi,mu_1,mu_2,lambda_1,lambda_2,d_1,d_2"
    assert len(lines) == 129
    data = np.loadtxt(lines[1:], delimiter=",")
    np.testing.assert_allclose(data[:, 5:7], 1.0, atol=1e-12)  # d = 1, B = I


def test_verify_lemmas_fixture(tmp_path):
    code, out = _run(tmp_path, "verify-lemmas", "--model", "two-band-fixture",
                     "--eps-ladder", "0.1,0.05", "--grid", "1600", "--strict")
    assert code == 0
    report = json.loads((out / "lemma_report.json").read_text())
    assert report["passed"] is True
    csv = (out / "lemma_constants.csv").read_text().splitlines()
    assert csv[0] == "check,eps,value,passed"
    assert len(csv) > 10


def test_verify_lemmas_p_system(tmp_path):
    # no data: each rung solves the zero jump u_ref -> u_ref
    code, out = _run(tmp_path, "verify-lemmas", "--model", "p-system",
                     "--eps-ladder", "0.1,0.05", "--strict")
    assert code == 0
    report = json.loads((out / "lemma_report.json").read_text())
    assert len(report["checks"]) == 20
    assert all(check["passed"] for check in report["checks"])
    assert [(r["eps"], r["tv_u"], r["tau"]) for r in report["records"]] == [
        (0.1, 0.0, [0.0, 0.0]), (0.05, 0.0, [0.0, 0.0])]


def test_verify_lemmas_checks_the_measures_of_the_given_data(tmp_path, p_system):
    # a jump at 0.9 of the admissible radius: one solve and one record per rung
    jump = 0.9 * admissible_jump_radius(p_system) * np.array([0.6, 0.8])
    uL, uR = (",".join(map(repr, u.tolist()))
              for u in (p_system.u_ref - jump / 2.0, p_system.u_ref + jump / 2.0))
    ladder = [0.1, 0.05, 0.025]
    code, out = _run(tmp_path, "verify-lemmas", "--model", "p-system", "--uL", uL, "--uR", uR,
                     "--eps-ladder", ",".join(map(str, ladder)), "--strict")
    assert code == 0
    report = json.loads((out / "lemma_report.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == []
    assert len(report["checks"]) == 20
    assert [r["eps"] for r in report["records"]] == ladder
    assert all(r["tv_u"] > 0 for r in report["records"])
    assert sorted(p.name for p in out.glob("solution_eps*.csv")) == [
        "solution_eps0p025.csv", "solution_eps0p05.csv", "solution_eps0p1.csv"]
    assert sorted(_manifest(out)["outputs"]) == sorted(
        ["lemma_report.json", "lemma_constants.csv"]
        + [p.name for p in out.glob("solution_eps*.csv")])


def test_verify_lemmas_strict_requires_every_rung_to_pass(tmp_path, monkeypatch):
    # the lemma checks pass; a rung whose own checks fail fails --strict
    def failing_rung(*args):
        state, record, _ = rung(*args)
        return state, record, False

    rung = selfsim.cli._system_rung
    monkeypatch.setattr(selfsim.cli, "_system_rung", failing_rung)
    argv = ["--model", "two-band-fixture", "--eps-ladder", "0.1,0.05"]
    code, out = _run(tmp_path / "strict", "verify-lemmas", *argv, "--strict")
    assert code == 2
    assert json.loads((out / "lemma_report.json").read_text())["passed"] is True
    code, _ = _run(tmp_path / "lenient", "verify-lemmas", *argv)
    assert code == 0


def test_system_commands_take_the_two_band_fixture(tmp_path):
    code, out = _run(tmp_path / "sweep", "spectral-sweep", "--model", "two-band-fixture",
                     "--eps", "0.1", "--grid", "128")
    assert code == 0
    data = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(data[:, 1:3], np.array([-1.2, 0.4]) - data[:, :1])
    np.testing.assert_array_equal(data[:, 5:7], 1.0)
    code, out = _run(tmp_path / "solve", "solve-system", "--model", "two-band-fixture",
                     "--eps", "0.1", "--uL", "0.0,0.0", "--uR", "0.05,-0.05", "--strict")
    assert code == 0


def test_verify_lemmas_one_rung_ladder_is_an_error(tmp_path, capsys):
    # no slope can be fitted through one rung
    code, out = _run(tmp_path, "verify-lemmas", "--model", "two-band-fixture",
                     "--eps-ladder", "0.1", "--strict")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ValueError: ")
    assert _manifest(out)["complete"] is False


def test_verify_lemmas_band_off_the_grid_is_a_typed_error(tmp_path, capsys):
    # band 1 of the fixture, [-1.3, -1.1], lies outside [-M, M] = [-0.5, 0.5]
    code, out = _run(tmp_path, "verify-lemmas", "--model", "two-band-fixture",
                     "--eps-ladder", "0.1,0.05", "--M", "0.5")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: RuntimeError: rung eps=0.1: ClassLViolation: family 1: band [-1.3, -1.1] "
        "holds no point of the grid on [-0.5, 0.5]; M must be large enough to cover it\n")
    assert _manifest(out)["complete"] is False


def test_verify_lemmas_resonant_fixture_config(tmp_path):
    # family 2's band on the interface, down to eps = 0.0125
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "model": "two-band-fixture", "model_options": {"speeds": [-1.2, 0.0]},
        "eps_ladder": [0.1, 0.05, 0.025, 0.0125]}))
    code, out = _run(tmp_path, "verify-lemmas", "--config", str(cfg_file), "--strict")
    assert code == 0
    assert json.loads((out / "lemma_report.json").read_text())["passed"] is True


def test_continuation_artifacts(tmp_path):
    code, out = _run(tmp_path, "continuation", "--eps-ladder", "0.1,0.05",
                     "--uL", "1.0", "--uR", "0.0", "--strict")
    assert code == 0
    report = json.loads((out / "continuation.json").read_text())
    assert [r["eps"] for r in report["records"]] == [0.1, 0.05]
    assert all(r["tv_u"] <= 1.0 + 1e-6 for r in report["records"])
    assert (out / "solution_eps0p1.csv").exists()
    assert (out / "solution_eps0p05.csv").exists()
    assert (out / "l1_distances.csv").exists()


def test_zero_jump_continuation_keeps_every_pointwise_sample(tmp_path):
    # a constant profile has no steep wave: the gradient's rounding noise
    # must not prune the 401 samples of the pointwise Cauchy verdict
    code, out = _run(tmp_path, "continuation", "--model", "linear-advection-pair",
                     "--eps-ladder", "0.1,0.05", "--uL", "-1.4", "--uR", "-1.4")
    assert code == 0
    report = json.loads((out / "continuation.json").read_text())
    assert report["pointwise_samples"] == 401
    assert report["pointwise_sups"] == [0.0]


def test_system_continuation_is_solve_system_per_rung(tmp_path):
    data = ["--model", "p-system", "--uL", "1.249,0.0", "--uR", "1.251,0.0"]
    code, out = _run(tmp_path / "ladder", "continuation", *data,
                     "--eps-ladder", "0.1,0.05", "--strict")
    assert code == 0
    report = json.loads((out / "continuation.json").read_text())
    assert report["eps_ladder"] == [0.1, 0.05]
    assert len(report["records"]) == 2
    assert sorted(_manifest(out)["outputs"]) == [
        "continuation.json", "solution_eps0p05.csv", "solution_eps0p1.csv"]
    for eps, record in zip(("0.1", "0.05"), report["records"]):
        code, single = _run(tmp_path / eps, "solve-system", *data, "--eps", eps)
        assert code == 0
        tag = eps.replace(".", "p")
        assert ((out / f"solution_eps{tag}.csv").read_bytes()
                == (single / "solution.csv").read_bytes())
        diag = json.loads((single / "diagnostics.json").read_text())
        diag.pop("schema_version")
        assert record == diag


def test_scalar_continuation_is_solve_scalar_per_rung(tmp_path):
    data = ["--model", "burgers-identical", "--uL", "1.0", "--uR", "0.0"]
    code, out = _run(tmp_path / "ladder", "continuation", *data,
                     "--eps-ladder", "0.1,0.05", "--strict")
    assert code == 0
    report = json.loads((out / "continuation.json").read_text())
    assert sorted(_manifest(out)["outputs"]) == [
        "continuation.json", "l1_distances.csv", "solution_eps0p05.csv",
        "solution_eps0p1.csv"]
    code, single = _run(tmp_path / "single", "solve-scalar", *data, "--eps", "0.1")
    assert code == 0
    diag = json.loads((single / "diagnostics.json").read_text())
    diag.pop("schema_version")
    assert [sorted(r) for r in report["records"]] == [sorted(diag)] * 2
    assert [r["eps"] for r in report["records"]] == [0.1, 0.05]
    # the first rung starts cold, as the single solve does; the second is
    # warm-started from it
    assert ((out / "solution_eps0p1.csv").read_bytes()
            == (single / "solution.csv").read_bytes())
    assert report["records"][0] == diag


def test_scalar_continuation_names_the_failed_rung(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(selfsim.scalar, "MAX_ITERS", 2)
    code, out = _run(tmp_path, "continuation", "--model", "burgers-identical",
                     "--uL", "1.0", "--uR", "0.0", "--eps-ladder", "0.1,0.05")
    assert code == 1
    assert _manifest(out)["complete"] is False
    err = capsys.readouterr().err
    assert "RuntimeError: rung eps=0.1: NonConvergence" in err
    assert "after 2 iterations" in err
    assert not (out / "continuation.json").exists()


def test_system_continuation_names_the_failed_rung(tmp_path, capsys):
    # a tau jump of 0.1, over five admissible radii: the first rung raises
    code, out = _run(tmp_path, "continuation", "--model", "p-system",
                     "--uL", "1.2,0.0", "--uR", "1.3,0.0", "--eps-ladder", "0.1,0.05")
    assert code == 1
    assert _manifest(out)["complete"] is False
    err = capsys.readouterr().err
    assert "RuntimeError: rung eps=0.1: SmallnessViolation" in err
    assert "admissible radius" in err


def test_continuation_requires_ladder(tmp_path, capsys):
    code, _ = _run(tmp_path, "continuation", "--eps", "0.1",
                   "--uL", "1.0", "--uR", "0.0")
    assert code == 1


def test_trace_report_artifacts(tmp_path):
    code, out = _run(tmp_path, "trace-report", "--eps-ladder", "0.1,0.05",
                     "--uL", "-0.5", "--uR", "-1.0")
    assert code == 0
    report = json.loads((out / "trace_report.json").read_text())
    assert "trace_minus" in report and "trace_plus" in report
    # the profiles the traces were fitted on, the same as continuation's
    assert sorted(_manifest(out)["outputs"]) == [
        "solution_eps0p05.csv", "solution_eps0p1.csv", "trace_report.json"]
    code, ladder = _run(tmp_path / "ladder", "continuation", "--eps-ladder", "0.1,0.05",
                        "--uL", "-0.5", "--uR", "-1.0")
    assert code == 0
    for name in ("solution_eps0p1.csv", "solution_eps0p05.csv"):
        assert (out / name).read_bytes() == (ladder / name).read_bytes()


def test_trace_report_resonant_stationary_shock(tmp_path):
    # the shock (1, -1) sits on the interface speed 0: the one-sided traces
    # are the Riemann data and both weak interface conditions hold
    code, out = _run(tmp_path, "trace-report", "--model", "burgers-identical",
                     "--eps-ladder", "0.05,0.025,0.0125", "--uL", "1.0", "--uR", "-1.0",
                     "--strict")
    assert code == 0
    report = json.loads((out / "trace_report.json").read_text())
    assert report["resonant"] is True
    assert report["trace_minus"] == pytest.approx(1.0, abs=1e-6)
    assert report["trace_plus"] == pytest.approx(-1.0, abs=1e-6)
    assert report["weak_condition_minus"] is True
    assert report["weak_condition_plus"] is True


def test_trace_report_records_truncated_windows(tmp_path):
    # M = Lambda + 1 = 2.5: at eps = 0.1 the window [1.58, 3.16] is fitted
    # on [1.58, 2.5]; at eps = 0.025, [0.79, 1.58] fits whole
    code, out = _run(tmp_path, "trace-report", "--model", "burgers-identical",
                     "--eps-ladder", "0.1,0.05,0.025", "--uL", "-0.5", "--uR", "-1.0")
    assert code == 0
    windows = json.loads((out / "trace_report.json").read_text())["fit_windows"]
    plus, minus = windows["plus"], windows["minus"]
    assert [w["eps"] for w in plus] == [0.1, 0.05, 0.025]
    assert plus[0]["lo"] == pytest.approx(5 * 0.1 ** 0.5)
    assert plus[0]["hi"] == 2.5 and plus[0]["truncated"] is True
    assert minus[0]["lo"] == -2.5 and minus[0]["hi"] == pytest.approx(-5 * 0.1 ** 0.5)
    assert minus[0]["truncated"] is True
    scale = 0.025 ** 0.5
    assert (plus[2]["lo"], plus[2]["hi"]) == pytest.approx((5 * scale, 10 * scale))
    assert (minus[2]["lo"], minus[2]["hi"]) == pytest.approx((-10 * scale, -5 * scale))
    assert plus[2]["truncated"] is False and minus[2]["truncated"] is False
    assert all(w["points"] >= 2 for w in plus + minus)


def test_trace_report_window_past_M_is_a_typed_error(tmp_path, capsys):
    # M = Lambda + 1 = 1.5 on this preset; at eps = 0.1 the fit window
    # +-[5, 10] eps^(1/2) = [1.58, 3.16] holds no grid point
    code, out = _run(tmp_path, "trace-report", "--model", "linear-advection-pair",
                     "--uL", "1.0", "--uR", "0.0", "--eps-ladder", "0.1,0.05,0.025")
    assert code == 1
    assert _manifest(out)["complete"] is False
    err = capsys.readouterr().err
    assert "error: TraceWindowError: eps=0.1: trace window" in err
    assert "[1.581, 3.162]" in err and "M=1.5" in err
    assert "rung" not in err  # rejected before any rung was solved
    assert issubclass(TraceWindowError, ValueError)


def _old_csv(header, columns):
    """The per-element ``f"{x:.17g}"`` formatting write_csv must reproduce."""
    lines = [",".join(header)]
    lines += [",".join(f"{x:.17g}" for x in row) for row in np.column_stack(columns)]
    return "".join(line + "\n" for line in lines).encode()


def _wide(rng, size):
    """Normal draws over 600 decades, led by inf, nan, -0.0 and the like."""
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1]
    vals = rng.standard_normal(size)
    vals *= 10.0 ** np.random.default_rng(1).integers(-300, 300, vals.size)
    vals[:len(special)] = special[:vals.size]
    return vals


def _zeros(rng, size):
    vals = rng.standard_normal(size)
    vals[rng.random(size) < 0.6] = 0.0
    vals[rng.random(size) < 0.3] = -0.0
    return vals


def _ties(rng, size):
    """Doubles of 18 significant digits ending in 5, halfway between two
    17-digit decimals; those led by odd * 2**-24 and odd * 2**-25 are scaled
    by a power of ten that is not a double."""
    j = rng.integers(0, 10 ** 12, size)
    vals = np.select([j % 3 == 0, j % 3 == 1],
                     [1e15 + (j % 10 ** 14) + 0.25, 1e14 + (j % 10 ** 13) + 0.125],
                     (2 * (j % 4700) + 1049) * 2.0 ** -20)
    inexact = np.r_[np.arange(3, 16, 2) * 2.0 ** -24, 2.0 ** -25, 3 * 2.0 ** -25]
    vals[:len(inexact)] = inexact[:size]
    return np.where(rng.random(size) < 0.5, -vals, vals)


def _powers_of_ten(rng, size):
    """10**j for every double j, and the doubles either side of it."""
    p = 10.0 ** np.arange(-323, 309)
    vals = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
    vals = np.concatenate([vals, -vals])
    return np.resize(rng.permutation(vals), size)


def _subnormals(rng, size):
    vals = rng.integers(1, 2 ** 52, size).view(np.float64)
    vals[:4] = [5e-324, 2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0),
                2.2250738585072014e-308 * (1 + 2 ** -52)][:size]
    return np.where(rng.random(size) < 0.5, -vals, vals)


def _bit_patterns(rng, size):
    """Random 64-bit patterns: every exponent, NaN payloads and infinities."""
    return rng.integers(0, 2 ** 64, size, dtype=np.uint64, endpoint=False).view(np.float64)


def _near_max(rng, size):
    """Values near +-1e308, where Dekker's split of x overflows."""
    vals = np.concatenate([rng.uniform(1.0, 1.7976931348623157, size // 2) * 1e308,
                           10.0 ** rng.uniform(290, 308, size - size // 2)])
    vals[:2] = [1.7976931348623157e308, np.nextafter(np.inf, 0) / 2][:size]
    return np.where(rng.random(size) < 0.5, -vals, vals)


@pytest.mark.parametrize("n_rows, values", [
    (0, _wide), (1, _wide), (7, _wide), (8 * CSV_BLOCK_ROWS + 3, _wide),
    (3000, _zeros), (3000, _ties), (2000, _powers_of_ten), (3000, _subnormals),
    (100_000, _bit_patterns), (3000, _near_max),
], ids=["0", "1", "7", str(8 * CSV_BLOCK_ROWS + 3), "zeros", "ties", "powers-of-ten",
        "subnormals", "bit-patterns", "near-max"])
@pytest.mark.parametrize("n_cols", [1, 4])
def test_write_csv_matches_per_element_formatting(tmp_path, n_rows, values, n_cols):
    vals = values(np.random.default_rng(n_rows + n_cols), n_rows * n_cols)
    columns = list(vals.reshape(n_rows, n_cols).T)
    header = [f"c{i}" for i in range(n_cols)]
    path = tmp_path / "out.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == _old_csv(header, columns)


# ---------------------------------------------------------------------------
# determinism


def test_repeated_runs_byte_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main(["solve-scalar", "--eps", "0.1", "--uL", "1.0",
                     "--uR", "0.0", "--out", str(out)])
        assert code == 0
        outs.append(out)
    for name in ("solution.csv", "diagnostics.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    # manifests agree except for wall time and the output path itself
    m0, m1 = (_manifest(o) for o in outs)
    for m in (m0, m1):
        m["wall_time_s"] = 0.0
        m["config_sha256"] = ""
        m["config"]["out"] = ""
        m["config"]["overrides"].pop("out", None)
    assert m0 == m1
