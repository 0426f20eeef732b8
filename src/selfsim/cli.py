"""Batch command-line front door.

Subcommands: solve-scalar, solve-system, spectral-sweep, verify-lemmas,
continuation, trace-report.  Parameters come from an optional JSON config
file plus flag overrides (flags win; both are echoed into the manifest).
Curves go to CSV, diagnostics to versioned JSON, and every run writes a
manifest with a config hash and library versions.

Exit codes: 0 success, 1 configuration or solver failure, 2 strict-mode
acceptance failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .color import ColorProfile
from .diagnostics import (check_trace_windows, epsilon_continuation,
                          interface_trace_report)
from .grid import default_grid_size, uniform_grid
from .measures import build_phi_star, constant_speed_fields, verify_bounds
from .models import (ModelConstructionError, ScalarCouplingModel,
                     SystemCouplingModel, model_from_config, preset_model)
from .scalar import ScalarSolveConfig, solve_scalar
from .spectral import pencil_eigen
from .system import SystemSolveConfig, solve_system

SCHEMA_VERSION = 1

COMMANDS = ("solve-scalar", "solve-system", "spectral-sweep",
            "verify-lemmas", "continuation", "trace-report")

CONFIG_KEYS = {
    "model", "model_options", "eps", "eps_ladder", "p", "M", "grid",
    "fix_tol", "uL", "uR", "u", "out", "strict",
}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    model: object = "burgers-identical"
    model_options: dict = field(default_factory=dict)
    eps: float | None = None
    eps_ladder: list | None = None
    p: float = 1.0
    M: float | None = None
    grid: int | None = None
    fix_tol: float = 1e-10
    uL: object = None
    uR: object = None
    u: object = None
    out: str = "out"
    strict: bool = False
    overrides: dict = field(default_factory=dict)

    def validate(self):
        for name in ("eps", "p", "M", "fix_tol"):
            val = getattr(self, name)
            if val is not None and (not np.isfinite(val) or val <= 0):
                raise ConfigError(f"--{name.replace('_', '-')} must be a positive "
                                  f"finite number, got {val}")
        if self.grid is not None and self.grid < 64:
            raise ConfigError(f"--grid must be >= 64, got {self.grid}")
        if self.eps_ladder is not None:
            lad = [float(x) for x in self.eps_ladder]
            if any(not np.isfinite(x) or x <= 0 for x in lad):
                raise ConfigError("--eps-ladder entries must be positive finite numbers")
            if any(b >= a for a, b in zip(lad, lad[1:])):
                raise ConfigError("ladder must be strictly decreasing")
            self.eps_ladder = lad

    def echo(self) -> dict:
        d = dataclasses.asdict(self)
        return d


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Self-similar viscous Riemann solvers for coupled models")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--model", help="preset name")
        sp.add_argument("--eps", type=float)
        sp.add_argument("--eps-ladder", dest="eps_ladder",
                        help="comma-separated, strictly decreasing")
        sp.add_argument("--p", type=float)
        sp.add_argument("--M", type=float)
        sp.add_argument("--grid", type=int)
        sp.add_argument("--fix-tol", dest="fix_tol", type=float)
        sp.add_argument("--uL", help="number, or comma-separated vector")
        sp.add_argument("--uR", help="number, or comma-separated vector")
        sp.add_argument("--u", help="frozen state for spectral-sweep")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--strict", action="store_true", default=None)
    return parser


def parse_config(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    cfg = RunConfig(command=ns.command)

    if ns.config:
        path = Path(ns.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        data = json.loads(path.read_text())
        unknown = set(data) - CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, val in data.items():
            setattr(cfg, key, val)

    overrides = {}
    for key in ("model", "eps", "p", "M", "grid", "fix_tol", "out",
                "strict"):
        val = getattr(ns, key)
        if val is not None:
            overrides[key] = val
            setattr(cfg, key, val)
    if ns.eps_ladder is not None:
        cfg.eps_ladder = _parse_floats(ns.eps_ladder)
        overrides["eps_ladder"] = cfg.eps_ladder
    for key in ("uL", "uR", "u"):
        val = getattr(ns, key)
        if val is not None:
            vals = _parse_floats(val)
            setattr(cfg, key, vals[0] if len(vals) == 1 else vals)
            overrides[key] = getattr(cfg, key)
    if cfg.strict is None:
        cfg.strict = False
    cfg.overrides = overrides
    if cfg.out == "out":
        cfg.out = os.environ.get("SELFSIM_OUT_ROOT", "out")
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# output helpers


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def write_json(path: Path, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **_jsonable(payload)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


CSV_BLOCK_ROWS = 4096


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Values as ``%.17g`` (round-trips every double), one ``%`` per block
    of rows so that memory stays flat on large grids."""
    rows = np.column_stack(columns)
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with path.open("w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(_jsonable(cfg.echo()), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def emit_manifest(out: Path, cfg: RunConfig, outputs: list[str],
                  wall_time: float, complete: bool = True) -> None:
    write_json(out / "manifest.json", {
        "command": cfg.command,
        "config": cfg.echo(),
        "config_sha256": _config_hash(cfg),
        "versions": {"selfsim": __version__, "numpy": np.__version__},
        "wall_time_s": wall_time,
        "complete": complete,
        "outputs": sorted(outputs),
    })


# ---------------------------------------------------------------------------
# model construction


def _build_model(cfg: RunConfig):
    if isinstance(cfg.model, dict):
        return model_from_config(cfg.model)
    return preset_model(str(cfg.model), **cfg.model_options)


def _scalar_config(cfg: RunConfig, model: ScalarCouplingModel, eps: float) -> ScalarSolveConfig:
    M = cfg.M if cfg.M is not None else model.Lambda + 1.0
    return ScalarSolveConfig(eps=eps, p=cfg.p, M=M, grid_size=cfg.grid,
                             fix_tol=cfg.fix_tol)


def _eps_list(cfg: RunConfig, need_ladder: bool = False) -> list[float]:
    if cfg.eps_ladder is not None:
        return list(cfg.eps_ladder)
    if cfg.eps is not None:
        if need_ladder:
            raise ConfigError("this command requires --eps-ladder")
        return [float(cfg.eps)]
    raise ConfigError("provide --eps or --eps-ladder")


def _single_eps(cfg: RunConfig) -> float:
    """The one eps of a single-solve command; a ladder of more rungs is an
    error, not a silent solve of its first rung."""
    eps = _eps_list(cfg)
    if len(eps) > 1:
        raise ConfigError(f"{cfg.command} solves one eps, got the ladder {eps}; "
                          "ladders run through continuation or verify-lemmas")
    return eps[0]


def _eps_tag(eps: float) -> str:
    return f"{eps:g}".replace(".", "p")


# ---------------------------------------------------------------------------
# command implementations


def _cmd_solve_scalar(cfg: RunConfig, out: Path) -> tuple[list[str], bool]:
    model = _build_model(cfg)
    if not isinstance(model, ScalarCouplingModel):
        raise ConfigError("solve-scalar requires a scalar model")
    if cfg.uL is None or cfg.uR is None:
        raise ConfigError("solve-scalar requires --uL and --uR")
    eps = _single_eps(cfg)
    sol = solve_scalar(model, _scalar_config(cfg, model, eps),
                       float(cfg.uL), float(cfg.uR))
    write_csv(out / "solution.csv", ["xi", "u", "v", "h"],
              [sol.u.xi, sol.u.values, sol.v.values, sol.h.values])
    from .scalar import trace_window_check
    write_json(out / "diagnostics.json", {
        "eps": sol.eps, "p": sol.p, "uL": sol.u_left, "uR": sol.u_right,
        "iterations": sol.iterations, "residual": sol.residual,
        "tv_u": sol.tv_u, "monotone": sol.monotone,
        "trace_window": trace_window_check(sol, model),
    })
    ok = sol.monotone and sol.tv_u <= abs(sol.u_right - sol.u_left) + 1e-6
    return ["solution.csv", "diagnostics.json"], ok


def _solve_system_rung(cfg: RunConfig, model: SystemCouplingModel, eps: float,
                       path: Path) -> tuple[dict, bool]:
    """One system solve at ``eps``: writes the profile CSV to ``path`` and
    returns the diagnostics record and whether it passes the acceptance
    checks."""
    sys_cfg = SystemSolveConfig(eps=eps, p=cfg.p, M=cfg.M, grid_size=cfg.grid)
    uL = np.atleast_1d(np.asarray(cfg.uL, dtype=float))
    uR = np.atleast_1d(np.asarray(cfg.uR, dtype=float))
    state = solve_system(model, sys_cfg, uL, uR)
    N = model.N
    cols = [state.u.xi] + [state.u.values[:, i] for i in range(N)]
    cols += [state.v.values] + [state.a[:, i] for i in range(N)]
    header = (["xi"] + [f"u_{i + 1}" for i in range(N)] + ["v"]
              + [f"a_{i + 1}" for i in range(N)])
    write_csv(path, header, cols)
    jump = float(np.linalg.norm(uR - uL))
    record = {
        "eps": state.eps, "tau": state.tau,
        "weighted_norm_theta": state.weighted_norm_theta,
        "contraction_estimates": state.contraction_estimates,
        "tv_u": state.tv_u,
        "tv_per_jump": state.tv_u / jump if jump > 0 else 0.0,
        "sup_eps_du": state.sup_eps_du,
        "boundary_residual": state.boundary_residual,
        "equation_residual": state.equation_residual,
        "outer_iterations": state.outer_iterations,
        "outer_residuals": state.outer_residuals,
        "outer_error_bound": state.outer_error_bound,
        "beta": state.beta, "envelope_constant": state.envelope_constant,
    }
    ok = (state.boundary_residual <= 1e-6
          and all(a < 1.0 for a in state.contraction_estimates))
    return record, ok


def _cmd_solve_system(cfg: RunConfig, out: Path) -> tuple[list[str], bool]:
    model = _build_model(cfg)
    if not isinstance(model, SystemCouplingModel):
        raise ConfigError("solve-system requires a system model")
    if cfg.uL is None or cfg.uR is None:
        raise ConfigError("solve-system requires --uL and --uR")
    record, ok = _solve_system_rung(cfg, model, _single_eps(cfg), out / "solution.csv")
    write_json(out / "diagnostics.json", record)
    return ["solution.csv", "diagnostics.json"], ok


def _cmd_spectral_sweep(cfg: RunConfig, out: Path) -> tuple[list[str], bool]:
    model = _build_model(cfg)
    if not isinstance(model, SystemCouplingModel):
        raise ConfigError("spectral-sweep requires a system model")
    eps = _single_eps(cfg)
    M = cfg.M if cfg.M is not None else model.M
    n = cfg.grid if cfg.grid is not None else 512
    xi = uniform_grid(M, n)
    v = ColorProfile(eps, cfg.p, M).evaluate_v(xi)
    u0 = np.atleast_1d(np.asarray(cfg.u, dtype=float) if cfg.u is not None else model.u_ref)
    if u0.shape != (model.N,):
        raise ConfigError(f"--u has shape {u0.shape}; the model has N = {model.N} components")
    U = np.tile(u0, (n, 1))
    A, B, _ = model.pencil(U, v)
    sweep = pencil_eigen(A, B, U, v, xi)
    N = model.N
    header = ["xi"] + [f"mu_{i + 1}" for i in range(N)] \
        + [f"lambda_{i + 1}" for i in range(N)] + [f"d_{i + 1}" for i in range(N)]
    cols = [xi] + [sweep.mu[:, i] for i in range(N)] \
        + [sweep.lambda_hat[:, i] for i in range(N)] \
        + [sweep.d[:, i] for i in range(N)]
    write_csv(out / "sweep.csv", header, cols)
    write_json(out / "diagnostics.json", {
        "eps": eps, "M": M, "grid": n, "u": u0,
        "eta": model.eta, "nu": model.nu,
    })
    return ["sweep.csv", "diagnostics.json"], True


def _psi_factory(cfg: RunConfig, M: float):
    """psi(xi) of the color profile on the grid the measure factories use."""
    def psi_factory(eps):
        n = cfg.grid if cfg.grid is not None else default_grid_size(M, eps)
        xi = uniform_grid(M, n)
        return ColorProfile(eps, cfg.p, M).evaluate_psi(xi)

    return psi_factory


def _fixture_factories(cfg: RunConfig):
    M = cfg.M if cfg.M is not None else 2.0
    lams = cfg.model_options.get("speeds", [-1.2, 0.4])
    halfwidth = cfg.model_options.get("band_halfwidth", 0.1)

    def measure_factory(eps):
        n = cfg.grid if cfg.grid is not None else default_grid_size(M, eps)
        xi = uniform_grid(M, n)
        mu, lo, hi = constant_speed_fields(xi, lams, band_halfwidth=halfwidth)
        return build_phi_star(xi, mu, eps, lo, hi)

    return measure_factory, _psi_factory(cfg, M)


def _model_factories(cfg: RunConfig, model: SystemCouplingModel):
    M = cfg.M if cfg.M is not None else model.M

    def measure_factory(eps):
        n = cfg.grid if cfg.grid is not None else default_grid_size(M, eps)
        xi = uniform_grid(M, n)
        v = ColorProfile(eps, cfg.p, M).evaluate_v(xi)
        U = np.tile(model.u_ref, (n, 1))
        A, B, _ = model.pencil(U, v)
        mu = pencil_eigen(A, B, U, v, xi).mu
        return build_phi_star(xi, mu, eps, model.lam_low, model.lam_high)

    return measure_factory, _psi_factory(cfg, M)


def _cmd_verify_lemmas(cfg: RunConfig, out: Path) -> tuple[list[str], bool]:
    ladder = _eps_list(cfg, need_ladder=True)
    if str(cfg.model) == "two-band-fixture":
        measure_factory, psi_factory = _fixture_factories(cfg)
    else:
        model = _build_model(cfg)
        if not isinstance(model, SystemCouplingModel):
            raise ConfigError("verify-lemmas requires a system model or "
                              "the 'two-band-fixture'")
        measure_factory, psi_factory = _model_factories(cfg, model)
    report = verify_bounds(measure_factory, ladder, psi_factory)
    write_json(out / "lemma_report.json", report)
    rows_name, rows_eps, rows_val, rows_pass = [], [], [], []
    for check in report["checks"]:
        for eps, val in check["per_eps"].items():
            rows_name.append(check["name"])
            rows_eps.append(eps)
            rows_val.append(val)
            rows_pass.append(check["passed"])
    with (out / "lemma_constants.csv").open("w") as fh:
        fh.write("check,eps,value,passed\n")
        for name, eps, val, ok in zip(rows_name, rows_eps, rows_val, rows_pass):
            fh.write(f"\"{name}\",{eps:.17g},{val:.17g},{int(ok)}\n")
    return ["lemma_report.json", "lemma_constants.csv"], bool(report["passed"])


def _run_ladder(cfg: RunConfig, model: ScalarCouplingModel,
                ladder: list[float]) -> tuple[dict, list]:
    """Warm-started solves along the ladder; the continuation report and
    its solutions, or a RuntimeError naming the first failed rung."""
    base = _scalar_config(cfg, model, ladder[0])
    report = epsilon_continuation(model, base, float(cfg.uL), float(cfg.uR), ladder)
    solutions = report.pop("solutions")
    if report["failures"]:
        first = report["failures"][0]
        raise RuntimeError(f"rung eps={first['eps']:g}: {first['error']}")
    return report, solutions


def _system_continuation(cfg: RunConfig, model: SystemCouplingModel,
                         ladder: list[float], out: Path) -> tuple[list[str], bool]:
    """One ``solve-system`` per rung; each record is that rung's
    diagnostics."""
    outputs, records, ok = [], [], True
    for eps in ladder:
        name = f"solution_eps{_eps_tag(eps)}.csv"
        try:
            record, rung_ok = _solve_system_rung(cfg, model, eps, out / name)
        except Exception as exc:
            raise RuntimeError(f"rung eps={eps:g}: {type(exc).__name__}: {exc}") from exc
        outputs.append(name)
        records.append(record)
        ok = ok and rung_ok
    write_json(out / "continuation.json", {"eps_ladder": ladder, "records": records})
    return outputs + ["continuation.json"], ok


def _cmd_continuation(cfg: RunConfig, out: Path) -> tuple[list[str], bool]:
    model = _build_model(cfg)
    if cfg.uL is None or cfg.uR is None:
        raise ConfigError("continuation requires --uL and --uR")
    ladder = _eps_list(cfg, need_ladder=True)
    if isinstance(model, SystemCouplingModel):
        return _system_continuation(cfg, model, ladder, out)
    report, solutions = _run_ladder(cfg, model, ladder)

    outputs = []
    for sol in solutions:
        name = f"solution_eps{_eps_tag(sol.eps)}.csv"
        write_csv(out / name, ["xi", "u", "v", "h"],
                  [sol.u.xi, sol.u.values, sol.v.values, sol.h.values])
        outputs.append(name)
    if report["l1_distances"]:
        write_csv(out / "l1_distances.csv", ["eps_coarse", "eps_fine", "l1"],
                  [np.array(ladder[:-1]), np.array(ladder[1:]),
                   np.array(report["l1_distances"])])
        outputs.append("l1_distances.csv")
    write_json(out / "continuation.json", report)
    outputs.append("continuation.json")

    jump = abs(float(cfg.uR) - float(cfg.uL))
    ok = (not report["failures"]
          and all(tv <= jump + 1e-6 for tv in report["tv_trace"]))
    return outputs, ok


def _cmd_trace_report(cfg: RunConfig, out: Path) -> tuple[list[str], bool]:
    model = _build_model(cfg)
    if not isinstance(model, ScalarCouplingModel):
        raise ConfigError("trace-report requires a scalar model")
    if cfg.uL is None or cfg.uR is None:
        raise ConfigError("trace-report requires --uL and --uR")
    ladder = _eps_list(cfg, need_ladder=True)
    check_trace_windows(_scalar_config(cfg, model, ladder[0]), ladder)
    _, sols = _run_ladder(cfg, model, ladder)
    report = interface_trace_report(sols, model)
    write_json(out / "trace_report.json", report)
    ok = bool(report["weak_condition_minus"] and report["weak_condition_plus"])
    return ["trace_report.json"], ok


_DISPATCH = {
    "solve-scalar": _cmd_solve_scalar,
    "solve-system": _cmd_solve_system,
    "spectral-sweep": _cmd_spectral_sweep,
    "verify-lemmas": _cmd_verify_lemmas,
    "continuation": _cmd_continuation,
    "trace-report": _cmd_trace_report,
}


def run(cfg: RunConfig) -> int:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        outputs, accepted = _DISPATCH[cfg.command](cfg, out)
    except ConfigError:
        raise
    except Exception as exc:  # solver failure -> exit 1
        emit_manifest(out, cfg, [], time.monotonic() - start, complete=False)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    emit_manifest(out, cfg, outputs, time.monotonic() - start, complete=True)
    if cfg.strict and not accepted:
        print("strict mode: acceptance checks failed", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
