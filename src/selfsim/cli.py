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
from .diagnostics import (check_trace_windows, interface_trace_report,
                          ladder_cauchy)
from .grid import default_grid_size, uniform_grid
from .measures import build_phi_star, constant_speed_fields, verify_bounds
from .models import (ModelConstructionError, ScalarCouplingModel,
                     SystemCouplingModel, model_from_config, preset_model)
from .scalar import ScalarSolveConfig, solve_scalar, trace_window_check
from .spectral import pencil_eigen
from .system import SystemSolveConfig, solve_system

SCHEMA_VERSION = 2

COMMANDS = ("solve-scalar", "solve-system", "spectral-sweep",
            "verify-lemmas", "continuation", "trace-report")

CONFIG_KEYS = {
    "model", "model_options", "eps", "eps_ladder", "p", "M", "grid",
    "uL", "uR", "u", "out", "strict",
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
    uL: object = None
    uR: object = None
    u: object = None
    out: str = "out"
    strict: bool = False
    overrides: dict = field(default_factory=dict)

    def validate(self):
        # a config file can hold any JSON value, so types are checked too
        ladder = self.eps_ladder
        if ladder is not None and not (isinstance(ladder, list) and ladder):
            raise ConfigError(f"--eps-ladder must be a non-empty list, got {ladder!r}")
        named = [(f"--{k}", getattr(self, k)) for k in ("eps", "M")
                 if getattr(self, k) is not None]
        named += [("--p", self.p)] + [("--eps-ladder entry", x) for x in ladder or ()]
        for name, val in named:
            if not (_is_number(val) and np.isfinite(val) and val > 0):
                raise ConfigError(f"{name} must be a positive finite number, got {val!r}")
        if self.grid is not None and not (_is_number(self.grid, int) and self.grid >= 64):
            raise ConfigError(f"--grid must be an integer >= 64, got {self.grid!r}")
        if ladder is not None:
            self.eps_ladder = [float(x) for x in ladder]
            if any(b >= a for a, b in zip(self.eps_ladder, self.eps_ladder[1:])):
                raise ConfigError("ladder must be strictly decreasing")

    def echo(self) -> dict:
        return dataclasses.asdict(self)


def _is_number(val, kind=(int, float)) -> bool:
    """Whether ``val`` is an instance of ``kind`` and not a bool."""
    return isinstance(val, kind) and not isinstance(val, bool)


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
    for key in ("model", "eps", "p", "M", "grid", "out", "strict"):
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
    return ScalarSolveConfig(eps=eps, p=cfg.p, M=M, grid_size=cfg.grid)


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


def _scalar_rung(cfg: RunConfig, model: ScalarCouplingModel, eps: float,
                 path: Path, previous=None) -> tuple[object, dict, bool]:
    """One scalar solve at ``eps``, warm-started from the ``previous``
    rung's solution if there is one: writes the profile CSV to ``path`` and
    returns the solution, its diagnostics record and whether it passes the
    acceptance checks."""
    sol = solve_scalar(model, _scalar_config(cfg, model, eps), float(cfg.uL), float(cfg.uR),
                       initial=None if previous is None else previous.u)
    write_csv(path, ["xi", "u", "v", "h"],
              [sol.u.xi, sol.u.values, sol.v.values, sol.h.values])
    record = {
        "eps": sol.eps, "p": sol.p, "uL": sol.u_left, "uR": sol.u_right,
        "iterations": sol.iterations, "residual": sol.residual,
        "tv_u": sol.tv_u, "monotone": sol.monotone,
        "trace_window": trace_window_check(sol, model),
    }
    ok = sol.monotone and sol.tv_u <= abs(sol.u_right - sol.u_left) + 1e-6
    return sol, record, ok


def _system_rung(cfg: RunConfig, model: SystemCouplingModel, eps: float,
                 path: Path, previous=None) -> tuple[object, dict, bool]:
    """One system solve at ``eps`` (always cold: ``previous`` is not used):
    writes the profile CSV to ``path`` and returns the solve state, its
    diagnostics record and whether it passes the acceptance checks."""
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
    return state, record, ok


def _model_and_rung(cfg: RunConfig, kind: str | None = None):
    """The model and the rung function of its kind; ``kind`` ("scalar" or
    "system") is the kind the command requires, if it requires one."""
    model = _build_model(cfg)
    scalar = isinstance(model, ScalarCouplingModel)
    if kind is not None and kind != ("scalar" if scalar else "system"):
        raise ConfigError(f"{cfg.command} requires a {kind} model")
    if cfg.uL is None or cfg.uR is None:
        raise ConfigError(f"{cfg.command} requires --uL and --uR")
    return model, _scalar_rung if scalar else _system_rung


def _cmd_solve(cfg: RunConfig, out: Path) -> tuple[list[str], bool]:
    model, rung = _model_and_rung(cfg, cfg.command.removeprefix("solve-"))
    _, record, ok = rung(cfg, model, _single_eps(cfg), out / "solution.csv")
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
    with (out / "lemma_constants.csv").open("w") as fh:
        fh.write("check,eps,value,passed\n")
        for check in report["checks"]:
            for eps, val in check["per_eps"].items():
                fh.write(f"\"{check['name']}\",{eps:.17g},{val:.17g},"
                         f"{int(check['passed'])}\n")
    return ["lemma_report.json", "lemma_constants.csv"], bool(report["passed"])


def _ladder(cfg: RunConfig, model, rung, ladder: list[float], out: Path):
    """One rung per eps, each handed the one before it, each writing
    ``solution_eps<tag>.csv``: the CSV names, the solutions, their records
    and whether every rung passed.  The first failed rung raises a
    RuntimeError naming its eps."""
    outputs, solutions, records, ok = [], [], [], True
    previous = None
    for eps in ladder:
        name = f"solution_eps{_eps_tag(eps)}.csv"
        try:
            previous, record, rung_ok = rung(cfg, model, eps, out / name, previous)
        except Exception as exc:
            raise RuntimeError(f"rung eps={eps:g}: {type(exc).__name__}: {exc}") from exc
        outputs.append(name)
        solutions.append(previous)
        records.append(record)
        ok = ok and rung_ok
    return outputs, solutions, records, ok


def _cmd_continuation(cfg: RunConfig, out: Path) -> tuple[list[str], bool]:
    """Each record is that rung's solve-* diagnostics; a scalar ladder adds
    its Cauchy diagnostics."""
    model, rung = _model_and_rung(cfg)
    ladder = _eps_list(cfg, need_ladder=True)
    outputs, solutions, records, ok = _ladder(cfg, model, rung, ladder, out)
    report = {"eps_ladder": ladder, "records": records}
    if isinstance(model, ScalarCouplingModel):
        report.update(ladder_cauchy(solutions))
        if report["l1_distances"]:
            write_csv(out / "l1_distances.csv", ["eps_coarse", "eps_fine", "l1"],
                      [np.array(ladder[:-1]), np.array(ladder[1:]),
                       np.array(report["l1_distances"])])
            outputs.append("l1_distances.csv")
    write_json(out / "continuation.json", report)
    return outputs + ["continuation.json"], ok


def _cmd_trace_report(cfg: RunConfig, out: Path) -> tuple[list[str], bool]:
    model, rung = _model_and_rung(cfg, "scalar")
    ladder = _eps_list(cfg, need_ladder=True)
    check_trace_windows(_scalar_config(cfg, model, ladder[0]), ladder)
    outputs, solutions, _, _ = _ladder(cfg, model, rung, ladder, out)
    report = interface_trace_report(solutions, model)
    write_json(out / "trace_report.json", report)
    ok = bool(report["weak_condition_minus"] and report["weak_condition_plus"])
    return outputs + ["trace_report.json"], ok


_DISPATCH = {
    "solve-scalar": _cmd_solve,
    "solve-system": _cmd_solve,
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
