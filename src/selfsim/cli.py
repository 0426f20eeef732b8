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
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .color import ColorProfile
from .diagnostics import (check_trace_windows, interface_trace_report,
                          ladder_cauchy)
from .grid import uniform_grid
from .measures import verify_bounds
from .models import (ScalarCouplingModel, SystemCouplingModel, model_from_config,
                     preset_model)
from .scalar import ScalarSolveConfig, solve_scalar, trace_window_check
from .spectral import pencil_eigen
from .system import SystemSolveConfig, solve_system

SCHEMA_VERSION = 3

COMMANDS = ("solve-scalar", "solve-system", "spectral-sweep",
            "verify-lemmas", "continuation", "trace-report")

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
        for key in ("uL", "uR", "u"):
            val = getattr(self, key)
            entries = val if isinstance(val, list) and val else [val]
            if val is not None and not all(_is_number(x) for x in entries):
                raise ConfigError(f"--{key} must be a number or a non-empty list of "
                                  f"numbers, got {val!r}")
        # a value the command does not read is an error, not silently dropped
        if self.eps is not None and ladder is not None:
            raise ConfigError(f"give --eps or --eps-ladder, not both: got {self.eps!r} "
                              f"and {ladder!r}")
        for key in ("uL", "uR") if self.command == "spectral-sweep" else ("u",):
            if getattr(self, key) is not None:
                raise ConfigError(f"{self.command} does not read --{key}")
        if (self.uL is None) != (self.uR is None):
            raise ConfigError(f"{self.command} takes --uL and --uR together, got only "
                              f"--{'uL' if self.uR is None else 'uR'}")
        for name, val, kind, what in (
                ("--model", self.model, (str, dict), "a preset name or a model object"),
                ("model_options", self.model_options, dict, "an object"),
                ("--out", self.out, str, "a path"),
                ("--strict", self.strict, bool, "true or false")):
            if not isinstance(val, kind):
                raise ConfigError(f"{name} must be {what}, got {val!r}")
        if isinstance(self.model, dict) and self.model_options:
            raise ConfigError(f"model_options {self.model_options!r} go with a preset name; "
                              f"the model object {self.model!r} takes a preset's options "
                              f"under \"options\"")
        if ladder is not None:
            self.eps_ladder = [float(x) for x in ladder]
            if any(b >= a for a, b in zip(self.eps_ladder, self.eps_ladder[1:])):
                raise ConfigError("ladder must be strictly decreasing")

    def echo(self) -> dict:
        return dataclasses.asdict(self)


# the keys a config file may set: every field but the subcommand and the
# record of flag overrides
CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)} - {"command", "overrides"}


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
    cfg.overrides = overrides
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


CSV_BLOCK_ROWS = 1024

# The "%.17g" kernel.  For x != 0 with k = floor(log10|x|), |x| * 10**(16 - k)
# is formed in double-double: Dekker's exact two-product of |x| with the
# leading part of a (hi, lo) table of powers of ten, plus |x| * lo.  Its
# fraction is good to about 1e-14, so it rounds to the 17 digits D of "%.17g"
# unless it lies within 1e-9 of 1/2.  Such ties, values outside
# [1e-280, 1e16) other than zero (the table holds 10**j for 0 <= j <= 300,
# whose split must not overflow), inf and nan are formatted by Python's "%".
_SPLIT = 134217729.0                      # 2**27 + 1
_K0 = -330                                # the k-indexed tables start at k = _K0


def _split(x):
    """Dekker's split of ``x`` into two halves of 26 bits."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _pow10_table() -> np.ndarray:
    """Rows hi, lo and hi's split, with hi + lo = 10**j to 2**-106 for
    0 <= j <= 300, from exact integer arithmetic."""
    powers = [10 ** j for j in range(301)]
    hi = np.array([float(p) for p in powers])
    lo = np.array([float(p - int(h)) for p, h in zip(powers, hi.tolist())])
    return np.stack([hi, lo, *_split(hi)])


def _keep_table() -> np.ndarray:
    """For each layout code, which bytes of a value's 46-byte row it writes.

    The row holds "-0." at 0..2, the 20 ASCII digits of D as 0..9 and four
    4-digit groups at 3..22 (digit i of D at 6 + i, so that the three zeros
    before it serve "0.000"), "." at 23, digits 1..16 of D again at 24..39,
    "e" at 40, the exponent's sign and three digits at 41..44 and the
    separator at 45.  The code is ``391 * sign + 17 * case + nd - 1``, where
    nd counts the digits left when trailing zeros are stripped and case is k
    for 0 <= k <= 16, 16 - k for -4 <= k <= -1, 21 for an exponent of two
    digits and 22 for one of three."""
    first, again = bytes(range(6, 23)), bytes(range(23, 40))    # 23 + i for i >= 1
    point, e, expo, sep = bytes([23]), bytes([40]), bytes(range(41, 45)), bytes([45])
    rows = []
    for case in range(23):
        for nd in range(1, 18):
            if case <= 16:                      # ddd.ddd, at least k + 1 digits
                s = first[:case + 1] + (point + again[case + 1:nd] if nd > case + 1 else b"")
            elif case <= 20:                    # "0." and case - 17 zeros, then ddd
                s = bytes(range(1, case - 14)) + first[:nd]
            else:                               # d.ddde-XX
                s = first[:1] + (point + again[1:nd] if nd > 1 else b"")
                s += e + (expo[:1] + expo[2:] if case == 21 else expo)
            rows.append(s.ljust(24, sep))       # every code keeps the separator
    keep = np.zeros((2, len(rows), 46), bool)
    keep[:, np.arange(len(rows))[:, None], np.frombuffer(b"".join(rows), np.uint8).reshape(-1, 24)] = True
    keep[1, :, 0] = True                        # "-"
    return keep.reshape(-1, 46)


_POW10 = _pow10_table()
_KEEP = _keep_table()
# 4-digit ASCII of 0..9999, one uint32 each, so that a uint8 view reads digits
_ascii = np.arange(48, 58, dtype=np.uint8)
_ascii = np.stack(np.meshgrid(*[_ascii] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
_DIGITS4 = _ascii.view(np.uint32).ravel()
_ZEROS4 = sum(np.arange(10000) % 10 ** i == 0 for i in range(1, 5))   # trailing zeros
_k = np.arange(_K0, -_K0)
_CASE = np.where((_k >= 0) & (_k <= 16), _k,
                 np.where((_k < 0) & (_k >= -4), 16 - _k, 21 + (np.abs(_k) >= 100)))
_EXPONENT = np.column_stack([np.where(_k < 0, 45, 43).astype(np.uint8),   # "-", "+"
                             _ascii[np.abs(_k), 1:]]).view(np.uint32).ravel()
del _ascii, _k


def _scaled(a, k):
    """|x| * 10**(16 - k) as p + t, with p = fl(a * hi) and |t| < 20."""
    hi, lo, hh, hl = _POW10[:, 16 - k]
    p = a * hi
    ah, al = _split(a)
    return p, ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo


def _format_values(vals: np.ndarray, seps: np.ndarray) -> bytes:
    """The bytes of ``"%.17g" % x`` for each ``x`` in ``vals``, each followed
    by its byte of ``seps``."""
    a = np.abs(vals)
    zero = a == 0
    fast = (a >= 1e-280) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    p, t = _scaled(a, k)
    low = np.flatnonzero((p < 1e16) | ((p == 1e16) & (t < 0)))   # log10 rounded up
    k[low] -= 1
    p[low], t[low] = _scaled(a[low], k[low])
    r = np.rint(t)
    D = p.astype(np.int64) + r.astype(np.int64)
    fast &= (np.abs(t - r) < 0.5 - 1e-9) & (D >= 10 ** 16) & (D <= 10 ** 17)
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    k += carry
    D[zero] = 0
    k[zero] = 0

    n = len(vals)
    upper, lower = np.divmod(D, 10 ** 8)
    groups = np.empty((n, 5), np.intp)                  # D as 0..9 and four 4-digit groups
    groups[:, 0], upper = np.divmod(upper, 10 ** 8)
    groups[:, 1], groups[:, 2] = np.divmod(upper, 10 ** 4)
    groups[:, 3], groups[:, 4] = np.divmod(lower, 10 ** 4)
    zeros = _ZEROS4[groups[:, 4]]
    idx = np.flatnonzero(groups[:, 4] == 0)
    for col in (3, 2, 1):
        zeros[idx] += _ZEROS4[groups[idx, col]]
        idx = idx[groups[idx, col] == 0]

    digits = np.take(_DIGITS4, groups).view(np.uint8)
    row = np.empty((n, 46), np.uint8)
    row[:, 0] = ord("-")
    row[:, 1] = ord("0")
    row[:, 2] = row[:, 23] = ord(".")
    row[:, 3:23] = digits
    row[:, 24:40] = digits[:, 4:]
    row[:, 40] = ord("e")
    row[:, 41:45] = np.take(_EXPONENT, k - _K0).view(np.uint8).reshape(n, 4)
    row[:, 45] = seps
    keep = np.take(_KEEP, 391 * np.signbit(vals) + 17 * _CASE[k - _K0] + 16 - zeros, axis=0)

    slow = np.flatnonzero(~(fast | zero))
    if len(slow):
        text = np.array([b"%.17g" % x for x in vals[slow].tolist()], dtype="S24")
        text = text.view(np.uint8).reshape(len(slow), 24)
        row[slow, :24] = text
        keep[slow, :45] = False
        keep[slow, :24] = text != 0
    return row[keep].tobytes()


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Values as ``%.17g`` (round-trips every double), formatted by a numpy
    kernel one block of rows at a time so that memory stays flat on large
    grids.  The bytes are exactly those of Python's ``"%.17g" % x``; a value
    whose digits the kernel cannot decide goes through ``%`` itself."""
    rows = np.column_stack(columns)
    seps = np.full((CSV_BLOCK_ROWS, rows.shape[1]), ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS]
            fh.write(_format_values(block.ravel(), seps[:len(block)].ravel()))


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


def _build_model(cfg: RunConfig, kind: str | None):
    """The model the config names, of the ``kind`` ("scalar", "system", or
    None for either) the command requires.  A spec it cannot be built from
    (a missing key, an unknown kind, preset or option, an option value the
    builder rejects) or a model of another kind is a config error."""
    try:
        model = (model_from_config(cfg.model) if isinstance(cfg.model, dict)
                 else preset_model(str(cfg.model), **cfg.model_options))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot build the model {cfg.model!r} with options "
                          f"{cfg.model_options!r}: {type(exc).__name__}: {exc}") from exc
    if kind not in (None, "scalar" if isinstance(model, ScalarCouplingModel) else "system"):
        raise ConfigError(f"{cfg.command} requires a {kind} model")
    return model


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


def _model_and_rung(cfg: RunConfig, kind: str | None):
    """The model, of the ``kind`` the command requires (see ``_build_model``),
    and the rung function of its kind."""
    model = _build_model(cfg, kind)
    scalar = isinstance(model, ScalarCouplingModel)
    if cfg.uL is None or cfg.uR is None:
        raise ConfigError(f"{cfg.command} requires --uL and --uR")
    if scalar and not (_is_number(cfg.uL) and _is_number(cfg.uR)):
        raise ConfigError(f"a scalar model takes a number for --uL and --uR, "
                          f"got {cfg.uL!r} and {cfg.uR!r}")
    return model, _scalar_rung if scalar else _system_rung


def _cmd_solve(cfg: RunConfig, out: Path) -> tuple[list[str], bool]:
    model, rung = _model_and_rung(cfg, cfg.command.removeprefix("solve-"))
    _, record, ok = rung(cfg, model, _single_eps(cfg), out / "solution.csv")
    write_json(out / "diagnostics.json", record)
    return ["solution.csv", "diagnostics.json"], ok


def _cmd_spectral_sweep(cfg: RunConfig, out: Path) -> tuple[list[str], bool]:
    model = _build_model(cfg, "system")
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


def _cmd_verify_lemmas(cfg: RunConfig, out: Path) -> tuple[list[str], bool]:
    """The lemma checks on the measures of a solve-system ladder, whose records
    the report holds.  Without --uL/--uR both sides are u_ref: the zero jump,
    whose measures are those of the eigendata frozen at u_ref."""
    ladder = _eps_list(cfg, need_ladder=True)
    model = _build_model(cfg, "system")
    if cfg.uL is None:
        cfg = dataclasses.replace(cfg, uL=model.u_ref, uR=model.u_ref)
    outputs, states, records, ok = _ladder(cfg, model, _system_rung, ladder, out)
    rungs = dict(zip(ladder, states))
    report = verify_bounds(
        lambda eps: rungs[eps].measures, ladder,
        lambda eps: ColorProfile(eps, cfg.p, rungs[eps].u.M).evaluate_psi(rungs[eps].u.xi))
    report["records"] = records
    write_json(out / "lemma_report.json", report)
    with (out / "lemma_constants.csv").open("w") as fh:
        fh.write("check,eps,value,passed\n")
        for check in report["checks"]:
            for eps, val in check["per_eps"].items():
                fh.write(f"\"{check['name']}\",{eps:.17g},{val:.17g},"
                         f"{int(check['passed'])}\n")
    return outputs + ["lemma_report.json", "lemma_constants.csv"], report["passed"] and ok


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
    model, rung = _model_and_rung(cfg, None)
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
