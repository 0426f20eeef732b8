"""Span tracing of selfsim's layers, installed from outside the package.

``Tracer.installed`` wraps every public function of each layer module, and
every public method of the classes those modules define, and rebinds each
wrapper under every name that refers to the original in any ``selfsim``
namespace (``from .spectral import solve_generalized_eigen`` in
``selfsim.system`` gets the same wrapper as ``selfsim.spectral`` itself).
Nothing under ``src/`` is edited, and the originals are put back when the
block ends.

A span is (name, start, end, parent). Spans and per-name work counts stay in
memory, in flat arrays, until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# selfsim's layers, by module name; ``grid`` is deliberately absent so that
# its helpers count toward their caller's self time
LAYERS = ("color", "models", "spectral", "system", "measures", "quadrature",
          "scalar", "diagnostics", "cli")


def _file_size(args, kwargs, result):
    return Path(kwargs.get("path", args[0] if args else "")).stat().st_size


# Work done per call, read from the call's arguments or result, for the spans
# whose per-unit ratios are reported.
WORK = {
    "system.assemble_coefficients": lambda a, k, r: len(r.xi),    # grid points
    "system.solve_system": lambda a, k, r: r.outer_iterations,
    "system.solve_strength": lambda a, k, r: r[2]["iterations"],
    "scalar.picard_step": lambda a, k, r: len(r.xi),              # grid points
    "cli.write_csv": _file_size,                                   # bytes
}


def layer_targets():
    """(span name, owner, attribute, original) for every traced callable.

    The owner is the defining module for functions and the class for
    methods; span names are ``<layer>.<qualname>``.
    """
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"selfsim.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{layer}.{name}", mod, name, obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, fn in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        out.append((f"{layer}.{name}.{meth}", obj, meth, fn))
    return out


class Tracer:
    """Records spans at every wrapped boundary while ``enabled``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: dict[str, float] = defaultdict(float)
        self.enabled = True
        self._stack: list[int] = []
        self.wrapped: dict[str, object] = {}   # span name -> wrapper

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (e.g. one instance)."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def paused(self):
        """Run oracle checks without recording them as program work."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work is not None:
                self.work[name] += work(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Bind the wrappers for the duration of the block, then restore."""
        restore = []
        by_original = {}
        for name, owner, attr, fn in layer_targets():
            wrapper = self._wrap(name, fn)
            self.wrapped[name] = wrapper
            if inspect.isclass(owner):
                restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            else:
                by_original[id(fn)] = (fn, wrapper)
        # rebind every module-level reference, under whatever name it has
        for modname, mod in list(sys.modules.items()):
            if modname != "selfsim" and not modname.startswith("selfsim."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = by_original.get(id(val))
                if hit is not None and hit[0] is val:
                    restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds."""
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name_id):
            row = out.setdefault(self.names[nid],
                                 {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += self.end[i] - self.start[i]
            row["self_s"] += selfs[i]
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that have a span called ``ancestor`` above
        them."""
        target, anc = self._ids.get(name), self._ids.get(ancestor)
        if target is None or anc is None:
            return 0
        under = [False] * len(self)
        count = 0
        for i, p in enumerate(self.parent):
            # a parent always opens, and is appended, before its children
            if p >= 0:
                under[i] = under[p] or self.name_id[p] == anc
            if under[i] and self.name_id[i] == target:
                count += 1
        return count

    def outermost_seconds(self, names) -> float:
        """Summed duration of the spans in ``names`` that have no span in
        ``names`` above them, so that nested calls are counted once."""
        ids = {self._ids[n] for n in names if n in self._ids}
        inside = [False] * len(self)
        total = 0.0
        for i, p in enumerate(self.parent):
            if p >= 0:
                inside[i] = inside[p] or self.name_id[p] in ids
            if not inside[i] and self.name_id[i] in ids:
                total += self.end[i] - self.start[i]
        return total

    def calls_from_layer(self, name: str, layer: str) -> int:
        """Spans called ``name`` whose direct parent span is in ``layer``."""
        target = self._ids.get(name)
        if target is None:
            return 0
        prefix = layer + "."
        return sum(1 for i, p in enumerate(self.parent)
                   if self.name_id[i] == target and p >= 0
                   and self.names[self.name_id[p]].startswith(prefix))


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover
    (the union of the child intervals, clipped to the parent)."""
    n = len(start)
    children: dict[int, list[int]] = defaultdict(list)
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        reach = lo
        for k in sorted(kids, key=lambda j: start[j]):
            s, e = max(start[k], reach), min(end[k], hi)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


EIGEN = "spectral.solve_generalized_eigen"
ASSEMBLE = "system.assemble_coefficients"
MODEL_CALLS = ("models.SystemCouplingModel.A", "models.SystemCouplingModel.B",
               "models.ScalarCouplingModel.lam", "models.ScalarCouplingModel.G")
MODEL_BUILDERS = ("models.preset_model", "models.build_scalar_model",
                  "models.build_p_system_model", "models.system_from_scalar",
                  "models.model_from_config")
TRANSFERS = ("measures.compute_J", "measures.compute_F", "measures.compute_J_psi")
COLOR = ("color.ColorProfile.evaluate_v", "color.ColorProfile.evaluate_psi",
         "color.ColorProfile.sgn_deviation", "color.ColorProfile.invert_v")


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    s = tr.summary()

    def calls(*names):
        return sum(s[n]["calls"] for n in names if n in s)

    def secs(*names):
        return sum(s[n]["s"] for n in names if n in s)

    def self_secs(*names):
        return sum(s[n]["self_s"] for n in names if n in s)

    def ratio(a, b):
        return a / b if b else 0.0

    picard_s = secs("scalar.picard_step")
    return {
        "spectral.eigen_calls": (calls(EIGEN), "count"),
        "spectral.eigen_s": (secs(EIGEN), "s"),
        "spectral.eigen_per_point": (
            ratio(tr.calls_under(EIGEN, ASSEMBLE), tr.work[ASSEMBLE]), "1/point"),
        "spectral.eta_nu_s": (secs("spectral.estimate_eta_nu"), "s"),
        "models.build_s": (tr.outermost_seconds(MODEL_BUILDERS), "s"),
        "models.calls": (calls(*MODEL_CALLS), "count"),
        "models.s": (secs(*MODEL_CALLS), "s"),
        "system.assemble_calls": (calls(ASSEMBLE), "count"),
        "system.assemble_s": (secs(ASSEMBLE), "s"),
        "system.assemble_self_s": (self_secs(ASSEMBLE), "s"),
        "system.outer_iters": (
            ratio(tr.work["system.solve_system"], calls("system.solve_system")),
            "count"),
        "system.correction_calls": (calls("system.correction_map"), "count"),
        "system.correction_s": (secs("system.correction_map"), "s"),
        "system.strength_iters": (tr.work["system.solve_strength"], "count"),
        "system.strength_s": (secs("system.solve_strength"), "s"),
        "system.reconstruct_s": (secs("system.reconstruct_u"), "s"),
        "system.measures_s": (secs("system.build_measures"), "s"),
        "measures.transfer_calls": (calls(*TRANSFERS), "count"),
        "measures.transfer_s": (secs(*TRANSFERS), "s"),
        "measures.transfer_self_s": (self_secs(*TRANSFERS), "s"),
        "measures.phi_star_s": (secs("measures.build_phi_star"), "s"),
        "measures.verify_bounds_s": (secs("measures.verify_bounds"), "s"),
        "quadrature.cumtrapz_calls": (calls("quadrature.log_cumtrapz_from"), "count"),
        "quadrature.cumtrapz_s": (secs("quadrature.log_cumtrapz_from"), "s"),
        "quadrature.log_trapz_s": (secs("quadrature.log_trapz"), "s"),
        "quadrature.weighted_transfer_s": (secs("quadrature.weighted_transfer"), "s"),
        "scalar.solves": (calls("scalar.solve_scalar"), "count"),
        "scalar.picard_calls": (calls("scalar.picard_step"), "count"),
        "scalar.picard_s": (picard_s, "s"),
        "scalar.exponent_h_s": (secs("scalar.exponent_h"), "s"),
        "scalar.iters_per_solve": (
            ratio(calls("scalar.picard_step"), calls("scalar.solve_scalar")), "count"),
        "scalar.picard_us_per_point": (
            ratio(1e6 * picard_s, tr.work["scalar.picard_step"]), "us"),
        "diagnostics.continuation_s": (secs("diagnostics.epsilon_continuation"), "s"),
        "diagnostics.l1_s": (secs("diagnostics.l1_distance"), "s"),
        "cli.solve_calls": (
            tr.calls_from_layer("scalar.solve_scalar", "cli")
            + tr.calls_from_layer("system.solve_system", "cli"), "count"),
        # the curves only: the JSON files are small, and the manifest holds
        # the run's wall time, so its size is not the same from run to run
        "cli.write_s": (secs("cli.write_csv"), "s"),
        "cli.write_bytes": (tr.work["cli.write_csv"], "B"),
        "color.s": (secs(*COLOR), "s"),
    }
