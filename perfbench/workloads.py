"""The benchmark's workloads: fixed inputs, the program calls to time, and
the oracle gate that judges each instance.

A workload has ``setup()`` (model construction, timed as set-up),
``instances(state, seed)`` (labelled zero-argument calls into selfsim, each
timed as one instance and repeated for the whole run), ``checks(state,
seed)`` (calls that run once after the timed repeats, gated but not timed),
``traced(state, seed)`` (the calls of the traced pass) and ``gate(state,
results)`` (one failure reason, or None, per call). Calls go through module
attributes at call time, so that a tracer installed after import sees them.

Every timed instance takes a few seconds at most, so that a run of
``--seconds`` repeats each one several times.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import selfsim.cli
import selfsim.color
import selfsim.diagnostics
import selfsim.grid
import selfsim.measures
import selfsim.models
import selfsim.scalar
import selfsim.system

LADDER4 = (0.1, 0.05, 0.025, 0.0125)


def _join(*reasons):
    return "; ".join(r for r in reasons if r) or None


class Workload:
    """Defaults: no untimed checks; the traced pass makes every call once."""

    def checks(self, st, seed):
        return []

    def traced(self, st, seed):
        return self.instances(st, seed) + self.checks(st, seed)


class PSystemLadder(Workload):
    """Coupled p-system, jump 0.01 delta0 along tau, the criterion-07 ladder.

    The timed instance is the first rung, eps 0.1 (about 4 s); the rungs at
    0.05 and 0.025 take 10 and 16 s, too long to repeat within a run. The
    traced pass solves the whole ladder once and gates it with the
    ladder-wide checks.
    """

    name = "psys-ladder"

    def __init__(self, ladder=(0.1, 0.05, 0.025)):
        self.ladder = tuple(ladder)

    def setup(self):
        model = selfsim.models.preset_model("p-system")
        jump = 0.01 * model.delta0
        return SimpleNamespace(
            model=model, jump=jump,
            uL=model.u_ref - np.array([jump / 2.0, 0.0]),
            uR=model.u_ref + np.array([jump / 2.0, 0.0]))

    def _rungs(self, st):
        def rung(eps):
            return lambda: selfsim.system.solve_system(
                st.model, selfsim.system.SystemSolveConfig(eps=eps), st.uL, st.uR)
        return [(f"eps={eps:g}", rung(eps)) for eps in self.ladder]

    def instances(self, st, seed):
        return self._rungs(st)[:1]

    def traced(self, st, seed):
        return self._rungs(st)

    def gate(self, st, results):
        reasons, ratios, slopes = [], [], []
        for _, out, err in results:
            if err:
                reasons.append(err)
                continue
            reasons.append(_join(
                None if out.boundary_residual <= 1e-6
                else f"boundary residual {out.boundary_residual:.3e} > 1e-6",
                None if all(a < 1.0 for a in out.contraction_estimates)
                else f"contraction factor {max(out.contraction_estimates):.3f} >= 1"))
            ratios.append(out.tv_u / st.jump)
            slopes.append(out.sup_eps_du)
        # the ladder-wide checks are judged at the last rung
        if len(ratios) < len(results):
            ladder = "ladder incomplete"
        else:
            spread = (max(ratios) - min(ratios)) / max(ratios)
            ladder = _join(
                None if spread < 0.15 else f"TV/jump spread {spread:.3f} >= 0.15",
                None if max(slopes) <= 2.0 * slopes[0]
                else f"sup eps|u_xi| {max(slopes):.3e} > 2x coarsest")
        reasons[-1] = _join(reasons[-1], ladder)
        return reasons


def lattice_pairs(n: int, g: int, lo: float = -1.4, hi: float = 1.4):
    """The n-point Fibonacci lattice {(i/n, i g/n mod 1)} mapped onto
    [lo, hi]^2: n pairs (uL, uR) spread evenly over the square."""
    i = np.arange(n)
    unit = np.stack([i / n, (i * g % n) / n], axis=1)
    return [(float(a), float(b)) for a, b in lo + (hi - lo) * unit]


def seeded_pairs(seed: int, k: int, lo: float = -1.4, hi: float = 1.4):
    """k pairs (uL, uR) drawn from uniform(lo, hi)^2."""
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(k, 2))
    return [(float(a), float(b)) for a, b in pts]


class ScalarCliLadder(Workload):
    """In-process ``selfsim continuation`` calls on criterion-01 data: the
    timed instances are a fixed lattice of pairs and the resonant stationary
    Burgers shock (1, -1); ``k`` pairs drawn from the seed are checks.

    The cost of one pair is rough in (uL, uR): pairs 0.01 apart can take 86
    or 2085 Picard iterations, because the damping of the iteration follows
    a different path. A timed seeded pair would move the run's time with
    the seed by more than the benchmark's bounds, so the seeded pairs run
    once after the timed repeats and are gated, not timed.

    One instance is one pair run through both presets, two CLI calls.
    """

    name = "scalar-cli-ladder"
    models = ("burgers-identical", "linear-advection-pair")

    def __init__(self, workdir: Path, ladder=LADDER4, n: int = 8, g: int = 3,
                 k: int = 2):
        self.workdir = Path(workdir)
        self.ladder = tuple(ladder)
        self.n, self.g, self.k = n, g, k

    def setup(self):
        return SimpleNamespace(
            models={m: selfsim.models.preset_model(m) for m in self.models})

    def cases(self, seed):
        """The timed pairs, then the seeded ones."""
        return lattice_pairs(self.n, self.g) + [(1.0, -1.0)], seeded_pairs(seed, self.k)

    def instances(self, st, seed):
        return self._calls(self.cases(seed)[0])

    def checks(self, st, seed):
        timed, seeded = self.cases(seed)
        return self._calls(seeded, first=len(timed))

    def _calls(self, pairs, first=0):
        ladder = ",".join(f"{e:g}" for e in self.ladder)

        def call(idx, uL, uR):
            def run():
                outs = []
                for model in self.models:
                    out = self.workdir / f"case{idx:03d}-{model}"
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        code = selfsim.cli.main([
                            "continuation", "--model", model, f"--uL={uL!r}",
                            f"--uR={uR!r}", "--eps-ladder", ladder, "--strict",
                            "--out", str(out)])
                    outs.append(SimpleNamespace(code=code, out=out, model=model,
                                                stderr=err.getvalue(), uL=uL, uR=uR))
                return outs
            return run

        return [(f"uL={uL:.4f} uR={uR:.4f}", call(first + i, uL, uR))
                for i, (uL, uR) in enumerate(pairs)]

    def gate(self, st, results):
        reasons = []
        for _, outs, err in results:
            if err:
                reasons.append(err)
                continue
            why = []
            for out in outs:
                try:
                    why.append(self._check(out))
                except (OSError, ValueError) as exc:   # missing or malformed CSV
                    why.append(f"{out.model}: {type(exc).__name__}: {exc}")
                finally:
                    shutil.rmtree(out.out, ignore_errors=True)
            reasons.append(_join(*why))
        return reasons

    def _check(self, out):
        if out.code != 0:
            return f"{out.model}: exit code {out.code}: {out.stderr.strip()}"
        if out.model != "burgers-identical":
            return None
        eps = self.ladder[-1]
        data = np.loadtxt(out.out / f"solution_eps{f'{eps:g}'.replace('.', 'p')}.csv",
                          delimiter=",", skiprows=1)
        xi, u = data[:, 0], data[:, 1]
        exact = selfsim.diagnostics.exact_scalar_riemann(
            lambda w: np.asarray(w, dtype=float) ** 2 / 2.0, out.uL, out.uR)
        GF = selfsim.grid.GridFunction
        d = selfsim.diagnostics.l1_distance(GF(xi, u), GF(xi, exact(xi)))
        return (None if d <= 5.0 * eps
                else f"{out.model}: L1 to exact {d:.3e} > 5 eps = {5 * eps:g}")


class LemmaLadder(Workload):
    """verify_bounds on the two-band fixture with one resonant band, the
    criterion-06 inputs."""

    name = "lemma-ladder"

    speeds = (-1.2, 0.0)
    M = 2.0

    def __init__(self, ladder=LADDER4):
        self.ladder = tuple(ladder)

    def _xi(self, eps):
        return selfsim.grid.uniform_grid(
            self.M, max(512, int(np.ceil(40 * self.M / eps))))

    def setup(self):
        def measure_factory(eps):
            xi = self._xi(eps)
            mu, lo, hi = selfsim.measures.constant_speed_fields(xi, self.speeds)
            return selfsim.measures.build_phi_star(xi, mu, eps, lo, hi)

        def psi_factory(eps):
            return selfsim.color.ColorProfile(eps, 1.0, self.M).evaluate_psi(self._xi(eps))

        return SimpleNamespace(measure_factory=measure_factory, psi_factory=psi_factory)

    def instances(self, st, seed):
        return [("verify_bounds", lambda: selfsim.measures.verify_bounds(
            st.measure_factory, list(self.ladder), st.psi_factory))]

    def gate(self, st, results):
        reasons = []
        for _, report, err in results:
            if err:
                reasons.append(err)
            else:
                failed = [c["name"] for c in report["checks"] if not c["passed"]]
                reasons.append(None if report["passed"]
                               else "failed bounds: " + ", ".join(failed))
        return reasons


def _eta_gamma(u):
    u = np.asarray(u, dtype=float)
    return u + 0.2 * u ** 3


def _eta_flux(w):
    return np.asarray(w, dtype=float) ** 2 / 2.0


def _eta_B0(u, v):
    return 1.0 + 0.3 * np.asarray(u, dtype=float) ** 2 + 0.0 * np.asarray(v, dtype=float)


class EtaSystem(Workload):
    """The N = 1 system with B != I and A0 != I (eta > 0), cross-checked
    against the scalar solver on the same model (criterion 08's budget)."""

    name = "eta-system"

    uL, uR = 0.52, 0.48

    def __init__(self, eps=0.1):
        self.eps = eps

    def setup(self):
        scalar = selfsim.models.build_scalar_model(
            _eta_gamma, _eta_gamma, _eta_flux, _eta_flux, B0=_eta_B0,
            name="cubic-gamma-viscous")
        system = selfsim.models.system_from_scalar(scalar, u_center=0.5, delta0=0.4)
        return SimpleNamespace(
            scalar=scalar, system=system,
            sys_cfg=selfsim.system.SystemSolveConfig(eps=self.eps),
            scal_cfg=selfsim.scalar.ScalarSolveConfig(eps=self.eps, M=system.M))

    def instances(self, st, seed):
        def run():
            syst = selfsim.system.solve_system(
                st.system, st.sys_cfg, np.array([self.uL]), np.array([self.uR]))
            scal = selfsim.scalar.solve_scalar(st.scalar, st.scal_cfg, self.uL, self.uR)
            return scal, syst
        return [(f"eps={self.eps:g}", run)]

    def gate(self, st, results):
        reasons = []
        for _, out, err in results:
            if err:
                reasons.append(err)
                continue
            scal, syst = out
            d = selfsim.diagnostics.l1_distance(
                scal.u, selfsim.grid.GridFunction(syst.u.xi, syst.u.values[:, 0]))
            budget = 10.0 * (st.scal_cfg.fix_tol + st.sys_cfg.outer_tol
                             + st.sys_cfg.strength_tol + syst.boundary_residual)
            reasons.append(None if d <= budget
                           else f"cross-solver L1 {d:.3e} > budget {budget:.3e}")
        return reasons


def make(name: str, workdir: Path):
    if name == ScalarCliLadder.name:
        return ScalarCliLadder(workdir)
    table = {w.name: w for w in (PSystemLadder, LemmaLadder, EtaSystem)}
    if name not in table:
        raise KeyError(name)
    return table[name]()


# the workloads of BENCHMARK.json; the other two run by hand (see README.md)
NAMES = (PSystemLadder.name, ScalarCliLadder.name)
ALL_NAMES = NAMES + (LemmaLadder.name, EtaSystem.name)
