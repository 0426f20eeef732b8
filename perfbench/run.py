#!/usr/bin/env python3
"""Run one workload of the selfsim benchmark and print its metrics.

    python3 perfbench/run.py --workload psys-ladder --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; selfsim is imported from ``src/``
of that checkout and from nowhere else. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced pass. The line
before it records the run's context. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True   # leave the checkout as it was found

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_pass(wl, state, calls, tracer=None):
    """Make each labelled call once, timing it, then gate the results
    (untimed, and untraced). Returns the latencies in call order."""
    results, latencies = [], []
    for label, call in calls:
        t0 = time.perf_counter()
        out, err = None, None
        try:
            if tracer is None:
                out = call()
            else:
                with tracer.span("bench.instance"):
                    out = call()
        except Exception as exc:   # counted as a failed instance and reported
            err = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
        results.append((label, out, err))
    if not results:
        return latencies, []
    if tracer is None:
        reasons = wl.gate(state, results)
    else:
        with tracer.paused():
            reasons = wl.gate(state, results)
    failures = [f"{label}: {why}" for (label, _, _), why in zip(results, reasons) if why]
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    return latencies, failures


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[1], q[2]


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _os_threads():
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def context(args, import_s):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "os_threads": _os_threads(),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "import_s": import_s,
    }




def measure(wl, args, import_s):
    """Untraced run: set up SETUP_REPEATS times, then repeat the pass over
    the timed instances while the next one is expected to end within
    --seconds (at least once), then make the untimed checks once."""
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t0)
    calls = wl.instances(state, args.seed)
    times = [[] for _ in calls]
    walls, failures = [], []
    start = time.perf_counter()
    while True:
        lat, fail = run_pass(wl, state, calls)
        for ts, t in zip(times, lat):
            ts.append(t)
        walls.append(sum(lat))
        failures += fail
        if time.perf_counter() - start + walls[-1] > args.seconds:
            break
    check_lat, fail = run_pass(wl, state, wl.checks(state, args.seed))
    failures += fail
    p50, p75 = quartiles([t for ts in times for t in ts])
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "wall_s": (sum(statistics.median(ts) for ts in times), "s"),
        "instance_s.p50": (p50, "s"),
        "instance_s.p75": (p75, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"setup_runs_s": setups, "passes": len(walls), "pass_wall_s": walls,
             "instance_latencies_s": {label: ts for (label, _), ts in zip(calls, times)},
             "check_latencies_s": check_lat}
    return metrics, len(calls) * len(walls) + len(check_lat), failures, extra


def measure_traced(wl, args):
    """One untraced pass of the workload's traced calls for reference, then
    set-up and the same pass traced."""
    import tracing
    state = wl.setup()
    ref_lat, failures = run_pass(wl, state, wl.traced(state, args.seed))
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span("bench.setup"):
            state = wl.setup()
        lat, fail = run_pass(wl, state, wl.traced(state, args.seed), tracer)
    failures += fail
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.wall_s"] = (sum(lat), "s")
    metrics["trace.overhead_s"] = (sum(lat) - sum(ref_lat), "s")
    metrics["trace.spans"] = (len(tracer), "count")
    extra = {"untraced_wall_s": sum(ref_lat), "traced_wall_s": sum(lat),
             "trace_overhead_s": sum(lat) - sum(ref_lat)}
    return metrics, len(ref_lat) + len(lat), failures, extra


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "selfsim" / "__init__.py").is_file():
        print(f"error: no selfsim sources in {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # numpy and scipy each bundle an OpenBLAS that would start nproc - 1
    # workers, more threads than cores in all; selfsim's matrices are 2x2
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import selfsim
    import selfsim.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(selfsim.__file__).resolve().parent != (src / "selfsim").resolve():
        print(f"error: selfsim imported from {selfsim.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads
    if args.workload not in workloads.ALL_NAMES:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.ALL_NAMES)}", file=sys.stderr)
        return 2

    scratch = HERE / ".tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            wl = workloads.make(args.workload, Path(workdir))
            if args.trace:
                metrics, attempted, failures, extra = measure_traced(wl, args)
            else:
                metrics, attempted, failures, extra = measure(wl, args, import_s)
    finally:
        try:
            scratch.rmdir()
        except OSError:   # another run is still using it
            pass

    ctx = context(args, import_s)
    ctx.update(extra, instances=attempted, failed_frac=len(failures) / attempted,
               failures=failures)
    print(json.dumps({"context": ctx}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
