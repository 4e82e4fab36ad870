"""One workload in a fresh interpreter: set up, run passes, report raw timings.

Started by run.py, never by hand. Modes:

  setup    import, generate inputs, run the warm-up operation, stop
  measure  as setup, then passes over the operation list until --seconds
           are used (at least one), then the determinism re-run
  trace    passes in cycles of one untraced and two traced passes, then the
           `qcilab` start-up probes; reports per-layer metrics

The package comes from PYTHONPATH, which run.py points at ./src and every
child inherits. The result is written as JSON to --out. `t_ready` is the perf_counter
reading (CLOCK_MONOTONIC, shared by all processes) at the end of set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import workloads


def run_pass(wl, call, tracer=None):
    """One closed-loop pass: each operation starts when the previous returned."""
    wl.begin_pass()
    durations, failures, first = [], [], None
    for op in wl.ops:
        if tracer is not None:
            tracer.op = op.index
        start = perf_counter()
        try:
            out, error = call(op), None
        except Exception as exc:  # an undocumented error is a failed operation
            out, error = None, f"{type(exc).__name__}: {exc}"
        durations.append(perf_counter() - start)
        if tracer is not None:
            tracer.op = -1
        if error is None:
            error = wl.check(op, out)
        if error is not None:
            failures.append(f"op {op.index} ({op.cls}): {error}")
        elif op.index == 0:
            first = wl.digest(op, out)
    return {"durations": durations, "failures": failures}, first


def rerun_first(wl, call, digest):
    """Re-run operation 0 after the passes; its output bytes must not change."""
    wl.begin_pass()
    op = wl.ops[0]
    try:
        out = call(op)
    except Exception as exc:
        return f"determinism re-run of op 0 raised {type(exc).__name__}: {exc}"
    error = wl.check(op, out)
    if error is None and wl.digest(op, out) != digest:
        error = "determinism re-run of op 0 gave different output bytes"
    return error


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except Exception as exc:  # report, never fail, on an unexpected layout
            return f"unknown ({type(exc).__name__})"

    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {k: os.environ[k] for k in threads if k in os.environ},
    }


def _spawn(argv):
    """(wall seconds, cpu seconds, stdout) of one child interpreter."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    out = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=True)
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return wall, cpu, out.stdout.decode() + out.stderr.decode()


def cli_probes(workdir: str, seed: int, repeats: int = 3) -> dict:
    """Start-up cost of `qcilab`: bare interpreter, fresh import, config loading."""
    py = sys.executable
    floor, imports, cpu = [], [], []
    timer = "import time; t = time.perf_counter(); import qcilab.cli; print(time.perf_counter() - t)"
    for _ in range(repeats):
        floor.append(_spawn([py, "-c", "pass"])[0])
        _, used, out = _spawn([py, "-c", timer])
        imports.append(float(out))
        cpu.append(used)
    err = _spawn([py, "-X", "importtime", "-c", "import qcilab.cli"])[2]
    split = {}
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:"):
            try:
                cumulative = int(parts[1])
            except ValueError:
                continue
            name = parts[2].strip()
            if name in ("qcilab", "qcilab.cli", "numpy", "scipy", "scipy.interpolate", "scipy.linalg",
                        "scipy.special", "jsonschema"):
                split[name] = cumulative / 1e3

    from qcilab import cli

    config_times = []
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    for i, (_, _, cfg, _) in enumerate(workloads.cli_configs(seed)):
        if not cfg:
            continue
        path = os.path.join(probe_dir, f"cfg{i}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        start = perf_counter()
        try:
            cli.load_config(path)
        except cli.ConfigError:
            pass  # the bad-config operations are rejected by design
        config_times.append(perf_counter() - start)
    return {
        "cli.python_floor_ms": statistics.median(floor) * 1e3,
        "cli.import_ms": statistics.median(imports) * 1e3,
        "cli.import_scipy_interpolate_ms": split.get("scipy.interpolate", 0.0),
        "cli.config_ms": statistics.median(config_times) * 1e3,
        "probe_child_cpu_ms": statistics.median(cpu) * 1e3,
        "import_split_ms": split,
    }


def in_process_call():
    from qcilab import cli

    def call(op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.params["argv"])
        return code, out.getvalue().encode(), err.getvalue().encode(), 0.0

    return call


def trace(wl, args, deadline) -> dict:
    from spans import EXACT, Tracer, layer_metrics

    tracer = Tracer()
    plain = traced = wl.call
    result = {}
    if args.workload == "cli-batch":
        # the subprocess pass gives the children's CPU time; the in-process
        # passes below give the spans under main()
        result["subprocess_pass"], _ = run_pass(wl, wl.call)
        plain = in_process_call()

        def traced(op):
            return tracer.call("cli.main", plain, op)

    untraced, traced_passes, layers = [], [], []
    attempted = len(result["subprocess_pass"]["durations"]) if result else 0
    while True:
        start = perf_counter()
        u, _ = run_pass(wl, plain)
        untraced.append(u)
        for _ in range(2):
            tracer.counts.clear()
            lo = tracer.mark()
            tracer.install()
            try:
                t, _ = run_pass(wl, traced, tracer)
            finally:
                tracer.uninstall()
            traced_passes.append(t)
            layers.append(layer_metrics(tracer.layer_totals(lo, tracer.mark()), tracer.counts))
        if perf_counter() + (perf_counter() - start) > deadline:
            break

    failures = [f for p in untraced + traced_passes for f in p["failures"]]
    mismatched = sorted(k for k in EXACT if len({m[k] for m in layers}) > 1)
    if mismatched:
        failures.append(f"counts differ between traced passes of one seed: {mismatched}")
    metrics = {}
    for key in layers[0]:
        values = [m[key] for m in layers]
        metrics[key] = layers[0][key] if key in EXACT else statistics.median(values)
    def wall(passes):
        return statistics.median(sum(p["durations"]) for p in passes)

    metrics["trace.overhead_s"] = wall(traced_passes) - wall(untraced)
    probes = cli_probes(args.workdir, args.seed)
    metrics.update({k: v for k, v in probes.items() if k.startswith("cli.")})
    if args.workload == "cli-batch":
        metrics["cli.child_cpu_ms"] = statistics.median(wl.child_cpu_s) * 1e3
        failures += result["subprocess_pass"]["failures"]
    else:
        metrics["cli.child_cpu_ms"] = probes["probe_child_cpu_ms"]
    result.update(
        metrics=metrics,
        failures=failures,
        attempted=attempted + sum(len(p["durations"]) for p in untraced + traced_passes),
        traced_passes=len(traced_passes),
        untraced_wall_s=[sum(p["durations"]) for p in untraced],
        traced_wall_s=[sum(p["durations"]) for p in traced_passes],
        spans=tracer.mark(),
        import_split_ms=probes["import_split_ms"],
    )
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    wl = workloads.make(args.workload, args.seed, args.workdir)
    wl.warmup()
    t_ready = perf_counter()
    result = {"t_ready": t_ready}
    deadline = t_ready + args.seconds

    if args.mode == "measure":
        passes, first = [], None
        while True:
            start = perf_counter()
            p, digest = run_pass(wl, wl.call)
            passes.append(p)
            first = digest if first is None else first
            if perf_counter() + (perf_counter() - start) > deadline:
                break
        failures = [f for p in passes for f in p["failures"]]
        error = rerun_first(wl, wl.call, first)
        if error is not None:
            failures.append(error)
        result.update(passes=passes, failures=failures,
                      attempted=sum(len(p["durations"]) for p in passes) + 1,
                      classes=[op.cls for op in wl.ops])
    elif args.mode == "trace":
        result.update(trace(wl, args, deadline))

    if args.mode != "setup":
        late, details = wl.finish()
        result["failures"] += late
        result["details"] = details
        rss_kb = getattr(wl, "max_rss_kb", 0) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["peak_rss_mb"] = rss_kb / 1024.0
        result["env"] = environment()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
