"""qcilab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ./src. The
workloads (verdicts, decay-laws, eigen-cache, cli-batch) and the metrics are
described in perfbench/README.md. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. The line before it
holds the details (per-class counts, percentiles, environment, failures).

With --trace 0 the run starts three fresh worker interpreters, one after
another. The first two only set up (import, input generation, one warm-up
operation) and `setup_s` is the median of the three set-up times; the third
then runs closed-loop passes over the operation list for --seconds.
With --trace 1 one worker runs untraced and traced passes and reports the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("verdicts", "decay-laws", "eigen-cache", "cli-batch")
SETUPS = 3
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170


def spawn_worker(args, mode: str, workdir: str, src: str) -> dict:
    """Run one worker interpreter; adds its `setup_s` to the result."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = os.path.join(workdir, "result.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
            "--workdir", workdir, "--out", out]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    start = perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"error: {mode} worker exceeded {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise SystemExit(f"error: {mode} worker exited {code}")
    with open(out) as fh:
        result = json.load(fh)
    result["setup_s"] = result["t_ready"] - start
    return result


def latency_summary(passes, classes) -> tuple[dict, dict]:
    """Per-operation latency is the median over passes; quantiles over operations.

    The tail is the highest percentile with TAIL_BEYOND operations above it
    (nearest rank), so its rank is fixed by the list length.
    """
    per_op = [statistics.median(p["durations"][i] for p in passes) for i in range(len(classes))]
    n = len(per_op)
    order = sorted(range(n), key=per_op.__getitem__)
    rank_p50 = (n + 1) // 2
    rank_tail = n - TAIL_BEYOND

    def where(rank):
        op = order[rank - 1]
        same = [i for i in order if classes[i] == classes[op]]
        return {"class": classes[op], "rank_in_class": same.index(op) + 1, "class_count": len(same)}

    by_class = {}
    for cls in sorted(set(classes)):
        vals = sorted(per_op[i] * 1e3 for i in range(n) if classes[i] == cls)
        by_class[cls] = {"count": len(vals), "min_ms": vals[0], "median_ms": statistics.median(vals),
                         "max_ms": vals[-1]}
    metrics = {
        "latency_p50_ms": statistics.median(per_op) * 1e3,
        "latency_tail_ms": per_op[order[rank_tail - 1]] * 1e3,
        "wall_s": statistics.median(sum(p["durations"]) for p in passes),
    }
    details = {
        "samples": n,
        "passes": len(passes),
        "tail_percentile": 100.0 * rank_tail / n,
        "p50_at": where(rank_p50),
        "tail_at": where(rank_tail),
        "classes": by_class,
    }
    return metrics, details


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qcilab", "__init__.py")):
        print(f"error: no qcilab package under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    work = os.path.join(root, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    load_before = os.getloadavg()[0]
    try:
        if args.trace:
            main_run = spawn_worker(args, "trace", work, src)
            metrics = main_run["metrics"]
            metrics["admissibility.dsl_gap_rel"] = main_run["details"].get("admissibility.dsl_gap_rel", 0.0)
            details = {k: main_run[k] for k in ("traced_passes", "untraced_wall_s", "traced_wall_s", "spans",
                                                "import_split_ms")}
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        else:
            setups = [spawn_worker(args, "setup", work, src)["setup_s"] for _ in range(SETUPS - 1)]
            main_run = spawn_worker(args, "measure", work, src)
            setups.append(main_run["setup_s"])
            metrics, details = latency_summary(main_run["passes"], main_run["classes"])
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = main_run["peak_rss_mb"]
            details["setup_s_runs"] = setups
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    failures = main_run["failures"]
    attempted = main_run["attempted"]
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        fail_ratio=len(failures) / attempted,
        failures=failures[:20],
        env=dict(main_run["env"], loadavg_1m_before=load_before, loadavg_1m_after=os.getloadavg()[0]),
        peak_rss_mb=main_run["peak_rss_mb"],
        **{k: v for k, v in main_run["details"].items()},
    )
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
