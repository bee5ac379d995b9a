"""Benchmark of the config -> minimizers -> thresholds path of doublephase.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``doublephase`` from
``src/`` there and writes only under ``.bench_work/`` there.  Workloads
(see workloads.py and RATIONALE.md): solve16, solve32, sweep8, sample128;
``--workload all`` runs the four in turn and keys its final metrics
``<workload>.<metric>``.

With ``--trace 0`` it measures the end-to-end metrics: the median time of
one operation and the median set-up time of several fresh processes, both
normalized to the machine's current speed (see ``worker.reference_s``),
and the peak resident memory of the process that ran the operations.  The
raw wall times are printed beside them.
With ``--trace 1`` it measures the per-layer metrics from spans recorded
around the package's public functions, plus the tracing overhead.  Every
operation's output is checked.  The metric names, units and directions
are those of BENCHMARK.json; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

The operations run in one child process, one at a time (closed loop),
with OpenBLAS/OpenMP pinned to one thread before numpy loads; no two
workloads ever run at once.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 7     # fresh processes timed for setup_s
DEADLINE_S = 170.0   # the whole run ends within 180 s
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def worker(argv: list, deadline: float) -> dict:
    """Run worker.py with ``argv``; its last stdout line, parsed."""
    env = dict(os.environ, **SINGLE_THREAD)
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER] + argv, capture_output=True, text=True, env=env, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv[0]} exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {argv[0]} failed with status {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values: list):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def timing_line(name: str, values: list) -> str:
    """Median, tail percentile and count of one timing, then every sample."""
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]:.0f}={tail[1]:.4f} s" if tail else "tail n/a (fewer than 11 samples)"
    samples = " ".join(f"{v:.3f}" for v in values)
    return f"{name} median={statistics.median(values):.4f} s {tail_text} n={len(values)} [{samples}]"


def declared_metrics(root: str) -> dict:
    """``{"end_to_end": [...], "per_layer": [...]}`` from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {key: bench[key] for key in ("end_to_end", "per_layer")}


def measure(args, workload: str, root: str, run_dir: str, deadline: float) -> tuple:
    """Run the probes and the operations; (worker result, setup samples)."""
    config = os.path.join(run_dir, "config.txt")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(workloads.config_text(workload, args.seed))
    common = ["--root", root, "--config", config]
    setups = []
    if not args.trace:
        setups = [worker(["setup"] + common, deadline) for _ in range(SETUP_PROBES)]
    spans = os.path.join(root, ".bench_work", f"spans-{workload}-seed{args.seed}.csv.gz")
    result = worker(
        ["ops"]
        + common
        + ["--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        + ["--trace", str(args.trace), "--workdir", run_dir, "--spans", spans],
        deadline,
    )
    return result, setups


def run_workload(args, workload: str, root: str, declared: dict) -> dict:
    """Measure one workload and print its metrics; the result object."""
    deadline = perf_counter() + DEADLINE_S
    run_dir = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)  # left by a killed run with this pid
    os.makedirs(run_dir)
    try:
        result, setups = measure(args, workload, root, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = result["ops"]
    failed = [op for op in ops if op["problems"]]
    for op in failed:
        print(f"{workload} operation {op['op']} failed: {'; '.join(op['problems'])}", file=sys.stderr)
    print(f"workload={workload} seed={args.seed} trace={args.trace} machine={json.dumps(result['machine'])}")
    for key in ("wall_s", "norm_s"):
        print(timing_line(key, [op[key] for op in ops]))
    print(f"failed_frac={len(failed) / len(ops):.4f} ({len(failed)}/{len(ops)})")
    if args.trace:
        values = result["per_layer"]
        declared_list = declared["per_layer"]
    else:
        print(timing_line("setup_s raw", [p["setup_s"] for p in setups]))
        values = {
            "wall_norm_s": statistics.median(op["norm_s"] for op in ops),
            "setup_s": statistics.median(p["norm_s"] for p in setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        declared_list = declared["end_to_end"]
    if sorted(m["name"] for m in declared_list) != sorted(values):
        raise BenchError(f"measured metrics {sorted(values)} differ from those BENCHMARK.json declares")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_list}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    return {"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "doublephase", "__init__.py")):
        print(f"error: {root} holds no src/doublephase; run from the root of a checkout", file=sys.stderr)
        return 2
    declared = declared_metrics(root)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name, root, declared)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    # every workload in turn: metrics keyed "<workload>.<metric>"
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
