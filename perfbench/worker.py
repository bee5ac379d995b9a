"""The measured side of a benchmark run, in a process of its own.

    python3 perfbench/worker.py setup --root ROOT --config FILE
    python3 perfbench/worker.py ops --root ROOT --config FILE --workload NAME \
        --seed N --seconds S --trace 0|1 --workdir DIR

``setup`` times what a user pays once: ``import doublephase``,
``cli.load_config``, the mesh build and ``sample_fields``.  ``ops`` sets up
the same way, then runs the workload's operation closed loop, one at a
time, for about S seconds (S/2 untraced and S/2 traced with
``--trace 1``), and checks every output.  Both print one JSON object as
their last line.  The harness (run.py) pins the BLAS thread count before
this process starts.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import workloads

SETUP_REPEATS = 3  # traced set-ups per traced run
REF_SECONDS = 0.1  # the reference kernel's time at the speed normalized times are quoted in


def reference_s() -> float:
    """Seconds a fixed kernel takes now; it runs none of the program's code.

    The machine's speed drifts by up to 1.5x for tens of seconds at a time
    (other tenants share its cores), and every timing drifts with it.
    Dividing a timing by this kernel's, measured next to it, cancels the
    drift.  The kernel mixes the program's kinds of work: scalar powers
    like the root finders', numpy work on 1089-element arrays like the
    solver's nodal kernels, and on 16641-element arrays like the 128x128
    modular breakdown.
    """
    import numpy as np

    small = np.linspace(0.1, 2.0, 1089)
    big = np.linspace(0.1, 2.0, 16641)
    t0 = perf_counter()
    x = 0.0
    for i in range(1, 250_000):
        t = i * 1e-4
        x += t**1.5 - t**-0.5
    for i in range(2000):
        x += float(np.hypot(small, small + i) ** 1.3 @ small)
    for i in range(400):
        x += float(np.abs(big + i) ** 1.5 @ big)
    return perf_counter() - t0


def import_package(root: str):
    """Import ``doublephase`` from ``ROOT/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import doublephase

    if os.path.dirname(os.path.dirname(os.path.abspath(doublephase.__file__))) != os.path.abspath(src):
        raise ImportError(f"doublephase imported from {doublephase.__file__}, not from {src}")
    return doublephase


def setup(config_path: str):
    """Load the config, build the mesh and sample the coefficient fields."""
    from doublephase import cli, space

    cfg = cli.load_config(config_path)
    mesh = cfg.build_mesh()
    fields = space.sample_fields(mesh, cfg.problem())
    return cfg, mesh, fields


def sample_pass(mesh, data, fields, seed: int) -> dict:
    """One full sampling pass of the sweep's estimators, without the
    lambda* scan: lambda_tilde, the tangency scan at every grid lambda, the
    embedding constant and the per-sample rows of ``sweep_samples.csv``."""
    from doublephase import fibering, sweep

    n = workloads.SAMPLES
    lambda_tilde = sweep.estimate_lambda_tilde(mesh, data, n, seed, fields)
    tangencies = [
        len(sweep.check_nzero_empty(mesh, data, lam, n, seed, fields).tangencies)
        for lam in workloads.LAMBDA_GRID
    ]
    sobolev = sweep.estimate_sobolev_constant(mesh, data, n, seed, fields=fields)
    rows = []
    for u in sweep.sample_directions(mesh, n, seed):
        ft = fibering.fiber_terms(mesh, data, u, fields)
        row = (ft.a, ft.b, ft.c, ft.d, ft.e)
        if ft.a > 0 and ft.d > 0 and ft.e > 0:
            tt, et_max = fibering.t_tilde_circ(ft)
            tc = fibering.t_circ(ft)
            row += (tt, et_max / ft.e, tc, fibering.eta(ft, tc) / ft.e)
        rows.append(row)
    return {"lambda_tilde": lambda_tilde, "tangencies": tangencies, "sobolev": sobolev, "rows": rows}


class Operation:
    """One workload operation: ``run(k)`` is timed, ``check(out)`` is not."""

    def __init__(self, workload, seed, cfg, mesh, fields, workdir):
        self.workload = workload
        self.kind = workloads.WORKLOADS[workload]["kind"]
        self.seed = seed
        self.cfg, self.mesh, self.fields = cfg, mesh, fields
        self.data = cfg.problem()
        self.workdir = workdir

    def run(self, k: int):
        if self.kind == "sample":
            return sample_pass(self.mesh, self.data, self.fields, self.seed)
        from doublephase import cli

        out_dir = os.path.join(self.workdir, f"op{k}")
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.run(self.kind, self.cfg, out_dir)
        return out_dir, status

    def check(self, out) -> tuple:
        """(problems, digest of the outputs)."""
        if self.kind == "sample":
            return workloads.check_sample(out), hashlib.sha256(repr(out).encode()).hexdigest()
        out_dir, status = out
        problems = [] if status == 0 else [f"exit status {status}"]
        if os.path.isdir(out_dir):
            if self.kind == "solve":
                opts = self.cfg.solver
                problems += workloads.check_solve(out_dir, self.workload, opts.residual_tol, opts.energy_tol)
            else:
                problems += workloads.check_sweep(out_dir)
            digest = workloads.digest_dir(out_dir)
            shutil.rmtree(out_dir)
        else:
            problems.append("no output directory")
            digest = None
        return problems, digest


def run_ops(op: Operation, budget: float, first: int, tracer=None) -> list:
    """Run operations closed loop, one at a time, while the next one is
    expected to end within ``budget`` seconds (at least one operation);
    one record per operation.  The reference kernel runs before the first
    operation and after each one; ``norm_s`` is the wall time divided by
    the mean of the two reference times around it, in REF_SECONDS units."""
    records = []
    start = perf_counter()
    ref_before = reference_s()
    k = first
    while not records or perf_counter() - start + statistics.median(r["wall_s"] for r in records) <= budget:
        if tracer is not None:
            tracer.begin_op(k)
        t0 = perf_counter()
        try:
            out = op.run(k)
            wall = perf_counter() - t0
            problems, digest = op.check(out)
        except Exception:
            wall = perf_counter() - t0
            problems, digest = [traceback.format_exc(limit=3).strip()], None
        ref_after = reference_s()
        norm = wall * REF_SECONDS / (0.5 * (ref_before + ref_after))
        ref_before = ref_after
        rec = {"op": k, "wall_s": wall, "norm_s": norm, "problems": problems, "digest": digest}
        if tracer is not None:
            rec["counts"] = tracer.end_op()
        records.append(rec)
        k += 1
    return records


def mark_differing_outputs(records: list):
    """Outputs of one config and seed must be byte-identical: an operation
    whose digest differs from the first operation's fails."""
    first = records[0]["digest"]
    for rec in records[1:]:
        if rec["digest"] != first:
            rec["problems"].append("output differs from the first operation's")


def machine_facts() -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        facts["cpu"] = None
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
        facts["cache_bytes"] = {
            parts[0]: parts[1] for parts in (ln.split() for ln in out.splitlines()) if len(parts) == 2 and "CACHE_SIZE" in parts[0]
        }
    except (OSError, subprocess.SubprocessError):
        facts["cache_bytes"] = None
    return facts


def cmd_setup(args) -> dict:
    t0 = perf_counter()
    import_package(args.root)
    setup(args.config)
    setup_s = perf_counter() - t0
    reference_s()  # warm-up
    return {"setup_s": setup_s, "norm_s": setup_s * REF_SECONDS / reference_s()}


def traced_ops(op: Operation, args) -> tuple:
    """Half the time untraced, then traced set-ups and half the time traced;
    (records of every operation, per-layer metrics)."""
    import tracing

    untraced = run_ops(op, args.seconds / 2, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        setup_rows = []
        for i in range(SETUP_REPEATS):
            tracer.begin_op(-1 - i)
            setup(args.config)
            setup_rows.append(tracing.setup_metrics(tracing.span_totals(tracer.spans, -1 - i)[0]))
        traced = run_ops(op, args.seconds / 2, len(untraced), tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(args.spans)

    layer_rows = []
    for rec in traced:
        totals, breakdowns = tracing.span_totals(tracer.spans, rec["op"])
        layer_rows.append(
            tracing.layer_metrics(
                totals, breakdowns, rec["counts"], op.kind, workloads.SAMPLES, op.mesh.num_nodes, op.mesh.num_triangles
            )
        )
        # counts must repeat exactly between operations of one config and seed
        rec["counts"].update((name + ".calls", entry[0]) for name, entry in totals.items())
        if rec["counts"] != traced[0]["counts"]:
            rec["problems"].append("traced counts differ from the first traced operation's")
    for rec in traced:
        del rec["counts"]
    per_layer = tracing.median_metrics(setup_rows)
    per_layer.update(tracing.median_metrics(layer_rows))
    untraced_wall = statistics.median(r["norm_s"] for r in untraced)
    traced_wall = statistics.median(r["norm_s"] for r in traced)
    per_layer["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return untraced + traced, per_layer


def cmd_ops(args) -> dict:
    import_package(args.root)
    op = Operation(args.workload, args.seed, *setup(args.config), args.workdir)
    result = {"machine": machine_facts()}
    reference_s()  # warm-up
    if args.trace:
        records, result["per_layer"] = traced_ops(op, args)
    else:
        records = run_ops(op, args.seconds, 0)
    mark_differing_outputs(records)
    result["ops"] = records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=("setup", "ops"))
    ap.add_argument("--root", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--spans", help="where --trace 1 writes every span (gzip CSV)")
    args = ap.parse_args(argv)
    result = cmd_setup(args) if args.mode == "setup" else cmd_ops(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
