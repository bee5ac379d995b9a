"""Fast self-test of the benchmark (about 20 s).

    python3 perfbench/selftest.py

Run it from the root of a checkout.  It shows that the output checks pass
a real output and fail corrupted copies of it, so a corrupted output
counts as a failed operation, and that both kinds of run print every
metric BENCHMARK.json names, with its unit.  Exits 0 when all holds.
"""
import json
import os
import shutil
import subprocess
import sys

import run
import worker
import workloads


def check(condition: bool, what: str, failures: list):
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def rewrite_json(path: str, edit):
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    edit(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def truncate_csv(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])


def check_corruptions(root: str, work: str, failures: list):
    """Real solve16 and sweep8 outputs pass; each corrupted copy fails."""
    worker.import_package(root)
    for name, corruptions in (
        (
            "solve16",
            {
                "plus energy off by 1e-6": lambda d: rewrite_json(
                    os.path.join(d, "solve_report.json"), lambda p: p["plus"].update(energy=p["plus"]["energy"] + 1e-6)
                ),
                "minus not converged": lambda d: rewrite_json(
                    os.path.join(d, "solve_report.json"), lambda p: p["minus"].update(converged=False)
                ),
                "residual above tolerance": lambda d: rewrite_json(
                    os.path.join(d, "solve_report.json"), lambda p: p["plus"]["residual"].update(residual_norm=1e-3)
                ),
                "solution row missing": lambda d: truncate_csv(os.path.join(d, "solution_minus.csv")),
            },
        ),
        (
            "sweep8",
            {
                "lambda_star undetermined": lambda d: rewrite_json(
                    os.path.join(d, "sweep_report.json"), lambda p: p.update(lambda_star_est=None)
                ),
                "tangency flagged": lambda d: rewrite_json(
                    os.path.join(d, "sweep_report.json"), lambda p: p["lambda_hat_evidence"][0].__setitem__(1, True)
                ),
                "sample row missing": lambda d: truncate_csv(os.path.join(d, "sweep_samples.csv")),
            },
        ),
    ):
        config = os.path.join(work, f"{name}.txt")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(workloads.config_text(name, 0))
        op = worker.Operation(name, 0, *worker.setup(config), work)
        out_dir, status = op.run(0)
        copies = {}
        for what, corrupt in corruptions.items():
            copies[what] = shutil.copytree(out_dir, os.path.join(work, f"{name}-{len(copies)}"))
            corrupt(copies[what])
        bad_status = shutil.copytree(out_dir, os.path.join(work, f"{name}-status"))
        problems, digest = op.check((out_dir, status))
        check(not problems, f"{name}: the real output passes ({problems})", failures)
        for what, copy in copies.items():
            bad, bad_digest = op.check((copy, 0))
            check(bool(bad), f"{name}: {what} fails ({bad})", failures)
        bad, _ = op.check((bad_status, 1))
        check(bool(bad), f"{name}: exit status 1 fails ({bad})", failures)
        records = [{"digest": digest, "problems": []}, {"digest": bad_digest, "problems": []}]
        worker.mark_differing_outputs(records)
        check(bool(records[1]["problems"]), f"{name}: output differing from the first operation's fails", failures)

    good = {"lambda_tilde": 1.0, "tangencies": [0] * len(workloads.LAMBDA_GRID), "sobolev": 1.0}
    good["rows"] = [(1.0,) * 9] * workloads.SAMPLES
    check(not workloads.check_sample(good), "sample128: a complete pass passes", failures)
    check(bool(workloads.check_sample(dict(good, rows=good["rows"][1:]))), "sample128: a missing row fails", failures)
    check(
        bool(workloads.check_sample(dict(good, tangencies=[1] + good["tangencies"][1:]))),
        "sample128: a tangency fails",
        failures,
    )


def check_printed_metrics(root: str, failures: list):
    """Both kinds of run print every declared metric with its unit."""
    declared = run.declared_metrics(root)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "sweep8", "--seconds", "0.1"]
            + ["--trace", str(trace)],
            capture_output=True,
            text=True,
            timeout=180,
        )
        check(proc.returncode == 0, f"trace {trace}: exit status 0 ({proc.stderr[-500:]})", failures)
        if proc.returncode != 0:
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"trace {trace}: result keys", failures)
        check(result["correct"] and result["failed"] == 0, f"trace {trace}: no operation failed", failures)
        for m in declared[kind]:
            got = result["metrics"].get(m["name"])
            printed = any(ln.startswith(f"  {m['name']} = ") and ln.endswith(f" {m['unit']}") for ln in lines)
            check(
                got is not None and got["unit"] == m["unit"] and isinstance(got["value"], (int, float)) and printed,
                f"trace {trace}: {m['name']} printed in {m['unit']}",
                failures,
            )
        check(len(result["metrics"]) == len(declared[kind]), f"trace {trace}: no undeclared metric", failures)
        check(any("failed_frac=" in ln for ln in lines), f"trace {trace}: failed_frac printed", failures)


def main() -> int:
    root = os.getcwd()
    work = os.path.join(root, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    failures = []
    os.environ.update(run.SINGLE_THREAD)  # before numpy loads in this process
    try:
        check(run.tail_percentile([1.0] * 10) is None, "tail percentile needs eleven samples", failures)
        check(run.tail_percentile(list(range(20))) == (50.0, 9), "tail percentile of 20 samples is p50", failures)
        check_corruptions(root, work, failures)
        check_printed_metrics(root, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
