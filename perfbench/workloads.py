"""Workloads of the benchmark: the generated configs and the output checks.

Every workload is the paper preset p=1.5, q=1.8, kappa=0.5, q1=4, mu=x,
alpha=beta=zeta=1.  The workload seed goes into the generated config's
``solver.seed`` and ``sweep.seed``; the program sees nothing else of it.
This module imports no numpy, so the harness can use it before any
numerical library is loaded.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in RATIONALE.md.
"""
import hashlib
import json
import os

LAMBDA = 0.1
SAMPLES = 200
LAMBDA_GRID = (0.05, 0.1, 0.2, 0.4, 0.8)

# kind: "solve" runs ``cli.run("solve")``, "sweep" runs ``cli.run("sweep")``,
# "sample" runs the sweep's sampling estimators without the lambda* scan.
# ``energies`` are the plus/minus branch energies the solve must reproduce;
# they do not depend on the workload seed.
WORKLOADS = {
    "solve16": {"kind": "solve", "n": 16, "energies": (-1.0213193886684993, 46.58757405007116)},
    "solve32": {"kind": "solve", "n": 32, "energies": (-1.021328481937289, 46.982860512973886)},
    "sweep8": {"kind": "sweep", "n": 8},
    "sample128": {"kind": "sample", "n": 128},
}


def config_text(workload: str, seed: int) -> str:
    """The config file the program reads for ``workload`` at ``seed``."""
    n = WORKLOADS[workload]["n"]
    grid = ",".join(repr(v) for v in LAMBDA_GRID)
    return (
        "p = 1.5\nq = 1.8\nkappa = 0.5\nq1 = 4\n"
        f"lambda = {LAMBDA!r}\n"
        'mu = "x"\nalpha = "1"\nbeta = "1"\nzeta = "1"\n'
        f"mesh.nx = {n}\nmesh.ny = {n}\n"
        f"solver.seed = {seed}\n"
        f"sweep.samples = {SAMPLES}\nsweep.lambda_grid = {grid}\nsweep.seed = {seed}\n"
    )


def digest_dir(out_dir: str) -> str:
    """SHA-256 over the names and bytes of every file in ``out_dir``."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _load_json(path: str, problems: list):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable {os.path.basename(path)}: {exc}")
        return None


def _csv_rows(path: str, problems: list) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            return sum(1 for _ in fh) - 1
    except OSError as exc:
        problems.append(f"unreadable {os.path.basename(path)}: {exc}")
        return -1


def check_solve(out_dir: str, workload: str, residual_tol: float, energy_tol: float) -> list:
    """Problems with a ``solve`` output; an empty list means it passed.

    Both branches converged, weak residuals within ``residual_tol``,
    energies of opposite sign and equal to the reference energies within
    the solver's relative ``energy_tol``, and one CSV row per mesh node.
    """
    problems = []
    n = WORKLOADS[workload]["n"]
    report = _load_json(os.path.join(out_dir, "solve_report.json"), problems)
    if report is None:
        return problems
    for branch, ref in zip(("plus", "minus"), WORKLOADS[workload]["energies"]):
        res = report.get(branch)
        if not isinstance(res, dict):
            problems.append(f"{branch}: no result")
            continue
        if res.get("converged") is not True:
            problems.append(f"{branch}: not converged")
        resid = (res.get("residual") or {}).get("residual_norm")
        if not isinstance(resid, (int, float)) or not resid <= residual_tol:
            problems.append(f"{branch}: residual {resid!r} above {residual_tol!r}")
        energy = res.get("energy")
        if not isinstance(energy, (int, float)) or not abs(energy - ref) <= energy_tol * max(1.0, abs(ref)):
            problems.append(f"{branch}: energy {energy!r} differs from {ref!r}")
    if report.get("sign_ok") is not True:
        problems.append("energies not of opposite sign")
    for branch in ("plus", "minus"):
        rows = _csv_rows(os.path.join(out_dir, f"solution_{branch}.csv"), problems)
        if rows >= 0 and rows != (n + 1) ** 2:
            problems.append(f"solution_{branch}.csv: {rows} rows, expected {(n + 1) ** 2}")
    return problems


def check_sweep(out_dir: str) -> list:
    """Problems with a ``sweep`` output: lambda* must be determined, no
    tangency flagged at any grid lambda, and one CSV row per sample."""
    problems = []
    report = _load_json(os.path.join(out_dir, "sweep_report.json"), problems)
    if report is not None:
        if not isinstance(report.get("lambda_star_est"), (int, float)):
            problems.append("lambda_star_est undetermined")
        evidence = report.get("lambda_hat_evidence")
        if not isinstance(evidence, list) or len(evidence) != len(LAMBDA_GRID):
            problems.append(f"lambda_hat_evidence malformed: {evidence!r}")
        elif any(found is not False for _, found in evidence):
            problems.append("tangency flagged")
        if report.get("samples") != SAMPLES:
            problems.append(f"samples {report.get('samples')!r}, expected {SAMPLES}")
    rows = _csv_rows(os.path.join(out_dir, "sweep_samples.csv"), problems)
    if rows >= 0 and rows != SAMPLES:
        problems.append(f"sweep_samples.csv: {rows} rows, expected {SAMPLES}")
    return problems


def check_sample(result: dict) -> list:
    """Problems with one sampling pass (see ``worker.sample_pass``)."""
    problems = []
    if len(result["rows"]) != SAMPLES:
        problems.append(f"{len(result['rows'])} sample rows, expected {SAMPLES}")
    if any(result["tangencies"]):
        problems.append("tangency flagged")
    if not result["lambda_tilde"] > 0:
        problems.append(f"lambda_tilde {result['lambda_tilde']!r} not positive")
    return problems
