"""Config loading, command dispatch and deterministic export formats.

Config files are ``key = value`` lines; ``#`` starts a comment and dotted
keys form sections.  Unknown keys are hard errors.  Exit status: 0 on
success / all-pass, 1 on validation or property failure (and a failed
solve), 2 on usage or config error, including a ``solve``/``sweep`` config
that violates a hypothesis clause and a scalar root that cannot be found.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .coeff_expr import CoefficientField, ExprEvalError, ExprParseError, parse_expr
# t_circ, t_tilde_circ, check_nzero_empty, estimate_lambda_tilde: unused; perfbench traces them
from .fibering import eta, eta_tilde, fiber_terms, psi_derivatives, t_circ, t_tilde_circ
from .mesh import build_rect_mesh
from .problem import ProblemData, validate_hypotheses
from .props import run_property_suites
from .rootfind import BracketError
from .solver import NoRootError, SolverOptions, solve_two
from .space import norm_circ, norm_custom, norm_1p, norm_star, sample_fields
from .sweep import (
    SweepReport,
    SweepUndetermined,
    check_nzero_empty,
    estimate_lambda_star,
    estimate_lambda_tilde,
    estimate_sobolev_constant,
    lambda_tilde_from,
    nzero_evidence,
    sample_fibers,
)

__all__ = ["Config", "ConfigError", "load_config", "run", "main"]

COMMANDS = ("validate", "norms", "fiber", "solve", "sweep", "props")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    p: float
    q: float
    kappa: float
    q1: float
    lam: float
    mu: str = "x"
    alpha: str = "1"
    beta: str = "1"
    zeta: str = "1"
    nx: int = 16
    ny: int = 16
    rect: tuple = (0.0, 0.0, 1.0, 1.0)
    solver: SolverOptions = field(default_factory=SolverOptions)
    sweep_samples: int = 200
    lambda_grid: tuple = (0.05, 0.1, 0.2, 0.4, 0.8)
    sweep_seed: int = 0

    def problem(self) -> ProblemData:
        return ProblemData(
            p=self.p,
            q=self.q,
            kappa=self.kappa,
            q1=self.q1,
            lam=self.lam,
            mu=self.mu,
            alpha=self.alpha,
            beta=self.beta,
            zeta=self.zeta,
        )

    def build_mesh(self):
        return build_rect_mesh(self.nx, self.ny, self.rect)


def _strip_quotes(value: str) -> str:
    if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
        return value[1:-1]
    return value


def _parse_float(key, value):
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"key {key!r}: expected a finite number, got {value!r}")
    return number


def _parse_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {value!r}") from None


def _bounded(parse, ok, what):
    """``parse`` followed by a range check ``ok`` described by ``what``."""

    def parse_bounded(key, value):
        number = parse(key, value)
        if not ok(number):
            raise ConfigError(f"key {key!r}: expected {what}, got {value!r}")
        return number

    return parse_bounded


def _parse_expr_value(key, value):
    try:
        parse_expr(value)
    except ExprParseError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None
    return value


def _parse_float_list(key, value, count=None):
    parts = [v.strip() for v in value.split(",") if v.strip()]
    vals = tuple(_parse_float(key, v) for v in parts)
    if count is not None and len(vals) != count:
        raise ConfigError(f"key {key!r}: expected {count} comma-separated numbers, got {len(vals)}")
    return vals


REQUIRED_KEYS = ("p", "q", "kappa", "q1", "lambda")

_KEY_PARSERS = {
    "p": _parse_float,
    "q": _parse_float,
    "kappa": _parse_float,
    "q1": _parse_float,
    "lambda": _parse_float,
    "mu": _parse_expr_value,
    "alpha": _parse_expr_value,
    "beta": _parse_expr_value,
    "zeta": _parse_expr_value,
    "mesh.nx": _parse_int,
    "mesh.ny": _parse_int,
    "rect": lambda k, v: _parse_float_list(k, v, 4),
    "solver.energy_tol": _bounded(_parse_float, lambda v: v >= 0, "a number >= 0"),
    "solver.stall": _bounded(_parse_int, lambda v: v >= 1, "an integer >= 1"),
    "solver.max_iter": _bounded(_parse_int, lambda v: v >= 1, "an integer >= 1"),
    "solver.residual_tol": _bounded(_parse_float, lambda v: v > 0, "a number > 0"),
    "solver.seed": _bounded(_parse_int, lambda v: v >= 0, "an integer >= 0"),
    "sweep.samples": _bounded(_parse_int, lambda v: v >= 1, "an integer >= 1"),
    "sweep.lambda_grid": _bounded(
        _parse_float_list,
        lambda g: bool(g) and g[0] > 0 and all(b > a for a, b in zip(g, g[1:])),
        "positive, strictly ascending numbers",
    ),
    "sweep.seed": _bounded(_parse_int, lambda v: v >= 0, "an integer >= 0"),
}

# the Config field of each key whose name differs from it; a "solver.*" key
# sets the SolverOptions field named by its suffix, every other key the
# Config field of its own name
_CONFIG_FIELDS = {
    "lambda": "lam",
    "mesh.nx": "nx",
    "mesh.ny": "ny",
    "sweep.samples": "sweep_samples",
    "sweep.lambda_grid": "lambda_grid",
    "sweep.seed": "sweep_seed",
}


def load_config(path: str) -> Config:
    """Parse a config file; unknown keys, missing required keys, type errors
    and expression parse errors are all ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None

    raw = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = _strip_quotes(value.strip())
        if key not in _KEY_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = _KEY_PARSERS[key](key, value)

    missing = [k for k in REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    solver = {k[len("solver."):]: v for k, v in raw.items() if k.startswith("solver.")}
    settings = {_CONFIG_FIELDS.get(k, k): v for k, v in raw.items() if not k.startswith("solver.")}
    return Config(solver=SolverOptions(**solver), **settings)


def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _nehari_dict(nc):
    return {"kind": nc.kind.value, "dpsi1": nc.dpsi1, "ddpsi1": nc.ddpsi1, "tol": nc.tol}


def _result_dict(res):
    if res is None:
        return None
    return {
        "energy": res.energy,
        "nehari": _nehari_dict(res.nehari),
        "residual": None
        if res.residual is None
        else {"residual_norm": res.residual.residual_norm, "term_max": res.residual.term_max},
        "iterations": res.iterations,
        "floor_activations": res.floor_activations,
        "converged": res.converged,
        "stop_reason": res.stop_reason.value,
        "branch": res.branch,
        "start": res.start,
    }


def _solution_rows(mesh, u):
    for i in range(mesh.num_nodes):
        yield (str(i), _fmt(mesh.nodes[i, 0]), _fmt(mesh.nodes[i, 1]), _fmt(u[i]))


def _function_values(mesh, source: str):
    fld = CoefficientField.compile(source)
    vals = np.broadcast_to(
        np.asarray(fld(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float),
        mesh.nodes[:, 0].shape,
    )
    return np.array(vals, dtype=float)


def _cmd_validate(config: Config, out_dir: str, function: str) -> int:
    try:
        data = config.problem()
    except ValueError as exc:
        print(f"invalid problem parameters: {exc}")
        return 1
    mesh = config.build_mesh()
    report = validate_hypotheses(data, mesh)
    print(report)
    return 0 if report.ok else 1


def _cmd_norms(config: Config, out_dir: str, function: str) -> int:
    data = config.problem()
    mesh = config.build_mesh()
    u = _function_values(mesh, function)
    fields = sample_fields(mesh, data)
    print(f"norm_1p = {_fmt(norm_1p(mesh, data, u, fields))}")
    print(f"norm_custom = {_fmt(norm_custom(mesh, data, u, fields))}")
    print(f"norm_circ = {_fmt(norm_circ(mesh, data, u, fields=fields))}")
    print(f"norm_star = {_fmt(norm_star(mesh, data, u, fields=fields))}")
    return 0


def _cmd_fiber(config: Config, out_dir: str, function: str) -> int:
    data = config.problem()
    mesh = config.build_mesh()
    u = _function_values(mesh, function)
    ft = fiber_terms(mesh, data, u)
    lam = config.lam
    rows = []
    for t in np.logspace(-2, 2, 201):
        val, d1, d2 = psi_derivatives(ft, lam, float(t))
        rows.append(
            (
                _fmt(t),
                _fmt(val),
                _fmt(d1),
                _fmt(d2),
                _fmt(eta(ft, float(t))),
                _fmt(eta_tilde(ft, float(t))),
            )
        )
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, "fiber.csv"), "t,psi,dpsi,ddpsi,eta,eta_tilde", rows)
    print(f"wrote {os.path.join(out_dir, 'fiber.csv')}")
    return 0


def _admissible(config: Config):
    """(data, mesh) of a config that satisfies every hypothesis clause;
    raises ValueError naming the violated clauses otherwise, because the
    solver's scalar maps lose their monotonicity outside them."""
    data = config.problem()
    mesh = config.build_mesh()
    report = validate_hypotheses(data, mesh)
    if not report.ok:
        raise ValueError("hypotheses violated: " + "; ".join(f"{tag}: {msg}" for tag, msg in report.violations))
    return data, mesh


def _cmd_solve(config: Config, out_dir: str, function: str) -> int:
    data, mesh = _admissible(config)
    report = solve_two(mesh, data, config.lam, config.solver)
    os.makedirs(out_dir, exist_ok=True)
    if report.plus is not None:
        _write_csv(
            os.path.join(out_dir, "solution_plus.csv"),
            "node,x,y,value",
            _solution_rows(mesh, report.plus.u),
        )
    if report.minus is not None:
        _write_csv(
            os.path.join(out_dir, "solution_minus.csv"),
            "node,x,y,value",
            _solution_rows(mesh, report.minus.u),
        )
    payload = {
        "lam": report.lam,
        "plus": _result_dict(report.plus),
        "minus": _result_dict(report.minus),
        "plus_failures": list(report.plus_failures),
        "minus_failures": list(report.minus_failures),
        "sign_ok": report.sign_ok,
    }
    _write_json(os.path.join(out_dir, "solve_report.json"), payload)
    for name, res in (("plus", report.plus), ("minus", report.minus)):
        if res is None:
            print(f"{name}: no result (all starts failed)")
        else:
            print(
                f"{name}: energy={_fmt(res.energy)} converged={res.converged} "
                f"iterations={res.iterations}"
            )
    return 0 if report.sign_ok else 1


def _cmd_sweep(config: Config, out_dir: str, function: str) -> int:
    data, mesh = _admissible(config)
    fields = sample_fields(mesh, data)
    n = config.sweep_samples
    seed = config.sweep_seed
    fibers = sample_fibers(mesh, data, n, seed, fields)
    lam_tilde = lambda_tilde_from(fibers)
    evidence = [(lam, len(nzero_evidence(fibers, lam).tangencies) > 0) for lam in config.lambda_grid]
    try:
        lam_star = estimate_lambda_star(mesh, data, config.lambda_grid, config.solver)
    except (SweepUndetermined, ValueError) as exc:
        print(f"lambda_star scan: {exc}")
        lam_star = None
    if lam_star is not None and lam_star > lam_tilde:
        # soft check: the threshold nesting can be violated by sampling noise
        print(
            f"warning: lambda_star_est {_fmt(lam_star)} exceeds "
            f"lambda_tilde_est {_fmt(lam_tilde)} (sampling artifact)"
        )
    sobolev = estimate_sobolev_constant(mesh, data, n, seed, fields=fields)
    report = SweepReport(lam_tilde, tuple(evidence), lam_star, sobolev, n, seed)
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "sweep_report.json"), asdict(report))

    rows = []
    for i, f in enumerate(fibers):
        ft = f.terms
        row = [str(i)] + [_fmt(v) for v in (ft.a, ft.b, ft.c, ft.d, ft.e)]
        if f.eta_max is None:
            row += [""] * 4
        else:
            row += [_fmt(v) for v in (f.t_tilde, f.eta_tilde_max / ft.e, f.t_circ, f.eta_max / ft.e)]
        rows.append(row)
    _write_csv(
        os.path.join(out_dir, "sweep_samples.csv"),
        "sample,a,b,c,d,e,t_tilde_circ,eta_tilde_ratio,t_circ,eta_max_ratio",
        rows,
    )
    print(f"lambda_tilde_est = {_fmt(lam_tilde)}")
    if lam_star is not None:
        print(f"lambda_star_est = {_fmt(lam_star)}")
    print(f"sobolev_S_est = {_fmt(sobolev)}")
    return 0 if lam_star is not None else 1


def _cmd_props(config: Config, out_dir: str, function: str) -> int:
    data = config.problem()
    mesh = config.build_mesh()
    results = run_property_suites(mesh, data, seed=config.solver.seed)
    any_failed = False
    for res in results:
        status = "pass" if res.ok else "FAIL"
        print(f"{res.name}: {status} ({res.checked - res.failed}/{res.checked}, worst={res.worst:.3e})")
        any_failed = any_failed or not res.ok
    return 1 if any_failed else 0


_COMMANDS = {
    "validate": _cmd_validate,
    "norms": _cmd_norms,
    "fiber": _cmd_fiber,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "props": _cmd_props,
}


def run(command: str, config: Config, out_dir: str = "out", function: str = "1") -> int:
    """Dispatch one command against a loaded config; returns the exit status."""
    if command not in _COMMANDS:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[command](config, out_dir, function)
    except (ExprParseError, ExprEvalError) as exc:
        print(f"function expression error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # unusable configuration (degenerate rectangle, invalid exponents, ...)
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, NoRootError) as exc:
        print(f"scalar root finding failed: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="doublephase",
        description="Singular double phase Neumann problem: norms, fibers, solutions, thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", "-c", required=True, help="path to a key = value config file")
        p.add_argument("--out", "-o", default="out", help="output directory (default: out)")
        if name in ("norms", "fiber"):
            p.add_argument(
                "--function",
                "-f",
                default="1",
                help="expression in x, y sampled at mesh nodes (default: 1)",
            )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    function = getattr(args, "function", "1")
    return run(args.command, config, args.out, function)


if __name__ == "__main__":
    sys.exit(main())
