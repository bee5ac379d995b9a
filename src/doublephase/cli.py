"""Config loading, command dispatch and deterministic export formats.

Config files are ``key = value`` lines; ``#`` starts a comment and dotted
keys form sections.  Unknown keys are hard errors.  Exit status: 0 on
success / all-pass, 1 on validation or property failure (and a failed
solve), 2 on usage or config error, including a ``solve``/``sweep`` config
that violates a hypothesis clause, on a numerical failure outside the
descents (an overflow, or a scalar root whose bracket from its power sum's
terms leaves the float range), on an output directory that cannot be
made or written (``-o`` naming a file, or a path under one), and on running
out of memory (MemoryError): one stderr line, never a traceback.  A
start whose descent fails numerically is named in the solve report, not
an exit 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import enum
import errno
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .coeff_expr import CoefficientField, ExprEvalError, ExprParseError, parse_expr
# t_circ, t_tilde_circ, check_nzero_empty, estimate_lambda_tilde, estimate_sobolev_constant: unused; perfbench traces them
from .fibering import eta, eta_tilde, fiber_terms, psi_derivatives, t_circ, t_tilde_circ
from .mesh import build_rect_mesh
from .problem import ProblemData, validate_hypotheses
from .props import run_property_suites
from .solver import SolverOptions, solve_two
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
    sobolev_from,
)

__all__ = ["Config", "ConfigError", "load_config", "run", "main"]

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
        return ProblemData(**{f.name: getattr(self, f.name) for f in dataclasses.fields(ProblemData) if f.init})

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


_NONNEG_INT = _bounded(_parse_int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE_INT = _bounded(_parse_int, lambda v: v >= 1, "an integer >= 1")

# config key -> (the field it sets, its parser).  A "solver.*" key sets the
# SolverOptions field of that name, every other key the Config field; a key
# is required when its Config field has no default
_KEYS = {
    "p": ("p", _parse_float),
    "q": ("q", _parse_float),
    "kappa": ("kappa", _parse_float),
    "q1": ("q1", _parse_float),
    "lambda": ("lam", _parse_float),
    "mu": ("mu", _parse_expr_value),
    "alpha": ("alpha", _parse_expr_value),
    "beta": ("beta", _parse_expr_value),
    "zeta": ("zeta", _parse_expr_value),
    "mesh.nx": ("nx", _parse_int),
    "mesh.ny": ("ny", _parse_int),
    "rect": ("rect", lambda k, v: _parse_float_list(k, v, 4)),
    "solver.energy_tol": ("energy_tol", _bounded(_parse_float, lambda v: v >= 0, "a number >= 0")),
    "solver.stall": ("stall", _POSITIVE_INT),
    "solver.max_iter": ("max_iter", _POSITIVE_INT),
    "solver.residual_tol": ("residual_tol", _bounded(_parse_float, lambda v: v > 0, "a number > 0")),
    "solver.seed": ("seed", _NONNEG_INT),
    "sweep.samples": ("sweep_samples", _POSITIVE_INT),
    "sweep.lambda_grid": (
        "lambda_grid",
        _bounded(
            _parse_float_list,
            lambda g: bool(g) and g[0] > 0 and all(b > a for a, b in zip(g, g[1:])),
            "positive, strictly ascending numbers",
        ),
    ),
    "sweep.seed": ("sweep_seed", _NONNEG_INT),
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
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = _KEYS[key][1](key, value)

    required = {
        f.name
        for f in dataclasses.fields(Config)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    missing = [k for k, (name, _) in _KEYS.items() if name in required and k not in raw]
    if missing:
        raise ConfigError(f"{path}: missing required keys: {', '.join(missing)}")

    solver = {_KEYS[k][0]: v for k, v in raw.items() if k.startswith("solver.")}
    settings = {_KEYS[k][0]: v for k, v in raw.items() if not k.startswith("solver.")}
    return Config(solver=SolverOptions(**solver), **settings)


def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([header, *map(",".join, rows)]) + "\n")


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report_dict(pairs):
    """``asdict`` factory of the solve report: enums by value, no nodal arrays."""
    return {k: v.value if isinstance(v, enum.Enum) else v for k, v in pairs if k != "u"}


def _solution_rows(mesh, u):
    # the repr of ``tolist``'s Python floats is ``_fmt``'s text, with no numpy scalar per value
    for i, ((x, y), v) in enumerate(zip(mesh.nodes.tolist(), u.tolist())):
        yield (str(i), repr(x), repr(y), repr(v))


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
    u = np.array(CoefficientField.compile(function).at(mesh.nodes))
    fields = sample_fields(mesh, data)
    print(f"norm_1p = {_fmt(norm_1p(mesh, data, u, fields))}")
    print(f"norm_custom = {_fmt(norm_custom(mesh, data, u, fields))}")
    print(f"norm_circ = {_fmt(norm_circ(mesh, data, u, fields=fields))}")
    print(f"norm_star = {_fmt(norm_star(mesh, data, u, fields=fields))}")
    return 0


def _cmd_fiber(config: Config, out_dir: str, function: str) -> int:
    data = config.problem()
    mesh = config.build_mesh()
    u = np.array(CoefficientField.compile(function).at(mesh.nodes))
    ft = fiber_terms(mesh, data, u, sample_fields(mesh, data))
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
    """(data, mesh, fields) of a config that satisfies every hypothesis
    clause, with the coefficient fields sampled once for the whole command;
    raises ValueError naming the violated clauses otherwise, because the
    solver's scalar maps lose their monotonicity outside them."""
    data = config.problem()
    mesh = config.build_mesh()
    report = validate_hypotheses(data, mesh)
    if not report.ok:
        raise ValueError("hypotheses violated: " + "; ".join(f"{tag}: {msg}" for tag, msg in report.violations))
    return data, mesh, sample_fields(mesh, data)


def _check_out_dir(out_dir: str) -> None:
    """Raise, creating nothing, the OSError ``os.makedirs(out_dir,
    exist_ok=True)`` would for a file on the path: FileExistsError if
    ``out_dir`` is one, NotADirectoryError if it lies under one."""
    path, below = os.path.normpath(out_dir), None
    while path and not os.path.exists(path):
        path, below = os.path.dirname(path), path
    if path and not os.path.isdir(path):
        code = errno.EEXIST if below is None else errno.ENOTDIR
        raise OSError(code, os.strerror(code), below or out_dir)  # OSError picks the subclass from the code


def _cmd_solve(config: Config, out_dir: str, function: str) -> int:
    data, mesh, fields = _admissible(config)
    _check_out_dir(out_dir)
    report = solve_two(mesh, data, config.lam, fields, config.solver)
    os.makedirs(out_dir, exist_ok=True)
    payload = dict(asdict(report, dict_factory=_report_dict), sign_ok=report.sign_ok)
    _write_json(os.path.join(out_dir, "solve_report.json"), payload)
    for name, res in (("plus", report.plus), ("minus", report.minus)):
        if res is None:
            print(f"{name}: no result (all starts failed)")
            continue
        _write_csv(os.path.join(out_dir, f"solution_{name}.csv"), "node,x,y,value", _solution_rows(mesh, res.u))
        print(f"{name}: energy={_fmt(res.energy)} converged={res.converged} iterations={res.iterations}")
    return 0 if report.sign_ok else 1


def _cmd_sweep(config: Config, out_dir: str, function: str) -> int:
    data, mesh, fields = _admissible(config)
    _check_out_dir(out_dir)
    n = config.sweep_samples
    seed = config.sweep_seed
    fibers = sample_fibers(mesh, data, n, seed, fields)
    lam_tilde = lambda_tilde_from(fibers)
    evidence = [(lam, len(nzero_evidence(fibers, lam).tangencies) > 0) for lam in config.lambda_grid]
    try:
        lam_star = estimate_lambda_star(mesh, data, config.lambda_grid, fields, config.solver)
    except (SweepUndetermined, ValueError) as exc:
        print(f"lambda_star scan: {exc}")
        lam_star = None
    # the search returns the grid's top only when the top is positive (and so
    # every grid point below it), and then lambda* is only bounded from below
    censored = lam_star is not None and lam_star == float(config.lambda_grid[-1])
    if lam_star is not None and lam_star > lam_tilde:
        # soft check: the threshold nesting can be violated by sampling noise
        print(
            f"warning: lambda_star_est {_fmt(lam_star)} exceeds "
            f"lambda_tilde_est {_fmt(lam_tilde)} (sampling artifact)"
        )
    sobolev = sobolev_from(mesh, data, fibers, seed, fields)
    report = SweepReport(lam_tilde, tuple(evidence), lam_star, censored, sobolev, n, seed)
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
    if censored:
        print(f"lambda_star_est >= {_fmt(lam_star)} (every grid point positive)")
    elif lam_star is not None:
        print(f"lambda_star_est = {_fmt(lam_star)}")
    print(f"sobolev_S_est = {_fmt(sobolev)}")
    return 0 if lam_star is not None else 1


def _cmd_props(config: Config, out_dir: str, function: str) -> int:
    data = config.problem()
    mesh = config.build_mesh()
    results = run_property_suites(mesh, data, seed=config.solver.seed)
    for res in results:
        status = "pass" if res.ok else "FAIL"
        print(f"{res.name}: {status} ({res.checked - res.failed}/{res.checked}, worst={res.worst:.3e})")
    return 0 if all(res.ok for res in results) else 1


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
        # a numpy overflow or invalid value raises (FloatingPointError) instead
        # of warning, so it ends as the one-line numerical failure below
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _COMMANDS[command](config, out_dir, function)
    except (ExprParseError, ExprEvalError) as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # unusable configuration (degenerate rectangle, invalid exponents, ...)
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # an overflow (OverflowError, FloatingPointError; a root beyond the
        # float range included), a power sum outside the bracket rule
        # (BracketError) or a failed consistency check at extreme admissible
        # exponents, outside the descents (a failed start is a named failure
        # in the solve report)
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output directory that cannot be made or written
        print(f"output error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an allocation the process cannot have
        print(f"out of memory ({type(exc).__name__}): {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="doublephase",
        description="Singular double phase Neumann problem: norms, fibers, solutions, thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
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
