import collections
import contextlib
import dataclasses
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doublephase import SolverOptions, critical_exponents, validate_hypotheses
from doublephase.cli import _KEYS, Config, ConfigError, load_config, main, run
from doublephase.fibering import fiber_terms
from doublephase.space import sample_fields
from doublephase.sweep import lambda_tilde_from, sample_fibers

MINIMAL = """
# minimal preset
p = 1.5
q = 1.8
kappa = 0.5
q1 = 4
lambda = 0.1
"""

SMALL_SOLVE = MINIMAL + """
mesh.nx = 4
mesh.ny = 4
sweep.samples = 15
sweep.lambda_grid = 0.02, 0.05
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_fills_preset_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert (cfg.p, cfg.q, cfg.kappa, cfg.q1, cfg.lam) == (1.5, 1.8, 0.5, 4.0, 0.1)
    assert cfg.mu == "x" and cfg.alpha == "1" and cfg.beta == "1" and cfg.zeta == "1"
    assert (cfg.nx, cfg.ny) == (16, 16)
    assert cfg.rect == (0.0, 0.0, 1.0, 1.0)
    assert cfg.solver.max_iter == 20000
    assert cfg == Config(p=1.5, q=1.8, kappa=0.5, q1=4.0, lam=0.1)
    data = cfg.problem()
    assert data.p_star == 6.0


def test_solver_options_are_the_solver_keys():
    # every SolverOptions field is settable from a config file, and nothing else is in it
    keys = {key[len("solver."):] for key in _KEYS if key.startswith("solver.")}
    assert {f.name for f in dataclasses.fields(SolverOptions)} == keys


def test_unknown_key_is_named(tmp_path):
    with pytest.raises(ConfigError, match="qq1"):
        load_config(write(tmp_path, MINIMAL + "qq1 = 4\n"))


def test_expression_parse_error_carries_offset(tmp_path):
    with pytest.raises(ConfigError, match="offset"):
        load_config(write(tmp_path, MINIMAL + 'mu = "x +"\n'))


def test_missing_required_keys(tmp_path):
    with pytest.raises(ConfigError, match="kappa"):
        load_config(write(tmp_path, "p = 1.5\nq = 1.8\nq1 = 4\nlambda = 0.1\n"))


def test_type_error_names_key(tmp_path):
    with pytest.raises(ConfigError, match="'p'"):
        load_config(write(tmp_path, MINIMAL.replace("p = 1.5", "p = abc")))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write(tmp_path, MINIMAL + "p = 1.6\n"))


def test_comments_and_quotes(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL + "mu = '0.5 + 0.5*x'  # inline comment\n"))
    assert cfg.mu == "0.5 + 0.5*x"


def test_validate_command_exit_codes(tmp_path):
    ok = write(tmp_path, SMALL_SOLVE, "ok.cfg")
    assert main(["validate", "-c", ok]) == 0
    bad = write(tmp_path, SMALL_SOLVE.replace("q1 = 4", "q1 = 2.5"), "bad.cfg")
    assert main(["validate", "-c", bad]) == 1
    degenerate = write(tmp_path, SMALL_SOLVE.replace("p = 1.5", "p = 2").replace("q = 1.8", "q = 2.5"), "deg.cfg")
    assert main(["validate", "-c", degenerate]) == 1  # p = N rejected


def test_usage_errors_exit_2(tmp_path):
    assert main(["frobnicate", "-c", "nope.cfg"]) == 2
    assert main(["validate", "-c", str(tmp_path / "missing.cfg")]) == 2
    assert run("frobnicate", Config(p=1.5, q=1.8, kappa=0.5, q1=4.0, lam=0.1)) == 2


@pytest.mark.parametrize("p", ["2", "1"])
def test_p_outside_one_to_n_is_tagged_h_i(tmp_path, capsys, p):
    # 1 < p < N is checked when the problem is built, before any report
    # exists: validate still names the clause, and solve exits 2 with no output
    cfg = write(tmp_path, SMALL_SOLVE.replace("p = 1.5", f"p = {p}").replace("q = 1.8", "q = 2.5"))
    assert main(["validate", "-c", cfg]) == 1
    assert "H(i): need p" in capsys.readouterr().out
    out_dir = tmp_path / "out"
    assert main(["solve", "-c", cfg, "-o", str(out_dir)]) == 2
    assert "H(i)" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_inadmissible_q1_fails_closed(tmp_path, capsys, command):
    # q1 = 2.5 lies below p_* = 3: exit 2 naming the clause, not a traceback
    bad = write(tmp_path, SMALL_SOLVE.replace("q1 = 4", "q1 = 2.5"), "bad.cfg")
    out_dir = tmp_path / "out"
    assert main([command, "-c", bad, "-o", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "H(ii)" in err and "q1=2.5" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_failing_coefficient_is_named_in_the_error(tmp_path, capsys, command):
    # mu = 1/x is not finite on x = 0: exit 2 naming the coefficient's own
    # source, not a --function expression the command does not take
    cfg = write(tmp_path, SMALL_SOLVE + "mu = 1/x\n")
    assert main([command, "-c", cfg, "-o", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'1/x'" in err and "function expression" not in err


@pytest.mark.parametrize("command", ["solve", "sweep"])
@pytest.mark.parametrize(
    "key,value",
    [
        ("sweep.lambda_grid", "0.05, nan"),
        ("sweep.lambda_grid", "0.8, 0.4"),
        ("sweep.lambda_grid", "0.1, 0.1"),
        ("sweep.lambda_grid", ""),
        ("sweep.lambda_grid", "0, 0.1"),
        ("lambda", "nan"),
        ("lambda", "inf"),
        ("rect", "0, 0, inf, 1"),
        ("solver.max_iter", "0"),
        ("solver.stall", "0"),
        ("solver.residual_tol", "0"),
        ("solver.energy_tol", "-1e-10"),
        ("solver.seed", "-1"),
        ("sweep.seed", "-1"),
        ("sweep.samples", "0"),
        ("N", "2"),
    ],
)
def test_bad_config_number_exits_2(tmp_path, capsys, command, key, value):
    # non-finite or out-of-range numbers are config errors naming the key,
    # not NaN in a report, a silent zero-iteration solve or a root failure
    lines = [line for line in SMALL_SOLVE.splitlines() if line.split("=")[0].strip() != key]
    cfg = write(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n", "bad.cfg")
    out_dir = tmp_path / "out"
    assert main([command, "-c", cfg, "-o", str(out_dir)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out_dir.exists()


def test_root_finding_failure_exits_2(tmp_path, monkeypatch, capsys):
    from doublephase import cli
    from doublephase.rootfind import BracketError

    def failing_solve(*args, **kwargs):
        raise BracketError("no sign change")

    monkeypatch.setattr(cli, "solve_two", failing_solve)
    assert main(["solve", "-c", write(tmp_path, SMALL_SOLVE), "-o", str(tmp_path / "out")]) == 2
    assert "no sign change" in capsys.readouterr().err


def test_out_of_memory_exits_2(tmp_path, monkeypatch, capsys):
    # a MemoryError ends in one stderr line and exit 2, not a traceback, and
    # no output directory is made
    from doublephase import cli

    def failing_solve(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "solve_two", failing_solve)
    out_dir = tmp_path / "out"
    assert main(["solve", "-c", write(tmp_path, SMALL_SOLVE), "-o", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("out of memory (MemoryError): ") and err.count("\n") == 1, err
    assert not out_dir.exists()


def with_params(params):
    """SMALL_SOLVE with the keys of ``params`` replaced by its values."""
    lines = [line for line in SMALL_SOLVE.splitlines() if line.split("=")[0].strip() not in params]
    return "\n".join(lines + [f"{k} = {v}" for k, v in params.items()]) + "\n"


# admissible configs on which a trial point of the descent fails numerically
TINY = {"mesh.nx": "3", "mesh.ny": "3", "solver.max_iter": "50"}
TRIAL_FAILURES = {
    # a direction with nodal values ~4.5e10 overflows a power sum in eta
    "eta_overflow": {"p": "1.9", "q": "2.0", "q1": "30", "lambda": "100"},
    # eta(t_circ) is NaN, which reached hybrid_root as a bracket
    "eta_max_nan": {
        **TINY,
        "p": "1.7985886245966929",
        "q": "11.232834975343943",
        "kappa": "0.7368826241840388",
        "q1": "14.748095915500151",
        "lambda": "2.0238350356510635",
        "mu": '"2 - x"',
        "alpha": '"0.5 + y"',
        "beta": '"0"',
        "zeta": '"0.5 + x"',
    },
    # y.P^-1 y is 0 for a curvature pair of the L-BFGS memory, and gamma divides by it
    "lbfgs_zero_curvature": {
        **TINY,
        "p": "1.3784026235468039",
        "q": "2.2817978791579296",
        "kappa": "0.15288449162239076",
        "q1": "3.432259206338388",
        "lambda": "240.1908679337321",
        "mu": '"x"',
        "alpha": '"1"',
        "beta": '"2 - x"',
        "zeta": '"0.5 + x"',
    },
}


@pytest.mark.parametrize("params", TRIAL_FAILURES.values(), ids=TRIAL_FAILURES.keys())
def test_failed_trial_is_rejected_not_fatal(tmp_path, capsys, params):
    # the line search rejects the trial and the solve ends with a report
    path = write(tmp_path, with_params(params))
    out_dir = tmp_path / "out"
    assert main(["solve", "-c", path, "-o", str(out_dir)]) == 1
    assert capsys.readouterr().err == ""
    report = json.load(open(out_dir / "solve_report.json"))
    assert report["sign_ok"] is False


def cli_subprocess(path, command, out_dir):
    """``python -m doublephase command`` in a subprocess, which sees stderr
    as a user does (no numpy warning, no traceback)."""
    import doublephase

    src = os.path.dirname(os.path.dirname(os.path.abspath(doublephase.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "doublephase", command, "-c", path, "-o", str(out_dir)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )


def test_start_overflow_is_a_named_failure(tmp_path):
    # admissible extreme exponents where the power sums overflow at the first
    # projection of two minus starts: those starts are named failures, and the
    # other starts still give the report
    params = {
        **TINY,
        "p": "1.9364062840296652",
        "q": "50.377377322546444",
        "kappa": "0.14618996112340382",
        "q1": "53.74211877250672",
        "lambda": "1.2194093096132692",
        "mu": '"1 + y"',
        "alpha": '"x"',
        "beta": '"1"',
        "zeta": '"1"',
    }
    path = write(tmp_path, with_params(params))
    assert main(["validate", "-c", path]) == 0
    out_dir = tmp_path / "out"
    proc = cli_subprocess(path, "solve", out_dir)
    assert proc.returncode == 1
    assert proc.stderr == ""
    report = json.load(open(out_dir / "solve_report.json"))
    overflowed = [
        entry.split(": ", 1)[0]
        for entry in report["minus_failures"]
        if entry.split(": ", 1)[1].startswith("numerical failure (OverflowError): ")
    ]
    assert overflowed == ["bump", "bump_perturbed"]


def test_solve_report_names_each_merge(tmp_path):
    # each start whose lane joined a lower-energy lane of its branch is one
    # line of that branch's merges, in start order; the picks did not merge
    from doublephase import solve_two

    path = write(tmp_path, SMALL_SOLVE)
    out_dir = tmp_path / "out"
    assert main(["solve", "-c", path, "-o", str(out_dir)]) == 0
    report = json.load(open(out_dir / "solve_report.json"))
    cfg = load_config(path)
    mesh, data = cfg.build_mesh(), cfg.problem()
    want = solve_two(mesh, data, cfg.lam, sample_fields(mesh, data), cfg.solver)
    for branch in ("plus", "minus"):
        assert report[f"{branch}_merges"] == list(getattr(want, f"{branch}_merges")) != []
        assert report[branch]["merged_into"] == "" and report[branch]["stop_reason"] != "merged"
    for line in report["plus_merges"] + report["minus_merges"]:
        assert re.fullmatch(r"\w+: merged into \w+ at iteration \d+", line), line


def test_numerical_overflow_exits_2(tmp_path):
    # eta_tilde's maximum near 1e215 fails the closed-form consistency check
    # in the sweep's sampling: exit 2 with one line on stderr
    path = write(tmp_path, with_params({"p": "1.99", "q": "2.5", "q1": "300", "lambda": "0.1"}))
    assert main(["validate", "-c", path]) == 0
    out_dir = tmp_path / "out"
    proc = cli_subprocess(path, "sweep", out_dir)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("numerical failure") and "eta_tilde maximum mismatch" in lines[0]
    assert not out_dir.exists()


@st.composite
def admissible_configs(draw):
    """3x3 configs that satisfy every hypothesis clause, with 20 descent
    iterations and 10 sweep samples.  Lambda is drawn over 1e-2..10^2.5, or
    just below or just above the config's sampled lambda_tilde, where the
    fibers turn tangent."""
    p = draw(st.floats(min_value=1.05, max_value=1.95))
    p_star, p_lower_star = critical_exponents(p, 2)
    q = p + draw(st.floats(min_value=0.01, max_value=0.99)) * (p_star - p)
    lower = max(q, p_lower_star)
    config = Config(
        p=p,
        q=q,
        kappa=draw(st.floats(min_value=0.01, max_value=0.99)),
        q1=lower + draw(st.floats(min_value=0.01, max_value=0.99)) * (p_star - lower),
        lam=10.0 ** draw(st.floats(min_value=-2.0, max_value=2.5)),
        mu=draw(st.sampled_from(["x", "0", "1 + y", "2 - x", "x*y"])),
        alpha=draw(st.sampled_from(["1", "x", "0.5 + y", "1 + x*y"])),
        beta=draw(st.sampled_from(["1", "0", "2 - x", "x*y"])),
        zeta=draw(st.sampled_from(["1", "0.5 + x", "1 + y"])),
        nx=3,
        ny=3,
        sweep_samples=10,
        solver=SolverOptions(max_iter=20),
    )
    assume(validate_hypotheses(config.problem(), config.build_mesh()).ok)  # rounding at an interval's end
    near = draw(st.sampled_from([None, 1.0 - 1e-6, 1.0 + 1e-6]))
    if near is not None:
        try:  # with the CLI's numpy errors; a failed sampling keeps the drawn lambda
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                mesh, data = config.build_mesh(), config.problem()
                fibers = sample_fibers(mesh, data, config.sweep_samples, config.sweep_seed, sample_fields(mesh, data))
            config = dataclasses.replace(config, lam=near * lambda_tilde_from(fibers))
        except ArithmeticError:
            pass
    return config


@settings(max_examples=15, derandomize=True, deadline=None)
@given(admissible_configs())
def test_solve_ends_in_a_result_or_one_line(config):
    # every admissible config ends in a report whose flags agree: a start
    # that fails numerically is a named failure in it, never an exit 2
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out_dir, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run("solve", config, out_dir)
        report = json.load(open(os.path.join(out_dir, "solve_report.json")))
    assert status in (0, 1)
    assert err.getvalue() == ""
    assert (status == 0) == report["sign_ok"]
    for branch in ("plus", "minus"):
        res = report[branch]
        assert res is None or not (res["converged"] and res["stop_reason"] == "max_iter")


@settings(max_examples=15, derandomize=True, deadline=None)
@given(admissible_configs())
def test_sweep_ends_in_outputs_or_one_line(config):
    # the lambda* search reports a failed minus start as undetermined; only the
    # sampling can still end the sweep, with exit 2, one line and no outputs
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        out_dir = os.path.join(tmp, "out")
        status = run("sweep", config, out_dir)
        written = sorted(os.listdir(out_dir)) if os.path.exists(out_dir) else None
    if status == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure")
        assert written is None
        return
    assert status in (0, 1)
    assert err.getvalue() == ""
    assert written == ["sweep_report.json", "sweep_samples.csv"]


def test_bad_function_expression_exits_2(tmp_path):
    cfg = write(tmp_path, SMALL_SOLVE)
    assert main(["norms", "-c", cfg, "-f", "x +"]) == 2
    # evaluation error on the mesh (division by zero at x = 0 nodes)
    assert main(["norms", "-c", cfg, "-f", "1/x"]) == 2


def test_degenerate_rect_exits_2(tmp_path):
    cfg = write(tmp_path, SMALL_SOLVE + "rect = 0, 0, 0, 1\n", "degrect.cfg")
    assert main(["norms", "-c", cfg]) == 2


SAMPLING_COMMANDS = ["solve", "sweep", "norms", "fiber", "props"]
NARROW_RECT = "0, 0, 1e-200, 1"
HUGE_RECT = "0, 0, 1e154, 1e154"
VAST_RECT = "0, 0, 1e200, 1e200"


@pytest.mark.parametrize(
    "rect, command",
    [pytest.param(NARROW_RECT, c, id=c) for c in SAMPLING_COMMANDS]
    + [pytest.param(HUGE_RECT, c, id=f"huge-{c}") for c in SAMPLING_COMMANDS]
    + [
        pytest.param(rect, c, id=f"{name}-{c}")
        for name, rect in (("wide", "0, 0, 1e200, 1"), ("flat", "0, 0, 1, 1e-200"), ("vast", VAST_RECT))
        for c in ["validate"] + SAMPLING_COMMANDS
    ],
)
def test_a_cell_too_narrow_for_its_weights_is_named(tmp_path, capsys, rect, command):
    # on 4x4, hx = 2.5e-201 puts the gradient weight hx^-q beyond the float
    # range, so sampling the fields fails (validate samples none and passes);
    # hx = hy = 2.5e153 keeps |T| = 3.1e306 a float, but |T| mu hx^-q, with
    # mu = x up to 1e154, is not, so sampling fails there too; hx/hy = 1e200,
    # wide or flat, puts the stencil's (hx/hy)^2 beyond the floats, and hx =
    # hy = 2.5e199 the cell area 0.5 hx hy, so building the mesh fails.
    # Exit 2 with one stderr line that names the cell (and the area or the
    # weight), and no output directory
    cfg = write(tmp_path, SMALL_SOLVE + f"rect = {rect}\n", "cell.cfg")
    out_dir = tmp_path / "out"
    assert main([command, "-c", cfg, "-o", str(out_dir)]) == 2
    lines = capsys.readouterr().err.splitlines()
    names = {NARROW_RECT: ["hx="], HUGE_RECT: ["hx=", "hy=", "weight"], VAST_RECT: ["hx=", "hy=", "area"]}.get(
        rect, ["hx=", "hy="]
    )
    assert len(lines) == 1 and all(name in lines[0] for name in names), lines
    assert not out_dir.exists()
    if rect == HUGE_RECT:
        assert main(["validate", "-c", cfg]) == 0


@pytest.mark.parametrize("side", ["1e100", "1e-100"])
@pytest.mark.parametrize("command", ["props", "sweep"])
def test_a_power_beyond_the_floats_is_named(tmp_path, capsys, command, side):
    # on squares of side 1e100 and 1e-100 the fibers' powers leave the
    # floats: a power sum's t^r, or the closed-form maximizer of eta_tilde.
    # The one stderr line names the power by its base and exponent, or by a
    # and d, never by the bare errno text.  props' own bound |u|^s counts as
    # +inf there, so on the large square it decides its checks instead
    cfg = write(tmp_path, SMALL_SOLVE + f"rect = 0, 0, {side}, {side}\n", "square.cfg")
    status = main([command, "-c", cfg, "-o", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    if (command, side) == ("props", "1e100"):
        assert status in (0, 1) and lines == []
        return
    assert status == 2 and len(lines) == 1, lines
    assert "Numerical result out of range" not in lines[0]
    assert re.search(r"t\^r with t=\S+, r=\S+ |a=\S+, d=\S+ ", lines[0]), lines[0]


def test_norms_command(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_SOLVE)
    assert main(["norms", "-c", cfg, "-f", "1"]) == 0
    out = capsys.readouterr().out
    assert "norm_1p = 1.0" in out
    assert "norm_custom" in out and "norm_star" in out


def test_fiber_command_writes_csv(tmp_path):
    cfg = write(tmp_path, SMALL_SOLVE)
    out_dir = str(tmp_path / "out")
    assert main(["fiber", "-c", cfg, "-o", out_dir, "-f", "1"]) == 0
    lines = open(os.path.join(out_dir, "fiber.csv")).read().splitlines()
    assert lines[0] == "t,psi,dpsi,ddpsi,eta,eta_tilde"
    assert len(lines) == 202


def test_fiber_command_rows_match_the_closed_forms(tmp_path):
    # every row of fiber.csv: psi, psi', psi'', eta and eta_tilde at the row's
    # t, written out from the fiber's five scalars a, b, c, d, e
    cfg = write(tmp_path, MINIMAL)
    out_dir = str(tmp_path / "out")
    assert main(["fiber", "-c", cfg, "-o", out_dir, "-f", "x*y+0.3"]) == 0
    config = load_config(cfg)
    mesh, data = config.build_mesh(), config.problem()
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    ft = fiber_terms(mesh, data, x * y + 0.3, sample_fields(mesh, data))
    a, b, c, d, e = ft.a, ft.b, ft.c, ft.d, ft.e
    p, q, ps, q1, k, lam = data.p, data.q, data.p_lower_star, data.q1, data.kappa, config.lam
    lines = open(os.path.join(out_dir, "fiber.csv")).read().splitlines()
    assert lines[0] == "t,psi,dpsi,ddpsi,eta,eta_tilde" and len(lines) == 202
    for line in lines[1:]:
        t, *got = map(float, line.split(","))
        want = (
            a / p * t**p + b / q * t**q + c / ps * t**ps - d / (1 - k) * t ** (1 - k) - lam * e / q1 * t**q1,
            a * t ** (p - 1) + b * t ** (q - 1) + c * t ** (ps - 1) - d * t**-k - lam * e * t ** (q1 - 1),
            (p - 1) * a * t ** (p - 2) + (q - 1) * b * t ** (q - 2) + (ps - 1) * c * t ** (ps - 2)
            + k * d * t ** (-k - 1) - (q1 - 1) * lam * e * t ** (q1 - 2),
            a * t ** (p - q1) + b * t ** (q - q1) + c * t ** (ps - q1) - d * t ** (1 - q1 - k),
            a * t ** (p - q1) - d * t ** (1 - q1 - k),
        )
        assert got == pytest.approx(want, rel=1e-12), t


def test_solve_command_outputs(tmp_path):
    cfg = write(tmp_path, SMALL_SOLVE)
    out_dir = str(tmp_path / "out")
    assert main(["solve", "-c", cfg, "-o", out_dir]) == 0
    report = json.load(open(os.path.join(out_dir, "solve_report.json")))
    assert report["sign_ok"] is True
    assert report["plus"]["energy"] < 0 < report["minus"]["energy"]
    assert report["plus"]["converged"] and report["minus"]["converged"]
    assert report["plus"]["stop_reason"] == report["minus"]["stop_reason"] == "residual_tol"
    for name in ("solution_plus.csv", "solution_minus.csv"):
        lines = open(os.path.join(out_dir, name)).read().splitlines()
        assert lines[0] == "node,x,y,value"
        assert len(lines) == 1 + 25  # header + nodes of the 4x4 mesh


@pytest.mark.parametrize("command", ["fiber", "solve", "sweep"])
@pytest.mark.parametrize(
    "under, error", [(False, "FileExistsError"), (True, "NotADirectoryError")], ids=["the_file", "under_it"]
)
def test_an_output_path_that_cannot_be_created_exits_2(tmp_path, capsys, monkeypatch, command, under, error):
    # -o naming an existing file, or a path under one: the command exits 2
    # with one stderr line naming the error, not a traceback, and the file
    # is left as it was; solve and sweep exit before any descent or sampling
    from doublephase import cli

    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before the output path was checked")

    for name in ("solve_two", "sample_fibers", "estimate_lambda_star"):
        monkeypatch.setattr(cli, name, no_work)
    cfg = write(tmp_path, SMALL_SOLVE)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out_dir = str(afile / "sub") if under else str(afile)
    assert main([command, "-c", cfg, "-o", out_dir]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"output error ({error}): ") and err.count("\n") == 1, err
    assert afile.read_text() == "kept\n"


def test_sweep_command_outputs(tmp_path):
    cfg = write(tmp_path, SMALL_SOLVE)
    out_dir = str(tmp_path / "out")
    assert main(["sweep", "-c", cfg, "-o", out_dir]) == 0
    report = json.load(open(os.path.join(out_dir, "sweep_report.json")))
    assert report["lambda_tilde_est"] > 0
    assert report["samples"] == 15
    assert len(report["lambda_hat_evidence"]) == 2
    lines = open(os.path.join(out_dir, "sweep_samples.csv")).read().splitlines()
    assert lines[0].startswith("sample,a,b,c,d,e")
    assert len(lines) == 1 + 15


def test_sweep_lambda_tilde_is_the_csv_column_minimum(tmp_path):
    cfg = write(tmp_path, SMALL_SOLVE)
    out_dir = str(tmp_path / "out")
    assert main(["sweep", "-c", cfg, "-o", out_dir]) == 0
    report = json.load(open(os.path.join(out_dir, "sweep_report.json")))
    lines = open(os.path.join(out_dir, "sweep_samples.csv")).read().splitlines()
    col = lines[0].split(",").index("eta_tilde_ratio")
    ratios = [float(line.split(",")[col]) for line in lines[1:] if line.split(",")[col]]
    assert report["lambda_tilde_est"] == min(ratios)


def test_sweep_breaks_down_each_sample_once(tmp_path, monkeypatch):
    from doublephase import cli, sweep

    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        return wrapper

    def counting_rows(fn):
        def wrapper(mesh, data, block, fields):
            calls.extend([1] * len(block))
            return fn(mesh, data, block, fields)

        return wrapper

    # in rows of the batched breakdowns, plus any single breakdown of a sample
    monkeypatch.setattr(sweep, "_fiber_block", counting_rows(sweep._fiber_block))
    monkeypatch.setattr(sweep, "fiber_terms", counting(sweep.fiber_terms))
    monkeypatch.setattr(cli, "fiber_terms", counting(cli.fiber_terms))
    config = load_config(write(tmp_path, SMALL_SOLVE))
    assert run("sweep", config, str(tmp_path / "out")) == 0
    assert len(calls) == config.sweep_samples


def test_sweep_passes_each_sampled_direction_through_lane_terms_once(tmp_path, monkeypatch):
    # with the lambda* search out of the way, the batched breakdowns' rows
    # are the sampled directions, each once, in sample order: the Sobolev
    # estimate reads its numerators from the fiber table, and its
    # multi-starts are no batched rows
    from doublephase import cli, fibering, solver, sweep

    rows = []

    def recording(mesh, data, block, fields):
        rows.extend(row.tobytes() for row in block)
        return lane_terms(mesh, data, block, fields)

    lane_terms = fibering.lane_terms
    for module in (fibering, solver, sweep):
        monkeypatch.setattr(module, "lane_terms", recording)
    monkeypatch.setattr(cli, "estimate_lambda_star", lambda *args: 0.05)
    config = load_config(write(tmp_path, SMALL_SOLVE))  # 4x4, 15 samples
    assert run("sweep", config, str(tmp_path / "out")) == 0
    n = config.sweep_samples
    assert len(rows) == n  # not 2n + 6: a second breakdown of each sample, and the 6 multi-starts
    assert rows == [u.tobytes() for u in sweep.sample_directions(config.build_mesh(), n, config.sweep_seed)]


def test_undetermined_sweep_exits_1_after_writing_both_outputs(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_SOLVE + "solver.max_iter = 1\n")
    out_dir = str(tmp_path / "out")
    assert main(["sweep", "-c", cfg, "-o", out_dir]) == 1
    assert "lambda_star scan: undetermined" in capsys.readouterr().out
    report = json.load(open(os.path.join(out_dir, "sweep_report.json")))
    assert report["lambda_star_est"] is None
    lines = open(os.path.join(out_dir, "sweep_samples.csv")).read().splitlines()
    assert len(lines) == 1 + 15


@pytest.mark.parametrize(
    "grid, extra, status, lam_star, censored, line",
    [
        ("0.02, 0.05", "", 0, 0.05, True, "lambda_star_est >= 0.05 (every grid point positive)"),
        ("1, 2", "", 0, 1.875, False, "lambda_star_est = 1.875"),  # the sign flips between 1 and 2
        ("0.02, 0.05", "solver.max_iter = 1\n", 1, None, False, None),
    ],
    ids=["every_point_positive", "bracketed", "undetermined"],
)
def test_sweep_says_when_lambda_star_is_the_grids_top(grid, extra, status, lam_star, censored, line, tmp_path, capsys):
    cfg = write(tmp_path, SMALL_SOLVE.replace("0.02, 0.05", grid) + extra)
    out_dir = str(tmp_path / "out")
    assert main(["sweep", "-c", cfg, "-o", out_dir]) == status
    report = json.load(open(os.path.join(out_dir, "sweep_report.json")))
    assert report["lambda_star_est"] == lam_star
    assert report["lambda_star_censored"] is censored
    printed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("lambda_star_est")]
    assert printed == ([line] if line else [])


def test_props_command_passes_on_preset(tmp_path):
    cfg = write(tmp_path, SMALL_SOLVE)
    assert main(["props", "-c", cfg]) == 0


def test_props_command_passes_on_a_square_of_side_1e100(tmp_path, capsys):
    # the modular there is about |u|^p to the last bits: the power bounds
    # allow rounding at the scale of the compared values, not an absolute 1e-12
    cfg = write(tmp_path, SMALL_SOLVE + "rect = 0, 0, 1e100, 1e100\n")
    assert main(["props", "-c", cfg]) == 0
    assert capsys.readouterr().out.startswith("modular_norm: pass (200/200, worst=0.000e+00)\n")


def test_each_command_samples_the_fields_once(tmp_path, monkeypatch):
    # the coefficient fields, and with them the hat norms, are built once per
    # command and passed down: neither the descents, the lambda* search nor the
    # estimators rebuild them, and validate builds none.  Every module binding
    # a name counts (imported by path: the package binds ``doublephase.energy``
    # to the function)
    calls = collections.Counter()
    for name in ("cli", "energy", "mesh", "props", "solver", "space", "sweep"):
        module = importlib.import_module(f"doublephase.{name}")
        for fn in ("sample_fields", "hat_grad_power_sum"):
            if hasattr(module, fn):

                def counting(*args, fn=fn, original=getattr(module, fn)):
                    calls[fn] += 1
                    return original(*args)

                monkeypatch.setattr(module, fn, counting)
    config = load_config(write(tmp_path, SMALL_SOLVE))
    for command in ("validate", "norms", "fiber", "props", "solve", "sweep"):
        calls.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(command, config, str(tmp_path / command)) == 0, command
        once = 0 if command == "validate" else 1
        assert calls == collections.Counter(sample_fields=once, hat_grad_power_sum=once), command


def test_solve_and_sweep_outputs_are_byte_identical(tmp_path):
    cfg = write(tmp_path, SMALL_SOLVE)
    dirs = [str(tmp_path / d) for d in ("a", "b")]
    for d in dirs:
        assert main(["solve", "-c", cfg, "-o", d]) == 0
        assert main(["sweep", "-c", cfg, "-o", d]) == 0
    for name in (
        "solve_report.json",
        "solution_plus.csv",
        "solution_minus.csv",
        "sweep_report.json",
        "sweep_samples.csv",
    ):
        a = open(os.path.join(dirs[0], name), "rb").read()
        b = open(os.path.join(dirs[1], name), "rb").read()
        assert a == b, name
