import dataclasses
import json
import os
import subprocess
import sys

import pytest

from doublephase import SolverOptions
from doublephase.cli import _KEY_PARSERS, Config, ConfigError, load_config, main, run

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
    keys = {key[len("solver."):] for key in _KEY_PARSERS if key.startswith("solver.")}
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


@pytest.mark.parametrize(
    "command,params,error",
    [
        # a power sum overflows in the fiber map eta during the descent
        ("solve", {"p": "1.9", "q": "2.0", "q1": "30", "lambda": "100"}, "OverflowError"),
        # eta_tilde's maximum near 1e215 fails the closed-form consistency check
        ("sweep", {"p": "1.99", "q": "2.5", "q1": "300", "lambda": "0.1"}, "eta_tilde maximum mismatch"),
    ],
)
def test_numerical_overflow_exits_2(tmp_path, command, params, error):
    # admissible extreme exponents: exit 2 with a one-line message, not a
    # traceback.  A subprocess sees stderr as a user does; in-process,
    # numpy's overflow warning would be raised as a test error first
    import doublephase

    lines = [line for line in SMALL_SOLVE.splitlines() if line.split("=")[0].strip() not in params]
    path = write(tmp_path, "\n".join(lines + [f"{k} = {v}" for k, v in params.items()]) + "\n")
    assert main(["validate", "-c", path]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(doublephase.__file__)))
    out_dir = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "doublephase", command, "-c", path, "-o", str(out_dir)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    last = proc.stderr.splitlines()[-1]
    assert last.startswith("numerical failure") and error in last
    assert not out_dir.exists()


def test_bad_function_expression_exits_2(tmp_path):
    cfg = write(tmp_path, SMALL_SOLVE)
    assert main(["norms", "-c", cfg, "-f", "x +"]) == 2
    # evaluation error on the mesh (division by zero at x = 0 nodes)
    assert main(["norms", "-c", cfg, "-f", "1/x"]) == 2


def test_degenerate_rect_exits_2(tmp_path):
    cfg = write(tmp_path, SMALL_SOLVE + "rect = 0, 0, 0, 1\n", "degrect.cfg")
    assert main(["norms", "-c", cfg]) == 2


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

    monkeypatch.setattr(sweep, "fiber_terms", counting(sweep.fiber_terms))
    monkeypatch.setattr(cli, "fiber_terms", counting(cli.fiber_terms))
    config = load_config(write(tmp_path, SMALL_SOLVE))
    assert run("sweep", config, str(tmp_path / "out")) == 0
    assert len(calls) == config.sweep_samples


def test_undetermined_sweep_exits_1_after_writing_both_outputs(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_SOLVE + "solver.max_iter = 1\n")
    out_dir = str(tmp_path / "out")
    assert main(["sweep", "-c", cfg, "-o", out_dir]) == 1
    assert "lambda_star scan: undetermined" in capsys.readouterr().out
    report = json.load(open(os.path.join(out_dir, "sweep_report.json")))
    assert report["lambda_star_est"] is None
    lines = open(os.path.join(out_dir, "sweep_samples.csv")).read().splitlines()
    assert len(lines) == 1 + 15


def test_props_command_passes_on_preset(tmp_path):
    cfg = write(tmp_path, SMALL_SOLVE)
    assert main(["props", "-c", cfg]) == 0


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
