import importlib
import itertools
import json
import math
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from doublephase import (
    Branch,
    NehariKind,
    NoRootError,
    SolverOptions,
    StopReason,
    build_rect_mesh,
    classify_nehari,
    fiber_terms,
    minimize_on_branch,
    norm_1p,
    solve_branch,
    solve_two,
    weak_residual,
)
from doublephase import forkmap, solver
from doublephase.fibering import FiberTerms, warm_branch_root
from doublephase.mesh import riesz_map
from doublephase.solver import _project, multistart_directions
from doublephase.space import lebesgue_norm, sample_fields

from conftest import assert_no_child_left, overflowing_start, raising_after, rng, two_loop_direction

LAM = 0.1


def test_project_minus_fixes_unit_function_at_lam4(mesh16, preset_data, fields16):
    u = np.ones(mesh16.num_nodes)
    v = _project(mesh16, preset_data, u, 4.0, Branch.MINUS, fields16).u
    assert np.max(np.abs(v - u)) <= 1e-9


def test_project_plus_uses_t1(mesh16, preset_data, fields16):
    u = np.ones(mesh16.num_nodes)
    v = _project(mesh16, preset_data, u, 4.0, Branch.PLUS, fields16).u
    t1 = v[0]
    assert 0.55 < t1 < 0.60
    cls = classify_nehari(mesh16, preset_data, v, 4.0, fields16)
    assert cls.kind is NehariKind.PLUS
    assert cls.ddpsi1 > 0


def test_project_noroot_above_threshold(mesh16, preset_data, fields16):
    u = np.ones(mesh16.num_nodes)
    with pytest.raises(NoRootError):
        _project(mesh16, preset_data, u, 10.0, Branch.MINUS, fields16)


@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
def test_warm_started_projection_matches_project_to_nehari(mesh4, preset_data, branch):
    # the line search projects trial points warm-started from its base
    # point; they must land where the cold projection puts them
    fields = sample_fields(mesh4, preset_data)
    r = rng(31)
    base = _project(mesh4, preset_data, r.uniform(0.5, 1.5, mesh4.num_nodes), LAM, branch, fields)
    for spread in (1e-6, 1e-2, 0.3):
        w = base.u * (1.0 + spread * r.uniform(-1.0, 1.0, mesh4.num_nodes))
        warm = _project(mesh4, preset_data, w, LAM, branch, fields, warm=base)
        cold = _project(mesh4, preset_data, w, LAM, branch, fields)
        np.testing.assert_allclose(warm.u, cold.u, rtol=1e-10)


def _record_certified(monkeypatch) -> list:
    """Record every result of the solver's ``warm_branch_root`` calls."""
    results = []

    def recording(*args):
        results.append(warm_branch_root(*args))
        return results[-1]

    monkeypatch.setattr(solver, "warm_branch_root", recording)
    return results


@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
def test_near_warm_projection_is_certified(monkeypatch, mesh4, preset_data, fields4, branch):
    # a trial within 1e-6 of its base point takes the certified Newton root,
    # not fiber_roots, and lands where the cold projection puts it
    certified = _record_certified(monkeypatch)
    r = rng(32)
    base = _project(mesh4, preset_data, r.uniform(0.5, 1.5, mesh4.num_nodes), LAM, branch, fields4)
    w = base.u * (1.0 + 1e-6 * r.uniform(-1.0, 1.0, mesh4.num_nodes))
    warm = _project(mesh4, preset_data, w, LAM, branch, fields4, warm=base)
    assert len(certified) == 1 and certified[0] is not None
    np.testing.assert_allclose(warm.u, _project(mesh4, preset_data, w, LAM, branch, fields4).u, rtol=1e-10)


@pytest.mark.parametrize("n", [4, 8])
def test_certified_projections_leave_solve_two_energies_alike(monkeypatch, preset_data, n):
    # every lane of solve_two, with the certified warm roots and with every
    # warm projection routed to fiber_roots: the roots agree to their
    # residual, not bit for bit, so each lane's path may differ in its last
    # digits, but it converges alike and to the same energy
    mesh = build_rect_mesh(n, n)
    fields = sample_fields(mesh, preset_data)
    runs = []
    descend = solver._descend

    def recording(*args):
        groups = descend(*args)
        runs.append([out for group in groups for out in group])
        return groups

    monkeypatch.setattr(solver, "_descend", recording)
    certified = _record_certified(monkeypatch)
    solve_two(mesh, preset_data, LAM, fields)
    monkeypatch.setattr(solver, "warm_branch_root", lambda *args: None)
    solve_two(mesh, preset_data, LAM, fields)
    assert sum(t is not None for t in certified) > len(certified) // 2
    with_certified, routed = runs
    assert len(with_certified) == len(routed) == 12
    tol = SolverOptions().energy_tol
    for a, b in zip(with_certified, routed):
        assert a.converged == b.converged
        assert abs(a.energy - b.energy) <= tol * max(1.0, abs(a.energy))


def test_certified_root_whose_energy_overflows_is_named(mesh4, preset_data, fields4, monkeypatch):
    # with q1 = 2000 the certified minus root t = 1.5 of 2.25 t^-2 - d
    # t^-1999.5 = 1 is finite, but t^q1 is not: the warm projection raises
    # the same OverflowError naming the root as the fiber_roots path does
    ft = FiberTerms(
        a=0.0, b=0.0, c=2.25, d=1e-300, e=1.0, p=1990.0, q=1995.0, p_lower_star=1998.0, q1=2000.0, kappa=0.5
    )
    w = np.ones(mesh4.num_nodes)
    base = _project(mesh4, preset_data, w, 2.25, Branch.MINUS, fields4, terms=ft)  # its root is 1
    assert warm_branch_root(ft, 1.0, "t2", base.tc) == pytest.approx(1.5, rel=1e-12)
    message = r"minus branch root t=1\.\d+: psi\(t\) leaves the float range"
    with pytest.raises(OverflowError, match=message):
        _project(mesh4, preset_data, w, 1.0, Branch.MINUS, fields4, warm=base, terms=ft)
    monkeypatch.setattr(solver, "warm_branch_root", lambda *args: None)
    with pytest.raises(OverflowError, match=message):
        _project(mesh4, preset_data, w, 1.0, Branch.MINUS, fields4, warm=base, terms=ft)


@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
@pytest.mark.parametrize("s", [1e-3, 1e3])
def test_projection_is_scale_invariant(mesh4, preset_data, branch, s, fields4):
    # the branch roots are scale-covariant (t_{s w} = t_w / s), so the
    # projected point does not depend on the scale of the direction
    w = rng(47).uniform(0.5, 1.5, mesh4.num_nodes)
    base = _project(mesh4, preset_data, w, LAM, branch, fields4).u
    scaled = _project(mesh4, preset_data, s * w, LAM, branch, fields4).u
    np.testing.assert_allclose(scaled, base, rtol=1e-10)


@pytest.mark.parametrize("branch,sign", [(Branch.PLUS, -1.0), (Branch.MINUS, 1.0)])
def test_minimize_on_branch_converges_with_correct_sign(mesh4, preset_data, branch, sign, fields4):
    res = minimize_on_branch(mesh4, preset_data, LAM, branch, np.ones(mesh4.num_nodes), fields4)
    assert res.converged
    assert sign * res.energy > 0
    assert res.nehari.kind is branch.nehari_kind
    assert res.residual.residual_norm <= 1e-8
    assert res.u.min() > 0
    assert res.floor_activations == 0


def test_converged_results_satisfy_strict_branch_inequality(mesh4, preset_data, fields4):
    d = preset_data
    for branch, sign in ((Branch.PLUS, 1.0), (Branch.MINUS, -1.0)):
        res = minimize_on_branch(mesh4, d, LAM, branch, np.ones(mesh4.num_nodes), fields4)
        ft = fiber_terms(mesh4, d, res.u, fields4)
        value = (
            (d.p + d.kappa - 1) * ft.a
            + (d.q + d.kappa - 1) * ft.b
            + (d.p_lower_star + d.kappa - 1) * ft.c
            - LAM * (d.q1 + d.kappa - 1) * ft.e
        )
        assert sign * value > 0


def test_minus_branch_norm_floor(mesh4, preset_data, fields4):
    # |v|_{q1} >= [(p+k-1)/(lam C^p (q1+k-1))]^{1/(q1-p)} with C the discrete
    # embedding constant estimated over the multi-start samples
    d = preset_data
    c_hat = max(
        lebesgue_norm(mesh4, w, d.q1) / norm_1p(mesh4, d, w, fields4)
        for _, w in multistart_directions(mesh4, seed=0)
    )
    res = minimize_on_branch(mesh4, d, LAM, Branch.MINUS, np.ones(mesh4.num_nodes), fields4)
    floor = ((d.p + d.kappa - 1) / (LAM * c_hat**d.p * (d.q1 + d.kappa - 1))) ** (
        1.0 / (d.q1 - d.p)
    )
    assert lebesgue_norm(mesh4, res.u, d.q1) >= floor


def test_minimize_rejects_zero_init(mesh4, preset_data, fields4):
    with pytest.raises(ValueError):
        minimize_on_branch(mesh4, preset_data, LAM, Branch.PLUS, np.zeros(mesh4.num_nodes), fields4)


def test_minimize_propagates_noroot(mesh4, preset_data, fields4):
    with pytest.raises(NoRootError):
        minimize_on_branch(mesh4, preset_data, 10.0, Branch.MINUS, np.ones(mesh4.num_nodes), fields4)


def test_failed_trial_projection_is_rejected(monkeypatch, mesh4, preset_data, fields4):
    # an ArithmeticError at a trial rejects that trial; the descent goes on
    failed = []

    def overflowing_once(*args, warm=None, **kwargs):
        if warm is not None and not failed:
            failed.append(1)
            raise OverflowError("trial overflow")
        return _project(*args, warm=warm, **kwargs)

    monkeypatch.setattr(solver, "_project", overflowing_once)
    res = minimize_on_branch(mesh4, preset_data, LAM, Branch.PLUS, np.ones(mesh4.num_nodes), fields4)
    assert failed and res.converged


def test_max_iterations_reports_not_converged(mesh4, preset_data, fields4):
    res = minimize_on_branch(
        mesh4, preset_data, LAM, Branch.PLUS, np.ones(mesh4.num_nodes), fields4, SolverOptions(max_iter=2)
    )
    assert not res.converged
    assert res.iterations == 2


@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
@pytest.mark.parametrize(
    "reason, options, constants",
    [
        pytest.param(StopReason.RESIDUAL_TOL, {}, {}, id="residual_tol"),
        pytest.param(StopReason.MAX_ITER, {"max_iter": 2}, {}, id="max_iter"),
        pytest.param(StopReason.LINE_SEARCH_EXHAUSTED, {}, {"MAX_BACKTRACKS": 0}, id="line_search_exhausted"),
        # no energy decrease counts as progress, and one iteration without
        # residual contraction ends the descent
        pytest.param(StopReason.STALL, {"stall": 1, "energy_tol": 1.0}, {}, id="stall"),
    ],
)
def test_stop_reason_is_recorded(monkeypatch, mesh4, preset_data, branch, reason, options, constants, fields4):
    for name, value in constants.items():
        monkeypatch.setattr(solver, name, value)
    opts = SolverOptions(**options)
    res = minimize_on_branch(mesh4, preset_data, LAM, branch, np.ones(mesh4.num_nodes), fields4, opts)
    assert res.stop_reason is reason
    assert res.converged == (reason is StopReason.RESIDUAL_TOL)
    if reason is StopReason.MAX_ITER:
        assert res.iterations == opts.max_iter
    else:
        assert res.iterations < opts.max_iter


def test_converged_residual_agrees_with_weak_residual(mesh4, preset_data, fields4):
    res = minimize_on_branch(mesh4, preset_data, LAM, Branch.PLUS, np.ones(mesh4.num_nodes), fields4)
    report = weak_residual(mesh4, preset_data, res.u, LAM, fields4)
    assert report.residual_norm == pytest.approx(res.residual.residual_norm, rel=1e-12)
    assert report.residual_norm <= 1e-8


def test_multistart_set_is_deterministic(mesh4):
    a = multistart_directions(mesh4, seed=3)
    b = multistart_directions(mesh4, seed=3)
    assert [name for name, _ in a] == [
        "ones",
        "ramp",
        "bump",
        "ones_perturbed",
        "ramp_perturbed",
        "bump_perturbed",
    ]
    for (_, u), (_, v) in zip(a, b):
        assert np.array_equal(u, v)
    c = multistart_directions(mesh4, seed=4)
    assert not np.array_equal(a[3][1], c[3][1])


def assert_lane_is_its_descent(mesh, data, branch, w, fields, res, where):
    """A lane that did not merge is the one-lane descent from its start, bit
    for bit; a merged lane is that descent cut at its merge iteration."""
    merged = res.stop_reason is StopReason.MERGED
    opts = SolverOptions(max_iter=res.iterations) if merged else None
    alone = minimize_on_branch(mesh, data, LAM, branch, w, fields, opts)
    assert np.array_equal(res.u, alone.u), where
    assert (res.energy, res.iterations, res.branch) == (alone.energy, alone.iterations, alone.branch), where
    if merged:
        assert alone.stop_reason is StopReason.MAX_ITER and not res.converged, where
    else:
        assert (res.stop_reason, res.merged_into) == (alone.stop_reason, ""), where


def test_solve_branch_returns_every_start_in_order(mesh4, preset_data):
    # the six starts descend as the lanes of one batch; each lane that did
    # not merge is the one-lane descent from its start, bit for bit, and a
    # merged lane is that descent up to its merge, named after a start of
    # its branch that took part in the batch
    merges = 0
    for mesh, branch in itertools.product(
        (mesh4, build_rect_mesh(6, 3, rect=(0.0, 0.0, 2.0, 0.5))), (Branch.PLUS, Branch.MINUS)
    ):
        starts = multistart_directions(mesh, seed=0)
        fields = sample_fields(mesh, preset_data)
        results, failures = solve_branch(mesh, preset_data, LAM, branch, fields)
        assert failures == ()
        assert [res.start for res in results] == [name for name, _ in starts]
        assert all(res.branch == branch.value for res in results)
        for res, (name, w) in zip(results, starts):
            assert_lane_is_its_descent(mesh, preset_data, branch, w, fields, res, (mesh.nx, branch, name))
            if res.stop_reason is StopReason.MERGED:
                merges += 1
                assert res.merged_into in {r.start for r in results} - {name}, (mesh.nx, branch, name)
    assert merges > 0


def test_solve_two_lanes_equal_one_lane_descents(monkeypatch, mesh4, preset_data):
    # below the fork threshold solve_two runs the six starts of both
    # branches as the twelve lanes of one batch, plus first; each lane that
    # did not merge is the one-lane descent from its start on its branch,
    # bit for bit, a merged lane that descent up to its merge, and each
    # branch's pick is its best converged lane
    batches = []
    descend = solver._descend

    def recording(mesh, data, groups, starts, fields, opts):
        outcomes = descend(mesh, data, groups, starts, fields, opts)
        batches.append((list(groups), outcomes))
        return outcomes

    monkeypatch.setattr(solver, "_descend", recording)
    for mesh in (mesh4, build_rect_mesh(6, 3, rect=(0.0, 0.0, 2.0, 0.5))):
        batches.clear()
        fields = sample_fields(mesh, preset_data)
        report = solve_two(mesh, preset_data, LAM, fields)
        ((groups, outcomes),) = batches
        assert groups == [(LAM, Branch.PLUS), (LAM, Branch.MINUS)]
        starts = multistart_directions(mesh, seed=0)
        for lanes, branch, picked in zip(outcomes, (Branch.PLUS, Branch.MINUS), (report.plus, report.minus)):
            assert len(lanes) == 6
            for res, (name, w) in zip(lanes, starts):
                assert_lane_is_its_descent(mesh, preset_data, branch, w, fields, res, (mesh.nx, branch, name))
            assert picked.energy == min(res.energy for res in lanes if res.converged)


def _count_sample_fields(monkeypatch) -> list:
    # every module the solver reaches that binds the name counts (imported
    # by path: the package binds ``doublephase.energy`` to the function)
    calls = []
    for name in ("solver", "energy", "space"):
        module = importlib.import_module(f"doublephase.{name}")

        def counting(mesh, data, sample=module.sample_fields):
            calls.append(1)
            return sample(mesh, data)

        monkeypatch.setattr(module, "sample_fields", counting)
    return calls


def test_solve_branch_samples_the_fields_once(monkeypatch, mesh4, preset_data):
    # the caller samples the fields once; the descents of every start reuse
    # them and sample none of their own
    calls = _count_sample_fields(monkeypatch)
    fields = solver.sample_fields(mesh4, preset_data)
    results, _ = solve_branch(mesh4, preset_data, LAM, Branch.MINUS, fields)
    assert len(results) == 6
    assert len(calls) == 1


def test_solve_two_samples_the_fields_once(monkeypatch, mesh4, preset_data):
    # both branches descend in one batch on the caller's one sample
    calls = _count_sample_fields(monkeypatch)
    solve_two(mesh4, preset_data, LAM, solver.sample_fields(mesh4, preset_data))
    assert len(calls) == 1


def test_overflowing_lane_ends_on_its_best_point(monkeypatch):
    # at these admissible exponents the slope of the minus start ``bump``
    # overflows at its first projected point, and ``bump_perturbed`` fails
    # its first projection.  Under raising numpy errors, as in the CLI, the
    # overflow ends that lane alone, on its best point, and the other lanes
    # are what they are without it
    from doublephase import ProblemData

    data = ProblemData(p=1.75, q=10.9375, kappa=0.5, q1=11.12890625, lam=1.0, mu="x", alpha="1", beta="1", zeta="1")
    mesh = build_rect_mesh(3, 3)
    starts = multistart_directions(mesh, seed=0)
    fields = sample_fields(mesh, data)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        results, failures = solve_branch(mesh, data, 1.0, Branch.MINUS, fields)
        monkeypatch.setattr(solver, "multistart_directions", lambda mesh, seed: [s for s in starts if s[0] != "bump"])
        without, _ = solve_branch(mesh, data, 1.0, Branch.MINUS, fields)
    assert [name for name, _ in failures] == ["bump_perturbed"]
    by_start = {res.start: res for res in results}
    bump = by_start.pop("bump")
    assert bump.stop_reason is StopReason.NON_FINITE
    assert not bump.converged and bump.residual is None
    assert np.isfinite(bump.energy) and bump.u.min() > 0
    assert list(by_start) == [res.start for res in without]
    for res in without:
        assert np.array_equal(by_start[res.start].u, res.u), res.start
        assert by_start[res.start].iterations == res.iterations


def lane_groups_at(monkeypatch, width):
    """Give every solve ``width`` CPUs, and let it fork its lanes on any mesh."""
    monkeypatch.setattr(forkmap, "_available_cpus", lambda: width)
    monkeypatch.setattr(solver, "LANE_FORK_MIN_NODES", 1)


def report_key(report) -> tuple:
    """A ``SolveReport`` as comparable values: each branch's nodal array, the
    repr of the rest of its result (exact for floats), and the failure lines."""
    picks = [(res.u.tobytes(), repr(replace(res, u=None))) if res else None for res in (report.plus, report.minus)]
    return (*picks, report.plus_failures, report.minus_failures)


def recording_pids(monkeypatch, path):
    """Append the pid of every ``_descend`` call to the file ``path``."""
    descend = solver._descend

    def recording(*args):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return descend(*args)

    monkeypatch.setattr(solver, "_descend", recording)


@pytest.mark.parametrize("width", [1, 2, 3])
@pytest.mark.parametrize("shape", [(4, 4, (0.0, 0.0, 1.0, 1.0)), (6, 3, (0.0, 0.0, 2.0, 0.5))], ids=["4x4", "6x3"])
def test_lane_groups_at_any_width_give_the_one_process_report(width, shape, monkeypatch, tmp_path, preset_data):
    # with two CPUs or more solve_two's twelve lanes split into one group per
    # branch: the plus group on a forked worker, the minus group, the map's
    # last item, in the parent; at one CPU all twelve run in-process as one
    # batch.  A merge compares lanes of one branch only, so the merges are
    # the same at every width
    if width > 1 and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    mesh = build_rect_mesh(shape[0], shape[1], rect=shape[2])
    fields = sample_fields(mesh, preset_data)
    want = report_key(solve_two(mesh, preset_data, LAM, fields))
    lane_groups_at(monkeypatch, width)
    recording_pids(monkeypatch, tmp_path / "pids")
    assert report_key(solve_two(mesh, preset_data, LAM, fields)) == want
    pids = (tmp_path / "pids").read_text().split()
    parent = str(os.getpid())
    if width == 1:
        assert pids == [parent]
    else:
        assert sorted(pid == parent for pid in pids) == [False, True]
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_lane_groups_name_the_same_overflowing_lanes(monkeypatch):
    # the 3x3 case of test_overflowing_lane_ends_on_its_best_point: the
    # workers inherit the raising numpy error state through the fork, and
    # the failed first projection crosses the pipe as its exception
    from doublephase import ProblemData

    data = ProblemData(p=1.75, q=10.9375, kappa=0.5, q1=11.12890625, lam=1.0, mu="x", alpha="1", beta="1", zeta="1")
    mesh = build_rect_mesh(3, 3)
    fields = sample_fields(mesh, data)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        want = solve_two(mesh, data, 1.0, fields)
        for width in (2, 3):
            lane_groups_at(monkeypatch, width)
            got = solve_two(mesh, data, 1.0, fields)
            assert report_key(got) == report_key(want), width
    assert [line.split(": ", 1)[0] for line in want.minus_failures] == ["bump_perturbed"]
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_lane_groups_recompute_a_dead_workers_group(monkeypatch, mesh4, preset_data, fields4):
    want = report_key(solve_two(mesh4, preset_data, LAM, fields4))
    parent = os.getpid()
    descend = solver._descend
    in_parent = []  # the branch of each group the parent descends

    def dying(mesh, data, groups, starts, fields, opts):
        # the first group, the plus branch's six lanes, runs on the worker;
        # the minus group, the map's last item, in the parent
        ((_, branch),) = groups
        if os.getpid() != parent:
            if branch is Branch.PLUS:
                os._exit(3)
        else:
            in_parent.append(branch)
        return descend(mesh, data, groups, starts, fields, opts)

    lane_groups_at(monkeypatch, 2)
    monkeypatch.setattr(solver, "_descend", dying)
    with raising_after(60, TimeoutError("the solve hung on a dead worker")):
        assert report_key(solve_two(mesh4, preset_data, LAM, fields4)) == want
    # the parent ran its own group, then the dead worker's again
    assert in_parent == [Branch.MINUS, Branch.PLUS]
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_interrupted_lane_groups_leave_no_process(monkeypatch, mesh4, preset_data, fields4):
    def stuck(*args):
        time.sleep(60)

    lane_groups_at(monkeypatch, 2)
    monkeypatch.setattr(solver, "_descend", stuck)
    with raising_after(0.2, KeyboardInterrupt()):
        with pytest.raises(KeyboardInterrupt):
            solve_two(mesh4, preset_data, LAM, fields4)
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"), reason="no os.fork or /proc")
def test_a_failed_fork_runs_its_chunk_in_the_caller(monkeypatch, mesh16, preset_data, fields16):
    # os.fork raising (EAGAIN when the process table is full) closes both
    # ends of the chunk's pipe and runs the chunk in the caller, in its turn:
    # no process starts, no descriptor leaks, and the outcome is the loop's
    forks = []

    def failing_fork():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 1)
    want = report_key(solve_two(mesh16, preset_data, LAM, fields16))
    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", failing_fork)
    fds = len(os.listdir("/proc/self/fd"))
    parent = os.getpid()
    got = forkmap._fork_map(lambda chunk: [(os.getpid(), x * x) for x in chunk], range(7))
    assert got == [(parent, x * x) for x in range(7)]
    assert len(forks) == 2
    assert report_key(solve_two(mesh16, preset_data, LAM, fields16)) == want
    assert len(forks) == 3  # the plus group's fork
    assert len(os.listdir("/proc/self/fd")) == fds
    assert_no_child_left()


def test_far_minus_roots_are_bracketed():
    # with q1 - q = 0.026 the first projection of the minus starts ``bump``
    # and ``bump_perturbed`` has t2 near 1e60, beyond any doubling walk from
    # t_circ; the bracket from eta's own terms reaches it, so under raising
    # numpy errors, as in the CLI, both starts end in results and no start
    # of either branch is a named failure
    from doublephase import ProblemData

    data = ProblemData(p=1.5, q=3.75, kappa=0.5, q1=3.7763671875, lam=1.0, mu="x", alpha="1", beta="1", zeta="1")
    mesh = build_rect_mesh(3, 3)
    names = [name for name, _ in multistart_directions(mesh, seed=0)]
    fields = sample_fields(mesh, data)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for branch in (Branch.PLUS, Branch.MINUS):
            results, failures = solve_branch(mesh, data, 1.0, branch, fields)
            assert failures == ()
            assert [res.start for res in results] == names
    by_start = {res.start: res for res in results}
    for name in ("bump", "bump_perturbed"):
        assert by_start[name].branch == "minus" and by_start[name].u.min() > 0


def test_far_finite_root_whose_energy_overflows_is_named():
    # the first minus projection of ``bump`` and ``bump_perturbed`` has a
    # finite root t2 near 1e17, but t2^q1 leaves the floats: under raising
    # numpy errors, as in the CLI, the failure names the branch, the root and
    # the overflow of psi(t); it stays a numerical failure.  The lambda* scan
    # does not call that lambda undetermined: ``ones_perturbed`` converges
    # on the minus branch at energy -8.45, and that bound decides first that
    # the minus minimum is not positive
    from doublephase import ProblemData
    from doublephase.sweep import estimate_lambda_star

    lam = 0.04514085617007927
    data = ProblemData(
        p=1.8105668887870976, q=18.008960042860462, kappa=0.8958384524320082, q1=18.637909527783492,
        lam=lam, mu="x", alpha="1", beta="1", zeta="1",
    )
    mesh = build_rect_mesh(3, 3)
    fields = sample_fields(mesh, data)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        report = solve_two(mesh, data, lam, fields)
        with pytest.raises(ValueError, match="^minus-branch energy not positive at the smallest grid point"):
            estimate_lambda_star(mesh, data, [lam], fields)
    assert report.plus_failures == ()
    assert [entry.split(": ", 1)[0] for entry in report.minus_failures] == ["bump", "bump_perturbed"]
    for entry in report.minus_failures:
        match = re.fullmatch(
            r"\w+: numerical failure \(OverflowError\): minus branch root t=(\S+): psi\(t\) leaves the float range",
            entry,
        )
        assert match, entry
        assert math.isfinite(float(match[1])) and float(match[1]) > 1e16


def test_unclassifiable_far_point_is_a_named_failure():
    # here the first minus projection of ``bump`` and ``bump_perturbed`` lies
    # so far out that its squared gradients overflow when the result
    # classifies it: those starts are named failures, not an aborted branch
    from doublephase import ProblemData

    data = ProblemData(
        p=1.125, q=1.4866071428571428, kappa=0.5, q1=1.4993198939732142, lam=0.1,
        mu="1 + y", alpha="1", beta="1", zeta="1",
    )
    mesh = build_rect_mesh(3, 3)
    fields = sample_fields(mesh, data)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        results, failures = solve_branch(mesh, data, 0.1, Branch.MINUS, fields, SolverOptions(max_iter=20))
    assert [name for name, _ in failures] == ["bump", "bump_perturbed"]
    assert all(isinstance(exc, FloatingPointError) for _, exc in failures)
    assert [res.start for res in results] == ["ones", "ramp", "ones_perturbed", "ramp_perturbed"]


def test_solve_branch_names_unreachable_starts(mesh4, preset_data, fields4):
    # at lambda = 100 some minus starts reach the branch and the others do not
    results, failures = solve_branch(mesh4, preset_data, 100.0, Branch.MINUS, fields4)
    assert results and failures
    assert all(isinstance(exc, NoRootError) and "minus branch unreachable" in str(exc) for _, exc in failures)
    failed = [name for name, _ in failures]
    names = [name for name, _ in multistart_directions(mesh4, seed=0)]
    assert failed == [name for name in names if name in failed]
    assert [res.start for res in results] == [name for name in names if name not in failed]
    report = solve_two(mesh4, preset_data, 100.0, fields4)
    assert report.minus_failures == tuple(f"{name}: {exc}" for name, exc in failures)


def test_solve_branch_names_a_numerical_failure_and_keeps_the_other_starts(monkeypatch, mesh4, preset_data, fields4):
    overflowing_start(monkeypatch, mesh4, "bump")
    names = [name for name, _ in multistart_directions(mesh4, seed=0)]
    for branch in (Branch.PLUS, Branch.MINUS):
        results, failures = solve_branch(mesh4, preset_data, LAM, branch, fields4)
        assert [name for name, _ in failures] == ["bump"]
        assert isinstance(failures[0][1], OverflowError)
        assert [res.start for res in results] == [name for name in names if name != "bump"]
        assert all(res.converged or res.stop_reason is StopReason.MERGED for res in results)
    report = solve_two(mesh4, preset_data, LAM, fields4)
    assert report.sign_ok
    expected = ("bump: numerical failure (OverflowError): power sum overflow",)
    assert report.plus_failures == report.minus_failures == expected


def test_solve_two_signs_and_best_of(mesh4, preset_data, fields4):
    report = solve_two(mesh4, preset_data, LAM, fields4)
    assert report.sign_ok
    assert report.plus.energy < 0 < report.minus.energy
    assert report.plus.u.min() > 0 and report.minus.u.min() > 0
    # best-of: no start of the branch's own multi-start beats the merged
    # result, which is the first of the lowest-energy converged starts
    for branch, picked in ((Branch.PLUS, report.plus), (Branch.MINUS, report.minus)):
        results, _ = solve_branch(mesh4, preset_data, LAM, branch, fields4)
        converged = [res for res in results if res.converged]
        best = min(res.energy for res in converged)
        first = next(res for res in converged if res.energy == best)
        assert (picked.start, picked.energy, picked.iterations) == (first.start, first.energy, first.iterations)
        assert np.array_equal(picked.u, first.u)


def test_solve_two_reports_minus_failures_at_large_lambda(mesh4, preset_data, fields4):
    report = solve_two(mesh4, preset_data, 50.0, fields4)
    assert len(report.minus_failures) > 0 or (
        report.minus is not None and not report.minus.converged
    )
    assert not report.sign_ok


def test_solve_two_with_varying_coefficients(mesh4):
    from doublephase import ProblemData

    data = ProblemData(
        p=1.5, q=1.8, kappa=0.5, q1=4.0, lam=0.1,
        mu="0.5 + 0.5*x", alpha="1", beta="abs(y - 0.5)", zeta="0.5 + x*y",
    )
    report = solve_two(mesh4, data, 0.1, sample_fields(mesh4, data))
    assert report.sign_ok
    assert report.plus.residual.residual_norm <= 1e-8
    assert report.minus.residual.residual_norm <= 1e-8


def test_solve_two_on_nonunit_rectangle(preset_data):
    from doublephase import build_rect_mesh

    mesh = build_rect_mesh(6, 3, rect=(0.0, 0.0, 2.0, 1.0))
    report = solve_two(mesh, preset_data, 0.1, sample_fields(mesh, preset_data))
    assert report.sign_ok
    assert report.plus.u.min() > 0 and report.minus.u.min() > 0


def _all_starts(n: int, data) -> list:
    mesh = build_rect_mesh(n, n)
    fields = sample_fields(mesh, data)
    return [
        minimize_on_branch(mesh, data, LAM, branch, w, fields)
        for branch in (Branch.PLUS, Branch.MINUS)
        for _, w in multistart_directions(mesh, seed=0)
    ]


def test_descent_iterations_do_not_grow_with_the_mesh(preset_data):
    # the H^1 direction is mesh-independent: every start converges at every
    # size, and refining 8x8 to 32x32 at most doubles the total iterations
    # (the Euclidean gradient's conditioning grows like h^-2)
    totals = {}
    for n in (8, 16, 32):
        results = _all_starts(n, preset_data)
        assert all(res.converged for res in results), n
        totals[n] = sum(res.iterations for res in results)
    assert totals[32] <= 2 * totals[8], totals


def test_every_16x16_start_converges_over_seven_seeds(mesh16, preset_data, fields16):
    # the benchmark's solve16 preset: each of the 84 starts (2 branches, 6
    # starts, solver seeds 0-6) converges, or merges along a chain of starts
    # that ends at one that converges
    for seed in range(7):
        for branch in (Branch.PLUS, Branch.MINUS):
            results, failures = solve_branch(mesh16, preset_data, LAM, branch, fields16, SolverOptions(seed=seed))
            assert failures == () and len(results) == 6, (seed, branch)
            by_start = {res.start: res for res in results}
            for res in results:
                seen = {res.start}
                while res.stop_reason is StopReason.MERGED:
                    res = by_start[res.merged_into]
                    assert res.start not in seen, (seed, branch, seen)
                    seen.add(res.start)
                assert res.converged, (seed, branch, res.start)


def test_merge_stops_the_higher_energy_lane_of_a_close_pair(mesh4):
    # the relative distance of u and (1 + e) u is e; pairs go in lane order,
    # so ``a`` joins ``b`` and then ``b`` joins the lower ``f``; a tie stops
    # the later lane; lanes of two groups (two branches, or two lambdas:
    # ``h``), far lanes and a lane that has already stopped (``g``) take part
    # in no merge
    tol = solver.MERGE_TOL
    u = np.ones(mesh4.num_nodes)
    groups = [(0.1, Branch.PLUS), (0.1, Branch.MINUS), (0.2, Branch.PLUS)]

    def lane(name, branch, scale, energy, reason=None, lam=0.1):
        point = solver._Projected(u=scale * u, energy=energy, magnitude=abs(energy), tc=1.0)
        group = groups.index((lam, branch))
        return solver._Lane(name, group=group, lam=lam, branch=branch, proj=point, best=point, reason=reason)

    lanes = [
        lane("a", Branch.PLUS, 1.0, 2.0),
        lane("b", Branch.PLUS, 1.0 + 0.5 * tol, 1.0),
        lane("c", Branch.MINUS, 1.0, 0.0),
        lane("d", Branch.PLUS, 1.0 + 3.0 * tol, 0.0),
        lane("e", Branch.MINUS, 1.0 + 0.5 * tol, 0.0),
        lane("f", Branch.PLUS, 1.0 - 0.4 * tol, 0.5),
        lane("g", Branch.PLUS, 1.0, -1.0, StopReason.RESIDUAL_TOL),
        lane("h", Branch.PLUS, 1.0, -2.0, lam=0.2),
    ]
    solver._merge(mesh4, lanes, np.stack([x.proj.u for x in lanes]), solver._pairs(lanes))
    assert [(x.reason, x.merged_into) for x in lanes] == [
        (StopReason.MERGED, "b"),
        (StopReason.MERGED, "f"),
        (None, ""),
        (None, ""),
        (StopReason.MERGED, "c"),
        (None, ""),
        (StopReason.RESIDUAL_TOL, ""),
        (None, ""),
    ]


def test_merging_keeps_the_corner_bumps_distinct_critical_points(preset_data):
    # on the 8x8 preset at lambda = 0.2 the minus branch has another converged
    # critical point besides the six starts' one: corner bumps
    # exp(-8|x - c|^2) at (0, 0) and (0, 1) end 1.65 and 1.68 (to two
    # decimals) below the six starts' minimum.  Descending in one batch with
    # the six starts, neither corner lane joins the six starts' cluster, nor
    # does any of the six join a corner lane
    mesh = build_rect_mesh(8, 8)
    fields = sample_fields(mesh, preset_data)
    starts = multistart_directions(mesh, seed=0)
    x, y = mesh.nodes.T
    corners = [(f"corner_{cx}{cy}", np.exp(-8.0 * ((x - cx) ** 2 + (y - cy) ** 2))) for cx, cy in ((0, 0), (0, 1))]
    (out,) = solver._descend(mesh, preset_data, [(0.2, Branch.MINUS)], starts + corners, fields, SolverOptions())
    six = {res.start for res in out[:6]}
    six_min = min(res.energy for res in out[:6])
    assert all(res.merged_into in six | {""} for res in out[:6])
    assert any(res.converged for res in out[:6])
    for res in out[6:]:
        assert res.merged_into not in six, res.start
        assert res.converged, res.start
        assert 1.65 <= six_min - res.energy < 1.685, (res.start, six_min, res.energy)


def test_minus_ramp_start_converges(mesh16, preset_data, fields16):
    # the ramp vanishes on x = 0; without the per-step clip the descent
    # drifts to a node pinned near 0, where the singular term's gradient
    # spikes and a smooth direction cannot lift it
    ramp = dict(multistart_directions(mesh16, seed=0))["ramp"]
    res = minimize_on_branch(mesh16, preset_data, LAM, Branch.MINUS, ramp, fields16)
    assert res.converged
    assert res.stop_reason is StopReason.RESIDUAL_TOL


def refined_energies(data, branch, aspect) -> list:
    """The branch energy from ``ones`` on n*aspect x n cells of the unit
    square, n = 16, 32, 64."""
    energies = []
    for n in (16, 32, 64):
        mesh = build_rect_mesh(aspect * n, n)
        fields = sample_fields(mesh, data)
        res = minimize_on_branch(mesh, data, LAM, branch, np.ones(mesh.num_nodes), fields)
        assert res.converged, n
        energies.append(res.energy)
    return energies


def richardson_limit(energies) -> float:
    """The O(h^2) Richardson extrapolation of the two finest energies."""
    return energies[2] + (energies[2] - energies[1]) / 3.0


@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
def test_branch_energy_converges_at_second_order(preset_data, branch):
    # P1 elements with lumped and centroid quadrature: the energy error is
    # O(h^2), so successive differences shrink by ~4 per refinement
    energies = refined_energies(preset_data, branch, 1)
    ratio = (energies[1] - energies[0]) / (energies[2] - energies[1])
    assert 3.0 <= ratio <= 5.0, energies


@pytest.mark.parametrize("branch", [Branch.PLUS, Branch.MINUS])
def test_branch_energy_converges_alike_on_non_square_cells(preset_data, branch):
    # cells with hx = h/2 and hy = h converge at the same order, and to the
    # same continuum energy: the Richardson limits from the two finest meshes
    # agree with the square cells' to 3.7e-9 (plus) and 8.2e-6 (minus)
    # relative, well inside 2e-5.  A mis-scaled boundary or mass term that
    # each mesh's own reference would reproduce fails here
    energies = refined_energies(preset_data, branch, 2)
    ratio = (energies[1] - energies[0]) / (energies[2] - energies[1])
    assert 3.0 <= ratio <= 5.0, energies
    square = richardson_limit(refined_energies(preset_data, branch, 1))
    assert richardson_limit(energies) == pytest.approx(square, rel=2e-5, abs=0.0)


def test_descent_iteration_budget(preset_data):
    # L-BFGS in the H^1 metric: the 12 starts of the 16x16 preset at seed 0
    # take at most 915 iterations, 1.5x fewer than the Barzilai-Borwein
    # step's 1373
    results = _all_starts(16, preset_data)
    assert all(res.converged for res in results)
    assert sum(res.iterations for res in results) <= 915


def test_armijo_slack_scales_with_the_energy_terms():
    # the minus energy here, 1.05, is a cancelling sum of terms of size
    # 24-54, so a slack relative to |E| lies below the rounding of the
    # trial energies and the line search gives up short of the tolerance
    from doublephase import ProblemData

    data = ProblemData(p=1.4, q=1.7, kappa=0.3, q1=3.5, lam=0.4, mu="x*y", alpha="1", beta="1", zeta="1")
    mesh = build_rect_mesh(8, 8, rect=(0.0, 0.0, 4.0, 4.0))
    fields = sample_fields(mesh, data)
    for name, w in multistart_directions(mesh, seed=0):
        res = minimize_on_branch(mesh, data, 0.4, Branch.MINUS, w, fields)
        assert res.stop_reason is StopReason.RESIDUAL_TOL, name
        assert res.converged, name


def _memory(mesh, pairs=()):
    # a one-lane store with the given pairs pushed, oldest first
    riesz = riesz_map(mesh)
    memory = solver._LBFGS(1, mesh.num_nodes)
    for s, y in pairs:
        memory.push(s[None], y[None], riesz(y)[None])
    return memory, riesz


def _held(memory) -> list:
    """The number of pairs each lane of the store holds."""
    return np.minimum(memory.pushes, solver.LBFGS_PAIRS).tolist()


def test_lbfgs_direction_meets_the_secant_identity(mesh4):
    # H y = s for the newest pair, whatever the older pairs and H_0
    r = rng(41)
    m = mesh4.num_nodes
    pairs = []
    for _ in range(3):
        s = r.standard_normal(m)
        pairs.append((s, s + 0.3 * r.standard_normal(m)))
    memory, riesz = _memory(mesh4, pairs)
    assert _held(memory) == [3]
    s, y = pairs[-1]
    hy = memory.apply(y[None], riesz(y)[None])[0]
    np.testing.assert_allclose(hy, s, rtol=0, atol=1e-10 * np.linalg.norm(s))


def test_lbfgs_without_pairs_is_the_h1_gradient(mesh4):
    g = rng(42).standard_normal(mesh4.num_nodes)
    memory, riesz = _memory(mesh4)
    d, gd = memory.descent(np.ones((1, mesh4.num_nodes)), g[None], riesz(g)[None])
    np.testing.assert_array_equal(d[0], riesz(g))
    assert gd[0] == pytest.approx(g @ riesz(g), rel=1e-14)


def test_lbfgs_skips_negative_curvature_pairs(mesh4):
    s = rng(43).standard_normal(mesh4.num_nodes)
    memory, _ = _memory(mesh4, [(s, -s), (s, np.zeros_like(s))])
    assert _held(memory) == [0]
    assert memory.gamma[0] == 1.0


def test_lbfgs_skips_pairs_without_metric_curvature(mesh4):
    # y.P^-1 y can be 0 (y = 0, or rounding for a tiny y); gamma divides by it
    r = rng(45)
    s = r.standard_normal(mesh4.num_nodes)
    y = s + 0.3 * r.standard_normal(mesh4.num_nodes)
    memory, riesz = _memory(mesh4)
    memory.push(s[None], y[None], np.zeros_like(y)[None])
    memory.push(s[None], y[None], -riesz(y)[None])
    assert _held(memory) == [0]
    assert memory.gamma[0] == 1.0


def test_lbfgs_falls_back_to_the_h1_gradient(mesh4):
    # the slope counts only the free nodes, so with a node pinned at u = 0
    # even a positive-definite H can give a direction that does not descend
    # there; the memory is then dropped and the descent steps along P^-1 g.
    # Built from P^-1 g = e_0 + 0.1 e_24 with node 0 pinned, and one pair
    # with s.g = 0 and y.P^-1 g < 0 that lifts d at node 0
    m = mesh4.num_nodes
    memory, riesz = _memory(mesh4)
    P = np.linalg.inv(np.column_stack([riesz(e) for e in np.eye(m)]))
    v = np.zeros(m)
    v[0], v[-1] = 1.0, 0.1
    g = P @ v
    s = np.zeros(m)
    s[0] = s[m // 2] = 1.0
    s -= (s @ g) / (g @ g) * g
    y = s.copy()
    y[0] = -0.5 * s[0]
    memory.push(s[None], y[None], riesz(y)[None])
    assert _held(memory) == [1]
    u = np.ones(m)
    u[0] = 0.0
    d = memory.apply(g[None], riesz(g)[None])[0]
    free = (u > 0) | (d < 0)
    assert g[free] @ d[free] < 0.0
    d, gd = memory.descent(u[None], g[None], riesz(g)[None])
    assert _held(memory) == [0]
    np.testing.assert_array_equal(d[0], riesz(g))
    assert gd[0] > 0.0


def test_lbfgs_store_matches_the_two_loop_recursion(mesh4):
    # three lanes with ragged pair counts: lane 0 pushes 12 pairs and keeps
    # the last 10, lane 1 keeps 3 of its first 4 (one has s.y < 0) and skips
    # the rest, lane 2 is cleared after 8 pairs and keeps the 4 after that
    r = rng(46)
    m = mesh4.num_nodes
    riesz = riesz_map(mesh4)
    memory = solver._LBFGS(3, m)
    kept = [[], [], []]
    for k in range(12):
        s = r.standard_normal((3, m))
        y = s + 0.3 * r.standard_normal((3, m))
        if k == 2 or k >= 4:
            y[1] = -s[1]
        memory.push(s, y, riesz(y))
        for lane in range(3):
            if s[lane] @ y[lane] > 0.0:
                kept[lane] = (kept[lane] + [(s[lane], y[lane])])[-solver.LBFGS_PAIRS:]
        if k == 7:
            memory.clear(np.array([False, False, True]))
            kept[2] = []
    assert _held(memory) == [10, 3, 4] == [len(pairs) for pairs in kept]
    g = r.standard_normal((3, m))
    d = memory.apply(g, riesz(g))
    for lane, pairs in enumerate(kept):
        s, y = pairs[-1]
        expected = two_loop_direction(pairs, (s @ y) / (y @ riesz(y)), riesz, g[lane])
        assert np.linalg.norm(d[lane] - expected) <= 1e-12 * np.linalg.norm(expected), lane


def test_lbfgs_carried_inverse_inverts_r_in_age_order(mesh4):
    # after every push, the carried R^-1 times R rebuilt from the held pairs
    # in age order (R_ij = s_i.y_j for pair i no newer than pair j) is the
    # identity on the held slots, and R^-1 is zero at the empty ones: lane 0
    # wraps around the ring, lane 1 skips every third push (s.y < 0) and
    # lane 2 is cleared after its eighth
    r = rng(47)
    m, k = mesh4.num_nodes, solver.LBFGS_PAIRS
    riesz = riesz_map(mesh4)
    memory = solver._LBFGS(3, m)
    for step in range(2 * k + 3):
        s = r.standard_normal((3, m))
        y = s + 0.3 * r.standard_normal((3, m))
        if step % 3 == 1:
            y[1] = -s[1]
        memory.push(s, y, riesz(y))
        if step == 7:
            memory.clear(np.array([False, False, True]))
        for lane, pushes in enumerate(memory.pushes.tolist()):
            age = np.full(k, -1)  # accepted pushes before each slot's pair; -1 when empty
            for a in range(max(0, pushes - k), pushes):
                age[a % k] = a
            held = age >= 0
            rmat = np.where(age[:, None] <= age[None, :], memory.s[lane] @ memory.y[lane].T, 0.0)
            product = (memory.rinv[lane] @ rmat)[np.ix_(held, held)]
            np.testing.assert_allclose(product, np.eye(held.sum()), rtol=0, atol=1e-12, err_msg=f"{step} {lane}")
            assert not memory.rinv[lane][~held].any() and not memory.rinv[lane][:, ~held].any(), (step, lane)
    assert memory.pushes.tolist() == [23, 15, 15]  # all of them, 8 skipped, 15 since the clear


def test_merging_lanes_skip_the_residual_and_the_16x16_report_keeps_its_picks(tmp_path, mesh16, preset_data, fields16):
    # a merged lane is unconverged by definition, so its result is classified
    # but has no weak residual; the seed-0 16x16 solve report keeps its
    # picks (converged lanes), its keys and its merges
    from doublephase.cli import main

    results, failures = solve_branch(mesh16, preset_data, LAM, Branch.MINUS, fields16)
    assert failures == ()
    merged = [res for res in results if res.stop_reason is StopReason.MERGED]
    assert len(merged) == 5
    for res in merged:
        assert not res.converged and res.residual is None, res.start
        assert res.nehari.kind is NehariKind.MINUS, res.start
    cfg = tmp_path / "solve16.cfg"
    cfg.write_text("p = 1.5\nq = 1.8\nkappa = 0.5\nq1 = 4\nlambda = 0.1\nmesh.nx = 16\nmesh.ny = 16\n")
    assert main(["solve", "-c", str(cfg), "-o", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "solve_report.json") as fh:
        report = json.load(fh)
    assert sorted(report) == [
        "lam", "minus", "minus_failures", "minus_merges", "plus", "plus_failures", "plus_merges", "sign_ok"
    ]
    for branch, start, energy in (("plus", "ones", -1.0213193886684988), ("minus", "bump", 46.587574050071176)):
        pick = report[branch]
        assert sorted(pick) == [
            "branch", "converged", "energy", "floor_activations", "iterations", "merged_into", "nehari",
            "residual", "start", "stop_reason",
        ]
        assert (pick["start"], pick["converged"], pick["stop_reason"]) == (start, True, "residual_tol")
        assert pick["energy"] == pytest.approx(energy, rel=1e-13)
        assert pick["residual"]["residual_norm"] <= SolverOptions().residual_tol
    assert report["plus_merges"] == [
        "ramp: merged into ones at iteration 8",
        "bump: merged into bump_perturbed at iteration 4",
        "ones_perturbed: merged into ones at iteration 6",
        "ramp_perturbed: merged into ones at iteration 8",
        "bump_perturbed: merged into ones at iteration 6",
    ]
    assert report["minus_merges"] == [
        "ones: merged into bump at iteration 23",
        "ramp: merged into bump_perturbed at iteration 29",
        "ones_perturbed: merged into bump_perturbed at iteration 25",
        "ramp_perturbed: merged into ramp at iteration 29",
        "bump_perturbed: merged into bump at iteration 31",
    ]
