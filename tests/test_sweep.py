import os
import pickle
import time
from dataclasses import replace

import numpy as np
import pytest

from doublephase import (
    Branch,
    SolverOptions,
    StopReason,
    check_nzero_empty,
    estimate_lambda_star,
    estimate_lambda_tilde,
    estimate_sobolev_constant,
    fiber_terms,
    norm_1p,
    norm_custom,
    solve_branch,
)
from doublephase import forkmap, solver, sweep
from doublephase.fibering import eta, lane_terms, t_circ, t_tilde_circ
from doublephase.rootfind import BracketError
from doublephase.solver import NoRootError
from doublephase.space import lane_dot, sample_fields
from doublephase.sweep import SweepUndetermined, sample_directions

from conftest import assert_no_child_left, overflowing_start, raising_after, rng


def test_lambda_tilde_positive_and_monotone_in_samples(mesh4, preset_data, fields4):
    small = estimate_lambda_tilde(mesh4, preset_data, 10, seed=0, fields=fields4)
    large = estimate_lambda_tilde(mesh4, preset_data, 50, seed=0, fields=fields4)
    assert small > 0
    # one generator stream: the first 10 samples coincide, so min can only drop
    assert large <= small


def test_lambda_tilde_reproducible(mesh4, preset_data, fields4):
    a = estimate_lambda_tilde(mesh4, preset_data, 25, seed=7, fields=fields4)
    b = estimate_lambda_tilde(mesh4, preset_data, 25, seed=7, fields=fields4)
    assert a == b


def test_lambda_tilde_rescaled_terms_match_normalized_directions(mesh16, preset_data, fields16):
    # the fiber terms are homogeneous: those of s u are those of u times s to
    # each term's power, so the unnormalized directions give the lambda_tilde
    # of the normalized ones u/|u|
    d = preset_data
    powers = {"a": d.p, "b": d.q, "c": d.p_lower_star, "d": 1.0 - d.kappa, "e": d.q1}
    expected = np.inf
    for u in sample_directions(mesh16, 20, 3):
        s = 1.0 / norm_custom(mesh16, d, u, fields16)
        ft = fiber_terms(mesh16, d, s * u, fields16)
        base = fiber_terms(mesh16, d, u, fields16)
        for name, r in powers.items():
            assert getattr(ft, name) == pytest.approx(getattr(base, name) * s**r, rel=1e-12)
        expected = min(expected, t_tilde_circ(ft)[1] / ft.e)
    got = estimate_lambda_tilde(mesh16, preset_data, 20, seed=3, fields=fields16)
    assert got == pytest.approx(expected, rel=1e-12)


def test_lambda_tilde_requires_samples(mesh4, preset_data, fields4):
    with pytest.raises(ValueError):
        estimate_lambda_tilde(mesh4, preset_data, 0, seed=0, fields=fields4)


def test_nzero_scan_small_lambda_no_tangency(mesh4, preset_data, fields4):
    ev = check_nzero_empty(mesh4, preset_data, 0.01, 100, seed=0, fields=fields4)
    assert ev.tangencies == ()
    assert ev.n_two_root == 100
    assert ev.n_no_root == 0


def test_nzero_manufactured_tangency_is_flagged(mesh4, preset_data, fields4):
    # pick lambda so that the first sampled direction is exactly tangent
    u0 = next(sample_directions(mesh4, 1, seed=3))
    ft = fiber_terms(mesh4, preset_data, u0, fields4)
    lam = eta(ft, t_circ(ft)) / ft.e
    ev = check_nzero_empty(mesh4, preset_data, lam, 5, seed=3, fields=fields4)
    assert any(t.sample == 0 for t in ev.tangencies)


def test_nzero_all_above_threshold_reported_distinctly(mesh4, preset_data, fields4):
    ratios = []
    for u in sample_directions(mesh4, 50, seed=4):
        ft = fiber_terms(mesh4, preset_data, u, fields4)
        ratios.append(eta(ft, t_circ(ft)) / ft.e)
    lam = 2.0 * max(ratios)
    ev = check_nzero_empty(mesh4, preset_data, lam, 50, seed=4, fields=fields4)
    assert ev.n_two_root == 0
    assert ev.n_no_root == 50
    assert ev.tangencies == ()


def test_nzero_rejects_nonpositive_lambda(mesh4, preset_data, fields4):
    with pytest.raises(ValueError):
        check_nzero_empty(mesh4, preset_data, 0.0, 10, seed=0, fields=fields4)


def test_lambda_star_all_positive_returns_top(mesh4, preset_data, fields4):
    got = estimate_lambda_star(mesh4, preset_data, [0.2, 0.5], fields4)
    assert got == 0.5


def test_lambda_star_refines_into_the_flip_interval(mesh4, preset_data, fields4):
    # the minus-branch minimum flips sign between 1.5 and 2.0 on this mesh
    got = estimate_lambda_star(mesh4, preset_data, [1.0, 2.0], fields4)
    assert 1.0 <= got < 2.0
    assert got > 1.0  # three bisection steps move off the lower endpoint here


def test_lambda_star_rejects_bad_grids(mesh4, preset_data, fields4):
    with pytest.raises(ValueError):
        estimate_lambda_star(mesh4, preset_data, [], fields4)
    with pytest.raises(ValueError):
        estimate_lambda_star(mesh4, preset_data, [0.5, 0.2], fields4)
    with pytest.raises(ValueError):
        estimate_lambda_star(mesh4, preset_data, [-0.1, 0.2], fields4)


def test_lambda_star_on_the_default_16x16_grid(mesh16, preset_data, fields16):
    # the CLI's default sweep (16x16, default grid): every minus start
    # converges at every grid point, so lambda* is determined, at solver
    # seeds 0-6; seeds 4 and 5 perturb the starts into tails that a
    # Euclidean descent stalled on.  The search decides the grid's top
    # alone, so each grid point's own probe is checked here
    grid = (0.05, 0.1, 0.2, 0.4, 0.8)
    for seed in range(7):
        opts = SolverOptions(seed=seed)
        assert estimate_lambda_star(mesh16, preset_data, grid, fields16, opts) == 0.8, seed
        assert all(sweep._positive(mesh16, preset_data, lam, fields16, opts) for lam in grid), seed


def test_lambda_star_of_the_8x8_sweep_over_twenty_seeds(preset_data):
    # the benchmark's sweep8 search: lambda* is the top of the grid at solver
    # seeds 0-19, and every grid point's own probe is determined and positive
    from doublephase import build_rect_mesh

    mesh = build_rect_mesh(8, 8)
    fields = sample_fields(mesh, preset_data)
    grid = (0.05, 0.1, 0.2, 0.4, 0.8)
    for seed in range(20):
        opts = SolverOptions(seed=seed)
        assert estimate_lambda_star(mesh, preset_data, grid, fields, opts) == 0.8, seed
        assert all(sweep._positive(mesh, preset_data, lam, fields, opts) for lam in grid), seed


def test_lambda_star_propagates_solver_failure_as_undetermined(mesh4, preset_data, fields4):
    # the message names the first start, in start order, that did not converge
    with pytest.raises(SweepUndetermined, match="undetermined at lambda=0.2: .* from start 'ones'"):
        estimate_lambda_star(mesh4, preset_data, [0.2], fields4, SolverOptions(max_iter=1))


def test_lambda_star_counts_a_merged_start_by_its_survivor(mesh4, preset_data, fields4):
    # at lambda = 0.05 the minus starts ``ones``, ``ramp`` and ``bump`` merge
    # within 29 iterations, ``ones`` and ``ramp`` into ``ones_perturbed`` and
    # ``bump`` into ``ones``; cut at 30 iterations, the survivor
    # ``ones_perturbed`` has not converged, so the lambda is undetermined,
    # and the message names it, not the earlier merged starts
    opts = SolverOptions(max_iter=30)
    results, _ = solve_branch(mesh4, preset_data, 0.05, Branch.MINUS, fields4, opts)
    by_start = {res.start: res for res in results}
    assert [by_start[name].merged_into for name in ("ones", "ramp", "bump")] == [
        "ones_perturbed", "ones_perturbed", "ones",
    ]
    assert by_start["ones_perturbed"].stop_reason is StopReason.MAX_ITER
    with pytest.raises(
        SweepUndetermined, match="^undetermined at lambda=0.05: minus branch did not converge from start 'ones_perturbed'$"
    ):
        estimate_lambda_star(mesh4, preset_data, [0.05], fields4, opts)


def test_lambda_star_is_undetermined_where_a_minus_start_fails_numerically(monkeypatch, mesh4, preset_data, fields4):
    # the search probes the grid's top first, and the start fails there
    overflowing_start(monkeypatch, mesh4, "ramp")
    with pytest.raises(SweepUndetermined, match="undetermined at lambda=0.5: .* from start 'ramp' .*OverflowError"):
        estimate_lambda_star(mesh4, preset_data, [0.2, 0.5], fields4)


def scan_outcome(*args):
    """``estimate_lambda_star``'s value, or the type and message of what it raised."""
    try:
        return estimate_lambda_star(*args)
    except (SweepUndetermined, ValueError) as exc:
        return type(exc), str(exc)


@pytest.fixture(params=[1, 2], ids=["one_worker", "two_workers"])
def width(request, monkeypatch):
    """The CPUs the fork maps see: one or two.  The lambda* search runs in
    this process at either."""
    if request.param > 1 and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(forkmap, "_available_cpus", lambda: request.param)
    return request.param


@pytest.mark.parametrize(
    "grid, expected",
    [
        ([0.2, 0.5], 0.5),  # every grid point positive
        ([1.0, 2.0], 1.875),  # the flip bracketed, then bisected
        ([1.0, 2.0, 4.0], 1.875),  # 4.0, then 1.0 and 2.0, bracket the flip
        ([2.0, 4.0], (ValueError, "minus-branch energy not positive at the smallest grid point 2.0")),
    ],
)
def test_lambda_star_scan_at_any_width_is_the_sequential_loops(width, grid, expected, mesh4, preset_data, fields4):
    assert scan_outcome(mesh4, preset_data, grid, fields4) == expected
    assert_no_child_left()


def test_lambda_star_scan_at_any_width_on_the_8x8_sweep(width, preset_data):
    from doublephase import build_rect_mesh

    mesh = build_rect_mesh(8, 8)
    fields = sample_fields(mesh, preset_data)
    for seed in range(3):
        opts = SolverOptions(seed=seed)
        assert estimate_lambda_star(mesh, preset_data, (0.05, 0.1, 0.2, 0.4, 0.8), fields, opts) == 0.8, seed
        assert_no_child_left()


@pytest.mark.parametrize("n", [8, 16])
def test_lambda_star_on_a_grid_past_the_flip_is_decided_by_the_bound(width, n, preset_data):
    # at 6.4 every minus start that reaches the branch ends on
    # line_search_exhausted at a negative energy: no start converges, but a
    # minus point with energy <= 0 bounds the branch's minimum, so 6.4 is not
    # positive, and the bisection from 0.8 ends at 1.5
    from doublephase import build_rect_mesh

    mesh = build_rect_mesh(n, n)
    fields = sample_fields(mesh, preset_data)
    assert estimate_lambda_star(mesh, preset_data, (0.05, 0.1, 0.2, 0.4, 0.8, 6.4), fields) == 1.5
    assert_no_child_left()


def _linear_first_nonpositive(mesh, data, grid, fields, opts) -> int:
    """The grid scan the monotone search replaced, in one process: the
    ascending grid in batches of as many (lambda, minus) groups as fit in
    BLOCK_NODES lane-node values, each descended with the cut, decided in
    turn up to the first lambda that is not positive (len(grid) if none);
    the SweepUndetermined of an earlier lambda is raised."""
    per_batch = max(1, sweep.BLOCK_NODES // (mesh.num_nodes * len(solver.multistart_directions(mesh, opts.seed))))
    for lo in range(0, len(grid), per_batch):
        batch = grid[lo:lo + per_batch]
        groups = solver._solve_groups(mesh, data, [(lam, Branch.MINUS) for lam in batch], fields, opts, cut=True)
        for k, (lam, (results, failures)) in enumerate(zip(batch, groups), lo):
            if not sweep._decide(lam, results, failures):
                return k
    return len(grid)


def searches(mesh, data, grid, fields, opts) -> dict:
    """Each grid point's own decision (True, False or "undetermined"), and
    ``scan_outcome`` by the monotone search and by the linear scan, with
    the CLI's numpy errors."""
    decisions = []
    search = sweep._first_nonpositive
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for lam in grid:
            try:
                decisions.append(sweep._positive(mesh, data, lam, fields, opts))
            except SweepUndetermined:
                decisions.append("undetermined")
        outcome = scan_outcome(mesh, data, grid, fields, opts)
        try:
            sweep._first_nonpositive = _linear_first_nonpositive
            linear = scan_outcome(mesh, data, grid, fields, opts)
        finally:
            sweep._first_nonpositive = search
    return {"decisions": decisions, "search": outcome, "linear": linear}


def drawn_search_case(seed: int):
    """A seeded admissible draw for the lambda* search: a 3x3 or 4x4 mesh,
    exponents and coefficients as ``test_cli.admissible_configs`` draws
    them, a grid of 2-5 ascending points in 1e-2..10 (three digits) and
    max_iter 40 or 2000; None where the hypotheses fail."""
    from doublephase import build_rect_mesh
    from doublephase.problem import ProblemData, critical_exponents, validate_hypotheses

    r = rng(seed)
    n = int(r.choice([3, 4]))
    mesh = build_rect_mesh(n, n)
    p = r.uniform(1.05, 1.95)
    p_star, p_lower_star = critical_exponents(p, 2)
    q = p + r.uniform(0.01, 0.99) * (p_star - p)
    lower = max(q, p_lower_star)
    data = ProblemData(
        p=p,
        q=q,
        kappa=r.uniform(0.01, 0.99),
        q1=lower + r.uniform(0.01, 0.99) * (p_star - lower),
        lam=0.1,
        mu=str(r.choice(["x", "0", "1 + y", "2 - x", "x*y"])),
        alpha=str(r.choice(["1", "x", "0.5 + y", "1 + x*y"])),
        beta=str(r.choice(["1", "0", "2 - x", "x*y"])),
        zeta=str(r.choice(["1", "0.5 + x", "1 + y"])),
    )
    if not validate_hypotheses(data, mesh).ok:
        return None
    grid = sorted({float(f"{v:.3g}") for v in 10.0 ** r.uniform(-2.0, 1.0, int(r.integers(2, 6)))})
    opts = SolverOptions(max_iter=int(r.choice([40, 2000])))
    return mesh, data, grid, sample_fields(mesh, data), opts


def check_search_against_the_linear_scan(mesh, data, grid, fields, opts):
    """Where the grid's decisions are monotone (each determined, no
    positive after a non-positive) the search's outcome is the linear
    scan's; elsewhere a value lies in a bracket from a positive grid point
    to the next, non-positive one, or is the top, decided positive."""
    got = searches(mesh, data, grid, fields, opts)
    decisions, search = got["decisions"], got["search"]
    determined = all(isinstance(d, bool) for d in decisions)
    if determined and decisions == sorted(decisions, reverse=True):
        assert search == got["linear"], got
    elif search == (ValueError, f"minus-branch energy not positive at the smallest grid point {grid[0]}"):
        assert decisions[0] is False, got
    elif isinstance(search, float):
        k = sum(lam <= search for lam in grid)
        assert decisions[k - 1] is True and (k == len(grid) or decisions[k] is False), got
        assert k == len(grid) or search < grid[k], got


@pytest.mark.parametrize("seed", range(24))
def test_the_search_against_the_linear_scan_over_seeded_draws(seed):
    case = drawn_search_case(seed)
    if case is None:
        pytest.skip("the draw fails a hypothesis")
    check_search_against_the_linear_scan(*case)


def test_the_search_skips_an_undetermined_grid_point_below_the_flip():
    # decisions undetermined, positive, positive: the linear scan raised at
    # 0.0938, where the minus start 'bump' does not converge in 40
    # iterations; the search decides the top, 1.8, positive, and so returns it
    from doublephase import build_rect_mesh
    from doublephase.problem import ProblemData

    mesh = build_rect_mesh(3, 3)
    data = ProblemData(
        p=1.5593423960887656, q=2.703220643867981, kappa=0.642640174402622, q1=3.76906949465215,
        lam=0.1, mu="1", alpha="1", beta="1", zeta="0.5+y",
    )
    grid = [0.0938, 0.217, 1.8]
    got = searches(mesh, data, grid, sample_fields(mesh, data), SolverOptions(max_iter=40))
    assert got == {
        "decisions": ["undetermined", True, True],
        "search": 1.8,
        "linear": (SweepUndetermined, "undetermined at lambda=0.0938: minus branch did not converge from start 'bump'"),
    }


def result_key(res) -> tuple:
    """A ``SolveResult`` as comparable values: its nodal array's bytes and
    the repr of the rest (exact for floats)."""
    return res.u.tobytes(), repr(replace(res, u=None))


def recording_batches(monkeypatch) -> list:
    """Record each ``_descend`` call's (groups, outcomes), and check that
    both lanes of every pair ``_merge`` may join belong to one group."""
    batches = []
    descend, merge = solver._descend, solver._merge

    def recording(mesh, data, groups, *args, **kwargs):
        batches.append((list(groups), descend(mesh, data, groups, *args, **kwargs)))
        return batches[-1][1]

    def checked(mesh, lanes, u, links):
        for a, b in links[0]:
            assert (lanes[a].group, lanes[a].lam, lanes[a].branch) == (lanes[b].group, lanes[b].lam, lanes[b].branch)
        return merge(mesh, lanes, u, links)

    monkeypatch.setattr(solver, "_descend", recording)
    monkeypatch.setattr(solver, "_merge", checked)
    return batches


def test_a_multi_lambda_batch_gives_each_lambda_its_solve_branch_results(monkeypatch, preset_data):
    # the 8x8 default grid's 30 minus lanes descend as one batch with the
    # cut; no lane there reaches energy <= 0, so no cut fires, and each
    # lambda's six results are its own solve_branch's, bit for bit, merges
    # included
    from doublephase import build_rect_mesh

    mesh = build_rect_mesh(8, 8)
    fields = sample_fields(mesh, preset_data)
    grid = (0.05, 0.1, 0.2, 0.4, 0.8)
    batches = recording_batches(monkeypatch)
    groups = [(lam, Branch.MINUS) for lam in grid]
    got = solver._solve_groups(mesh, preset_data, groups, fields, SolverOptions(), cut=True)
    ((descended, outcomes),) = batches
    assert descended == groups
    merges = 0
    for lam, group, (results, failures) in zip(grid, outcomes, got, strict=True):
        own, own_failures = solve_branch(mesh, preset_data, lam, Branch.MINUS, fields)
        assert failures == own_failures == ()
        assert [result_key(res) for res in group] == [result_key(res) for res in results]
        assert [result_key(res) for res in group] == [result_key(res) for res in own], lam
        assert sweep._decide(lam, results, failures) is True
        merges += sum(res.stop_reason is StopReason.MERGED for res in own)
    assert merges > 0


def test_a_cut_leaves_the_batchs_other_groups_bit_for_bit(monkeypatch, preset_data):
    # the cut stops the lanes of one group only: on 8x8, in one batch, the
    # plus group at 0.1 (a plus point's energy is negative) and the minus
    # groups at 2.0 and 4.0 (the minus minimum is negative there) stop at
    # their own points with energy <= 0, each as it does alone, while the
    # minus group at 1.0, above the plus group's lambda and below 2.0, runs
    # on to its solve_branch results, bit for bit
    from doublephase import build_rect_mesh

    mesh = build_rect_mesh(8, 8)
    fields = sample_fields(mesh, preset_data)
    groups = [(0.1, Branch.PLUS), (1.0, Branch.MINUS), (2.0, Branch.MINUS), (4.0, Branch.MINUS)]
    batches = recording_batches(monkeypatch)
    got = solver._solve_groups(mesh, preset_data, groups, fields, SolverOptions(), cut=True)
    ((descended, _),) = batches
    assert descended == groups
    assert [sweep._decide(lam, *group) for (lam, _), group in zip(groups[1:], got[1:])] == [True, False, False]
    (results, failures), (own, own_failures) = got[1], solve_branch(mesh, preset_data, 1.0, Branch.MINUS, fields)
    assert failures == own_failures == ()
    assert [result_key(res) for res in results] == [result_key(res) for res in own]
    for k in (0, 2, 3):
        (results, failures), group = got[k], groups[k]
        assert failures == ()
        assert all(res.stop_reason is StopReason.CUT or res.energy <= 0.0 for res in results)
        assert any(res.energy <= 0.0 for res in results)
        ((alone, _),) = solver._solve_groups(mesh, preset_data, [group], fields, SolverOptions(), cut=True)
        assert [result_key(res) for res in results] == [result_key(res) for res in alone], group


def test_a_scans_cut_batch_never_leaves_its_process(monkeypatch, tmp_path, mesh4, preset_data, fields4):
    # a batch with the cut descends in one process whatever the CPU count,
    # and its cut reaches no other group: at two CPUs the groups over (1.0,
    # 2.0, 4.0) are one batch in this process; 2.0 and 4.0 decide by the
    # bound, each cut by a point of its own, and 1.0 gets its solve_branch
    # results and failures
    groups = [(lam, Branch.MINUS) for lam in (1.0, 2.0, 4.0)]
    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 1)
    want = solver._solve_groups(mesh4, preset_data, groups, fields4, SolverOptions(), cut=True)
    log = tmp_path / "descents"
    descend = solver._descend

    def recording(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return descend(*args)

    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    monkeypatch.setattr(solver, "_descend", recording)
    pairs = solver._solve_groups(mesh4, preset_data, groups, fields4, SolverOptions(), cut=True)
    assert [sweep._decide(lam, *pair) for (lam, _), pair in zip(groups[:2], pairs)] == [True, False]
    assert [[result_key(res) for res in results] for results, _ in pairs] == [
        [result_key(res) for res in results] for results, _ in want
    ]
    assert log.read_text().split() == [str(os.getpid())]
    assert_no_child_left()
    assert len(pairs) == len(groups)
    (results, failures), own = pairs[0], solve_branch(mesh4, preset_data, 1.0, Branch.MINUS, fields4)
    assert [result_key(res) for res in results] == [result_key(res) for res in own[0]]
    assert [(name, repr(exc)) for name, exc in failures] == [(name, repr(exc)) for name, exc in own[1]]
    assert all(any(res.energy <= 0.0 for res in results) for results, _ in pairs[1:])


def test_a_group_owns_the_merge_rule(monkeypatch, preset_data):
    # lanes merge only within their (lambda, branch) group, even beside a
    # group of the same lambda and branch, whose lanes lie on theirs: in one
    # batch each group's outcomes are its one-group descent's, bit for bit,
    # merges included
    from doublephase import build_rect_mesh

    mesh = build_rect_mesh(8, 8)
    fields = sample_fields(mesh, preset_data)
    starts = solver.multistart_directions(mesh, 0)
    groups = [(0.2, Branch.MINUS), (0.2, Branch.MINUS), (0.4, Branch.MINUS)]
    batches = recording_batches(monkeypatch)
    got = solver._descend(mesh, preset_data, groups, starts, fields, SolverOptions())
    merges = 0
    for group, outcomes in zip(groups, got, strict=True):
        (own,) = solver._descend(mesh, preset_data, [group], starts, fields, SolverOptions())
        assert [result_key(res) for res in outcomes] == [result_key(res) for res in own], group
        merges += sum(res.stop_reason is StopReason.MERGED for res in own)
    assert merges > 0 and len(batches) == 4


def test_lambda_star_scan_at_any_width_names_the_same_unconverged_start(width, mesh4, preset_data, fields4):
    # the search probes the grid's top first, and nothing converges there
    got = scan_outcome(mesh4, preset_data, [0.2, 0.5], fields4, SolverOptions(max_iter=1))
    assert got == (SweepUndetermined, "undetermined at lambda=0.5: minus branch did not converge from start 'ones'")
    assert_no_child_left()


def test_lambda_star_scan_at_any_width_names_the_same_failed_start(width, monkeypatch, mesh4, preset_data, fields4):
    # the search probes the grid's top first, and the start fails there
    overflowing_start(monkeypatch, mesh4, "ramp")
    got = scan_outcome(mesh4, preset_data, [0.2, 0.5], fields4)
    detail = "minus branch failed numerically from start 'ramp' (OverflowError): power sum overflow"
    assert got == (SweepUndetermined, f"undetermined at lambda=0.5: {detail}")
    assert_no_child_left()


def test_lambda_star_grid_points_run_in_workers(width, monkeypatch, mesh4, preset_data, fields4):
    # the search has no workers: at one CPU or two, the grid point it probes
    # first, the top 0.5, is solved in this process
    def solved_where(mesh, data, groups, *args, **kwargs):
        raise SweepUndetermined(groups[0][0], f"solved in process {os.getpid()}")

    monkeypatch.setattr(solver, "_descend", solved_where)
    with pytest.raises(SweepUndetermined) as info:
        estimate_lambda_star(mesh4, preset_data, [0.2, 0.5], fields4)
    assert info.value.lam == 0.5
    assert info.value.detail == f"solved in process {os.getpid()}"
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_lambda_star_workers_solve_their_lanes_in_process(monkeypatch, preset_data):
    # the search's probes are its only workers: at two CPUs the default 8x8
    # search probes the grid's top, 0.8, finds it positive, and so decides
    # every grid point: one descent, of 0.8's six minus starts, in this
    # process, and no fork; every probe is one such descent in this process
    from doublephase import build_rect_mesh

    mesh = build_rect_mesh(8, 8)
    fields = sample_fields(mesh, preset_data)
    descend = solver._descend
    calls = []

    def recording(mesh, data, groups, *args, **kwargs):
        calls.append((os.getpid(), list(groups)))
        return descend(mesh, data, groups, *args, **kwargs)

    def no_fork():
        raise AssertionError("the lambda* search forked")

    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    monkeypatch.setattr(solver, "_descend", recording)
    monkeypatch.setattr(os, "fork", no_fork)
    assert estimate_lambda_star(mesh, preset_data, (0.05, 0.1, 0.2, 0.4, 0.8), fields) == 0.8
    assert calls == [(os.getpid(), [(0.8, Branch.MINUS)])]
    # with 6.4 on top, not positive, the search bisects over the indices
    # (0.2, then 0.4 and 0.8), then between 0.8 and 6.4
    calls.clear()
    assert estimate_lambda_star(mesh, preset_data, (0.05, 0.1, 0.2, 0.4, 0.8, 6.4), fields) == 1.5
    assert calls == [(os.getpid(), [(lam, Branch.MINUS)]) for lam in (6.4, 0.2, 0.4, 0.8, 3.6, 2.2, 1.5)]


@pytest.mark.parametrize("mesh_name", ["mesh2", "mesh4"])
def test_sample_directions_from_start_are_the_streams_tail(mesh_name, request):
    # a sampling chunk's blocks skip to its start by advancing the generator
    # one step per double of Generator.random; a numpy change to that rule
    # fails here
    mesh = request.getfixturevalue(mesh_name)
    for k in (0, 1, 2, 5):
        tail = list(sample_directions(mesh, 4 + k, seed=9))[k:]
        got = [u for block in sweep._direction_blocks(mesh, 4, 9, k) for u in block]
        assert len(got) == 4 and all(np.array_equal(a, b) for a, b in zip(got, tail)), k


@pytest.fixture(scope="module")
def sampling_meshes(mesh4, fields4, preset_data):
    from doublephase import build_rect_mesh

    mesh8 = build_rect_mesh(8, 8)
    return {"4x4": (mesh4, fields4), "8x8": (mesh8, sample_fields(mesh8, preset_data))}


def sampling_at_width(monkeypatch, width):
    """Let the sampling maps fork ``width`` workers on any mesh."""
    monkeypatch.setattr(forkmap, "_available_cpus", lambda: width)
    monkeypatch.setattr(sweep, "FORK_MIN_NODES", 1)


def recording_maps(monkeypatch) -> list:
    """Record each of sweep's fork maps as (the chunks the map hands to its
    function, in order, from a worker too, the map's joined values)."""
    maps = []
    fork_map = sweep._fork_map

    def recording(func, items, **kwargs):
        pairs = fork_map(lambda chunk: [(chunk, func(chunk))], items, **kwargs)
        maps.append(([chunk for chunk, _ in pairs], [value for _, values in pairs for value in values]))
        return maps[-1][1]

    monkeypatch.setattr(sweep, "_fork_map", recording)
    return maps


def test_sampling_maps_fork_only_above_the_node_threshold(monkeypatch, mesh16, preset_data):
    from doublephase import build_rect_mesh

    def sampled_chunks(mesh, n_samples):
        maps.clear()
        sweep.sample_fibers(mesh, preset_data, n_samples, 0, sample_fields(mesh, preset_data))
        [(chunks, _)] = maps
        return chunks

    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    maps = recording_maps(monkeypatch)
    # 200 samples: in-process up to 32x32 (M = 1089), on two workers from 64x64
    assert sampled_chunks(mesh16, 200) == [range(0, 200)]
    assert sampled_chunks(build_rect_mesh(32, 32), 200) == [range(0, 200)]
    assert sampled_chunks(build_rect_mesh(64, 64), 200) == [range(0, 100), range(100, 200)]
    monkeypatch.setattr(sweep, "FORK_MIN_NODES", 1)
    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 3)
    assert sampled_chunks(mesh16, 2) == [range(0, 1), range(1, 2)]
    assert sampled_chunks(mesh16, 7) == [range(0, 2), range(2, 4), range(4, 7)]
    assert_no_child_left()


def sampling_in_blocks(monkeypatch, mesh, per_block):
    """Let the sampling break its directions down ``per_block`` at a time."""
    monkeypatch.setattr(sweep, "BLOCK_NODES", per_block * mesh.num_nodes)
    assert sweep._block_size(mesh) == per_block


@pytest.mark.parametrize("n_samples", [1, 2, 7])
@pytest.mark.parametrize("mesh_name", ["4x4", "8x8"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sampling_at_any_width_is_the_sequential_loops(
    workers, mesh_name, n_samples, monkeypatch, sampling_meshes, preset_data
):
    if workers > 1 and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    mesh, fields = sampling_meshes[mesh_name]
    d = preset_data
    sobolev = estimate_sobolev_constant(mesh, d, n_samples, 3, fields)
    loop = tuple(sweep._sampled_fiber(fiber_terms(mesh, d, u, fields)) for u in sample_directions(mesh, n_samples, 3))

    sampling_at_width(monkeypatch, workers)
    maps = recording_maps(monkeypatch)
    fibers = sweep.sample_fibers(mesh, d, n_samples, 3, fields)
    assert len(maps[0][0]) == min(workers, n_samples)
    assert repr(fibers) == repr(loop)
    assert repr(sweep.lambda_tilde_from(fibers)) == repr(sweep.lambda_tilde_from(loop))
    for lam in (0.05, 0.8, 1e9):
        assert sweep.nzero_evidence(fibers, lam) == sweep.nzero_evidence(loop, lam)
    assert repr(estimate_sobolev_constant(mesh, d, n_samples, 3, fields)) == repr(sobolev)
    assert_no_child_left()


@pytest.mark.parametrize("per_block", [1, 2, 3])
@pytest.mark.parametrize("mesh_name", ["4x4", "8x8"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_sampling_in_blocks_is_the_sequential_loops(
    workers, mesh_name, per_block, monkeypatch, sampling_meshes, preset_data
):
    # 11 samples: at 3 workers the chunks are 0-2, 3-6 and 7-10, so blocks of
    # 2 and 3 end inside a chunk and at its end; the sampled Rayleigh
    # candidates' masses run in the same chunks, and the caller scores the 6
    # multi-starts ahead of them
    if workers > 1 and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    mesh, fields = sampling_meshes[mesh_name]
    d, n = preset_data, 11
    sobolev = estimate_sobolev_constant(mesh, d, n, 3, fields)
    rng = np.random.default_rng(3)
    directions = [rng.random(mesh.num_nodes) for _ in range(n)]  # one draw per direction
    loop = tuple(sweep._sampled_fiber(fiber_terms(mesh, d, u, fields)) for u in directions)
    candidates = [w for _, w in solver.multistart_directions(mesh, 3)] + directions
    quotients = [sweep._rayleigh_quotient(mesh, d, w, fields) for w in candidates]

    sampling_at_width(monkeypatch, workers)
    sampling_in_blocks(monkeypatch, mesh, per_block)
    maps = recording_maps(monkeypatch)
    scored = []  # every (quotient, numerator, mass) in order: the candidates', then the polish's
    quotient = sweep._quotient

    def recording(data, num, mass):
        scored.append(quotient(data, num, mass))
        return scored[-1]

    monkeypatch.setattr(sweep, "_quotient", recording)
    assert all(np.array_equal(u, w) for u, w in zip(sample_directions(mesh, n, 3), directions, strict=True))
    fibers = sweep.sample_fibers(mesh, d, n, 3, fields)
    assert repr(fibers) == repr(loop)
    assert repr(sweep.sobolev_from(mesh, d, fibers, 3, fields)) == repr(sobolev)
    # every candidate's (quotient, numerator, mass), not only the minimum the
    # estimate keeps, and each sampled mass from its own chunk's blocks
    assert repr(scored[:6 + n]) == repr(quotients)
    ((chunks, masses),) = maps[1:]
    assert len(chunks) == min(workers, n)
    assert repr(masses) == repr([q[2] for q in quotients[6:]])
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_dead_sampling_worker_changes_nothing(monkeypatch, mesh4, preset_data, fields4):
    d = preset_data
    fibers = sweep.sample_fibers(mesh4, d, 9, 2, fields4)
    sobolev = estimate_sobolev_constant(mesh4, d, 9, 2, fields4)

    parent = os.getpid()
    calls = []

    def dying(call):
        def wrapped(*args):
            if os.getpid() != parent:
                calls.append(1)
                if len(calls) == 2:  # the worker dies in the middle of the first chunk; the parent runs the last
                    os._exit(3)
            return call(*args)

        return wrapped

    in_parent = []  # the chunks the parent runs, in order
    fork_map = sweep._fork_map

    def noting_parents_chunks(func, items, **kwargs):
        def noted(chunk):
            if os.getpid() == parent:
                in_parent.append(chunk)
            return func(chunk)

        return fork_map(noted, items, **kwargs)

    sampling_at_width(monkeypatch, 2)
    sampling_in_blocks(monkeypatch, mesh4, 2)
    monkeypatch.setattr(sweep, "_fork_map", noting_parents_chunks)
    monkeypatch.setattr(sweep, "_fiber_block", dying(sweep._fiber_block))
    monkeypatch.setattr(sweep, "_mass_block", dying(sweep._mass_block))
    with raising_after(60, TimeoutError("the sampling hung on a dead worker")):
        assert sweep.sample_fibers(mesh4, d, 9, 2, fields4) == fibers
        assert sweep.sobolev_from(mesh4, d, fibers, 2, fields4) == sobolev
    # each map's parent (the fibers', then the masses') ran its own chunk of
    # the 9 samples, then recomputed the first
    assert in_parent == [range(4, 9), range(0, 4)] * 2
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_interrupted_sampling_leaves_no_process(monkeypatch, mesh4, preset_data, fields4):
    def stuck(*args):
        time.sleep(60)

    sampling_at_width(monkeypatch, 2)
    monkeypatch.setattr(sweep, "_fiber_block", stuck)
    with raising_after(0.2, KeyboardInterrupt()):
        with pytest.raises(KeyboardInterrupt):
            sweep.sample_fibers(mesh4, preset_data, 6, 0, fields4)
    assert_no_child_left()


@pytest.mark.parametrize(
    "rows, roots, first",
    [((4,), (5,), 4), ((1, 4), (), 1), ((4,), (3,), 3)],
    ids=["later_chunk", "both_chunks", "root_before_row"],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_sampling_raises_the_sequential_loops_first_error(
    workers, rows, roots, first, monkeypatch, mesh4, preset_data, fields4
):
    # blocks of 3, and with two workers samples 0-2 are the first chunk and
    # 3-5 the second: the batched breakdown of the samples in ``rows`` is not
    # finite, and their breakdown alone raises; the samples in ``roots`` raise
    # in their scalar roots
    if workers > 1 and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    directions = list(sample_directions(mesh4, 6, 0))
    root_terms = {fiber_terms(mesh4, preset_data, directions[i], fields4): i for i in roots}
    block_terms, terms, root = sweep.lane_terms, sweep.fiber_terms, sweep.t_circ

    def index(u):
        return next(i for i, w in enumerate(directions) if np.array_equal(u, w))

    def not_finite_at(mesh, data, block, fields):
        return [None if index(u) in rows else ft for u, ft in zip(block, block_terms(mesh, data, block, fields))]

    def failing_at(mesh, data, u, fields):
        if index(u) in rows:
            raise BracketError(f"no sign change at sample {index(u)}")
        return terms(mesh, data, u, fields)

    def root_failing_at(ft):
        if ft in root_terms:
            raise ArithmeticError(f"no sign change at sample {root_terms[ft]}")
        return root(ft)

    sampling_at_width(monkeypatch, workers)
    sampling_in_blocks(monkeypatch, mesh4, 3)
    monkeypatch.setattr(sweep, "lane_terms", not_finite_at)
    monkeypatch.setattr(sweep, "fiber_terms", failing_at)
    monkeypatch.setattr(sweep, "t_circ", root_failing_at)
    with pytest.raises(ArithmeticError, match=f"^no sign change at sample {first}$"):
        sweep.sample_fibers(mesh4, preset_data, 6, 0, fields4)
    assert_no_child_left()


def test_scan_errors_survive_a_pickle_round_trip():
    for exc in (SweepUndetermined(0.2, "x"), NoRootError("no minus root"), BracketError("no sign change")):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc)
    assert pickle.loads(pickle.dumps(SweepUndetermined(0.2, "x"))).lam == 0.2


def test_sobolev_estimate_bounded_by_unit_function(mesh4, preset_data, fields4):
    # u = 1 gives quotient exactly 1, so the running minimum is at most 1
    est = estimate_sobolev_constant(mesh4, preset_data, 20, seed=0, fields=fields4)
    assert 0 < est <= 1.0


def test_sobolev_polishing_never_increases(monkeypatch, mesh4, preset_data, fields4):
    monkeypatch.setattr(sweep, "SOBOLEV_POLISH_STEPS", 0)
    rough = estimate_sobolev_constant(mesh4, preset_data, 20, seed=0, fields=fields4)
    monkeypatch.setattr(sweep, "SOBOLEV_POLISH_STEPS", 40)
    polished = estimate_sobolev_constant(mesh4, preset_data, 20, seed=0, fields=fields4)
    assert polished <= rough + 1e-15


def test_sobolev_polishing_moves_off_a_constant_best_candidate(monkeypatch, mesh4, preset_data):
    # on the preset the best candidate is constant, with a zero quotient
    # gradient, so the polish takes no step; with alpha = 0.5 + x it takes
    # accepted steps, each carrying its numerator and L^{p*} mass forward
    data = replace(preset_data, alpha="0.5 + x")
    fields = sample_fields(mesh4, data)
    monkeypatch.setattr(sweep, "SOBOLEV_POLISH_STEPS", 0)
    rough = estimate_sobolev_constant(mesh4, data, 20, seed=0, fields=fields)
    monkeypatch.setattr(sweep, "SOBOLEV_POLISH_STEPS", 40)
    polished = estimate_sobolev_constant(mesh4, data, 20, seed=0, fields=fields)
    assert polished < rough


def _old_quotient_block(mesh, data, block, fields) -> list:
    """``_rayleigh_quotient`` of each row of the (k, M) ``block`` (None for a
    zero row) from one batched breakdown and one batched L^{p*} mass, a row
    that is not finite recomputed alone: the second sampling kernel the
    estimate had before it read its numerators from the fiber table."""
    terms = lane_terms(mesh, data, block, fields)
    with np.errstate(all="ignore"):
        masses = lane_dot(np.abs(block) ** data.p_star, mesh.node_weight).tolist()
    out = []
    for u, nonzero, ft, mass in zip(block, block.any(axis=-1).tolist(), terms, masses):
        if not nonzero:
            out.append(None)
        elif ft is None or not np.isfinite(mass):
            out.append(sweep._rayleigh_quotient(mesh, data, u, fields))
        else:
            out.append(sweep._quotient(data, ft.a, mass))
    return out


def _old_estimate_sobolev_constant(mesh, data, n_samples, seed, fields) -> float:
    """The estimate that broke every sampled direction down a second time
    (``_old_quotient_block``), with its polish: the oracle of ``sobolev_from``."""
    starts = np.array([w for _, w in solver.multistart_directions(mesh, seed)])
    k = sweep._block_size(mesh)
    quotients = [q for lo in range(0, len(starts), k) for q in _old_quotient_block(mesh, data, starts[lo:lo + k], fields)]
    quotients += sweep._map_directions(mesh, n_samples, seed, lambda block: _old_quotient_block(mesh, data, block, fields))
    best, val, num, mass = None, np.inf, None, None
    for i, q in enumerate(quotients):
        if q is not None and q[0] < val:
            best, (val, num, mass) = i, q
    u = starts[best] if best < len(starts) else next(sweep._direction_blocks(mesh, 1, seed, best - len(starts)))[0]
    step = 1.0
    for _ in range(sweep.SOBOLEV_POLISH_STEPS):
        g = sweep._rayleigh_gradient(mesh, data, u, fields, num, mass)
        if not g.any():
            break
        s = step
        for _ in range(30):
            trial = u - s * g
            if np.any(trial):
                tval, tnum, tmass = sweep._rayleigh_quotient(mesh, data, trial, fields)
                if np.isfinite(tval) and tval < val:
                    u, val, num, mass, step = trial, tval, tnum, tmass, s * 2.0
                    break
            s *= 0.5
        else:
            break
    return float(val)


@pytest.mark.parametrize("n_samples", [1, 2, 7, 11])
@pytest.mark.parametrize("alpha", ["1", "0.5 + x", "exp(-5*x)"])
def test_sobolev_estimate_is_the_two_pass_estimate_it_replaced(alpha, n_samples, preset_data):
    # seeded draws of the mesh (3x3 to 8x8) and of the sampling seed; the
    # estimate, from the fiber table and from the public wrapper, is the old
    # one's bit for bit, the polish included (it moves for alpha != 1)
    from doublephase import build_rect_mesh

    data = replace(preset_data, alpha=alpha)
    draw = rng(n_samples)
    for _ in range(2):
        nx, ny = (int(v) for v in draw.integers(3, 9, size=2))
        seed = int(draw.integers(0, 1000))
        mesh = build_rect_mesh(nx, ny)
        fields = sample_fields(mesh, data)
        want = repr(_old_estimate_sobolev_constant(mesh, data, n_samples, seed, fields))
        fibers = sweep.sample_fibers(mesh, data, n_samples, seed, fields)
        assert repr(sweep.sobolev_from(mesh, data, fibers, seed, fields)) == want, (nx, ny, seed)
        assert repr(estimate_sobolev_constant(mesh, data, n_samples, seed, fields=fields)) == want, (nx, ny, seed)


def test_sampled_threshold_ordering(mesh4, preset_data, fields4):
    # lambda_star <= lambda_tilde in the sampled sense on this preset
    lam_tilde = estimate_lambda_tilde(mesh4, preset_data, 50, seed=0, fields=fields4)
    lam_star = estimate_lambda_star(mesh4, preset_data, [0.2, 0.5], fields4)
    assert lam_star <= lam_tilde


def test_two_roots_below_lambda_tilde(mesh4, preset_data, fields4):
    from doublephase import fiber_roots

    lam_tilde = estimate_lambda_tilde(mesh4, preset_data, 30, seed=11, fields=fields4)
    lam = 0.9 * lam_tilde
    for u in sample_directions(mesh4, 30, seed=11):
        ft = fiber_terms(mesh4, preset_data, u, fields4)
        assert fiber_roots(ft, lam).kind == "two"
