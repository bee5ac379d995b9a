import os
import pickle
import time

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
from doublephase.fibering import eta, t_circ, t_tilde_circ
from doublephase.rootfind import BracketError
from doublephase.solver import NoRootError
from doublephase.space import sample_fields
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
    # Euclidean descent stalled on
    for seed in range(7):
        opts = SolverOptions(seed=seed)
        assert estimate_lambda_star(mesh16, preset_data, (0.05, 0.1, 0.2, 0.4, 0.8), fields16, opts) == 0.8, seed


def test_lambda_star_of_the_8x8_sweep_over_twenty_seeds(preset_data):
    # the benchmark's sweep8 scan: lambda* is the top of the grid at solver
    # seeds 0-19, so every grid point is determined and positive
    from doublephase import build_rect_mesh

    mesh = build_rect_mesh(8, 8)
    fields = sample_fields(mesh, preset_data)
    for seed in range(20):
        opts = SolverOptions(seed=seed)
        assert estimate_lambda_star(mesh, preset_data, (0.05, 0.1, 0.2, 0.4, 0.8), fields, opts) == 0.8, seed


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
    overflowing_start(monkeypatch, mesh4, "ramp")
    with pytest.raises(SweepUndetermined, match="undetermined at lambda=0.2: .* from start 'ramp' .*OverflowError"):
        estimate_lambda_star(mesh4, preset_data, [0.2, 0.5], fields4)


def scan_outcome(*args):
    """``estimate_lambda_star``'s value, or the type and message of what it raised."""
    try:
        return estimate_lambda_star(*args)
    except (SweepUndetermined, ValueError) as exc:
        return type(exc), str(exc)


@pytest.fixture(params=[1, 2], ids=["one_worker", "two_workers"])
def width(request, monkeypatch):
    """The scan's worker count: the in-process loop at 1, two forked workers at 2."""
    if request.param > 1 and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    monkeypatch.setattr(forkmap, "_available_cpus", lambda: request.param)
    return request.param


@pytest.mark.parametrize(
    "grid, expected",
    [
        ([0.2, 0.5], 0.5),  # every grid point positive
        ([1.0, 2.0], 1.875),  # the flip bracketed, then bisected
        ([1.0, 2.0, 4.0], 1.875),  # stops at 2.0 while a worker solves 4.0
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


def test_lambda_star_scan_at_any_width_names_the_same_unconverged_start(width, mesh4, preset_data, fields4):
    got = scan_outcome(mesh4, preset_data, [0.2, 0.5], fields4, SolverOptions(max_iter=1))
    assert got == (SweepUndetermined, "undetermined at lambda=0.2: minus branch did not converge from start 'ones'")
    assert_no_child_left()


def test_lambda_star_scan_at_any_width_names_the_same_failed_start(width, monkeypatch, mesh4, preset_data, fields4):
    # the workers inherit the monkeypatched projection through the fork
    overflowing_start(monkeypatch, mesh4, "ramp")
    got = scan_outcome(mesh4, preset_data, [0.2, 0.5], fields4)
    detail = "minus branch failed numerically from start 'ramp' (OverflowError): power sum overflow"
    assert got == (SweepUndetermined, f"undetermined at lambda=0.2: {detail}")
    assert_no_child_left()


def test_lambda_star_grid_points_run_in_workers(width, monkeypatch, mesh4, preset_data, fields4):
    def solved_where(mesh, data, lam, fields, opts):
        raise SweepUndetermined(lam, f"solved in process {os.getpid()}")

    monkeypatch.setattr(sweep, "_minus_branch_positive", solved_where)
    with pytest.raises(SweepUndetermined) as info:
        estimate_lambda_star(mesh4, preset_data, [0.2, 0.5], fields4)
    assert info.value.lam == 0.2
    assert (info.value.detail == f"solved in process {os.getpid()}") == (width == 1)
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_lambda_star_workers_solve_their_lanes_in_process(monkeypatch, tmp_path, mesh4, preset_data, fields4):
    # a solve inside a scan worker would fork its lanes above the threshold;
    # a map inside a worker runs in-process instead, so each grid lambda's
    # lanes descend in one call in its worker's process
    log = tmp_path / "descents"
    descend = solver._descend

    def recording(mesh, data, lam, *args):
        with open(log, "a") as fh:
            fh.write(f"{lam!r} {os.getpid()}\n")
        return descend(mesh, data, lam, *args)

    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    monkeypatch.setattr(solver, "LANE_FORK_MIN_NODES", 1)
    monkeypatch.setattr(solver, "_descend", recording)
    assert estimate_lambda_star(mesh4, preset_data, [0.2, 0.5], fields4) == 0.5
    calls = [line.split() for line in log.read_text().splitlines()]
    assert sorted(lam for lam, _ in calls) == ["0.2", "0.5"]
    assert str(os.getpid()) not in {pid for _, pid in calls}
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_lambda_star_scan_names_a_dead_worker_and_leaves_no_process(monkeypatch, mesh4, preset_data, fields4):
    parent = os.getpid()
    positive = sweep._minus_branch_positive

    def dying(mesh, data, lam, fields, opts):
        if lam == 0.5 and os.getpid() != parent:
            os._exit(3)
        return positive(mesh, data, lam, fields, opts)

    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    monkeypatch.setattr(sweep, "_minus_branch_positive", dying)
    with raising_after(60, TimeoutError("the scan hung on a dead worker")):
        with pytest.raises(SweepUndetermined, match=r"^undetermined at lambda=0.5: its worker died \(exit status 3\)$"):
            estimate_lambda_star(mesh4, preset_data, [0.2, 0.5, 0.8], fields4)
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_interrupted_lambda_star_scan_leaves_no_process(monkeypatch, mesh4, preset_data, fields4):
    def stuck(mesh, data, lam, fields, opts):
        time.sleep(60)

    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    monkeypatch.setattr(sweep, "_minus_branch_positive", stuck)
    with raising_after(0.2, KeyboardInterrupt()):
        with pytest.raises(KeyboardInterrupt):
            estimate_lambda_star(mesh4, preset_data, [0.2, 0.5], fields4)
    assert_no_child_left()


@pytest.mark.parametrize("mesh_name", ["mesh2", "mesh4"])
def test_sample_directions_from_start_are_the_streams_tail(mesh_name, request):
    # sample_directions skips by advancing the generator one step per double
    # of Generator.random; a numpy change to that rule fails here
    mesh = request.getfixturevalue(mesh_name)
    for k in (0, 1, 2, 5):
        tail = list(sample_directions(mesh, 4 + k, seed=9))[k:]
        got = list(sample_directions(mesh, 4, seed=9, start=k))
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


def test_sampling_maps_fork_only_above_the_node_threshold(monkeypatch, mesh16):
    from doublephase import build_rect_mesh

    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    # 200 samples: in-process up to 32x32 (M = 1089), on two workers from 64x64
    assert sweep._chunks(200, mesh16) == [(0, 200)]
    assert sweep._chunks(200, build_rect_mesh(32, 32)) == [(0, 200)]
    assert sweep._chunks(200, build_rect_mesh(64, 64)) == [(0, 100), (100, 200)]
    monkeypatch.setattr(sweep, "FORK_MIN_NODES", 1)
    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 3)
    assert sweep._chunks(2, mesh16) == [(0, 1), (1, 2)]
    assert sweep._chunks(7, mesh16) == [(0, 2), (2, 4), (4, 7)]


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
    loop = tuple(sweep._sampled_fiber(mesh, d, u, fields) for u in sample_directions(mesh, n_samples, 3))

    sampling_at_width(monkeypatch, workers)
    assert len(sweep._chunks(n_samples, mesh)) == min(workers, n_samples)
    fibers = sweep.sample_fibers(mesh, d, n_samples, 3, fields)
    assert repr(fibers) == repr(loop)
    assert repr(sweep.lambda_tilde_from(fibers)) == repr(sweep.lambda_tilde_from(loop))
    for lam in (0.05, 0.8, 1e9):
        assert sweep.nzero_evidence(fibers, lam) == sweep.nzero_evidence(loop, lam)
    assert repr(estimate_sobolev_constant(mesh, d, n_samples, 3, fields)) == repr(sobolev)
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

    sampling_at_width(monkeypatch, 2)
    monkeypatch.setattr(sweep, "fiber_terms", dying(sweep.fiber_terms))
    monkeypatch.setattr(sweep, "_rayleigh_quotient", dying(sweep._rayleigh_quotient))
    with raising_after(60, TimeoutError("the sampling hung on a dead worker")):
        assert sweep.sample_fibers(mesh4, d, 9, 2, fields4) == fibers
        assert estimate_sobolev_constant(mesh4, d, 9, 2, fields4) == sobolev
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_interrupted_sampling_leaves_no_process(monkeypatch, mesh4, preset_data, fields4):
    def stuck(*args):
        time.sleep(60)

    sampling_at_width(monkeypatch, 2)
    monkeypatch.setattr(sweep, "fiber_terms", stuck)
    with raising_after(0.2, KeyboardInterrupt()):
        with pytest.raises(KeyboardInterrupt):
            sweep.sample_fibers(mesh4, preset_data, 6, 0, fields4)
    assert_no_child_left()


@pytest.mark.parametrize("failing", [(4,), (1, 4)], ids=["later_chunk", "both_chunks"])
@pytest.mark.parametrize("workers", [1, 2])
def test_sampling_raises_the_sequential_loops_first_error(workers, failing, monkeypatch, mesh4, preset_data, fields4):
    # with two workers, samples 0-2 are the first chunk and 3-5 the second
    if workers > 1 and not hasattr(os, "fork"):
        pytest.skip("no os.fork")
    directions = list(sample_directions(mesh4, 6, 0))
    terms = sweep.fiber_terms

    def failing_at(mesh, data, u, fields):
        i = next(i for i, w in enumerate(directions) if np.array_equal(u, w))
        if i in failing:
            raise BracketError(f"no sign change at sample {i}")
        return terms(mesh, data, u, fields)

    sampling_at_width(monkeypatch, workers)
    monkeypatch.setattr(sweep, "fiber_terms", failing_at)
    with pytest.raises(BracketError, match=f"^no sign change at sample {failing[0]}$"):
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
