import numpy as np
import pytest

from doublephase import (
    SolverOptions,
    check_nzero_empty,
    estimate_lambda_star,
    estimate_lambda_tilde,
    estimate_sobolev_constant,
    fiber_terms,
    norm_1p,
    norm_custom,
)
from doublephase import sweep
from doublephase.fibering import eta, t_circ, t_tilde_circ
from doublephase.sweep import SweepUndetermined, sample_directions

from conftest import overflowing_start, rng


def test_lambda_tilde_positive_and_monotone_in_samples(mesh4, preset_data):
    small = estimate_lambda_tilde(mesh4, preset_data, 10, seed=0)
    large = estimate_lambda_tilde(mesh4, preset_data, 50, seed=0)
    assert small > 0
    # one generator stream: the first 10 samples coincide, so min can only drop
    assert large <= small


def test_lambda_tilde_reproducible(mesh4, preset_data):
    a = estimate_lambda_tilde(mesh4, preset_data, 25, seed=7)
    b = estimate_lambda_tilde(mesh4, preset_data, 25, seed=7)
    assert a == b


def test_lambda_tilde_rescaled_terms_match_normalized_directions(mesh16, preset_data):
    # the fiber terms are homogeneous: those of s u are those of u times s to
    # each term's power, so the unnormalized directions give the lambda_tilde
    # of the normalized ones u/|u|
    d = preset_data
    powers = {"a": d.p, "b": d.q, "c": d.p_lower_star, "d": 1.0 - d.kappa, "e": d.q1}
    expected = np.inf
    for u in sample_directions(mesh16, 20, 3):
        s = 1.0 / norm_custom(mesh16, d, u)
        ft = fiber_terms(mesh16, d, s * u)
        base = fiber_terms(mesh16, d, u)
        for name, r in powers.items():
            assert getattr(ft, name) == pytest.approx(getattr(base, name) * s**r, rel=1e-12)
        expected = min(expected, t_tilde_circ(ft)[1] / ft.e)
    got = estimate_lambda_tilde(mesh16, preset_data, 20, seed=3)
    assert got == pytest.approx(expected, rel=1e-12)


def test_lambda_tilde_requires_samples(mesh4, preset_data):
    with pytest.raises(ValueError):
        estimate_lambda_tilde(mesh4, preset_data, 0, seed=0)


def test_nzero_scan_small_lambda_no_tangency(mesh4, preset_data):
    ev = check_nzero_empty(mesh4, preset_data, 0.01, 100, seed=0)
    assert ev.tangencies == ()
    assert ev.n_two_root == 100
    assert ev.n_no_root == 0


def test_nzero_manufactured_tangency_is_flagged(mesh4, preset_data):
    # pick lambda so that the first sampled direction is exactly tangent
    u0 = next(sample_directions(mesh4, 1, seed=3))
    ft = fiber_terms(mesh4, preset_data, u0)
    lam = eta(ft, t_circ(ft)) / ft.e
    ev = check_nzero_empty(mesh4, preset_data, lam, 5, seed=3)
    assert any(t.sample == 0 for t in ev.tangencies)


def test_nzero_all_above_threshold_reported_distinctly(mesh4, preset_data):
    ratios = []
    for u in sample_directions(mesh4, 50, seed=4):
        ft = fiber_terms(mesh4, preset_data, u)
        ratios.append(eta(ft, t_circ(ft)) / ft.e)
    lam = 2.0 * max(ratios)
    ev = check_nzero_empty(mesh4, preset_data, lam, 50, seed=4)
    assert ev.n_two_root == 0
    assert ev.n_no_root == 50
    assert ev.tangencies == ()


def test_nzero_rejects_nonpositive_lambda(mesh4, preset_data):
    with pytest.raises(ValueError):
        check_nzero_empty(mesh4, preset_data, 0.0, 10, seed=0)


def test_lambda_star_all_positive_returns_top(mesh4, preset_data):
    got = estimate_lambda_star(mesh4, preset_data, [0.2, 0.5])
    assert got == 0.5


def test_lambda_star_refines_into_the_flip_interval(mesh4, preset_data):
    # the minus-branch minimum flips sign between 1.5 and 2.0 on this mesh
    got = estimate_lambda_star(mesh4, preset_data, [1.0, 2.0])
    assert 1.0 <= got < 2.0
    assert got > 1.0  # three bisection steps move off the lower endpoint here


def test_lambda_star_rejects_bad_grids(mesh4, preset_data):
    with pytest.raises(ValueError):
        estimate_lambda_star(mesh4, preset_data, [])
    with pytest.raises(ValueError):
        estimate_lambda_star(mesh4, preset_data, [0.5, 0.2])
    with pytest.raises(ValueError):
        estimate_lambda_star(mesh4, preset_data, [-0.1, 0.2])


def test_lambda_star_on_the_default_16x16_grid(mesh16, preset_data):
    # the CLI's default sweep (16x16, default grid): every minus start
    # converges at every grid point, so lambda* is determined; solver seeds
    # 4 and 5 perturb the starts into tails that a Euclidean descent stalled on
    for seed in (0, 4, 5):
        opts = SolverOptions(seed=seed)
        assert estimate_lambda_star(mesh16, preset_data, (0.05, 0.1, 0.2, 0.4, 0.8), opts) == 0.8, seed


def test_lambda_star_of_the_8x8_sweep_over_ten_seeds(preset_data):
    # the benchmark's sweep8 scan: lambda* is the top of the grid at solver
    # seeds 0-9, every grid point determined
    from doublephase import build_rect_mesh

    mesh = build_rect_mesh(8, 8)
    for seed in range(10):
        opts = SolverOptions(seed=seed)
        assert estimate_lambda_star(mesh, preset_data, (0.05, 0.1, 0.2, 0.4, 0.8), opts) == 0.8, seed


def test_lambda_star_propagates_solver_failure_as_undetermined(mesh4, preset_data):
    # the message names the first start, in start order, that did not converge
    with pytest.raises(SweepUndetermined, match="undetermined at lambda=0.2: .* from start 'ones'"):
        estimate_lambda_star(mesh4, preset_data, [0.2], SolverOptions(max_iter=1))


def test_lambda_star_is_undetermined_where_a_minus_start_fails_numerically(monkeypatch, mesh4, preset_data):
    overflowing_start(monkeypatch, mesh4, "ramp")
    with pytest.raises(SweepUndetermined, match="undetermined at lambda=0.2: .* from start 'ramp' .*OverflowError"):
        estimate_lambda_star(mesh4, preset_data, [0.2, 0.5])


def test_sobolev_estimate_bounded_by_unit_function(mesh4, preset_data):
    # u = 1 gives quotient exactly 1, so the running minimum is at most 1
    est = estimate_sobolev_constant(mesh4, preset_data, 20, seed=0)
    assert 0 < est <= 1.0


def test_sobolev_polishing_never_increases(monkeypatch, mesh4, preset_data):
    monkeypatch.setattr(sweep, "SOBOLEV_POLISH_STEPS", 0)
    rough = estimate_sobolev_constant(mesh4, preset_data, 20, seed=0)
    monkeypatch.setattr(sweep, "SOBOLEV_POLISH_STEPS", 40)
    polished = estimate_sobolev_constant(mesh4, preset_data, 20, seed=0)
    assert polished <= rough + 1e-15


def test_sampled_threshold_ordering(mesh4, preset_data):
    # lambda_star <= lambda_tilde in the sampled sense on this preset
    lam_tilde = estimate_lambda_tilde(mesh4, preset_data, 50, seed=0)
    lam_star = estimate_lambda_star(mesh4, preset_data, [0.2, 0.5])
    assert lam_star <= lam_tilde


def test_two_roots_below_lambda_tilde(mesh4, preset_data):
    from doublephase import fiber_roots

    lam_tilde = estimate_lambda_tilde(mesh4, preset_data, 30, seed=11)
    lam = 0.9 * lam_tilde
    for u in sample_directions(mesh4, 30, seed=11):
        ft = fiber_terms(mesh4, preset_data, u)
        assert fiber_roots(ft, lam).kind == "two"
