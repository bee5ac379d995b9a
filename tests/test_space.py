import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublephase import (
    ProblemData,
    luxemburg_norm,
    modular_breakdown,
    norm_circ,
    norm_custom,
    norm_1p,
    norm_star,
)
from doublephase.rootfind import BracketError
from doublephase.space import modular_rho, power_modular, sample_fields

from conftest import (
    PRESET,
    VARIABLE,
    oracle_bisect,
    oracle_breakdown,
    oracle_luxemburg,
    patchy_function,
    rng,
    skewed_meshes,
)

# root of tau^-1.5 + 4 tau^-3 = 1, from an independent bisection oracle
LUX_ONES = 1.8721280180071875


def random_function(mesh, seed, lo=-0.5, hi=1.5):
    return rng(seed).uniform(lo, hi, mesh.num_nodes)


def test_breakdown_matches_resummation_oracle(mesh1, preset_data):
    u = random_function(mesh1, 11)
    bd = modular_breakdown(mesh1, preset_data, u)
    expected = oracle_breakdown(mesh1, preset_data, u)
    got = (bd.grad_p, bd.grad_q_mu, bd.mass_p_alpha, bd.bdry_pstar_beta, bd.zeta_sing, bd.mass_q1)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, rel=1e-12, abs=1e-14)


def test_breakdown_matches_oracle_on_2x2(mesh2, preset_data):
    u = random_function(mesh2, 12)
    bd = modular_breakdown(mesh2, preset_data, u)
    expected = oracle_breakdown(mesh2, preset_data, u)
    got = (bd.grad_p, bd.grad_q_mu, bd.mass_p_alpha, bd.bdry_pstar_beta, bd.zeta_sing, bd.mass_q1)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, rel=1e-12, abs=1e-14)


@settings(max_examples=100, deadline=None)
@given(skewed_meshes(), st.integers(min_value=0, max_value=2**32 - 1))
def test_breakdown_matches_loop_oracle(mesh, seed):
    # mu, alpha, beta and zeta all vary, so every weight differs per triangle or node
    data = ProblemData(**VARIABLE)
    u = patchy_function(mesh, seed)
    bd = modular_breakdown(mesh, data, u, sample_fields(mesh, data))
    got = (bd.grad_p, bd.grad_q_mu, bd.mass_p_alpha, bd.bdry_pstar_beta, bd.zeta_sing, bd.mass_q1)
    np.testing.assert_allclose(got, oracle_breakdown(mesh, data, u), rtol=1e-12, atol=0.0)


def oracle_norm_circ(mesh, data, u):
    gp, gq, mp, bd, _, _ = oracle_breakdown(mesh, data, u)
    grad_norm = oracle_luxemburg([(gp, data.p), (gq, data.q)])
    return grad_norm + mp ** (1 / data.p) + bd ** (1 / data.p_lower_star)


def oracle_norm_star(mesh, data, u):
    gp, gq, mp, bd, _, _ = oracle_breakdown(mesh, data, u)
    return oracle_luxemburg([(gp, data.p), (gq, data.q), (mp, data.p), (bd, data.p_lower_star)])


@settings(max_examples=30, deadline=None)
@given(skewed_meshes(max_cells=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_norm_circ_and_star_match_loop_oracle(mesh, seed):
    # x-dependent alpha and beta weigh every node differently
    data = ProblemData(**dict(PRESET, alpha="0.5 + x", beta="1 + x*x"))
    u = patchy_function(mesh, seed)
    assert norm_circ(mesh, data, u) == pytest.approx(oracle_norm_circ(mesh, data, u), rel=1e-11)
    assert norm_star(mesh, data, u) == pytest.approx(oracle_norm_star(mesh, data, u), rel=1e-11)


def test_luxemburg_root_frozen_oracle_value(mesh16, preset_data):
    # the scalar equation for u = 1 is tau^-p + 4 tau^-p_* = 1
    u = np.ones(mesh16.num_nodes)
    got = norm_custom(mesh16, preset_data, u)
    assert got == pytest.approx(LUX_ONES, rel=1e-10)
    # confirm the frozen value against a local bisection oracle as well
    f = lambda t: t**-1.5 + 4 * t**-3 - 1.0
    assert oracle_bisect(f, 1.0, 4.0) == pytest.approx(LUX_ONES, rel=1e-13)


def test_luxemburg_zero_function(mesh4, preset_data):
    assert norm_custom(mesh4, preset_data, np.zeros(mesh4.num_nodes)) == 0.0
    assert luxemburg_norm(power_modular([])) == 0.0


def test_luxemburg_homogeneity(mesh4, preset_data):
    u = random_function(mesh4, 7)
    c = 2.5
    assert norm_custom(mesh4, preset_data, c * u) == pytest.approx(
        c * norm_custom(mesh4, preset_data, u), rel=1e-10
    )


def test_luxemburg_root_residual(mesh4, preset_data):
    for seed in range(5):
        u = random_function(mesh4, seed)
        nrm = norm_custom(mesh4, preset_data, u)
        assert abs(modular_rho(mesh4, preset_data, u / nrm) - 1.0) <= 1e-10


def test_luxemburg_bracket_failure_is_reported():
    with pytest.raises(BracketError):
        luxemburg_norm(lambda tau: (2.0, 0.0))  # constant, never reaches 1


def test_norm_unit_modular(mesh4, preset_data):
    u = random_function(mesh4, 21)
    nrm = norm_custom(mesh4, preset_data, u)
    rescaled = u / nrm
    assert norm_custom(mesh4, preset_data, rescaled) == pytest.approx(1.0, abs=1e-10)


def test_norm_1p_constants(mesh16, preset_data):
    u = np.full(mesh16.num_nodes, 0.7)
    assert norm_1p(mesh16, preset_data, u) == pytest.approx(0.7, rel=1e-12)


def test_norm_1p_half_alpha(mesh16):
    from doublephase import ProblemData

    data = ProblemData(p=1.5, q=1.8, kappa=0.5, q1=4.0, lam=0.1, mu="x", alpha="0.5", beta="1", zeta="1")
    got = norm_1p(mesh16, data, np.ones(mesh16.num_nodes))
    assert got == pytest.approx(0.5 ** (1 / 1.5), rel=1e-12)  # = 0.6299605249474366


def test_norm_1p_matches_oracle(mesh2, preset_data):
    u = random_function(mesh2, 31)
    gp, _, mp, _, _, _ = oracle_breakdown(mesh2, preset_data, u)
    assert norm_1p(mesh2, preset_data, u) == pytest.approx((gp + mp) ** (1 / 1.5), rel=1e-12)


def test_norm_circ_unit_function(mesh16, preset_data):
    got = norm_circ(mesh16, preset_data, np.ones(mesh16.num_nodes))
    assert got == pytest.approx(1.0 + 4.0 ** (1 / 3), rel=1e-12)  # = 2.5874010519681994


def test_norms_vanish_at_zero(mesh4, preset_data):
    z = np.zeros(mesh4.num_nodes)
    assert norm_circ(mesh4, preset_data, z) == 0.0
    assert norm_star(mesh4, preset_data, z) == 0.0


def test_sandwich_and_star_equals_custom(mesh4, preset_data):
    for seed in range(20):
        u = random_function(mesh4, 100 + seed)
        circ = norm_circ(mesh4, preset_data, u)
        star = norm_star(mesh4, preset_data, u)
        custom = norm_custom(mesh4, preset_data, u)
        assert circ / 3.0 - 1e-12 <= star <= 3.0 * circ + 1e-12
        assert star == pytest.approx(custom, rel=1e-12)


def test_zero_weight_seminorm_allowed(mesh4):
    # only one of the two weights needs to be nonzero: with alpha = 0 the
    # interior seminorm vanishes and the norms keep their gradient and
    # boundary parts
    data = ProblemData(**dict(PRESET, alpha="0"))
    u = random_function(mesh4, 5)
    gp, gq, mp, bd, _, _ = oracle_breakdown(mesh4, data, u)
    assert mp == 0.0 and modular_breakdown(mesh4, data, u).mass_p_alpha == 0.0
    expected = oracle_luxemburg([(gp, data.p), (gq, data.q)]) + bd ** (1 / data.p_lower_star)
    assert norm_circ(mesh4, data, u) == pytest.approx(expected, rel=1e-11)
    assert norm_star(mesh4, data, u) == pytest.approx(oracle_norm_star(mesh4, data, u), rel=1e-11)
    assert norm_star(mesh4, data, u) > 0


def test_norm_circ_triangle_inequality_and_homogeneity(mesh4, preset_data):
    for seed in range(10):
        r = rng(200 + seed)
        u = r.uniform(-1, 1, mesh4.num_nodes)
        v = r.uniform(-1, 1, mesh4.num_nodes)
        nu = norm_circ(mesh4, preset_data, u)
        nv = norm_circ(mesh4, preset_data, v)
        nuv = norm_circ(mesh4, preset_data, u + v)
        assert nuv <= nu + nv + 1e-10
        c = 1.75
        assert norm_circ(mesh4, preset_data, c * u) == pytest.approx(c * nu, rel=1e-10)


def modular_norm_relations(mesh, data, u):
    """The scalar relations between the norm and its modular.

    The two-sided power bounds use the modular's actual top power
    s = max(q, p_*) (the boundary term carries exponent p_*, which the
    hypotheses do not order against q); with exponent q alone the upper
    bound in the large-norm case is violated by boundary-heavy functions.
    """
    nrm = norm_custom(mesh, data, u)
    rho = modular_rho(mesh, data, u)
    s = max(data.q, data.p_lower_star)
    slack = 1e-12
    if nrm == 0.0:
        return rho == 0.0
    ok = abs(modular_rho(mesh, data, u / nrm) - 1.0) <= 1e-10
    if nrm < 1.0 - slack:
        ok = ok and rho < 1.0 + slack
        ok = ok and nrm**s - slack <= rho <= nrm**data.p + slack
    if nrm > 1.0 + slack:
        ok = ok and rho > 1.0 - slack
        ok = ok and nrm**data.p - slack <= rho <= nrm**s + slack
    return ok


def test_modular_norm_relations_sample(mesh4, preset_data):
    for seed in range(50):
        u = random_function(mesh4, 300 + seed) * rng(seed).choice([0.2, 1.0, 5.0])
        assert modular_norm_relations(mesh4, preset_data, u)


def test_norm_and_modular_vanish_and_blow_up_together(mesh4, preset_data):
    u = random_function(mesh4, 77)
    norms, mods = [], []
    for n in (1.0, 1e1, 1e3, 1e6):
        norms.append(norm_custom(mesh4, preset_data, u / n))
        mods.append(modular_rho(mesh4, preset_data, u / n))
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert all(a > b for a, b in zip(mods, mods[1:]))
    assert norms[-1] < 1e-5 and mods[-1] < 1e-5
    norms, mods = [], []
    for n in (1.0, 1e1, 1e3, 1e6):
        norms.append(norm_custom(mesh4, preset_data, n * u))
        mods.append(modular_rho(mesh4, preset_data, n * u))
    assert all(a < b for a, b in zip(norms, norms[1:]))
    assert all(a < b for a, b in zip(mods, mods[1:]))
    assert norms[-1] > 1e5 and mods[-1] > 1e5
