import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublephase import (
    NehariKind,
    classify_nehari,
    eta,
    eta_tilde,
    fiber_roots,
    fiber_terms,
    psi,
    psi_derivatives,
    t_circ,
    t_tilde_circ,
    xi,
)
from doublephase.fibering import ROOT_TOL, FiberTerms, eta_prime, psi_with_magnitude
from doublephase.problem import critical_exponents
from doublephase.rootfind import power_bracket

from conftest import oracle_bisect, oracle_breakdown, rng

# independent bisection-oracle values for the preset fiber (a,b,c,d,e)=(1,0,4,1,1):
#   t_circ solves 2.5 t + 4 t^2.5 = 3.5
#   t1 solves eta(t) = 4 below t_circ
T_CIRC_ONES = 0.713052406023519
ETA_AT_T_CIRC = 4.672388241596084
T1_ONES_LAM4 = 0.5743491774985177
ETA_TILDE_MAX_ONES = 0.12320032867762634  # 0.4 * (5/7)^3.5


def make_ft(a, b, c, d, e):
    return FiberTerms(a=a, b=b, c=c, d=d, e=e, p=1.5, q=1.8, p_lower_star=3.0, q1=4.0, kappa=0.5)


PRESET_FT = make_ft(1.0, 0.0, 4.0, 1.0, 1.0)


def test_fiber_terms_unit_function(mesh16, preset_data, fields16):
    ft = fiber_terms(mesh16, preset_data, np.ones(mesh16.num_nodes), fields16)
    assert ft.a == pytest.approx(1.0, abs=1e-12)
    assert ft.b == 0.0
    assert ft.c == pytest.approx(4.0, abs=1e-12)
    assert ft.d == pytest.approx(1.0, abs=1e-12)
    assert ft.e == pytest.approx(1.0, abs=1e-12)


def test_fiber_terms_zero(mesh4, preset_data, fields4):
    ft = fiber_terms(mesh4, preset_data, np.zeros(mesh4.num_nodes), fields4)
    assert (ft.a, ft.b, ft.c, ft.d, ft.e) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_fiber_terms_match_oracle(mesh2, preset_data, fields2):
    u = rng(77).uniform(0, 1, mesh2.num_nodes)
    ft = fiber_terms(mesh2, preset_data, u, fields2)
    gp, gq, mp, bd, sg, mq = oracle_breakdown(mesh2, preset_data, u)
    assert ft.a == pytest.approx(gp + mp, rel=1e-12)
    assert ft.b == pytest.approx(gq, rel=1e-12)
    assert ft.c == pytest.approx(bd, rel=1e-12)
    assert ft.d == pytest.approx(sg, rel=1e-12)
    assert ft.e == pytest.approx(mq, rel=1e-12)


def test_psi_derivatives_preset_at_one():
    val, d1, d2 = psi_derivatives(PRESET_FT, 4.0, 1.0)
    assert d1 == pytest.approx(0.0, abs=1e-14)  # 1 + 4 - 1 - 4
    assert d2 == pytest.approx(-3.0, abs=1e-13)


def test_psi_prime_at_one_is_nehari_defect():
    r = rng(3)
    for _ in range(50):
        ft = make_ft(*r.uniform(0.1, 3.0, 5))
        lam = r.uniform(0.05, 5.0)
        _, d1, _ = psi_derivatives(ft, lam, 1.0)
        assert d1 == pytest.approx(ft.a + ft.b + ft.c - ft.d - lam * ft.e, rel=1e-13)


def test_psi_magnitude_sums_the_terms_unsigned():
    # psi(t) = a t^p/p + b t^q/q + c t^p_*/p_* - d t^(1-kappa)/(1-kappa) - lam e t^q1/q1
    ft, lam, t = make_ft(1.0, 2.0, 3.0, 4.0, 5.0), 0.5, 1.3
    expected = t**1.5 / 1.5 + 2.0 * t**1.8 / 1.8 + 3.0 * t**3 / 3.0 + 4.0 * t**0.5 / 0.5 + 0.5 * 5.0 * t**4 / 4.0
    assert psi_with_magnitude(ft, lam, t)[1] == pytest.approx(expected, rel=1e-14)
    assert psi_with_magnitude(ft, lam, t)[1] > abs(psi(ft, lam, t))


def test_psi_zero_convention_and_negative_t():
    assert psi(PRESET_FT, 1.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        psi(PRESET_FT, 1.0, -0.1)
    with pytest.raises(ValueError):
        psi_derivatives(PRESET_FT, 1.0, 0.0)


def test_psi_prime_matches_finite_differences():
    lam = 2.0
    t = 0.7
    step = 1e-7
    _, d1, d2 = psi_derivatives(PRESET_FT, lam, t)
    fd1 = (psi(PRESET_FT, lam, t + step) - psi(PRESET_FT, lam, t - step)) / (2 * step)
    assert d1 == pytest.approx(fd1, rel=1e-7)
    _, d1p, _ = psi_derivatives(PRESET_FT, lam, t + step)
    _, d1m, _ = psi_derivatives(PRESET_FT, lam, t - step)
    assert d2 == pytest.approx((d1p - d1m) / (2 * step), rel=1e-6)


def test_psi_prime_factorization_identity():
    # psi'(t) = t^{q1-1} (eta(t) - lam e)
    r = rng(5)
    for _ in range(200):
        ft = make_ft(*r.uniform(0.05, 4.0, 5))
        lam = 10.0 ** r.uniform(-2, 1)
        t = 10.0 ** r.uniform(-1, 1)
        _, d1, _ = psi_derivatives(ft, lam, t)
        rhs = t ** (ft.q1 - 1.0) * (eta(ft, t) - lam * ft.e)
        assert d1 == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_eta_preset_value():
    # eta(t) = t^-2.5 + 4 t^-1 - t^-3.5 at t = 1
    assert eta(PRESET_FT, 1.0) == pytest.approx(4.0, rel=1e-14)


def test_eta_tilde_below_eta():
    r = rng(6)
    for _ in range(100):
        ft = make_ft(*r.uniform(0.0, 2.0, 5))
        t = 10.0 ** r.uniform(-1, 1)
        assert eta_tilde(ft, t) <= eta(ft, t) + 1e-14


def test_maps_reject_nonpositive_t():
    for fn in (eta, eta_tilde, xi):
        with pytest.raises(ValueError):
            fn(PRESET_FT, 0.0)
        with pytest.raises(ValueError):
            fn(PRESET_FT, -1.0)


def test_t_tilde_circ_closed_form_exact():
    t_tilde, et_max = t_tilde_circ(PRESET_FT)
    assert t_tilde == pytest.approx(1.4, abs=1e-12)  # (3.5/2.5)^(1/1)
    assert et_max == pytest.approx(ETA_TILDE_MAX_ONES, rel=1e-12)


def test_t_tilde_circ_matches_numeric_argmax_oracle():
    t_tilde, et_max = t_tilde_circ(PRESET_FT)
    grid = np.linspace(0.5, 3.0, 400001)
    vals = grid ** (PRESET_FT.p - PRESET_FT.q1) - grid ** (1 - PRESET_FT.q1 - PRESET_FT.kappa)
    k = int(np.argmax(vals))
    assert grid[k] == pytest.approx(t_tilde, abs=1e-5)
    assert vals[k] == pytest.approx(et_max, rel=1e-8)
    assert et_max >= vals.max() - 1e-12


def test_t_tilde_circ_degenerate_rejected():
    with pytest.raises(ValueError):
        t_tilde_circ(make_ft(0.0, 1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        t_tilde_circ(make_ft(1.0, 1.0, 1.0, 0.0, 1.0))


def test_t_circ_frozen_oracle_value():
    got = t_circ(PRESET_FT)
    assert got == pytest.approx(T_CIRC_ONES, rel=1e-10)
    # re-derive with the in-test bisection oracle
    f = lambda t: 2.5 * t + 4.0 * t**2.5 - 3.5
    assert oracle_bisect(f, 0.1, 2.0) == pytest.approx(T_CIRC_ONES, rel=1e-13)
    # residual contract
    rhs = (PRESET_FT.q1 + PRESET_FT.kappa - 1) * PRESET_FT.d
    assert abs(xi(PRESET_FT, got) - rhs) <= 1e-12 * rhs


def test_t_circ_reduces_to_closed_form_without_b_c():
    ft = make_ft(1.0, 0.0, 0.0, 1.0, 1.0)
    assert t_circ(ft) == pytest.approx(1.4, rel=1e-12)


def test_t_circ_maximizes_eta():
    tc = t_circ(PRESET_FT)
    peak = eta(PRESET_FT, tc)
    assert peak == pytest.approx(ETA_AT_T_CIRC, rel=1e-10)
    assert peak >= eta(PRESET_FT, tc * (1 + 1e-3))
    assert peak >= eta(PRESET_FT, tc * (1 - 1e-3))


def test_fiber_roots_preset_lam4():
    roots = fiber_roots(PRESET_FT, 4.0)
    assert roots.kind == "two"
    assert roots.t2 == pytest.approx(1.0, abs=1e-10)
    assert 0.55 < roots.t1 < 0.60
    assert roots.t1 == pytest.approx(T1_ONES_LAM4, rel=1e-10)
    # confirm the bracket the root came from: g(t) = t + 4 t^2.5 - 1 - 4 t^3.5
    g = lambda t: t + 4 * t**2.5 - 1 - 4 * t**3.5
    assert g(0.55) < 0 < g(0.60)
    assert oracle_bisect(g, 0.55, 0.60) == pytest.approx(T1_ONES_LAM4, rel=1e-12)


def test_fiber_roots_none_above_threshold():
    roots = fiber_roots(PRESET_FT, 4.7)  # above eta(t_circ)/e = 4.67239
    assert roots.kind == "none"
    assert roots.t1 is None and roots.t2 is None


def test_fiber_roots_tangency_detected():
    lam_tangent = ETA_AT_T_CIRC / PRESET_FT.e
    roots = fiber_roots(PRESET_FT, lam_tangent)
    assert roots.kind == "tangent"


def test_fiber_roots_need_positive_e():
    with pytest.raises(ValueError):
        fiber_roots(make_ft(1.0, 0.0, 1.0, 1.0, 0.0), 1.0)


def test_fiber_roots_overflow_is_an_overflow_error():
    # lam*e = inf must not reach the root finder as a bracket end
    with pytest.raises(OverflowError, match="lam\\*e=inf"):
        fiber_roots(make_ft(1.0, 0.0, 4.0, 1.0, 10.0), 1e308)


def test_scaling_law_roots():
    # psi_{su}(t) = psi_u(st), so roots map to t/s
    r = rng(8)
    for _ in range(30):
        ft = make_ft(*r.uniform(0.2, 2.0, 5))
        lam = 0.25 * eta(ft, t_circ(ft)) / ft.e
        s = r.uniform(0.3, 3.0)
        base = fiber_roots(ft, lam)
        # the terms of s u: each term of u times s to its own power
        scaled_ft = make_ft(
            ft.a * s**ft.p, ft.b * s**ft.q, ft.c * s**ft.p_lower_star, ft.d * s ** (1.0 - ft.kappa), ft.e * s**ft.q1
        )
        scaled = fiber_roots(scaled_ft, lam)
        assert base.kind == scaled.kind == "two"
        assert scaled.t1 == pytest.approx(base.t1 / s, rel=1e-9)
        assert scaled.t2 == pytest.approx(base.t2 / s, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=5, max_size=5),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=-6.0, max_value=6.0),
    st.floats(min_value=-6.0, max_value=6.0),
)
def test_fiber_roots_warm_start_matches_cold(coeffs, frac, log_start, log_tc_start):
    # any warm start in (0, inf), on either side of t_circ, gives the cold
    # roots: both meet the ROOT_TOL residual, so they differ by at most
    # 2 ROOT_TOL lam*e over the slope of eta there
    ft = make_ft(*coeffs)
    lam = frac * eta(ft, t_circ(ft)) / ft.e
    cold = fiber_roots(ft, lam)
    assert cold.kind == "two"
    le = lam * ft.e
    start, tc_start = 10.0**log_start, 10.0**log_tc_start
    rhs = (ft.q1 + ft.kappa - 1.0) * ft.d
    warm = fiber_roots(ft, lam, start=start, tc_start=tc_start)
    assert warm.kind == "two"
    assert abs(xi(ft, warm.t_circ) - rhs) <= ROOT_TOL * rhs
    for name in ("t1", "t2"):
        only = fiber_roots(ft, lam, start=start, tc_start=tc_start, only=name)
        assert getattr(only, "t2" if name == "t1" else "t1") is None
        for got in (getattr(warm, name), getattr(only, name)):
            ref = getattr(cold, name)
            assert abs(eta(ft, got) - le) <= ROOT_TOL * le
            assert abs(got - ref) * abs(eta_prime(ft, ref)) <= 2.0 * ROOT_TOL * le * (1.0 + 1e-6)


@st.composite
def admissible_fiber_terms(draw):
    """Fiber terms of admissible exponents (1 < p < q < p^*, max(q, p_*) < q1
    < p^*, 0 < kappa < 1) with a, d, e in 1e-3..1e3 and b, c that may vanish."""
    p = draw(st.floats(min_value=1.05, max_value=1.95))
    p_star, p_lower_star = critical_exponents(p, 2)
    q = p + draw(st.floats(min_value=0.01, max_value=0.99)) * (p_star - p)
    lower = max(q, p_lower_star)
    coef = st.floats(min_value=-3.0, max_value=3.0).map(lambda x: 10.0**x)
    return FiberTerms(
        a=draw(coef),
        b=draw(st.just(0.0) | coef),
        c=draw(st.just(0.0) | coef),
        d=draw(coef),
        e=draw(coef),
        p=p,
        q=q,
        p_lower_star=p_lower_star,
        q1=lower + draw(st.floats(min_value=0.01, max_value=0.99)) * (p_star - lower),
        kappa=draw(st.floats(min_value=0.01, max_value=0.99)),
    )


@settings(max_examples=300, deadline=None)
@given(admissible_fiber_terms(), st.floats(min_value=-6.0, max_value=-1e-6))
def test_fiber_roots_lie_inside_their_brackets(ft, log_frac):
    # t_circ inside the bracket of xi's terms = (q1+kappa-1) d; t1 above the
    # lower end of the zero of eta, where the a, b, c terms over t^(1-q1-kappa)
    # reach d; t2 below the upper end of the a, b, c terms of eta = lam*e
    p, q, ps, q1, k = ft.p, ft.q, ft.p_lower_star, ft.q1, ft.kappa
    xi_terms = [((q1 - p) * ft.a, p + k - 1.0), ((q1 - q) * ft.b, q + k - 1.0), ((q1 - ps) * ft.c, ps + k - 1.0)]
    lo_c, hi_c = power_bracket(xi_terms, (q1 + k - 1.0) * ft.d)
    tc = t_circ(ft)
    assert lo_c < tc < hi_c
    try:
        top = eta(ft, tc)
    except OverflowError:  # eta's maximum itself is beyond the floats
        with pytest.raises(OverflowError):
            fiber_roots(ft, 1.0)
        return
    lam = 10.0**log_frac * top / ft.e
    try:
        roots = fiber_roots(ft, lam)
    except OverflowError:
        # t2's upper end, the root of eta's a, b, c terms = lam e times up to
        # 2 k^(1/|r|), leaves the floats when an exponent r = s - q1 is tiny;
        # test_rootfind checks the rule against such ends
        assert min(q1 - s for s, c in ((p, ft.a), (q, ft.b), (ps, ft.c)) if c > 0) < 0.05
        return
    assert roots.kind == "two" and roots.t_circ == tc
    lo = power_bracket([(ft.a, p + k - 1.0), (ft.b, q + k - 1.0), (ft.c, ps + k - 1.0)], ft.d)[0]
    hi = power_bracket([(ft.a, p - q1), (ft.b, q - q1), (ft.c, ps - q1)], lam * ft.e)[1]
    assert lo < roots.t1 < tc < roots.t2 < hi


def test_psi_second_derivative_identity_at_roots():
    # psi''(t_i) = t_i^{q1-1} eta'(t_i), positive at t1 and negative at t2
    r = rng(9)
    for _ in range(50):
        ft = make_ft(*r.uniform(0.2, 2.0, 5))
        lam = 0.5 * eta(ft, t_circ(ft)) / ft.e
        roots = fiber_roots(ft, lam)
        assert roots.kind == "two"
        for t_root in (roots.t1, roots.t2):
            _, _, d2 = psi_derivatives(ft, lam, t_root)
            identity = t_root ** (ft.q1 - 1.0) * eta_prime(ft, t_root)
            assert d2 == pytest.approx(identity, rel=1e-6, abs=1e-9)
        _, _, d2_t1 = psi_derivatives(ft, lam, roots.t1)
        _, _, d2_t2 = psi_derivatives(ft, lam, roots.t2)
        assert d2_t1 > 0 > d2_t2
        assert roots.t1 < roots.t_circ < roots.t2


def test_psi_shape_matches_figure():
    # t1 is the minimum on (0, t_circ); t2 is the maximum on [t1, inf)
    lam = 4.0
    roots = fiber_roots(PRESET_FT, lam)
    psi_t1 = psi(PRESET_FT, lam, roots.t1)
    psi_t2 = psi(PRESET_FT, lam, roots.t2)
    for t in np.linspace(1e-3, roots.t_circ, 500):
        if abs(t - roots.t1) > 1e-3:
            assert psi(PRESET_FT, lam, float(t)) > psi_t1
    for t in np.geomspace(roots.t1, 50.0, 500):
        assert psi(PRESET_FT, lam, float(t)) <= psi_t2 + 1e-12


def test_xi_strictly_increasing():
    r = rng(10)
    for _ in range(100):
        ft = make_ft(*r.uniform(0.05, 2.0, 5))
        t = 10.0 ** r.uniform(-1, 1)
        delta = 10.0 ** r.uniform(-3, 0)
        assert xi(ft, t + delta) > xi(ft, t)


def test_eta_limits():
    # eta -> -inf as t -> 0+, and -> 0 as t -> inf (from above here: c > 0)
    vals_small = [eta(PRESET_FT, 10.0**-k) for k in range(1, 6)]
    assert all(a > b for a, b in zip(vals_small, vals_small[1:]))
    assert vals_small[-1] < -1e10
    vals_large = [eta(PRESET_FT, 10.0**k) for k in range(1, 6)]
    assert all(abs(a) > abs(b) for a, b in zip(vals_large, vals_large[1:]))
    assert vals_large[-1] == pytest.approx(0.0, abs=1e-4)
    assert vals_large[-1] > 0


def test_classify_nehari_preset(mesh16, preset_data, fields16):
    u = np.ones(mesh16.num_nodes)
    cls = classify_nehari(mesh16, preset_data, u, 4.0, fields16)
    assert cls.kind is NehariKind.MINUS
    assert cls.dpsi1 == pytest.approx(0.0, abs=1e-12)
    assert cls.ddpsi1 == pytest.approx(-3.0, abs=1e-12)
    cls1 = classify_nehari(mesh16, preset_data, u, 1.0, fields16)
    assert cls1.kind is NehariKind.NOT_ON_NEHARI
    assert cls1.dpsi1 == pytest.approx(3.0, abs=1e-12)


def test_classify_nehari_plus_after_t1_scaling(mesh4, preset_data, fields4):
    lam = 0.05
    for seed in range(10):
        u = rng(90 + seed).uniform(0.1, 1.0, mesh4.num_nodes)
        ft = fiber_terms(mesh4, preset_data, u, fields4)
        roots = fiber_roots(ft, lam)
        assert roots.kind == "two"
        cls = classify_nehari(mesh4, preset_data, roots.t1 * u, lam, fields4)
        assert cls.kind is NehariKind.PLUS


def test_classify_nehari_rejects_zero(mesh4, preset_data, fields4):
    with pytest.raises(ValueError):
        classify_nehari(mesh4, preset_data, np.zeros(mesh4.num_nodes), 1.0, fields4)
