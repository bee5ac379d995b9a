import collections
import math
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from doublephase import fibering
from doublephase.fibering import (
    ROOT_TOL,
    TANGENT_TOL,
    FiberTerms,
    eta_prime,
    psi_with_magnitude,
    warm_branch_root,
)
from doublephase.problem import critical_exponents
from doublephase.sweep import SampledFiber, nzero_evidence
from doublephase.rootfind import power_bracket, power_sums

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


@st.composite
def admissible_fiber_terms(draw, min_p=1.05):
    """Fiber terms of admissible exponents (1 < p < q < p^*, max(q, p_*) < q1
    < p^*, 0 < kappa < 1; p from ``min_p`` to 1.95) with a, d, e in
    1e-3..1e3 and b, c that may vanish."""
    p = draw(st.floats(min_value=min_p, max_value=1.95))
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
        # t2's upper end lies within 2 e^(sum_{j != i} 1/|r_j|) of t2, over
        # the exponents r = s - q1 of eta's a, b, c terms, so it leaves the
        # floats only when an exponent is tiny; test_rootfind checks the rule
        # against such ends
        assert min(q1 - s for s, c in ((p, ft.a), (q, ft.b), (ps, ft.c)) if c > 0) < 0.05
        return
    assert roots.kind == "two" and roots.t_circ == tc
    lo = power_bracket([(ft.a, p + k - 1.0), (ft.b, q + k - 1.0), (ft.c, ps + k - 1.0)], ft.d)[0]
    hi = power_bracket([(ft.a, p - q1), (ft.b, q - q1), (ft.c, ps - q1)], lam * ft.e)[1]
    assert lo < roots.t1 < tc < roots.t2 < hi


def test_fiber_roots_with_a_tiny_exponent_gap():
    # q1 - q = 0.0012: an even split of lam*e among eta's a, b, c terms put
    # t2's upper end at e^744, beyond the floats, although t2 is about 45; a
    # split in proportion to 1/|r| keeps the end within e^(sum 1/|r|) of it
    p = 1.0625
    ft = FiberTerms(
        a=10.0, b=1.0, c=10.0, d=10.0, e=1.0, p=p, q=2.2290364583333333,
        p_lower_star=critical_exponents(p, 2)[1], q1=2.23021240234375, kappa=0.5,
    )
    roots = fiber_roots(ft, 1.25)
    assert roots.kind == "two"
    assert roots.t1 < roots.t_circ < roots.t2 == pytest.approx(45.45, rel=1e-3)
    for t in (roots.t1, roots.t2):
        assert abs(eta(ft, t) - 1.25) <= ROOT_TOL * 1.25


def test_fiber_roots_end_at_the_rounding_of_eta(monkeypatch):
    # at t1 eta's two terms are 11102.3 and 11101.8, so eta's rounding, about
    # 4.9e-12, exceeds ROOT_TOL lam*e = 5.1e-13, and a residual bound below
    # it is met only by chance: each root, cold or certified warm, ends at
    # the rounding, the cold ones within 12 evaluations
    ft = FiberTerms(a=100.0, b=0.0, c=0.0, d=10.0, e=1.0, p=1.5, q=3.75, p_lower_star=3.0, q1=4.3125, kappa=0.875)
    lam = 10.0**-3.5 * eta(ft, t_circ(ft)) / ft.e
    evals = []
    root = fibering.hybrid_root

    def counting(f, *args, **kwargs):
        evals.append(0)

        def counted(t):
            evals[-1] += 1
            return f(t)

        return root(counted, *args, **kwargs)

    monkeypatch.setattr(fibering, "hybrid_root", counting)
    roots = fiber_roots(ft, lam)
    assert roots.kind == "two" and len(evals) == 3  # t_circ, t1, t2
    assert max(evals) <= 12, evals
    for only in ("t1", "t2"):
        _assert_branch_root(ft, lam, only, getattr(roots, only))
        s = getattr(roots, only) * 1.01
        trial = _scaled(ft, s)
        got = warm_branch_root(trial, lam, only, roots.t_circ / s)
        assert got is not None
        _assert_branch_root(trial, lam, only, got, getattr(roots, only) / s)


def _scaled(ft: FiberTerms, s: float) -> FiberTerms:
    """The fiber terms of s u: each term of u times s to its own power, so
    every root of s u is the root of u over s."""
    return FiberTerms(
        a=ft.a * s**ft.p,
        b=ft.b * s**ft.q,
        c=ft.c * s**ft.p_lower_star,
        d=ft.d * s ** (1.0 - ft.kappa),
        e=ft.e * s**ft.q1,
        p=ft.p,
        q=ft.q,
        p_lower_star=ft.p_lower_star,
        q1=ft.q1,
        kappa=ft.kappa,
    )


def _warm_case(ft: FiberTerms, lam: float, only: str, log_s: float, log_probe: float):
    """(terms, probe) of a line-search trial whose ``only`` root is
    exp(-log_s), with ``probe`` its t_circ times exp(log_probe), or None when
    the scaled terms leave the normal floats."""
    try:
        cold = fiber_roots(ft, lam)
        s = getattr(cold, only) * math.exp(log_s)
        trial = _scaled(ft, s)
    except OverflowError:
        return None
    if not all(1e-300 < v < 1e300 for v in (trial.a, trial.d, trial.e)):
        return None
    return trial, cold.t_circ / s * math.exp(log_probe)


def _assert_branch_root(ft: FiberTerms, lam: float, only: str, got: float, cold: Optional[float] = None):
    """``got`` meets the residual bound where eta' has the branch's sign,
    and lies within the two residuals' width of the ``cold`` root.  The
    bound is max(ROOT_TOL lam*e, the rounding of eta): 8 eps of its terms'
    unsigned sum, which matters where the terms cancel far below lam*e /
    ROOT_TOL.  Both roots meet it as evaluated, so they differ by at most
    twice the bound plus twice the rounding, over the slope of eta there."""
    le = lam * ft.e

    def rounding(t: float) -> float:
        return 8.0 * 2.0**-52 * eta(replace(ft, d=-ft.d), t)  # every term unsigned

    assert abs(eta(ft, got) - le) <= max(ROOT_TOL * le, rounding(got))
    assert (eta_prime(ft, got) > 0.0) == (only == "t1")
    if cold is not None:
        bound = max(ROOT_TOL * le, rounding(cold)) + rounding(cold)
        assert abs(got - cold) * abs(eta_prime(ft, cold)) <= 2.0 * bound * (1.0 + 1e-6)


@settings(max_examples=400, deadline=None)
@given(
    admissible_fiber_terms(),
    st.floats(min_value=-6.0, max_value=-1e-6),
    st.sampled_from(["t1", "t2"]),
    st.floats(min_value=-0.8, max_value=0.8),
    st.floats(min_value=-0.5, max_value=0.5),
)
def test_certified_warm_root_is_the_fiber_roots_root(ft, log_frac, only, log_s, log_probe):
    # a trial whose root lies within exp(0.8) of 1, probed at a t_circ
    # estimate off by up to exp(0.5): the certified root is the fiber_roots
    # root to the residual both meet, or there is none.  Where fiber_roots
    # raises OverflowError (eta(t_circ) or a bracket end beyond the floats;
    # test_certified_root_where_eta_max_overflows is the named case), a
    # certified root is still a root on its branch
    try:
        top = eta(ft, t_circ(ft))
    except OverflowError:
        top = math.inf
    assume(math.isfinite(top))
    lam = 10.0**log_frac * top / ft.e
    case = _warm_case(ft, lam, only, log_s, log_probe)
    assume(case is not None)
    trial, probe = case
    got = warm_branch_root(trial, lam, only, probe)
    try:
        ref = fiber_roots(trial, lam, only=only)
    except OverflowError:
        if got is not None:
            _assert_branch_root(trial, lam, only, got)
        return
    if got is not None:
        assert ref.kind == "two"
        _assert_branch_root(trial, lam, only, got, getattr(ref, only))


@settings(max_examples=300, deadline=None)
@given(
    admissible_fiber_terms(),
    st.floats(min_value=0.0, max_value=2.0 * TANGENT_TOL),
    st.sampled_from(["t1", "t2"]),
    st.floats(min_value=-1e-3, max_value=1e-3),
    st.floats(min_value=-0.1, max_value=0.1),
)
def test_certified_warm_root_never_inside_the_tangency_band(ft, gap, only, log_s, log_probe):
    # with eta(t_circ) / (lam e) - 1 in [0, 2 TANGENT_TOL] no root is
    # certified, even from t = 1 next to t_circ and a probe at it; and
    # nzero_evidence classifies the fiber as fiber_roots does
    try:
        top = eta(ft, t_circ(ft))
    except OverflowError:
        top = math.inf
    assume(math.isfinite(top))
    s = t_circ(ft) * math.exp(log_s)
    trial = _scaled(ft, s)
    assume(all(1e-300 < v < 1e300 for v in (trial.a, trial.d, trial.e)))
    tc = t_circ(trial)
    lam = eta(trial, tc) / (trial.e * (1.0 + gap))
    band = eta(trial, tc) / (lam * trial.e) - 1.0
    assume(0.0 <= band <= 2.0 * TANGENT_TOL)
    assert warm_branch_root(trial, lam, only, tc * math.exp(log_probe)) is None
    assert warm_branch_root(trial, lam, only, tc) is None
    kind = fiber_roots(trial, lam, only=only).kind
    evidence = nzero_evidence([SampledFiber(trial, t_circ=tc, eta_max=eta(trial, tc))], lam)
    assert (len(evidence.tangencies), evidence.n_two_root, evidence.n_no_root) == (
        kind == "tangent", kind == "two", kind == "none"
    )


def test_certified_root_where_eta_max_overflows():
    # d = 1e-130 puts t_circ near 1.4e-130, where eta's powers leave the
    # floats, so fiber_roots raises OverflowError; the root t2 = 1.1 of
    # t^-2.5 - d t^-3.5 = 1.1^-2.5 is certified from t = 1 all the same
    ft = make_ft(1.0, 0.0, 0.0, 1e-130, 1.0)
    lam = 1.1**-2.5
    with pytest.raises(OverflowError):
        fiber_roots(ft, lam, only="t2")
    got = warm_branch_root(ft, lam, "t2", 1.4e-130)
    assert got == pytest.approx(1.1, rel=1e-11)
    _assert_branch_root(ft, lam, "t2", got)


@pytest.mark.parametrize("factor", [1.0, 1.01])
def test_certified_warm_root_of_the_preset(factor):
    # the preset fiber at lam = 4, scaled so that each root lies at or near
    # 1: the certified roots are the fiber_roots roots, and the other
    # branch certifies nothing, not even a root at t = 1 where eta' has the
    # wrong sign
    roots = fiber_roots(PRESET_FT, 4.0)
    for only, other in (("t1", "t2"), ("t2", "t1")):
        s = getattr(roots, only) * factor
        trial = _scaled(PRESET_FT, s)
        probe = roots.t_circ / s
        got = warm_branch_root(trial, 4.0, only, probe)
        assert got is not None
        _assert_branch_root(trial, 4.0, only, got, getattr(fiber_roots(trial, 4.0, only=only), only))
        assert warm_branch_root(trial, 4.0, other, probe) is None


def _old_warm_branch_root(ft: FiberTerms, lam: float, only: str, probe: float):
    """``warm_branch_root`` as it was with its own copy of ``hybrid_root``'s
    loop, and how it ended: (root, "root"), or None and "inadmissible", "off
    side", "uncertified", "overflow", "exhausted", "open" (a step refused
    while a bracket end was open), "closed" (one refused with both ends
    known) or "width" (the bracket at floating-point width)."""
    le = lam * ft.e
    if not (0.0 < le < math.inf and ft.d > 0.0 and 0.0 < probe < math.inf):
        return None, "inadmissible"
    terms = fibering._eta_terms(ft)
    rising = only == "t1"
    side = 1.0 if rising else -1.0
    clear = le * (1.0 + 2.0 * TANGENT_TOL)
    eps = 2.0**-52

    def at(t):
        val, tslope, mag, tmag = power_sums(terms, t)
        return val, tslope, mag, side * tslope > 4.0 * ROOT_TOL * tmag, val - 8.0 * eps * mag > clear

    t, lo, hi = 1.0, 0.0, math.inf
    last = before = math.inf
    certified = False
    try:
        for _ in range(fibering._WARM_EVALS):
            val, tslope, mag, on_side, clears = at(t)
            if not on_side:
                return None, "off side"
            certified = certified or clears
            gap = val - le
            if abs(gap) <= max(ROOT_TOL * le, 8.0 * eps * mag):
                return (t, "root") if certified or at(probe)[4] else (None, "uncertified")
            if (gap < 0) == rising:
                lo = t
            else:
                hi = t
            if hi < math.inf and hi - lo <= 4e-16 * hi:
                return None, "width"
            step = -gap / tslope if tslope else math.inf
            known = 0.0 < lo and hi < math.inf
            width = math.log(hi / lo) if known else math.inf
            if not abs(step) <= min(fibering._WARM_STEP, 0.5 * before, width):
                return None, "closed" if known else "open"
            newton = t * math.exp(step)
            if not lo < newton < hi:
                return None, "closed" if known else "open"
            before, last, t = last, abs(step), newton
    except OverflowError:
        return None, "overflow"
    return None, "exhausted"


@settings(max_examples=400, deadline=None)
@given(
    admissible_fiber_terms(),
    st.floats(min_value=-6.0, max_value=-1e-6),
    st.sampled_from(["t1", "t2"]),
    st.floats(min_value=-0.8, max_value=0.8),
    st.floats(min_value=-0.5, max_value=0.5),
)
def test_certified_warm_root_is_the_loop_it_replaced(ft, log_frac, only, log_s, log_probe):
    # the warm root is rootfind's one Newton iteration from t = 1 with both
    # ends open: it returns the old loop's bits wherever that loop returned,
    # or gave up with an end still open or off the branch; only where the old
    # loop gave up with both ends known, or at float width, may it bisect on
    # to a root, and that root is the fiber_roots root
    try:
        top = eta(ft, t_circ(ft))
    except OverflowError:
        top = math.inf
    assume(math.isfinite(top))
    lam = 10.0**log_frac * top / ft.e
    case = _warm_case(ft, lam, only, log_s, log_probe)
    assume(case is not None)
    trial, probe = case
    got = warm_branch_root(trial, lam, only, probe)
    want, how = _old_warm_branch_root(trial, lam, only, probe)
    if how not in ("closed", "width"):
        assert got == want if want is not None else got is None, how
    elif got is not None:
        try:
            cold = getattr(fiber_roots(trial, lam, only=only), only)
        except OverflowError:
            cold = None
        _assert_branch_root(trial, lam, only, got, cold)


def test_certified_warm_root_bisects_once_both_ends_are_known():
    # the old loop's iterates straddled t2 here and it gave up, for a cold
    # fiber_roots; the one iteration bisects on to fiber_roots' t2, bit for bit
    ft = FiberTerms(
        6.682092730600307, 6.984034955258095, 8.156912733700052e-06, 0.7643832633941767, 258.03956341626406,
        1.8403690734764524, 2.6636613732902292, 11.528900530468164, 17.06545798747897, 0.11184381690967538,
    )
    lam, probe = 0.3618632335316581, 0.0613983370055763
    assert _old_warm_branch_root(ft, lam, "t2", probe) == (None, "closed")
    got = warm_branch_root(ft, lam, "t2", probe)
    assert got == fiber_roots(ft, lam, only="t2").t2 == 0.8742405784397532
    _assert_branch_root(ft, lam, "t2", got)


def test_certified_warm_root_bisects_where_the_old_loop_straddled():
    # on a fiber of high curvature (p from 1.85, so q1 from about 12 to 78),
    # lam*e from 1e-6 to 1e-3 of eta's maximum and the trial's t2 at
    # exp(-x / q1), x in 2.05..2.35, the old loop's Newton iterates overshoot
    # t2 and it gave up with both ends known in more than half the cases.
    # The one iteration bisects on there and, in about one case in ten of
    # the 800, meets the residual within its evaluations (62 to 109 in 15
    # runs): each such root is the fiber_roots root
    endings = collections.Counter()

    @settings(max_examples=800, deadline=None)
    @given(
        admissible_fiber_terms(min_p=1.85),
        st.floats(min_value=-6.0, max_value=-3.0),
        st.floats(min_value=2.05, max_value=2.35),
        st.floats(min_value=-0.5, max_value=0.5),
    )
    def straddled(ft, log_frac, x, log_probe):
        try:
            top = eta(ft, t_circ(ft))
        except OverflowError:
            top = math.inf
        assume(0.0 < top < math.inf)  # eta's maximum can underflow to 0 at these exponents
        lam = 10.0**log_frac * top / ft.e
        case = _warm_case(ft, lam, "t2", x / ft.q1, log_probe)
        assume(case is not None)
        trial, probe = case
        got = warm_branch_root(trial, lam, "t2", probe)
        how = _old_warm_branch_root(trial, lam, "t2", probe)[1]
        endings[how, got is not None] += 1
        if how == "closed" and got is not None:
            _assert_branch_root(trial, lam, "t2", got, fiber_roots(trial, lam, only="t2").t2)

    straddled()
    assert endings["closed", True] >= 20, endings


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
