import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublephase.rootfind import BracketError, expand_bracket, hybrid_root, power_sum, power_value


def test_expand_bracket_decreasing_map():
    f = lambda t: (5.0 * t**-1.5 - 1.0, -7.5 * t**-2.5)
    lo, hi, flo, fhi = expand_bracket(f)
    assert flo >= 0 >= fhi
    assert lo < hi


def test_expand_bracket_constant_fails():
    with pytest.raises(BracketError):
        expand_bracket(lambda t: (1.0, 0.0))


def test_power_sum_value_and_slope():
    f = power_sum([(2.0, -1.5), (0.0, 7.0), (-3.0, 2.0), (4.0, 0.0)])
    t, h = 1.7, 1e-6
    val, slope = f(t)
    assert val == pytest.approx(2.0 * t**-1.5 - 3.0 * t**2 + 4.0, rel=1e-15)
    assert slope == pytest.approx((f(t + h)[0] - f(t - h)[0]) / (2 * h), rel=1e-8)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-10, 10), st.floats(-5, 5)), min_size=0, max_size=6
    ),
    st.floats(1e-3, 1e3),
)
def test_power_value_is_bit_identical_to_power_sum(terms, t):
    terms = [(c if abs(c) > 0.5 else 0.0, r) for c, r in terms]  # zero coefficients are skipped
    assert power_value(terms, t) == power_sum(terms)(t)[0]


def test_hybrid_root_meets_residual():
    f = power_sum([(2.0, -1.5), (3.0, -3.0), (-1.0, 0.0)])
    lo, hi, flo, fhi = expand_bracket(f)
    root = hybrid_root(f, lo, hi, flo, fhi, abs_tol=1e-13)
    assert abs(f(root)[0]) <= 1e-13


def test_hybrid_root_requires_sign_change():
    with pytest.raises(ValueError):
        hybrid_root(lambda t: (1.0, 0.0), 1.0, 2.0, 1.0, 0.5, abs_tol=1e-12)


def test_hybrid_root_exhaustion_is_a_bracket_error():
    # a map that never changes sign although the caller claims it does
    with pytest.raises(BracketError):
        hybrid_root(lambda t: (1.0, 0.0), 0.0, math.inf, 1.0, -1.0, abs_tol=1e-12)


def test_hybrid_root_regression_asymmetric_bracket():
    # regression: a convex decreasing tail with a huge value at the left
    # endpoint and a tiny one at the right used to stagnate in the pure
    # secant (regula falsi keeps one endpoint fixed); the safeguard must
    # drive the residual below an extreme tolerance anyway
    a, b, c, d = 0.447, 0.021, 0.6, 0.004
    le = 0.004221765665748017
    g = power_sum([(a, -2.5), (b, -2.2), (c, -1.0), (-d, -3.5), (-le, 0.0)])
    lo = 0.6299772302587968
    hi = lo
    while g(hi)[0] > 0:
        hi *= 2.0  # g decays to -le from above: a wide asymmetric bracket
    root = hybrid_root(g, lo, hi, g(lo)[0], g(hi)[0], abs_tol=1e-12 * le)
    assert abs(g(root)[0]) <= 1e-12 * le


def test_hybrid_root_one_sided_pieces():
    # open ends: (0, hi] with the limit -inf at 0, [lo, inf) with the limit at inf
    # eta-like: rises to 1/27 - 0.01 at t = 3, then falls to -0.01
    g = power_sum([(1.0, -2.0), (-2.0, -3.0), (-0.01, 0.0)])
    tc = 3.0  # maximizer of t^-2 - 2 t^-3
    top = g(tc)[0]
    t1 = hybrid_root(g, 0.0, tc, -math.inf, top, abs_tol=1e-14)
    t2 = hybrid_root(g, tc, math.inf, top, -0.01, abs_tol=1e-14)
    assert t1 < tc < t2
    assert abs(g(t1)[0]) <= 1e-14 and abs(g(t2)[0]) <= 1e-14


def _power_sum_map(terms, target):
    def f(t):
        val = sum(coef * t**-power for coef, power in terms) - target
        slope = -sum(power * coef * t ** (-power - 1.0) for coef, power in terms)
        return val, slope

    return f


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1e-6, max_value=1e6),
            st.floats(min_value=0.3, max_value=6.0),
        ),
        min_size=1,
        max_size=4,
    ),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_hybrid_root_power_sums(terms, target):
    # the shape of every scalar equation in the package: a strictly
    # decreasing sum of negative powers crossing a positive target
    f = _power_sum_map(terms, target)
    lo, hi, flo, fhi = expand_bracket(f)
    if lo == hi:
        root = lo
    else:
        root = hybrid_root(f, lo, hi, flo, fhi, abs_tol=1e-11 * target)
    assert abs(f(root)[0]) <= 1e-11 * target
    # the same root from any warm start on the open piece (0, inf)
    for start in (1e-3 * root, 0.9 * root, 1.1 * root, 1e3 * root):
        warm = hybrid_root(f, 0.0, math.inf, math.inf, -target, abs_tol=1e-11 * target, start=start)
        assert abs(f(warm)[0]) <= 1e-11 * target


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1.1, max_value=5.0),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_hybrid_root_increasing_maps(coef, power, target):
    # increasing maps are handled by sign-flipping the bracket, as the
    # fiber maximizer equation does
    f = lambda t: (target - coef * t**power, -power * coef * t ** (power - 1.0))
    lo, hi, flo, fhi = expand_bracket(f)
    if lo == hi:
        root = lo
    else:
        root = hybrid_root(f, lo, hi, flo, fhi, abs_tol=1e-11 * target)
    assert abs(f(root)[0]) <= 1e-11 * target
    assert root == pytest.approx((target / coef) ** (1.0 / power), rel=1e-9)
    flipped = lambda t: tuple(-v for v in f(t))
    rising = hybrid_root(flipped, 0.0, math.inf, -target, math.inf, abs_tol=1e-11 * target, start=1.0)
    assert rising == pytest.approx(root, rel=1e-9)


def test_hybrid_root_warm_start_is_cheap():
    # a start next to the root costs at most three evaluations
    calls = []
    f = power_sum([(2.0, -1.5), (3.0, -3.0), (-1.0, 0.0)])

    def counted(t):
        calls.append(t)
        return f(t)

    cold = hybrid_root(f, 0.0, math.inf, math.inf, -1.0, abs_tol=1e-13)
    hybrid_root(counted, 0.0, math.inf, math.inf, -1.0, abs_tol=1e-13, start=cold * (1 + 1e-4))
    assert len(calls) <= 3
    assert calls[0] == cold * (1 + 1e-4)
