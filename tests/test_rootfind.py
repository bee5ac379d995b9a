import math
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doublephase import rootfind
from doublephase.rootfind import BracketError, expand_bracket, hybrid_root, power_bracket, power_sums


def test_expand_bracket_decreasing_map():
    f = lambda t: (5.0 * t**-1.5 - 1.0, -7.5 * t**-1.5)
    lo, hi, flo, fhi = expand_bracket(f)
    assert flo >= 0 >= fhi
    assert lo < hi


def test_expand_bracket_constant_fails():
    with pytest.raises(BracketError):
        expand_bracket(lambda t: (1.0, 0.0))


def test_power_sums_value_slope_and_magnitudes():
    # the slope is the one in log t, t f'(t); the magnitudes sum the terms unsigned
    f = partial(power_sums, [(2.0, -1.5), (0.0, 7.0), (-3.0, 2.0), (4.0, 0.0)])
    t, h = 1.7, 1e-6
    val, slope, mag, tmag = f(t)
    assert val == pytest.approx(2.0 * t**-1.5 - 3.0 * t**2 + 4.0, rel=1e-15)
    assert slope == pytest.approx(t * (f(t + h)[0] - f(t - h)[0]) / (2 * h), rel=1e-8)
    assert mag == pytest.approx(2.0 * t**-1.5 + 3.0 * t**2 + 4.0, rel=1e-15)
    assert tmag == pytest.approx(3.0 * t**-1.5 + 6.0 * t**2, rel=1e-15)


# the four loops ``power_sums`` replaced, kept as its oracles
def _old_power_sum_map(terms, t):
    live = [(c, r) for c, r in terms if c != 0.0]
    val = tslope = 0.0
    for c, r in live:
        x = c * t**r
        val += x
        tslope += r * x
    return val, tslope


def _old_power_value(terms, t):
    val = 0.0
    for c, r in terms:
        if c != 0.0:
            val += c * t**r
    return val


def _old_eta_sums(terms, t):
    val = tslope = mag = tmag = 0.0
    for c, r in [(c, r) for c, r in terms if c != 0.0]:
        x = c * t**r
        val += x
        tslope += r * x
        mag += abs(x)
        tmag += abs(r * x)
    return val, tslope, mag, tmag


def _old_psi_with_magnitude(terms, t):
    val = mag = 0.0
    for c, r in terms:
        if c != 0.0:
            x = t**r
            val += c * x
            mag += abs(c) * x
    return val, mag


def _same(a, b):
    """Bit for bit: equal floats, or both NaN."""
    return all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(a, b, strict=True))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e30, 1e30)),
            st.one_of(st.floats(-6.0, 6.0), st.just(800.0)),
        ),
        min_size=0,
        max_size=6,
    ),
    st.one_of(st.floats(1e-3, 1e3), st.just(10.0)),
)
@example([(0.0, 800.0)], 10.0)  # a zero term whose power overflows is skipped
@example([(2.0, -1.5), (0.0, 800.0), (-3.0, 2.0), (4.0, 0.0)], 10.0)
def test_power_sums_is_bit_identical_to_the_loops_it_replaced(terms, t):
    # whatever the old loops raised, power_sums raises too (a live term whose
    # power overflows); otherwise every sum is theirs bit for bit
    try:
        want = _old_eta_sums(terms, t)
    except OverflowError:
        with pytest.raises(OverflowError):
            power_sums(terms, t)
        return
    got = power_sums(terms, t)
    assert _same(got, want)
    assert _same(got[:2], _old_power_sum_map(terms, t))
    assert _same(got[:1], (_old_power_value(terms, t),))
    assert _same(got[::2], _old_psi_with_magnitude(terms, t))


def test_hybrid_root_meets_residual():
    f = partial(power_sums, [(2.0, -1.5), (3.0, -3.0), (-1.0, 0.0)])
    lo, hi = power_bracket([(2.0, -1.5), (3.0, -3.0)], 1.0)
    root = hybrid_root(f, lo, hi, math.inf, -1.0, abs_tol=1e-13)
    assert abs(f(root)[0]) <= 1e-13


def test_hybrid_root_requires_sign_change():
    with pytest.raises(ValueError):
        hybrid_root(lambda t: (1.0, 0.0), 1.0, 2.0, 1.0, 0.5, abs_tol=1e-12)


def test_hybrid_root_rejects_open_ends():
    f = partial(power_sums, [(1.0, -1.0), (-1.0, 0.0)])
    for lo, hi in ((0.0, 2.0), (0.5, math.inf), (0.0, math.inf)):
        with pytest.raises(ValueError):
            hybrid_root(f, lo, hi, math.inf, -1.0, abs_tol=1e-12)


def test_hybrid_root_exhaustion_is_a_bracket_error(monkeypatch):
    # a map that never changes sign although the caller claims it does: on a
    # finite bracket its bisection reaches floating-point width at the far
    # end within about 60 evaluations, so only a smaller budget runs out
    never = lambda t: (1.0, 0.0)
    assert hybrid_root(never, 1e-3, 1e3, 1.0, -1.0, abs_tol=1e-12) == pytest.approx(1e3, rel=1e-15)
    monkeypatch.setattr(rootfind, "ROOT_EVALS", 20)
    with pytest.raises(BracketError):
        hybrid_root(never, 1e-3, 1e3, 1.0, -1.0, abs_tol=1e-12)


def test_hybrid_root_midpoints_do_not_overflow():
    # a root near the top of the floats: lo + hi and lo * hi would overflow
    g = partial(power_sums, [(1.0, 1.0), (-1.6e308, 0.0)])
    root = hybrid_root(g, 9e307, 1.7e308, -math.inf, math.inf, abs_tol=1e296)
    assert root == pytest.approx(1.6e308, rel=1e-12)
    never = lambda t: (1.0, 0.0)
    assert hybrid_root(never, 2.0**-1022, 1.7e308, 1.0, -1.0, abs_tol=1e-12) == pytest.approx(1.7e308, rel=1e-15)


def test_hybrid_root_regression_asymmetric_bracket():
    # regression: a convex decreasing tail with a huge value at the left
    # endpoint and a tiny one at the right used to stagnate in the pure
    # secant (regula falsi keeps one endpoint fixed); the safeguard must
    # drive the residual below an extreme tolerance anyway
    a, b, c, d = 0.447, 0.021, 0.6, 0.004
    le = 0.004221765665748017
    g = partial(power_sums, [(a, -2.5), (b, -2.2), (c, -1.0), (-d, -3.5), (-le, 0.0)])
    lo = 0.6299772302587968
    hi = lo
    while g(hi)[0] > 0:
        hi *= 2.0  # g decays to -le from above: a wide asymmetric bracket
    root = hybrid_root(g, lo, hi, g(lo)[0], g(hi)[0], abs_tol=1e-12 * le)
    assert abs(g(root)[0]) <= 1e-12 * le


def test_hybrid_root_one_sided_pieces():
    # the two monotone pieces around a maximizer, bracketed as ``fiber_roots``
    # brackets them, with the limits at 0 and inf as the outer signs
    # eta-like: rises to 1/27 - 0.01 at t = 3, then falls to -0.01
    g = partial(power_sums, [(1.0, -2.0), (-2.0, -3.0), (-0.01, 0.0)])
    tc = 3.0  # maximizer of t^-2 - 2 t^-3
    top = g(tc)[0]
    lo = power_bracket([(1.0, 1.0)], 2.0)[0]  # below the zero t = 2 of t^-2 - 2 t^-3
    hi = power_bracket([(1.0, -2.0)], 0.01)[1]  # above the root t = 10 of t^-2 = 0.01
    t1 = hybrid_root(g, lo, tc, -math.inf, top, abs_tol=1e-14)
    t2 = hybrid_root(g, tc, hi, top, -0.01, abs_tol=1e-14)
    assert t1 < tc < t2
    assert abs(g(t1)[0]) <= 1e-14 and abs(g(t2)[0]) <= 1e-14


def _power_sum_map(terms, target):
    def f(t):
        val = sum(coef * t**-power for coef, power in terms) - target
        slope = -sum(power * coef * t**-power for coef, power in terms)  # t f'(t)
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
    lo, hi = power_bracket([(coef, -power) for coef, power in terms], target)
    root = hybrid_root(f, lo, hi, math.inf, -target, abs_tol=1e-11 * target)
    assert abs(f(root)[0]) <= 1e-11 * target


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1.1, max_value=5.0),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_hybrid_root_increasing_maps(coef, power, target):
    # increasing maps are handled by sign-flipping the bracket, as the
    # fiber maximizer equation does
    f = lambda t: (target - coef * t**power, -power * coef * t**power)
    lo, hi = power_bracket([(coef, power)], target)
    root = hybrid_root(f, lo, hi, target, -math.inf, abs_tol=1e-11 * target)
    assert abs(f(root)[0]) <= 1e-11 * target
    assert root == pytest.approx((target / coef) ** (1.0 / power), rel=1e-9)
    flipped = lambda t: tuple(-v for v in f(t))
    rising = hybrid_root(flipped, lo, hi, -target, math.inf, abs_tol=1e-11 * target)
    assert rising == pytest.approx(root, rel=1e-9)


def _log_excess(terms, rhs, x):
    """log(sum(c t^r)) - log(rhs) at log t = x, without forming a power."""
    logs = [math.log(c) + r * x for c, r in terms]
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs)) - math.log(rhs)


# root cases beyond 1e154, where a product lo * hi of the bracket ends overflows
@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(min_value=-100.0, max_value=100.0), st.floats(min_value=0.25, max_value=4.0)),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([1.0, -1.0]),
    st.floats(min_value=-30.0, max_value=30.0),
)
@example([(-100.0, 0.5)], 1.0, 0.0)                  # one term, root 1e200
@example([(-100.0, 0.5), (-90.0, 0.5), (-95.0, 1.0), (0.0, 4.0)], 1.0, 10.0)
@example([(100.0, 0.5), (-100.0, 2.0)], -1.0, -10.0)  # falling, root near 1e180
# t^-2 + 3 t^-2.5 = 1e-300, root 1e150: df/dt = -2e-450 underflows, t f'(t) does not
@example([(0.0, 2.0), (math.log10(3.0), 2.5)], -1.0, -300.0)
def test_power_bracket_contains_the_root(log_terms, sign, log_rhs):
    # 1 to 4 live terms with coefficients 1e-100 to 1e100 and exponents of
    # one sign: the sum is on either side of rhs at the two ends, and a cold
    # hybrid_root on the bracket meets its residual in a few evaluations
    terms = [(10.0**lc, sign * r) for lc, r in log_terms]
    rhs = 10.0**log_rhs
    try:
        lo, hi = power_bracket(terms, rhs)
    except OverflowError:
        # only when an end leaves the normal floats: then the root lies within
        # sum_{j != i} 1/|r_j| of the edge in log t, outside [e^-near, e^near]
        inv = [1.0 / r for _, r in log_terms]
        near = 706.0 - (sum(inv) - min(inv))
        assert _log_excess(terms, rhs, -near) * _log_excess(terms, rhs, near) > 0.0
        return
    assert _log_excess(terms, rhs, math.log(lo)) * sign < 0.0 < _log_excess(terms, rhs, math.log(hi)) * sign
    evals = []
    f = partial(power_sums, terms + [(-rhs, 0.0)])

    def counted(t):
        evals.append(t)
        return f(t)

    flo, fhi = -sign * rhs, sign * rhs  # the limits of the sum minus rhs, signed
    root = hybrid_root(counted, lo, hi, flo, fhi, abs_tol=1e-12 * rhs)
    assert abs(f(root)[0]) <= 1e-12 * rhs
    # the slope in log t is a float wherever the terms are, so Newton steps
    # converge for roots near 1e+-300 as well
    assert len(evals) <= 12


@pytest.mark.parametrize(
    "terms,rhs",
    [
        ([], 1.0),                          # no live term
        ([(0.0, 1.0)], 1.0),
        ([(1.0, 1.0), (1.0, -1.0)], 1.0),   # exponents of both signs
        ([(1.0, 0.0)], 2.0),                # a constant term
        ([(-1.0, 1.0)], 1.0),               # a negative coefficient
        ([(math.inf, 1.0)], 1.0),
        ([(math.nan, 1.0)], 1.0),
        ([(1.0, 1.0)], 0.0),                # rhs must be positive and finite
        ([(1.0, 1.0)], math.inf),
    ],
)
def test_power_bracket_rejects_terms_outside_the_rule(terms, rhs):
    with pytest.raises(BracketError):
        power_bracket(terms, rhs)


def test_power_bracket_beyond_the_floats_is_an_overflow():
    with pytest.raises(OverflowError):
        power_bracket([(1e-100, 0.25)], 1e100)  # root 1e800
    with pytest.raises(OverflowError):
        power_bracket([(1e100, 0.25)], 1e-100)  # root 1e-800
    with pytest.raises(OverflowError):
        power_bracket([(1e79, 0.25)], 1.0)  # root 1e-316, a subnormal
