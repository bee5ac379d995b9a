import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublephase import ProblemData, critical_exponents, validate_hypotheses

from conftest import PRESET


def make_data(**overrides):
    params = dict(PRESET)
    params.update(overrides)
    return ProblemData(**params)


def test_critical_exponents_known_values():
    assert critical_exponents(1.5, 2) == (6.0, 3.0)


def test_critical_exponents_arithmetic():
    assert critical_exponents(2, 4) == (4.0, 3.0)


def test_critical_exponents_rejects_p_equals_N():
    with pytest.raises(ValueError):
        critical_exponents(2, 2)
    with pytest.raises(ValueError):
        critical_exponents(1.0, 2)
    with pytest.raises(ValueError):
        critical_exponents(3, 2)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=1.01, max_value=1.98),
    st.floats(min_value=0.001, max_value=0.5),
    st.integers(min_value=2, max_value=6),
)
def test_critical_exponents_monotone_in_p(p, dp, N):
    if p + dp >= N:
        return
    s1, t1 = critical_exponents(p, N)
    s2, t2 = critical_exponents(p + dp, N)
    assert s2 > s1 and t2 > t1


def test_preset_passes_validation(mesh4):
    report = validate_hypotheses(make_data(), mesh4)
    assert report.ok
    assert report.violations == ()


def test_q1_below_boundary_exponent_violates_H2(mesh4):
    report = validate_hypotheses(make_data(q1=2.5), mesh4)
    assert not report.ok
    assert any(tag == "H(ii)" for tag, _ in report.violations)


@pytest.mark.parametrize("lam", [0.0, float("nan"), float("inf")])
def test_nonpositive_or_nonfinite_lambda_is_flagged(mesh4, lam):
    report = validate_hypotheses(make_data(lam=lam), mesh4)
    assert not report.ok
    assert any(tag == "H" and "lambda" in msg for tag, msg in report.violations)


def test_zeta_zero_violates_H5(mesh4):
    report = validate_hypotheses(make_data(zeta="0"), mesh4)
    assert not report.ok
    assert any(tag == "H(v)" for tag, _ in report.violations)


def test_p_equal_N_rejected_at_construction():
    with pytest.raises(ValueError):
        make_data(p=2.0, N=2)


def test_negative_mu_violates_H1(mesh4):
    report = validate_hypotheses(make_data(mu="x - 0.5"), mesh4)
    assert any(tag == "H(i)" for tag, _ in report.violations)


def test_alpha_identically_zero_violates_H3(mesh4):
    report = validate_hypotheses(make_data(alpha="0"), mesh4)
    assert any(tag == "H(iii)" for tag, _ in report.violations)


def test_negative_beta_violates_H4(mesh4):
    report = validate_hypotheses(make_data(beta="-1"), mesh4)
    assert any(tag == "H(iv)" for tag, _ in report.violations)


def test_q_above_p_star_violates_H1(mesh4):
    report = validate_hypotheses(make_data(q=6.5), mesh4)
    assert any(tag == "H(i)" for tag, _ in report.violations)


def test_validation_without_mesh_uses_grid():
    report = validate_hypotheses(make_data())
    assert report.ok
    bad = validate_hypotheses(make_data(zeta="0"))
    assert not bad.ok


def test_derived_exponents_are_the_formulas():
    data = make_data()
    assert data.p_star == 2 * 1.5 / 0.5
    assert data.p_lower_star == 1.5 / 0.5


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1.05, max_value=1.9),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.01, max_value=0.99),
)
def test_exponent_orderings_for_valid_data(p, kappa, sq, sq1):
    # any valid parameter set satisfies q1+k-1 > q1-p > q1-q > 0 and q1 > p_*
    p_star, p_ls = critical_exponents(p, 2)
    q = p + sq * (p_star - p) * 0.99 + 1e-6
    lower = max(q, p_ls)
    q1 = lower + sq1 * (p_star - lower) * 0.99 + 1e-9
    if not (q < p_star and lower < q1 < p_star):
        return
    data = ProblemData(p=p, q=q, kappa=kappa, q1=q1, lam=0.1, mu="x", alpha="1", beta="1", zeta="1")
    assert data.q1 + data.kappa - 1 > data.q1 - data.p > data.q1 - data.q > 0
    assert data.q1 - data.p_lower_star > 0
