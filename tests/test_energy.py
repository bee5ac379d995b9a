import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublephase import (
    ProblemData,
    apply_operator_A,
    build_rect_mesh,
    energy,
    energy_gradient,
    weak_residual,
)
from doublephase.energy import DEFAULT_FLOOR, _signed_power, _weak_form, gradient_flux, hat_norms_1p
from doublephase.space import sample_fields
from doublephase.sweep import _rayleigh_gradient

from conftest import (
    PRESET,
    VARIABLE,
    oracle_area,
    oracle_breakdown,
    oracle_centroid,
    oracle_flux,
    oracle_gradient,
    oracle_hat_grad_p,
    oracle_lumped_weights,
    patchy_function,
    rng,
    skewed_meshes,
)


def test_energy_constant_function_closed_form(mesh16, preset_data, fields16):
    # Theta(1) = 1/p + 0 + 4/p_* - 1/(1-kappa) - lam/q1 = -lam/4 for the preset
    u = np.ones(mesh16.num_nodes)
    for lam in (0.1, 1.0, 4.0):
        ev = energy(mesh16, preset_data, u, lam, fields16)
        assert ev.total == pytest.approx(-lam / 4.0, abs=1e-13)


def test_energy_zero_function(mesh16, preset_data, fields16):
    assert energy(mesh16, preset_data, np.zeros(mesh16.num_nodes), 1.0, fields16).total == 0.0


def test_energy_total_is_sum_of_parts(mesh4, preset_data, fields4):
    u = rng(4).uniform(0.1, 2.0, mesh4.num_nodes)
    ev = energy(mesh4, preset_data, u, 0.7, fields4)
    assert ev.total == pytest.approx(sum(ev.parts.values()), rel=1e-13)


def test_energy_matches_resummation_oracle(mesh2, preset_data, fields2):
    u = rng(9).uniform(0.05, 1.5, mesh2.num_nodes)
    lam = 0.8
    gp, gq, mp, bd, sg, mq = oracle_breakdown(mesh2, preset_data, u)
    expected = (
        (gp + mp) / preset_data.p
        + gq / preset_data.q
        + bd / preset_data.p_lower_star
        - sg / (1 - preset_data.kappa)
        - lam * mq / preset_data.q1
    )
    assert energy(mesh2, preset_data, u, lam, fields2).total == pytest.approx(expected, rel=1e-12)


def test_energy_even_in_u(mesh4, preset_data, fields4):
    u = rng(14).uniform(-1, 1, mesh4.num_nodes)
    assert energy(mesh4, preset_data, -u, 0.5, fields4).total == pytest.approx(
        energy(mesh4, preset_data, u, 0.5, fields4).total, rel=1e-13
    )


def test_energy_decreasing_in_lambda(mesh4, preset_data, fields4):
    u = rng(15).uniform(0.1, 1.0, mesh4.num_nodes)
    e1 = energy(mesh4, preset_data, u, 0.2, fields4).total
    e2 = energy(mesh4, preset_data, u, 0.9, fields4).total
    assert e1 > e2  # strict: the q1 mass is positive


def test_operator_at_zero(mesh4, preset_data, fields4):
    z = np.zeros(mesh4.num_nodes)
    h = rng(16).uniform(-1, 1, mesh4.num_nodes)
    assert apply_operator_A(mesh4, preset_data, z, h, fields4) == 0.0


def test_operator_constants_closed_form(mesh16, preset_data, fields16):
    ones = np.ones(mesh16.num_nodes)
    for c in (1.0, 2.0):
        got = apply_operator_A(mesh16, preset_data, c * ones, ones, fields16)
        expected = c ** (preset_data.p - 1) + 4.0 * c ** (preset_data.p_lower_star - 1)
        assert got == pytest.approx(expected, rel=1e-12)


def _pairing_per_triangle(mesh, data, u, h):
    """<A(u), h> summed triangle by triangle: area * w * (grad u . grad h)
    with w = |grad u|^{p-2} + mu |grad u|^{q-2} (0 where grad u = 0), plus
    the nodal mass and boundary sums."""
    total = 0.0
    for t in range(mesh.num_triangles):
        gu, gh = oracle_gradient(mesh, t, u), oracle_gradient(mesh, t, h)
        gn = float(np.hypot(*gu))
        mu = float(data.mu(*oracle_centroid(mesh, t)))
        w = gn ** (data.p - 2) + mu * gn ** (data.q - 2) if gn > 0 else 0.0
        total += oracle_area(mesh, t) * w * float(gu @ gh)
    node_w, bdry_w = oracle_lumped_weights(mesh)
    for i in range(mesh.num_nodes):
        x, y = mesh.nodes[i]
        mass = node_w[i] * float(data.alpha(x, y)) * abs(u[i]) ** (data.p - 1)
        bdry = bdry_w[i] * float(data.beta(x, y)) * abs(u[i]) ** (data.p_lower_star - 1)
        total += np.sign(u[i]) * (mass + bdry) * h[i]
    return total


def test_operator_pairing_matches_per_triangle_formula(mesh4, preset_data):
    fields = sample_fields(mesh4, preset_data)
    r = rng(19)
    for _ in range(10):
        u = r.uniform(-1, 1, mesh4.num_nodes)
        h = r.uniform(-1, 1, mesh4.num_nodes)
        expected = _pairing_per_triangle(mesh4, preset_data, u, h)
        assert apply_operator_A(mesh4, preset_data, u, h, fields) == pytest.approx(expected, rel=1e-12)
    u = np.ones(mesh4.num_nodes)  # grad u = 0 on every triangle
    h = r.uniform(-1, 1, mesh4.num_nodes)
    expected = _pairing_per_triangle(mesh4, preset_data, u, h)
    assert apply_operator_A(mesh4, preset_data, u, h, fields) == pytest.approx(expected, rel=1e-12)


def _one(x, y):
    return 1.0


def _oracle_nodal(mesh, u, expo, field, weights):
    """weights_i field(x_i) sign(u_i)|u_i|^expo, node by node."""
    out = np.zeros(mesh.num_nodes)
    for i, (x, y) in enumerate(mesh.nodes):
        if weights[i] > 0:
            out[i] = weights[i] * float(field(x, y)) * np.sign(u[i]) * abs(u[i]) ** expo
    return out


def _oracle_terms(mesh, data, u, lam):
    """Loop-assembled nodal vectors (gradient, alpha_mass, beta_boundary,
    singular, superlinear) of the weak form at u, the singular one floored
    like energy_gradient."""
    node_w, bdry_w = oracle_lumped_weights(mesh)
    floored = np.maximum(u, DEFAULT_FLOOR)
    return {
        "gradient": oracle_flux(mesh, data, u),
        "alpha_mass": _oracle_nodal(mesh, u, data.p - 1, data.alpha, node_w),
        "beta_boundary": _oracle_nodal(mesh, u, data.p_lower_star - 1, data.beta, bdry_w),
        "singular": _oracle_nodal(mesh, floored, -data.kappa, data.zeta, node_w),
        "superlinear": lam * _oracle_nodal(mesh, u, data.q1 - 1, _one, node_w),
    }


def _close(got, expected, rel=1e-12):
    """Max-norm agreement relative to the largest entry of expected."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    return np.max(np.abs(got - expected)) <= rel * np.max(np.abs(expected))


@settings(max_examples=40, deadline=None)
@given(skewed_meshes(max_cells=6), st.integers(min_value=0, max_value=2**32 - 1))
def test_nodal_vectors_match_loop_assembly(mesh, seed):
    # non-square cells, zero-gradient patches and varying mu, alpha, beta, zeta
    data = ProblemData(**VARIABLE)
    fields = sample_fields(mesh, data)
    lam = 0.7
    u = patchy_function(mesh, seed)
    terms = _oracle_terms(mesh, data, u, lam)
    operator = terms["gradient"] + terms["alpha_mass"] + terms["beta_boundary"]
    gradient = operator - terms["singular"] - terms["superlinear"]
    assert _close(energy_gradient(mesh, data, u, lam, fields).values, gradient)

    h = rng(seed + 1).uniform(-1.0, 1.0, mesh.num_nodes)
    pairing = apply_operator_A(mesh, data, u, h, fields)
    assert abs(pairing - float(operator @ h)) <= 1e-12 * float(np.abs(operator) @ np.abs(h))

    node_w, _ = oracle_lumped_weights(mesh)
    alpha = np.array([float(data.alpha(x, y)) for x, y in mesh.nodes])
    hat = (oracle_hat_grad_p(mesh, data.p) + np.array(node_w) * alpha) ** (1.0 / data.p)
    np.testing.assert_allclose(hat_norms_1p(mesh, data, fields), hat, rtol=1e-12, atol=0.0)

    v = np.abs(u) + 0.1   # the weak residual needs v > 0
    vterms = _oracle_terms(mesh, data, v, lam)
    defect = (
        vterms["gradient"] + vterms["alpha_mass"] + vterms["beta_boundary"]
        - vterms["singular"] - vterms["superlinear"]
    )
    report = weak_residual(mesh, data, v, lam, fields)
    term_max = {k: float(np.max(np.abs(vec) / hat)) for k, vec in vterms.items()}
    scale = max(term_max.values())
    assert abs(report.residual_norm - float(np.max(np.abs(defect) / hat))) <= 1e-12 * scale
    for k, val in term_max.items():
        assert report.term_max[k] == pytest.approx(val, rel=1e-12, abs=1e-12 * scale)

    # the Sobolev quotient's gradient: only the p-parts enter its numerator
    num = 2.5
    mass = float(np.array(node_w) @ np.abs(u) ** data.p_star)
    den = mass ** (data.p / data.p_star)
    num_grad = data.p * (oracle_flux(mesh, data, u, q_part=False) + terms["alpha_mass"])
    den_grad = data.p * mass ** (data.p / data.p_star - 1.0) * _oracle_nodal(mesh, u, data.p_star - 1, _one, node_w)
    expected = (num_grad - (num / den) * den_grad) / den
    assert _close(_rayleigh_gradient(mesh, data, u, fields, num), expected)


def test_operator_is_derivative_of_nonsingular_energy(mesh4, preset_data, fields4):
    # <A(u), h> = d/ds [kinetic + boundary parts](u + s h) at s = 0
    r = rng(17)
    u = r.uniform(0.2, 1.5, mesh4.num_nodes)
    h = r.uniform(-1, 1, mesh4.num_nodes)
    step = 1e-6

    def nonsingular(v):
        ev = energy(mesh4, preset_data, v, 0.0, fields4)
        return ev.kinetic_p + ev.kinetic_q_mu + ev.boundary

    fd = (nonsingular(u + step * h) - nonsingular(u - step * h)) / (2 * step)
    got = apply_operator_A(mesh4, preset_data, u, h, fields4)
    assert got == pytest.approx(fd, rel=1e-6)


def test_operator_monotonicity(mesh4, preset_data):
    fields = sample_fields(mesh4, preset_data)
    r = rng(18)
    for _ in range(100):
        u = r.uniform(-1, 1, mesh4.num_nodes)
        v = r.uniform(-1, 1, mesh4.num_nodes)
        w = u - v
        pairing = apply_operator_A(mesh4, preset_data, u, w, fields) - apply_operator_A(
            mesh4, preset_data, v, w, fields
        )
        assert pairing >= -1e-12
        if np.max(np.abs(w)) >= 1e-3:
            assert pairing > 0.0


def test_gradient_unfolds_to_operator_minus_reaction(mesh4, preset_data):
    # each component is <A(u), e_i> - int zeta u^-kappa e_i - lam int u^{q1-1} e_i
    lam = 4.0
    u = np.ones(mesh4.num_nodes)
    fields = sample_fields(mesh4, preset_data)
    grad = energy_gradient(mesh4, preset_data, u, lam, fields=fields).values
    for i in range(mesh4.num_nodes):
        e_i = np.zeros(mesh4.num_nodes)
        e_i[i] = 1.0
        m_i = mesh4.node_weight[i]
        x, y = mesh4.nodes[i]
        expected = (
            apply_operator_A(mesh4, preset_data, u, e_i, fields)
            - m_i * float(preset_data.zeta(x, y)) * u[i] ** (-preset_data.kappa)
            - lam * m_i * u[i] ** (preset_data.q1 - 1)
        )
        assert grad[i] == pytest.approx(expected, abs=1e-12)


def test_gradient_matches_central_differences(mesh4, preset_data, fields4):
    lam = 0.5
    step = 1e-6
    for seed in range(5):
        u = rng(40 + seed).uniform(0.1, 1.0, mesh4.num_nodes)
        grad = energy_gradient(mesh4, preset_data, u, lam, fields4).values
        for i in range(mesh4.num_nodes):
            up = u.copy()
            up[i] += step
            dn = u.copy()
            dn[i] -= step
            fd = (
                energy(mesh4, preset_data, up, lam, fields4).total
                - energy(mesh4, preset_data, dn, lam, fields4).total
            ) / (2 * step)
            assert abs(fd - grad[i]) <= 1e-6 * max(abs(grad[i]), 1e-8)


def test_gradient_floor_engages_at_zero_node(mesh4, preset_data, fields4):
    u = rng(50).uniform(0.5, 1.0, mesh4.num_nodes)
    u[3] = 0.0
    res = energy_gradient(mesh4, preset_data, u, 0.5, fields4)
    assert np.all(np.isfinite(res.values))
    assert res.floor_active[3]
    assert res.floor_active.sum() == 1


def test_weak_residual_constant_function_nehari_defect(mesh16, preset_data, fields16):
    # u = 1 at lam = 4 is fiber-critical: the defect against h = 1 vanishes,
    # but per-hat defects do not (u = 1 is not a PDE solution)
    lam = 4.0
    u = np.ones(mesh16.num_nodes)
    against_ones = (
        apply_operator_A(mesh16, preset_data, u, u, fields16)
        - 1.0  # int zeta u^-kappa
        - lam * 1.0  # lam int u^{q1-1}
    )
    assert against_ones == pytest.approx(0.0, abs=1e-12)
    report = weak_residual(mesh16, preset_data, u, lam, fields16)
    assert report.residual_norm > 1e-3


def test_weak_residual_rejects_nonpositive(mesh4, preset_data, fields4):
    u = np.ones(mesh4.num_nodes)
    u[0] = 0.0
    with pytest.raises(ValueError):
        weak_residual(mesh4, preset_data, u, 1.0, fields4)


def test_hat_norms_positive(mesh4, preset_data, fields4):
    hn = hat_norms_1p(mesh4, preset_data, fields4)
    assert np.all(hn > 0)


def test_coercivity_intermediate_inequality_on_nehari_points(mesh4, preset_data, fields4):
    # on the manifold: Theta(u) >= c1 rho(u) - (1/(1-k) - 1/q1) int zeta|u|^{1-k},
    # with c1 the smallest of the three bracket coefficients
    from doublephase import Branch
    from doublephase.solver import _project
    from doublephase.space import modular_breakdown

    d = preset_data
    c1 = min(1 / d.p - 1 / d.q1, 1 / d.q - 1 / d.q1, 1 / d.p_lower_star - 1 / d.q1)
    c2 = 1 / (1 - d.kappa) - 1 / d.q1
    lam = 0.1
    for seed in range(20):
        w = rng(60 + seed).uniform(0.0, 1.0, mesh4.num_nodes)
        for branch in (Branch.PLUS, Branch.MINUS):
            u = _project(mesh4, d, w, lam, branch, fields4).u
            bd = modular_breakdown(mesh4, d, u, fields4)
            rho = bd.grad_p + bd.grad_q_mu + bd.mass_p_alpha + bd.bdry_pstar_beta
            lhs = energy(mesh4, d, u, lam, fields4).total
            rhs = c1 * rho - c2 * bd.zeta_sing
            assert lhs >= rhs - 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("n", [4, 16])
def test_folded_weights_keep_the_nodal_vectors_bit_identical(n):
    # sample_fields folds m alpha, m zeta and s beta once; every vector built
    # from them must equal the per-call products m * alpha * (...) bit for bit
    data = ProblemData(**dict(PRESET, alpha="1 + x*y", beta="2 - y", zeta="0.5 + x"))
    mesh = build_rect_mesh(n, n)
    fields = sample_fields(mesh, data)
    m, b = mesh.node_weight, mesh.boundary_nodes
    u = rng(n).uniform(-0.5, 1.5, mesh.num_nodes)
    xn, yn = mesh.nodes[:, 0], mesh.nodes[:, 1]
    alpha_node = np.broadcast_to(np.asarray(data.alpha(xn, yn), dtype=float), xn.shape)
    zeta_node = np.broadcast_to(np.asarray(data.zeta(xn, yn), dtype=float), xn.shape)
    beta_b = np.asarray(data.beta(xn[b], yn[b]), dtype=float)

    lam = 0.3
    (grad_vec, alpha_vec, beta_vec, _, _), _ = _weak_form(mesh, data, u, lam, fields, DEFAULT_FLOOR)
    alpha_old = m * alpha_node * _signed_power(u, data.p - 1.0)
    beta_old = np.zeros(mesh.num_nodes)
    beta_old[b] = mesh.boundary_weight[b] * beta_b * _signed_power(u[b], data.p_lower_star - 1.0)
    assert np.array_equal(alpha_vec, alpha_old)
    assert np.array_equal(beta_vec, beta_old)

    floored = np.maximum(u, 1e-10)
    gradient_old = (
        grad_vec + alpha_old + beta_old
        - m * zeta_node * floored ** (-data.kappa)
        - lam * m * _signed_power(u, data.q1 - 1.0)
    )
    assert np.array_equal(energy_gradient(mesh, data, u, lam, fields).values, gradient_old)

    # the hat norms are checked against loop assembly in test_nodal_vectors_match_loop_assembly
    hn = hat_norms_1p(mesh, data, fields)
    v = np.abs(u) + 0.1
    (grad_v, alpha_v, beta_v, _, _), _ = _weak_form(mesh, data, v, lam, fields, 0.0)
    sing_old = m * zeta_node * v ** (-data.kappa)
    defect_old = grad_v + alpha_v + beta_v - sing_old - lam * m * v ** (data.q1 - 1.0)
    report = weak_residual(mesh, data, v, lam, fields)
    assert report.residual_norm == float(np.max(np.abs(defect_old) / hn))
    assert report.term_max["singular"] == float(np.max(np.abs(sing_old) / hn))

    num = 2.5
    num_grad = gradient_flux(mesh, data, u, fields, q_part=False)
    num_grad += m * alpha_node * np.sign(u) * np.abs(u) ** (data.p - 1.0)
    num_grad *= data.p
    mass = float(m @ np.abs(u) ** data.p_star)
    den = mass ** (data.p / data.p_star)
    den_grad = (
        data.p * mass ** (data.p / data.p_star - 1.0) * m * np.sign(u) * np.abs(u) ** (data.p_star - 1.0)
    )
    expected = (num_grad - (num / den) * den_grad) / den
    assert np.array_equal(_rayleigh_gradient(mesh, data, u, fields, num), expected)
