"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Reference preset: unit square, 16x16 mesh unless stated,
(p, q, kappa, q1) = (1.5, 1.8, 0.5, 4), mu = "x", alpha = beta = zeta = "1".

Criterion 2 appears twice: the literal form of the two-sided power bounds
(exponents p and q) ignores that the modular's boundary term carries the
exponent p_*, which is not ordered against q; it fails on boundary-heavy
functions and is kept red by design.  The corrected form (top power
max(q, p_*)) passes.  See the docstrings below and
tests/test_space.py::modular_norm_relations.
"""
import json
import os
import time

import numpy as np
import pytest

import doublephase as dp
from doublephase.cli import main as cli_main
from doublephase.fibering import FiberTerms, eta_prime
from doublephase.solver import multistart_directions
from doublephase.space import modular_rho, sample_fields

from conftest import PRESET, oracle_triangles

LAM = 0.1


def report(n, ok, detail=""):
    print(f"[criterion {n:>2}] {'PASS' if ok else 'FAIL'}{': ' + detail if detail else ''}")


@pytest.fixture(scope="module")
def data():
    return dp.ProblemData(**PRESET)


@pytest.fixture(scope="module")
def mesh16():
    return dp.build_rect_mesh(16, 16)


@pytest.fixture(scope="module")
def mesh4():
    return dp.build_rect_mesh(4, 4)


def random_function(mesh, seed):
    r = np.random.default_rng(seed)
    return r.uniform(-0.5, 1.5, mesh.num_nodes) * r.choice([0.2, 1.0, 5.0])


# --- 1 -----------------------------------------------------------------


def test_criterion_01_hypothesis_arithmetic(data, mesh16):
    t0 = time.perf_counter()
    assert dp.critical_exponents(1.5, 2) == (6.0, 3.0)
    assert dp.validate_hypotheses(data, mesh16).ok
    bad_q1 = dp.ProblemData(**{**PRESET, "q1": 2.5})
    rep = dp.validate_hypotheses(bad_q1, mesh16)
    assert any(tag == "H(ii)" for tag, _ in rep.violations)
    bad_zeta = dp.ProblemData(**{**PRESET, "zeta": "0"})
    rep = dp.validate_hypotheses(bad_zeta, mesh16)
    assert any(tag == "H(v)" for tag, _ in rep.violations)
    with pytest.raises(ValueError):
        dp.ProblemData(**{**PRESET, "p": 2.0})  # p = 2 = N
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, True, f"{elapsed:.2f}s")


# --- 2 -----------------------------------------------------------------


def _modular_norm_suite(meshes, data, top_power_of):
    """Runs the norm/modular relations on 1000 seeded random functions per
    mesh; returns the first violation description or None."""
    slack = 1e-12
    for mesh in meshes:
        fields = sample_fields(mesh, data)
        for seed in range(1000):
            u = random_function(mesh, seed)
            nrm = dp.norm_custom(mesh, data, u, fields)
            rho = modular_rho(mesh, data, u, fields)
            if nrm == 0.0:
                continue
            s = top_power_of(data)
            # (i) the norm is the unit-modular root
            if abs(modular_rho(mesh, data, u / nrm, fields) - 1.0) > 1e-10:
                return f"(i) root residual at seed {seed}"
            # (ii) trichotomy around 1
            if nrm < 1.0 - slack and not rho < 1.0 + slack:
                return f"(ii) norm<1 but rho>=1 at seed {seed}"
            if nrm > 1.0 + slack and not rho > 1.0 - slack:
                return f"(ii) norm>1 but rho<=1 at seed {seed}"
            # (iii)/(iv) two-sided power bounds
            if nrm < 1.0 - slack and not (nrm**s - slack <= rho <= nrm**data.p + slack):
                return (
                    f"(iii) bounds with top power {s} fail at seed {seed}: "
                    f"norm={nrm!r} rho={rho!r}"
                )
            if nrm > 1.0 + slack and not (nrm**data.p - slack <= rho <= nrm**s + slack):
                return (
                    f"(iv) bounds with top power {s} fail at seed {seed}: "
                    f"norm={nrm!r} rho={rho!r} norm^s={nrm**s!r}"
                )
            # (v)/(vi) norm and modular vanish and blow up together; the
            # scaling powers are chosen past the base norm's magnitude
            if seed < 20:
                kd = int(np.ceil(np.log10(max(1.0, nrm)))) + 6
                ku = int(np.ceil(np.log10(max(1.0, 1.0 / nrm)))) + 6
                down_n = [dp.norm_custom(mesh, data, u / 10.0**k, fields) for k in (kd - 4, kd - 2, kd)]
                down_r = [modular_rho(mesh, data, u / 10.0**k, fields) for k in (kd - 4, kd - 2, kd)]
                up_n = [dp.norm_custom(mesh, data, u * 10.0**k, fields) for k in (ku - 4, ku - 2, ku)]
                up_r = [modular_rho(mesh, data, u * 10.0**k, fields) for k in (ku - 4, ku - 2, ku)]
                ok = (
                    all(a > b for a, b in zip(down_n, down_n[1:]))
                    and all(a > b for a, b in zip(down_r, down_r[1:]))
                    and down_n[-1] < 1e-4
                    and down_r[-1] < 1e-4
                    and all(a < b for a, b in zip(up_n, up_n[1:]))
                    and all(a < b for a, b in zip(up_r, up_r[1:]))
                    and up_n[-1] > 1e4
                    and up_r[-1] > 1e4
                )
                if not ok:
                    return f"(v)/(vi) scaling limits fail at seed {seed}"
    return None


def test_criterion_02_modular_norm_suite_as_stated(data, mesh4, mesh16):
    """LITERAL form: power bounds with exponent q.  The modular carries the
    boundary term with exponent p_* = 3 > q = 1.8, so the upper bound
    rho <= |u|^q fails for boundary-heavy functions with norm > 1 (see the
    corrected variant below, which passes).  Kept faithful and red by
    design."""
    t0 = time.perf_counter()
    violation = _modular_norm_suite([mesh4, mesh16], data, top_power_of=lambda d: d.q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    if violation is not None:
        report(2, False, f"literal exponent q: {violation} (expected: red by design)")
        pytest.fail(
            "two-sided power bounds with top exponent q are violated: "
            + violation
            + " - the modular's top power is p_* here; see the corrected variant"
        )
    report(2, True, "literal exponent q (unexpectedly clean)")


def test_criterion_02_modular_norm_suite_corrected_exponent(data, mesh4, mesh16):
    """Corrected form: top power s = max(q, p_*), the actual largest power in
    the modular.  All six relations hold on 1000 functions per mesh."""
    t0 = time.perf_counter()
    violation = _modular_norm_suite(
        [mesh4, mesh16], data, top_power_of=lambda d: max(d.q, d.p_lower_star)
    )
    elapsed = time.perf_counter() - t0
    assert violation is None, violation
    assert elapsed < 30.0
    report(2, True, f"corrected top power max(q, p_*): {elapsed:.1f}s")


# --- 3 -----------------------------------------------------------------


def test_criterion_03_equivalent_norm_sandwich(data, mesh16):
    t0 = time.perf_counter()
    fields = sample_fields(mesh16, data)
    for seed in range(500):
        u = random_function(mesh16, 5000 + seed)
        circ = dp.norm_circ(mesh16, data, u, fields=fields)
        star = dp.norm_star(mesh16, data, u, fields=fields)
        custom = dp.norm_custom(mesh16, data, u, fields)
        assert circ / 3.0 - 1e-12 <= star <= 3.0 * circ + 1e-12
        assert abs(star - custom) <= 1e-12 * max(1.0, custom)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, True, f"500 functions, {elapsed:.1f}s")


# --- 4 -----------------------------------------------------------------


def test_criterion_04_operator_monotonicity(data, mesh16):
    t0 = time.perf_counter()
    fields = sample_fields(mesh16, data)
    r = np.random.default_rng(42)
    for _ in range(500):
        u = r.uniform(-1.0, 1.5, mesh16.num_nodes)
        v = r.uniform(-1.0, 1.5, mesh16.num_nodes)
        w = u - v
        pairing = dp.apply_operator_A(mesh16, data, u, w, fields) - dp.apply_operator_A(
            mesh16, data, v, w, fields
        )
        assert pairing >= -1e-12
        if np.max(np.abs(w)) >= 1e-3:
            assert pairing > 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, True, f"500 pairs, {elapsed:.1f}s")


# --- 5 -----------------------------------------------------------------


def _local_energy_factory(mesh, data):
    """Independent local-energy oracle: the terms of the discrete energy that
    depend on one node, assembled with shoelace-formula loops.  Differencing
    only these terms computes the identical central difference of the total
    energy without the cancellation noise of the unchanged remainder."""
    adjacency = [[] for _ in range(mesh.num_nodes)]
    for t, tri in enumerate(oracle_triangles(mesh)):
        for v in tri:
            adjacency[v].append(t)
    coords = mesh.nodes

    def local_energy(u, i, lam):
        total = 0.0
        for t in adjacency[i]:
            n1, n2, n3 = oracle_triangles(mesh)[t]
            (x1, y1), (x2, y2), (x3, y3) = coords[n1], coords[n2], coords[n3]
            det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
            area = 0.5 * det
            gx = (u[n1] * (y2 - y3) + u[n2] * (y3 - y1) + u[n3] * (y1 - y2)) / det
            gy = (u[n1] * (x3 - x2) + u[n2] * (x1 - x3) + u[n3] * (x2 - x1)) / det
            gn = np.hypot(gx, gy)
            cx = (x1 + x2 + x3) / 3.0
            total += area * (gn**data.p / data.p + cx * gn**data.q / data.q)  # mu = x
        x, y = coords[i]
        m = mesh.node_weight[i]
        s = mesh.boundary_weight[i]
        val = abs(u[i])
        total += m * val**data.p / data.p  # alpha = 1
        total += s * val**data.p_lower_star / data.p_lower_star  # beta = 1
        total -= m * val ** (1.0 - data.kappa) / (1.0 - data.kappa)  # zeta = 1
        total -= lam * m * val**data.q1 / data.q1
        return total

    return local_energy


def test_criterion_05_gradient_vs_central_differences(data, mesh16):
    t0 = time.perf_counter()
    fields = sample_fields(mesh16, data)
    step = 1e-6
    local_energy = _local_energy_factory(mesh16, data)
    r = np.random.default_rng(7)
    for _ in range(100):
        u = r.uniform(0.1, 1.2, mesh16.num_nodes)
        lam = r.uniform(0.05, 2.0)
        grad = dp.energy_gradient(mesh16, data, u, lam, fields=fields)
        for i in range(mesh16.num_nodes):
            up = u.copy()
            up[i] += step
            dn = u.copy()
            dn[i] -= step
            fd = (local_energy(up, i, lam) - local_energy(dn, i, lam)) / (2 * step)
            assert abs(fd - grad[i]) <= 1e-6 * max(abs(grad[i]), 1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(5, True, f"100 points x {mesh16.num_nodes} components, {elapsed:.1f}s")


# --- 6 -----------------------------------------------------------------


def test_criterion_06_fiber_closed_forms(data, mesh16):
    ft1 = dp.fiber_terms(mesh16, data, np.ones(mesh16.num_nodes), sample_fields(mesh16, data))
    t_tilde, et_max = dp.t_tilde_circ(ft1)
    assert abs(t_tilde - 1.4) <= 1e-12
    # numeric argmax oracle for the reduced map
    grid = np.linspace(0.7, 2.8, 2_000_001)
    vals = ft1.a * grid ** (ft1.p - ft1.q1) - ft1.d * grid ** (1 - ft1.q1 - ft1.kappa)
    assert et_max == pytest.approx(float(vals.max()), rel=1e-8)

    r = np.random.default_rng(11)
    for _ in range(1000):
        ft = FiberTerms(
            a=10.0 ** r.uniform(-2, 2),
            b=10.0 ** r.uniform(-2, 2),
            c=10.0 ** r.uniform(-2, 2),
            d=10.0 ** r.uniform(-2, 2),
            e=10.0 ** r.uniform(-2, 2),
            p=1.5,
            q=1.8,
            p_lower_star=3.0,
            q1=4.0,
            kappa=0.5,
        )
        lam = 10.0 ** r.uniform(-2, 1)
        t = 10.0 ** r.uniform(-1, 1)
        _, d1, _ = dp.psi_derivatives(ft, lam, t)
        rhs = t ** (ft.q1 - 1.0) * (dp.eta(ft, t) - lam * ft.e)
        scale = (
            ft.a * t ** (ft.p - 1)
            + ft.b * t ** (ft.q - 1)
            + ft.c * t ** (ft.p_lower_star - 1)
            + ft.d * t ** (-ft.kappa)
            + lam * ft.e * t ** (ft.q1 - 1)
        )
        assert abs(d1 - rhs) <= 1e-12 * scale
    report(6, True, "t_tilde = 1.4 exact; identity on 1000 draws")


# --- 7 -----------------------------------------------------------------


def test_criterion_07_fiber_root_structure(data, mesh16):
    r = np.random.default_rng(13)
    fields = sample_fields(mesh16, data)
    for _ in range(200):
        u = r.uniform(0.0, 1.0, mesh16.num_nodes)
        ft = dp.fiber_terms(mesh16, data, u, fields)
        threshold = dp.eta(ft, dp.t_circ(ft)) / ft.e
        roots = dp.fiber_roots(ft, 0.5 * threshold)
        assert roots.kind == "two"
        assert roots.t1 < roots.t_circ < roots.t2
        _, _, dd1 = dp.psi_derivatives(ft, 0.5 * threshold, roots.t1)
        _, _, dd2 = dp.psi_derivatives(ft, 0.5 * threshold, roots.t2)
        assert dd1 > 0 > dd2
    ft1 = dp.fiber_terms(mesh16, data, np.ones(mesh16.num_nodes), fields)
    roots = dp.fiber_roots(ft1, 4.0)
    assert abs(roots.t2 - 1.0) <= 1e-10
    _, _, dd = dp.psi_derivatives(ft1, 4.0, 1.0)
    assert abs(dd - (-3.0)) <= 1e-12
    report(7, True, "200 directions at half threshold; anchors at u=1")


# --- 8 -----------------------------------------------------------------


def test_criterion_08_exact_energy_anchor(data, mesh16):
    u = np.ones(mesh16.num_nodes)
    fields = sample_fields(mesh16, data)
    for lam in (0.1, 1.0, 4.0):
        total = dp.energy(mesh16, data, u, lam, fields).total
        assert abs(total - (-lam / 4.0)) <= 1e-13
    report(8, True, "energy(1, lam) = -lam/4 at 1e-13")


# --- 9 -----------------------------------------------------------------


def test_criterion_09_two_solution_reproduction(data, mesh16):
    t0 = time.perf_counter()
    rep = dp.solve_two(mesh16, data, LAM, sample_fields(mesh16, data))
    elapsed = time.perf_counter() - t0
    assert rep.plus is not None and rep.plus.converged
    assert rep.minus is not None and rep.minus.converged
    assert rep.plus.energy < 0.0 < rep.minus.energy
    assert rep.plus.residual.residual_norm <= 1e-8
    assert rep.minus.residual.residual_norm <= 1e-8
    assert rep.plus.u.min() > 0 and rep.minus.u.min() > 0
    assert rep.plus.floor_activations == 0 and rep.minus.floor_activations == 0
    assert elapsed < 300.0
    report(
        9,
        True,
        f"energies ({rep.plus.energy:.6f}, {rep.minus.energy:.6f}), {elapsed:.0f}s",
    )


# --- 10 ----------------------------------------------------------------
#
# Brute-force oracle on the 1x1 mesh: the branch energy is scale invariant
# along rays, so directions are gridded on the four faces {max coord = 1} of
# the nodal cube at step 1e-2, then refined with a local 4-D grid and a
# Nelder-Mead polish.  All fiber formulas are written out inline.

_M_LUMP = np.array([1 / 3, 1 / 6, 1 / 6, 1 / 3])  # nodes (0,0),(1,0),(0,1),(1,1)
_MU_CENTROIDS = (2.0 / 3.0, 1.0 / 3.0)  # mu = x at the two triangle centroids


def _oracle_fiber_terms(U):
    """Vectorized (a, b, c, d, e) for nodal vectors U of shape (n, 4)."""
    p, q = 1.5, 1.8
    gx1 = U[:, 1] - U[:, 0]
    gy1 = U[:, 3] - U[:, 1]
    gx2 = U[:, 3] - U[:, 2]
    gy2 = U[:, 2] - U[:, 0]
    gn1 = np.hypot(gx1, gy1)
    gn2 = np.hypot(gx2, gy2)
    a = 0.5 * (gn1**p + gn2**p) + U**p @ _M_LUMP
    b = 0.5 * (_MU_CENTROIDS[0] * gn1**q + _MU_CENTROIDS[1] * gn2**q)
    c = (U**3).sum(axis=1)  # boundary weights are all 1, beta = 1, p_* = 3
    d = np.sqrt(U) @ _M_LUMP
    e = U**4 @ _M_LUMP
    return a, b, c, d, e


def _oracle_plus_energy(U, lam):
    """Plus-branch projected energy per direction; +inf where unreachable."""
    a, b, c, d, e = _oracle_fiber_terms(U)
    # t_circ: root of 2.5 a t + 2.2 b t^1.3 + c t^2.5 = 3.5 d (increasing)
    xi = lambda t: 2.5 * a * t + 2.2 * b * t**1.3 + 1.0 * c * t**2.5
    rhs = 3.5 * d
    lo = np.full(a.shape, 1e-6)
    hi = np.full(a.shape, 1e6)
    for _ in range(60):
        mid = np.sqrt(lo * hi)  # geometric bisection over a huge range
        high = xi(mid) > rhs
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
    tc = 0.5 * (lo + hi)
    eta = lambda t: a * t**-2.5 + b * t**-2.2 + c * t**-1.0 - d * t**-3.5
    le = lam * e
    reachable = eta(tc) > le
    # t1: the root of eta = lam*e on the increasing branch (0, tc)
    lo = np.full(a.shape, 1e-8)
    hi = tc.copy()
    for _ in range(200):
        low_bad = eta(lo) >= le
        if not low_bad.any():
            break
        lo = np.where(low_bad, lo / 2.0, lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = eta(mid) < le
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    t1 = 0.5 * (lo + hi)
    psi = (
        a / 1.5 * t1**1.5
        + b / 1.8 * t1**1.8
        + c / 3.0 * t1**3.0
        - d / 0.5 * t1**0.5
        - lam * e / 4.0 * t1**4.0
    )
    return np.where(reachable, psi, np.inf)


def test_criterion_10_brute_force_equivalence(data):
    from scipy.optimize import minimize as scipy_minimize

    t0 = time.perf_counter()
    mesh1 = dp.build_rect_mesh(1, 1)

    # solver under test: best Plus energy over the multi-start set
    best_solver = np.inf
    fields = sample_fields(mesh1, data)
    for _, w in multistart_directions(mesh1, seed=0):
        res = dp.minimize_on_branch(mesh1, data, LAM, dp.Branch.PLUS, w, fields)
        if res.converged:
            best_solver = min(best_solver, res.energy)
    assert np.isfinite(best_solver)

    # stage 1: direction grid at step 1e-2 on the faces {u_k = 1}
    g = np.linspace(0.0, 1.0, 101)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    best_val = np.inf
    best_dir = None
    for face in range(4):
        U = np.insert(pts, face, 1.0, axis=1)
        vals = _oracle_plus_energy(U, LAM)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_dir = U[k]

    # stage 2: local 4-D grid around the best face point
    offs = np.linspace(-0.02, 0.02, 21)
    local = np.stack(np.meshgrid(offs, offs, offs, offs, indexing="ij"), axis=-1).reshape(-1, 4)
    U = np.clip(best_dir[None, :] + local, 0.0, None)
    U = U[U.any(axis=1)]
    vals = _oracle_plus_energy(U, LAM)
    k = int(np.argmin(vals))
    if vals[k] < best_val:
        best_val = float(vals[k])
        best_dir = U[k]

    # stage 3: Nelder-Mead polish of the scalar oracle
    def f(v):
        v = np.clip(v, 0.0, None)
        if not v.any():
            return np.inf
        return float(_oracle_plus_energy(v[None, :], LAM)[0])

    nm = scipy_minimize(
        f,
        best_dir,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000, "maxfev": 8000},
    )
    best_val = min(best_val, float(nm.fun))

    elapsed = time.perf_counter() - t0
    assert abs(best_solver - best_val) <= 1e-4 * abs(best_val)
    assert elapsed < 300.0
    report(10, True, f"solver {best_solver:.8f} vs oracle {best_val:.8f}, {elapsed:.0f}s")


# --- 11 ----------------------------------------------------------------


def test_criterion_11_nzero_emptiness_evidence(data, mesh16):
    fields = sample_fields(mesh16, data)
    lam_tilde = dp.estimate_lambda_tilde(mesh16, data, 200, seed=0, fields=fields)
    ev = dp.check_nzero_empty(mesh16, data, 0.1 * lam_tilde, 200, seed=0, fields=fields)
    assert ev.tangencies == ()
    assert ev.n_two_root == 200

    # manufactured control: tangency at the first sampled direction
    from doublephase.sweep import sample_directions

    u0 = next(sample_directions(mesh16, 1, seed=0))
    ft = dp.fiber_terms(mesh16, data, u0, fields)
    lam_tan = dp.eta(ft, dp.t_circ(ft)) / ft.e
    flagged = dp.check_nzero_empty(mesh16, data, lam_tan, 5, seed=0, fields=fields)
    assert any(t.sample == 0 for t in flagged.tangencies)
    report(11, True, f"no tangency at lam = {0.1 * lam_tilde:.4f}; control flagged")


# --- 12 ----------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "p = 1.5\nq = 1.8\nkappa = 0.5\nq1 = 4\nlambda = 0.1\n"
        "mesh.nx = 4\nmesh.ny = 4\nsweep.samples = 15\nsweep.lambda_grid = 0.02, 0.05\n"
    )
    dirs = [str(tmp_path / d) for d in ("a", "b")]
    for d in dirs:
        assert cli_main(["solve", "-c", str(cfg), "-o", d]) == 0
        assert cli_main(["sweep", "-c", str(cfg), "-o", d]) == 0
    names = [
        "solve_report.json",
        "solution_plus.csv",
        "solution_minus.csv",
        "sweep_report.json",
        "sweep_samples.csv",
    ]
    for name in names:
        a = open(os.path.join(dirs[0], name), "rb").read()
        b = open(os.path.join(dirs[1], name), "rb").read()
        assert a == b, name
    report(12, True, "solve and sweep outputs byte-identical")
