import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doublephase import build_rect_mesh
from doublephase.mesh import centroid_rule, grid_flux, grid_grad_sq, hat_grad_power_sum, riesz_map

from conftest import (
    loop_connectivity,
    oracle_area,
    oracle_centroid,
    oracle_gradient,
    oracle_hat_gradients,
    oracle_hat_grad_p,
    oracle_lumped_weights,
    oracle_triangles,
    patchy_function,
    rng,
    skewed_meshes,
)

# 6 x 3 cells on [0, 2] x [0, 0.5]: hx = 1/3, hy = 1/6
SKEWED = (6, 3, (0.0, 0.0, 2.0, 0.5))


def grad_sq(mesh, u):
    """|grad u|^2 per triangle from the stencil."""
    return grid_grad_sq(mesh, u) / mesh.spacing[0] ** 2


def test_unit_cell_counts_and_weights(mesh1):
    assert mesh1.num_nodes == 4
    assert mesh1.num_triangles == 2
    # lumping rule: one third of the total adjacent area
    assert mesh1.node_weight == pytest.approx([1 / 3, 1 / 6, 1 / 6, 1 / 3])
    assert mesh1.node_weight.sum() == pytest.approx(1.0, rel=1e-12)


def test_2x2_counts_and_perimeter(mesh2):
    assert mesh2.num_nodes == 9
    assert mesh2.num_triangles == 8
    assert mesh2.boundary_weight.sum() == pytest.approx(4.0, rel=1e-12)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_rect_mesh(0, 1)
    with pytest.raises(ValueError):
        build_rect_mesh(1, 0)
    with pytest.raises(ValueError):
        build_rect_mesh(2, 2, rect=(0, 0, 0, 1))
    # cells so wide or flat that (hx/hy)^2 leaves the float range, the last
    # with hx/hy itself infinite
    for rect in ((0, 0, 1e200, 1), (0, 0, 1, 1e-200), (0, 0, 1e300, 1e-300)):
        with pytest.raises(ValueError, match=r"\(hx=.*, hy=.*\)"):
            build_rect_mesh(4, 4, rect=rect)


def test_weights_exact_on_general_rectangle():
    mesh = build_rect_mesh(3, 5, rect=(-1.0, 2.0, 3.0, 2.5))
    assert mesh.node_weight.sum() == pytest.approx(4.0 * 0.5, rel=1e-12)
    assert mesh.boundary_weight.sum() == pytest.approx(2 * (4.0 + 0.5), rel=1e-12)
    assert np.all(centroid_rule(mesh)[0] > 0)


def test_boundary_edges_lie_on_rectangle(mesh4):
    # the oracle's boundary edges join the mesh's boundary nodes, all on the rectangle
    x0, y0, x1, y1 = mesh4.rect
    boundary = set(mesh4.boundary_nodes.tolist())
    for i, j in loop_connectivity(mesh4.nx, mesh4.ny)[1]:
        for k in (i, j):
            assert k in boundary
            x, y = mesh4.nodes[k]
            assert x in (x0, x1) or y in (y0, y1)


def test_gradient_of_constant_is_zero(mesh4):
    for mesh in (mesh4, build_rect_mesh(*SKEWED)):
        u = np.full(mesh.num_nodes, 3.7)
        w = rng(1).uniform(0.5, 2.0, mesh.num_triangles)
        assert np.array_equal(grid_grad_sq(mesh, u), np.zeros(mesh.num_triangles))
        assert np.array_equal(grid_flux(mesh, u, w), np.zeros(mesh.num_nodes))


def test_gradient_of_coordinate_field(mesh4):
    for mesh in (mesh4, build_rect_mesh(*SKEWED)):
        for coord in (0, 1):
            g2 = grad_sq(mesh, mesh.nodes[:, coord])
            np.testing.assert_allclose(g2, 1.0, rtol=1e-13, atol=0.0)


def test_gradient_matches_linear_solve_oracle(mesh1):
    for mesh in (mesh1, build_rect_mesh(*SKEWED)):
        u = rng(3).random(mesh.num_nodes)
        g2 = grad_sq(mesh, u)
        for t in range(mesh.num_triangles):
            expected = oracle_gradient(mesh, t, u)
            assert g2[t] == pytest.approx(float(expected @ expected), rel=1e-13)


def test_areas_match_shoelace_oracle(mesh4):
    areas = centroid_rule(mesh4)[0]
    for t in range(mesh4.num_triangles):
        assert areas[t] == pytest.approx(oracle_area(mesh4, t), rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
)
def test_linear_reproduction(a, b, c):
    # the stencil reproduces the gradient of a linear field, and its flux with
    # a constant weight is the Neumann stiffness, which sends a linear field
    # to 0 at every interior node
    for mesh in (build_rect_mesh(3, 3), build_rect_mesh(*SKEWED)):
        u = a + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]
        scale = (1.0 + abs(b) + abs(c)) ** 2
        assert np.max(np.abs(grad_sq(mesh, u) - (b * b + c * c))) <= 1e-13 * scale
        flux = grid_flux(mesh, u, np.ones(mesh.num_triangles)).reshape(mesh.ny + 1, mesh.nx + 1)
        assert np.max(np.abs(flux[1:-1, 1:-1])) <= 1e-13 * scale


def test_node_ordering_row_major(mesh2):
    # x varies fastest
    assert mesh2.nodes[0] == pytest.approx([0.0, 0.0])
    assert mesh2.nodes[1] == pytest.approx([0.5, 0.0])
    assert mesh2.nodes[3] == pytest.approx([0.0, 0.5])


def _check_grid_quadrature(mesh):
    # bit for bit: the grid's sliced sums add the same terms in the same order
    # as the oracle's triangle-by-triangle and edge-by-edge loops
    node_w, bdry_w = oracle_lumped_weights(mesh)
    assert np.array_equal(mesh.node_weight, node_w)
    assert np.array_equal(mesh.boundary_weight, bdry_w)
    assert np.array_equal(mesh.boundary_nodes, np.unique(loop_connectivity(mesh.nx, mesh.ny)[1]))
    areas, centroids = centroid_rule(mesh)
    assert np.array_equal(areas, [oracle_area(mesh, t) for t in range(mesh.num_triangles)])
    assert np.array_equal(centroids, [oracle_centroid(mesh, t) for t in range(mesh.num_triangles)])


UNIT = (0.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "nx, ny, rect",
    [
        pytest.param(1, 1, UNIT, id="1-1"),
        pytest.param(2, 3, UNIT, id="2-3"),
        pytest.param(4, 4, UNIT, id="4-4"),
        pytest.param(16, 16, UNIT, id="16-16"),
        pytest.param(8, 8, (0.0, 0.0, 4.0, 4.0), id="8-8-square4"),
        pytest.param(*SKEWED, id="6-3-skewed"),
        pytest.param(7, 3, (-1.3, 0.2, 2.9, 1.7), id="7-3-offset"),
        pytest.param(5, 9, (0.1, 0.3, 0.7, 3.3), id="5-9-tall"),
    ],
)
def test_numbering_matches_loop_oracle(nx, ny, rect):
    _check_grid_quadrature(build_rect_mesh(nx, ny, rect))


@settings(max_examples=50, deadline=None)
@given(skewed_meshes())
def test_grid_quadrature_matches_loop_oracle_on_skewed_meshes(mesh):
    _check_grid_quadrature(mesh)


def test_kernel_layout():
    # per-triangle arrays follow the oracle's loop numbering: each entry of the
    # stencil is built from the two axis-parallel edges of that triangle
    mesh = build_rect_mesh(*SKEWED)
    triangles = oracle_triangles(mesh)
    assert triangles.shape == (mesh.num_triangles, 3)
    hx, hy = mesh.spacing
    u = rng(5).uniform(-1.0, 1.0, mesh.num_nodes)
    s = grid_grad_sq(mesh, u)
    for t, tri in enumerate(triangles):
        expected = 0.0
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            dx, dy = mesh.nodes[b] - mesh.nodes[a]
            if dy == 0.0:
                expected += (u[b] - u[a]) ** 2
            elif dx == 0.0:
                expected += (hx / hy) ** 2 * (u[b] - u[a]) ** 2
        assert s[t] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("n", [4, 16])
def test_grid_flux_is_adjoint_of_stencil(n):
    # grid_flux(u, w) . v is the symmetric bilinear form of sum_t w_t s_t
    mesh = build_rect_mesh(n, n, (0.0, 0.0, 1.0, 0.6))
    r = rng(n)
    for _ in range(5):
        u = r.uniform(-1, 1, mesh.num_nodes)
        v = r.uniform(-1, 1, mesh.num_nodes)
        w = r.uniform(0.0, 2.0, mesh.num_triangles)
        uv = float(v @ grid_flux(mesh, u, w))
        assert uv == pytest.approx(float(u @ grid_flux(mesh, v, w)), rel=1e-12)
        polar = 0.25 * float(w @ (grid_grad_sq(mesh, u + v) - grid_grad_sq(mesh, u - v)))
        assert uv == pytest.approx(polar, rel=1e-12)
        assert float(u @ grid_flux(mesh, u, w)) == pytest.approx(float(w @ grid_grad_sq(mesh, u)), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    skewed_meshes(),
    st.sampled_from(["patchy", "constant", "x", "y", "linear"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(build_rect_mesh(*SKEWED), "patchy", 0)
def test_stencil_squared_gradients_match_loop_oracle(mesh, kind, seed):
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    u = {
        "patchy": lambda: patchy_function(mesh, seed),
        "constant": lambda: np.full(mesh.num_nodes, 1.3),
        "x": lambda: x.copy(),
        "y": lambda: y.copy(),
        "linear": lambda: 0.4 - 1.7 * x + 2.3 * y,
    }[kind]()
    expected = np.array([float(g @ g) for g in (oracle_gradient(mesh, t, u) for t in range(mesh.num_triangles))])
    np.testing.assert_allclose(grad_sq(mesh, u), expected, rtol=1e-13, atol=0.0)


@settings(max_examples=50, deadline=None)
@given(skewed_meshes(max_cells=6), st.floats(min_value=1.1, max_value=3.0))
def test_hat_gradient_sums_match_loop_oracle(mesh, r):
    got = hat_grad_power_sum(mesh, centroid_rule(mesh)[0] * mesh.spacing[0] ** -r, r)
    np.testing.assert_allclose(got, oracle_hat_grad_p(mesh, r), rtol=1e-12, atol=0.0)


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n + 1, h)
    w[[0, n]] *= 0.5
    return w


@pytest.mark.parametrize(
    "nx, ny, rect",
    [
        (1, 1, (0.0, 0.0, 1.0, 1.0)),
        (4, 4, (0.0, 0.0, 1.0, 1.0)),
        (16, 16, (0.0, 0.0, 1.0, 1.0)),
        (5, 3, (0.0, 0.0, 2.0, 1.0)),
        (7, 2, (-1.0, 0.0, 1.0, 3.0)),
    ],
)
def test_riesz_map_inverts_stiffness_plus_mass(nx, ny, rect):
    # the map solves (K + c My (x) Mx) d = g, with the P1 stiffness K
    # assembled triangle by triangle and the separable trapezoid mass
    mesh = build_rect_mesh(nx, ny, rect)
    stiffness = np.zeros((mesh.num_nodes, mesh.num_nodes))
    for t, tri in enumerate(oracle_triangles(mesh)):
        grads = oracle_hat_gradients(mesh, t)
        stiffness[np.ix_(tri, tri)] += oracle_area(mesh, t) * np.array([[ga @ gb for gb in grads] for ga in grads])
    x0, y0, x1, y1 = rect
    mass = np.outer(
        _trapezoid_weights(ny, (y1 - y0) / ny), _trapezoid_weights(nx, (x1 - x0) / nx)
    ).ravel()
    shift = 10.0 / mesh.area
    op = stiffness + shift * np.diag(mass)
    riesz = riesz_map(mesh)
    r = rng(nx * 10 + ny)
    for _ in range(3):
        g = r.standard_normal(mesh.num_nodes)
        d = riesz(g)
        assert np.linalg.norm(op @ d - g) <= 1e-12 * np.linalg.norm(g)
        np.testing.assert_allclose(d, np.linalg.solve(op, g), rtol=0, atol=1e-12 * np.max(np.abs(d)))


def _loaded_after_import(package: str) -> str:
    import doublephase

    src = os.path.dirname(os.path.dirname(os.path.abspath(doublephase.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, doublephase; "
        f"print(any(m == {package!r} or m.startswith({package + '.'!r}) for m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # scipy.sparse costs more to import than a whole mesh setup
    assert _loaded_after_import("scipy") == "False"


def test_import_loads_no_numpy_fft():
    # the Riesz map uses dense cosine matrices: at the solver's mesh sizes
    # they are faster than an FFT, and numpy.fft adds to the peak memory
    assert _loaded_after_import("numpy.fft") == "False"
