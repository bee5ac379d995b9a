import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from doublephase import build_rect_mesh, gradient_on_triangle, gradients
from doublephase.mesh import gather_gradients, grid_grad_sq, riesz_map, scatter_flux

from conftest import oracle_area, oracle_gradient, rng


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


def test_weights_exact_on_general_rectangle():
    mesh = build_rect_mesh(3, 5, rect=(-1.0, 2.0, 3.0, 2.5))
    assert mesh.node_weight.sum() == pytest.approx(4.0 * 0.5, rel=1e-12)
    assert mesh.boundary_weight.sum() == pytest.approx(2 * (4.0 + 0.5), rel=1e-12)
    assert np.all(mesh.tri_area > 0)


def test_boundary_edges_lie_on_rectangle(mesh4):
    x0, y0, x1, y1 = mesh4.rect
    for i, j in mesh4.boundary_edges:
        for k in (i, j):
            x, y = mesh4.nodes[k]
            assert x in (x0, x1) or y in (y0, y1)


def test_gradient_of_constant_is_zero(mesh4):
    u = np.full(mesh4.num_nodes, 3.7)
    g = gradients(mesh4, u)
    assert np.max(np.abs(g)) < 1e-14


def test_gradient_of_coordinate_field(mesh4):
    u = mesh4.nodes[:, 0]
    for t in range(mesh4.num_triangles):
        gx, gy = gradient_on_triangle(mesh4, t, u)
        assert gx == pytest.approx(1.0, abs=1e-13)
        assert gy == pytest.approx(0.0, abs=1e-13)


def test_gradient_matches_linear_solve_oracle(mesh1):
    u = rng(3).random(mesh1.num_nodes)
    for t in range(mesh1.num_triangles):
        expected = oracle_gradient(mesh1, t, u)
        got = gradient_on_triangle(mesh1, t, u)
        assert got == pytest.approx(tuple(expected), abs=1e-13)


def test_gradient_index_out_of_range(mesh1):
    with pytest.raises(IndexError):
        gradient_on_triangle(mesh1, 2, np.ones(4))


def test_areas_match_shoelace_oracle(mesh4):
    for t in range(mesh4.num_triangles):
        assert mesh4.tri_area[t] == pytest.approx(oracle_area(mesh4, t), rel=1e-14)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
)
def test_linear_reproduction(a, b, c):
    mesh = build_rect_mesh(3, 3)
    u = a + b * mesh.nodes[:, 0] + c * mesh.nodes[:, 1]
    g = gradients(mesh, u)
    scale = 1.0 + abs(b) + abs(c)
    assert np.max(np.abs(g[:, 0] - b)) <= 1e-13 * scale
    assert np.max(np.abs(g[:, 1] - c)) <= 1e-13 * scale


def test_node_ordering_row_major(mesh2):
    # x varies fastest
    assert mesh2.nodes[0] == pytest.approx([0.0, 0.0])
    assert mesh2.nodes[1] == pytest.approx([0.5, 0.0])
    assert mesh2.nodes[3] == pytest.approx([0.0, 0.5])


def _loop_connectivity(nx, ny):
    """Triangles and boundary edges numbered cell by cell in Python loops:
    the reference numbering of ``build_rect_mesh``."""

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    tris = []
    for iy in range(ny):
        for ix in range(nx):
            ll, lr = nid(ix, iy), nid(ix + 1, iy)
            ul, ur = nid(ix, iy + 1), nid(ix + 1, iy + 1)
            tris.append((ll, lr, ur))
            tris.append((ll, ur, ul))
    edges = []
    for ix in range(nx):
        edges.append((nid(ix, 0), nid(ix + 1, 0)))
        edges.append((nid(ix, ny), nid(ix + 1, ny)))
    for iy in range(ny):
        edges.append((nid(0, iy), nid(0, iy + 1)))
        edges.append((nid(nx, iy), nid(nx, iy + 1)))
    return np.array(tris), np.array(edges)


@pytest.mark.parametrize("nx, ny", [(1, 1), (2, 3), (4, 4)])
def test_numbering_matches_loop_oracle(nx, ny):
    mesh = build_rect_mesh(nx, ny)
    tris, edges = _loop_connectivity(nx, ny)
    assert np.array_equal(mesh.triangles, tris)
    assert np.array_equal(mesh.boundary_edges, edges)
    assert np.array_equal(mesh.boundary_nodes, np.unique(edges))


def test_kernel_layout(mesh4):
    t = mesh4.num_triangles
    assert mesh4.basis_grads.shape == (2, 3, t)
    assert mesh4.triangles.shape == (t, 3)
    assert mesh4.triangles.T.flags.c_contiguous  # the gather and scatter index without a copy
    u = rng(5).random(mesh4.num_nodes)
    assert np.array_equal(gradients(mesh4, u), gather_gradients(mesh4, u).T)
    # every basis gradient sums to zero over a triangle's corners (constants have no gradient)
    assert np.max(np.abs(mesh4.basis_grads.sum(axis=1))) < 1e-12


@pytest.mark.parametrize("n", [4, 16])
def test_scatter_is_adjoint_of_gather(n):
    mesh = build_rect_mesh(n, n)
    r = rng(n)
    for _ in range(5):
        u = r.uniform(-1, 1, mesh.num_nodes)
        c = r.uniform(-1, 1, (2, mesh.num_triangles))
        lhs = float(np.sum(c * gather_gradients(mesh, u)))
        rhs = float(u @ scatter_flux(mesh, c))
        assert lhs == pytest.approx(rhs, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
    st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 2),
    st.tuples(*[st.floats(min_value=0.5, max_value=2.0)] * 2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stencil_squared_gradients_match_gather(nx, ny, origin, size, seed):
    (x0, y0), (w, h) = origin, size
    mesh = build_rect_mesh(nx, ny, (x0, y0, x0 + w, y0 + h))
    hx, hy = mesh.spacing
    assume(hx != hy)
    r = rng(seed)
    u = r.uniform(-2.0, 2.0, mesh.num_nodes)
    u[r.random(mesh.num_nodes) < 0.3] = 0.0
    g = gather_gradients(mesh, u)
    expected = np.einsum("dt,dt->t", g, g)
    np.testing.assert_allclose(grid_grad_sq(mesh, u) / hx**2, expected, rtol=1e-13, atol=0.0)


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
    # the map solves (K + c My (x) Mx) d = g, with K assembled column by
    # column from the P1 gradient kernel and the separable trapezoid mass
    mesh = build_rect_mesh(nx, ny, rect)
    eye = np.eye(mesh.num_nodes)
    stiffness = np.column_stack(
        [scatter_flux(mesh, gather_gradients(mesh, e) * mesh.tri_area) for e in eye]
    )
    x0, y0, x1, y1 = rect
    mass = np.outer(
        _trapezoid_weights(ny, (y1 - y0) / ny), _trapezoid_weights(nx, (x1 - x0) / nx)
    ).ravel()
    shift = 10.0 / mesh.area
    op = stiffness + shift * np.diag(mass)
    riesz = riesz_map(mesh, shift)
    r = rng(nx * 10 + ny)
    for _ in range(3):
        g = r.standard_normal(mesh.num_nodes)
        d = riesz(g)
        assert np.linalg.norm(op @ d - g) <= 1e-12 * np.linalg.norm(g)
        np.testing.assert_allclose(d, np.linalg.solve(op, g), rtol=0, atol=1e-12 * np.max(np.abs(d)))


def test_riesz_map_rejects_nonpositive_shift(mesh4):
    with pytest.raises(ValueError, match="positive shift"):
        riesz_map(mesh4, 0.0)


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
