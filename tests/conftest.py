import contextlib
import functools
import math
import os
import signal

import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from doublephase import ProblemData, build_rect_mesh, sample_fields, solver

PRESET = dict(p=1.5, q=1.8, kappa=0.5, q1=4.0, lam=0.1, mu="x", alpha="1", beta="1", zeta="1")
# every coefficient field varies over the domain
VARIABLE = dict(PRESET, mu="0.5 + x*y", alpha="1 + x", beta="2 + x*y", zeta="0.5 + x")


def overflowing_start(monkeypatch, mesh, start):
    """Make the first projection of the multi-start ``start`` (solver seed 0)
    raise OverflowError, as a power sum that overflows there would."""
    w0 = dict(solver.multistart_directions(mesh, seed=0))[start]
    project = solver._project

    def failing(mesh, data, w, *args, warm=None, **kwargs):
        if warm is None and np.array_equal(w, w0):
            raise OverflowError("power sum overflow")
        return project(mesh, data, w, *args, warm=warm, **kwargs)

    monkeypatch.setattr(solver, "_project", failing)


_AFFINITY = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


@pytest.fixture(autouse=True)
def affinity_unchanged():
    """Every test leaves this process's CPU affinity as the suite found it: a
    fork map that runs an item in its caller pins the caller for that item only."""
    yield
    if _AFFINITY is not None:
        assert os.sched_getaffinity(0) == _AFFINITY


def assert_no_child_left():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def raising_after(seconds, exc):
    """Raise ``exc`` in this process after ``seconds``, wherever it is then."""

    def handler(signum, frame):
        raise exc

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def two_loop_direction(pairs, gamma, riesz, g):
    """H g by the L-BFGS two-loop recursion (Nocedal & Wright, *Numerical
    Optimization*, 2006, Alg. 7.4) over the pairs (s, y), oldest first, with
    H_0 = gamma P^-1 and ``riesz`` the map g -> P^-1 g: the oracle of the
    solver's compact L-BFGS store."""
    if not pairs:
        return riesz(g)
    q = g.copy()
    alphas = []
    for s, y in reversed(pairs):
        alpha = (s @ q) / (s @ y)
        q -= alpha * y
        alphas.append(alpha)
    r = gamma * riesz(q)
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - (y @ r) / (s @ y)) * s
    return r


@pytest.fixture(scope="session")
def preset_data():
    return ProblemData(**PRESET)


@pytest.fixture(scope="session")
def mesh1():
    return build_rect_mesh(1, 1)


@pytest.fixture(scope="session")
def mesh2():
    return build_rect_mesh(2, 2)


@pytest.fixture(scope="session")
def mesh4():
    return build_rect_mesh(4, 4)


@pytest.fixture(scope="session")
def mesh16():
    return build_rect_mesh(16, 16)


# the preset's coefficient fields on each fixture mesh, sampled once per session
@pytest.fixture(scope="session")
def fields1(mesh1, preset_data):
    return sample_fields(mesh1, preset_data)


@pytest.fixture(scope="session")
def fields2(mesh2, preset_data):
    return sample_fields(mesh2, preset_data)


@pytest.fixture(scope="session")
def fields4(mesh4, preset_data):
    return sample_fields(mesh4, preset_data)


@pytest.fixture(scope="session")
def fields16(mesh16, preset_data):
    return sample_fields(mesh16, preset_data)


def rng(seed=0):
    return np.random.default_rng(seed)


@st.composite
def skewed_meshes(draw, max_cells=9):
    """Rectangle meshes of 1 to max_cells cells per axis over a random
    rectangle, with non-square cells (hx != hy)."""
    nx = draw(st.integers(min_value=1, max_value=max_cells))
    ny = draw(st.integers(min_value=1, max_value=max_cells))
    x0, y0 = draw(st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 2))
    w, h = draw(st.tuples(*[st.floats(min_value=0.5, max_value=2.0)] * 2))
    mesh = build_rect_mesh(nx, ny, (x0, y0, x0 + w, y0 + h))
    hx, hy = mesh.spacing
    assume(hx != hy)
    return mesh


def patchy_function(mesh, seed, lo=-2.0, hi=2.0):
    """Random nodal values with about 30% zeros and a constant block of the
    node grid, so that some triangles have zero gradient."""
    r = rng(seed)
    u = r.uniform(lo, hi, mesh.num_nodes)
    u[r.random(mesh.num_nodes) < 0.3] = 0.0
    grid = u.reshape(mesh.ny + 1, mesh.nx + 1)
    iy, ix = r.integers(0, mesh.ny), r.integers(0, mesh.nx)
    grid[iy : iy + 2, ix : ix + 2] = r.uniform(lo, hi)
    return u


# --- independent re-summation oracle -------------------------------------
#
# Pure-Python re-summation of the six discrete integrals: triangles and
# boundary edges numbered in loops, triangle measures by the shoelace
# formula, gradients by solving the 2x2 interpolation system, lumped weights
# rebuilt independently.  Only the mesh's node coordinates are reused.


@functools.lru_cache(maxsize=None)
def loop_connectivity(nx, ny):
    """(triangles (T, 3), boundary edges (E, 2)) of an nx x ny grid, numbered
    cell by cell in Python loops: triangles 2k and 2k+1 (k = iy*nx + ix) are
    the halves of cell (iy, ix) below and above its lower-left-to-upper-right
    diagonal, counterclockwise, which is the per-triangle layout of every
    array in ``doublephase``."""

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
    tris, edges = np.array(tris), np.array(edges)
    tris.flags.writeable = edges.flags.writeable = False
    return tris, edges


def oracle_triangles(mesh):
    return loop_connectivity(mesh.nx, mesh.ny)[0]


def oracle_gradient(mesh, tri, u):
    i, j, k = oracle_triangles(mesh)[tri]
    (x1, y1), (x2, y2), (x3, y3) = mesh.nodes[[i, j, k]]
    A = np.array([[x2 - x1, y2 - y1], [x3 - x1, y3 - y1]])
    b = np.array([u[j] - u[i], u[k] - u[i]])
    return np.linalg.solve(A, b)


def oracle_area(mesh, tri):
    i, j, k = oracle_triangles(mesh)[tri]
    (x1, y1), (x2, y2), (x3, y3) = mesh.nodes[[i, j, k]]
    return 0.5 * abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))


def oracle_hat_gradients(mesh, tri):
    """Gradients on triangle tri of the hat functions of its three corners."""
    grads = []
    for v in oracle_triangles(mesh)[tri]:
        e = np.zeros(mesh.num_nodes)
        e[v] = 1.0
        grads.append(oracle_gradient(mesh, tri, e))
    return grads


def oracle_centroid(mesh, tri):
    tri = oracle_triangles(mesh)[tri]
    cx = sum(mesh.nodes[v, 0] for v in tri) / 3.0
    cy = sum(mesh.nodes[v, 1] for v in tri) / 3.0
    return cx, cy


def oracle_lumped_weights(mesh):
    """(node weights, boundary weights), each summed edge by edge or
    triangle by triangle."""
    node_w = [0.0] * mesh.num_nodes
    for t, tri in enumerate(oracle_triangles(mesh)):
        for v in tri:
            node_w[v] += oracle_area(mesh, t) / 3.0
    bdry_w = [0.0] * mesh.num_nodes
    for i, j in loop_connectivity(mesh.nx, mesh.ny)[1]:
        length = math.hypot(
            mesh.nodes[j, 0] - mesh.nodes[i, 0], mesh.nodes[j, 1] - mesh.nodes[i, 1]
        )
        bdry_w[i] += length / 2.0
        bdry_w[j] += length / 2.0
    return node_w, bdry_w


def oracle_breakdown(mesh, data, u):
    """Naive loop evaluation of (grad_p, grad_q_mu, mass_p_alpha, bdry, sing, mass_q1)."""
    u = np.asarray(u, dtype=float)
    grad_p = grad_q = 0.0
    for t in range(mesh.num_triangles):
        area = oracle_area(mesh, t)
        g = oracle_gradient(mesh, t, u)
        gn = math.hypot(g[0], g[1])
        grad_p += area * gn**data.p
        grad_q += area * float(data.mu(*oracle_centroid(mesh, t))) * gn**data.q
    node_w, bdry_w = oracle_lumped_weights(mesh)
    mass_p = sing = mass_q1 = 0.0
    for i in range(mesh.num_nodes):
        x, y = mesh.nodes[i]
        m = node_w[i]
        a = abs(u[i])
        mass_p += m * float(data.alpha(x, y)) * a**data.p
        sing += m * float(data.zeta(x, y)) * a ** (1.0 - data.kappa)
        mass_q1 += m * a**data.q1
    bdry = 0.0
    for i in range(mesh.num_nodes):
        if bdry_w[i] > 0:
            x, y = mesh.nodes[i]
            bdry += bdry_w[i] * float(data.beta(x, y)) * abs(u[i]) ** data.p_lower_star
    return grad_p, grad_q, mass_p, bdry, sing, mass_q1


def oracle_flux(mesh, data, u, q_part=True):
    """Per-triangle loop assembly of the nodal vector sum_t |T| w_t grad u . grad phi_i,
    w = |grad u|^{p-2} + mu |grad u|^{q-2} (0 where grad u = 0); q_part=False
    drops the mu term."""
    flux = np.zeros(mesh.num_nodes)
    for t in range(mesh.num_triangles):
        g = oracle_gradient(mesh, t, u)
        gn = math.hypot(g[0], g[1])
        if gn == 0.0:
            continue
        w = gn ** (data.p - 2)
        if q_part:
            w += float(data.mu(*oracle_centroid(mesh, t))) * gn ** (data.q - 2)
        for v, gv in zip(oracle_triangles(mesh)[t], oracle_hat_gradients(mesh, t)):
            flux[v] += oracle_area(mesh, t) * w * float(g @ gv)
    return flux


def oracle_hat_grad_p(mesh, p):
    """sum_t |T| |grad phi_i|^p over the triangles at each node, loop by loop."""
    out = np.zeros(mesh.num_nodes)
    for t in range(mesh.num_triangles):
        for v, gv in zip(oracle_triangles(mesh)[t], oracle_hat_gradients(mesh, t)):
            out[v] += oracle_area(mesh, t) * math.hypot(gv[0], gv[1]) ** p
    return out


def oracle_luxemburg(terms):
    """Root of sum(c tau^-r) = 1 by bisection for (c, r) terms, c >= 0; 0 when
    every c is 0."""
    if not any(c > 0 for c, _ in terms):
        return 0.0
    f = lambda tau: sum(c * tau**-r for c, r in terms) - 1.0
    lo = hi = 1.0
    while f(lo) < 0:
        lo /= 2.0
    while f(hi) > 0:
        hi *= 2.0
    return oracle_bisect(f, lo, hi)


def oracle_bisect(f, lo, hi, iters=200):
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0, (lo, hi, flo, fhi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
