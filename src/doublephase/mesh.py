"""Uniform triangulations of axis-aligned rectangles with lumped quadrature.

Each grid cell is split along its lower-left-to-upper-right diagonal.  All
zeroth-order integrands use the lumped vertex rule (node weight = one third
of the area of the triangles touching the node; exact for piecewise-linear
integrands), gradient integrands use the one-point centroid rule, and
boundary integrals use the lumped edge rule (half the length of the
touching boundary edges).

On these meshes the P1 stiffness matrix is exactly the separable Neumann
5-point matrix ``Ly (x) Mx + My (x) Lx`` (1-D stiffness L, 1-D trapezoid mass
M, x fastest), so the H^1 Riesz map (K + c My (x) Mx)^-1 is diagonal in the
1-D cosine bases of the two axes (``riesz_map``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh", "build_rect_mesh", "corner_sum", "gather_gradients", "gradient_on_triangle",
    "gradients", "riesz_map", "scatter_flux",
]


@dataclass(frozen=True)
class Mesh:
    """A triangulation with its quadrature data.

    Per-triangle arrays used by the gradient kernel are stored T-innermost:
    ``triangles`` is the (T, 3) transposed view of a C-contiguous (3, T)
    corner array, so ``triangles.T`` is that array without a copy, and
    ``basis_grads[d, v, t]`` is component d of the gradient of the basis
    function of corner v on triangle t, shape (2, 3, T).  With them the P1
    gradient operator G (M nodal values -> (2, T) triangle gradients) and
    its adjoint are ``gather_gradients`` and ``scatter_flux``.
    """

    nodes: np.ndarray            # (M, 2) coordinates, row-major node order
    triangles: np.ndarray        # (T, 3) vertex indices, counterclockwise; view of a (3, T) array
    tri_area: np.ndarray         # (T,)
    basis_grads: np.ndarray      # (2, 3, T) constant gradient of each corner's basis function
    centroids: np.ndarray        # (T, 2)
    node_weight: np.ndarray      # (M,) lumped interior quadrature weights
    boundary_nodes: np.ndarray   # (B,) indices of nodes on the rectangle boundary
    boundary_weight: np.ndarray  # (M,) lumped boundary weights, zero off the boundary
    boundary_edges: np.ndarray   # (E, 2) node index pairs of boundary edges
    rect: tuple
    nx: int                      # cells along x
    ny: int                      # cells along y

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def area(self) -> float:
        x0, y0, x1, y1 = self.rect
        return (x1 - x0) * (y1 - y0)

    @property
    def perimeter(self) -> float:
        x0, y0, x1, y1 = self.rect
        return 2.0 * ((x1 - x0) + (y1 - y0))


def build_rect_mesh(nx: int, ny: int, rect=(0.0, 0.0, 1.0, 1.0)) -> Mesh:
    """Triangulate [x0,x1] x [y0,y1] into 2*nx*ny triangles.

    (nx+1)(ny+1) nodes in row-major order (x fastest); deterministic
    triangle numbering: cell (ix, iy) holds triangles 2k and 2k+1 with
    k = iy*nx + ix, below and above its lower-left-to-upper-right diagonal.
    Rejects nonpositive subdivision counts and degenerate rectangles.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"subdivision counts must be >= 1, got nx={nx}, ny={ny}")
    x0, y0, x1, y1 = (float(v) for v in rect)
    if not (x1 > x0 and y1 > y0):
        raise ValueError(f"degenerate rectangle {rect}")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(xs, ys)            # shape (ny+1, nx+1); row-major => x fastest
    nodes = np.column_stack([xx.ravel(), yy.ravel()])
    num_nodes = len(nodes)

    ll = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()  # lower-left node of each cell
    lr, ul, ur = ll + 1, ll + nx + 1, ll + nx + 2
    corners = np.empty((3, ll.size, 2), dtype=np.intp)
    corners[:, :, 0] = ll, lr, ur           # below the ll-ur diagonal
    corners[:, :, 1] = ll, ur, ul           # above it
    corners = corners.reshape(3, -1)
    triangles = corners.T

    X, Y = nodes[:, 0].take(corners), nodes[:, 1].take(corners)  # (3, T) corner coordinates
    det = (X[1] - X[0]) * (Y[2] - Y[0]) - (X[2] - X[0]) * (Y[1] - Y[0])
    tri_area = 0.5 * det
    if np.any(tri_area <= 0):
        raise ValueError("mesh construction produced a nonpositive triangle area")
    centroids = np.column_stack([(X[0] + X[1] + X[2]) / 3.0, (Y[0] + Y[1] + Y[2]) / 3.0])

    # grad of the basis at corner v: rotate the opposite edge (j -> k) by 90 degrees / (2A)
    j, k = [1, 2, 0], [2, 0, 1]
    basis_grads = np.stack([(Y[j] - Y[k]) / det, (X[k] - X[j]) / det])

    # triangle-major order: each node sums its triangles in index order
    node_weight = np.bincount(
        triangles.ravel(), weights=np.repeat(tri_area / 3.0, 3), minlength=num_nodes
    )

    ix, iy = np.arange(nx), np.arange(ny)
    bottom = np.column_stack([ix, ix + 1])
    left = np.column_stack([iy, iy + 1]) * (nx + 1)
    boundary_edges = np.concatenate([
        np.stack([bottom, bottom + ny * (nx + 1)], axis=1).reshape(-1, 2),  # bottom, top
        np.stack([left, left + nx], axis=1).reshape(-1, 2),                 # left, right
    ])
    lengths = np.linalg.norm(nodes[boundary_edges[:, 0]] - nodes[boundary_edges[:, 1]], axis=1)
    boundary_weight = np.bincount(
        boundary_edges.ravel(), weights=np.repeat(lengths / 2.0, 2), minlength=num_nodes
    )
    boundary_nodes = np.flatnonzero(boundary_weight > 0)

    return Mesh(
        nodes=nodes,
        triangles=triangles,
        tri_area=tri_area,
        basis_grads=basis_grads,
        centroids=centroids,
        node_weight=node_weight,
        boundary_nodes=boundary_nodes,
        boundary_weight=boundary_weight,
        boundary_edges=boundary_edges,
        rect=(x0, y0, x1, y1),
        nx=nx,
        ny=ny,
    )


def gather_gradients(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """G u: the constant gradient of the P1 interpolant of u on every
    triangle, shape (2, T)."""
    vals = np.asarray(u, dtype=float).take(mesh.triangles.T)   # (3, T)
    return np.einsum("dvt,vt->dt", mesh.basis_grads, vals)


def corner_sum(mesh: Mesh, vals: np.ndarray) -> np.ndarray:
    """Sum per-corner values, shape (3, T), into their nodes, shape (M,)."""
    return np.bincount(mesh.triangles.T.ravel(), weights=vals.ravel(), minlength=mesh.num_nodes)


def scatter_flux(mesh: Mesh, c: np.ndarray) -> np.ndarray:
    """G^T c for a per-triangle field c of shape (2, T): the nodal vector
    sum_t c_t . grad(phi_i)|_t (the adjoint of ``gather_gradients``)."""
    return corner_sum(mesh, np.einsum("dvt,dt->vt", mesh.basis_grads, c))


def gradients(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """Per-triangle constant gradient of the piecewise-linear interpolant, shape (T, 2)."""
    return gather_gradients(mesh, u).T


def gradient_on_triangle(mesh: Mesh, tri: int, u: np.ndarray) -> tuple[float, float]:
    """Gradient of the linear interpolant of u on one triangle."""
    if not 0 <= tri < mesh.num_triangles:
        raise IndexError(f"triangle index {tri} out of range")
    vals = np.asarray(u, dtype=float)[mesh.triangles[tri]]
    g = mesh.basis_grads[:, :, tri] @ vals
    return float(g[0]), float(g[1])


def _cosine_basis(n: int, h: float) -> tuple:
    """1-D Neumann eigenbasis on n cells of width h: the cosine matrix
    C[j, k] = cos(pi j k / n), the eigenvalues (2/h^2)(1 - cos(pi k / n)) of
    L v = lam M v, and the M-norms h N_k of the columns (N_k = n at k = 0, n,
    n/2 otherwise)."""
    theta = np.pi * np.arange(n + 1) / n
    cos = np.cos(np.outer(np.arange(n + 1), theta))
    lam = (2.0 / h**2) * (1.0 - np.cos(theta))
    norms = np.full(n + 1, 0.5 * n * h)
    norms[[0, n]] = n * h
    return cos, lam, norms


def riesz_map(mesh: Mesh, shift: float):
    """The map g -> P^-1 g for P = K + shift * My (x) Mx on a rectangle mesh
    from ``build_rect_mesh``: K is the P1 stiffness and My (x) Mx the
    separable trapezoid mass (it differs from the lumped node weights only at
    the 4 corners).  P is diagonalized by the tensor cosine basis, so each
    call is four dense (n+1)-square products; shift must be positive.
    """
    if not shift > 0.0:
        raise ValueError(f"the Riesz map needs a positive shift, got {shift!r}")
    x0, y0, x1, y1 = mesh.rect
    cx, lx, mx = _cosine_basis(mesh.nx, (x1 - x0) / mesh.nx)
    cy, ly, my = _cosine_basis(mesh.ny, (y1 - y0) / mesh.ny)
    scale = 1.0 / ((ly[:, None] + lx[None, :] + shift) * np.outer(my, mx))
    shape = (mesh.ny + 1, mesh.nx + 1)

    def apply(g: np.ndarray) -> np.ndarray:
        return (cy @ ((cy @ g.reshape(shape) @ cx) * scale) @ cx).ravel()

    return apply
