"""Uniform triangulations of axis-aligned rectangles with lumped quadrature.

Each grid cell is split along its lower-left-to-upper-right diagonal.  All
zeroth-order integrands use the lumped vertex rule (node weight = one third
of the area of the triangles touching the node; exact for piecewise-linear
integrands), gradient integrands use the one-point centroid rule, and
boundary integrals use the lumped edge rule (half the length of the
touching boundary edges).

Every gradient term works on the node grid U = u.reshape(ny+1, nx+1).  The
P1 gradient of a triangle is one x-difference and one y-difference of U,
along its two axis-parallel edges: the triangle below the diagonal of cell
(iy, ix) has gradient (dx[iy, ix] / hx, dy[iy, ix+1] / hy), the one above it
(dx[iy+1, ix] / hx, dy[iy, ix] / hy), with dx and dy the differences of U
along x and y.  ``grid_grad_sq`` evaluates hx^2 |grad u|^2 from this
stencil.  Its adjoint, ``grid_flux``, assembles the nodal vector of a
per-triangle flux weight as a weighted 5-point form: each axis edge carries
the summed weight of the (one or two) triangles that use it, and the
diagonal edges carry no flux.  ``hat_grad_power_sum`` gives the gradient
integrals of the nodal hat functions, whose squared gradients take only the
values 1, (hx/hy)^2 and 1 + (hx/hy)^2 (in units of hx^-2) on a triangle.

On these meshes the P1 stiffness matrix is exactly the separable Neumann
5-point matrix ``Ly (x) Mx + My (x) Lx`` (1-D stiffness L, 1-D trapezoid mass
M, x fastest), so the H^1 Riesz map (K + c My (x) Mx)^-1 is diagonal in the
1-D cosine bases of the two axes (``riesz_map``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Mesh", "build_rect_mesh", "grid_flux", "grid_grad_sq", "hat_grad_power_sum", "riesz_map"]


@dataclass(frozen=True)
class Mesh:
    """A triangulation with its quadrature data.

    Triangles 2k and 2k+1 (k = iy*nx + ix) are the halves of cell (iy, ix)
    below and above its diagonal, so a per-triangle array is the ravel of an
    (ny, nx, 2) array over the cells.  The gradient terms never index
    ``triangles``: ``grid_grad_sq`` fills a per-triangle array from the
    differences of the (ny+1, nx+1) node grid, and ``grid_flux`` maps a
    per-triangle weight back onto that grid through the same edges.
    """

    nodes: np.ndarray            # (M, 2) coordinates, row-major node order
    triangles: np.ndarray        # (T, 3) vertex indices, counterclockwise
    tri_area: np.ndarray         # (T,)
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
    def spacing(self) -> tuple:
        """(hx, hy): the cell width and height."""
        x0, y0, x1, y1 = self.rect
        return (x1 - x0) / self.nx, (y1 - y0) / self.ny

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
    triangles = np.empty((ll.size, 2, 3), dtype=np.intp)
    triangles[:, 0] = np.column_stack([ll, lr, ur])   # below the ll-ur diagonal
    triangles[:, 1] = np.column_stack([ll, ur, ul])   # above it
    triangles = triangles.reshape(-1, 3)

    X, Y = nodes[:, 0].take(triangles.T), nodes[:, 1].take(triangles.T)  # (3, T) corner coordinates
    tri_area = 0.5 * ((X[1] - X[0]) * (Y[2] - Y[0]) - (X[2] - X[0]) * (Y[1] - Y[0]))
    if np.any(tri_area <= 0):
        raise ValueError("mesh construction produced a nonpositive triangle area")
    centroids = np.column_stack([(X[0] + X[1] + X[2]) / 3.0, (Y[0] + Y[1] + Y[2]) / 3.0])

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
        centroids=centroids,
        node_weight=node_weight,
        boundary_nodes=boundary_nodes,
        boundary_weight=boundary_weight,
        boundary_edges=boundary_edges,
        rect=(x0, y0, x1, y1),
        nx=nx,
        ny=ny,
    )


def grid_grad_sq(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """hx^2 |grad u|^2 on every triangle of a ``build_rect_mesh`` mesh,
    shape (T,), from the node-grid stencil: the squared x-difference plus
    (hx/hy)^2 times the squared y-difference along the triangle's two
    axis-parallel edges (see the module docstring)."""
    hx, hy = mesh.spacing
    grid = u.reshape(mesh.ny + 1, mesh.nx + 1)
    dx = np.subtract(grid[:, 1:], grid[:, :-1])
    dx *= dx
    dy = np.subtract(grid[1:], grid[:-1])
    dy *= dy
    dy *= (hx / hy) ** 2
    s = np.empty((mesh.ny, mesh.nx, 2))
    np.add(dx[:-1], dy[:, 1:], out=s[:, :, 0])   # below the diagonal
    np.add(dx[1:], dy[:, :-1], out=s[:, :, 1])   # above it
    return s.reshape(-1)


def grid_flux(mesh: Mesh, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The u-gradient of (1/2) sum_t w_t s_t(u), with s = ``grid_grad_sq`` and
    the per-triangle weight w (T,) held fixed, shape (M,).

    It is the weighted 5-point form D^T (W D u) over the grid differences D:
    an axis edge weighs the sum of w over the one or two triangles using it,
    times (hx/hy)^2 on a y-edge.  As s_t = hx^2 |G_t u|^2 for the P1
    gradient G, ``grid_flux(mesh, u, |T| c / hx^2)`` is the P1 flux
    G^T(|T| c G u) of a per-triangle coefficient c.
    """
    hx, hy = mesh.spacing
    ny, nx = mesh.ny, mesh.nx
    k = nx + 1
    # the triangles using each axis edge, with w padded by one cell all round
    # so that a boundary edge's missing half weighs 0:
    #   x-edge (iy, ix): lower half of cell (iy, ix), upper half of cell (iy-1, ix);
    #   y-edge (iy, ix): lower half of cell (iy, ix-1), upper half of cell (iy, ix).
    # wx spans the (ny+1, nx+1) node grid, its last column (no x-edge) 0.
    wp = np.zeros((ny + 2, nx + 2, 2))
    wp[1:-1, 1:-1] = w.reshape(ny, nx, 2)
    wx = np.add(wp[1:, 1:, 0], wp[:-1, 1:, 1]).reshape(-1)[:-1]
    wy = np.add(wp[1:-1, :-1, 0], wp[1:-1, 1:, 1]).reshape(-1)
    wy *= (hx / hy) ** 2
    # edge fluxes on the flat node vector: node i to i+1 along x (the pairs
    # across rows weigh 0) and node i to i+k along y
    fx = np.subtract(u[1:], u[:-1])
    fx *= wx
    fy = np.subtract(u[k:], u[:-k])
    fy *= wy
    out = np.zeros(u.size)
    out[1:] += fx
    out[:-1] -= fx
    out[k:] += fy
    out[:-k] -= fy
    return out


def hat_grad_power_sum(mesh: Mesh, w: np.ndarray, r: float) -> np.ndarray:
    """sum_t w_t (hx^2 |grad phi_i|^2)^(r/2) over the triangles t at each node
    i, for the nodal hat functions phi_i, shape (M,).

    On a triangle a corner's hat changes only along the axis edges through
    that corner, so hx^2 |grad phi|^2 is 1 at the corner on the x-edge only,
    (hx/hy)^2 at the corner on the y-edge only and 1 + (hx/hy)^2 at the
    right angle, which is on both.
    """
    hx, hy = mesh.spacing
    ratio = (hx / hy) ** 2
    c_y, c_xy = ratio ** (0.5 * r), (1.0 + ratio) ** (0.5 * r)
    w = w.reshape(mesh.ny, mesh.nx, 2)
    below, above = w[:, :, 0], w[:, :, 1]
    out = np.zeros((mesh.ny + 1, mesh.nx + 1))
    out[:-1, :-1] += below + c_y * above      # ll: x-edge only below, y-edge only above
    out[:-1, 1:] += c_xy * below              # lr: the right angle of the lower half
    out[1:, 1:] += c_y * below + above        # ur: y-edge only below, x-edge only above
    out[1:, :-1] += c_xy * above              # ul: the right angle of the upper half
    return out.reshape(-1)


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
    hx, hy = mesh.spacing
    cx, lx, mx = _cosine_basis(mesh.nx, hx)
    cy, ly, my = _cosine_basis(mesh.ny, hy)
    scale = 1.0 / ((ly[:, None] + lx[None, :] + shift) * np.outer(my, mx))
    shape = (mesh.ny + 1, mesh.nx + 1)

    def apply(g: np.ndarray) -> np.ndarray:
        return (cy @ ((cy @ g.reshape(shape) @ cx) * scale) @ cx).ravel()

    return apply
