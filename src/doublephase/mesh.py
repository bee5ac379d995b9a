"""Uniform triangulations of axis-aligned rectangles with lumped quadrature.

Each grid cell is split along its lower-left-to-upper-right diagonal.  All
zeroth-order integrands use the lumped vertex rule (node weight = one third
of the area of the triangles touching the node; exact for piecewise-linear
integrands), gradient integrands use the one-point centroid rule, and
boundary integrals use the lumped edge rule (half the length of the
touching boundary edges).

The mesh is its node grid: no triangle or edge list exists.  A per-triangle
array is the ravel of an (ny, nx, 2) array over the cells, the half below
the diagonal of cell (iy, ix) first and the half above it second, and every
per-triangle quantity is computed from the grid's 1-D coordinate vectors:
the lumped weights in ``build_rect_mesh`` and the centroid rule's areas and
points in ``centroid_rule``.

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
All three kernels read (hx/hy)^2 from ``Mesh.aspect_sq``, which
``build_rect_mesh`` requires to be a finite float.

On these meshes the P1 stiffness matrix is exactly the separable Neumann
5-point matrix ``Ly (x) Mx + My (x) Lx`` (1-D stiffness L, 1-D trapezoid mass
M, x fastest), so the H^1 Riesz map (K + c My (x) Mx)^-1 is diagonal in the
1-D cosine bases of the two axes (``riesz_map``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh", "build_rect_mesh", "centroid_rule", "grid_flux", "grid_grad_sq", "hat_grad_power_sum", "riesz_map"
]

RIESZ_SHIFT = 10.0  # mass weight of the H^1 metric K + c M, times the area: c = 10/|Omega|


@dataclass(frozen=True)
class Mesh:
    """A rectangle's node grid with its lumped quadrature weights.

    Nodes are numbered row-major (x fastest) over the (ny+1, nx+1) grid.
    The 2*nx*ny triangles are implicit: triangles 2k and 2k+1
    (k = iy*nx + ix) are the halves of cell (iy, ix) below and above its
    diagonal, so a per-triangle array is the ravel of an (ny, nx, 2) array
    over the cells.  ``grid_grad_sq`` fills such an array from the
    differences of the node grid, ``grid_flux`` maps one back onto it, and
    ``centroid_rule`` gives the triangles' areas and centroids.
    """

    rect: tuple
    nx: int                      # cells along x
    ny: int                      # cells along y
    nodes: np.ndarray            # (M, 2) coordinates, row-major node order
    node_weight: np.ndarray      # (M,) lumped interior quadrature weights
    boundary_nodes: np.ndarray   # (B,) indices of nodes on the rectangle boundary
    boundary_weight: np.ndarray  # (M,) lumped boundary weights, zero off the boundary

    @property
    def num_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def num_triangles(self) -> int:
        return 2 * self.nx * self.ny

    @property
    def spacing(self) -> tuple:
        """(hx, hy): the cell width and height."""
        x0, y0, x1, y1 = self.rect
        return (x1 - x0) / self.nx, (y1 - y0) / self.ny

    @property
    def aspect_sq(self) -> float:
        """(hx/hy)^2: the factor of a squared y-difference in hx^2 |grad u|^2."""
        hx, hy = self.spacing
        return (hx / hy) ** 2

    @property
    def area(self) -> float:
        x0, y0, x1, y1 = self.rect
        return (x1 - x0) * (y1 - y0)


def _cell_areas(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """(ny, nx) area of either half of each cell, 0.5 dy_j dx_i."""
    return (0.5 * np.diff(ys))[:, None] * np.diff(xs)


def build_rect_mesh(nx: int, ny: int, rect=(0.0, 0.0, 1.0, 1.0)) -> Mesh:
    """Grid [x0,x1] x [y0,y1] into nx*ny cells of 2 triangles each.

    (nx+1)(ny+1) nodes in row-major order (x fastest); triangle numbering
    as in ``Mesh``.  The lumped weights are summed from the 1-D coordinate
    vectors: each node adds one third of the area of each touching triangle,
    and each boundary node half the length of each touching boundary edge.
    Rejects nonpositive subdivision counts, degenerate rectangles and cells
    so wide or flat that ``Mesh.aspect_sq`` leaves the float range.
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

    third = _cell_areas(xs, ys)
    if np.any(third <= 0):
        raise ValueError("mesh construction produced a nonpositive triangle area")
    third /= 3.0
    # each node sums its triangles in triangle order: both halves of the cell
    # whose upper-right corner it is, the upper half of the cell whose
    # upper-left corner it is, the lower half of the cell whose lower-right
    # corner it is, and both halves of the cell whose lower-left corner it is
    node_weight = np.zeros((ny + 1, nx + 1))
    node_weight[1:, 1:] += third
    node_weight[1:, 1:] += third
    node_weight[1:, :-1] += third
    node_weight[:-1, 1:] += third
    node_weight[:-1, :-1] += third
    node_weight[:-1, :-1] += third

    # edge order: the x-edges of the bottom and top rows before the y-edges
    # of the left and right columns, each node adding the edge before it first
    half_x = 0.5 * np.diff(xs)
    half_y = 0.5 * np.diff(ys)[:, None]
    rows, cols = [0, ny], [0, nx]
    boundary_weight = np.zeros((ny + 1, nx + 1))
    boundary_weight[rows, 1:] += half_x
    boundary_weight[rows, :-1] += half_x
    boundary_weight[1:, cols] += half_y
    boundary_weight[:-1, cols] += half_y
    boundary_weight = boundary_weight.reshape(-1)

    mesh = Mesh(
        rect=(x0, y0, x1, y1),
        nx=nx,
        ny=ny,
        nodes=nodes,
        node_weight=node_weight.reshape(-1),
        boundary_nodes=np.flatnonzero(boundary_weight > 0),
        boundary_weight=boundary_weight,
    )
    try:
        finite = np.isfinite(mesh.aspect_sq)  # every gradient kernel reads it
    except OverflowError:  # a finite hx/hy whose square is not; an infinite one squares silently
        finite = False
    if not finite:
        hx, hy = mesh.spacing
        raise ValueError(
            f"cell aspect hx/hy={hx / hy!r} (hx={hx!r}, hy={hy!r}): its square leaves the float range"
        ) from None
    return mesh


def centroid_rule(mesh: Mesh) -> tuple:
    """(areas (T,), centroids (T, 2)) of the triangles, in the per-triangle
    layout of ``Mesh``: the points and weights of the one-point centroid
    rule.  A centroid is the corner sum (ll + lr + ur)/3 below the diagonal
    and (ll + ur + ul)/3 above it."""
    xs, ys = mesh.nodes[: mesh.nx + 1, 0], mesh.nodes[:: mesh.nx + 1, 1]
    centroids = np.empty((mesh.ny, mesh.nx, 2, 2))
    xl, xr, yb, yt = xs[:-1], xs[1:], ys[:-1, None], ys[1:, None]
    centroids[:, :, 0, 0] = (xl + xr + xr) / 3.0
    centroids[:, :, 1, 0] = (xl + xr + xl) / 3.0
    centroids[:, :, 0, 1] = (yb + yb + yt) / 3.0
    centroids[:, :, 1, 1] = (yb + yt + yt) / 3.0
    return np.repeat(_cell_areas(xs, ys), 2), centroids.reshape(-1, 2)


def grid_grad_sq(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    """hx^2 |grad u|^2 on every triangle of a ``build_rect_mesh`` mesh,
    shape (..., T) for u of shape (..., M), from the node-grid stencil: the
    squared x-difference plus (hx/hy)^2 times the squared y-difference along
    the triangle's two axis-parallel edges (see the module docstring)."""
    lead = u.shape[:-1]
    grid = u.reshape(lead + (mesh.ny + 1, mesh.nx + 1))
    dx = np.subtract(grid[..., 1:], grid[..., :-1])
    dx *= dx
    dy = np.subtract(grid[..., 1:, :], grid[..., :-1, :])
    dy *= dy
    dy *= mesh.aspect_sq
    s = np.empty(lead + (mesh.ny, mesh.nx, 2))
    np.add(dx[..., :-1, :], dy[..., 1:], out=s[..., 0])   # below the diagonal
    np.add(dx[..., 1:, :], dy[..., :-1], out=s[..., 1])   # above it
    return s.reshape(lead + (-1,))


def grid_flux(mesh: Mesh, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The u-gradient of (1/2) sum_t w_t s_t(u), with s = ``grid_grad_sq`` and
    the per-triangle weight w (..., T) held fixed, shape (..., M).

    It is the weighted 5-point form D^T (W D u) over the grid differences D:
    an axis edge weighs the sum of w over the one or two triangles using it,
    times (hx/hy)^2 on a y-edge.  As s_t = hx^2 |G_t u|^2 for the P1
    gradient G, ``grid_flux(mesh, u, |T| c / hx^2)`` is the P1 flux
    G^T(|T| c G u) of a per-triangle coefficient c.
    """
    ny, nx = mesh.ny, mesh.nx
    k = nx + 1
    # the triangles using each axis edge, with w padded by one cell all round
    # so that a boundary edge's missing half weighs 0:
    #   x-edge (iy, ix): lower half of cell (iy, ix), upper half of cell (iy-1, ix);
    #   y-edge (iy, ix): lower half of cell (iy, ix-1), upper half of cell (iy, ix).
    # wx spans the (ny+1, nx+1) node grid, its last column (no x-edge) 0.
    lead = w.shape[:-1]
    wp = np.zeros(lead + (ny + 2, nx + 2, 2))
    wp[..., 1:-1, 1:-1, :] = w.reshape(lead + (ny, nx, 2))
    wx = np.add(wp[..., 1:, 1:, 0], wp[..., :-1, 1:, 1]).reshape(lead + (-1,))[..., :-1]
    wy = np.add(wp[..., 1:-1, :-1, 0], wp[..., 1:-1, 1:, 1]).reshape(lead + (-1,))
    wy *= mesh.aspect_sq
    # edge fluxes on the flat node vector: node i to i+1 along x (the pairs
    # across rows weigh 0) and node i to i+k along y
    fx = np.subtract(u[..., 1:], u[..., :-1])
    fx *= wx
    fy = np.subtract(u[..., k:], u[..., :-k])
    fy *= wy
    out = np.zeros(u.shape)
    out[..., 1:] += fx
    out[..., :-1] -= fx
    out[..., k:] += fy
    out[..., :-k] -= fy
    return out


def hat_grad_power_sum(mesh: Mesh, w: np.ndarray, r: float) -> np.ndarray:
    """sum_t w_t (hx^2 |grad phi_i|^2)^(r/2) over the triangles t at each node
    i, for the nodal hat functions phi_i, shape (M,).

    On a triangle a corner's hat changes only along the axis edges through
    that corner, so hx^2 |grad phi|^2 is 1 at the corner on the x-edge only,
    (hx/hy)^2 at the corner on the y-edge only and 1 + (hx/hy)^2 at the
    right angle, which is on both.
    """
    ratio = mesh.aspect_sq
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


def riesz_map(mesh: Mesh):
    """The map g -> P^-1 g for P = K + c My (x) Mx, c = RIESZ_SHIFT / |Omega|,
    on a rectangle mesh from ``build_rect_mesh``: K is the P1 stiffness and
    My (x) Mx the separable trapezoid mass (it differs from the lumped node
    weights only at the 4 corners).  P is diagonalized by the tensor cosine
    basis, so each call is four dense (n+1)-square products per row of
    g (..., M).
    """
    shift = RIESZ_SHIFT / mesh.area
    hx, hy = mesh.spacing
    cx, lx, mx = _cosine_basis(mesh.nx, hx)
    cy, ly, my = _cosine_basis(mesh.ny, hy)
    scale = 1.0 / ((ly[:, None] + lx[None, :] + shift) * np.outer(my, mx))
    shape = (mesh.ny + 1, mesh.nx + 1)

    def apply(g: np.ndarray) -> np.ndarray:
        return (cy @ ((cy @ g.reshape(g.shape[:-1] + shape) @ cx) * scale) @ cx).reshape(g.shape)

    return apply
