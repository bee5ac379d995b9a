"""Function-space layer: modulars, weighted seminorms and Luxemburg norms.

The working norm is the Luxemburg norm of the modular

    rho(u) = integral(|grad u|^p + mu |grad u|^q)
           + integral(alpha |u|^p) + boundary integral(beta |u|^{p_*}),

computed by scalar root finding (safeguarded Newton) on tau -> rho(u/tau),
which is strictly decreasing for u != 0.  Because every modular term is a
pure power of tau, rho(u/tau) is assembled once per function and then
evaluated from six scalars.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mesh import Mesh, gradients
from .problem import ProblemData
from .rootfind import Map, expand_bracket, hybrid_root, power_sum

__all__ = [
    "FieldSamples",
    "ModularBreakdown",
    "sample_fields",
    "modular_breakdown",
    "modular_H",
    "grad_modular_H",
    "value_modular_H",
    "modular_rho",
    "luxemburg_norm",
    "power_modular",
    "norm_custom",
    "norm_1p",
    "norm_circ",
    "norm_star",
    "grad_norm_H",
    "seminorm_interior",
    "seminorm_boundary",
    "lebesgue_norm",
]

LUX_TOL = 1e-12  # residual |rho(u/tau) - 1| at the accepted root


@dataclass(frozen=True)
class FieldSamples:
    """Coefficient fields evaluated at the quadrature points of a mesh."""

    alpha_node: np.ndarray   # (M,)
    zeta_node: np.ndarray    # (M,)
    beta_node: np.ndarray    # (M,), zero off the boundary
    mu_centroid: np.ndarray  # (T,)


def sample_fields(mesh: Mesh, data: ProblemData) -> FieldSamples:
    """Evaluate alpha, zeta at nodes, beta at boundary nodes, mu at centroids."""
    xn, yn = mesh.nodes[:, 0], mesh.nodes[:, 1]
    alpha_node = np.broadcast_to(np.asarray(data.alpha(xn, yn), dtype=float), xn.shape).copy()
    zeta_node = np.broadcast_to(np.asarray(data.zeta(xn, yn), dtype=float), xn.shape).copy()
    beta_node = np.zeros_like(xn)
    b = mesh.boundary_nodes
    beta_node[b] = np.broadcast_to(
        np.asarray(data.beta(mesh.nodes[b, 0], mesh.nodes[b, 1]), dtype=float), b.shape
    )
    xc, yc = mesh.centroids[:, 0], mesh.centroids[:, 1]
    mu_centroid = np.broadcast_to(np.asarray(data.mu(xc, yc), dtype=float), xc.shape).copy()
    return FieldSamples(alpha_node, zeta_node, beta_node, mu_centroid)


@dataclass(frozen=True)
class ModularBreakdown:
    """The six discrete integrals every functional in the model is built from."""

    grad_p: float          # integral |grad u|^p
    grad_q_mu: float       # integral mu |grad u|^q
    mass_p_alpha: float    # integral alpha |u|^p
    bdry_pstar_beta: float  # boundary integral beta |u|^{p_*}
    zeta_sing: float       # integral zeta |u|^{1-kappa}
    mass_q1: float         # integral |u|^{q1}


def modular_breakdown(
    mesh: Mesh, data: ProblemData, u: np.ndarray, fields: Optional[FieldSamples] = None
) -> ModularBreakdown:
    if fields is None:
        fields = sample_fields(mesh, data)
    u = np.asarray(u, dtype=float)
    g = gradients(mesh, u)
    gn = np.hypot(g[:, 0], g[:, 1])
    grad_p = float(mesh.tri_area @ gn**data.p)
    grad_q_mu = float(mesh.tri_area @ (fields.mu_centroid * gn**data.q))
    absu = np.abs(u)
    m = mesh.node_weight
    mass_p_alpha = float(m @ (fields.alpha_node * absu**data.p))
    zeta_sing = float(m @ (fields.zeta_node * absu ** (1.0 - data.kappa)))
    mass_q1 = float(m @ absu**data.q1)
    s = mesh.boundary_weight
    bdry = float(s @ (fields.beta_node * absu**data.p_lower_star))
    return ModularBreakdown(grad_p, grad_q_mu, mass_p_alpha, bdry, zeta_sing, mass_q1)


def modular_H(weights: np.ndarray, magnitudes: np.ndarray, mu_values: np.ndarray, p: float, q: float) -> float:
    """Generalized-power modular: sum of w * (|f|^p + mu |f|^q) under any quadrature rule."""
    f = np.abs(np.asarray(magnitudes, dtype=float))
    return float(np.asarray(weights) @ (f**p + np.asarray(mu_values) * f**q))


def grad_modular_H(mesh: Mesh, data: ProblemData, u, fields: Optional[FieldSamples] = None) -> float:
    """Gradient modular: centroid rule on |grad u| with mu at centroids."""
    if fields is None:
        fields = sample_fields(mesh, data)
    g = gradients(mesh, np.asarray(u, dtype=float))
    gn = np.hypot(g[:, 0], g[:, 1])
    return modular_H(mesh.tri_area, gn, fields.mu_centroid, data.p, data.q)


def value_modular_H(mesh: Mesh, data: ProblemData, u, fields: Optional[FieldSamples] = None) -> float:
    """Value modular: lumped vertex rule on |u| with mu at nodes."""
    xn, yn = mesh.nodes[:, 0], mesh.nodes[:, 1]
    mu_node = np.broadcast_to(np.asarray(data.mu(xn, yn), dtype=float), xn.shape)
    return modular_H(mesh.node_weight, np.asarray(u, dtype=float), mu_node, data.p, data.q)


def modular_rho(mesh: Mesh, data: ProblemData, u, fields: Optional[FieldSamples] = None) -> float:
    """The norm-defining modular rho(u)."""
    bd = modular_breakdown(mesh, data, u, fields)
    return bd.grad_p + bd.grad_q_mu + bd.mass_p_alpha + bd.bdry_pstar_beta


def power_modular(terms) -> Map:
    """tau -> (sum(coef * tau^(-power)), its tau-derivative) for nonzero
    coefficients; the scaled modular of any positively homogeneous term list."""
    return power_sum([(c, -r) for c, r in terms])


def luxemburg_norm(modular_eval: Map, tol: float = LUX_TOL, start: Optional[float] = None) -> float:
    """inf{tau > 0 : rho(u/tau) <= 1} for a strictly decreasing modular map.

    ``modular_eval(tau)`` returns (rho(u/tau), its tau-derivative).  The
    root is found by the safeguarded Newton iteration of ``hybrid_root``.
    Without a warm ``start`` the unit level is first bracketed by geometric
    expansion from tau = 1, which also checks that the map crosses it; with
    one (say the norm of a nearby function), Newton starts there on all of
    (0, inf), where a power-sum modular falls from inf to 0.  Returns 0 when
    the modular vanishes identically (u = 0); raises BracketError if no
    sign change is found.
    """
    def f(tau):
        rho, slope = modular_eval(tau)
        return rho - 1.0, slope

    if modular_eval(1.0)[0] == 0.0:
        return 0.0
    if start is None:
        lo, hi, flo, fhi = expand_bracket(f, start=1.0)
        if lo == hi:
            return lo
    else:
        lo, hi, flo, fhi = 0.0, math.inf, math.inf, -1.0
    return hybrid_root(f, lo, hi, flo, fhi, abs_tol=tol, start=start)


def _rho_terms(bd: ModularBreakdown, data: ProblemData):
    return [
        (bd.grad_p + bd.mass_p_alpha, data.p),
        (bd.grad_q_mu, data.q),
        (bd.bdry_pstar_beta, data.p_lower_star),
    ]


def norm_custom(mesh: Mesh, data: ProblemData, u, fields: Optional[FieldSamples] = None) -> float:
    """The Luxemburg norm associated with rho (the working norm of the model)."""
    bd = modular_breakdown(mesh, data, u, fields)
    return luxemburg_norm(power_modular(_rho_terms(bd, data)))


def norm_1p(mesh: Mesh, data: ProblemData, u, fields: Optional[FieldSamples] = None) -> float:
    """(|grad u|_p^p + integral alpha |u|^p)^(1/p)."""
    bd = modular_breakdown(mesh, data, u, fields)
    return (bd.grad_p + bd.mass_p_alpha) ** (1.0 / data.p)


def seminorm_interior(mesh: Mesh, theta_values: np.ndarray, r: float, u) -> float:
    """(sum of m_i theta_i |u_i|^r)^(1/r); returns 0 for theta identically 0."""
    total = float(mesh.node_weight @ (np.asarray(theta_values, dtype=float) * np.abs(u) ** r))
    return total ** (1.0 / r)


def seminorm_boundary(mesh: Mesh, theta_values: np.ndarray, r: float, u) -> float:
    """(sum of s_i theta_i |u_i|^r)^(1/r) over boundary nodes."""
    total = float(mesh.boundary_weight @ (np.asarray(theta_values, dtype=float) * np.abs(u) ** r))
    return total ** (1.0 / r)


def grad_norm_H(mesh: Mesh, data: ProblemData, u, fields: Optional[FieldSamples] = None) -> float:
    """Luxemburg norm of the gradient modular."""
    if fields is None:
        fields = sample_fields(mesh, data)
    g = gradients(mesh, np.asarray(u, dtype=float))
    gn = np.hypot(g[:, 0], g[:, 1])
    gp = float(mesh.tri_area @ gn**data.p)
    gq = float(mesh.tri_area @ (fields.mu_centroid * gn**data.q))
    return luxemburg_norm(power_modular([(gp, data.p), (gq, data.q)]))


def lebesgue_norm(mesh: Mesh, u, r: float) -> float:
    """Unweighted lumped L^r norm of nodal values."""
    return float(mesh.node_weight @ np.abs(u) ** r) ** (1.0 / r)


def _weighted_pair(mesh: Mesh, data: ProblemData, u, r1, theta1, r2, theta2, fields):
    """Resolve the (r1, theta1, r2, theta2) instantiation; defaults reproduce rho."""
    if fields is None:
        fields = sample_fields(mesh, data)
    u = np.asarray(u, dtype=float)
    if r1 is None:
        r1 = data.p
    if r2 is None:
        r2 = data.p_lower_star
    if theta1 is None:
        th1 = fields.alpha_node
    else:
        th1 = np.broadcast_to(
            np.asarray(theta1(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float),
            mesh.nodes[:, 0].shape,
        )
    if theta2 is None:
        th2 = fields.beta_node
    else:
        b = mesh.boundary_nodes
        th2 = np.zeros(mesh.num_nodes)
        th2[b] = np.broadcast_to(
            np.asarray(theta2(mesh.nodes[b, 0], mesh.nodes[b, 1]), dtype=float), b.shape
        )
    return u, float(r1), th1, float(r2), th2, fields


def norm_circ(
    mesh: Mesh,
    data: ProblemData,
    u,
    r1=None,
    theta1=None,
    r2=None,
    theta2=None,
    fields: Optional[FieldSamples] = None,
) -> float:
    """Sum norm: |grad u|_H + |u|_{r1,theta1} + |u|_{r2,theta2,boundary}.

    Defaults (r1, theta1, r2, theta2) = (p, alpha, p_*, beta) match the
    working norm's ingredients.
    """
    u, r1, th1, r2, th2, fields = _weighted_pair(mesh, data, u, r1, theta1, r2, theta2, fields)
    return (
        grad_norm_H(mesh, data, u, fields)
        + seminorm_interior(mesh, th1, r1, u)
        + seminorm_boundary(mesh, th2, r2, u)
    )


def norm_star(
    mesh: Mesh,
    data: ProblemData,
    u,
    r1=None,
    theta1=None,
    r2=None,
    theta2=None,
    fields: Optional[FieldSamples] = None,
) -> float:
    """Joint Luxemburg norm of the gradient modular plus both weighted power terms.

    With the default instantiation this is exactly norm_custom.
    """
    u, r1, th1, r2, th2, fields = _weighted_pair(mesh, data, u, r1, theta1, r2, theta2, fields)
    g = gradients(mesh, u)
    gn = np.hypot(g[:, 0], g[:, 1])
    gp = float(mesh.tri_area @ gn**data.p)
    gq = float(mesh.tri_area @ (fields.mu_centroid * gn**data.q))
    t1 = float(mesh.node_weight @ (th1 * np.abs(u) ** r1))
    t2 = float(mesh.boundary_weight @ (th2 * np.abs(u) ** r2))
    return luxemburg_norm(power_modular([(gp, data.p), (gq, data.q), (t1, r1), (t2, r2)]))
