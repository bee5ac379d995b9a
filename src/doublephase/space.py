"""Function-space layer: modulars and Luxemburg norms.

The working norm is the Luxemburg norm of the modular

    rho(u) = integral(|grad u|^p + mu |grad u|^q)
           + integral(alpha |u|^p) + boundary integral(beta |u|^{p_*}),

computed by scalar root finding (safeguarded Newton) on tau -> rho(u/tau),
which is strictly decreasing for u != 0.  Because every modular term is a
pure power of tau, rho(u/tau) is assembled once per function and then
evaluated from six scalars.

Those six integrals (``modular_breakdown``) are six powers, each dotted with
a weight vector that ``sample_fields`` folds once per field set: |grad u|^2
comes from the node-grid stencil ``mesh.grid_grad_sq`` in units of hx^2,
so the gradient weights carry hx^-p and hx^-q, and the zeroth-order weights
carry the coefficient fields.  Every norm of the model (the working norm,
norm_1p and the equivalent norms norm_circ and norm_star) reads one
breakdown.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .mesh import Mesh, centroid_rule, grid_grad_sq, hat_grad_power_sum
from .problem import ProblemData
from .rootfind import hybrid_root, power_bracket, power_sums
# unused here, but the benchmark's tracer wraps ``space.expand_bracket`` by name
from .rootfind import expand_bracket  # noqa: F401

__all__ = [
    "FieldSamples",
    "ModularBreakdown",
    "lane_dot",
    "sample_fields",
    "modular_breakdown",
    "modular_rho",
    "luxemburg_norm",
    "norm_custom",
    "norm_1p",
    "norm_circ",
    "norm_star",
    "lebesgue_norm",
]

LUX_TOL = 1e-12  # residual |rho(u/tau) - 1| at the accepted root


@dataclass(frozen=True)
class FieldSamples:
    """The quadrature weights of a mesh folded once with the coefficient
    fields sampled at their quadrature points (mu at the centroids, alpha and
    zeta at the nodes, beta at the boundary nodes).

    They are the vectors the integrals of the model dot their powers with:
    ``grad_p_weight`` = |T| hx^-p and ``grad_q_weight`` = |T| mu hx^-q per
    triangle (the stencil's squared gradients are hx^2 |grad u|^2),
    ``alpha_weight`` = m alpha and ``zeta_weight`` = m zeta per node, and
    ``beta_weight`` = s beta on ``mesh.boundary_nodes`` (m and s are the
    lumped node and boundary weights; the unweighted mass uses
    ``mesh.node_weight`` itself).  ``hat_norm`` is the norm_1p of every
    nodal hat function, which normalizes each weak residual.  The gradient
    weights depend on p, q and hx, so a field set belongs to one mesh and one
    ProblemData.
    """

    grad_p_weight: np.ndarray  # (T,) |T| hx^-p
    grad_q_weight: np.ndarray  # (T,) |T| mu hx^-q
    alpha_weight: np.ndarray   # (M,) m alpha
    zeta_weight: np.ndarray    # (M,) m zeta
    beta_weight: np.ndarray    # (B,) s beta on the boundary nodes
    hat_norm: np.ndarray       # (M,) norm_1p of each nodal hat function


def sample_fields(mesh: Mesh, data: ProblemData) -> FieldSamples:
    """Evaluate alpha, zeta at nodes, beta at boundary nodes, mu at the
    triangle centroids (each through ``CoefficientField.at``), and fold them
    into the quadrature weights (the triangles' areas and centroids from
    ``mesh.centroid_rule``); the hat norms read the folded p-weights."""
    b = mesh.boundary_nodes
    areas, centroids = centroid_rule(mesh)
    alpha = data.alpha.at(mesh.nodes)
    zeta = data.zeta.at(mesh.nodes)
    beta = data.beta.at(mesh.nodes[b])
    mu = data.mu.at(centroids)
    hx, hy = mesh.spacing
    try:
        hx_p, hx_q = hx ** -data.p, hx ** -data.q
    except OverflowError as exc:  # a cell so narrow that a power of its width is not a float
        raise OverflowError(f"cell width hx={hx!r}: hx^-{max(data.p, data.q)!r} leaves the float range") from exc
    m = mesh.node_weight
    with np.errstate(over="ignore"):  # a weight beyond the floats is named below
        weights = dict(
            grad_p_weight=areas * hx_p,
            grad_q_weight=areas * mu * hx_q,
            alpha_weight=m * alpha,
            zeta_weight=m * zeta,
            beta_weight=mesh.boundary_weight[b] * beta,
        )
    for name, w in weights.items():
        if not np.all(np.isfinite(w)):
            raise OverflowError(f"quadrature weight {name} of the cell hx={hx!r}, hy={hy!r} leaves the float range")
    hat_grad_p = hat_grad_power_sum(mesh, weights["grad_p_weight"], data.p)   # sum_t |T| |grad phi|^p
    return FieldSamples(**weights, hat_norm=(hat_grad_p + weights["alpha_weight"]) ** (1.0 / data.p))


@dataclass(frozen=True)
class ModularBreakdown:
    """The six discrete integrals every functional in the model is built
    from: floats for one function, (S,) arrays for S lanes."""

    grad_p: float          # integral |grad u|^p
    grad_q_mu: float       # integral mu |grad u|^q
    mass_p_alpha: float    # integral alpha |u|^p
    bdry_pstar_beta: float  # boundary integral beta |u|^{p_*}
    zeta_sing: float       # integral zeta |u|^{1-kappa}
    mass_q1: float         # integral |u|^{q1}


def lane_dot(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x . w over the last axis per lane of x (..., N), w (N,) or (..., N):
    a stacked matmul (..., 1, N) @ (..., N, 1), whose every lane is its own
    BLAS dot and so the 1-D ``x @ w`` bit for bit (a 2-D gemv's rows are not)."""
    return (x[..., None, :] @ w[..., :, None])[..., 0, 0]


def modular_breakdown(mesh: Mesh, data: ProblemData, u: np.ndarray, fields: FieldSamples) -> ModularBreakdown:
    """The breakdown of u (M,), or of each lane of u (S, M)."""
    u = np.asarray(u, dtype=float)
    dot = lane_dot if u.ndim > 1 else lambda x, w: float(lane_dot(x, w))
    s = grid_grad_sq(mesh, u)   # hx^2 |grad u|^2, centroid rule
    grad_p = dot(s ** (0.5 * data.p), fields.grad_p_weight)
    grad_q_mu = dot(s ** (0.5 * data.q), fields.grad_q_weight)
    absu = np.abs(u)
    mass_p_alpha = dot(absu**data.p, fields.alpha_weight)
    zeta_sing = dot(absu ** (1.0 - data.kappa), fields.zeta_weight)
    mass_q1 = dot(absu**data.q1, mesh.node_weight)
    bdry = dot(absu.take(mesh.boundary_nodes, axis=-1) ** data.p_lower_star, fields.beta_weight)
    return ModularBreakdown(grad_p, grad_q_mu, mass_p_alpha, bdry, zeta_sing, mass_q1)


def modular_rho(mesh: Mesh, data: ProblemData, u, fields: FieldSamples) -> float:
    """The norm-defining modular rho(u)."""
    bd = modular_breakdown(mesh, data, u, fields)
    return bd.grad_p + bd.grad_q_mu + bd.mass_p_alpha + bd.bdry_pstar_beta


def luxemburg_norm(terms) -> float:
    """inf{tau > 0 : rho(u/tau) <= 1} for the modular rho(u) = sum(c) of the
    (c, r) terms, each c >= 0 homogeneous of degree r > 0 in u.

    rho(u/tau) = sum(c tau^-r) falls strictly from inf to 0, so
    ``power_bracket`` brackets the unit level from the terms themselves and
    the safeguarded Newton iteration of ``hybrid_root`` finds it to
    |rho - 1| <= LUX_TOL.  Returns 0 when every c is 0 (u = 0); raises
    BracketError for a term outside that rule (c < 0 or not finite, r <= 0).
    """
    scaled = [(c, -r) for c, r in terms if c != 0.0]
    if not scaled:
        return 0.0
    f = partial(power_sums, scaled + [(-1.0, 0.0)])  # rho(u/tau) - 1
    return hybrid_root(f, *power_bracket(scaled, 1.0), np.inf, -1.0, abs_tol=LUX_TOL)


def norm_custom(mesh: Mesh, data: ProblemData, u, fields: FieldSamples) -> float:
    """The Luxemburg norm associated with rho (the working norm of the model)."""
    bd = modular_breakdown(mesh, data, u, fields)
    terms = [
        (bd.grad_p + bd.mass_p_alpha, data.p),
        (bd.grad_q_mu, data.q),
        (bd.bdry_pstar_beta, data.p_lower_star),
    ]
    return luxemburg_norm(terms)


def norm_1p(mesh: Mesh, data: ProblemData, u, fields: FieldSamples) -> float:
    """(|grad u|_p^p + integral alpha |u|^p)^(1/p)."""
    bd = modular_breakdown(mesh, data, u, fields)
    return (bd.grad_p + bd.mass_p_alpha) ** (1.0 / data.p)


def lebesgue_norm(mesh: Mesh, u, r: float) -> float:
    """Unweighted lumped L^r norm of nodal values."""
    return float(mesh.node_weight @ np.abs(u) ** r) ** (1.0 / r)


def norm_circ(mesh: Mesh, data: ProblemData, u, fields: FieldSamples) -> float:
    """Sum norm: |grad u|_H + (int alpha |u|^p)^(1/p) + (bdry int beta |u|^{p_*})^(1/p_*),
    with |grad u|_H the Luxemburg norm of the gradient modular."""
    bd = modular_breakdown(mesh, data, u, fields)
    return (
        luxemburg_norm([(bd.grad_p, data.p), (bd.grad_q_mu, data.q)])
        + bd.mass_p_alpha ** (1.0 / data.p)
        + bd.bdry_pstar_beta ** (1.0 / data.p_lower_star)
    )


def norm_star(mesh: Mesh, data: ProblemData, u, fields: FieldSamples) -> float:
    """Joint Luxemburg norm of the gradient modular plus both weighted power
    terms; it equals norm_custom, which groups the two p-terms."""
    bd = modular_breakdown(mesh, data, u, fields)
    terms = [
        (bd.grad_p, data.p),
        (bd.grad_q_mu, data.q),
        (bd.mass_p_alpha, data.p),
        (bd.bdry_pstar_beta, data.p_lower_star),
    ]
    return luxemburg_norm(terms)
