"""Energy functional, its nodal gradient, the monotone operator pairing and
weak-form residuals.

The energy is

    (1/p)(|grad u|_p^p + int alpha |u|^p) + (1/q) int mu |grad u|^q
    + (1/p_*) bdry int beta |u|^{p_*}
    - (1/(1-kappa)) int zeta |u|^{1-kappa} - (lam/q1) int |u|^{q1},

with lumped vertex quadrature for all zeroth-order terms and centroid
quadrature for the gradient terms.  It is the fiber map psi_u at t = 1, so
``energy`` reads its terms from ``fibering``; the weak form (its gradient)
is assembled once, by ``_weak_form``.  |grad u|^{p-2} grad u is extended by
0 at grad u = 0 (the continuous extension of the monotone operator for
p < 2); the singular term's derivative is floored at max(u_i, eps)^(-kappa).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fibering import _psi_terms, fiber_terms, psi
from .mesh import Mesh, grid_flux, grid_grad_sq
from .problem import ProblemData
from .space import FieldSamples
# unused here, but the benchmark's tracer wraps ``energy.modular_breakdown`` and
# ``energy.sample_fields`` by name
from .space import modular_breakdown, sample_fields  # noqa: F401

__all__ = [
    "EnergyValue",
    "ResidualReport",
    "energy",
    "apply_operator_A",
    "energy_gradient",
    "gradient_flux",
    "weak_residual",
]

DEFAULT_FLOOR = 1e-10
# the weak form's nodal terms, in the order ``_weak_form`` returns them
WEAK_FORM_TERMS = ("gradient", "alpha_mass", "beta_boundary", "singular", "superlinear")


@dataclass(frozen=True)
class EnergyValue:
    total: float
    kinetic_p: float      # (1/p)(|grad u|_p^p + int alpha|u|^p)
    kinetic_q_mu: float   # (1/q) int mu |grad u|^q
    boundary: float       # (1/p_*) bdry int beta |u|^{p_*}
    singular: float       # -(1/(1-kappa)) int zeta |u|^{1-kappa}
    superlinear: float    # -(lam/q1) int |u|^{q1}

    @property
    def parts(self) -> dict:
        return {
            "kinetic_p": self.kinetic_p,
            "kinetic_q_mu": self.kinetic_q_mu,
            "boundary": self.boundary,
            "singular": self.singular,
            "superlinear": self.superlinear,
        }


@dataclass(frozen=True)
class ResidualReport:
    """Max weak-form defect over nodal hat test functions, each normalized by
    the test function's norm_1p, plus the per-term maxima."""

    residual_norm: float
    term_max: dict

    def __str__(self):
        terms = ", ".join(f"{k}={v:.3e}" for k, v in self.term_max.items())
        return f"residual {self.residual_norm:.3e} ({terms})"


def energy(mesh: Mesh, data: ProblemData, u, lam: float, fields: FieldSamples) -> EnergyValue:
    """Theta_lam(u) = psi_u(1): the five parts are the terms of the fiber map
    at t = 1, and the total is psi itself."""
    ft = fiber_terms(mesh, data, u, fields)
    return EnergyValue(psi(ft, lam, 1.0), *(c for c, _ in _psi_terms(ft, lam)))


def _signed_power(u: np.ndarray, expo: float) -> np.ndarray:
    """sign(u)|u|^expo, with value 0 at u = 0 (expo > 0 throughout the model)."""
    return np.sign(u) * np.abs(u) ** expo


def gradient_flux(
    mesh: Mesh, data: ProblemData, u: np.ndarray, fields: FieldSamples, q_part: bool = True
) -> np.ndarray:
    """Nodal vector G^T(|T| w G u) of the double phase gradient term, with
    w = |grad u|^{p-2} + mu |grad u|^{q-2} per triangle; ``q_part=False``
    keeps only the p-part.  w is taken as 0 where grad u = 0 (the continuous
    extension of the flux for exponents below 2).

    With s = hx^2 |grad u|^2 from the stencil, |T| w / hx^2 is
    grad_p_weight s^(p/2-1) + grad_q_weight s^(q/2-1), the weight
    ``mesh.grid_flux`` takes.
    """
    s = grid_grad_sq(mesh, u)
    nz = s > 0.0
    w = np.power(s, 0.5 * data.p - 1.0, out=np.zeros(s.shape), where=nz)
    w *= fields.grad_p_weight
    if q_part:
        wq = np.power(s, 0.5 * data.q - 1.0, out=np.zeros(s.shape), where=nz)
        wq *= fields.grad_q_weight
        w += wq
    return grid_flux(mesh, u, w)


def _weak_form(
    mesh: Mesh, data: ProblemData, u: np.ndarray, lam: float, fields: FieldSamples, floor: float
) -> tuple[tuple, np.ndarray]:
    """(terms, defect): the five nodal vectors of the weak form at u, in the
    order of WEAK_FORM_TERMS, and their signed sum gradient + alpha_mass +
    beta_boundary - singular - superlinear, each (..., M) for u (..., M).
    The singular vector takes max(u_i, floor)^(-kappa)."""
    grad_vec = gradient_flux(mesh, data, u, fields)
    alpha_vec = fields.alpha_weight * _signed_power(u, data.p - 1.0)
    b = mesh.boundary_nodes
    beta_vec = np.zeros(u.shape)
    beta_vec[..., b] = fields.beta_weight * _signed_power(u[..., b], data.p_lower_star - 1.0)
    sing_vec = fields.zeta_weight * np.maximum(u, floor) ** (-data.kappa)
    super_vec = lam * mesh.node_weight * _signed_power(u, data.q1 - 1.0)
    defect = grad_vec + alpha_vec + beta_vec - sing_vec - super_vec
    return (grad_vec, alpha_vec, beta_vec, sing_vec, super_vec), defect


def apply_operator_A(mesh: Mesh, data: ProblemData, u, h, fields: FieldSamples) -> float:
    """Duality pairing of the double phase operator (plus mass and boundary
    terms) of u against h: the operator's nodal vector dotted with h."""
    terms, _ = _weak_form(mesh, data, np.asarray(u, dtype=float), 0.0, fields, DEFAULT_FLOOR)
    return float(sum(terms[:3]) @ np.asarray(h, dtype=float))  # gradient + alpha_mass + beta_boundary


def energy_gradient(mesh: Mesh, data: ProblemData, u, lam, fields: FieldSamples) -> np.ndarray:
    """Nodal gradient (..., M) of the discrete energy at u (M,), or at each
    lane of u (S, M), at the float ``lam`` or at each lane's lambda, the
    column ``lam`` (S, 1); a row is the same bits either way.

    The singular term uses max(u_i, DEFAULT_FLOOR) inside u^(-kappa).
    """
    _, values = _weak_form(mesh, data, np.asarray(u, dtype=float), lam, fields, DEFAULT_FLOOR)
    return values


def weak_residual(mesh: Mesh, data: ProblemData, u, lam: float, fields: FieldSamples) -> ResidualReport:
    """Maximal normalized defect of the weak-solution identity over all nodal
    hat functions.  Requires strictly positive nodal values (the identity's
    singular integral is otherwise undefined)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("weak_residual requires u > 0 at every node")
    terms, defect = _weak_form(mesh, data, u, lam, fields, 0.0)  # no floor engages on u > 0
    hn = fields.hat_norm
    term_max = {name: float(np.max(np.abs(vec) / hn)) for name, vec in zip(WEAK_FORM_TERMS, terms)}
    return ResidualReport(residual_norm=float(np.max(np.abs(defect) / hn)), term_max=term_max)
