"""Model parameters, critical exponents and hypothesis validation.

The problem is the singular double phase Neumann equation

    -div(|grad u|^(p-2) grad u + mu(x) |grad u|^(q-2) grad u) + alpha(x) u^(p-1)
        = zeta(x) u^(-kappa) + lambda u^(q1-1)      in Omega,
    (|grad u|^(p-2) grad u + mu(x) |grad u|^(q-2) grad u) . nu
        = -beta(x) u^(p_lower_star - 1)             on the boundary,

with 1 < p < N = 2, p < q < p_star, 0 < kappa < 1 and
q1 in (max(q, p_lower_star), p_star).  Coefficient inequalities are
certified by sampling at the discrete quadrature points, which is all the
discrete functional ever evaluates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coeff_expr import CoefficientField
from .mesh import Mesh, centroid_rule

__all__ = ["ProblemData", "ValidationReport", "critical_exponents", "validate_hypotheses"]

DIM = 2  # the space dimension N of the critical exponents: every mesh is 2-D


def critical_exponents(p: float, N: float) -> tuple[float, float]:
    """Return (p_star, p_lower_star) = (N p/(N-p), (N-1) p/(N-p)).

    Rejects p <= 1 and p >= N, where the exponents are undefined or the
    standing hypotheses fail; the message carries the H(i) tag of the clause
    1 < p < N, which ``validate_hypotheses`` therefore never sees violated.
    """
    if not p > 1:
        raise ValueError(f"H(i): need p > 1, got p={p}")
    if not p < N:
        raise ValueError(f"H(i): need p < N, got p={p}, N={N}")
    return N * p / (N - p), (N - 1) * p / (N - p)


def _as_field(value) -> CoefficientField:
    if isinstance(value, CoefficientField):
        return value
    return CoefficientField.compile(str(value))


@dataclass(frozen=True)
class ProblemData:
    """All model parameters: exponents, the parameter lam (= lambda) and the
    four coefficient fields.  Immutable; derived exponents are computed on
    construction for N = ``DIM`` (which therefore requires 1 < p < N)."""

    p: float
    q: float
    kappa: float
    q1: float
    lam: float
    mu: CoefficientField
    alpha: CoefficientField
    beta: CoefficientField
    zeta: CoefficientField
    p_star: float = field(init=False)
    p_lower_star: float = field(init=False)

    def __post_init__(self):
        for name in ("mu", "alpha", "beta", "zeta"):
            object.__setattr__(self, name, _as_field(getattr(self, name)))
        ps, pls = critical_exponents(self.p, DIM)
        object.__setattr__(self, "p_star", ps)
        object.__setattr__(self, "p_lower_star", pls)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple  # of (hypothesis tag, message)

    def __str__(self):
        if self.ok:
            return "all hypotheses satisfied"
        return "\n".join(f"{tag}: {msg}" for tag, msg in self.violations)


def _sample_points(mesh: Mesh):
    """The mesh's quadrature points as two (N, 2) arrays: its nodes plus the
    triangle centroids of ``centroid_rule`` (interior), and its boundary
    nodes (boundary)."""
    interior = np.concatenate([mesh.nodes, centroid_rule(mesh)[1]])
    return interior, mesh.nodes[mesh.boundary_nodes]


def validate_hypotheses(data: ProblemData, mesh: Mesh) -> ValidationReport:
    """Check every clause of the standing hypotheses.

    The clause 1 < p < N is checked when ``data`` is built (see
    ``critical_exponents``); the other exponent inequalities are checked
    exactly here; the pointwise coefficient
    conditions are checked at the mesh's quadrature points (nodes plus
    triangle centroids, and the boundary nodes for beta), which is all the
    discrete functional ever evaluates.  Returns a report listing every
    violated clause; never raises for mere violations.
    """
    violations = []

    def flag(tag, msg):
        violations.append((tag, msg))

    interior, boundary = _sample_points(mesh)

    if not (data.p < data.q < data.p_star):
        flag("H(i)", f"need p < q < p_star={data.p_star}, got q={data.q}")
    if np.any(data.mu.at(interior) < 0):
        flag("H(i)", "mu must be nonnegative on the domain samples")

    if not (0 < data.kappa < 1):
        flag("H(ii)", f"need 0 < kappa < 1, got kappa={data.kappa}")
    lower = max(data.q, data.p_lower_star)
    if not (lower < data.q1 < data.p_star):
        flag(
            "H(ii)",
            f"need q1 in (max(q, p_lower_star), p_star) = ({lower}, {data.p_star}), got q1={data.q1}",
        )

    alpha_vals = data.alpha.at(interior)
    if np.any(alpha_vals < 0):
        flag("H(iii)", "alpha must be nonnegative on the domain samples")
    elif not np.any(alpha_vals > 0):
        flag("H(iii)", "alpha vanishes at every domain sample (alpha must not be identically 0)")

    if np.any(data.beta.at(boundary) < 0):
        flag("H(iv)", "beta must be nonnegative on the boundary samples")

    if np.any(data.zeta.at(interior) <= 0):
        flag("H(v)", "zeta must be strictly positive on the domain samples")

    if not 0 < data.lam < math.inf:
        flag("H", f"need finite lambda > 0, got {data.lam}")

    return ValidationReport(ok=not violations, violations=tuple(violations))
