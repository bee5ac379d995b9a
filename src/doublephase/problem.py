"""Model parameters, critical exponents and hypothesis validation.

The problem is the singular double phase Neumann equation

    -div(|grad u|^(p-2) grad u + mu(x) |grad u|^(q-2) grad u) + alpha(x) u^(p-1)
        = zeta(x) u^(-kappa) + lambda u^(q1-1)      in Omega,
    (|grad u|^(p-2) grad u + mu(x) |grad u|^(q-2) grad u) . nu
        = -beta(x) u^(p_lower_star - 1)             on the boundary,

with 1 < p < N, p < q < p_star, 0 < kappa < 1 and
q1 in (max(q, p_lower_star), p_star).  Coefficient inequalities are
certified by sampling at the discrete quadrature points, which is all the
discrete functional ever evaluates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


import numpy as np

from .coeff_expr import CoefficientField

__all__ = ["ProblemData", "ValidationReport", "critical_exponents", "validate_hypotheses"]


def critical_exponents(p: float, N: float) -> tuple[float, float]:
    """Return (p_star, p_lower_star) = (N p/(N-p), (N-1) p/(N-p)).

    Rejects p <= 1 and p >= N, where the exponents are undefined or the
    standing hypotheses fail.
    """
    if not p > 1:
        raise ValueError(f"need p > 1, got p={p}")
    if not p < N:
        raise ValueError(f"need p < N, got p={p}, N={N}")
    return N * p / (N - p), (N - 1) * p / (N - p)


def _as_field(value) -> CoefficientField:
    if isinstance(value, CoefficientField):
        return value
    return CoefficientField.compile(str(value))


@dataclass(frozen=True)
class ProblemData:
    """All model parameters: exponents, the parameter lam (= lambda) and the
    four coefficient fields.  Immutable; derived exponents are computed on
    construction (which therefore requires 1 < p < N)."""

    p: float
    q: float
    kappa: float
    q1: float
    lam: float
    mu: CoefficientField
    alpha: CoefficientField
    beta: CoefficientField
    zeta: CoefficientField
    N: int = 2
    p_star: float = field(init=False)
    p_lower_star: float = field(init=False)

    def __post_init__(self):
        for name in ("mu", "alpha", "beta", "zeta"):
            object.__setattr__(self, name, _as_field(getattr(self, name)))
        ps, pls = critical_exponents(self.p, self.N)
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


def _sample_points(data: ProblemData, mesh, samples: int):
    """Deterministic interior and boundary sample points.

    With a mesh: its nodes plus element centroids (interior) and its
    boundary nodes.  Without one: a uniform grid on the unit square, with
    the grid's edge points as boundary samples.
    """
    if mesh is not None:
        xi = np.concatenate([mesh.nodes[:, 0], mesh.centroids[:, 0]])
        yi = np.concatenate([mesh.nodes[:, 1], mesh.centroids[:, 1]])
        bx = mesh.nodes[mesh.boundary_nodes, 0]
        by = mesh.nodes[mesh.boundary_nodes, 1]
        return (xi, yi), (bx, by)
    n = max(2, int(samples))
    g = np.linspace(0.0, 1.0, n)
    xx, yy = np.meshgrid(g, g, indexing="ij")
    on_edge = (xx == 0.0) | (xx == 1.0) | (yy == 0.0) | (yy == 1.0)
    return (xx.ravel(), yy.ravel()), (xx[on_edge].ravel(), yy[on_edge].ravel())


def validate_hypotheses(data: ProblemData, mesh=None, samples: int = 33) -> ValidationReport:
    """Check every clause of the standing hypotheses.

    Exponent inequalities are checked exactly; the pointwise coefficient
    conditions are checked on a deterministic sample grid (mesh nodes plus
    centroids when a mesh is supplied).  Returns a report listing every
    violated clause; never raises for mere violations.
    """
    violations = []

    def flag(tag, msg):
        violations.append((tag, msg))

    (xi, yi), (bx, by) = _sample_points(data, mesh, samples)

    if not (1 < data.p < data.N):
        flag("H(i)", f"need 1 < p < N, got p={data.p}, N={data.N}")
    if not (data.p < data.q < data.p_star):
        flag("H(i)", f"need p < q < p_star={data.p_star}, got q={data.q}")
    mu_vals = np.asarray(data.mu(xi, yi), dtype=float)
    if np.any(mu_vals < 0):
        flag("H(i)", "mu must be nonnegative on the domain samples")

    if not (0 < data.kappa < 1):
        flag("H(ii)", f"need 0 < kappa < 1, got kappa={data.kappa}")
    lower = max(data.q, data.p_lower_star)
    if not (lower < data.q1 < data.p_star):
        flag(
            "H(ii)",
            f"need q1 in (max(q, p_lower_star), p_star) = ({lower}, {data.p_star}), got q1={data.q1}",
        )

    alpha_vals = np.asarray(data.alpha(xi, yi), dtype=float)
    if np.any(alpha_vals < 0):
        flag("H(iii)", "alpha must be nonnegative on the domain samples")
    elif not np.any(alpha_vals > 0):
        flag("H(iii)", "alpha vanishes at every domain sample (alpha must not be identically 0)")

    beta_vals = np.asarray(data.beta(bx, by), dtype=float)
    if np.any(beta_vals < 0):
        flag("H(iv)", "beta must be nonnegative on the boundary samples")

    zeta_vals = np.asarray(data.zeta(xi, yi), dtype=float)
    if np.any(zeta_vals <= 0):
        flag("H(v)", "zeta must be strictly positive on the domain samples")

    if not 0 < data.lam < math.inf:
        flag("H", f"need finite lambda > 0, got {data.lam}")

    return ValidationReport(ok=not violations, violations=tuple(violations))
