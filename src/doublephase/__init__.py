"""Desk-scale discretization of a singular double phase Neumann problem.

The package discretizes the energy of a quasilinear equation driven by the
double phase operator with a singular and a parametric superlinear
reaction, equips the discrete trial space with the generalized-power
Luxemburg norms, analyzes the energy along rays through the constraint
manifold, and computes the two branch-minimal weak solutions (negative and
positive energy) together with sampled estimates of the admissible
parameter thresholds.
"""

from .problem import ProblemData, ValidationReport, critical_exponents, validate_hypotheses
from .coeff_expr import CoefficientField, parse_expr, eval_expr
from .mesh import Mesh, build_rect_mesh
from .space import (
    FieldSamples,
    ModularBreakdown,
    luxemburg_norm,
    modular_breakdown,
    norm_circ,
    norm_custom,
    norm_1p,
    norm_star,
    sample_fields,
)
from .energy import EnergyValue, ResidualReport, apply_operator_A, energy, energy_gradient, weak_residual
from .fibering import (
    FiberTerms,
    NehariClass,
    NehariKind,
    classify_nehari,
    eta,
    eta_tilde,
    fiber_roots,
    fiber_terms,
    psi,
    psi_derivatives,
    t_circ,
    t_tilde_circ,
    xi,
)
from .solver import (
    Branch,
    NoRootError,
    SolveReport,
    SolveResult,
    SolverOptions,
    StopReason,
    minimize_on_branch,
    solve_branch,
    solve_two,
)
from .sweep import (
    SweepReport,
    check_nzero_empty,
    estimate_lambda_star,
    estimate_lambda_tilde,
    estimate_sobolev_constant,
)

__version__ = "0.1.0"
