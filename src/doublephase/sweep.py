"""Sampled estimation of the admissible-parameter thresholds.

Three thresholds govern the model: below lambda_tilde every direction
carries two fiber roots (estimated as the sample minimum of
eta_tilde(t_tilde)/e, which is scale invariant); below lambda_hat the
degenerate branch is empty (evidenced by the absence of tangencies among
sampled fibers, never numerically fabricated); and up to lambda_star the
Minus-branch minima stay positive (bracketed on a lambda grid with a short
bisection refinement).  The best-constant of the p-embedding is bounded
from above by polished Rayleigh quotients.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import gradient_flux
from .fibering import FiberTerms, eta, fiber_terms, t_circ, t_tilde_circ
from .mesh import Mesh
from .problem import ProblemData
from .solver import Branch, NoRootError, SolverOptions, minimize_on_branch, multistart_directions
from .space import FieldSamples, breakdown_norm, lebesgue_norm, modular_breakdown, sample_fields

__all__ = [
    "SweepReport",
    "NzeroEvidence",
    "Tangency",
    "SweepUndetermined",
    "sample_directions",
    "estimate_lambda_tilde",
    "check_nzero_empty",
    "estimate_lambda_star",
    "estimate_sobolev_constant",
]

TANGENCY_REL_TOL = 1e-10


class SweepUndetermined(RuntimeError):
    """The Minus-branch solver failed to converge at some lambda, so the
    threshold scan is undetermined there."""

    def __init__(self, lam: float, detail: str):
        super().__init__(f"undetermined at lambda={lam!r}: {detail}")
        self.lam = lam


@dataclass(frozen=True)
class Tangency:
    sample: int
    t_circ: float
    eta_at_t_circ: float
    lambda_e: float
    rel_gap: float


@dataclass(frozen=True)
class NzeroEvidence:
    """Per-sample tangency evidence at a fixed lambda.  An empty tangency
    list with n_two_root > 0 means no degenerate point was found among
    samples; n_two_root == 0 means no sampled direction admits roots at all
    (a distinct situation: lambda above every sampled eta(t_circ)/e)."""

    lam: float
    n_samples: int
    n_skipped: int
    n_two_root: int
    n_no_root: int
    tangencies: tuple


@dataclass(frozen=True)
class SweepReport:
    lambda_tilde_est: float           # sample-min upper bound for lambda_tilde
    lambda_hat_evidence: tuple        # of (lambda, tangency found)
    lambda_star_est: Optional[float]
    sobolev_S_est: float
    samples: int
    seed: int


def sample_directions(mesh: Mesh, n_samples: int, seed: int):
    """Deterministic nonnegative sample directions: iid uniform nodal values
    from a seeded generator, one stream for the whole batch."""
    rng = np.random.default_rng(seed)
    for _ in range(int(n_samples)):
        yield rng.random(mesh.num_nodes)


def estimate_lambda_tilde(
    mesh: Mesh,
    data: ProblemData,
    n_samples: int,
    seed: int,
    fields: Optional[FieldSamples] = None,
) -> float:
    """Sample minimum of eta_tilde(t_tilde)/e over random nonnegative
    directions (normalized in the working norm).  Below this value every
    admitted sampled direction keeps two roots of the reduced fiber map.
    Samples with a = 0 or d = 0 are skipped and counted.  One modular
    breakdown per sample gives both the norm and the fiber terms, which are
    rescaled to the unit direction by homogeneity."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if fields is None:
        fields = sample_fields(mesh, data)
    best = np.inf
    admitted = 0
    for u in sample_directions(mesh, n_samples, seed):
        bd = modular_breakdown(mesh, data, u, fields)
        nrm = breakdown_norm(bd, data)
        if nrm == 0.0:
            continue
        ft = FiberTerms.from_breakdown(bd, data).scaled(1.0 / nrm)
        if ft.a <= 0 or ft.d <= 0 or ft.e <= 0:
            continue
        admitted += 1
        _, eta_tilde_max = t_tilde_circ(ft)
        best = min(best, eta_tilde_max / ft.e)
    if admitted == 0:
        raise ValueError("every sample was degenerate (a = 0 or d = 0)")
    return float(best)


def check_nzero_empty(
    mesh: Mesh,
    data: ProblemData,
    lam: float,
    n_samples: int,
    seed: int,
    fields: Optional[FieldSamples] = None,
) -> NzeroEvidence:
    """Scan sampled fibers for tangencies eta(t_circ) = lam*e (each one is a
    degenerate-branch point on that fiber)."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if fields is None:
        fields = sample_fields(mesh, data)
    skipped = two_root = no_root = 0
    tangencies = []
    for i, u in enumerate(sample_directions(mesh, n_samples, seed)):
        ft = fiber_terms(mesh, data, u, fields)
        if ft.a <= 0 or ft.d <= 0 or ft.e <= 0:
            skipped += 1
            continue
        tc = t_circ(ft)
        peak = eta(ft, tc)
        le = lam * ft.e
        gap = abs(peak - le) / max(abs(peak), abs(le))
        if gap <= TANGENCY_REL_TOL:
            tangencies.append(Tangency(i, tc, peak, le, gap))
        elif peak > le:
            two_root += 1
        else:
            no_root += 1
    return NzeroEvidence(
        lam=lam,
        n_samples=int(n_samples),
        n_skipped=skipped,
        n_two_root=two_root,
        n_no_root=no_root,
        tangencies=tuple(tangencies),
    )


def _minus_branch_positive(mesh, data, lam, opts) -> bool:
    """True when the best converged Minus-branch multi-start energy is > 0;
    False when the branch is unreachable from every start; undetermined when
    the solver fails to converge."""
    best = None
    all_noroot = True
    for name, w in multistart_directions(mesh, opts.seed):
        try:
            res = minimize_on_branch(mesh, data, lam, Branch.MINUS, w, opts)
        except NoRootError:
            continue
        all_noroot = False
        if not res.converged:
            raise SweepUndetermined(lam, f"minus branch did not converge from start {name!r}")
        if best is None or res.energy < best:
            best = res.energy
    if all_noroot:
        return False
    return best > 0.0


def estimate_lambda_star(
    mesh: Mesh,
    data: ProblemData,
    lambda_grid,
    opts: Optional[SolverOptions] = None,
    refine_steps: int = 3,
) -> float:
    """Largest lambda with all-positive Minus-branch energies.

    Scans the ascending grid until the first non-positive (or unreachable)
    lambda, then bisects between the last positive and first non-positive
    grid points for ``refine_steps`` steps.  Returns the top of the grid if
    every grid point is positive.
    """
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise ValueError("empty lambda grid")
    if any(v <= 0 for v in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be positive and strictly ascending")
    if opts is None:
        opts = SolverOptions()

    last_positive = None
    first_nonpositive = None
    for lam in grid:
        if _minus_branch_positive(mesh, data, lam, opts):
            last_positive = lam
        else:
            first_nonpositive = lam
            break
    if last_positive is None:
        raise ValueError(f"minus-branch energy not positive at the smallest grid point {grid[0]}")
    if first_nonpositive is None:
        return last_positive  # top of the grid

    lo, hi = last_positive, first_nonpositive
    for _ in range(refine_steps):
        mid = 0.5 * (lo + hi)
        if _minus_branch_positive(mesh, data, mid, opts):
            lo = mid
        else:
            hi = mid
    return lo


def _rayleigh_quotient(mesh, data, u, fields) -> float:
    bd = modular_breakdown(mesh, data, u, fields)
    num = bd.grad_p + bd.mass_p_alpha
    den = lebesgue_norm(mesh, u, data.p_star) ** data.p
    return num / den


def _rayleigh_gradient(mesh, data, u, fields) -> np.ndarray:
    """Gradient of the quotient (|u|_{1,p}^p) / (|u|_{p*}^p); only the
    p-power pieces of the operator enter the numerator."""
    g = np.asarray(u, dtype=float)
    num_grad = gradient_flux(mesh, data, g)
    num_grad += mesh.node_weight * fields.alpha_node * np.sign(g) * np.abs(g) ** (data.p - 1.0)
    num_grad *= data.p

    bd = modular_breakdown(mesh, data, g, fields)
    num = bd.grad_p + bd.mass_p_alpha
    mass = float(mesh.node_weight @ np.abs(g) ** data.p_star)
    den = mass ** (data.p / data.p_star)
    den_grad = (
        data.p
        * mass ** (data.p / data.p_star - 1.0)
        * mesh.node_weight
        * np.sign(g)
        * np.abs(g) ** (data.p_star - 1.0)
    )
    return (num_grad - (num / den) * den_grad) / den


def estimate_sobolev_constant(
    mesh: Mesh,
    data: ProblemData,
    n_samples: int,
    seed: int,
    polish_steps: int = 40,
    fields: Optional[FieldSamples] = None,
) -> float:
    """Upper bound on the discrete best constant of the p-embedding: the
    minimum Rayleigh quotient |u|_{1,p}^p / |u|_{p*}^p over multi-starts and
    seeded random positives, with gradient-descent polishing of the best
    candidate.  The running minimum never increases."""
    if fields is None:
        fields = sample_fields(mesh, data)
    candidates = [w for _, w in multistart_directions(mesh, seed)]
    candidates += [u for u in sample_directions(mesh, n_samples, seed)]
    best_val = np.inf
    best_u = None
    for u in candidates:
        if not np.any(u):
            continue
        val = _rayleigh_quotient(mesh, data, u, fields)
        if val < best_val:
            best_val, best_u = val, u

    u = np.asarray(best_u, dtype=float)
    val = best_val
    step = 1.0
    for _ in range(polish_steps):
        g = _rayleigh_gradient(mesh, data, u, fields)
        gmax = float(np.max(np.abs(g)))
        if gmax == 0.0:
            break
        improved = False
        s = step
        for _ in range(30):
            trial = u - s * g
            if np.any(trial):
                tval = _rayleigh_quotient(mesh, data, trial, fields)
                if np.isfinite(tval) and tval < val:
                    u, val, step = trial, tval, s * 2.0
                    improved = True
                    break
            s *= 0.5
        if not improved:
            break
        best_val = min(best_val, val)
    return float(best_val)
