"""Sampled estimation of the admissible-parameter thresholds.

Three thresholds govern the model: below lambda_tilde every direction
carries two fiber roots (estimated as the sample minimum of
eta_tilde(t_tilde)/e, which is scale invariant: the minimum of the
eta_tilde_ratio column of sweep_samples.csv); below lambda_hat the
degenerate branch is empty (evidenced by the absence of tangencies among
sampled fibers, never numerically fabricated); and up to lambda_star the
Minus-branch minima stay positive (bracketed on a lambda grid with a short
bisection refinement).  The first two reduce one table of sampled fibers
(``sample_fibers``, one modular breakdown per direction).  The
best-constant of the p-embedding is bounded from above by polished
Rayleigh quotients.

The lambda* scan and the sampling maps (``sample_fibers``, the Rayleigh
quotients of ``estimate_sobolev_constant``) run on ``forkmap._fork_map``:
up to as many workers as the process may run on, whose results are read in
item order, so every value and exception is exactly what one process would
give.  The scan forks whenever it has two CPUs and two grid points, and
it stops at its first non-positive point, so every grid point runs on a
forked worker; its workers solve their lanes in-process.  A
sampling map splits only when each worker gets at least FORK_MIN_NODES
node evaluations (directions times mesh nodes), so from 64x64 on at 200
samples (see ``forkmap`` for the measured break-even), and then its last
chunk runs in the calling process and the others on forked workers.  A
worker that dies makes its lambda undetermined; a sampling worker's chunk
is recomputed in-process, so its output does not change.  The bisection
after the scan, and the polishing of the best Rayleigh candidate, run in
the calling process, and so do a bisection solve's lanes, which are one
branch's and so one in-process batch (``solver._solve_branches``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import gradient_flux
from .fibering import FiberTerms, eta, fiber_terms, t_circ, t_tilde_circ
from .forkmap import _fork_map, _width
from .mesh import Mesh
from .problem import ProblemData
from .solver import Branch, NoRootError, SolverOptions, StopReason, multistart_directions, solve_branch
# unused here, but the benchmark's tracer wraps ``sweep.minimize_on_branch`` by name
from .solver import minimize_on_branch  # noqa: F401
from .space import FieldSamples, lebesgue_norm, modular_breakdown
# unused here, but the benchmark's tracer wraps ``sweep.sample_fields`` by name
from .space import sample_fields  # noqa: F401

__all__ = [
    "SweepReport",
    "NzeroEvidence",
    "Tangency",
    "SampledFiber",
    "SweepUndetermined",
    "sample_directions",
    "sample_fibers",
    "lambda_tilde_from",
    "nzero_evidence",
    "estimate_lambda_tilde",
    "check_nzero_empty",
    "estimate_lambda_star",
    "estimate_sobolev_constant",
]

TANGENCY_REL_TOL = 1e-10
LAMBDA_STAR_BISECTIONS = 3  # bisection steps between the bracketing grid points
SOBOLEV_POLISH_STEPS = 40   # gradient steps polishing the best Rayleigh candidate
FORK_MIN_NODES = 2**18      # node evaluations a sampling worker must get for forking to pay


class SweepUndetermined(RuntimeError):
    """The Minus-branch solver failed to converge, or failed numerically, at
    some lambda, so the threshold scan is undetermined there."""

    def __init__(self, lam: float, detail: str):
        super().__init__(f"undetermined at lambda={lam!r}: {detail}")
        self.lam = lam
        self.detail = detail

    def __reduce__(self):
        return type(self), (self.lam, self.detail)


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
class SampledFiber:
    """One sampled direction's fiber terms with the maximizers and maxima of
    eta_tilde and eta; the last four are None when a, d or e is 0."""

    terms: FiberTerms
    t_tilde: Optional[float] = None
    eta_tilde_max: Optional[float] = None
    t_circ: Optional[float] = None
    eta_max: Optional[float] = None


@dataclass(frozen=True)
class SweepReport:
    lambda_tilde_est: float           # sample-min upper bound for lambda_tilde
    lambda_hat_evidence: tuple        # of (lambda, tangency found)
    lambda_star_est: Optional[float]
    lambda_star_censored: bool        # lambda_star_est is the grid's top: every grid point positive
    sobolev_S_est: float
    samples: int
    seed: int


def sample_directions(mesh: Mesh, n_samples: int, seed: int, start: int = 0):
    """Deterministic nonnegative sample directions: iid uniform nodal values
    from a seeded generator, one stream for the whole batch.  ``start``
    skips the stream's first ``start`` directions (``Generator.random``
    draws one 64-bit output per double), so the directions are those from
    index ``start`` on of the stream ``start`` = 0 gives."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(int(start) * mesh.num_nodes)
    for _ in range(int(n_samples)):
        yield rng.random(mesh.num_nodes)


def sample_fibers(mesh: Mesh, data: ProblemData, n_samples: int, seed: int, fields: FieldSamples) -> tuple:
    """One ``SampledFiber`` per direction of ``sample_directions``, from one
    modular breakdown each: the table every sampled estimate reduces.

    The directions run in chunks (``_map_chunks``), each drawing its own
    directions from its offset in the stream."""
    if n_samples < 1:
        raise ValueError("need at least one sample")

    def fibers(chunk) -> list:
        lo, hi = chunk
        return [_sampled_fiber(mesh, data, u, fields) for u in sample_directions(mesh, hi - lo, seed, lo)]

    return tuple(_map_chunks(fibers, n_samples, mesh))


def _sampled_fiber(mesh, data, u, fields) -> SampledFiber:
    """The ``SampledFiber`` of direction ``u``."""
    ft = fiber_terms(mesh, data, u, fields)
    if ft.a > 0 and ft.d > 0 and ft.e > 0:
        tc = t_circ(ft)
        return SampledFiber(ft, *t_tilde_circ(ft), tc, eta(ft, tc))
    return SampledFiber(ft)


def lambda_tilde_from(fibers) -> float:
    """Sample minimum of eta_tilde(t_tilde)/e over the admitted fibers: below
    it every admitted direction keeps two roots of the reduced fiber map.
    The ratio is invariant under u -> s u, so no direction is normalized."""
    ratios = [f.eta_tilde_max / f.terms.e for f in fibers if f.eta_tilde_max is not None]
    if not ratios:
        raise ValueError("every sample was degenerate (a = 0 or d = 0)")
    return float(min(ratios))


def nzero_evidence(fibers, lam: float) -> NzeroEvidence:
    """Scan sampled fibers for tangencies eta(t_circ) = lam*e (each one is a
    degenerate-branch point on that fiber); degenerate fibers are skipped."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    skipped = two_root = no_root = 0
    tangencies = []
    for i, f in enumerate(fibers):
        if f.eta_max is None:
            skipped += 1
            continue
        le = lam * f.terms.e
        gap = abs(f.eta_max - le) / max(abs(f.eta_max), abs(le))
        if gap <= TANGENCY_REL_TOL:
            tangencies.append(Tangency(i, f.t_circ, f.eta_max, le, gap))
        elif f.eta_max > le:
            two_root += 1
        else:
            no_root += 1
    return NzeroEvidence(lam, len(fibers), skipped, two_root, no_root, tuple(tangencies))


def estimate_lambda_tilde(mesh: Mesh, data: ProblemData, n_samples: int, seed: int, fields: FieldSamples) -> float:
    """``lambda_tilde_from`` over ``n_samples`` sampled fibers; samples with
    a = 0 or d = 0 are skipped."""
    return lambda_tilde_from(sample_fibers(mesh, data, n_samples, seed, fields))


def check_nzero_empty(
    mesh: Mesh, data: ProblemData, lam: float, n_samples: int, seed: int, fields: FieldSamples
) -> NzeroEvidence:
    """``nzero_evidence`` at ``lam`` over ``n_samples`` sampled fibers."""
    return nzero_evidence(sample_fibers(mesh, data, n_samples, seed, fields), lam)


def _minus_branch_positive(mesh, data, lam, fields, opts) -> bool:
    """Whether the Minus-branch minimum at ``lam`` is positive, over the
    starts of ``solve_branch``:

    - some start failed numerically (any ArithmeticError but NoRootError):
      SweepUndetermined, naming the first such start in start order;
    - no start reaches the branch: False;
    - some start that did not merge did not converge: SweepUndetermined,
      naming the first such start in start order;
    - otherwise: whether the lowest energy is > 0.

    A merged start (``StopReason.MERGED``) stopped early by design, so it
    counts neither way: its chain of merges ends at a start of the same call
    that did not merge, and that start's own outcome decides.
    """
    results, failures = solve_branch(mesh, data, lam, Branch.MINUS, fields, opts)
    undetermined = [
        f"failed numerically from start {name!r} ({type(exc).__name__}): {exc}"
        for name, exc in failures
        if not isinstance(exc, NoRootError)
    ] + [
        f"did not converge from start {res.start!r}"
        for res in results
        if not res.converged and res.stop_reason is not StopReason.MERGED
    ]
    if undetermined:
        raise SweepUndetermined(lam, "minus branch " + undetermined[0])
    return bool(results) and min(res.energy for res in results) > 0.0


def estimate_lambda_star(
    mesh: Mesh,
    data: ProblemData,
    lambda_grid,
    fields: FieldSamples,
    opts: Optional[SolverOptions] = None,
) -> float:
    """Largest lambda with all-positive Minus-branch energies.

    Scans the ascending grid until the first non-positive (or unreachable)
    lambda, then bisects between the last positive and first non-positive
    grid points for LAMBDA_STAR_BISECTIONS steps.  Returns the top of the
    grid if every grid point is positive, and only then, since a bisection
    stays below its upper grid point: that value is a lower bound only.  A
    lambda is undetermined where a minus start fails numerically, or where
    a start that did not merge into another start's lane does not converge
    (``_minus_branch_positive``).
    The grid points run on up to one forked worker per available CPU
    (``_first_false``), the bisection in-process.
    """
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise ValueError("empty lambda grid")
    if any(v <= 0 for v in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be positive and strictly ascending")
    if opts is None:
        opts = SolverOptions()

    k = _first_false(lambda lam: _minus_branch_positive(mesh, data, lam, fields, opts), grid)
    if k == 0:
        raise ValueError(f"minus-branch energy not positive at the smallest grid point {grid[0]}")
    if k == len(grid):
        return grid[-1]

    lo, hi = grid[k - 1], grid[k]
    for _ in range(LAMBDA_STAR_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if _minus_branch_positive(mesh, data, mid, fields, opts):
            lo = mid
        else:
            hi = mid
    return lo


def _first_false(test, grid) -> int:
    """Index of the first lambda of ``grid`` where ``test`` is false
    (len(grid) if none); an exception ``test`` raises at an earlier lambda
    propagates.  A lambda whose worker died is undetermined."""

    def died(lam, status):
        raise SweepUndetermined(lam, f"its worker died (exit status {status})")

    values = _fork_map(test, grid, died, stop=lambda positive: not positive)
    return len(values) - 1 if not values[-1] else len(grid)


def _chunks(n_items: int, mesh: Mesh) -> list:
    """Contiguous (lo, hi) ranges of ``n_items`` directions, one per sampling
    worker: one per available CPU, but no more than leaves each at least
    FORK_MIN_NODES node evaluations, so one range, in-process, below that."""
    width = max(1, min(_width(n_items), n_items * mesh.num_nodes // FORK_MIN_NODES))
    bounds = [n_items * i // width for i in range(width + 1)]
    return list(zip(bounds, bounds[1:]))


def _map_chunks(func, n_items: int, mesh: Mesh) -> list:
    """``func``'s lists over ``_chunks(n_items, mesh)``, joined in order, from
    ``_fork_map``, which runs the last chunk in this process; a chunk whose
    worker died is recomputed in-process."""
    chunks = _fork_map(func, _chunks(n_items, mesh), lambda chunk, status: func(chunk))
    return [value for chunk in chunks for value in chunk]


def _rayleigh_quotient(mesh, data, u, fields) -> tuple[float, float]:
    """(|u|_{1,p}^p / |u|_{p*}^p, the numerator |u|_{1,p}^p)."""
    bd = modular_breakdown(mesh, data, u, fields)
    num = bd.grad_p + bd.mass_p_alpha
    den = lebesgue_norm(mesh, u, data.p_star) ** data.p
    return num / den, num


def _rayleigh_gradient(mesh, data, u, fields, num: float) -> np.ndarray:
    """Gradient of the quotient ``num`` / (|u|_{p*}^p), num = |u|_{1,p}^p;
    only the p-power pieces of the operator enter the numerator."""
    g = np.asarray(u, dtype=float)
    num_grad = gradient_flux(mesh, data, g, fields, q_part=False)
    num_grad += fields.alpha_weight * np.sign(g) * np.abs(g) ** (data.p - 1.0)
    num_grad *= data.p

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


def estimate_sobolev_constant(mesh: Mesh, data: ProblemData, n_samples: int, seed: int, fields: FieldSamples) -> float:
    """Upper bound on the discrete best constant of the p-embedding: the
    minimum Rayleigh quotient |u|_{1,p}^p / |u|_{p*}^p over multi-starts and
    seeded random positives, with SOBOLEV_POLISH_STEPS gradient-descent
    steps polishing the best candidate.  The running minimum never
    increases.

    The candidates' quotients run in chunks (``_map_chunks``), like
    ``sample_fibers``, and only the index of the first strict minimum is
    kept: its direction is drawn again for the polish, in-process."""
    starts = [w for _, w in multistart_directions(mesh, seed)]

    def candidates(lo: int, hi: int):
        """Candidates lo..hi-1: the multi-starts, then the sampled directions."""
        yield from starts[lo:hi]
        first = max(lo - len(starts), 0)
        yield from sample_directions(mesh, max(hi - len(starts), 0) - first, seed, first)

    def quotients(chunk) -> list:
        return [_rayleigh_quotient(mesh, data, w, fields) if np.any(w) else None for w in candidates(*chunk)]

    best, val, num = None, np.inf, None
    for i, q in enumerate(_map_chunks(quotients, len(starts) + n_samples, mesh)):
        if q is not None and q[0] < val:
            best, (val, num) = i, q

    u = np.asarray(next(candidates(best, best + 1)), dtype=float)
    step = 1.0
    for _ in range(SOBOLEV_POLISH_STEPS):
        g = _rayleigh_gradient(mesh, data, u, fields, num)
        if not g.any():
            break
        s = step
        for _ in range(30):
            trial = u - s * g
            if np.any(trial):
                tval, tnum = _rayleigh_quotient(mesh, data, trial, fields)
                if np.isfinite(tval) and tval < val:
                    u, val, num, step = trial, tval, tnum, s * 2.0
                    break
            s *= 0.5
        else:
            break  # no trial step lowered the quotient
    return float(val)
