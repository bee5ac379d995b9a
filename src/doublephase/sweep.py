"""Sampled estimation of the admissible-parameter thresholds.

Three thresholds govern the model: below lambda_tilde every direction
carries two fiber roots (estimated as the sample minimum of
eta_tilde(t_tilde)/e, which is scale invariant: the minimum of the
eta_tilde_ratio column of sweep_samples.csv); below lambda_hat the
degenerate branch is empty (evidenced by the absence of tangencies among
sampled fibers, never numerically fabricated); and up to lambda_star the
Minus-branch minima stay positive (bracketed on a lambda grid with a short
bisection refinement).  The first two reduce one table of sampled fibers
(``sample_fibers``).  The best-constant of the p-embedding is bounded from
above by polished Rayleigh quotients.

The sampled directions, and the Rayleigh candidates, are broken down in
(k, M) blocks: k = max(1, BLOCK_NODES // M) directions on M nodes share one
batched breakdown (``fibering.lane_terms``, as the descent's lanes do),
whose rows are the one-direction breakdowns bit for bit.  At the small
meshes a breakdown is mostly numpy dispatch, so one call per block costs a
fraction of one call per direction (at one BLAS thread, per direction: 5
against 51 us at 8x8, 13 against 60 us at 16x16, 60 against 89 us at
32x32, 170 against 205 us at 64x64); from 128x128 on a block is one
direction.  The scalar roots stay per direction, in sample order.

The lambda* scan runs on ``forkmap._fork_map``, which cuts its grid into
contiguous chunks, one per CPU the process may run on: the last chunk runs
in the calling process and the others on forked workers, whose results are
read in chunk order, so every value and exception is exactly what one
process would give.  A chunk hands its grid points in batches to
``solver._solve_groups`` as (lambda, minus) groups with the cut
(``_scan``), and ``_decide`` takes each group's results and failures;
``_solve_groups`` never forks, so a cut stays within its batch.  A lane
merges only with a lane of its own group, so each grid point that no cut
reached gets its ``solve_branch`` results bit for bit, and a lane whose
projected energy is <= 0 decides its lambda (``_decide``'s bound), stops
every lane at that lambda and above (the cut), and ends the chunk.  At one
CPU and one BLAS thread, the five default grid points' separate minus
solves took 134 ms against 79 ms for one batch at 8x8, and 274 against 170
ms at 16x16 (medians of 15).  The bisection after the scan runs its
one-lambda batches in the calling process.  A chunk that no worker delivers
(its fork failed or its worker died) is scanned in the calling process, so
the scan's outcome is the one-process scan's.

``_map_directions`` owns the sampled directions' layout; both sampling
estimates (``sample_fibers`` and the sampled Rayleigh candidates of
``estimate_sobolev_constant``) run on it, each with its block kernel.  It
cuts the directions' indices into chunks on the same fork map, one per CPU
but at most n*M // FORK_MIN_NODES for n directions on M nodes, so that each
worker gets at least FORK_MIN_NODES node evaluations: a sampling map splits
from 64x64 on at 200 samples (see ``forkmap`` for the measured break-even).
Each chunk draws its blocks from its own offset in the seeded stream, so
the output does not depend on the cut.  The six multi-starts' quotients,
and the polishing of the best Rayleigh candidate, run in the calling
process.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import math

import numpy as np

from .energy import _signed_power, gradient_flux
from .fibering import FiberTerms, eta, fiber_terms, lane_terms, root_kind, t_circ, t_tilde_circ
from .forkmap import _fork_map
from .mesh import Mesh
from .problem import ProblemData
from . import solver
from .solver import Branch, NoRootError, SolverOptions, StopReason, multistart_directions
# unused here, but the benchmark's tracer wraps ``sweep.minimize_on_branch`` by name
from .solver import minimize_on_branch  # noqa: F401
from .space import FieldSamples, lane_dot, modular_breakdown
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

LAMBDA_STAR_BISECTIONS = 3  # bisection steps between the bracketing grid points
SOBOLEV_POLISH_STEPS = 40   # gradient steps polishing the best Rayleigh candidate
FORK_MIN_NODES = 2**18      # node evaluations a sampling worker must get for forking to pay
BLOCK_NODES = 2**14         # node values per batched breakdown of sampled directions


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


def sample_directions(mesh: Mesh, n_samples: int, seed: int):
    """Deterministic nonnegative sample directions: iid uniform nodal values
    from a seeded generator, one stream for the whole batch, yielded as the
    rows of ``_direction_blocks``."""
    for block in _direction_blocks(mesh, n_samples, seed, 0):
        yield from block


def _direction_blocks(mesh: Mesh, n_samples: int, seed: int, start: int):
    """The directions ``start`` .. ``start`` + ``n_samples`` - 1 of the
    seeded stream as (k, M) blocks of k = ``_block_size(mesh)`` rows (the
    last may be shorter).  ``Generator.random`` draws one 64-bit output per
    double, so a (k, M) draw is k successive (M,) draws and skipping
    ``start`` directions advances the generator ``start`` M steps."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(int(start) * mesh.num_nodes)
    k = _block_size(mesh)
    for lo in range(0, int(n_samples), k):
        yield rng.random((min(k, int(n_samples) - lo), mesh.num_nodes))


def _block_size(mesh: Mesh) -> int:
    """Directions per batched breakdown: BLOCK_NODES node values, at least one."""
    return max(1, BLOCK_NODES // mesh.num_nodes)


def sample_fibers(mesh: Mesh, data: ProblemData, n_samples: int, seed: int, fields: FieldSamples) -> tuple:
    """One ``SampledFiber`` per direction of ``sample_directions``: the table
    every sampled estimate reduces.

    The rows of ``_fiber_block`` over ``_map_directions``."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    return tuple(_map_directions(mesh, n_samples, seed, lambda block: _fiber_block(mesh, data, block, fields)))


def _map_directions(mesh: Mesh, n: int, seed: int, kernel) -> list:
    """``kernel``'s rows over the (k, M) blocks of the first ``n``
    directions of the seeded stream, joined in order.  The directions'
    indices run in chunks on ``_fork_map``, capped so that each worker gets
    FORK_MIN_NODES node evaluations; each chunk draws its own blocks from
    its offset in the stream (``_direction_blocks``)."""

    def rows(chunk: range) -> list:
        return [row for block in _direction_blocks(mesh, len(chunk), seed, chunk.start) for row in kernel(block)]

    most = n * mesh.num_nodes // FORK_MIN_NODES
    return _fork_map(rows, range(n), most=most)


def _fiber_block(mesh: Mesh, data: ProblemData, block: np.ndarray, fields: FieldSamples) -> list:
    """The ``SampledFiber`` of each row of the (k, M) ``block``, in row
    order, from one batched breakdown (``lane_terms``); a row that is not
    finite is recomputed alone, in row order, so the first error is the one
    a loop over the rows raises."""
    return [
        _sampled_fiber(fiber_terms(mesh, data, u, fields) if ft is None else ft)
        for u, ft in zip(block, lane_terms(mesh, data, block, fields))
    ]


def _sampled_fiber(ft: FiberTerms) -> SampledFiber:
    """The ``SampledFiber`` of the direction whose fiber terms are ``ft``."""
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
    degenerate-branch point on that fiber): each fiber is a tangency, two
    roots or none by ``root_kind``; degenerate fibers are skipped."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    kinds = [None if f.eta_max is None else root_kind(f.eta_max, lam * f.terms.e) for f in fibers]
    tangencies = []
    for i, (f, kind) in enumerate(zip(fibers, kinds)):
        if kind == "tangent":
            le = lam * f.terms.e
            tangencies.append(Tangency(i, f.t_circ, f.eta_max, le, abs(f.eta_max - le) / max(abs(f.eta_max), abs(le))))
    return NzeroEvidence(lam, len(fibers), *(kinds.count(k) for k in (None, "two", "none")), tuple(tangencies))


def estimate_lambda_tilde(mesh: Mesh, data: ProblemData, n_samples: int, seed: int, fields: FieldSamples) -> float:
    """``lambda_tilde_from`` over ``n_samples`` sampled fibers; samples with
    a = 0 or d = 0 are skipped."""
    return lambda_tilde_from(sample_fibers(mesh, data, n_samples, seed, fields))


def check_nzero_empty(
    mesh: Mesh, data: ProblemData, lam: float, n_samples: int, seed: int, fields: FieldSamples
) -> NzeroEvidence:
    """``nzero_evidence`` at ``lam`` over ``n_samples`` sampled fibers."""
    return nzero_evidence(sample_fibers(mesh, data, n_samples, seed, fields), lam)


def _decide(lam: float, results, failures) -> bool:
    """Whether the Minus-branch minimum at ``lam`` is positive, from the
    minus starts' ``SolveResult``s and (name, ArithmeticError) ``failures``
    at ``lam`` (``solver._solve_groups``), each in start order.  The first
    rule that applies decides:

    - the bound: some start's energy is <= 0: False.  Its point lies on the
      minus branch, whose minimum is at most that point's energy, so it
      alone decides, whatever the other starts did;
    - undetermined: some start failed numerically (any ArithmeticError but
      NoRootError), or some start that did not merge did not converge:
      SweepUndetermined, naming the first such start in start order, the
      numerical failures first;
    - unreachable: no start reaches the branch: False;
    - positive: every start's energy is > 0: True.

    A merged start (``StopReason.MERGED``) stopped early by design, so it
    counts neither way: its chain of merges ends at a start of the same
    batch and lambda that did not merge, and that start's own outcome
    decides.  A cut start (``StopReason.CUT``) stopped at or above a lambda
    that the bound decides; ``_scan`` decides no lambda above that one.
    """
    if any(res.energy <= 0.0 for res in results):
        return False
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
    return bool(results) and all(res.energy > 0.0 for res in results)


def _scan(mesh: Mesh, data: ProblemData, lams, fields: FieldSamples, opts: SolverOptions) -> list:
    """``_decide`` of each lambda of the ascending ``lams`` in turn, up to
    the first that is not positive: True, False, or the SweepUndetermined
    it raised, as a value.

    Each batch is the (lambda, minus) groups of as many lambdas as fit in
    BLOCK_NODES lane-node values, one at least (33 at 8x8, 9 at 16x16, 2 at
    32x32, one from 64x64 on), which ``solver._solve_groups`` descends with
    the cut and hands back per group.  A lambda's starts merge only with
    each other, so each lambda that no cut reached has its ``solve_branch``
    results bit for bit; a cut stops only lambdas from the first the bound
    decides on, and the batches after it are skipped."""
    per_batch = max(1, BLOCK_NODES // (mesh.num_nodes * len(multistart_directions(mesh, opts.seed))))
    decided = []
    for lo in range(0, len(lams), per_batch):
        batch = lams[lo:lo + per_batch]
        groups = solver._solve_groups(mesh, data, [(lam, Branch.MINUS) for lam in batch], fields, opts, cut=True)
        for lam, (results, failures) in zip(batch, groups):
            try:
                decided.append(_decide(lam, results, failures))
            except SweepUndetermined as exc:
                decided.append(exc)
            if decided[-1] is not True:
                return decided
    return decided


def estimate_lambda_star(
    mesh: Mesh,
    data: ProblemData,
    lambda_grid,
    fields: FieldSamples,
    opts: Optional[SolverOptions] = None,
) -> float:
    """Largest lambda with all-positive Minus-branch energies.

    Scans the ascending grid up to the first lambda that is not positive,
    then bisects between the last positive and first non-positive grid
    points for LAMBDA_STAR_BISECTIONS steps.  Returns the top of the grid if
    every grid point is positive, and only then, since a bisection stays
    below its upper grid point: that value is a lower bound only.  Each
    lambda, grid or bisection, is decided by the first of ``_decide``'s
    rules that applies: the bound (a minus point with energy <= 0 makes it
    not positive, and stops its lambda's descent and every higher one's),
    undetermined (a minus start failed numerically, or a start that did not
    merge into another start's lane did not converge: SweepUndetermined),
    unreachable (not positive), or positive.  The grid runs in contiguous
    chunks, one per CPU (``_first_nonpositive``), the bisection in-process.
    """
    grid = [float(v) for v in lambda_grid]
    if not grid:
        raise ValueError("empty lambda grid")
    if any(v <= 0 for v in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("lambda grid must be positive and strictly ascending")
    if opts is None:
        opts = SolverOptions()

    k = _first_nonpositive(mesh, data, grid, fields, opts)
    if k == 0:
        raise ValueError(f"minus-branch energy not positive at the smallest grid point {grid[0]}")
    if k == len(grid):
        return grid[-1]

    lo, hi = grid[k - 1], grid[k]
    for _ in range(LAMBDA_STAR_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if _first_nonpositive(mesh, data, [mid], fields, opts):
            lo = mid
        else:
            hi = mid
    return lo


def _first_nonpositive(mesh: Mesh, data: ProblemData, grid: list, fields: FieldSamples, opts: SolverOptions) -> int:
    """Index of the first lambda of ``grid`` whose minimum is not positive
    (len(grid) if none); the SweepUndetermined of an earlier lambda is
    raised.  ``_fork_map`` cuts the grid into contiguous chunks, one per CPU
    with no cap (one, in-process, for one lambda), each scanned by
    ``_scan``; the last chunk runs in this process.  A chunk ends at its
    first lambda that is not positive, so the chunks' values joined in
    order are the ascending scan's up to the first of them, and a chunk
    that no worker delivers is scanned in this process in its turn."""
    scanned = _fork_map(lambda chunk: _scan(mesh, data, chunk, fields, opts), grid)
    for k, positive in enumerate(scanned):
        if isinstance(positive, SweepUndetermined):
            raise positive
        if not positive:
            return k
    return len(grid)


def _rayleigh_quotient(mesh, data, u, fields) -> tuple[float, float, float]:
    """(|u|_{1,p}^p / |u|_{p*}^p, the numerator |u|_{1,p}^p, the L^{p*} mass
    |u|_{p*}^{p*})."""
    bd = modular_breakdown(mesh, data, u, fields)
    return _quotient(data, bd.grad_p + bd.mass_p_alpha, float(mesh.node_weight @ np.abs(u) ** data.p_star))


def _quotient(data: ProblemData, num: float, mass: float) -> tuple[float, float, float]:
    """(num / mass^(p/p*), num, mass): the Rayleigh quotient of numerator
    ``num`` and L^{p*} mass ``mass``."""
    return num / (mass ** (1.0 / data.p_star)) ** data.p, num, mass


def _quotient_block(mesh: Mesh, data: ProblemData, block: np.ndarray, fields: FieldSamples) -> list:
    """``_rayleigh_quotient`` of each row of the (k, M) ``block`` (None for a
    zero row), in row order, bit for bit from one batched breakdown
    (``lane_terms``) and one batched L^{p*} mass (``lane_dot``, each row
    the 1-D dot of ``_rayleigh_quotient``); a row with a value that is not
    finite is recomputed alone."""
    terms = lane_terms(mesh, data, block, fields)
    with np.errstate(all="ignore"):
        masses = lane_dot(np.abs(block) ** data.p_star, mesh.node_weight).tolist()
    out = []
    for u, nonzero, ft, mass in zip(block, block.any(axis=-1).tolist(), terms, masses):
        if not nonzero:
            out.append(None)
        elif ft is None or not math.isfinite(mass):
            out.append(_rayleigh_quotient(mesh, data, u, fields))
        else:
            out.append(_quotient(data, ft.a, mass))
    return out


def _rayleigh_gradient(mesh, data, u, fields, num: float, mass: float) -> np.ndarray:
    """Gradient of the quotient ``num`` / ``mass``^(p/p*) at u, with num =
    |u|_{1,p}^p and mass = |u|_{p*}^{p*}; only the p-power pieces of the
    operator enter the numerator."""
    g = np.asarray(u, dtype=float)
    num_grad = gradient_flux(mesh, data, g, fields, q_part=False)
    num_grad += fields.alpha_weight * _signed_power(g, data.p - 1.0)
    num_grad *= data.p
    den = mass ** (data.p / data.p_star)
    den_grad = data.p * mass ** (data.p / data.p_star - 1.0) * mesh.node_weight
    den_grad *= _signed_power(g, data.p_star - 1.0)
    return (num_grad - (num / den) * den_grad) / den


def estimate_sobolev_constant(mesh: Mesh, data: ProblemData, n_samples: int, seed: int, fields: FieldSamples) -> float:
    """Upper bound on the discrete best constant of the p-embedding: the
    minimum Rayleigh quotient |u|_{1,p}^p / |u|_{p*}^p over multi-starts and
    seeded random positives, with SOBOLEV_POLISH_STEPS gradient-descent
    steps polishing the best candidate.  The running minimum never
    increases.

    The multi-starts are scored here, in blocks, ahead of the sampled
    directions on ``_map_directions``; only the first strict minimum's index
    is kept, and the polish redraws that direction if it is a sampled one."""
    starts = np.array([w for _, w in multistart_directions(mesh, seed)])
    k = _block_size(mesh)
    quotients = [q for lo in range(0, len(starts), k) for q in _quotient_block(mesh, data, starts[lo:lo + k], fields)]
    quotients += _map_directions(mesh, n_samples, seed, lambda block: _quotient_block(mesh, data, block, fields))
    best, val, num, mass = None, np.inf, None, None
    for i, q in enumerate(quotients):
        if q is not None and q[0] < val:
            best, (val, num, mass) = i, q

    u = starts[best] if best < len(starts) else next(_direction_blocks(mesh, 1, seed, best - len(starts)))[0]
    step = 1.0
    for _ in range(SOBOLEV_POLISH_STEPS):
        g = _rayleigh_gradient(mesh, data, u, fields, num, mass)
        if not g.any():
            break
        s = step
        for _ in range(30):
            trial = u - s * g
            if np.any(trial):
                tval, tnum, tmass = _rayleigh_quotient(mesh, data, trial, fields)
                if np.isfinite(tval) and tval < val:
                    u, val, num, mass, step = trial, tval, tnum, tmass, s * 2.0
                    break
            s *= 0.5
        else:
            break  # no trial step lowered the quotient
    return float(val)
