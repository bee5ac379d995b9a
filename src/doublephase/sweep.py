"""Sampled estimation of the admissible-parameter thresholds.

Three thresholds govern the model: below lambda_tilde every direction
carries two fiber roots (estimated as the sample minimum of
eta_tilde(t_tilde)/e, which is scale invariant: the minimum of the
eta_tilde_ratio column of sweep_samples.csv); below lambda_hat the
degenerate branch is empty (evidenced by the absence of tangencies among
sampled fibers, never numerically fabricated); and up to lambda_star the
Minus-branch minima stay positive (bracketed on a lambda grid with a short
bisection refinement).  The first two reduce one table of sampled fibers
(``sample_fibers``), and so does the upper bound on the p-embedding's best
constant by polished Rayleigh quotients (``sobolev_from``).

The sampled directions are broken down in (k, M) blocks: k = max(1,
BLOCK_NODES // M) directions on M nodes share one batched breakdown
(``fibering.lane_terms``, as the descent's lanes do), whose rows are the
one-direction breakdowns bit for bit.  At the small meshes a breakdown is
mostly numpy dispatch, so one call per block costs a fraction of one call
per direction (at one BLAS thread, per direction: 5 against 51 us at 8x8,
13 against 60 us at 16x16, 60 against 89 us at 32x32, 170 against 205 us at
64x64); from 128x128 on a block is one direction.  The scalar roots stay
per direction, in sample order.

The lambda* search runs in the calling process and forks nothing.  The
minus minimum decreases strictly in lambda (its slope is -int |u*|^q1 / q1
by the envelope theorem), so the grid's top decides first: positive there,
it is positive at every grid point below.  Otherwise a bisection over the
grid's indices finds the first point that is not positive
(``_first_nonpositive``).  Each probe descends one lambda's six minus
starts as one (lambda, minus) group of ``solver._solve_groups`` with the cut
(``_positive``), and ``_decide`` takes the group's results and failures: a
lane whose projected energy is <= 0 decides its lambda (``_decide``'s
bound) and stops the group's other lanes (the cut).  So a search makes at
most 1 + ceil(log2(n)) probes on n grid points, and one on a grid whose top
is positive, such as the default grid on the preset.  At one BLAS thread on
the preset (medians of 7), the default grid took 15.7 against 82.8 ms for
the forked linear scan it replaced at 8x8, 26.3 against 118.3 ms at 16x16
and 38.6 against 184.2 ms at 32x32; on grids whose sign flips inside them
(ending at 3.2, 4.0 or 6.4, or twenty points 0.1..2.0) it was 1.1-1.7x
faster, with the same lambda*.  A grid point that no probe visits is never
solved, so a solver failure there is not reported: where the linear scan
raised SweepUndetermined at a low grid point, the search may return a
lambda* from the points it does decide.

``_map_directions`` owns the sampled directions' layout, and each map on
it has one job: ``sample_fibers`` breaks the directions down
(``_fiber_block``), and ``sobolev_from`` computes their L^{p*} masses
(``_mass_block``), reading each numerator from the fiber table.  It cuts
the directions' indices into chunks on the same fork map, one per CPU but
at most n*M // FORK_MIN_NODES for n directions on M nodes, so that each
worker gets at least FORK_MIN_NODES node evaluations: a sampling map splits
from 64x64 on at 200 samples (see ``forkmap`` for the measured break-even).
Each chunk draws its blocks from its own offset in the seeded stream, so
the output does not depend on the cut.  The six multi-starts' quotients,
and the polishing of the best Rayleigh candidate, run in the calling
process.  At one BLAS thread on one CPU (200 samples, medians of 7), the
table and the estimate took 9.3-9.8, 54-83 and 148-189 ms at 8x8, 64x64
and 128x128, against 11.2, 90-137 and 302-386 ms with a second breakdown.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    "sobolev_from",
]

LAMBDA_STAR_BISECTIONS = 3  # bisection steps between the bracketing grid points
SOBOLEV_POLISH_STEPS = 40   # gradient steps polishing the best Rayleigh candidate
FORK_MIN_NODES = 2**18      # node evaluations a sampling worker must get for forking to pay
BLOCK_NODES = 2**14         # node values per batched breakdown of sampled directions


class SweepUndetermined(RuntimeError):
    """The Minus-branch solver failed to converge, or failed numerically, at
    a probed lambda, so the threshold search is undetermined there."""

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
    lambda_star_censored: bool        # the grid's top decided positive, and so every grid point below it
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
    decides.  A cut start (``StopReason.CUT``) stopped once a start of its
    own (lambda, minus) group reached energy <= 0, so the bound decides.
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


def estimate_lambda_star(
    mesh: Mesh,
    data: ProblemData,
    lambda_grid,
    fields: FieldSamples,
    opts: Optional[SolverOptions] = None,
) -> float:
    """Largest lambda with all-positive Minus-branch energies.

    The minus minimum decreases strictly in lambda, so ``_first_nonpositive``
    finds the first grid point that is not positive by probes: the grid's
    top, then a bisection over the indices below it.  That point and the
    positive one below it are then bisected for LAMBDA_STAR_BISECTIONS steps.
    Returns the grid's top if the top is positive, and only then, since a
    bisection stays below its upper grid point: that value is a lower bound
    only, and ``lambda_star_censored`` means that the top, and through the
    monotonicity every grid point below it, was decided positive.  Each
    probe is decided by the first of ``_decide``'s rules that applies: the
    bound (a minus point with energy <= 0: not positive), undetermined
    (SweepUndetermined, raised), unreachable (not positive), or positive.

    Only probed lambdas are solved, so a solver failure at a grid point no
    probe visits is not reported, and the value comes from the probes (a
    positive one at the bracket's lower end, a non-positive one at its
    upper end).  Over 400 seeded admissible draws (3x3 and 4x4 meshes, 2-5
    grid points, max_iter 40 or 2000), the 286 with monotone grid decisions
    gave the replaced linear scan's outcome; 72 of the other 114, each with
    an undetermined grid point, did not: 58 named another undetermined
    lambda, 12 returned a value where the scan raised, and 2 raised
    SweepUndetermined where the scan found the smallest point not positive.
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
        if _positive(mesh, data, mid, fields, opts):
            lo = mid
        else:
            hi = mid
    return lo


def _first_nonpositive(mesh: Mesh, data: ProblemData, grid: list, fields: FieldSamples, opts: SolverOptions) -> int:
    """Index of the first lambda of ``grid`` whose minimum is not positive
    (len(grid) if none), assuming monotone decisions: ``_positive`` at the
    top, then at the middle index between the highest positive probe (or
    the grid's start) and the lowest non-positive one.  The index returned
    is a non-positive probe's, the one below it a positive probe's; a
    probe's SweepUndetermined is raised."""
    lo, hi, mid = -1, len(grid), len(grid) - 1
    while hi - lo > 1:
        if _positive(mesh, data, grid[mid], fields, opts):
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) // 2
    return hi


def _positive(mesh: Mesh, data: ProblemData, lam: float, fields: FieldSamples, opts: SolverOptions) -> bool:
    """``_decide`` at ``lam``: its six minus starts descend as one (lambda,
    minus) group of ``solver._solve_groups`` with the cut, in this process."""
    ((results, failures),) = solver._solve_groups(mesh, data, [(lam, Branch.MINUS)], fields, opts, cut=True)
    return _decide(lam, results, failures)


def _rayleigh_quotient(mesh, data, u, fields) -> tuple[float, float, float]:
    """(|u|_{1,p}^p / |u|_{p*}^p, the numerator |u|_{1,p}^p, the L^{p*} mass
    |u|_{p*}^{p*})."""
    bd = modular_breakdown(mesh, data, u, fields)
    return _quotient(data, bd.grad_p + bd.mass_p_alpha, float(mesh.node_weight @ np.abs(u) ** data.p_star))


def _quotient(data: ProblemData, num: float, mass: float) -> tuple[float, float, float]:
    """(num / mass^(p/p*), num, mass): the Rayleigh quotient of numerator
    ``num`` and L^{p*} mass ``mass``."""
    return num / (mass ** (1.0 / data.p_star)) ** data.p, num, mass


def _mass_block(mesh: Mesh, data: ProblemData, block: np.ndarray) -> list:
    """The L^{p*} mass of each row of the (k, M) ``block`` (None for a zero
    row), each the 1-D dot of ``_rayleigh_quotient`` bit for bit (``lane_dot``)."""
    masses = lane_dot(np.abs(block) ** data.p_star, mesh.node_weight).tolist()
    return [mass if nonzero else None for mass, nonzero in zip(masses, block.any(axis=-1).tolist())]


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
    """``sobolev_from`` over ``n_samples`` sampled fibers at ``seed``, as
    ``estimate_lambda_tilde`` reduces them: it also pays each sample's
    scalar roots, and raises where ``sample_fibers`` does (OverflowError
    where a root leaves the floats)."""
    return sobolev_from(mesh, data, sample_fibers(mesh, data, n_samples, seed, fields), seed, fields)


def sobolev_from(mesh: Mesh, data: ProblemData, fibers, seed: int, fields: FieldSamples) -> float:
    """Upper bound on the discrete best constant of the p-embedding: the
    minimum Rayleigh quotient |u|_{1,p}^p / |u|_{p*}^p over multi-starts and
    the directions of ``fibers`` (``sample_fibers`` at ``seed``), with
    SOBOLEV_POLISH_STEPS gradient steps polishing the first strict minimum,
    a sampled one drawn again; the running minimum never increases.  A
    sampled candidate's numerator is its fiber's ``a``, so the one pass over
    the directions computes their L^{p*} masses (``_mass_block``; a zero
    direction is no candidate)."""
    starts = np.array([w for _, w in multistart_directions(mesh, seed)])
    quotients = [_rayleigh_quotient(mesh, data, w, fields) for w in starts]
    masses = _map_directions(mesh, len(fibers), seed, lambda block: _mass_block(mesh, data, block))
    quotients += [None if mass is None else _quotient(data, f.terms.a, mass) for f, mass in zip(fibers, masses)]
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
