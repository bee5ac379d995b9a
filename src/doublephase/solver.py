"""Branch minimization on the constraint manifold: fiber-projected descent.

Each iterate is a nonnegative direction w, scaled onto the requested branch
by its own fiber root (t1 for Plus, t2 for Minus); no direction is
normalized, because the roots are scale-covariant.  A line-search trial
lies next to its base point, whose own root is 1, so its root is first
sought by Newton steps from 1 (``fibering.warm_branch_root``): eta is
unimodal, so a root where eta' has the branch's sign is that branch's root,
and an evaluated eta above the tangency band proves the root is not a
tangency.  Only when that certificate fails are t_circ and the bracketed
root solved cold (``fiber_roots``).  From the projected point u a
line-searched step is taken along d = H g, the L-BFGS direction of the
nodal energy gradient g in the H^1 (Sobolev) metric P = K + c M,
with K the P1 stiffness, M the mass and c = 10/|Omega|: the compact form of
the last 10 pairs of projected points and their gradients, with
H_0 = gamma P^-1 (``mesh.riesz_map``).  The Euclidean gradient's
conditioning degrades like h^-2; the H^1 gradient P^-1 g's does not, so the
iteration count does not grow with the mesh, and the pairs add the
curvature P misses.  The line search tries sigma = 1 first, and each trial point
max(u - sigma d, u/2) keeps at least half of every nodal value, so the
smooth direction cannot drive a node into the singular term's spike near 0.
The projection keeps iterates exactly on the manifold, where the energy is
coercive, and at a constrained minimizer the full discrete weak form holds
(the multiplier vanishes because psi'(1) = 0 there).  Multi-start over
deterministic seeds guards against missing the branch minimum.  ``_descend``
owns the batch's layout: it takes (lambda, branch) groups and one list of
starts, descends every start of every group in lockstep as a lane of (S, M)
arrays (the gradient takes a column of the lanes' lambdas), so one
gradient, one Riesz map, one L-BFGS product of the stacked pair store and
one breakdown per line-search round serve them all, and returns each
group's outcomes in start order: ``solve_two`` passes one group per branch,
the lambda* scan one minus group per grid point.  A lane stops once its
projected point comes within MERGE_TOL (relative lumped L2 distance) of a
lower-energy running lane of its group (``StopReason.MERGED``), as
multi-level single linkage stops a local search near a better point
(Rinnooy Kan & Timmer, Math. Prog. 39, 1987): on the preset every start of
a branch ends at one point, and the lanes meet long before they stop.  A
lane that did not merge is its start's descent alone, bit for bit; a merged
lane is that descent cut at its merge.  The scan's batches also stop every
lane at and above the lowest lambda where a projected point has energy <= 0
(``StopReason.CUT``): that point bounds the minus minimum there from above,
so the scan needs no more.  On meshes of at least LANE_FORK_MIN_NODES nodes
``forkmap._fork_map`` cuts ``solve_two``'s two groups into one chunk each,
a batch of its own (below that its cap is one chunk): the plus group on a
forked worker, the minus group in the calling process; a merge compares
lanes of one group only, so the split changes no bit of any result.
"""
from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import DEFAULT_FLOOR, energy_gradient, weak_residual, ResidualReport
from .fibering import (
    FiberTerms,
    NehariClass,
    NehariKind,
    classify_nehari,
    fiber_roots,
    fiber_terms,
    psi_with_magnitude,
    warm_branch_root,
)
from .forkmap import _fork_map
from .mesh import Mesh, riesz_map
from .problem import ProblemData
from .space import FieldSamples, lane_dot, modular_breakdown
# unused here, but the benchmark's tracer wraps ``solver.luxemburg_norm`` and
# ``solver.sample_fields`` by name
from .space import luxemburg_norm, sample_fields  # noqa: F401

__all__ = [
    "Branch",
    "NoRootError",
    "SolverOptions",
    "SolveResult",
    "SolveReport",
    "StopReason",
    "minimize_on_branch",
    "multistart_directions",
    "solve_branch",
    "solve_two",
]


class Branch(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    @property
    def nehari_kind(self) -> NehariKind:
        return NehariKind.PLUS if self is Branch.PLUS else NehariKind.MINUS


class StopReason(enum.Enum):
    """Why a branch descent left its loop."""

    RESIDUAL_TOL = "residual_tol"                    # the gradient met the residual tolerance
    STALL = "stall"                                  # ``stall`` iterations without progress
    LINE_SEARCH_EXHAUSTED = "line_search_exhausted"  # no trial step passed the Armijo test
    MAX_ITER = "max_iter"                            # ran all ``max_iter`` iterations
    ZERO_GRADIENT = "zero_gradient"                  # no descent along the free direction
    NON_FINITE = "non_finite"                        # the gradient or the direction overflowed
    MERGED = "merged"                                # joined a lower-energy lane of its group
    CUT = "cut"                                      # a lane at its lambda or below reached energy <= 0


class NoRootError(ArithmeticError):
    """The requested branch is unreachable along this direction (eta max <= lam*e)."""


STEP_CLIP = 0.5     # a trial step keeps at least this fraction of every nodal value
ARMIJO = 1e-4       # sufficient-decrease fraction of the line search
BACKTRACK = 0.5     # step shrink factor per rejected trial
MAX_BACKTRACKS = 60  # rejected trials before the line search gives up
LBFGS_PAIRS = 10    # curvature pairs (s, y) the quasi-Newton direction remembers
LANE_FORK_MIN_NODES = 100  # mesh nodes from which a solve's lanes split into per-branch groups
MERGE_TOL = 1e-3    # relative lumped-L2 distance within which a lane joins a lower-energy lane
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SolverOptions:
    """The descent's settings that a config file can set (``solver.*``)."""

    energy_tol: float = 1e-10     # relative decrease counted as progress
    stall: int = 25               # iterations without progress before stopping
    max_iter: int = 20000
    residual_tol: float = 1e-8    # normalized weak-form residual at convergence
    seed: int = 0


@dataclass(frozen=True)
class SolveResult:
    u: np.ndarray
    energy: float
    nehari: NehariClass
    residual: Optional[ResidualReport]
    iterations: int
    floor_activations: int        # nodes below the floor at the returned point
    converged: bool
    stop_reason: StopReason
    branch: str = ""
    start: str = ""
    merged_into: str = ""         # the start whose lane this one joined (StopReason.MERGED)


@dataclass(frozen=True)
class SolveReport:
    """Both branch solutions with diagnostics; partial when a branch fails."""

    lam: float
    plus: Optional[SolveResult]
    minus: Optional[SolveResult]
    plus_failures: tuple = ()
    minus_failures: tuple = ()
    plus_merges: tuple = ()   # "name: merged into <start> at iteration <k>", in start order
    minus_merges: tuple = ()

    @property
    def sign_ok(self) -> bool:
        return (
            self.plus is not None
            and self.minus is not None
            and self.plus.converged
            and self.minus.converged
            and self.plus.energy < 0.0 < self.minus.energy
        )


@dataclass(frozen=True)
class _Projected:
    """The point u on the branch, with its energy."""

    u: np.ndarray
    energy: float
    magnitude: float  # the energy's terms summed unsigned (``psi_with_magnitude``)
    tc: float  # u's t_circ, or an estimate of it carried from the base point


def _project(
    mesh: Mesh,
    data: ProblemData,
    w: np.ndarray,
    lam: float,
    branch: Branch,
    fields: FieldSamples,
    warm: Optional[_Projected] = None,
    terms: Optional[FiberTerms] = None,
) -> _Projected:
    """Scale the direction w onto the branch by its own fiber root t (t1 for
    Plus, t2 for Minus); returns the on-manifold point t*w with its energy
    psi(t) (computed from the fiber terms of w).

    The roots are scale-covariant (t_{s w} = t_w / s), so the point does not
    depend on the scale of w and w is not normalized.  ``warm`` is a
    projected point near w (the line search's base point), whose own branch
    root is 1: ``warm_branch_root`` first tries the Newton root from 1,
    certified by the sign of eta' and a probe at the base point's t_circ.
    Otherwise, and for a projection without ``warm``, ``fiber_roots`` solves
    t_circ and the root from their brackets.  ``terms`` are w's fiber terms if
    the caller has them.  Raises NoRootError when the branch is unreachable,
    and OverflowError naming the root when psi(t) leaves the float range at
    a finite t.
    """
    ft = fiber_terms(mesh, data, w, fields) if terms is None else terms
    only = "t1" if branch is Branch.PLUS else "t2"
    t = None if warm is None else warm_branch_root(ft, lam, only, warm.tc)
    if t is None:
        roots = fiber_roots(ft, lam, only=only)
        if not roots.two:
            raise NoRootError(
                f"{branch.value} branch unreachable: eta(t_circ)={roots.eta_max!r} vs lam*e={roots.lambda_e!r}"
            )
        t, tc_w = getattr(roots, only), roots.t_circ
    else:
        tc_w = warm.tc
    try:
        energy, magnitude = psi_with_magnitude(ft, lam, t)
    except OverflowError as exc:  # a finite root so far out that a power of it is not
        raise OverflowError(f"{branch.value} branch root t={t!r}: psi(t) leaves the float range") from exc
    return _Projected(u=t * w, energy=energy, magnitude=magnitude, tc=tc_w / t)


class _LBFGS:
    """The L-BFGS directions of S lanes in the metric P = K + c M, in the
    compact form of Byrd, Nocedal & Schnabel (Math. Prog. 63, 1994, Thm 2.2).
    A lane's last ``LBFGS_PAIRS`` pairs s = u_k - u_{k-1} of projected points
    and y = g_k - g_{k-1} of their gradients are the rows of S and Y; with
    H_0 = gamma P^-1, gamma = s.y / (y.P^-1 y) of the newest pair, R_ij =
    s_i.y_j for pair i no newer than pair j (else 0) and D the diagonal of R,

        H g = gamma (P^-1 g - (P^-1 Y)^T c) + S^T p,    c = R^-1 S g,
        p = R^-T (D c + gamma (Y P^-1 Y^T c - Y P^-1 g)).

    s, y and P^-1 y sit in a stacked (S, LBFGS_PAIRS, M) ring beside D,
    the Gram matrix Y P^-1 Y^T and R^-1; an empty slot is zeros and
    decouples.  R is upper triangular in age order and only R^-1 is kept,
    updated by each push: dropping the oldest pair leaves the rest of R^-1
    as it is (the oldest pair is R's first row and column), so its row is
    zeroed, and the newest pair r = S y, rho = s.y adds R^-1's last column
    -R^-1 r / rho and diagonal entry 1 / rho.  The projection is the
    retraction of Riemannian BFGS (Huang, Gallivan & Absil, SIAM J. Optim.
    25, 2015).
    """

    def __init__(self, lanes: int, m: int):
        k = LBFGS_PAIRS
        self.s, self.y, self.py = (np.zeros((lanes, k, m)) for _ in range(3))
        self.ypy = np.zeros((lanes, k, k))   # y_i . P^-1 y_j
        self.rinv = np.zeros((lanes, k, k))  # R^-1
        self.diag = np.zeros((lanes, k, 1))  # D: s_i . y_i
        self.pushes = np.zeros(lanes, dtype=int)
        self.gamma = np.ones(lanes)

    def keep(self, lanes) -> None:
        """Keep only the lanes the boolean mask ``lanes`` selects, moved up in
        place: copying every ring into fresh memory cost several times more."""
        kept = np.flatnonzero(lanes).tolist()
        for name, arr in list(vars(self).items()):
            for to, lane in enumerate(kept):
                if to != lane:
                    arr[to] = arr[lane]
            setattr(self, name, arr[:len(kept)])

    def clear(self, lanes) -> None:
        """Drop every pair of the selected lanes."""
        for arr in (self.s, self.y, self.py, self.ypy, self.rinv, self.diag, self.pushes):
            arr[lanes] = 0
        self.gamma[lanes] = 1.0

    def push(self, s: np.ndarray, y: np.ndarray, py: np.ndarray) -> None:
        """Remember each lane's pair (s, y), py = P^-1 y, unless s.y <= 0 or
        y.P^-1 y <= 0: only positive curvature keeps H positive definite
        (the second can underflow to 0 when y is tiny)."""
        sy, ypy = lane_dot(s, y), lane_dot(y, py)
        lanes = np.flatnonzero(np.minimum(sy, ypy) > 0.0)
        slot = self.pushes[lanes] % LBFGS_PAIRS
        self.s[lanes, slot], self.y[lanes, slot], self.py[lanes, slot] = s[lanes], y[lanes], py[lanes]
        self.pushes[lanes] += 1
        rho = sy[lanes]
        self.gamma[lanes] = rho / ypy[lanes]
        self.diag[lanes, slot, 0] = rho
        self.ypy[lanes, slot] = self.ypy[lanes, :, slot] = (self.y @ py[..., None])[lanes, :, 0]
        self.rinv[lanes, slot] = 0.0
        self.rinv[lanes, :, slot] = (self.rinv @ (self.s @ y[..., None]))[lanes, :, 0] / -rho[:, None]
        self.rinv[lanes, slot, slot] = 1.0 / rho

    def apply(self, g: np.ndarray, pg: np.ndarray) -> np.ndarray:
        """H g for every lane; pg = P^-1 g, which is H g with no pairs."""
        c = self.rinv @ (self.s @ g[..., None])
        gamma = self.gamma[:, None, None]
        p = np.swapaxes(self.rinv, 1, 2) @ (self.diag * c + gamma * (self.ypy @ c - self.y @ pg[..., None]))
        return gamma[:, 0] * (pg - (np.swapaxes(c, 1, 2) @ self.py)[:, 0]) + (np.swapaxes(p, 1, 2) @ self.s)[:, 0]

    def descent(self, u: np.ndarray, g: np.ndarray, pg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The directions d = H g at u and their slopes g.d over the free
        nodes (u > 0 or d < 0; a node at 0 cannot move down).  A lane whose
        slope is not positive drops its pairs and takes d = P^-1 g."""
        d = self.apply(g, pg)
        gd = lane_dot(np.where((u > 0.0) | (d < 0.0), g, 0.0), d)
        reset = (gd <= 0.0) & (self.pushes > 0)
        if reset.any():
            self.clear(reset)
            return self.descent(u, g, pg)
        return d, gd


@dataclass
class _Lane:
    """One start's descent; ``reason`` is None while it runs."""

    start: str
    group: int  # its (lambda, branch) group's index in the batch
    lam: float
    branch: Branch
    proj: Optional[_Projected] = None  # None before the first projection
    best: Optional[_Projected] = None
    best_resid: float = np.inf
    resid_progress: bool = False
    stall: int = 0
    iterations: int = 0
    reason: Optional[StopReason] = None
    merged_into: str = ""


def _project_lanes(mesh: Mesh, data: ProblemData, w: np.ndarray, lanes: list, fields) -> list:
    """``_project`` of each row of w (S, M) by its lane of ``lanes``: onto
    its branch at its lambda, warm from its point (if any), with the terms of
    one batched breakdown, or the lane's ArithmeticError.  Terms that are not
    finite are recomputed alone, under the caller's numpy error state: an
    overflow fails that lane, not the batch."""
    with np.errstate(all="ignore"):
        lane_terms = FiberTerms.lanes(modular_breakdown(mesh, data, w, fields), data)
    out = []
    for wi, terms, lane in zip(w, lane_terms, lanes):
        try:
            out.append(_project(mesh, data, wi, lane.lam, lane.branch, fields, warm=lane.proj, terms=terms))
        except ArithmeticError as exc:  # an unreachable branch, an overflow, a failed bracket
            out.append(exc)
    return out


def _descend(
    mesh: Mesh, data: ProblemData, groups, starts, fields: FieldSamples, opts: SolverOptions, cut: bool = False
) -> list:
    """Fiber-projected L-BFGS descents in lockstep, one lane per (lambda,
    branch) group of ``groups`` and (name, direction) pair of ``starts``;
    each lane keeps its own counters and stop reason, and drops out when it
    stops or joins a lower-energy lane of its group (``_merge``).  With
    ``cut``, once a lane's projected energy is <= 0, every running lane at
    its lambda or above stops (``_cut``).  Returns, per group, each start's
    ``SolveResult`` or the ArithmeticError that failed its first projection
    or its result, in start order."""
    riesz = riesz_map(mesh)
    names, inits = zip(*starts)
    w = np.maximum(np.asarray(inits, dtype=float), 0.0)
    if not w.any(axis=-1).all():
        raise ValueError("initial direction must be nonnegative and nonzero")
    outcomes = [_Lane(name, g, lam, branch) for g, (lam, branch) in enumerate(groups) for name in names]
    for k, p in enumerate(_project_lanes(mesh, data, np.tile(w, (len(groups), 1)), outcomes, fields)):
        if isinstance(p, _Projected):
            outcomes[k].proj = outcomes[k].best = p
        else:
            outcomes[k] = p
    lanes = [lane for lane in outcomes if isinstance(lane, _Lane)]
    if cut:
        _cut(lanes)
        lanes = [lane for lane in lanes if lane.reason is None]
    memory, prev = _LBFGS(len(lanes), mesh.num_nodes), None  # prev: the last (u, g, P^-1 g)
    u = np.stack([lane.proj.u for lane in lanes]) if lanes else None
    lam_col = np.array([[lane.lam] for lane in lanes])  # the gradient's lambda per lane
    links = _pairs(lanes)

    for iteration in range(1, opts.max_iter + 1):
        if not lanes:
            break
        with np.errstate(all="ignore"):
            g = energy_gradient(mesh, data, u, lam_col, fields)
            pg = riesz(g)
            resid = np.max(np.abs(g) / fields.hat_norm, axis=-1).tolist()
            if prev is not None:
                memory.push(u - prev[0], g - prev[1], pg - prev[2])
            prev = u, g, pg
            d, gd = memory.descent(u, g, pg)
        moves = (np.isfinite(d).all(axis=-1) & np.isfinite(gd)).tolist()
        gd = gd.tolist()
        for i, lane in enumerate(lanes):
            lane.iterations = iteration
            if resid[i] <= 0.5 * opts.residual_tol:
                lane.reason = StopReason.RESIDUAL_TOL
                lane.best = lane.proj  # this iterate, not an earlier lower-energy one, meets the tolerance
            elif not moves[i]:
                lane.reason = StopReason.NON_FINITE
            elif gd[i] <= 0.0:
                lane.reason = StopReason.ZERO_GRADIENT
            # the energy plateaus quadratically faster than the gradient shrinks,
            # so sustained residual contraction also counts as progress
            lane.resid_progress = resid[i] < lane.best_resid * (1.0 - 1e-3)
            lane.best_resid = min(lane.best_resid, resid[i])

        # every lane's line search tries sigma = 1, 1/2, ... in step; a smooth
        # H^1 step cannot lift a node the singular term pins near 0, so no node
        # may lose more than STEP_CLIP of its value per step (this also keeps
        # the trial nonzero)
        search = [i for i, lane in enumerate(lanes) if lane.reason is None]
        for sigma in (BACKTRACK**k for k in range(MAX_BACKTRACKS + 1)):
            if not search:
                break
            base, step = (u, d) if len(search) == len(lanes) else (u[search], d[search])
            with np.errstate(all="ignore"):  # a non-finite trial fails in its own lane's projection
                trial_w = np.maximum(base - sigma * step, STEP_CLIP * base)
            trials = _project_lanes(mesh, data, trial_w, [lanes[i] for i in search], fields)
            search = [i for i, trial in zip(search, trials) if not _accept(lanes[i], trial, sigma * gd[i], opts)]
        for i in search:
            lanes[i].reason = StopReason.LINE_SEARCH_EXHAUSTED  # no representable descent left
        u = np.stack([lane.proj.u for lane in lanes])
        if cut:
            _cut(lanes)
        _merge(mesh, lanes, u, links)
        running = [lane.reason is None for lane in lanes]
        if not all(running):
            memory.keep(running)
            prev = tuple(x[running] for x in prev)
            lanes = [lane for lane, run in zip(lanes, running) if run]
            u, lam_col, links = u[running], lam_col[running], _pairs(lanes)
    for lane in lanes:
        lane.reason = StopReason.MAX_ITER
    results = [_result(mesh, data, out, fields, opts) if isinstance(out, _Lane) else out for out in outcomes]
    return [results[lo:lo + len(starts)] for lo in range(0, len(results), len(starts))]


def _cut(lanes: list) -> None:
    """Stop with StopReason.CUT every running lane at or above the lowest
    lambda at which a lane's projected point has energy <= 0.  A minus point
    bounds the minus branch's minimum at its lambda from above, so that
    point alone shows that this minimum is not positive there."""
    lowest = min((lane.lam for lane in lanes if lane.proj.energy <= 0.0), default=math.inf)
    for lane in lanes:
        if lane.reason is None and lane.lam >= lowest:
            lane.reason = StopReason.CUT


def _pairs(lanes: list) -> tuple:
    """The index pairs (a, b), a < b in lane order, of lanes of one group,
    as a list and as the two index arrays ``_merge`` gathers with."""
    pairs = [(a, b) for a, b in itertools.combinations(range(len(lanes)), 2) if lanes[a].group == lanes[b].group]
    return pairs, *np.array(pairs, dtype=int).reshape(-1, 2).T


def _merge(mesh: Mesh, lanes: list, u: np.ndarray, links: tuple) -> None:
    """Stop each running lane whose projected point (its row of ``u``) lies
    within MERGE_TOL of another running lane's of its group, in the lumped
    L2 distance relative to the smaller of their norms: of the two, the one
    with the higher energy (on a tie, the later lane) stops with
    StopReason.MERGED and names the other in ``merged_into``.  ``links`` is
    ``_pairs(lanes)``; the pairs are taken in lane order, and a lane that
    stopped, before or in an earlier pair, takes part in no later pair.
    Every distance is a per-pair dot product, so a merge does not depend on
    which other lanes share the batch, and no arithmetic of a lane that runs
    on is touched."""
    pairs, first, second = links
    if not pairs:
        return
    live = [lane.reason is None for lane in lanes]
    if not all(live):  # a lane that stopped takes part in no pair, nor in any arithmetic that could raise
        u = np.where(np.array(live)[:, None], u, 0.0)
    norm = np.sqrt(lane_dot(u * u, mesh.node_weight))
    diff = u[first] - u[second]
    near = np.sqrt(lane_dot(diff * diff, mesh.node_weight)) <= MERGE_TOL * np.minimum(norm[first], norm[second])
    for (a, b), close in zip(pairs, near.tolist()):
        lane_a, lane_b = lanes[a], lanes[b]
        if close and lane_a.reason is None and lane_b.reason is None:
            stays, joins = (lane_b, lane_a) if lane_a.proj.energy > lane_b.proj.energy else (lane_a, lane_b)
            joins.reason, joins.merged_into = StopReason.MERGED, stays.start


def _accept(lane: _Lane, trial, decrease: float, opts: SolverOptions) -> bool:
    """Whether the projected trial (an ArithmeticError fails it) passes the
    Armijo test for ``decrease`` = sigma g.d; if so it is the lane's next point."""
    if isinstance(trial, ArithmeticError):
        return False
    # near the minimum the Armijo decrease drops below the energy's
    # floating-point resolution; the slack keeps the tail iterations
    # contracting the gradient instead of aborting the line search.  It
    # scales with the energy's terms, not with |E|, which cancellation
    # can make far smaller than the terms' rounding
    slack = 8.0 * _EPS * max(1.0, lane.proj.magnitude)
    if not (math.isfinite(trial.energy) and trial.energy <= lane.proj.energy - ARMIJO * decrease + slack):
        return False
    best = lane.best
    energy_progress = best.energy - trial.energy > opts.energy_tol * max(1.0, abs(best.energy))
    lane.stall = 0 if (energy_progress or lane.resid_progress) else lane.stall + 1
    lane.best = trial if trial.energy < best.energy else best
    lane.proj = trial
    if lane.stall >= opts.stall:
        lane.reason = StopReason.STALL
    return True


def _result(mesh, data, lane: _Lane, fields, opts: SolverOptions) -> SolveResult:
    """The ``SolveResult`` of a stopped lane, at its best point at its
    lambda, or the ArithmeticError that classifying that point raised (a far
    projected point's squared gradients can overflow where its energy does
    not)."""
    u = lane.best.u
    floor_activations = int(np.sum(u < DEFAULT_FLOOR))
    positive = bool(np.min(u) > 0.0)
    # an overflowed lane has no residual, nor does a merged or cut one: it is not converged by definition
    checked = positive and lane.reason not in (StopReason.NON_FINITE, StopReason.MERGED, StopReason.CUT)
    try:
        nehari = classify_nehari(mesh, data, u, lane.lam, fields)
        residual = weak_residual(mesh, data, u, lane.lam, fields) if checked else None
    except ArithmeticError as exc:
        return exc
    converged = (
        lane.reason is not StopReason.MAX_ITER
        and positive
        and floor_activations == 0
        and nehari.kind is lane.branch.nehari_kind
        and residual is not None
        and residual.residual_norm <= opts.residual_tol
    )
    return SolveResult(
        u=u, energy=lane.best.energy, nehari=nehari, residual=residual, iterations=lane.iterations,
        floor_activations=floor_activations, converged=converged, stop_reason=lane.reason, branch=lane.branch.value,
        start=lane.start, merged_into=lane.merged_into,
    )


def minimize_on_branch(
    mesh: Mesh,
    data: ProblemData,
    lam: float,
    branch: Branch,
    init,
    fields: FieldSamples,
    opts: Optional[SolverOptions] = None,
) -> SolveResult:
    """Fiber-projected L-BFGS descent in the H^1 metric from ``init`` on one
    branch (``_descend`` of one group and one start).

    Stops when the projected energy fails to decrease (relative energy_tol)
    for ``stall`` iterations, or early when the normalized gradient already
    meets the residual tolerance; returns the best projected iterate and
    records why the loop ended in ``stop_reason``.  ``converged`` requires
    that the loop did not run out of iterations, and additionally the branch
    class, strict nodal positivity, an inactive singular floor and the weak
    residual bound (not computed after an overflow).  An ArithmeticError of
    the first projection or of the result propagates.
    """
    ((out,),) = _descend(mesh, data, [(lam, branch)], [("", init)], fields, opts or SolverOptions())
    if isinstance(out, ArithmeticError):
        raise out
    return out


def multistart_directions(mesh: Mesh, seed: int = 0) -> list:
    """Deterministic start set: all-ones, first-coordinate ramp, radial bump,
    plus each perturbed by +-10% with a seeded generator."""
    x0, y0, x1, y1 = mesh.rect
    xh = (mesh.nodes[:, 0] - x0) / (x1 - x0)
    yh = (mesh.nodes[:, 1] - y0) / (y1 - y0)
    ones = np.ones(mesh.num_nodes)
    ramp = xh.copy()
    bump = np.exp(-8.0 * ((xh - 0.5) ** 2 + (yh - 0.5) ** 2))
    rng = np.random.default_rng(seed)
    starts = [("ones", ones), ("ramp", ramp), ("bump", bump)]
    perturbed = []
    for name, base in starts:
        factors = 1.0 + 0.1 * (2.0 * rng.random(mesh.num_nodes) - 1.0)
        perturbed.append((name + "_perturbed", base * factors))
    return starts + perturbed


def solve_branch(
    mesh: Mesh,
    data: ProblemData,
    lam: float,
    branch: Branch,
    fields: FieldSamples,
    opts: Optional[SolverOptions] = None,
) -> tuple[list, tuple]:
    """Descend on one branch from every start of ``multistart_directions``.

    Returns (results, failures): the ``SolveResult``s in start order, each
    with ``start`` set to its start's name, and one (name, exception) pair
    per start whose descent raised an ArithmeticError, in start order.  A
    start whose lane joined a lower-energy lane stops there, unconverged,
    with ``StopReason.MERGED`` and that lane's start in ``merged_into``.  A
    NoRootError there means the branch is unreachable along that start; any
    other ArithmeticError (an overflow, a failed bracket) is a numerical
    failure.  A failed start never costs the other starts their results.
    """
    return _solve_branches(mesh, data, lam, (branch,), fields, opts)[0]


def _solve_branches(
    mesh: Mesh, data: ProblemData, lam: float, branches, fields: FieldSamples, opts: Optional[SolverOptions]
) -> list:
    """``solve_branch`` of each of ``branches``, each one (lam, branch)
    group of ``_descend``.

    A lane joins only a lower-energy lane of its own group (``_merge``), so
    ``forkmap._fork_map`` may cut ``branches`` into chunks, one per CPU and
    at most one per branch, capped at one chunk below LANE_FORK_MIN_NODES
    mesh nodes: with two CPUs each branch's group descends as a batch of its
    own, the first on a forked worker, the last, in ``solve_two`` the minus
    group, the longer one, in this process.  Otherwise, and for one branch,
    every group descends in-process in one batch.  A chunk that no worker
    delivers is descended in-process.  The outcomes are bit for bit the same
    however the groups are batched, and a lane that did not merge is bit
    for bit its start's one-lane descent."""
    if opts is None:
        opts = SolverOptions()
    starts = multistart_directions(mesh, opts.seed)

    def descend(branches) -> list:
        return _descend(mesh, data, [(lam, branch) for branch in branches], starts, fields, opts)

    most = 1 if mesh.num_nodes < LANE_FORK_MIN_NODES else None
    return [
        (
            [out for out in outs if isinstance(out, SolveResult)],
            tuple((name, out) for (name, _), out in zip(starts, outs) if not isinstance(out, SolveResult)),
        )
        for outs in _fork_map(descend, branches, most=most)
    ]


def solve_two(
    mesh: Mesh, data: ProblemData, lam: float, fields: FieldSamples, opts: Optional[SolverOptions] = None
) -> SolveReport:
    """Best Plus and best Minus results over the multi-start set.

    Failed starts are reported, not fatal, one line each: ``"name: reason"``
    for an unreachable start, ``"name: numerical failure (<type>):
    <message>"`` for any other.  Each start whose lane merged into another's
    has a line ``"name: merged into <start> at iteration <k>"`` in the
    branch's merges.  Each branch keeps its first result in start order that
    is minimal under (not converged, energy).  The starts of both branches
    descend as the lanes of lockstep batches, split on larger meshes into
    the plus group on a forked worker and the minus group in this process
    (``_solve_branches``); each result is its ``solve_branch`` result, bit
    for bit.
    """
    best, failures, merges = [], [], []
    for results, fails in _solve_branches(mesh, data, lam, (Branch.PLUS, Branch.MINUS), fields, opts):
        best.append(min(results, key=lambda r: (not r.converged, r.energy), default=None))
        failures.append(tuple(
            f"{name}: {exc}" if isinstance(exc, NoRootError)
            else f"{name}: numerical failure ({type(exc).__name__}): {exc}"
            for name, exc in fails
        ))
        merges.append(tuple(
            f"{r.start}: merged into {r.merged_into} at iteration {r.iterations}"
            for r in results if r.stop_reason is StopReason.MERGED
        ))
    return SolveReport(lam, *best, *failures, *merges)
