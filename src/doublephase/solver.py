"""Branch minimization on the constraint manifold: fiber-projected descent.

Each iterate is a nonnegative direction w, scaled onto the requested branch
by its own fiber root (t1 for Plus, t2 for Minus); no direction is
normalized, because the roots are scale-covariant.  From the projected
point u a line-searched step is taken along d = H g, the L-BFGS direction
of the nodal energy gradient g in the H^1 (Sobolev) metric P = K + c M,
with K the P1 stiffness, M the mass and c = 10/|Omega|: the two-loop
recursion over the last 10 pairs of projected points and their gradients,
with H_0 = gamma P^-1 (``mesh.riesz_map``).  The Euclidean gradient's
conditioning degrades like h^-2; the H^1 gradient P^-1 g's does not, so the
iteration count does not grow with the mesh, and the pairs add the
curvature P misses.  The line search tries sigma = 1 first, and each trial point
max(u - sigma d, u/2) keeps at least half of every nodal value, so the
smooth direction cannot drive a node into the singular term's spike near 0.
The projection keeps iterates exactly on the manifold, where the energy is
coercive, and at a constrained minimizer the full discrete weak form holds
(the multiplier vanishes because psi'(1) = 0 there).  Multi-start over
deterministic seeds guards against missing the branch minimum.
"""
from __future__ import annotations

import collections
import enum
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .energy import DEFAULT_FLOOR, energy_gradient, hat_norms_1p, weak_residual, ResidualReport
from .fibering import (
    NehariClass,
    NehariKind,
    classify_nehari,
    fiber_roots,
    fiber_terms,
    psi,
    psi_magnitude,
)
from .mesh import Mesh, riesz_map
from .problem import ProblemData
from .rootfind import BracketError
from .space import FieldSamples, sample_fields
# unused here, but the benchmark's tracer wraps ``solver.luxemburg_norm`` by name
from .space import luxemburg_norm  # noqa: F401

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


class NoRootError(RuntimeError):
    """The requested branch is unreachable along this direction (eta max <= lam*e)."""


RIESZ_SHIFT = 10.0  # mass weight of the H^1 metric K + c M, times the area: c = 10/|Omega|
STEP_CLIP = 0.5     # a trial step keeps at least this fraction of every nodal value
ARMIJO = 1e-4       # sufficient-decrease fraction of the line search
BACKTRACK = 0.5     # step shrink factor per rejected trial
MAX_BACKTRACKS = 60  # rejected trials before the line search gives up
LBFGS_PAIRS = 10    # curvature pairs (s, y) the quasi-Newton direction remembers


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


@dataclass(frozen=True)
class SolveReport:
    """Both branch solutions with diagnostics; partial when a branch fails."""

    lam: float
    plus: Optional[SolveResult]
    minus: Optional[SolveResult]
    plus_failures: tuple = ()
    minus_failures: tuple = ()

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
    u: np.ndarray
    energy: float
    t_circ: float  # fiber maximizer of u itself
    magnitude: float  # the energy's terms summed unsigned (``psi_magnitude``)


def _project(
    mesh: Mesh,
    data: ProblemData,
    w: np.ndarray,
    lam: float,
    branch: Branch,
    fields: Optional[FieldSamples] = None,
    warm: Optional[_Projected] = None,
) -> _Projected:
    """Scale the direction w onto the branch by its own fiber root t (t1 for
    Plus, t2 for Minus); returns the on-manifold point t*w with its energy
    psi(t) (computed from the fiber terms of w).

    The roots are scale-covariant (t_{s w} = t_w / s), so the point does not
    depend on the scale of w and w is not normalized.  ``warm`` is a
    projected point near w (the line search's base point): its own branch
    root is 1, which seeds t, and its t_circ seeds the fiber maximizer.
    Raises NoRootError when the branch is unreachable.
    """
    ft = fiber_terms(mesh, data, w, fields)
    start, tc_start = (None, None) if warm is None else (1.0, warm.t_circ)
    only = "t1" if branch is Branch.PLUS else "t2"
    roots = fiber_roots(ft, lam, start=start, tc_start=tc_start, only=only)
    if not roots.two:
        raise NoRootError(
            f"{branch.value} branch unreachable: eta(t_circ)={roots.eta_max!r} vs lam*e={roots.lambda_e!r}"
        )
    t = roots.t1 if branch is Branch.PLUS else roots.t2
    return _Projected(
        u=t * w, energy=psi(ft, lam, t), t_circ=roots.t_circ / t, magnitude=psi_magnitude(ft, lam, t)
    )


class _LBFGS:
    """The L-BFGS direction in the metric P = K + c M (Nocedal & Wright,
    *Numerical Optimization*, 2006, Alg. 7.4): the last ``LBFGS_PAIRS``
    pairs s = u_k - u_{k-1} of projected points and y = g_k - g_{k-1} of
    their gradients, with H_0 = gamma P^-1 and gamma = s.y / (y.P^-1 y) of
    the newest pair.  The projection is the retraction of Riemannian BFGS
    (Huang, Gallivan & Absil, SIAM J. Optim. 25, 2015).
    """

    def __init__(self, riesz):
        self.riesz = riesz
        self.pairs = collections.deque(maxlen=LBFGS_PAIRS)  # (s, y, 1/s.y), oldest first
        self.gamma = 1.0

    def push(self, s: np.ndarray, y: np.ndarray, py: np.ndarray) -> None:
        """Remember the pair (s, y), py = P^-1 y, unless s.y <= 0: only
        positive curvature keeps H positive definite."""
        sy = float(s @ y)
        if sy > 0.0:
            self.pairs.append((s, y, 1.0 / sy))
            self.gamma = sy / float(y @ py)

    def apply(self, g: np.ndarray, pg: np.ndarray) -> np.ndarray:
        """H g by the two-loop recursion; pg = P^-1 g, which is H g with no pairs."""
        if not self.pairs:
            return pg
        q = g.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            alpha = rho * float(s @ q)
            q -= alpha * y
            alphas.append(alpha)
        r = self.gamma * self.riesz(q)
        for (s, y, rho), alpha in zip(self.pairs, reversed(alphas)):
            r += (alpha - rho * float(y @ r)) * s
        return r

    def descent(self, u: np.ndarray, g: np.ndarray, pg: np.ndarray) -> tuple[np.ndarray, float]:
        """The direction d = H g at u and its slope g.d over the free nodes
        (u > 0 or d < 0; a node at 0 cannot move down).  When that slope is
        not positive the pairs are dropped and d = P^-1 g."""
        d = self.apply(g, pg)
        free = (u > 0.0) | (d < 0.0)
        gd = float(g[free] @ d[free])
        if gd <= 0.0 and self.pairs:
            self.pairs.clear()
            return self.descent(u, g, pg)
        return d, gd


def minimize_on_branch(
    mesh: Mesh,
    data: ProblemData,
    lam: float,
    branch: Branch,
    init,
    opts: Optional[SolverOptions] = None,
) -> SolveResult:
    """Fiber-projected L-BFGS descent in the H^1 metric from ``init`` on one branch.

    Stops when the projected energy fails to decrease (relative energy_tol)
    for ``stall`` iterations, or early when the normalized gradient already
    meets the residual tolerance; returns the best projected iterate and
    records why the loop ended in ``stop_reason``.  ``converged`` requires
    that the loop did not run out of iterations, and additionally the branch
    class, strict nodal positivity, an inactive singular floor and the weak
    residual bound.
    """
    if opts is None:
        opts = SolverOptions()
    fields = sample_fields(mesh, data)
    hn = hat_norms_1p(mesh, data, fields)
    riesz = riesz_map(mesh, RIESZ_SHIFT / mesh.area)

    w = np.maximum(np.asarray(init, dtype=float), 0.0)
    if not w.any():
        raise ValueError("initial direction must be nonnegative and nonzero")

    proj = _project(mesh, data, w, lam, branch, fields)  # NoRootError propagates
    best = proj
    best_resid = np.inf
    stall = 0
    memory = _LBFGS(riesz)
    prev_u = prev_g = prev_pg = None
    iterations = 0
    reason = StopReason.MAX_ITER

    for iterations in range(1, opts.max_iter + 1):
        g = energy_gradient(mesh, data, proj.u, lam, fields).values
        resid = float(np.max(np.abs(g) / hn))
        if resid <= 0.5 * opts.residual_tol:
            reason = StopReason.RESIDUAL_TOL
            best = proj  # this iterate, not an earlier lower-energy one, meets the tolerance
            break
        # the energy plateaus quadratically faster than the gradient shrinks,
        # so sustained residual contraction also counts as progress
        resid_progress = resid < best_resid * (1.0 - 1e-3)
        if resid < best_resid:
            best_resid = resid
        pg = riesz(g)
        if prev_u is not None:
            memory.push(proj.u - prev_u, g - prev_g, pg - prev_pg)
        prev_u, prev_g, prev_pg = proj.u, g, pg
        d, gd = memory.descent(proj.u, g, pg)
        if gd <= 0.0:
            reason = StopReason.ZERO_GRADIENT
            break

        # near the minimum the Armijo decrease drops below the energy's
        # floating-point resolution; the slack keeps the tail iterations
        # contracting the gradient instead of aborting the line search.  It
        # scales with the energy's terms, not with |E|, which cancellation
        # can make far smaller than the terms' rounding
        slack = 8.0 * np.finfo(float).eps * max(1.0, proj.magnitude)
        sigma = 1.0
        accepted = None
        for _ in range(MAX_BACKTRACKS + 1):
            # a smooth H^1 step cannot lift a node the singular term pins near
            # 0, so no node may lose more than STEP_CLIP of its value per step
            # (this also keeps the trial nonzero)
            trial_w = np.maximum(proj.u - sigma * d, STEP_CLIP * proj.u)
            try:
                trial = _project(mesh, data, trial_w, lam, branch, fields, warm=proj)
            except (NoRootError, BracketError):
                trial = None
            if (
                trial is not None
                and np.isfinite(trial.energy)
                and trial.energy <= proj.energy - ARMIJO * sigma * gd + slack
            ):
                accepted = trial
                break
            sigma *= BACKTRACK
        if accepted is None:
            reason = StopReason.LINE_SEARCH_EXHAUSTED  # no representable descent left
            break

        energy_progress = best.energy - accepted.energy > opts.energy_tol * max(
            1.0, abs(best.energy)
        )
        stall = 0 if (energy_progress or resid_progress) else stall + 1
        if accepted.energy < best.energy:
            best = accepted
        proj = accepted
        if stall >= opts.stall:
            reason = StopReason.STALL
            break

    u = best.u
    nehari = classify_nehari(mesh, data, u, lam, fields)
    floor_activations = int(np.sum(u < DEFAULT_FLOOR))
    positive = bool(np.min(u) > 0.0)
    residual = weak_residual(mesh, data, u, lam, fields) if positive else None
    converged = (
        reason is not StopReason.MAX_ITER
        and positive
        and floor_activations == 0
        and nehari.kind is branch.nehari_kind
        and residual is not None
        and residual.residual_norm <= opts.residual_tol
    )
    return SolveResult(
        u=u,
        energy=best.energy,
        nehari=nehari,
        residual=residual,
        iterations=iterations,
        floor_activations=floor_activations,
        converged=converged,
        stop_reason=reason,
        branch=branch.value,
    )


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
    mesh: Mesh, data: ProblemData, lam: float, branch: Branch, opts: Optional[SolverOptions] = None
) -> tuple[list, tuple]:
    """Descend on one branch from every start of ``multistart_directions``.

    Returns (results, failures): the ``SolveResult``s in start order, each
    with ``start`` set to its start's name, and one ``"name: reason"`` entry
    per start along which the branch is unreachable (NoRootError).
    """
    if opts is None:
        opts = SolverOptions()
    results, failures = [], []
    for name, w in multistart_directions(mesh, opts.seed):
        try:
            res = minimize_on_branch(mesh, data, lam, branch, w, opts)
        except NoRootError as exc:
            failures.append(f"{name}: {exc}")
            continue
        results.append(replace(res, start=name))
    return results, tuple(failures)


def solve_two(
    mesh: Mesh, data: ProblemData, lam: float, opts: Optional[SolverOptions] = None
) -> SolveReport:
    """Best Plus and best Minus results over the multi-start set.

    Branch failures (NoRoot along every start) are reported, not fatal; each
    branch keeps its first result in start order that is minimal under
    (not converged, energy).
    """
    best, failures = [], []
    for branch in (Branch.PLUS, Branch.MINUS):
        results, fails = solve_branch(mesh, data, lam, branch, opts)
        best.append(min(results, key=lambda r: (not r.converged, r.energy), default=None))
        failures.append(fails)
    return SolveReport(lam, *best, *failures)
