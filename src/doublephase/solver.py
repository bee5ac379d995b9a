"""Branch minimization on the constraint manifold: fiber-projected descent.

Each iterate is a nonnegative direction w; it is normalized in the working
norm, scaled onto the requested branch by the fiber root (t1 for Plus, t2
for Minus), and a line-searched step along the negative energy gradient is
taken from the projected point.  The projection keeps iterates exactly on
the manifold, where the energy is coercive, and at a constrained minimizer
the full discrete weak form holds (the multiplier vanishes because
psi'(1) = 0 there).  Multi-start over deterministic seeds guards against
missing the branch minimum.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .energy import energy_gradient, hat_norms_1p, weak_residual, ResidualReport
from .fibering import (
    NehariClass,
    NehariKind,
    classify_nehari,
    fiber_roots,
    fiber_terms,
    psi,
)
from .mesh import Mesh
from .problem import ProblemData
from .rootfind import BracketError
from .space import FieldSamples, luxemburg_norm, power_modular, sample_fields

__all__ = [
    "Branch",
    "NoRootError",
    "SolverOptions",
    "SolveResult",
    "SolveReport",
    "project_to_nehari",
    "minimize_on_branch",
    "multistart_directions",
    "solve_two",
]


class Branch(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"

    @property
    def nehari_kind(self) -> NehariKind:
        return NehariKind.PLUS if self is Branch.PLUS else NehariKind.MINUS


class NoRootError(RuntimeError):
    """The requested branch is unreachable along this direction (eta max <= lam*e)."""


@dataclass(frozen=True)
class SolverOptions:
    energy_tol: float = 1e-10     # relative decrease counted as progress
    stall: int = 25               # iterations without progress before stopping
    max_iter: int = 20000
    residual_tol: float = 1e-8    # normalized weak-form residual at convergence
    nehari_tol: float = 1e-9
    floor: float = 1e-10          # singular-term gradient floor
    armijo: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 60
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
    t: float       # fiber root of the normalized direction, and the norm of u
    t_circ: float  # fiber maximizer of the normalized direction


def _project(
    mesh: Mesh,
    data: ProblemData,
    w: np.ndarray,
    lam: float,
    branch: Branch,
    fields: Optional[FieldSamples] = None,
    warm: Optional[_Projected] = None,
) -> _Projected:
    """Normalize the direction w and scale it onto the branch by the fiber
    root t (t1 for Plus, t2 for Minus); returns the on-manifold point with
    its energy (computed from the fiber terms).

    ``warm`` is a projected point near w (the line search's base point):
    its norm t seeds the norm of w, and its t_circ and t seed the fiber
    roots of the normalized direction.  Raises NoRootError when the branch
    is unreachable.
    """
    ft = fiber_terms(mesh, data, w, fields)
    nrm = luxemburg_norm(
        power_modular([(ft.a, ft.p), (ft.b, ft.q), (ft.c, ft.p_lower_star)]),
        start=None if warm is None else warm.t,
    )
    if nrm == 0.0:
        raise ValueError("cannot project the zero direction")
    ftn = ft.scaled(1.0 / nrm)
    start, tc_start = (None, None) if warm is None else (warm.t, warm.t_circ)
    only = "t1" if branch is Branch.PLUS else "t2"
    roots = fiber_roots(ftn, lam, start=start, tc_start=tc_start, only=only)
    if not roots.two:
        raise NoRootError(
            f"{branch.value} branch unreachable: eta(t_circ)={roots.eta_max!r} vs lam*e={roots.lambda_e!r}"
        )
    t = roots.t1 if branch is Branch.PLUS else roots.t2
    return _Projected(u=(t / nrm) * w, energy=psi(ftn, lam, t), t=t, t_circ=roots.t_circ)


def project_to_nehari(
    mesh: Mesh,
    data: ProblemData,
    u,
    lam: float,
    branch: Branch,
    fields: Optional[FieldSamples] = None,
) -> np.ndarray:
    """Scale u onto the requested branch: t1*u (Plus) or t2*u (Minus), the
    roots of u's own fiber (computed through the normalized direction).

    Raises NoRootError when the direction admits no root at this lam.
    """
    return _project(mesh, data, np.asarray(u, dtype=float), lam, branch, fields).u


def minimize_on_branch(
    mesh: Mesh,
    data: ProblemData,
    lam: float,
    branch: Branch,
    init,
    opts: Optional[SolverOptions] = None,
) -> SolveResult:
    """Fiber-projected gradient descent from ``init`` on one branch.

    Stops when the projected energy fails to decrease (relative energy_tol)
    for ``stall`` iterations, or early when the normalized gradient already
    meets the residual tolerance; returns the best projected iterate.
    ``converged`` additionally requires the branch class, strict nodal
    positivity, an inactive singular floor and the weak residual bound.
    """
    if opts is None:
        opts = SolverOptions()
    fields = sample_fields(mesh, data)
    hn = hat_norms_1p(mesh, data, fields)

    w = np.maximum(np.asarray(init, dtype=float), 0.0)
    if not w.any():
        raise ValueError("initial direction must be nonnegative and nonzero")

    proj = _project(mesh, data, w, lam, branch, fields)  # NoRootError propagates
    best = proj
    best_resid = np.inf
    stall = 0
    reached_tol = False
    prev_u = prev_g = None
    iterations = 0

    for iterations in range(1, opts.max_iter + 1):
        g = energy_gradient(mesh, data, proj.u, lam, opts.floor, fields).values
        resid = float(np.max(np.abs(g) / hn))
        if resid <= 0.5 * opts.residual_tol:
            reached_tol = True
            best = proj  # this iterate, not an earlier lower-energy one, meets the tolerance
            break
        # the energy plateaus quadratically faster than the gradient shrinks,
        # so sustained residual contraction also counts as progress
        resid_progress = resid < best_resid * (1.0 - 1e-3)
        if resid < best_resid:
            best_resid = resid
        free = (proj.u > 0.0) | (g < 0.0)
        gg = float(g[free] @ g[free])
        if gg == 0.0:
            break

        if prev_u is None:
            sigma = 1.0 / float(np.max(np.abs(g)))
        else:
            du = proj.u - prev_u
            dg = g - prev_g
            denom = float(dg @ dg)
            sigma = abs(float(du @ dg)) / denom if denom > 0 else 1.0 / float(np.max(np.abs(g)))
        sigma = min(max(sigma, 1e-14), 1e10)
        prev_u, prev_g = proj.u, g

        # near the minimum the Armijo decrease drops below the energy's
        # floating-point resolution; the slack keeps the tail iterations
        # contracting the gradient instead of aborting the line search
        slack = 8.0 * np.finfo(float).eps * max(1.0, abs(proj.energy))
        accepted = None
        for _ in range(opts.max_backtracks + 1):
            trial_w = np.maximum(proj.u - sigma * g, 0.0)
            if trial_w.any():
                try:
                    trial = _project(mesh, data, trial_w, lam, branch, fields, warm=proj)
                except (NoRootError, BracketError):
                    trial = None
                if (
                    trial is not None
                    and np.isfinite(trial.energy)
                    and trial.energy <= proj.energy - opts.armijo * sigma * gg + slack
                ):
                    accepted = trial
                    break
            sigma *= opts.backtrack
        if accepted is None:
            break  # line search exhausted: no representable descent left

        energy_progress = best.energy - accepted.energy > opts.energy_tol * max(
            1.0, abs(best.energy)
        )
        stall = 0 if (energy_progress or resid_progress) else stall + 1
        if accepted.energy < best.energy:
            best = accepted
        proj = accepted
        if stall >= opts.stall:
            break

    hit_max_iter = iterations >= opts.max_iter and not reached_tol and stall < opts.stall
    u = best.u
    nehari = classify_nehari(mesh, data, u, lam, tol=opts.nehari_tol, fields=fields)
    floor_activations = int(np.sum(u < opts.floor))
    positive = bool(np.min(u) > 0.0)
    residual = weak_residual(mesh, data, u, lam, fields) if positive else None
    converged = (
        not hit_max_iter
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


def solve_two(
    mesh: Mesh, data: ProblemData, lam: float, opts: Optional[SolverOptions] = None
) -> SolveReport:
    """Best Plus and best Minus results over the multi-start set.

    Branch failures (NoRoot along every start) are reported, not fatal;
    results are merged deterministically by (converged, energy, start index).
    """
    if opts is None:
        opts = SolverOptions()
    starts = multistart_directions(mesh, opts.seed)
    picked = {}
    failures = {}
    for branch in (Branch.PLUS, Branch.MINUS):
        results = []
        fails = []
        for idx, (name, w) in enumerate(starts):
            try:
                res = minimize_on_branch(mesh, data, lam, branch, w, opts)
            except NoRootError as exc:
                fails.append(f"{name}: {exc}")
                continue
            results.append((idx, replace(res, start=name)))
        if results:
            results.sort(key=lambda pair: (not pair[1].converged, pair[1].energy, pair[0]))
            picked[branch] = results[0][1]
        else:
            picked[branch] = None
        failures[branch] = tuple(fails)
    return SolveReport(
        lam=lam,
        plus=picked[Branch.PLUS],
        minus=picked[Branch.MINUS],
        plus_failures=failures[Branch.PLUS],
        minus_failures=failures[Branch.MINUS],
    )
