"""Scalar fiber analysis: the energy along rays t -> Theta(t u).

For fixed u everything reduces to five nonnegative scalars

    a = |u|_{1,p}^p,  b = int mu |grad u|^q,  c = bdry int beta |u|^{p_*},
    d = int zeta |u|^{1-kappa},  e = int |u|^{q1},

from which the fiber map psi, the root-locating maps eta, eta_tilde, xi,
the closed-form maximizer of eta_tilde and the roots t1 < t_circ < t2 of
eta(t) = lam*e all follow; psi, eta, xi and the root maps are power sums
solved by the shared safeguarded Newton finder.  u lies on the constraint
manifold when psi'(1) = 0; the sign of psi''(1) splits it into the
plus/zero/minus branches.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mesh import Mesh
from .problem import ProblemData
from .rootfind import expand_bracket, hybrid_root, power_sum
from .space import FieldSamples, modular_breakdown

__all__ = [
    "FiberTerms",
    "FiberRoots",
    "NehariKind",
    "NehariClass",
    "fiber_terms",
    "psi",
    "psi_derivatives",
    "eta",
    "eta_prime",
    "eta_tilde",
    "xi",
    "t_tilde_circ",
    "t_circ",
    "fiber_roots",
    "classify_nehari",
]

ROOT_TOL = 1e-12      # relative residual of located roots
TANGENT_TOL = 1e-10   # relative width of the declared tangency band


@dataclass(frozen=True)
class FiberTerms:
    a: float
    b: float
    c: float
    d: float
    e: float
    p: float
    q: float
    p_lower_star: float
    q1: float
    kappa: float

    def scaled(self, s: float) -> "FiberTerms":
        """Fiber terms of s*u given those of u (pure power scaling)."""
        return FiberTerms(
            self.a * s**self.p, self.b * s**self.q, self.c * s**self.p_lower_star,
            self.d * s ** (1.0 - self.kappa), self.e * s**self.q1,
            self.p, self.q, self.p_lower_star, self.q1, self.kappa,
        )


class NehariKind(enum.Enum):
    NOT_ON_NEHARI = "not_on_nehari"
    PLUS = "plus"
    ZERO = "zero"
    MINUS = "minus"


@dataclass(frozen=True)
class NehariClass:
    kind: NehariKind
    dpsi1: float   # psi'(1), the manifold defect
    ddpsi1: float  # psi''(1)
    tol: float


def fiber_terms(
    mesh: Mesh, data: ProblemData, u, fields: Optional[FieldSamples] = None
) -> FiberTerms:
    bd = modular_breakdown(mesh, data, u, fields)
    return FiberTerms(
        a=bd.grad_p + bd.mass_p_alpha,
        b=bd.grad_q_mu,
        c=bd.bdry_pstar_beta,
        d=bd.zeta_sing,
        e=bd.mass_q1,
        p=data.p,
        q=data.q,
        p_lower_star=data.p_lower_star,
        q1=data.q1,
        kappa=data.kappa,
    )


def _psi_terms(ft: FiberTerms, lam: float) -> list:
    p, q, ps, q1, k = ft.p, ft.q, ft.p_lower_star, ft.q1, ft.kappa
    return [(ft.a / p, p), (ft.b / q, q), (ft.c / ps, ps), (-ft.d / (1.0 - k), 1.0 - k), (-lam * ft.e / q1, q1)]


def psi(ft: FiberTerms, lam: float, t: float) -> float:
    """Fiber energy Theta(t u); psi(0) = 0 by convention."""
    if t < 0:
        raise ValueError("fiber parameter t must be >= 0")
    return power_sum(_psi_terms(ft, lam))(t)[0] if t > 0 else 0.0


def psi_derivatives(ft: FiberTerms, lam: float, t: float) -> tuple[float, float, float]:
    """(psi, psi', psi'') at t > 0 (the derivatives carry singular powers of t)."""
    if t <= 0:
        raise ValueError("fiber derivatives need t > 0")
    terms = _psi_terms(ft, lam)
    val, d1 = power_sum(terms)(t)
    return val, d1, power_sum([(c * r, r - 1.0) for c, r in terms])(t)[1]


def _eta_terms(ft: FiberTerms) -> list:
    p, q, ps, q1, k = ft.p, ft.q, ft.p_lower_star, ft.q1, ft.kappa
    return [(ft.a, p - q1), (ft.b, q - q1), (ft.c, ps - q1), (-ft.d, 1.0 - q1 - k)]


def eta(ft: FiberTerms, t: float) -> float:
    """a t^{p-q1} + b t^{q-q1} + c t^{p_*-q1} - d t^{1-q1-kappa}; satisfies
    psi'(t) = t^{q1-1} (eta(t) - lam e)."""
    if t <= 0:
        raise ValueError("eta needs t > 0")
    return power_sum(_eta_terms(ft))(t)[0]


def eta_prime(ft: FiberTerms, t: float) -> float:
    if t <= 0:
        raise ValueError("eta_prime needs t > 0")
    return power_sum(_eta_terms(ft))(t)[1]


def eta_tilde(ft: FiberTerms, t: float) -> float:
    """The reduced map a t^{p-q1} - d t^{1-q1-kappa} (only the a and d terms)."""
    if t <= 0:
        raise ValueError("eta_tilde needs t > 0")
    return ft.a * t ** (ft.p - ft.q1) - ft.d * t ** (1.0 - ft.q1 - ft.kappa)


def _xi_terms(ft: FiberTerms) -> list:
    p, q, ps, q1, k = ft.p, ft.q, ft.p_lower_star, ft.q1, ft.kappa
    return [((q1 - p) * ft.a, p + k - 1.0), ((q1 - q) * ft.b, q + k - 1.0), ((q1 - ps) * ft.c, ps + k - 1.0)]


def xi(ft: FiberTerms, t: float) -> float:
    """(q1-p) a t^{p+k-1} + (q1-q) b t^{q+k-1} + (q1-p_*) c t^{p_*+k-1};
    strictly increasing, and eta'(t) = 0 iff xi(t) = (q1+k-1) d."""
    if t <= 0:
        raise ValueError("xi needs t > 0")
    return power_sum(_xi_terms(ft))(t)[0]


def t_tilde_circ(ft: FiberTerms) -> tuple[float, float]:
    """Closed-form maximizer of eta_tilde and its maximum value.

    The maximum is evaluated both directly and through the closed-form value
    expression; the two must agree to 1e-12 relative.  Degenerate when a = 0
    or d = 0.
    """
    if ft.a <= 0 or ft.d <= 0:
        raise ValueError("t_tilde_circ needs a > 0 and d > 0")
    p, q1, k = ft.p, ft.q1, ft.kappa
    r = p + k - 1.0
    t_tilde = ((q1 + k - 1.0) * ft.d / ((q1 - p) * ft.a)) ** (1.0 / r)
    direct = eta_tilde(ft, t_tilde)
    closed = (
        (r / (q1 - p))
        * ((q1 - p) / (q1 + k - 1.0)) ** ((q1 + k - 1.0) / r)
        * ft.a ** ((q1 + k - 1.0) / r)
        / ft.d ** ((q1 - p) / r)
    )
    if abs(direct - closed) > 1e-12 * max(abs(direct), abs(closed)):
        raise ArithmeticError(
            f"eta_tilde maximum mismatch: direct {direct!r} vs closed form {closed!r}"
        )
    return t_tilde, closed


def t_circ(ft: FiberTerms, start: Optional[float] = None) -> float:
    """The unique maximizer of eta: the root of xi(t) = (q1+kappa-1) d.

    xi increases from 0 to inf, so rhs - xi falls from rhs to -inf.  Cold, the
    root is first bracketed geometrically from t = 1; a warm ``start`` seeds
    the safeguarded Newton iteration on all of (0, inf).
    """
    if ft.d <= 0 or (ft.a <= 0 and ft.b <= 0 and ft.c <= 0):
        raise ValueError("t_circ needs d > 0 and one of a, b, c > 0")
    rhs = (ft.q1 + ft.kappa - 1.0) * ft.d
    f = power_sum([(-c, r) for c, r in _xi_terms(ft)] + [(rhs, 0.0)])  # rhs - xi
    if start is None:
        lo, hi, flo, fhi = expand_bracket(f, start=1.0)
        if lo == hi:
            return lo
    else:
        lo, hi, flo, fhi = 0.0, math.inf, rhs, -math.inf
    return hybrid_root(f, lo, hi, flo, fhi, abs_tol=ROOT_TOL * rhs, start=start)


@dataclass(frozen=True)
class FiberRoots:
    kind: str              # "two" | "tangent" | "none"
    t1: Optional[float]
    t2: Optional[float]
    t_circ: float
    eta_max: float         # eta at t_circ
    lambda_e: float

    @property
    def two(self) -> bool:
        return self.kind == "two"


def fiber_roots(
    ft: FiberTerms,
    lam: float,
    start: Optional[float] = None,
    tc_start: Optional[float] = None,
    only: Optional[str] = None,
) -> FiberRoots:
    """Locate the roots of eta(t) = lam*e around the maximizer t_circ.

    Two roots when eta(t_circ) > lam*e, a tangency inside the declared
    1e-10 relative band, and none below it.  Each root is located to
    |eta(t) - lam*e| <= 1e-12 * lam*e by the safeguarded Newton iteration on
    its monotone piece, (0, t_circ] (eta increasing) or [t_circ, inf).
    ``start`` warm-starts the roots (ignored on the wrong side of t_circ),
    ``tc_start`` warm-starts t_circ; ``only`` = "t1" or "t2" locates just
    that root and leaves the other None.
    """
    if ft.e <= 0:
        raise ValueError("fiber_roots needs e > 0")
    if only not in (None, "t1", "t2"):
        raise ValueError(f"only must be None, 't1' or 't2', got {only!r}")
    tc = t_circ(ft, start=tc_start)
    eta_max = eta(ft, tc)
    le = lam * ft.e
    if abs(eta_max - le) <= TANGENT_TOL * max(abs(le), abs(eta_max)):
        return FiberRoots("tangent", None, None, tc, eta_max, le)
    if eta_max < le:
        return FiberRoots("none", None, None, tc, eta_max, le)
    tol = ROOT_TOL * le
    g = power_sum(_eta_terms(ft) + [(-le, 0.0)])  # eta - lam*e: -inf at 0, -lam*e at inf
    t1 = t2 = None
    if only != "t2":
        t1 = hybrid_root(g, 0.0, tc, -math.inf, eta_max - le, abs_tol=tol, start=start)
    if only != "t1":
        t2 = hybrid_root(g, tc, math.inf, eta_max - le, -le, abs_tol=tol, start=start)
    return FiberRoots("two", t1, t2, tc, eta_max, le)


def classify_nehari(
    mesh: Mesh,
    data: ProblemData,
    u,
    lam: float,
    tol: float = 1e-9,
    fields: Optional[FieldSamples] = None,
) -> NehariClass:
    """Classify u against the constraint manifold at parameter lam.

    Relative tolerance: |psi'(1)| <= tol * (a+b+c+d+lam*e) puts u on the
    manifold, then the sign of psi''(1) against the same scale picks the
    branch.  Rejects u = 0.
    """
    u = np.asarray(u, dtype=float)
    if not np.any(u):
        raise ValueError("classify_nehari needs u != 0")
    ft = fiber_terms(mesh, data, u, fields)
    scale = ft.a + ft.b + ft.c + ft.d + lam * ft.e
    _, d1, d2 = psi_derivatives(ft, lam, 1.0)
    if abs(d1) > tol * scale:
        kind = NehariKind.NOT_ON_NEHARI
    elif d2 > tol * scale:
        kind = NehariKind.PLUS
    elif d2 < -tol * scale:
        kind = NehariKind.MINUS
    else:
        kind = NehariKind.ZERO
    return NehariClass(kind=kind, dpsi1=d1, ddpsi1=d2, tol=tol)
