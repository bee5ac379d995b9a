"""Scalar fiber analysis: the energy along rays t -> Theta(t u).

For fixed u everything reduces to five nonnegative scalars

    a = |u|_{1,p}^p,  b = int mu |grad u|^q,  c = bdry int beta |u|^{p_*},
    d = int zeta |u|^{1-kappa},  e = int |u|^{q1},

from which the fiber map psi, the root-locating maps eta, eta_tilde, xi,
the closed-form maximizer of eta_tilde and the roots t1 < t_circ < t2 of
eta(t) = lam*e all follow; psi, eta, eta_tilde, xi and the root maps are
power sums solved by the shared safeguarded Newton finder.  u lies on the
constraint manifold when psi'(1) = 0; the sign of psi''(1) splits it into
the plus/zero/minus branches.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .mesh import Mesh
from .problem import ProblemData
from .rootfind import hybrid_root, power_bracket, power_sum, power_value
# unused here, but the benchmark's tracer wraps ``fibering.expand_bracket`` by name
from .rootfind import expand_bracket  # noqa: F401
from .space import FieldSamples, ModularBreakdown, modular_breakdown

__all__ = [
    "FiberTerms",
    "FiberRoots",
    "NehariKind",
    "NehariClass",
    "fiber_terms",
    "psi",
    "psi_derivatives",
    "psi_with_magnitude",
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
NEHARI_TOL = 1e-9     # relative |psi'(1)| and psi''(1) band of the branch classification


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

    @classmethod
    def from_breakdown(cls, bd: ModularBreakdown, data: ProblemData) -> "FiberTerms":
        """The fiber terms of the function whose modular breakdown is ``bd``."""
        return cls(
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


def fiber_terms(mesh: Mesh, data: ProblemData, u, fields: FieldSamples) -> FiberTerms:
    return FiberTerms.from_breakdown(modular_breakdown(mesh, data, u, fields), data)


def _psi_terms(ft: FiberTerms, lam: float) -> list:
    p, q, ps, q1, k = ft.p, ft.q, ft.p_lower_star, ft.q1, ft.kappa
    return [(ft.a / p, p), (ft.b / q, q), (ft.c / ps, ps), (-ft.d / (1.0 - k), 1.0 - k), (-lam * ft.e / q1, q1)]


def psi(ft: FiberTerms, lam: float, t: float) -> float:
    """Fiber energy Theta(t u); psi(0) = 0 by convention."""
    if t < 0:
        raise ValueError("fiber parameter t must be >= 0")
    return power_value(_psi_terms(ft, lam), t) if t > 0 else 0.0


def psi_with_magnitude(ft: FiberTerms, lam: float, t: float) -> tuple[float, float]:
    """(psi(t), its magnitude) at t > 0: the magnitude is the sum of the
    unsigned terms of psi(t), a/p + b/q + c/p_* + d/(1-kappa) + lam e/q1 of
    t u, the scale of psi's rounding error, which cancellation can make far
    larger than |psi(t)|.  One power per term, summed in the order of
    ``power_value``, so psi equals ``psi(ft, lam, t)`` bit for bit (|c| t^r
    is |c t^r| exactly)."""
    val = mag = 0.0
    for c, r in _psi_terms(ft, lam):
        if c != 0.0:
            x = t**r
            val += c * x
            mag += abs(c) * x
    return val, mag


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
    return power_value(_eta_terms(ft), t)


def eta_prime(ft: FiberTerms, t: float) -> float:
    if t <= 0:
        raise ValueError("eta_prime needs t > 0")
    return power_sum(_eta_terms(ft))(t)[1]


def _eta_tilde_terms(ft: FiberTerms) -> list:
    return [(ft.a, ft.p - ft.q1), (-ft.d, 1.0 - ft.q1 - ft.kappa)]


def eta_tilde(ft: FiberTerms, t: float) -> float:
    """The reduced map a t^{p-q1} - d t^{1-q1-kappa} (only the a and d terms)."""
    if t <= 0:
        raise ValueError("eta_tilde needs t > 0")
    return power_value(_eta_tilde_terms(ft), t)


def _xi_terms(ft: FiberTerms) -> list:
    p, q, ps, q1, k = ft.p, ft.q, ft.p_lower_star, ft.q1, ft.kappa
    return [((q1 - p) * ft.a, p + k - 1.0), ((q1 - q) * ft.b, q + k - 1.0), ((q1 - ps) * ft.c, ps + k - 1.0)]


def xi(ft: FiberTerms, t: float) -> float:
    """(q1-p) a t^{p+k-1} + (q1-q) b t^{q+k-1} + (q1-p_*) c t^{p_*+k-1};
    strictly increasing, and eta'(t) = 0 iff xi(t) = (q1+k-1) d."""
    if t <= 0:
        raise ValueError("xi needs t > 0")
    return power_value(_xi_terms(ft), t)


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

    xi is a sum of positive increasing powers, so xi - rhs rises from -rhs
    at 0 to inf, and ``power_bracket`` brackets its root from xi's own terms;
    a warm ``start`` inside that bracket seeds the safeguarded Newton
    iteration.  There is no root, and the bracket raises BracketError, when
    d = 0 or a = b = c = 0.
    """
    rhs = (ft.q1 + ft.kappa - 1.0) * ft.d
    terms = _xi_terms(ft)
    f = power_sum(terms + [(-rhs, 0.0)])  # xi - rhs
    return hybrid_root(f, *power_bracket(terms, rhs), -rhs, math.inf, abs_tol=ROOT_TOL * rhs, start=start)


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
    a finite piece of its monotone side of t_circ, bracketed by
    ``power_bracket`` from eta's own terms: t1 in [lo, t_circ], with lo
    below the zero of eta (where a t^(p+k-1) + b t^(q+k-1) + c t^(p_*+k-1)
    reaches d), and t2 in [t_circ, hi], with hi above the root of eta's a,
    b and c terms alone = lam*e (the d term only lowers eta).  ``start``
    warm-starts the roots (ignored outside the root's bracket), ``tc_start``
    warm-starts t_circ; ``only`` = "t1" or "t2" locates just that root and
    leaves the other None.  Raises OverflowError when eta(t_circ) or lam*e
    is not finite, or when a bracket leaves the float range.
    """
    if ft.e <= 0:
        raise ValueError("fiber_roots needs e > 0")
    if only not in (None, "t1", "t2"):
        raise ValueError(f"only must be None, 't1' or 't2', got {only!r}")
    tc = t_circ(ft, start=tc_start)
    terms = _eta_terms(ft)
    eta_max = power_value(terms, tc)
    le = lam * ft.e
    if not (math.isfinite(eta_max) and math.isfinite(le)):
        raise OverflowError(f"fiber_roots: eta(t_circ)={eta_max!r}, lam*e={le!r} not finite")
    if abs(eta_max - le) <= TANGENT_TOL * max(abs(le), abs(eta_max)):
        return FiberRoots("tangent", None, None, tc, eta_max, le)
    if eta_max < le:
        return FiberRoots("none", None, None, tc, eta_max, le)
    g = power_sum(terms + [(-le, 0.0)])  # eta - lam*e: -inf at 0, -lam*e at inf
    *abc, (_, rd) = terms
    t1 = t2 = None
    if only != "t2":
        # eta < 0 below its zero, where the a, b, c terms over t^rd reach d
        lo = power_bracket([(c, r - rd) for c, r in abc], ft.d)[0]
        t1 = hybrid_root(g, lo, tc, -math.inf, eta_max - le, abs_tol=ROOT_TOL * le, start=start)
    if only != "t1":
        # eta < lam*e above the root of its a, b, c terms alone = lam*e
        hi = power_bracket(abc, le)[1]
        t2 = hybrid_root(g, tc, hi, eta_max - le, -le, abs_tol=ROOT_TOL * le, start=start)
    return FiberRoots("two", t1, t2, tc, eta_max, le)


def classify_nehari(mesh: Mesh, data: ProblemData, u, lam: float, fields: FieldSamples) -> NehariClass:
    """Classify u against the constraint manifold at parameter lam.

    Relative tolerance: |psi'(1)| <= NEHARI_TOL * (a+b+c+d+lam*e) puts u on
    the manifold, then the sign of psi''(1) against the same scale picks the
    branch.  Rejects u = 0.
    """
    u = np.asarray(u, dtype=float)
    if not np.any(u):
        raise ValueError("classify_nehari needs u != 0")
    ft = fiber_terms(mesh, data, u, fields)
    scale = ft.a + ft.b + ft.c + ft.d + lam * ft.e
    _, d1, d2 = psi_derivatives(ft, lam, 1.0)
    if abs(d1) > NEHARI_TOL * scale:
        kind = NehariKind.NOT_ON_NEHARI
    elif d2 > NEHARI_TOL * scale:
        kind = NehariKind.PLUS
    elif d2 < -NEHARI_TOL * scale:
        kind = NehariKind.MINUS
    else:
        kind = NehariKind.ZERO
    return NehariClass(kind=kind, dpsi1=d1, ddpsi1=d2, tol=NEHARI_TOL)
