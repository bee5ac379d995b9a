"""Scalar fiber analysis: the energy along rays t -> Theta(t u).

For fixed u everything reduces to five nonnegative scalars

    a = |u|_{1,p}^p,  b = int mu |grad u|^q,  c = bdry int beta |u|^{p_*},
    d = int zeta |u|^{1-kappa},  e = int |u|^{q1},

from which the fiber map psi, the root-locating maps eta, eta_tilde, xi,
the closed-form maximizer of eta_tilde and the roots t1 < t_circ < t2 of
eta(t) = lam*e all follow; psi, eta, eta_tilde, xi and the root maps are
power sums, evaluated by ``rootfind.power_sums`` and solved by the shared
safeguarded Newton finder.  u lies on the constraint manifold when
psi'(1) = 0; the sign of psi''(1) splits it into the plus/zero/minus
branches.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .mesh import Mesh
from .problem import ProblemData
from .rootfind import BracketError, _newton_log, hybrid_root, power_bracket, power_sums
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
_WARM_EVALS = 8       # Newton evaluations ``warm_branch_root`` makes before giving up
_WARM_STEP = 0.5      # its longest step in log t while a bracket end is open
_EPS = 2.0**-52


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
    return _terms(data, *_integrals(modular_breakdown(mesh, data, u, fields)))


def lane_terms(mesh: Mesh, data: ProblemData, w: np.ndarray, fields: FieldSamples) -> list:
    """``fiber_terms`` of each row of the (k, M) block ``w``, in row order and
    bit for bit (``space.lane_dot``), from one batched breakdown run under
    np.errstate(all="ignore"); None for a row with an integral that is not
    finite, for the caller to recompute alone under its own error state."""
    with np.errstate(all="ignore"):
        integrals = _integrals(modular_breakdown(mesh, data, w, fields))
    rows = zip(*(x.tolist() for x in integrals))
    return [_terms(data, *row) if all(map(math.isfinite, row)) else None for row in rows]


def _integrals(bd: ModularBreakdown) -> tuple:
    """The six integrals of ``bd`` in the order ``_terms`` takes them."""
    return bd.grad_p, bd.mass_p_alpha, bd.grad_q_mu, bd.bdry_pstar_beta, bd.zeta_sing, bd.mass_q1


def _terms(data: ProblemData, grad_p, mass_p_alpha, b, c, d, e) -> FiberTerms:
    """The fiber terms of the function whose breakdown has these ``_integrals``."""
    return FiberTerms(grad_p + mass_p_alpha, b, c, d, e, data.p, data.q, data.p_lower_star, data.q1, data.kappa)


def _psi_terms(ft: FiberTerms, lam: float) -> list:
    p, q, ps, q1, k = ft.p, ft.q, ft.p_lower_star, ft.q1, ft.kappa
    return [(ft.a / p, p), (ft.b / q, q), (ft.c / ps, ps), (-ft.d / (1.0 - k), 1.0 - k), (-lam * ft.e / q1, q1)]


def psi(ft: FiberTerms, lam: float, t: float) -> float:
    """Fiber energy Theta(t u); psi(0) = 0 by convention."""
    if t < 0:
        raise ValueError("fiber parameter t must be >= 0")
    return power_sums(_psi_terms(ft, lam), t)[0] if t > 0 else 0.0


def psi_with_magnitude(ft: FiberTerms, lam: float, t: float) -> tuple[float, float]:
    """(psi(t), its magnitude) at t > 0: the magnitude is the sum of the
    unsigned terms of psi(t), a/p + b/q + c/p_* + d/(1-kappa) + lam e/q1 of
    t u, the scale of psi's rounding error, which cancellation can make far
    larger than |psi(t)|.  Both are sums of ``power_sums``, so psi equals
    ``psi(ft, lam, t)`` bit for bit."""
    val, _, mag, _ = power_sums(_psi_terms(ft, lam), t)
    return val, mag


def psi_derivatives(ft: FiberTerms, lam: float, t: float) -> tuple[float, float, float]:
    """(psi, psi', psi'') at t > 0 (the derivatives carry singular powers of t)."""
    if t <= 0:
        raise ValueError("fiber derivatives need t > 0")
    terms = _psi_terms(ft, lam)
    val, d1, _, _ = power_sums(terms, t)
    return val, d1 / t, power_sums([(c * r, r - 1.0) for c, r in terms], t)[1] / t


def _eta_terms(ft: FiberTerms) -> list:
    p, q, ps, q1, k = ft.p, ft.q, ft.p_lower_star, ft.q1, ft.kappa
    return [(ft.a, p - q1), (ft.b, q - q1), (ft.c, ps - q1), (-ft.d, 1.0 - q1 - k)]


def eta(ft: FiberTerms, t: float) -> float:
    """a t^{p-q1} + b t^{q-q1} + c t^{p_*-q1} - d t^{1-q1-kappa}; satisfies
    psi'(t) = t^{q1-1} (eta(t) - lam e)."""
    if t <= 0:
        raise ValueError("eta needs t > 0")
    return power_sums(_eta_terms(ft), t)[0]


def eta_prime(ft: FiberTerms, t: float) -> float:
    if t <= 0:
        raise ValueError("eta_prime needs t > 0")
    return power_sums(_eta_terms(ft), t)[1] / t


def _eta_tilde_terms(ft: FiberTerms) -> list:
    return [(ft.a, ft.p - ft.q1), (-ft.d, 1.0 - ft.q1 - ft.kappa)]


def eta_tilde(ft: FiberTerms, t: float) -> float:
    """The reduced map a t^{p-q1} - d t^{1-q1-kappa} (only the a and d terms)."""
    if t <= 0:
        raise ValueError("eta_tilde needs t > 0")
    return power_sums(_eta_tilde_terms(ft), t)[0]


def _xi_terms(ft: FiberTerms) -> list:
    p, q, ps, q1, k = ft.p, ft.q, ft.p_lower_star, ft.q1, ft.kappa
    return [((q1 - p) * ft.a, p + k - 1.0), ((q1 - q) * ft.b, q + k - 1.0), ((q1 - ps) * ft.c, ps + k - 1.0)]


def xi(ft: FiberTerms, t: float) -> float:
    """(q1-p) a t^{p+k-1} + (q1-q) b t^{q+k-1} + (q1-p_*) c t^{p_*+k-1};
    strictly increasing, and eta'(t) = 0 iff xi(t) = (q1+k-1) d."""
    if t <= 0:
        raise ValueError("xi needs t > 0")
    return power_sums(_xi_terms(ft), t)[0]


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


def t_circ(ft: FiberTerms) -> float:
    """The unique maximizer of eta: the root of xi(t) = (q1+kappa-1) d.

    xi is a sum of positive increasing powers, so xi - rhs rises from -rhs
    at 0 to inf, and ``power_bracket`` brackets its root from xi's own terms
    for the safeguarded Newton iteration.  There is no root, and the bracket
    raises BracketError, when d = 0 or a = b = c = 0.
    """
    rhs = (ft.q1 + ft.kappa - 1.0) * ft.d
    terms = _xi_terms(ft)
    f = partial(power_sums, terms + [(-rhs, 0.0)])  # xi - rhs
    return hybrid_root(f, *power_bracket(terms, rhs), -rhs, math.inf, abs_tol=ROOT_TOL * rhs)


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


def root_kind(eta_max: float, lambda_e: float) -> str:
    """How many roots eta(t) = lambda_e has, from eta's maximum ``eta_max``
    = eta(t_circ): "tangent" inside the declared relative band TANGENT_TOL,
    "two" above it and "none" below it."""
    if abs(eta_max - lambda_e) <= TANGENT_TOL * max(abs(lambda_e), abs(eta_max)):
        return "tangent"
    return "two" if eta_max > lambda_e else "none"


def _eta_gap(terms: list, le: float, t: float) -> tuple[float, float, float, float]:
    """The root map of eta(t) = le over eta's ``terms``: (eta(t) - le, its
    log-t slope, eta(t) less its rounding, the unsigned sum of the slope's
    terms).  eta's rounding is 8 eps of its terms' unsigned sum, and the
    gap, -inf at 0 and -le at inf, is 0 within it, which ends the root
    iteration there."""
    val, tslope, mag, tmag = power_sums(terms, t)
    rounding = 8.0 * _EPS * mag
    return (0.0 if abs(val - le) <= rounding else val - le), tslope, val - rounding, tmag


def fiber_roots(ft: FiberTerms, lam: float, only: Optional[str] = None) -> FiberRoots:
    """Locate the roots of eta(t) = lam*e around the maximizer t_circ.

    Two roots, a tangency or none, as ``root_kind`` decides from
    eta(t_circ) and lam*e.  Each root is located to
    |eta(t) - lam*e| <= max(1e-12 * lam*e, 8 eps * the unsigned sum of eta's
    terms at t): where those terms are far larger than lam*e, eta's rounding
    exceeds the first bound.  Each is ``hybrid_root`` on the root map
    ``_eta_gap``, which ``warm_branch_root`` shares, over a finite piece of
    its monotone side of t_circ, bracketed by ``power_bracket`` from eta's
    own terms: t1 in [lo, t_circ], with lo below the zero of eta (where
    a t^(p+k-1) + b t^(q+k-1) + c t^(p_*+k-1) reaches d), and t2 in
    [t_circ, hi], with hi above the root of eta's a, b and c terms alone =
    lam*e (the d term only lowers eta).  ``only`` = "t1" or "t2" locates
    just that root and leaves the other None.  Raises OverflowError when
    eta(t_circ) or lam*e is not finite, or when a bracket leaves the float
    range.
    """
    if ft.e <= 0:
        raise ValueError("fiber_roots needs e > 0")
    if only not in (None, "t1", "t2"):
        raise ValueError(f"only must be None, 't1' or 't2', got {only!r}")
    tc = t_circ(ft)
    terms = _eta_terms(ft)
    eta_max = power_sums(terms, tc)[0]
    le = lam * ft.e
    if not (math.isfinite(eta_max) and math.isfinite(le)):
        raise OverflowError(f"fiber_roots: eta(t_circ)={eta_max!r}, lam*e={le!r} not finite")
    kind = root_kind(eta_max, le)
    if kind != "two":
        return FiberRoots(kind, None, None, tc, eta_max, le)

    g = partial(_eta_gap, terms, le)
    *abc, (_, rd) = terms
    t1 = t2 = None
    if only != "t2":
        # eta < 0 below its zero, where the a, b, c terms over t^rd reach d
        lo = power_bracket([(c, r - rd) for c, r in abc], ft.d)[0]
        t1 = hybrid_root(g, lo, tc, -math.inf, eta_max - le, abs_tol=ROOT_TOL * le)
    if only != "t1":
        # eta < lam*e above the root of its a, b, c terms alone = lam*e
        hi = power_bracket(abc, le)[1]
        t2 = hybrid_root(g, tc, hi, eta_max - le, -le, abs_tol=ROOT_TOL * le)
    return FiberRoots("two", t1, t2, tc, eta_max, le)


def warm_branch_root(ft: FiberTerms, lam: float, only: str, probe: float) -> Optional[float]:
    """The root ``only`` ("t1" or "t2") of eta(t) = lam*e near t = 1, to the
    residual ``fiber_roots`` meets, with no t_circ solve and no bracket; None
    when it cannot be certified cheaply.  It serves a line-search trial next
    to a base point whose own root is 1; ``probe`` estimates the trial's
    t_circ.

    By the fibering lemma eta is unimodal: eta'(t) = t^(-q1-kappa)
    ((q1+kappa-1) d - xi(t)) with xi strictly increasing, so eta' vanishes
    only at t_circ, is positive below it and negative above.  A root where
    eta' has the branch's sign (> 0 for t1, < 0 for t2) is that branch's
    root.  The iteration is ``rootfind._newton_log`` on ``fiber_roots``' root
    map ``_eta_gap`` from t = 1 with both bracket ends open, steps of at most
    _WARM_STEP in log t while one is, and at most _WARM_EVALS evaluations;
    it bisects once its iterates have straddled the root.  The root is
    accepted only if

    - t eta'(t) has the branch's sign at every iterate by 4 ROOT_TOL of its
      terms' unsigned sum, clear of its rounding: every iterate, the root
      included, lies on the branch's side of t_circ (the map raises
      BracketError at the first that does not);
    - some evaluated eta, less 8 eps of its terms' unsigned sum (its
      rounding), exceeds lam*e (1 + 2 TANGENT_TOL), about TANGENT_TOL lam*e
      above lam*e / (1 - TANGENT_TOL), which covers the rounding of eta at
      ``fiber_roots``' t_circ.  eta(t_circ) is the maximum, so that call
      finds two roots, not a tangency.  An iterate certifies first, else one
      evaluation at ``probe``.

    Unlike ``fiber_roots`` it does not need eta(t_circ) or the brackets to
    be finite floats, so it can return a root where that raises
    OverflowError.
    """
    le = lam * ft.e
    if not (0.0 < le < math.inf and ft.d > 0.0 and 0.0 < probe < math.inf):
        return None
    terms = _eta_terms(ft)
    rising = only == "t1"  # eta - lam*e rises through t1 and falls through t2
    side = 1.0 if rising else -1.0  # the sign of eta' on the branch
    clear = le * (1.0 + 2.0 * TANGENT_TOL)
    certified = False

    def on_branch(t: float) -> tuple[float, float]:
        """``_eta_gap`` at an iterate clearly on the branch's side of t_circ."""
        nonlocal certified
        gap, tslope, low, tmag = _eta_gap(terms, le, t)
        if not side * tslope > 4.0 * ROOT_TOL * tmag:
            raise BracketError(f"t = {t!r} is not clearly on the {only} side of t_circ")
        certified = certified or low > clear
        return gap, tslope

    try:
        t = _newton_log(on_branch, 1.0, 0.0, math.inf, rising, ROOT_TOL * le, _WARM_EVALS, _WARM_STEP)
        return t if t is not None and (certified or _eta_gap(terms, le, probe)[2] > clear) else None
    except (BracketError, OverflowError):  # an iterate off the branch, or a power beyond the floats
        return None


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
