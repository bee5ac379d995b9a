"""Scalar root finding: one bracket rule, and one bracket-safeguarded Newton
iteration in log t.

Every scalar equation in the package (Luxemburg norms, the fiber maximizer,
the fiber roots) is a sum of powers, strictly monotone on a known piece of
t > 0.  Maps are callables ``f(t) -> (value, slope)``; ``power_sum`` builds
them for sums of powers.  ``power_bracket`` gives each root a finite bracket
from the power sum's own terms, a Fujiwara-type bound (Tohoku Math. J. 10,
1916) for real exponents, computed in log t so that no power overflows.
``hybrid_root`` is rtsafe (Press et al., Numerical Recipes, 9.4) in log t
on such a bracket: from a warm start near the root it costs one or two
evaluations, and it never leaves the sign bracket.
"""
from __future__ import annotations

import math
from typing import Callable

__all__ = ["BracketError", "expand_bracket", "hybrid_root", "power_bracket", "power_sum", "power_value"]

Map = Callable[[float], "tuple[float, float]"]  # t -> (f(t), f'(t))
BRACKET_STEPS = 200  # doublings or halvings ``expand_bracket`` tries
ROOT_EVALS = 200     # evaluations ``hybrid_root`` makes before giving up


class BracketError(ArithmeticError):
    """No sign change was bracketed, or the iteration ran out (non-monotone or degenerate map)."""


def power_sum(terms) -> Map:
    """t -> (sum(c * t**r), its t-derivative) over the (c, r) pairs with c != 0;
    one power per term gives both."""
    live = [(c, r) for c, r in terms if c != 0.0]

    def f(t: float) -> tuple[float, float]:
        val = tslope = 0.0
        for c, r in live:
            x = c * t**r
            val += x
            tslope += r * x
        return val, tslope / t

    return f


def power_value(terms, t: float) -> float:
    """sum(c * t**r) over the (c, r) pairs with c != 0: the value of
    ``power_sum(terms)(t)``, summed in the same order, without building the map."""
    val = 0.0
    for c, r in terms:
        if c != 0.0:
            val += c * t**r
    return val


def power_bracket(terms, rhs: float) -> tuple[float, float]:
    """A finite bracket (lo, hi) of the root t > 0 of sum(c * t**r) = rhs.

    The (c, r) pairs with c != 0 are the live terms; each needs a finite
    c > 0, and their exponents one sign, so the sum is strictly monotone.
    At the root no term exceeds rhs and, with k live terms, one reaches
    rhs / k, so the root lies between the per-term roots of c t^r = rhs and
    of c t^r = rhs / k.  Both are taken in log t, one log per term, and the
    ends are rounded outward by a factor 2, so the sum is strictly on the
    far side of rhs at each (one live term puts both per-term roots on the
    root itself).  Raises BracketError for a term or rhs outside the rule,
    and OverflowError when an end leaves the normal float range.
    """
    live = [(c, r) for c, r in terms if c != 0.0]
    if not (live and 0.0 < rhs < math.inf):
        raise BracketError(f"no root of sum(c t^r) = {rhs!r} over the live terms {live!r}")
    sign = 1.0 if live[0][1] > 0.0 else -1.0  # a falling sum rises in 1/t
    log_rhs, log_k = math.log(rhs), math.log(len(live))
    lo = hi = math.inf  # ends in sign * log t
    for c, r in live:
        r *= sign
        if not (0.0 < c < math.inf and r > 0.0):
            raise BracketError(f"no bracket rule for the term {c!r} t^{sign * r!r}")
        full = (log_rhs - math.log(c)) / r  # where c t^r = rhs
        lo, hi = min(lo, full - log_k / r), min(hi, full)  # (rhs / k) and rhs
    lo, hi = (lo, hi) if sign > 0 else (-hi, -lo)
    if not (-707.0 < lo and hi < 709.0):  # e^-707 / 2 and 2 e^709 are normal floats
        raise OverflowError(f"power sum root bracket [e^{lo:.6g}, e^{hi:.6g}] leaves the float range")
    return 0.5 * math.exp(lo), 2.0 * math.exp(hi)


def expand_bracket(f: Map) -> tuple[float, float, float, float]:
    """Bracket a sign change of ``f`` by geometric expansion from t = 1.

    No package code calls it: every root is bracketed by ``power_bracket``.
    ``f(t)`` returns (value, slope); only the value is used.  Returns
    (lo, hi, f(lo), f(hi)) with f(lo) and f(hi) of opposite sign (one may
    be exactly zero).  Doubles t while f(t) > 0 and halves it otherwise,
    assuming f is decreasing; raises BracketError after BRACKET_STEPS
    steps.
    """
    t = 1.0
    ft = f(t)[0]
    if ft == 0.0:
        return t, t, 0.0, 0.0
    up = ft > 0
    for _ in range(BRACKET_STEPS):
        nxt = t * 2.0 if up else t / 2.0
        fnxt = f(nxt)[0]
        if up and fnxt <= 0:
            return t, nxt, ft, fnxt
        if not up and fnxt >= 0:
            return nxt, t, fnxt, ft
        t, ft = nxt, fnxt
    raise BracketError(f"no sign change within {BRACKET_STEPS} geometric steps from 1.0")


def _split(lo: float, hi: float) -> float:
    """Bisection point of (lo, hi): geometric, in log t, while hi > 2 lo;
    neither lo + hi nor lo * hi is formed, as both overflow near 1e308."""
    return 0.5 * lo + 0.5 * hi if hi <= 2.0 * lo else math.sqrt(lo) * math.sqrt(hi)


def hybrid_root(
    f: Map,
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    abs_tol: float,
    start: float | None = None,
) -> float:
    """Root of ``f`` between lo and hi to residual |f| <= abs_tol.

    ``f(t)`` returns (value, slope).  The bracket is finite, 0 < lo < hi <
    inf (``power_bracket`` gives one); flo and fhi carry the strict signs of
    f at lo and hi, which must differ: f's values there, or any numbers of
    the same signs, such as its limits at 0 and inf.  From ``start``
    (ignored unless strictly inside), each pass takes the Newton step in
    log t when it lands inside the bracket, is at most half the step before
    last and is no longer than the bracket; otherwise it bisects, in log t
    while hi > 2 lo.  Returns when the residual is met or the bracket
    reaches floating-point width; raises BracketError after ROOT_EVALS
    evaluations.
    """
    if not (0.0 < lo < hi < math.inf and (flo > 0.0 > fhi or flo < 0.0 < fhi)):
        raise ValueError("hybrid_root requires 0 < lo < hi < inf and a sign-changing bracket")
    rising = flo < 0
    t = start if start is not None and lo < start < hi else _split(lo, hi)
    last = before = math.inf  # sizes of the last two steps, in log t
    for _ in range(ROOT_EVALS):
        ft, slope = f(t)
        if abs(ft) <= abs_tol:
            return t
        if (ft < 0) == rising:
            lo = t
        else:
            hi = t
        if hi - lo <= 4e-16 * hi:
            return _split(lo, hi)
        dlog = t * slope
        step = -ft / dlog if dlog else math.inf
        # 0.0 marks a rejected step: it is never strictly inside the bracket
        newton = t * math.exp(step) if abs(step) <= 0.5 * before and abs(step) <= math.log(hi / lo) else 0.0
        if lo < newton < hi:
            before, last, t = last, abs(step), newton
        else:
            mid = _split(lo, hi)
            before, last, t = last, abs(math.log(mid / t)), mid
    raise BracketError(f"root refinement exhausted {ROOT_EVALS} iterations")
