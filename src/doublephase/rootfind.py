"""Scalar root finding: one bracket rule, and one bracket-safeguarded Newton
iteration in log t.

Every scalar equation in the package (Luxemburg norms, the fiber maximizer,
the fiber roots) is a sum of powers, strictly monotone on a known piece of
t > 0.  Maps are callables ``f(t) -> (value, t f'(t), ...)``, the slope in
log t, which stays a float wherever the value's terms do.  ``power_sums`` is
the one evaluator of a sum of powers: with the value and its log-t slope it
gives their terms' unsigned sums, the scale of their rounding, and
``partial(power_sums, terms)`` is the sum's map.  ``power_bracket`` gives
each root a finite bracket from the power sum's own terms, a Fujiwara-type
bound (Tohoku Math. J. 10, 1916) for real exponents, computed in log t so
that no power overflows.
``_newton_log`` is the one root iteration, rtsafe (Press et al., Numerical
Recipes, 9.4) in log t: ``hybrid_root`` runs it on a finite bracket from its
geometric midpoint, ``fibering.warm_branch_root`` from t = 1 with both ends
open.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

__all__ = ["BracketError", "expand_bracket", "hybrid_root", "power_bracket", "power_sums"]

Map = Callable[[float], "tuple[float, ...]"]  # t -> (f(t), t f'(t), ...); later entries are unread
BRACKET_STEPS = 200  # doublings or halvings ``expand_bracket`` tries
ROOT_EVALS = 200     # evaluations ``hybrid_root`` makes before giving up


class BracketError(ArithmeticError):
    """No sign change was bracketed, or the iteration ran out (non-monotone or degenerate map)."""


def power_sums(terms, t: float) -> tuple[float, float, float, float]:
    """(sum(c t^r), its log-t slope sum(r c t^r), sum|c t^r|, sum|r c t^r|)
    over the (c, r) pairs with c != 0, summed in the terms' order; one power
    per term gives all four.  A zero term is skipped before its power is
    formed, so a power that would overflow cannot raise there; a live power
    that leaves the floats raises OverflowError naming t and r."""
    val = tslope = mag = tmag = 0.0
    for c, r in terms:
        if c != 0.0:
            try:
                x = c * t**r
            except OverflowError:
                raise OverflowError(f"t^r with t={t!r}, r={r!r} leaves the float range") from None
            rx = r * x
            val += x
            tslope += rx
            mag += abs(x)
            tmag += abs(rx)
    return val, tslope, mag, tmag


def power_bracket(terms, rhs: float) -> tuple[float, float]:
    """A finite bracket (lo, hi) of the root t > 0 of sum(c * t**r) = rhs.

    The (c, r) pairs with c != 0 are the live terms; each needs a finite
    c > 0, and their exponents one sign, so the sum is strictly monotone.
    Give term i the share w_i = (1/|r_i|) / sum_j 1/|r_j| of rhs; the shares
    sum to 1, so at the root no term exceeds rhs and some term i reaches
    w_i rhs, and the root lies between the per-term roots of c t^r = rhs and
    of c t^r = w_i rhs.  Each end then lies within log(|r_i| sum_j 1/|r_j|)
    / |r_i| <= sum_{j != i} 1/|r_j| of the root in log t, so a tiny |r_i|
    adds no slack of order 1/|r_i|, as the shares 1/k would; equal
    exponents give the shares 1/k.  Both ends are taken in log t, one log
    per term, and rounded outward by a factor 2, so the sum is strictly on
    the far side of rhs at each (one live term puts both per-term roots on
    the root itself).  Raises
    BracketError for a term or rhs outside the rule, and OverflowError when
    an end leaves the normal float range.
    """
    live = [(c, r) for c, r in terms if c != 0.0]
    if not (live and 0.0 < rhs < math.inf):
        raise BracketError(f"no root of sum(c t^r) = {rhs!r} over the live terms {live!r}")
    sign = 1.0 if live[0][1] > 0.0 else -1.0  # a falling sum rises in 1/t
    live = [(c, sign * r) for c, r in live]
    for c, r in live:
        if not (0.0 < c < math.inf and r > 0.0):
            raise BracketError(f"no bracket rule for the term {c!r} t^{sign * r!r}")
    log_rhs, inv = math.log(rhs), sum(1.0 / r for _, r in live)
    lo = hi = math.inf  # ends in sign * log t
    for c, r in live:
        full = (log_rhs - math.log(c)) / r  # where c t^r = rhs
        lo, hi = min(lo, full - math.log(r * inv) / r), min(hi, full)  # (w rhs) and rhs
    lo, hi = (lo, hi) if sign > 0 else (-hi, -lo)
    if not (-707.0 < lo and hi < 709.0):  # e^-707 / 2 and 2 e^709 are normal floats
        raise OverflowError(f"power sum root bracket [e^{lo:.6g}, e^{hi:.6g}] leaves the float range")
    return 0.5 * math.exp(lo), 2.0 * math.exp(hi)


def expand_bracket(f: Map) -> tuple[float, float, float, float]:
    """Bracket a sign change of ``f`` by geometric expansion from t = 1.

    No package code calls it: every root is bracketed by ``power_bracket``.
    ``f(t)`` returns (value, slope, ...); only the value is used.  Returns
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
) -> float:
    """Root of ``f`` between lo and hi to residual |f| <= abs_tol.

    ``f(t)`` returns (value, t f'(t), ...), and only those two entries are
    read, so ``partial(power_sums, terms)`` is a map.  The bracket is finite,
    0 < lo < hi < inf (``power_bracket`` gives one); flo and fhi carry the
    strict signs of f at lo and hi, which must differ: f's values there, or
    any numbers of the same signs, such as its limits at 0 and inf.  It is
    ``_newton_log`` from the bracket's midpoint; raises BracketError after
    ROOT_EVALS evaluations.
    """
    if not (0.0 < lo < hi < math.inf and (flo > 0.0 > fhi or flo < 0.0 < fhi)):
        raise ValueError("hybrid_root requires 0 < lo < hi < inf and a sign-changing bracket")
    root = _newton_log(f, _split(lo, hi), lo, hi, flo < 0, abs_tol, ROOT_EVALS)
    if root is None:
        raise BracketError(f"root refinement exhausted {ROOT_EVALS} iterations")
    return root


def _newton_log(f: Map, t: float, lo: float, hi: float, rising: bool, abs_tol: float, evals: int,
                longest: float = math.inf) -> Optional[float]:
    """Root of ``f`` to residual |f| <= abs_tol from t in (lo, hi), or None
    when the iteration gives up.  ``f`` is a map as for ``hybrid_root``;
    ``rising`` says f < 0 below the root, and lo = 0 or hi = inf marks an
    end that no evaluation has bounded yet.

    Each evaluation moves lo or hi to t by the sign of f(t).  The next point
    is the Newton step in log t if it is at most half the step before last
    (the first two at most ``longest``), no longer than the bracket, and
    lands strictly inside it; otherwise it is the bisection point (in log t
    while hi > 2 lo) once both ends are known, and while one is still open
    the iteration gives up.  It returns when the residual is met or the
    bracket reaches floating-point width, and gives up after ``evals``
    evaluations.
    """
    last = before = 2.0 * longest  # sizes of the last two steps in log t, 2 longest before the first
    for _ in range(evals):
        ft, dlog = f(t)[:2]
        if abs(ft) <= abs_tol:
            return t
        if (ft < 0) == rising:
            lo = t
        else:
            hi = t
        if hi - lo <= 4e-16 * hi < math.inf:  # floating-point width, never with hi open
            return _split(lo, hi)
        step = -ft / dlog if dlog else math.inf
        # 0.0 marks a rejected step: it is never strictly inside the bracket
        newton = t * math.exp(step) if abs(step) <= 0.5 * before and (not lo or abs(step) <= math.log(hi / lo)) else 0.0
        if lo < newton < hi:
            before, last, t = last, abs(step), newton
        elif lo and hi < math.inf:
            mid = _split(lo, hi)
            before, last, t = last, abs(math.log(mid / t)), mid
        else:
            return None
    return None
