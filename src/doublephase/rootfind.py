"""Scalar root finding: one bracket-safeguarded Newton iteration in log t.

Every scalar equation in the package (Luxemburg norms, the fiber maximizer,
the fiber roots) is strictly monotone in t > 0 on a known piece: (0, inf),
(0, t_circ] or [t_circ, inf).  Maps are callables ``f(t) -> (value, slope)``;
``power_sum`` builds them for sums of powers.  ``hybrid_root`` is rtsafe
(Press et al., Numerical Recipes, 9.4) in log t: from a warm start near the
root it costs one or two evaluations, and it never leaves the sign bracket.
"""
from __future__ import annotations

import math
from typing import Callable

__all__ = ["BracketError", "expand_bracket", "hybrid_root", "power_sum"]

Map = Callable[[float], "tuple[float, float]"]  # t -> (f(t), f'(t))
LN2 = math.log(2.0)


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


def expand_bracket(
    f: Map,
    start: float = 1.0,
    factor: float = 2.0,
    max_steps: int = 200,
) -> tuple[float, float, float, float]:
    """Bracket a sign change of ``f`` by geometric expansion from ``start``.

    ``f(t)`` returns (value, slope); only the value is used.  Returns
    (lo, hi, f(lo), f(hi)) with f(lo) and f(hi) of opposite sign (one may
    be exactly zero).  Expands upward if f(start) > 0 requires it, downward
    otherwise, assuming f is decreasing; raises BracketError after
    ``max_steps`` doublings.
    """
    t = float(start)
    ft = f(t)[0]
    if ft == 0.0:
        return t, t, 0.0, 0.0
    up = ft > 0
    for _ in range(max_steps):
        nxt = t * factor if up else t / factor
        fnxt = f(nxt)[0]
        if up and fnxt <= 0:
            return t, nxt, ft, fnxt
        if not up and fnxt >= 0:
            return nxt, t, fnxt, ft
        t, ft = nxt, fnxt
    raise BracketError(f"no sign change within {max_steps} geometric steps from {start}")


def _split(lo: float, hi: float) -> float:
    """Geometric bisection point of (lo, hi), a factor 2 in from an open end."""
    if hi == math.inf:
        return 2.0 * lo if lo > 0.0 else 1.0
    if lo == 0.0:
        return 0.5 * hi
    return 0.5 * (lo + hi) if hi <= 2.0 * lo else math.sqrt(lo * hi)


def hybrid_root(
    f: Map,
    lo: float,
    hi: float,
    flo: float,
    fhi: float,
    abs_tol: float,
    start: float | None = None,
    max_iter: int = 200,
) -> float:
    """Root of ``f`` between lo and hi to residual |f| <= abs_tol.

    ``f(t)`` returns (value, slope).  The ends satisfy 0 <= lo < hi <= inf;
    flo, fhi are f there (or its limits at 0 and inf) and must differ in
    sign.  From ``start`` (ignored unless strictly inside), each pass takes
    the Newton step in log t when it lands inside the bracket and is at
    most half the step before last, and no longer than a factor 2 while an
    end is still open; otherwise it bisects geometrically.  Returns when the
    residual is met or the bracket reaches floating-point width; raises
    BracketError after ``max_iter`` evaluations.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (lo < hi and (flo > 0 > fhi or flo < 0 < fhi)):
        raise ValueError("hybrid_root requires lo < hi and a sign-changing bracket")
    rising = flo < 0
    t = start if start is not None and lo < start < hi else _split(lo, hi)
    last = before = math.inf  # sizes of the last two steps, in log t
    for _ in range(max_iter):
        ft, slope = f(t)
        if abs(ft) <= abs_tol:
            return t
        if (ft < 0) == rising:
            lo = t
        else:
            hi = t
        if hi < math.inf and abs(hi - lo) <= 4e-16 * max(abs(lo), abs(hi)):
            return 0.5 * (lo + hi)
        dlog = t * slope
        step = -ft / dlog if dlog else math.inf
        width = math.log(hi / lo) if 0.0 < lo and hi < math.inf else LN2
        # 0.0 marks a rejected step: it is never strictly inside the bracket
        newton = t * math.exp(step) if abs(step) <= min(0.5 * before, width) else 0.0
        if lo < newton < hi:
            before, last, t = last, abs(step), newton
        else:
            mid = _split(lo, hi)
            before, last, t = last, abs(math.log(mid / t)), mid
    raise BracketError(f"root refinement exhausted {max_iter} iterations")
