"""Built-in property suites for the `props` CLI command.

Each suite draws seeded random functions and yields one violation size per
check, 0 when it holds, of the model's structural relations (modular-norm
relations, the equivalent-norm sandwich, operator monotonicity, fiber
identities unders random scalings, and a finite-difference gradient check);
``run_property_suites`` tallies them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import apply_operator_A, energy, energy_gradient
from .fibering import eta, fiber_roots, fiber_terms, psi_derivatives
from .mesh import Mesh
from .problem import ProblemData
from .space import (
    modular_rho,
    norm_circ,
    norm_custom,
    norm_star,
    sample_fields,
)

__all__ = ["SuiteResult", "run_property_suites"]

SLACK = 1e-12


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    failed: int
    worst: float  # largest violation magnitude observed (0 when clean)

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _random_function(rng, n) -> np.ndarray:
    return rng.random(n) + 0.05


def _bound(base: float, exponent: float) -> float:
    """base**exponent, +inf where that leaves the floats, so a power bound is
    decided rather than raised."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _suite_modular_norm(mesh, data, rng, n, fields):
    # the two-sided power bounds use the modular's actual top power
    # s = max(q, p_*): the boundary term carries exponent p_*, which the
    # hypotheses do not order against q
    s = max(data.q, data.p_lower_star)
    for _ in range(n):
        u = (_random_function(rng, mesh.num_nodes) - 0.2) * rng.choice([0.25, 1.0, 4.0])
        nrm = norm_custom(mesh, data, u, fields)
        rho = modular_rho(mesh, data, u, fields)
        bad = 0.0
        if nrm > 0:
            bad = max(bad, abs(modular_rho(mesh, data, u / nrm, fields) - 1.0) - 1e-10)
        if nrm < 1.0 and not (nrm**s - SLACK <= rho <= nrm**data.p + SLACK):
            bad = max(bad, 1.0)
        if nrm > 1.0 and not (_bound(nrm, data.p) - SLACK <= rho <= _bound(nrm, s) + SLACK):
            bad = max(bad, 1.0)
        if (nrm < 1.0 - SLACK and rho > 1.0 + SLACK) or (nrm > 1.0 + SLACK and rho < 1.0 - SLACK):
            bad = max(bad, 1.0)
        c = 2.5
        hom = abs(norm_custom(mesh, data, c * u, fields) - c * nrm)
        if hom > 1e-10 * max(1.0, c * nrm):
            bad = max(bad, hom)
        yield bad


def _suite_norm_sandwich(mesh, data, rng, n, fields):
    for _ in range(n):
        u = _random_function(rng, mesh.num_nodes) - 0.3
        circ = norm_circ(mesh, data, u, fields=fields)
        star = norm_star(mesh, data, u, fields=fields)
        custom = norm_custom(mesh, data, u, fields)
        bad = 0.0
        if not (circ / 3.0 - SLACK <= star <= 3.0 * circ + SLACK):
            bad = max(bad, 1.0)
        gap = abs(star - custom)
        if gap > 1e-12 * max(1.0, custom):
            bad = max(bad, gap)
        yield bad


def _suite_operator_monotone(mesh, data, rng, n, fields):
    for _ in range(n):
        u = _random_function(rng, mesh.num_nodes) - 0.4
        v = _random_function(rng, mesh.num_nodes) - 0.4
        w = u - v
        pairing = apply_operator_A(mesh, data, u, w, fields) - apply_operator_A(
            mesh, data, v, w, fields
        )
        yield -pairing if pairing < -SLACK else 0.0


def _suite_fiber_identity(mesh, data, rng, n, fields):
    for _ in range(n):
        u = _random_function(rng, mesh.num_nodes)
        ft = fiber_terms(mesh, data, u, fields)
        lam = 10.0 ** rng.uniform(-2, 1)
        t = 10.0 ** rng.uniform(-1, 1)
        _, d1, _ = psi_derivatives(ft, lam, t)
        rhs = t ** (ft.q1 - 1.0) * (eta(ft, t) - lam * ft.e)
        gap = abs(d1 - rhs) / max(1.0, abs(d1), abs(rhs))
        bad = gap - SLACK if gap > SLACK else 0.0
        roots = fiber_roots(ft, lam)
        if roots.two and not (roots.t1 < roots.t_circ < roots.t2):
            bad = max(bad, 1.0)
        yield bad


def _suite_gradient_fd(mesh, data, rng, n, fields, lam=0.5, step=1e-6):
    # normalized by the gradient's sup norm: differencing the global energy
    # has an absolute roundoff floor that tiny components cannot beat
    for _ in range(max(1, n // 20)):
        u = rng.random(mesh.num_nodes) * 0.9 + 0.1
        grad = energy_gradient(mesh, data, u, lam, fields=fields)
        scale = max(float(np.max(np.abs(grad))), 1e-12)
        for i in rng.choice(mesh.num_nodes, size=min(8, mesh.num_nodes), replace=False):
            up = u.copy()
            up[i] += step
            dn = u.copy()
            dn[i] -= step
            fd = (energy(mesh, data, up, lam, fields).total - energy(mesh, data, dn, lam, fields).total) / (
                2 * step
            )
            rel = abs(fd - grad[i]) / scale
            yield rel if rel > 1e-6 else 0.0


def run_property_suites(mesh: Mesh, data: ProblemData, seed: int = 0, n: int = 200):
    """Run every suite with a fresh seeded stream; returns a list of SuiteResult."""
    fields = sample_fields(mesh, data)
    suites = [
        _suite_modular_norm,
        _suite_norm_sandwich,
        _suite_operator_monotone,
        _suite_fiber_identity,
        _suite_gradient_fd,
    ]
    results = []
    for k, suite in enumerate(suites):
        bad = list(suite(mesh, data, np.random.default_rng(seed + 1000 * k), n, fields))
        name = suite.__name__[len("_suite_"):]
        results.append(SuiteResult(name, len(bad), sum(b > 0 for b in bad), max(bad, default=0.0)))
    return results
