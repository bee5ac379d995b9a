"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces public functions of ``doublephase`` by timing
wrappers at the names their callers look them up by: the package imports
by name, so ``solver.energy_gradient`` is wrapped, not only
``energy.energy_gradient``.  Each call records a span (name, start, end,
parent span, operation id) in memory; ``layer_metrics`` turns the spans
and counters of one operation into the per-layer metrics, and
``write_spans`` writes every span when the run ends.

Root-finder evaluations are counted by wrapping the callable handed to
``hybrid_root``/``expand_bracket``; solver iterations come from the
returned ``SolveResult``s.
"""
import collections
import gzip
import importlib
import statistics
from time import perf_counter

# by module path: the package namespace binds ``doublephase.energy`` to the function
cli, energy, fibering, rootfind, solver, space, sweep = (
    importlib.import_module(f"doublephase.{name}")
    for name in ("cli", "energy", "fibering", "rootfind", "solver", "space", "sweep")
)

# span name -> the (module, attribute) sites it is installed at
SITES = {
    "cli.run": [(cli, "run")],
    "cli.load_config": [(cli, "load_config")],
    "mesh.build_rect_mesh": [(cli, "build_rect_mesh")],
    "space.sample_fields": [(m, "sample_fields") for m in (cli, solver, sweep, space, energy)],
    "space.modular_breakdown": [(m, "modular_breakdown") for m in (space, fibering, energy, sweep)],
    "space.luxemburg_norm": [(solver, "luxemburg_norm"), (space, "luxemburg_norm")],
    "energy.energy_gradient": [(solver, "energy_gradient")],
    "energy.weak_residual": [(solver, "weak_residual")],
    "fibering.fiber_terms": [(m, "fiber_terms") for m in (cli, solver, sweep, fibering)],
    "fibering.fiber_roots": [(solver, "fiber_roots")],
    "fibering.t_circ": [(m, "t_circ") for m in (cli, sweep, fibering)],
    "fibering.t_tilde_circ": [(m, "t_tilde_circ") for m in (cli, sweep, fibering)],
    # not at fibering.eta: the root finders call it there, by the thousand
    "fibering.eta": [(cli, "eta")],
    "solver.solve_two": [(cli, "solve_two")],
    "sweep.estimate_lambda_star": [(cli, "estimate_lambda_star")],
    "sweep.estimate_lambda_tilde": [(cli, "estimate_lambda_tilde"), (sweep, "estimate_lambda_tilde")],
    "sweep.check_nzero_empty": [(cli, "check_nzero_empty"), (sweep, "check_nzero_empty")],
    "sweep.estimate_sobolev_constant": [
        (cli, "estimate_sobolev_constant"),
        (sweep, "estimate_sobolev_constant"),
    ],
}

# root finders: (module, attribute) -> the caller label of its counters
ROOT_SITES = {
    (space, "hybrid_root"): "lux",
    (fibering, "hybrid_root"): "fiber",
    (space, "expand_bracket"): "lux",
    (fibering, "expand_bracket"): "fiber",
}

# minimize_on_branch: (module, attribute) -> the counter prefix of its caller
SOLVE_SITES = {(solver, "minimize_on_branch"): "solve_two", (sweep, "minimize_on_branch"): "lambda_star"}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []               # [name, start, end, parent index, op id]
        self.counts = collections.Counter()
        self.op = 0
        self._stack = [-1]
        self._saved = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, name, fn, on_result=None, on_error=None, prepare=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if prepare is not None:
                args = prepare(args)
            rec = [name, 0.0, 0.0, stack[-1], self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(counts, out)
            return out

        return traced

    def _counting(self, key):
        """``prepare`` hook: wrap the root finder's callable to count evaluations."""
        counts = self.counts

        def prepare(args):
            f = args[0]

            def counted(t):
                counts[key] += 1
                return f(t)

            return (counted,) + tuple(args[1:])

        return prepare

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        """Wrap every site; ``uninstall`` restores the original functions."""
        for name, sites in SITES.items():
            for module, attr in sites:
                hooks = {}
                if name == "fibering.fiber_roots":
                    hooks["on_result"] = _count_two_roots
                elif name == "solver.solve_two":
                    hooks["on_result"] = _count_selected
                self._patch(module, attr, self._wrap(name, getattr(module, attr), **hooks))
        for (module, attr), label in ROOT_SITES.items():
            key = f"{attr}.{label}"

            def on_result(c, out, key=key):
                c[key + ".calls"] += 1

            def on_error(c, exc, key=key):
                c[key + ".calls"] += 1
                if isinstance(exc, rootfind.BracketError):
                    c[key + ".failures"] += 1

            wrapper = self._wrap(
                f"rootfind.{attr}",
                getattr(module, attr),
                on_result=on_result,
                on_error=on_error,
                prepare=self._counting(key + ".evals"),
            )
            self._patch(module, attr, wrapper)
        for (module, attr), prefix in SOLVE_SITES.items():
            self._patch(
                module,
                attr,
                self._wrap(
                    "solver.minimize_on_branch",
                    getattr(module, attr),
                    on_result=_solve_result_counter(prefix),
                    on_error=_noroot_counter(prefix),
                ),
            )

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def begin_op(self, op_id: int):
        """Start operation ``op_id``: later spans carry it, counters restart."""
        self.op = op_id
        self.counts.clear()

    def end_op(self) -> dict:
        return dict(self.counts)

    # -- output ------------------------------------------------------------
    def write_spans(self, path: str):
        """All spans as gzip CSV: name, start and end in seconds, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{op}\n")


def _count_two_roots(counts, roots):
    counts["fiber_roots.two"] += roots.two


def _count_selected(counts, report):
    for res in (report.plus, report.minus):
        if res is not None:
            counts["selected_iterations"] += res.iterations


def _solve_result_counter(prefix):
    def on_result(counts, res):
        counts[prefix + ".starts"] += 1
        counts[prefix + ".converged"] += res.converged
        counts[f"{prefix}.iterations.{res.branch}"] += res.iterations

    return on_result


def _noroot_counter(prefix):
    def on_error(counts, exc):
        counts[prefix + ".starts"] += 1
        if isinstance(exc, solver.NoRootError):
            counts[prefix + ".noroot"] += 1

    return on_error


def span_totals(spans, op_id: int) -> tuple:
    """(totals, breakdowns) over the spans of one operation: totals maps a
    span name to [calls, total seconds, self seconds]; breakdowns counts the
    modular breakdowns outside the lambda* scan.

    Self time is a span's duration minus the time its children cover;
    children run inside their parent, one at a time, so that is the sum of
    their durations.  Operations run one after another, so the spans of
    one operation are contiguous.
    """
    first = next((i for i, s in enumerate(spans) if s[4] == op_id), len(spans))
    last = first
    while last < len(spans) and spans[last][4] == op_id:
        last += 1
    child = collections.Counter()
    for name, t0, t1, parent, _ in spans[first:last]:
        child[parent] += t1 - t0
    totals = collections.defaultdict(lambda: [0, 0.0, 0.0])
    in_lstar = {}
    outside = 0
    for i in range(first, last):
        name, t0, t1, parent, _ = spans[i]
        entry = totals[name]
        entry[0] += 1
        entry[1] += t1 - t0
        entry[2] += t1 - t0 - child[i]
        in_lstar[i] = name == "sweep.estimate_lambda_star" or in_lstar.get(parent, False)
        if name == "space.modular_breakdown" and not in_lstar[i]:
            outside += 1
    return dict(totals), outside


_IDLE = (0, 0.0, 0.0)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(
    totals: dict, breakdowns: int, counts: dict, kind: str, samples: int, num_nodes: int, num_tris: int
) -> dict:
    """Per-layer metrics of one traced operation (0 where a layer is idle)."""

    def calls(name):
        return totals.get(name, _IDLE)[0]

    def total_s(name):
        return totals.get(name, _IDLE)[1]

    def self_s(name):
        return totals.get(name, _IDLE)[2]

    def us(name):
        return 1e6 * _ratio(total_s(name), calls(name))

    c = collections.Counter(counts)
    it_plus = c["solve_two.iterations.plus"] + c["lambda_star.iterations.plus"]
    it_minus = c["solve_two.iterations.minus"] + c["lambda_star.iterations.minus"]
    it_total = it_plus + it_minus
    starts = c["solve_two.starts"] + c["lambda_star.starts"]
    # bytes of the distinct float64/int64 arrays one call reads and writes,
    # computed from M and T: modular_breakdown reads u, triangles (T,3),
    # tri_grads (T,3,2), tri_area, mu_centroid and five nodal weight/field
    # vectors; energy_gradient reads the same and writes the (M,) gradient
    # and the (M,) bool floor mask.
    breakdown_bytes = 8 * (6 * num_nodes + 11 * num_tris) if calls("space.modular_breakdown") else 0
    gradient_bytes = 8 * (7 * num_nodes + 11 * num_tris) + num_nodes if calls("energy.energy_gradient") else 0
    sampling = kind in ("sweep", "sample")
    return {
        "space.modular_breakdown.calls": calls("space.modular_breakdown"),
        "space.modular_breakdown.us": us("space.modular_breakdown"),
        "space.modular_breakdown.self_s": self_s("space.modular_breakdown"),
        "space.modular_breakdown.bytes_computed": breakdown_bytes,
        "energy.energy_gradient.calls": calls("energy.energy_gradient"),
        "energy.energy_gradient.us": us("energy.energy_gradient"),
        "energy.energy_gradient.self_s": self_s("energy.energy_gradient"),
        "energy.energy_gradient.bytes_computed": gradient_bytes,
        "energy.weak_residual.us": us("energy.weak_residual"),
        "space.luxemburg_norm.calls": calls("space.luxemburg_norm"),
        "space.luxemburg_norm.us": us("space.luxemburg_norm"),
        "fibering.fiber_terms.calls": calls("fibering.fiber_terms"),
        "fibering.fiber_roots.calls": calls("fibering.fiber_roots"),
        "fibering.fiber_roots.self_s": self_s("fibering.fiber_roots"),
        "fibering.fiber_roots.two_frac": _ratio(c["fiber_roots.two"], calls("fibering.fiber_roots")),
        "fibering.t_circ.calls": calls("fibering.t_circ"),
        "fibering.t_circ.us": us("fibering.t_circ"),
        "rootfind.hybrid_root.lux.evals_per_call": _ratio(c["hybrid_root.lux.evals"], c["hybrid_root.lux.calls"]),
        "rootfind.hybrid_root.fiber.evals_per_call": _ratio(
            c["hybrid_root.fiber.evals"], c["hybrid_root.fiber.calls"]
        ),
        "rootfind.hybrid_root.self_s": self_s("rootfind.hybrid_root"),
        "rootfind.expand_bracket.evals_per_call": _ratio(
            c["expand_bracket.lux.evals"] + c["expand_bracket.fiber.evals"],
            c["expand_bracket.lux.calls"] + c["expand_bracket.fiber.calls"],
        ),
        "rootfind.expand_bracket.failures": c["expand_bracket.lux.failures"] + c["expand_bracket.fiber.failures"],
        "solver.starts": starts,
        "solver.starts_converged_frac": _ratio(c["solve_two.converged"] + c["lambda_star.converged"], starts),
        "solver.noroot_starts": c["solve_two.noroot"] + c["lambda_star.noroot"],
        "solver.iterations_total": it_total,
        "solver.iterations_plus": it_plus,
        "solver.iterations_minus": it_minus,
        "solver.selected_iter_frac": _ratio(c["selected_iterations"], it_total),
        # every projection onto a branch locates that branch's fiber roots once
        "solver.projections_per_iter": _ratio(calls("fibering.fiber_roots"), it_total),
        "solver.minimize_on_branch.self_s": self_s("solver.minimize_on_branch"),
        "sweep.lambda_star_s": total_s("sweep.estimate_lambda_star"),
        "sweep.lambda_star.solves": c["lambda_star.starts"],
        "sweep.lambda_star.iterations": c["lambda_star.iterations.plus"] + c["lambda_star.iterations.minus"],
        "sweep.lambda_tilde_s": total_s("sweep.estimate_lambda_tilde"),
        "sweep.nzero_s": total_s("sweep.check_nzero_empty"),
        "sweep.sobolev_s": total_s("sweep.estimate_sobolev_constant"),
        "sweep.breakdowns_per_sample": _ratio(breakdowns, samples)
        if sampling
        else 0.0,
        "cli.run.self_s": self_s("cli.run"),
    }


def setup_metrics(totals: dict) -> dict:
    """Per-layer metrics of one traced set-up (``worker.setup``)."""
    return {
        "mesh.build_s": totals.get("mesh.build_rect_mesh", _IDLE)[1],
        "space.sample_fields_s": totals.get("space.sample_fields", _IDLE)[1],
        "cli.load_config_s": totals.get("cli.load_config", _IDLE)[1],
    }


def median_metrics(rows: list) -> dict:
    """Metric-wise median over the per-operation metric dicts in ``rows``;
    the lower middle one for an even count, so counts stay whole."""
    return {key: statistics.median_low(row[key] for row in rows) for key in rows[0]}
