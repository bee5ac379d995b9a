"""The names the benchmark's tracer patches are bound in the package.

``perfbench/tracing.py`` installs its wrappers at (module, attribute) sites,
some of which the package keeps only for it.  A site that is renamed or
removed would otherwise fail only a traced benchmark run.
"""
import importlib.util
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
SITES = sorted(
    {
        (module.__name__, attr)
        for sites in (
            [site for group in tracing.SITES.values() for site in group],
            tracing.ROOT_SITES,
            tracing.SOLVE_SITES,
        )
        for module, attr in sites
    }
)


@pytest.mark.parametrize("module,attr", SITES, ids=[f"{m}.{a}" for m, a in SITES])
def test_every_traced_site_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_root_finders_take_their_map_first():
    # the tracer counts evaluations by wrapping the first positional argument
    for module, attr in tracing.ROOT_SITES:
        first = next(iter(inspect.signature(getattr(module, attr)).parameters.values()))
        assert first.name == "f" and first.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
