import importlib
import inspect
import os
import pkgutil

import pytest

import doublephase
from doublephase import forkmap
from doublephase.cli import ConfigError
from doublephase.coeff_expr import ExprEvalError, ExprParseError
from doublephase.rootfind import BracketError
from doublephase.solver import NoRootError
from doublephase.sweep import SweepUndetermined

from conftest import assert_no_child_left

# one instance of every exception class the package defines
EXCEPTIONS = [
    ConfigError("solver.seed must be >= 0"),
    ExprParseError("unexpected token ')'", 3),
    ExprEvalError("non-finite value from '/'"),
    BracketError("no sign change"),
    NoRootError("minus branch unreachable"),
    SweepUndetermined(0.2, "minus branch did not converge from start 'ones'"),
]


def package_exception_classes() -> set:
    found = set()
    for info in pkgutil.iter_modules(doublephase.__path__):
        if info.name == "__main__":  # runs the CLI when imported
            continue
        module = importlib.import_module(f"doublephase.{info.name}")
        found.update(
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == module.__name__
        )
    return found


def test_every_package_exception_class_is_sent_below():
    assert package_exception_classes() == {type(exc) for exc in EXCEPTIONS}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda exc: type(exc).__name__)
def test_every_package_exception_crosses_a_worker_pipe(monkeypatch, exc):
    # the worker pickles the exception and the parent rebuilds it, so each
    # class must survive the round trip with its message and attributes
    def raising(item):
        raise exc

    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    with pytest.raises(type(exc)) as info:
        forkmap._fork_map(raising, [0, 1], died=None)
    assert type(info.value) is type(exc)
    assert str(info.value) == str(exc)
    assert vars(info.value) == vars(exc)
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or not hasattr(os, "fork"), reason="no CPU affinity API")
def test_each_worker_runs_on_its_own_cpu(monkeypatch):
    # the first items go to the workers in the order they were forked
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 3)
    got = forkmap._fork_map(lambda item: os.sched_getaffinity(0), [0, 1, 2], died=None)
    assert got == [{cpus[k % len(cpus)]} for k in range(3)]
    assert os.sched_getaffinity(0) == set(cpus)
    assert_no_child_left()
