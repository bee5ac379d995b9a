import importlib
import inspect
import os
import pkgutil
import time

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


AFFINITY = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or not hasattr(os, "fork"), reason="no CPU affinity API"
)


def where(item):
    """(process id, CPU affinity set) of the process running ``item``."""
    return os.getpid(), os.sched_getaffinity(0)


@AFFINITY
def test_each_worker_runs_on_its_own_cpu(monkeypatch):
    # the first items go to the workers in the order they were forked; the
    # last item runs in the parent, pinned where its worker would run
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 3)
    got = forkmap._fork_map(where, [0, 1, 2], died=None)
    assert [mask for _, mask in got] == [{cpus[k % len(cpus)]} for k in range(3)]
    pids = [pid for pid, _ in got]
    assert pids[2] == os.getpid() and os.getpid() not in pids[:2] and pids[0] != pids[1]
    assert os.sched_getaffinity(0) == set(cpus)
    assert not forkmap._in_worker
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_an_earlier_workers_exception_wins_over_the_parents(monkeypatch):
    ran_here = []

    def raising(item):
        ran_here.append(item)  # a worker's append stays in the worker
        raise ValueError(f"item {item}")

    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    with pytest.raises(ValueError, match="^item 0$"):
        forkmap._fork_map(raising, [0, 1], died=None)
    assert ran_here == [1]
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_map_inside_the_parents_item_runs_in_process(monkeypatch):
    def nested(item):
        return forkmap._fork_map(lambda inner: os.getpid(), [0, 1], died=None)

    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    first, last = forkmap._fork_map(nested, [0, 1], died=None)
    parent = os.getpid()
    assert last == [parent, parent]  # the parent's item: no new process
    assert len(set(first)) == 1 and parent not in first  # the worker's item, in the worker
    assert not forkmap._in_worker
    assert_no_child_left()


def parents_item(outcome):
    """An item function whose last item, the parent's, ends by ``outcome``:
    'value' returns its affinity set, anything else is raised."""

    def func(item):
        if item == 0:
            return None
        if outcome == "value":
            return os.sched_getaffinity(0)
        raise outcome

    return func


@AFFINITY
@pytest.mark.parametrize("one_cpu", [False, True], ids=["own_mask", "one_cpu_mask"])
@pytest.mark.parametrize(
    "outcome", ["value", ValueError("bad item"), KeyboardInterrupt()], ids=["returns", "raises", "interrupted"]
)
def test_the_parents_item_restores_its_affinity(outcome, one_cpu, monkeypatch):
    before = os.sched_getaffinity(0)
    cpus = sorted(before)
    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    try:
        if one_cpu:
            os.sched_setaffinity(0, {cpus[0]})
        mask = os.sched_getaffinity(0)
        if outcome == "value":
            got = forkmap._fork_map(parents_item(outcome), [0, 1], died=None)
            assert got == [None, {sorted(mask)[1 % len(mask)]}]
        else:
            with pytest.raises(type(outcome)):
                forkmap._fork_map(parents_item(outcome), [0, 1], died=None)
        assert os.sched_getaffinity(0) == mask
        assert not forkmap._in_worker
    finally:
        os.sched_setaffinity(0, before)
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "waitid"), reason="no os.fork or os.waitid")
def test_a_worker_with_its_only_item_exits_on_its_own(monkeypatch):
    # its task pipe closes once the item is handed over, so it exits after
    # writing the result while the parent runs its own item, and the parent
    # reaps an exited worker instead of killing a waiting one
    statuses = []
    stop = forkmap._Worker.stop

    def recording(worker, kill=False):
        status = stop(worker, kill)
        statuses.append(os.waitstatus_to_exitcode(status))
        return status

    def func(item):
        if item == 1:  # the parent's item: wait until the worker has exited, unreaped
            deadline = time.monotonic() + 10
            while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
                assert time.monotonic() < deadline, "the worker did not exit"
                time.sleep(0.001)
        return item

    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    monkeypatch.setattr(forkmap._Worker, "stop", recording)
    assert forkmap._fork_map(func, [0, 1], died=None) == [0, 1]
    assert statuses == [0]
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_a_map_with_stop_forks_every_item(monkeypatch):
    # a map that may stop early forks one worker per CPU and runs no item in
    # the parent, which only reads the answers
    monkeypatch.setattr(forkmap, "_available_cpus", lambda: 2)
    pids = forkmap._fork_map(lambda item: os.getpid(), [0, 1], died=None, stop=lambda pid: False)
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert_no_child_left()
