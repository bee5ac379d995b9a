"""One ordered map over forked worker processes.

``_fork_map(func, items, died)`` is ``[func(item) for item in items]`` run
on one process per item: each item but the last on a worker forked for it
alone, which exits once its result is written, and the last in the calling
process, which pins itself to the CPU that item's worker would have taken
while it runs it, and restores its affinity set after.  Every caller sizes
its items by ``_width``: one per CPU the process may run on
(``os.sched_getaffinity``, so ``taskset`` restricts it) at most.  The
parent reads the results in item order, so every value and exception is
exactly what one process would give.  Three kinds of map run on it:

- the lambda* scan (``sweep._first_nonpositive``), which splits its grid
  into contiguous chunks, one per CPU, whenever it has two CPUs and two
  grid points; each chunk descends its grid points' minus starts as
  lockstep batches, and the parent runs the last chunk;
- the sweep's sampling (``sweep._map_chunks``: the sampled fibers and the
  Rayleigh candidates), which splits only when each worker gets at least
  ``sweep.FORK_MIN_NODES`` = 2^18 node evaluations (directions times mesh
  nodes), so from 64x64 on at 200 samples; the last chunk runs in the
  parent.  One forked chunk plus the parent's against one process at 200
  samples, each chunk broken down in blocks of directions (one BLAS
  thread, median time ratios of interleaved pairs, two runs each, fibers /
  the whole Sobolev estimate): 16x16 1.25 and 1.20 / 1.74 and 1.77 (40
  pairs; 9-17 and 5-6 ms in one process), 32x32 0.94 and 0.86 / 0.90 and
  0.89 (30 pairs; 19-21 and 18-20 ms), 64x64 0.68 and 0.64 / 0.75 and
  0.75 (20 pairs; 63 and 51-55 ms).  The blocks cut the in-process time
  most at 16x16, which now loses clearly; 32x32 gains about 2 ms of a
  sweep that takes seconds, so the threshold stays;
- the lanes of ``solver.solve_two`` (``solver._solve_branches``), one
  group per branch, which split only on meshes of at least
  ``solver.LANE_FORK_MIN_NODES`` = 100 nodes: the plus group on a forked
  worker, the minus group, about twice as long, in the parent.
  ``solve_two`` on the preset at one BLAS thread, split against one
  in-process batch, median time ratio of interleaved pairs on 2 vCPUs (two
  runs each): 8x8 0.99 and 1.00 over 60 pairs (break-even; 8x8 is below
  the threshold), 16x16 0.94 and 0.94 over 60 pairs, 32x32 0.79 and 0.82
  over 30 pairs.

A timeline of 16x16 ``solve_two`` maps (``time.perf_counter`` in the parent
and the worker, medians of 40 maps in each of two runs, one BLAS thread, 2
vCPUs) places the map's own cost.  The parent forks the plus group's worker,
pins itself, and starts the minus group 3.1 ms into the map (4.6-5.4 ms
when the minus group ran on a second forked worker); the plus group starts
at about 3.3 ms.  The worker exits on its own once it has written its result, while
the parent is still busy, so after the minus group ends, reading the plus
result and reaping its worker take 0.6 ms (4.7-4.9 ms to read, kill and
reap two waiting workers).  The kernel may keep freshly forked workers on
their parent's CPU: unpinned, two 16x16 lane groups forked together both
ran on CPU 0 and each took twice its time alone, and with the parent's
item unpinned the benchmark's ``solve16`` read 0.074-0.078 s against
0.052-0.053 s pinned (6 pairs).  So the k-th item, in a worker or in the
parent, runs pinned to the k-th CPU of the caller's set.  A second CPU that other
processes contend moves every break-even point up.

A map called inside a worker, or inside the parent's own item, runs
in-process, so workers never fork workers of their own.  A worker that dies gives its item
``died(item, exit status)`` in the parent; no worker outlives its map.
"""
from __future__ import annotations

import os
import pickle

_in_worker = False  # true in a forked worker and in the parent's own item, where maps run in-process


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _width(n_items: int) -> int:
    """Processes a map over ``n_items`` items may run on: one per available
    CPU, at most one per item, and 1 (in-process) inside a worker or
    without ``os.fork``.  Every caller sizes its items by it."""
    return 1 if _in_worker or not hasattr(os, "fork") else min(_available_cpus(), n_items)


def _fork_map(func, items, died) -> list:
    """``[func(item) for item in items]``; an exception ``func`` raises at an
    earlier item propagates.

    On one CPU, for one item, inside a worker, or without ``os.fork``, this
    is that loop.  Otherwise each item but the last runs on a forked worker
    of its own, which exits once its result is written, and the last runs in
    the parent (``_run_as_worker``); the parent then reads the workers'
    results in item order, so the outcome, exceptions included, is the
    loop's.  The callers size their items by ``_width``, one per CPU at
    most, and a map with more items than CPUs is refused.  The value of an
    item whose worker died is ``died(item, its exit status)``, called in the
    parent in the item's turn.  However the map ends (its values, an
    exception, a KeyboardInterrupt), every worker is killed and reaped
    before this returns.
    """
    width = _width(len(items))
    if width < 2:
        return [func(item) for item in items]
    if len(items) > width:
        raise ValueError(f"a fork map takes at most one item per CPU: {len(items)} items on {width} CPUs")
    workers = []
    try:
        for k, item in enumerate(items[:-1]):
            workers.append(_Worker(func, item, k, workers))
        own = _run_as_worker(func, items[-1], len(workers))
        values = []
        for worker, item in zip(workers, items):
            outcome = worker.receive()
            if outcome is None:  # the worker died
                values.append(died(item, os.waitstatus_to_exitcode(worker.stop())))
                continue
            ok, value = outcome
            if not ok:
                raise value
            values.append(value)
        ok, value = own
        if not ok:
            raise value
        return values + [value]
    finally:
        for worker in workers:
            if worker.pid is not None:
                worker.stop(kill=True)


def _pin(k: int):
    """Pin this process to the k-th CPU (mod their count) of its affinity
    set, where a map's k-th worker runs (0-based): the kernel may keep
    freshly forked workers on their parent's CPU.  Returns the set it had,
    or None without the affinity API."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    mask = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {sorted(mask)[k % len(mask)]})
    except OSError:
        pass  # a speed-up only: unpinned, the item still runs
    return mask


def _run_as_worker(func, item, k: int) -> tuple:
    """(ok, ``func(item)`` or the exception it raised), run in this process
    as the map's k-th worker would run it: pinned to that worker's CPU, and
    with any map inside it in-process.  The affinity set and ``_in_worker``
    are restored however it ends, KeyboardInterrupt included."""
    global _in_worker
    mask = _pin(k)
    _in_worker = True
    try:
        return True, func(item)
    except Exception as exc:
        return False, exc
    finally:
        _in_worker = False
        if mask is not None:
            os.sched_setaffinity(0, mask)


class _Worker:
    """A forked process that runs ``func`` on its one item, pipes back the
    result and exits."""

    def __init__(self, func, item, k: int, others):
        self.results, result_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            _serve(func, item, k, result_w, [self, *others])
        os.close(result_w)

    def receive(self):
        """(ok, result or exception) of its item, or None if it died."""
        try:
            size = int.from_bytes(_read_exactly(self.results, 8), "little")
            return pickle.loads(_read_exactly(self.results, size))
        except EOFError:
            return None

    def stop(self, kill: bool = False) -> int:
        """Reap it (after SIGKILL if ``kill``) and close its pipe; its wait status."""
        if kill:
            import signal

            os.kill(self.pid, signal.SIGKILL)
        status = os.waitpid(self.pid, 0)[1]
        os.close(self.results)
        self.pid = None
        return status


def _serve(func, item, k: int, results: int, parents):
    """A worker's life as the map's k-th worker: write the pickled (ok,
    ``func(item)`` or its exception) to ``results`` behind its 8-byte
    length, then exit; never returns.  ``parents`` are the workers whose
    parent-side pipe ends it inherited."""
    global _in_worker
    _in_worker = True
    status = 1
    try:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
        _pin(k)
        for w in parents:
            os.close(w.results)
        try:
            out = True, func(item)
        except Exception as exc:
            out = False, exc
        payload = pickle.dumps(out)
        payload = len(payload).to_bytes(8, "little") + payload
        while payload:
            payload = payload[os.write(results, payload):]
        status = 0
    finally:
        os._exit(status)


def _read_exactly(fd: int, n: int) -> bytes:
    """``n`` bytes from ``fd``; EOFError if it closes first."""
    buf = b""
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            raise EOFError
        buf += chunk
    return buf
