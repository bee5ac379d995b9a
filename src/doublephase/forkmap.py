"""One ordered map over forked worker processes.

``_fork_map(func, items, died)`` is ``[func(item) for item in items]`` run
on up to one forked worker per CPU the process may run on
(``os.sched_getaffinity``, so ``taskset`` restricts it).  The parent reads
the results in item order, so every value and exception is exactly what one
process would give.  Three kinds of map run on it:

- the lambda* scan's grid points (``sweep._first_false``), which forks
  whenever it has two CPUs and two grid points;
- the sweep's sampling (``sweep._map_chunks``: the sampled fibers and the
  Rayleigh candidates), which forks only when each worker gets at least
  ``sweep.FORK_MIN_NODES`` = 2^18 node evaluations (directions times mesh
  nodes), so from 64x64 on at 200 samples.  Two workers against one
  process at 200 samples (one BLAS thread, medians of 15 interleaved
  runs): 16x16 lost 31% and 37% (fibers, Rayleigh candidates), 32x32
  broke even (7% faster, 9% slower), 64x64 won 8% and 21%;
- the lanes of ``solver.solve_two`` (``solver._solve_branches``), one
  group per branch, so two workers at most, which fork only on meshes of
  at least ``solver.LANE_FORK_MIN_NODES`` = 100 nodes.  Lanes merge, so
  the minus group, which runs about twice as long as the plus group,
  bounds the gain.  ``solve_two`` on the preset at one BLAS thread, two
  per-branch workers against one in-process batch, median time ratio of
  interleaved pairs on 2 vCPUs in three runs of 40, 60 and 100 pairs: 8x8
  1.12, 1.02 and 0.89, and 16x16 1.17, 0.96 and 1.06 (quartiles about 0.75
  to 1.35), break-even; 32x32 0.79 and 0.85 (40 and 100 pairs).  The
  threshold stays below 16x16 all the same: with its lanes in-process the
  parent holds their L-BFGS store, and the benchmark's ``solve16`` peak RSS
  rose from 38.4 to 40.8 MB at the same wall time.

A two-worker map costs about 6-7 ms beyond its items' work (the forks, the
pipes and the pickled lane results of a 16x16 ``solve_two``: medians 5.7
and 6.8 ms over 40 maps, one BLAS thread).  A timeline of such maps
(``time.perf_counter`` in the parent and the workers, 2 vCPUs) places it:
the first fork takes about 1.3 ms and the second about 4.3 ms, while the
first worker starts; that worker's self-pinning takes about 2 ms, so its
first item starts about 6.5 ms into the map; after the last item, pickling,
reading, killing and reaping take about 3.5-4.6 ms.  The kernel may keep
freshly forked workers on their parent's CPU: unpinned, two 16x16 lane
groups forked together both ran on CPU 0 and each took twice its time
alone.  So the n-th worker pins itself to the n-th CPU of the parent's
set.  A second CPU that other processes contend moves every break-even
point up.

A map called inside a worker runs in-process, so workers never fork
workers of their own: the lambda* scan's workers solve their lanes
in-process.  A worker that dies gives its item ``died(item, exit status)``
in the parent; no worker outlives its map.
"""
from __future__ import annotations

import os
import pickle

_in_worker = False  # true in a forked worker, whose maps run in-process


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _width(n_items: int) -> int:
    """Workers a map over ``n_items`` items may fork: one per available CPU,
    at most one per item, and none (1, in-process) inside a worker or
    without ``os.fork``."""
    return 1 if _in_worker or not hasattr(os, "fork") else min(_available_cpus(), n_items)


def _fork_map(func, items, died, stop=None) -> list:
    """``[func(item) for item in items]``, cut after the first value for
    which ``stop`` is true; an exception ``func`` raises at an earlier item
    propagates.

    On one CPU, for one item, inside a worker, or without ``os.fork``, this
    is that loop.  Otherwise min(CPUs, len(items)) forked workers each take
    the first item not yet taken whenever they are free, and the parent
    reads the results in item order, so the outcome, exceptions included,
    is the loop's.  The value of an item whose worker died is ``died(item,
    its exit status)``, called in the parent in the item's turn (status
    None for an item left when every worker had died).  However the map
    ends (its values, an exception, a KeyboardInterrupt), every worker is
    killed and reaped before this returns.
    """
    values = []
    width = _width(len(items))
    if width < 2:
        for item in items:
            values.append(func(item))
            if stop is not None and stop(values[-1]):
                break
        return values

    import select

    workers = {}  # result pipe's read end -> _Worker
    poller = select.poll()
    done = {}     # item index -> (ok, func's value or exception), or (None, exit status) if its worker died
    taken = 0     # items handed out so far
    try:
        for _ in range(width):
            worker = _Worker(func, items, workers.values())
            workers[worker.results] = worker
            poller.register(worker.results, select.POLLIN)
            worker.give(taken)
            taken += 1
        for k, item in enumerate(items):
            while k not in done and workers:
                for fd, _ in poller.poll():
                    worker = workers[fd]
                    j, outcome = worker.receive()
                    if outcome is None:  # the worker died
                        poller.unregister(fd)
                        del workers[fd]
                        status = os.waitstatus_to_exitcode(worker.stop())
                        if j is not None:
                            done[j] = None, status
                        continue
                    done[j] = outcome
                    if taken < len(items):
                        worker.give(taken)
                        taken += 1
            ok, value = done.pop(k, (None, None))
            if ok is None:
                value = died(item, value)
            elif not ok:
                raise value
            values.append(value)
            if stop is not None and stop(value):
                break
        return values
    finally:
        for worker in workers.values():
            worker.stop(kill=True)


class _Worker:
    """A forked process that runs ``func`` on the items it is given, one at a
    time, and pipes back each result."""

    def __init__(self, func, items, others):
        task_r, self.tasks = os.pipe()
        self.results, result_w = os.pipe()
        self.index = None  # the item index in hand
        self.pid = os.fork()
        if self.pid == 0:
            _serve(func, items, task_r, result_w, [self, *others])
        os.close(task_r)
        os.close(result_w)

    def give(self, k: int):
        self.index = k
        try:
            os.write(self.tasks, k.to_bytes(4, "little"))
        except BrokenPipeError:
            pass  # it died; receive() reports it

    def receive(self) -> tuple:
        """(index, (ok, result or exception)) of its next result, or
        (index in hand or None, None) if it died."""
        k, self.index = self.index, None
        try:
            size = int.from_bytes(_read_exactly(self.results, 8), "little")
            return k, pickle.loads(_read_exactly(self.results, size))
        except EOFError:
            return k, None

    def stop(self, kill: bool = False) -> int:
        """Reap it (after SIGKILL if ``kill``) and close its pipes; its wait status."""
        if kill:
            import signal

            os.kill(self.pid, signal.SIGKILL)
        status = os.waitpid(self.pid, 0)[1]
        os.close(self.tasks)
        os.close(self.results)
        return status


def _serve(func, items, tasks: int, results: int, parents):
    """A worker's life: read a 4-byte item index from ``tasks`` and write
    the pickled (ok, ``func``'s result or exception) to ``results`` behind
    its 8-byte length, until ``tasks`` closes; never returns.  ``parents``
    are the workers whose parent-side pipe ends it inherited."""
    global _in_worker
    _in_worker = True
    status = 1
    try:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
        if hasattr(os, "sched_setaffinity"):
            # the kernel may keep freshly forked workers on their parent's
            # CPU, so the n-th worker runs on the n-th CPU of the set
            cpus = sorted(os.sched_getaffinity(0))
            try:
                os.sched_setaffinity(0, {cpus[(len(parents) - 1) % len(cpus)]})
            except OSError:
                pass  # a speed-up only: unpinned, the worker still works
        for w in parents:
            os.close(w.tasks)
            os.close(w.results)
        while index := os.read(tasks, 4):
            try:
                out = True, func(items[int.from_bytes(index, "little")])
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
