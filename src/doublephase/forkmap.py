"""One ordered map over forked worker processes.

``_fork_map(func, items, died)`` is ``[func(item) for item in items]`` run
on up to one worker per CPU the process may run on
(``os.sched_getaffinity``, so ``taskset`` restricts it).  The workers are
forked processes, except that a map with no ``stop`` and no more items than
workers, which every solve and sampling map is, runs its last item in the
calling process once the others are handed out: one fork fewer, and no
worker start-up on that item's path.  The caller pins itself to the CPU
that item's worker would have taken while it runs it, and restores its
affinity set after.  The parent reads the results in item order, so every
value and exception is exactly what one process would give.  Three kinds of
map run on it:

- the lambda* scan's grid points (``sweep._first_false``), which forks
  whenever it has two CPUs and two grid points; it passes ``stop``, so
  every grid point runs on a forked worker and the parent only reads;
- the sweep's sampling (``sweep._map_chunks``: the sampled fibers and the
  Rayleigh candidates), which splits only when each worker gets at least
  ``sweep.FORK_MIN_NODES`` = 2^18 node evaluations (directions times mesh
  nodes), so from 64x64 on at 200 samples; the last chunk runs in the
  parent.  One forked chunk plus the parent's against one process at 200
  samples (one BLAS thread, median time ratios of interleaved pairs, two
  runs each, fibers / Rayleigh candidates): 16x16 0.97 and 0.91 / 1.11 and
  1.17 (40 pairs), 32x32 0.81 and 0.75 / 0.91 and 0.99 (30 pairs), 64x64
  0.62 and 0.62 / 0.66 and 0.70 (20 pairs).  16x16 loses on the whole;
  32x32 gains a few ms of a sweep that takes seconds, so the threshold
  stays;
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
hands it its item and closes its task pipe (``_Worker.finish``), pins
itself, and starts the minus group 3.1 ms into the map (4.6-5.4 ms when the
minus group ran on a second forked worker); the plus group starts at about
3.3 ms.  The worker exits on its own once it has written its result, while
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
in-process, so workers never fork workers of their own: the lambda* scan's
workers solve their lanes in-process.  A worker that dies gives its item
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
    """Workers a map over ``n_items`` items may fork: one per available CPU,
    at most one per item, and none (1, in-process) inside a worker or
    without ``os.fork``."""
    return 1 if _in_worker or not hasattr(os, "fork") else min(_available_cpus(), n_items)


def _fork_map(func, items, died, stop=None) -> list:
    """``[func(item) for item in items]``, cut after the first value for
    which ``stop`` is true; an exception ``func`` raises at an earlier item
    propagates.

    On one CPU, for one item, inside a worker, or without ``os.fork``, this
    is that loop.  Otherwise min(CPUs, len(items)) workers each take the
    first item not yet taken whenever they are free, and the parent reads
    the results in item order, so the outcome, exceptions included, is the
    loop's.  The workers are forked, except that a map without ``stop``
    and with no more items than workers runs its last item in the parent
    (``_run_as_worker``) once the others are handed out; each forked worker
    then has its only item and exits once its result is written.  The value
    of an item whose worker died is ``died(item, its exit status)``, called
    in the parent in the item's turn (status None for an item left when
    every worker had died).  However the map ends (its values, an
    exception, a KeyboardInterrupt), every worker is killed and reaped
    before this returns.
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
    own = stop is None and len(items) <= width  # the parent runs the last item itself
    try:
        for _ in range(width - own):
            worker = _Worker(func, items, workers.values())
            workers[worker.results] = worker
            poller.register(worker.results, select.POLLIN)
            worker.give(taken)
            taken += 1
            if own:
                worker.finish()
        if own:
            done[taken] = _run_as_worker(func, items[taken], taken)
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

    def finish(self):
        """Close its task pipe: it exits once it has written the result of
        the item in hand, while the parent is still busy, so ``stop`` finds
        it gone and need not wait for its exit."""
        os.close(self.tasks)
        self.tasks = None

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
        if self.tasks is not None:
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
        _pin(len(parents) - 1)
        for w in parents:
            if w.tasks is not None:
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
