"""One ordered map over forked worker processes.

``_fork_map(func, items, most)`` cuts ``items`` into contiguous
chunks, one per CPU the process may run on (``os.sched_getaffinity``, so
``taskset`` restricts it), at most one per item and at most ``most``, and
returns ``func``'s lists over the chunks joined in order: each chunk but the
last on a worker forked for it alone, which exits once its result is
written, and the last in the calling process, which pins itself to the CPU
that chunk's worker would have taken while it runs it, and restores its
affinity set after.  With one chunk it is ``func(items)`` in-process.  The
parent reads the results in chunk order, so every value and exception is
exactly what one process would give.  Three kinds of map run on it:

- the lambda* scan (``sweep._first_nonpositive``), with no cap: its grid
  splits into one chunk per CPU whenever it has two CPUs and two grid
  points; each chunk descends its grid points' minus starts as lockstep
  batches;
- the sweep's sampling (``sweep._map_directions``: the sampled fibers and
  the sampled Rayleigh candidates of the Sobolev estimate), capped at n*M //
  ``sweep.FORK_MIN_NODES`` chunks for n directions on M nodes, so each
  worker gets at least 2^18 node evaluations, and the sampling splits from
  64x64 on at 200 samples.  One forked chunk plus the parent's against one
  process at 200
  samples, each chunk broken down in blocks of directions (one BLAS
  thread, median time ratios of interleaved pairs, two runs each, fibers /
  the whole Sobolev estimate): 16x16 1.25 and 1.20 / 1.74 and 1.77 (40
  pairs; 9-17 and 5-6 ms in one process), 32x32 0.94 and 0.86 / 0.90 and
  0.89 (30 pairs; 19-21 and 18-20 ms), 64x64 0.68 and 0.64 / 0.75 and
  0.75 (20 pairs; 63 and 51-55 ms).  The blocks cut the in-process time
  most at 16x16, which now loses clearly; 32x32 gains about 2 ms of a
  sweep that takes seconds, so the threshold stays;
- the lanes of ``solver.solve_two``, one (lambda, branch) group of
  ``solver._solve_groups`` per branch, with no cap: the plus group on a
  forked worker, the minus group, about twice as long, in the parent.
  ``solve_two`` on the preset at lambda = 0.1, one BLAS thread, 2 vCPUs,
  in-process against split, medians of interleaved pairs:

  ====  ==========  =======  =====================
  mesh  in-process  split    split faster in pairs
  3x3   31.3 ms     33.3 ms  25 of 60
  4x4   31.0 ms     31.0 ms  13 of 30
  6x6   42.3 ms     41.3 ms  31 of 60
  8x8   37.5 ms     36.5 ms  35 of 60
  9x9   49.8 ms     51.2 ms  16 of 30
  ====  ==========  =======  =====================

  Every size is break-even within noise, so the lanes split at any size;
  16x16 takes 0.94 and 32x32 0.80 of the in-process time split.

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
0.052-0.053 s pinned (6 pairs).  So the k-th chunk, in a worker or in the
parent, runs pinned to the k-th CPU of the caller's set.  A second CPU that other
processes contend moves every break-even point up.

Every chunk, on a worker or in the parent, runs through one function
(``_run_as_worker``), pinned to one CPU, so a map called inside a chunk sees
one CPU and runs in-process (no package map runs inside another's chunk).
Every chunk's value is the loop's: a chunk that no worker delivers, because
its fork failed (``os.fork`` raising OSError, such as EAGAIN) or its worker
died, runs in the parent in its turn; no worker outlives its map.
"""
from __future__ import annotations

import os
import pickle


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _fork_map(func, items, most=None) -> list:
    """``func``'s lists over contiguous chunks of ``items`` (slices, in
    order), joined in order; an exception ``func`` raises on an earlier
    chunk propagates.

    There is one chunk per available CPU, at most one per item and at most
    ``most``; with one, or without ``os.fork``, this is ``func(items)``.
    Otherwise each chunk but the last runs on a forked worker of its own,
    which exits once its result is written, and the last runs in the
    parent; the parent then reads the workers' results in chunk order, so
    the outcome, exceptions included, is the loop's over the chunks.  A
    chunk that no worker delivers (its fork failed or its worker died) runs
    in the parent in its turn.  However the map ends (its values, an
    exception, a KeyboardInterrupt), every worker is killed and reaped
    before this returns.
    """
    width = min(_available_cpus(), len(items), len(items) if most is None else most)
    if width < 2 or not hasattr(os, "fork"):
        return func(items)
    bounds = [len(items) * i // width for i in range(width + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    workers = []
    try:
        for k, chunk in enumerate(chunks[:-1]):
            try:
                workers.append(_Worker(func, chunk, k, [w for w in workers if w is not None]))
            except OSError:  # no process to fork (EAGAIN, say)
                workers.append(None)
        own = _run_as_worker(func, chunks[-1], len(workers))
        values = []
        for k, (worker, chunk) in enumerate(zip(workers, chunks)):
            ok, value = (worker and worker.receive()) or _run_as_worker(func, chunk, k)
            if not ok:
                raise value
            values += value
        ok, value = own
        if not ok:
            raise value
        return values + value
    finally:
        for worker in workers:
            if worker is not None:
                worker.stop()


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
        pass  # a speed-up only: unpinned, the chunk still runs
    return mask


def _run_as_worker(func, chunk, k: int) -> tuple:
    """(ok, ``func(chunk)`` or the exception it raised), as the map's k-th
    worker runs it, in a worker or in the parent: pinned to that worker's
    CPU, so any map inside it runs in-process.  The affinity set is
    restored however it ends, KeyboardInterrupt included."""
    mask = _pin(k)
    try:
        return True, func(chunk)
    except Exception as exc:
        return False, exc
    finally:
        if mask is not None:
            os.sched_setaffinity(0, mask)


class _Worker:
    """A forked process that runs ``func`` on its one chunk, pickles the
    result into its pipe and exits; pickle's stream ends where the object
    ends.  A failed fork raises its OSError with both pipe ends closed."""

    def __init__(self, func, chunk, k: int, others):
        self.results, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(self.results)
            os.close(result_w)
            raise
        if self.pid == 0:
            _serve(func, chunk, k, result_w, [self, *others])
        os.close(result_w)

    def receive(self):
        """(ok, result or exception) of its chunk, or None if it died: a
        pickle cut off before its end raises EOFError or UnpicklingError."""
        try:
            with os.fdopen(self.results, "rb", closefd=False) as pipe:  # ``stop`` closes the fd
                return pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            return None

    def stop(self) -> int:
        """Kill and reap it and close its pipe; its wait status (an exited
        worker's exit status: SIGKILL leaves an unreaped one as it was)."""
        import signal

        os.kill(self.pid, signal.SIGKILL)
        status = os.waitpid(self.pid, 0)[1]
        os.close(self.results)
        return status


def _serve(func, chunk, k: int, results: int, parents):
    """A worker's life as the map's k-th worker: pickle
    ``_run_as_worker(func, chunk, k)`` to ``results``, whose stream ends
    where the object ends, close it and exit; never returns.  ``parents``
    are the workers whose parent-side pipe ends it inherited."""
    status = 1
    try:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
        for w in parents:
            os.close(w.results)
        with os.fdopen(results, "wb") as out:
            pickle.dump(_run_as_worker(func, chunk, k), out)
        status = 0
    finally:
        os._exit(status)
