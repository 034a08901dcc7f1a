"""Forked worker processes: the package's one way to run on several CPUs.

Training runs a step's chunks on them (train.py), probing its length
batches (probe.py). Workers(count, fn, name), made for one run and
closed at its end however it ends, forks count workers at once, and
each inherits this process's memory as it stands: the model, the
package and the arrays of shared(), an anonymous mmap arena that the
fork shares rather than copies. run(jobs, take) deals
job i to process i % n, n being count + 1 but no more than the jobs;
process 0 is this one, so it always runs job 0. Process w runs fn(w,
job), and take gets every job's value in job order; a worker gets its
next job once take is done with its last value. A value comes back
through a pipe, so bulk results go into the arena. With count 0 every
job runs here, and neither multiprocessing nor mmap is imported.

usable_cpus() is the one CPU rule: the CPUs in the process's affinity
mask, so `taskset -c 0` runs everything in one process, and 1 without
the affinity API (os.sched_getaffinity), since forking workers is for
Linux. Each process runs its own BLAS: pin it to one thread
(OPENBLAS_NUM_THREADS=1, as the benchmark does), or the processes'
BLAS threads oversubscribe the CPUs.

An exception raised in a worker is raised again here with its type and
message and the note "raised in <name> worker w", and a worker that
dies raises ChildProcessError naming it and its exit code.
"""

from __future__ import annotations

import itertools
import math
import os
import time

import numpy as np

# arena offsets are multiples of this, so every array starts on a cache line
_ALIGN = 64

# a process waiting for another polls its pipe this long before it sleeps
_POLL_S = 0.05


def usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 without the affinity API."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def shared(count: int, layout: dict, copies: int = 1) -> list[dict[str, np.ndarray]]:
    """copies dicts of zeroed arrays, one per name -> (shape, dtype) of
    layout, at cache-line offsets of an anonymous mmap that count forked
    workers share (of a bytearray when count is 0)."""
    spans = [-(-math.prod(shape) * np.dtype(dtype).itemsize // _ALIGN) * _ALIGN
             for shape, dtype in layout.values()]
    if count:
        import mmap
        arena = mmap.mmap(-1, copies * sum(spans))
    else:
        arena = bytearray(copies * sum(spans))
    offsets = itertools.accumulate(spans * copies, initial=0)
    return [{name: np.ndarray(shape, dtype, buffer=arena, offset=next(offsets))
             for name, (shape, dtype) in layout.items()} for _ in range(copies)]


def _wait(conn) -> None:
    """Return once conn has a message or has closed: poll it for up to
    _POLL_S, then block. Jobs take milliseconds, and on a virtual machine
    a CPU left idle between them goes back to the host and resumes with
    cold caches, so runs that slept at each wait spread ~6x wider."""
    end = time.perf_counter() + _POLL_S
    while not conn.poll(0):
        if time.perf_counter() > end:
            conn.poll(None)
            return


def _serve(conn, fn, w: int, inherited) -> None:
    """Worker w's loop, until its pipe closes: each job is answered with
    ("done", fn(w, job)) or ("error", exception)."""
    import signal
    for other in inherited:      # pipe ends of this process and earlier workers
        other.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # an interrupt is for the parent
    while True:
        try:
            _wait(conn)
            job = conn.recv()
        except EOFError:
            return
        try:
            reply = ("done", fn(w, job))
        except Exception as exc:
            reply = ("error", exc)
        try:
            conn.send(reply)
        except BrokenPipeError:     # the run stopped while this job ran
            return


class Workers:
    """count forked workers that run fn beside this process; see the
    module docstring. name ("training", "probe") names them in errors."""

    def __init__(self, count: int, fn, name: str):
        self.fn, self.name, self.conns, self.procs = fn, name, [], []
        if count == 0:
            return
        import multiprocessing
        # fork, not spawn: a worker inherits the arena, the model and the
        # imported package, and the package runs no thread of its own
        ctx = multiprocessing.get_context("fork")
        for w in range(1, count + 1):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_serve, name=f"lorabound-{name}-{w}", daemon=True,
                               args=(theirs, fn, w, [*self.conns, mine]))
            proc.start()
            theirs.close()
            self.conns.append(mine)
            self.procs.append(proc)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the workers: an idle one exits when its pipe closes, one
        still inside a job once it is done or, after a second, terminated."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(1.0)
            if proc.exitcode is None:
                proc.terminate()
                proc.join()

    def run(self, jobs, take=lambda i, w, value: None) -> None:
        """take(i, w, fn(w, job)) for every job i, in job order, where w =
        i % n is the process that ran it."""
        n = min(len(self.procs) + 1, len(jobs))
        for w in range(1, n):
            self._send(w, jobs[w])
        for i, job in enumerate(jobs):
            w = i % n
            # no name holds a value once take is done with it
            take(i, w, self.fn(0, job) if w == 0 else self._recv(w))
            if w and i + n < len(jobs):
                self._send(w, jobs[i + n])

    def _send(self, w: int, job) -> None:
        try:
            self.conns[w - 1].send(job)
        except OSError:
            self._died(w)

    def _recv(self, w: int):
        try:
            _wait(self.conns[w - 1])
            kind, value = self.conns[w - 1].recv()
        except (EOFError, OSError):
            self._died(w)
        if kind == "error":
            value.add_note(f"raised in {self.name} worker {w}")
            raise value
        return value

    def _died(self, w: int):
        proc = self.procs[w - 1]
        proc.join()     # its pipe is closed, so its process is gone or going
        raise ChildProcessError(
            f"{self.name} worker {w} (pid {proc.pid}) exited with code {proc.exitcode}"
        ) from None
