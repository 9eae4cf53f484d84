"""The package's one process pool: `process_map` over forked workers.

Workers come straight from `os.fork`.  A spawned worker would import numpy
again (about 0.15 s), and an executor takes tens of milliseconds to import,
start and shut down, about a fifth of `scenario --all`.  `fn` and the jobs
are inherited through the fork, so only results are pickled.

The parent writes every job index into one pipe that all workers read, so
a worker that finishes early takes the next job.  Each worker appends a
length-prefixed pickle of (index, ok, value or exception) per job to its
own memory file, so it never waits on the parent, which runs no jobs: it
hands them out, reaps every worker, then reads the files.  A worker that
dies leaves only the job it held without a result.  Off Linux (on macOS a
forked child may not use Accelerate), without `memfd_create` and with one
worker the jobs run in-process.
"""

from __future__ import annotations

import os
import pickle
import sys
from contextlib import ExitStack
from typing import NoReturn

# A job index is a 4-byte ticket, written at most _PIPE_BUF bytes at a time
# so that each write is atomic and no worker reads part of a ticket.
_TICKET = 4
_PIPE_BUF = 4096
_LENGTH = 8  # bytes of a result's length prefix


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def process_map(fn, jobs, failed=None) -> list:
    """[fn(job) for job in jobs], from min(len(jobs), usable CPUs) workers.

    A job's exception is raised here, the first in job order.  A job left
    without a result because its worker died raises `BrokenProcessPool`, or
    gives failed(job, exc) when `failed` is set.  Leaving early, say on
    KeyboardInterrupt, kills and reaps every worker.
    """
    jobs = list(jobs)
    workers = min(len(jobs), usable_cpus())
    if (workers <= 1 or not sys.platform.startswith("linux")
            or not hasattr(os, "memfd_create")):
        return [fn(job) for job in jobs]

    tickets = b"".join(i.to_bytes(_TICKET, "little") for i in range(len(jobs)))
    pids = []  # workers not yet reaped
    results = {}
    with ExitStack() as files:
        job_r, job_w = os.pipe()
        take = files.enter_context(open(job_r, "rb", buffering=0))
        give = files.enter_context(open(job_w, "wb", buffering=0))
        outs = [files.enter_context(open(os.memfd_create("result"), "w+b"))
                for _ in range(workers)]
        try:
            # A worker flushes its stdio on exit: it must inherit none unflushed.
            sys.stdout.flush()
            sys.stderr.flush()
            for out in outs:
                if (pid := os.fork()) == 0:
                    _work(fn, jobs, take, give, out)
                pids.append(pid)
            # With no read end left here, a write fails once every worker has
            # died, instead of blocking on a pipe that no one drains.
            take.close()
            try:
                for start in range(0, len(tickets), _PIPE_BUF):
                    give.write(tickets[start:start + _PIPE_BUF])
            except BrokenPipeError:
                pass  # the jobs not yet handed out fail as a dead worker's
            give.close()
            while pids:
                os.waitpid(pids[-1], 0)
                pids.pop()
        finally:
            for pid in pids:  # only leaving early leaves a worker to kill
                from signal import SIGKILL
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        for out in outs:
            out.seek(0)
            while head := out.read(_LENGTH):
                size = int.from_bytes(head, "little")
                record = out.read(size)
                if len(head) < _LENGTH or len(record) < size:
                    break  # a record cut short by its worker's death
                index, ok, value = pickle.loads(record)
                results[index] = ok, value

    values = []
    for index, job in enumerate(jobs):
        if index not in results:
            from concurrent.futures.process import BrokenProcessPool
            exc = BrokenProcessPool("a pool worker died while running this job")
            if failed is None:
                raise exc
            results[index] = True, failed(job, exc)
        ok, value = results[index]
        if not ok:
            raise value
        values.append(value)
    return values


def _work(fn, jobs, take, give, out) -> NoReturn:
    """A worker's whole life: run each job whose index it reads from `take`
    until that pipe is empty and closed, and append its result to `out`.
    Only an Exception is a job's result; anything else ends the worker,
    which never returns into its caller's frames."""
    code = 1
    try:
        give.close()  # an open write end here would keep the pipe open
        while ticket := take.read(_TICKET):
            index = int.from_bytes(ticket, "little")
            try:
                data = pickle.dumps((index, True, fn(jobs[index])))
            except Exception as exc:
                data = pickle.dumps((index, False, exc))
            out.write(len(data).to_bytes(_LENGTH, "little") + data)
            out.flush()
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)
