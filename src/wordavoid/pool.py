"""The package's one process pool: `process_map` over forked workers.

Workers come straight from `os.fork`.  A spawned worker would import numpy
again (about 0.15 s), and an executor takes tens of milliseconds to import,
start and shut down, about a fifth of `scenario --all`.  `fn` and the jobs
are inherited through the fork, so only results are pickled.

The parent writes the job indices into one pipe that all workers read, so
a worker that finishes early takes the next job.  Each worker sends back a
length-prefixed pickle of (index, ok, value or exception) per job on a pipe
of its own.  The parent runs no jobs: it drains every result pipe at once,
so no worker stalls on a full pipe, then reaps every worker.  A worker that
dies leaves only the job it held without a result; the others go on.  Off
Linux (on macOS a forked child may not use Accelerate) and with one worker
the jobs run in-process.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import NoReturn

# A job index is a 4-byte ticket.  At most _QUEUED tickets wait in the job
# pipe: 4 KB, written atomically and far below a pipe's capacity, so no
# worker reads part of a ticket and the parent never blocks writing one.
# The parent adds a ticket each time a result comes back.
_TICKET = 4
_QUEUED = 1024
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
    if workers <= 1 or not sys.platform.startswith("linux"):
        return [fn(job) for job in jobs]
    import selectors  # only pooled runs pay for this import

    tickets = [i.to_bytes(_TICKET, "little") for i in range(len(jobs))]
    sent = min(len(tickets), _QUEUED)
    job_r, job_w = os.pipe()
    fds = {job_r, job_w}  # the parent's open descriptors
    pids = []             # workers not yet reaped
    outs = []             # the read end of each worker's result pipe
    results = {}
    try:
        os.write(job_w, b"".join(tickets[:sent]))
        if sent == len(tickets):
            fds.remove(job_w)
            os.close(job_w)
        # Each worker flushes its stdio before it exits, so the buffers it
        # inherits must be empty, or it prints what the parent had buffered.
        sys.stdout.flush()
        sys.stderr.flush()
        for _ in range(workers):
            out_r, out_w = os.pipe()
            fds.update((out_r, out_w))
            pid = os.fork()
            if pid == 0:
                _work(fn, jobs, job_r, out_w, fds - {job_r, out_w})
            pids.append(pid)
            outs.append(out_r)
            fds.remove(out_w)
            os.close(out_w)
        with selectors.DefaultSelector() as sel:
            for fd in outs:
                sel.register(fd, selectors.EVENT_READ, bytearray())
            while sel.get_map():
                for key, _ in sel.select():
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:  # the worker has exited
                        sel.unregister(key.fd)
                        continue
                    buf = key.data
                    buf += chunk
                    while len(buf) >= _LENGTH:
                        end = _LENGTH + int.from_bytes(buf[:_LENGTH], "little")
                        if len(buf) < end:
                            break
                        index, ok, value = pickle.loads(buf[_LENGTH:end])
                        del buf[:end]
                        results[index] = ok, value
                        if sent < len(tickets):
                            os.write(job_w, tickets[sent])
                            sent += 1
                            if sent == len(tickets):
                                fds.remove(job_w)
                                os.close(job_w)
        while pids:
            os.waitpid(pids.pop(), 0)
    finally:
        for pid in pids:  # only leaving early leaves a worker to kill
            from signal import SIGKILL
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)

    values = []
    for index, job in enumerate(jobs):
        if index in results:
            ok, value = results[index]
            if not ok:
                raise value
            values.append(value)
            continue
        from concurrent.futures.process import BrokenProcessPool
        exc = BrokenProcessPool("a pool worker died while running this job")
        if failed is None:
            raise exc
        values.append(failed(job, exc))
    return values


def _work(fn, jobs, job_r: int, out_w: int, inherited) -> NoReturn:
    """A worker's whole life: run each job whose index it reads from the
    shared pipe `job_r` until that pipe is empty and closed, and send each
    result down `out_w`.  Only an Exception is a job's result; anything
    else ends the worker, which never returns into its caller's frames."""
    code = 1
    try:
        for fd in inherited:  # an open job_w here would keep job_r open
            os.close(fd)
        with open(out_w, "wb") as out:
            while ticket := os.read(job_r, _TICKET):
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
