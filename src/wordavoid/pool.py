"""The package's one process pool: `process_map` over forked workers.

Workers are forked, not spawned: a spawned worker imports numpy again
(about 0.15 s), more than the jobs handed to it save.  A fork-context
`ProcessPoolExecutor` forks every worker before it starts its manager
thread, so no worker inherits that thread.  Off Linux (on macOS a forked
child may not use Accelerate) and with one worker the jobs run in-process.
"""

from __future__ import annotations

import os
import sys


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def process_map(fn, jobs, failed=None) -> list:
    """[fn(job) for job in jobs], from min(len(jobs), usable CPUs) workers.

    fn, the jobs and the results are pickled, fn by reference.  A worker
    that dies breaks the pool: each job left without a result then raises
    `BrokenProcessPool`, or gives failed(job, exc) when `failed` is set.
    """
    jobs = list(jobs)
    workers = min(len(jobs), usable_cpus())
    if workers <= 1 or not sys.platform.startswith("linux"):
        return [fn(job) for job in jobs]
    # Imported here: at package import they would cost every run ~20 ms.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = [pool.submit(fn, job) for job in jobs]
        results = []
        for job, future in zip(jobs, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                if failed is None:
                    raise
                results.append(failed(job, exc))
        return results
