"""The process pool: forks, results, dead workers and leaving early."""

import os
import signal
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from wordavoid import pool

from conftest import run_script, use_cpus


@pytest.mark.parametrize("jobs, cpus, pool_size", [
    (5, 2, 2),       # capped by the usable CPUs
    (6, 8, 6),       # capped by the jobs, as for the six scenarios
    (1, 8, None),    # one job runs in-process
    (3000, 2, 2),    # 12 KB of job indices, written in several writes
    (20_000, 2, 2),  # 80 KB of job indices, more than a pipe holds
])
def test_process_map_forks_at_most_one_worker_a_job_and_cpu(
        monkeypatch, jobs, cpus, pool_size):
    forks = use_cpus(monkeypatch, cpus)
    assert pool.process_map(abs, range(-jobs, 0)) == list(range(jobs, 0, -1))
    assert len(forks) == (0 if pool_size is None else pool_size)


def test_usable_cpus_are_the_affinity_set_or_the_cpu_count(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {3, 5})
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    assert pool.usable_cpus() == 2
    monkeypatch.delattr("os.sched_getaffinity")
    assert pool.usable_cpus() == 8
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert pool.usable_cpus() == 1


def no_child_is_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_a_job_exception_is_raised_with_its_own_type(monkeypatch):
    forks = use_cpus(monkeypatch, 2)
    with pytest.raises(ValueError, match="'x'"):
        pool.process_map(int, ["1", "x"])
    assert len(forks) == 2
    assert no_child_is_left()


def test_a_lambda_is_a_job_function(monkeypatch):
    # only results are pickled, so fn need not be importable by name
    forks = use_cpus(monkeypatch, 2)
    assert pool.process_map(lambda x: 2 * x, range(5)) == [0, 2, 4, 6, 8]
    assert len(forks) == 2


def test_results_larger_than_a_pipe_come_back_whole():
    """Each result is larger than a pipe holds; it is appended to its
    worker's file whole and read back after the worker is reaped.
    run_script gives up after 60 s."""
    proc = run_script("""
        from wordavoid import pool
        results = pool.process_map(bytes, [300_000] * 4)
        print([r == bytes(300_000) for r in results])
        """)
    assert proc.stdout == "[True, True, True, True]\n"


def _exit_on_zero(job):
    if job == 0:
        sys.exit(3)
    time.sleep(0.1)  # long enough for a worker that went on to take one
    return os.getpid()


def test_a_worker_that_exits_takes_no_further_job(monkeypatch):
    """SystemExit is not a job's result: its worker ends, its job fails, and
    the other worker runs every job left."""
    use_cpus(monkeypatch, 2)
    results = pool.process_map(_exit_on_zero, range(4),
                               failed=lambda job, exc: type(exc).__name__)
    assert results[0] == "BrokenProcessPool"
    assert len(set(results[1:])) == 1 and os.getpid() not in results
    assert no_child_is_left()


def test_a_dead_worker_raises_without_failed(monkeypatch):
    """A job left without a result because its worker died raises
    `BrokenProcessPool` when no `failed` handler is given."""
    use_cpus(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):
        pool.process_map(lambda job: os._exit(7), range(2))
    assert no_child_is_left()


def test_every_job_fails_when_every_worker_dies():
    """Both workers die on their first job and leave 80 KB of job indices,
    more than a pipe holds, that no one will read: the parent stops handing
    them out and fails every job within seconds instead of blocking.
    run_script gives up after 60 s."""
    proc = run_script("""
        import time
        from wordavoid import pool
        start = time.perf_counter()
        results = pool.process_map(lambda job: os._exit(7), range(20_000),
                                   failed=lambda job, exc: type(exc).__name__)
        print(len(results), set(results), time.perf_counter() - start < 10)
        """)
    assert proc.stdout == "20000 {'BrokenProcessPool'} True\n"


class _Unloadable:
    """Pickles in a worker; loading it in the parent raises."""

    def __reduce__(self):
        return _refuse_to_load, ()


def _refuse_to_load():
    raise RuntimeError("cannot load this result")


def test_an_unloadable_result_raises_and_leaves_no_child(monkeypatch):
    use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="cannot load"):
        pool.process_map(lambda job: _Unloadable() if job else time.sleep(0.1),
                         [0, 1])
    assert no_child_is_left()


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def test_an_interrupt_kills_and_reaps_every_worker(monkeypatch):
    """A KeyboardInterrupt while the workers run leaves at once and kills
    them.  Interval timers are not inherited by forked children, so only
    the parent is interrupted."""
    use_cpus(monkeypatch, 2)
    previous = signal.signal(signal.SIGALRM, _interrupt)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            pool.process_map(lambda job: time.sleep(30), [0, 1])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 10
    assert no_child_is_left()
