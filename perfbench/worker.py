"""One benchmark repetition, run in a fresh interpreter by run.py.

Usage: python3 -I perfbench/worker.py WORKLOAD SEED TRACED TRACE_OUT

WORKLOAD is a workload name or `none` (set-up only).  The worker imports
wordavoid from the checkout's src/ and exits with code 3, doing nothing
else, if that import fails or resolves anywhere else.  It prints one JSON
line: the monotonic time at which set-up ended, and for a workload the
timed wall, the peak resident set at the end of the timed path, and the
operations attempted and failed.  Oracles run after the timed path, with
the tracer removed.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
ENV_ERROR = 3


def refuse(message):
    print(f"worker: {message}", file=sys.stderr)
    sys.exit(ENV_ERROR)


def main():
    workload, seed, traced, trace_out = sys.argv[1:5]
    sys.path[:0] = [SRC, HERE]
    try:
        import wordavoid
    except ImportError as exc:
        refuse(f"cannot import wordavoid from {SRC}: {exc}")
    module = getattr(wordavoid, "__file__", None)
    expected = os.path.realpath(os.path.join(SRC, "wordavoid", "__init__.py"))
    if module is None or os.path.realpath(module) != expected:
        refuse(f"wordavoid resolves to {module}, not {expected}")

    tracer = None
    if traced == "1":
        import tracing
        import workloads
        tracer = tracing.Tracer(callers=(workloads,)).install()
    from wordavoid import instances
    reg = instances.load_registry()
    result = {"ready": time.monotonic(), "module": module}

    if workload == "none":
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        result["numpy"] = numpy.__version__
        result["blas"] = blas.get("openblas configuration",
                                  f"{blas.get('name')} {blas.get('version')}")
    else:
        import workloads
        with open(os.path.join(HERE, "reference.json")) as fh:
            ref = json.load(fh)
        rec = workloads.Recorder()
        start = time.perf_counter()
        state = workloads.TIMED[workload](reg, int(seed), rec)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            tracer.write(trace_out, start)
        result["digest"] = workloads.CHECKS[workload](state, ref, rec)
        result["attempted"] = len(rec.attempted)
        result["failures"] = rec.failures
    sys.__stdout__.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
