"""wordavoid benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 60 --trace 0

Every repetition runs in a fresh interpreter (perfbench/worker.py), one at a
time, because users pay cold module caches on every CLI run and several
caches persist inside a process.  A run first spawns set-up probes, then
repeats the workload while another repetition fits in --seconds.  With
--trace 0 it reports the end-to-end metrics as medians over repetitions;
with --trace 1 it alternates traced and untraced repetitions and reports
per-layer metrics from the traced ones plus the tracing overhead.  The last
line of stdout is one JSON object; lines above it are a readable summary.
`--workload all` runs every workload in turn.

Exit codes: 0 a result was printed, 2 the checkout cannot be measured
(no src/ tree, or wordavoid imports from elsewhere), 1 no repetition ran.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

WORKLOADS = ("scan", "enumerate", "scenarios")
SETUP_PROBES = 5
REP_TIMEOUT = 120
ENV_ERROR = 3
# Growth rates are BLAS matrix-vector products; one thread keeps them steady
# and is never more than the machine has.
BLAS_THREADS = 1

# Work counts that two cold repetitions of one workload and seed must agree on.
STABLE_COUNTS = ("counting.walk_nodes", "verify.bounded_words",
                 "words.long_letters")


class Unmeasurable(Exception):
    """The checkout cannot be measured."""


class RepFailed(Exception):
    """A worker crashed or timed out."""


def spawn(workload: str, seed: int, traced: bool, trace_out: str = "-"
          ) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, "-I", str(WORKER), workload, str(seed),
           str(int(traced)), trace_out]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=REP_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RepFailed(f"timed out after {REP_TIMEOUT}s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode == ENV_ERROR:
        raise Unmeasurable(err.strip())
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise RepFailed(f"exit {proc.returncode}: {tail[0]}")
    try:
        result = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        raise RepFailed("worker printed no result line") from None
    result["setup_s"] = result.pop("ready") - start
    result["traced"] = traced
    return result


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json lists under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def src_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(probe: dict, seed: int) -> dict:
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": probe["numpy"], "blas": probe["blas"],
            "blas_threads": BLAS_THREADS, "seed": seed,
            "commit": git_commit(), "src_sha256": src_hash(),
            "module": probe["module"]}


def check_digests(reps: list[dict], source: str, problems: list[str]) -> None:
    """Scenario stdout must be identical across the runs of one source tree."""
    digests = {r["digest"] for r in reps if r.get("digest")}
    if len(digests) > 1:
        problems.append("scenario stdout differs between repetitions")
    if len(digests) != 1 or any(r["failures"] for r in reps):
        return
    store = OUT / "scenarios-digest.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    digest = digests.pop()
    if known.setdefault(source, digest) != digest:
        problems.append("scenario stdout differs from an earlier run of "
                        "the same source tree")
    store.write_text(json.dumps(known, indent=1, sort_keys=True))


def check_counts(reps: list[dict], problems: list[str]) -> None:
    """Cold repetitions must do the same work."""
    layers = [r["layers"] for r in reps if "layers" in r]
    for before, after in zip(layers, layers[1:]):
        for name in STABLE_COUNTS:
            if before[name] != after[name]:
                problems.append(f"{name} differs between repetitions: "
                                f"{before[name]} then {after[name]}")


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    trace_out = str(OUT / f"trace-{workload}-seed{seed}.json")
    deadline = time.monotonic() + seconds
    probes = [spawn("none", seed, False) for _ in range(SETUP_PROBES)]
    env = environment(probes[0], seed)
    reps: list[dict] = []
    crashed: list[str] = []
    while True:
        traced = trace and (len(reps) + len(crashed)) % 2 == 0
        began = time.monotonic()
        try:
            reps.append(spawn(workload, seed, traced, trace_out))
        except RepFailed as exc:
            crashed.append(str(exc))
        # Start another repetition only if one more like the last still
        # fits, so a run lasts about --seconds whatever the workload.
        now = time.monotonic()
        done = len(reps) + len(crashed)
        if done >= (3 if trace else 1) and now + (now - began) > deadline:
            break
    if not reps:
        raise RepFailed(f"no repetition finished: {crashed[0]}")

    problems = [f"repetition crashed: {c}" for c in crashed]
    check_digests(reps, env["src_sha256"], problems)
    check_counts(reps, problems)
    attempted = sum(r["attempted"] for r in reps) + len(crashed)
    failed = sum(len(r["failures"]) for r in reps) + len(crashed)

    untraced = [r for r in reps if not r["traced"]]
    samples: dict[str, list[float]] = {
        "wall_s": [r["wall_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in probes + untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    units = metric_units("per_layer" if trace else "end_to_end")
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        for name in units:
            if name != "trace.overhead_s":
                samples[name] = [r["layers"][name] for r in traced_reps]
        samples["trace.overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced_reps)
            - statistics.median(r["wall_s"] for r in untraced)
        ] if traced_reps and untraced else []
    metrics = {name: {"value": statistics.median(samples[name]),
                      "unit": units[name]}
               for name in units if samples[name]}
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seconds": seconds, "trace": trace,
              "environment": env, "samples": samples, "problems": problems,
              "failures": [r["failures"] for r in reps], "result": result}
    (OUT / f"run-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def summary(record: dict) -> str:
    env, result = record["environment"], record["result"]
    lines = [f"{record['workload']}: seed {env['seed']}, trace "
             f"{int(record['trace'])}, commit {env['commit'] or 'unknown'}, "
             f"src {env['src_sha256'][:12]}, {env['cpus_usable']}/"
             f"{env['nproc']} cpus {env['cpu_model']}, python "
             f"{env['python']}, numpy {env['numpy']}, blas threads "
             f"{env['blas_threads']}"]
    for name, metric in result["metrics"].items():
        n = len(record["samples"][name])
        lines.append(f"  {name:40s} {metric['value']:14.6f} "
                     f"{metric['unit']:6s} median of {n}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"  {'fail_ratio':40s} {failed / attempted:14.6f} "
                 f"{'ratio':6s} {failed} of {attempted} operations")
    for problem in record["problems"]:
        lines.append(f"  problem: {problem}")
    for failures in record["failures"]:
        for op, reason in failures.items():
            lines.append(f"  failed: {op}: {reason}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "wordavoid").is_dir():
        print(f"run: no wordavoid package under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            print(summary(record), flush=True)
            results[name] = record["result"]
    except Unmeasurable as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    except RepFailed as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
