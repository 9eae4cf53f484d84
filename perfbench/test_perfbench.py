"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench

They show that the oracles catch a corrupted output (one flipped letter of a
generated word, one flipped count), that the tracer's counts agree with the
program's own results and that it restores every attribute it replaced, and
that a checkout without the package is refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from wordavoid import cli, counting, morphisms, scenarios, words  # noqa: E402
from wordavoid.counting import CountTable  # noqa: E402
from wordavoid.instances import load_registry  # noqa: E402

REF = json.loads((HERE / "reference.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Shrink the workloads so a repetition takes well under a second."""
    monkeypatch.setattr(workloads, "WINDOW", 24_000)
    monkeypatch.setattr(workloads, "MAX_OFFSET", 6_000)
    monkeypatch.setattr(workloads, "COUNT_DEPTH", 22)
    monkeypatch.setattr(workloads, "MINIMAL_LENGTH", 20)


def fail_ratio(name, seed=1):
    rec = workloads.Recorder()
    state = workloads.TIMED[name](load_registry(), seed, rec)
    workloads.CHECKS[name](state, REF, rec)
    return len(rec.failures) / len(rec.attempted)


@pytest.mark.parametrize("name", ["scan", "enumerate"])
def test_small_workloads_pass(small, name):
    assert fail_ratio(name) == 0


def test_flipped_letter_fails_scan(small, monkeypatch):
    apply = morphisms.Morphism.apply

    def flipped(self, word):
        image = bytearray(apply(self, word))
        if len(image) > workloads.PREFIX_CHECKED:
            image[1000] ^= 1
        return bytes(image)

    monkeypatch.setattr(morphisms.Morphism, "apply", flipped)
    assert fail_ratio("scan") > 0


def test_flipped_count_fails_enumerate(small, monkeypatch):
    def flipped(spec, n_max):
        counts = list(counting.count_avoiding(spec, n_max).counts)
        counts[10] += 1
        return CountTable(spec, tuple(counts))

    monkeypatch.setattr(workloads, "count_avoiding", flipped)
    assert fail_ratio("enumerate") > 0


def test_failed_scenario_check_fails_scenarios():
    report = {"name": "x", "ok": False,
              "checks": [{"name": "c", "ok": False, "detail": ""}]}
    rec = workloads.Recorder()
    rec.attempted.append("scenario --all")
    workloads.scenarios_check(json.dumps([report] * 6), REF, rec)
    assert rec.failures


def test_tracer_counts_match_results_and_are_removed():
    reg = load_registry()
    originals = {"apply": vars(morphisms.Morphism)["apply"],
                 "count": workloads.count_avoiding,
                 "scan": counting.satisfies_spec,
                 "scenarios": dict(scenarios.SCENARIOS),
                 "json": cli.json}
    tracer = tracing.Tracer(callers=(workloads,)).install()
    try:
        table = workloads.count_avoiding(reg.dekking_binary, 14)
        found = workloads.minimal_forbidden(reg.dekking_binary, 12)
        long_word = workloads.FixedPointStream(reg.pu_h, 0).prefix(3000)
        workloads.satisfies_spec(long_word, reg.pu_source)
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert layers["counting.walk_nodes"] == sum(table.counts)
    assert layers["counting.minimal_words"] == len(found.words)
    assert 0 < layers["counting.minimal_hit_ratio"] <= 1
    assert layers["words.long_calls"] == 1
    assert layers["words.long_letters"] == 3000
    assert layers["morphisms.letters"] == 3000
    assert all(v >= 0 for v in layers.values())
    assert vars(morphisms.Morphism)["apply"] is originals["apply"]
    assert workloads.count_avoiding is originals["count"]
    assert counting.satisfies_spec is originals["scan"] is words.satisfies_spec
    assert scenarios.SCENARIOS == originals["scenarios"]
    assert cli.json is originals["json"]


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert layer_names == set(tracing.Tracer().layer_metrics()) | {
        "trace.overhead_s"}
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb"]


@pytest.mark.parametrize("package", [False, True])
def test_checkout_without_package_is_refused(tmp_path, package):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if package:  # a directory that imports as an empty namespace package
        (tmp_path / "src" / "wordavoid").mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
