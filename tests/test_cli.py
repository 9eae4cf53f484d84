"""Command line behavior: outputs, determinism, exit statuses."""

import hashlib
import json
import multiprocessing
import shutil
import subprocess
import sys
import time
import tracemalloc

import pytest

from wordavoid import (Morphism, fixed_point_prefix, format_morphism,
                       with_image_letter, word_from_text, word_to_text)
from wordavoid.cli import main

from conftest import run_script


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_matches_reference(capsys, registry):
    code, out, err = run_cli(capsys, "generate", "--morphism", "dekking_h",
                             "--length", "50")
    assert code == 0
    assert out.strip() == registry.reference_prefixes["dekking_core_50"]
    assert err.startswith("config: ")
    assert json.loads(err[len("config: "):])["subcommand"] == "generate"


def test_generate_json_format(capsys, registry):
    code, out, _ = run_cli(capsys, "generate", "--morphism", "pu_f",
                           "--length", "27", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 27
    assert payload["word"] == registry.reference_prefixes["shuffle_base_27"]


def test_reruns_are_byte_identical(capsys):
    args = ("scenario", "counting", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_count_table_last_row(capsys):
    code, out, _ = run_cli(capsys, "count", "--spec", "dekking",
                           "--n-max", "17")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,count"
    assert lines[-1] == "17,414"


def test_count_respects_workers_env(capsys, monkeypatch):
    code, seq, _ = run_cli(capsys, "count", "--spec", "ejs3", "--n-max", "12")
    monkeypatch.setenv("WORDAVOID_WORKERS", "2")
    code2, par, _ = run_cli(capsys, "count", "--spec", "ejs3",
                            "--n-max", "12")
    assert code == code2 == 0
    assert seq == par
    monkeypatch.setenv("WORDAVOID_WORKERS", "zebra")
    code3, _, err = run_cli(capsys, "count", "--spec", "ejs3",
                            "--n-max", "4")
    assert code3 == 2
    assert "WORDAVOID_WORKERS" in err


def test_forbidden_growth_pipeline(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "forbidden", "--spec", "fraenkel-simpson",
                           "--max-len", "20")
    assert code == 0
    listing = tmp_path / "fs-derived-L20.txt"
    listing.write_text(out)
    assert len(out.strip().splitlines()) == 65

    code, out, _ = run_cli(capsys, "growth", "--forbidden", str(listing),
                           "--tol", "1e-9")
    assert code == 0
    payload = json.loads(out)
    assert payload["eigenvalue"] == pytest.approx(1.135, abs=0.005)
    assert payload["states"] == 326


def test_growth_needs_alphabet_for_empty_lists(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    code, _, err = run_cli(capsys, "growth", "--forbidden", str(empty))
    assert code == 2 and "--alphabet" in err
    code, out, _ = run_cli(capsys, "growth", "--forbidden", str(empty),
                           "--alphabet", "2")
    assert code == 0
    assert json.loads(out)["eigenvalue"] == pytest.approx(2.0, abs=1e-6)


def test_word_lists_take_comments(capsys, tmp_path):
    runs = tmp_path / "runs.txt"
    runs.write_text("# runs of three\n111  # runs\n000\n")
    word = tmp_path / "word.txt"
    word.write_text("0011100")
    code, out, _ = run_cli(capsys, "scan", "--word", str(word),
                           "--factors", str(runs))
    assert code == 1 and "forbidden factor: factor 111, position 2" in out
    code, out, _ = run_cli(capsys, "growth", "--forbidden", str(runs))
    assert code == 0
    assert json.loads(out)["eigenvalue"] == pytest.approx((1 + 5 ** 0.5) / 2)


def test_scan_reports_and_exit_codes(capsys, tmp_path, registry):
    clean = tmp_path / "clean.txt"
    clean.write_text(registry.reference_prefixes["dekking_core_50"])
    code, out, _ = run_cli(capsys, "scan", "--word", str(clean),
                           "--min-root", "1")
    assert code == 0 and "none" in out

    dirty = tmp_path / "dirty.txt"
    dirty.write_text("0101101101")
    code, out, _ = run_cli(capsys, "scan", "--word", str(dirty),
                           "--min-root", "2", "--cubes",
                           "--gap-pattern", "0,1,0", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["clean"] is False
    by_name = {c["name"]: c["finding"] for c in payload["checks"]}
    assert by_name["square with root >= 2"] == {"position": 0, "root": 2}
    assert by_name["cube"] == {"position": 1, "root": 3}
    assert by_name["gap pattern 0.1.0"]["occurrences"] == 1

    code, _, err = run_cli(capsys, "scan", "--word", str(dirty))
    assert code == 2 and "nothing to scan" in err
    code, out, err = run_cli(capsys, "scan", "--word", str(dirty),
                             "--gap-pattern", "300,1,1")
    assert code == 2 and out == "" and "one-digit letters" in err


def test_repeated_letter_gap_scan_counts_without_listing(capsys, tmp_path):
    """2,2,2 occurs 2,626,340 times in this 10,000-letter prefix; the scan
    reports the first and the count in seconds, in memory that does not
    grow with the count."""
    m = Morphism(4, 4, tuple(word_from_text(t) for t in ("01", "02", "22", "13")))
    word = tmp_path / "word.txt"
    word.write_text(word_to_text(fixed_point_prefix(m, 0, 10_000)))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, _ = run_cli(capsys, "scan", "--word", str(word),
                               "--gap-pattern", "2,2,2", "--format", "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5
    assert peak < 16 * 2**20
    assert code == 1
    assert json.loads(out)["checks"][0]["finding"] == {
        "position": 11, "gap": 0, "occurrences": 2_626_340}


def test_verify_exit_codes_follow_completeness(capsys, tmp_path, registry):
    code, out, _ = run_cli(capsys, "verify", "--morphism", "dekking_h",
                           "--source", "dekking_h_source",
                           "--target", "squarefree4")
    assert code == 0
    assert "COMPLETE" in out and "no-right-extension" in out

    mutated = tmp_path / "mutated.txt"
    mutated.write_text(format_morphism(
        with_image_letter(registry.dekking_h, 3, 9, 2)))
    code, out, _ = run_cli(capsys, "verify", "--morphism", str(mutated),
                           "--source", "dekking_h_source",
                           "--target", "squarefree4")
    assert code == 1
    assert "INCOMPLETE" in out


def test_verify_substitution_files_are_detected(capsys):
    code, out, _ = run_cli(capsys, "verify", "--morphism", "fs_sub",
                           "--source", "fs_h_target",
                           "--target", "fs_g_source", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert payload["classes"] == [0, 1, 2, 3, 4, 0]


def test_a_comma_in_a_comment_keeps_a_morphism_file_a_morphism(
        capsys, tmp_path, registry):
    plain = tmp_path / "plain.txt"
    plain.write_text(format_morphism(registry.dekking_h))
    commented = tmp_path / "commented.txt"
    commented.write_text(format_morphism(registry.dekking_h)
                         .replace("\n", "  # image, core\n", 1))
    args = ("verify", "--source", "dekking_h_source", "--target",
            "squarefree4", "--name", "dekking_h", "--format", "json")
    code, out, _ = run_cli(capsys, *args, "--morphism", str(plain))
    assert code == 0 and json.loads(out)["classes"] is None
    assert run_cli(capsys, *args, "--morphism", str(commented))[:2] == (0, out)


def test_verify_with_fixed_point_evidence(capsys):
    code, out, _ = run_cli(capsys, "verify", "--morphism", "dekking_g",
                           "--source", "dekking_g_source",
                           "--target", "dekking_binary",
                           "--fixed-point-morphism", "dekking_h",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert [e["kind"] for e in payload["gap_evidence"]] == ["descent"]


def test_corrupt_spec_file_reports_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("alphabet 2\nsquares min-root x\n")
    code, _, err = run_cli(capsys, "count", "--spec", str(bad), "--n-max", "4")
    assert code == 2
    assert "line 2" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "count", "--spec", "/nope/missing.txt",
                           "--n-max", "4")
    assert code == 2 and "cannot read" in err


def test_bad_flags_are_usage_errors(capsys):
    assert main(["count", "--spec", "dekking"]) == 2  # missing --n-max
    assert main(["no-such-command"]) == 2


FAMILY = ("family", "--sub", "dekking_sub", "--outer", "dekking_g",
          "--seed-word", "0310201023", "--target", "dekking")


def test_config_line_is_pinned(capsys):
    _, _, err = run_cli(capsys, "generate", "--morphism", "dekking_h",
                        "--length", "50")
    assert err.splitlines()[0] == (
        'config: {"format": "text", "length": 50, "morphism": "dekking_h",'
        ' "seed": 0, "seed_letter": 0, "subcommand": "generate"}')
    _, _, err = run_cli(capsys, *FAMILY, "--seed", "7")
    assert err.splitlines()[0] == (
        'config: {"cap": 65536, "format": "json", "outer": "dekking_g",'
        ' "samples": 64, "seed": 7, "seed_word": "0310201023",'
        ' "sub": "dekking_sub", "subcommand": "family", "target": "dekking"}')


@pytest.mark.parametrize("argv, flag", [
    (("count", "--spec", "dekking", "--n-max", "-1"), "--n-max"),
    (("forbidden", "--spec", "dekking", "--max-len", "0"), "--max-len"),
    (("growth", "--forbidden", "README.md", "--tol", "0"), "--tol"),
    (("growth", "--forbidden", "README.md", "--alphabet", "0"), "--alphabet"),
    (("generate", "--morphism", "dekking_h", "--length", "-5"), "--length"),
    (("scan", "--word", "README.md", "--min-root", "0"), "--min-root"),
    (("verify", "--morphism", "dekking_h", "--source", "dekking_h_source",
      "--target", "squarefree4", "--root-cap", "0"), "--root-cap"),
    (("verify", "--morphism", "dekking_h", "--source", "dekking_h_source",
      "--target", "squarefree4", "--root-cap", "-3"), "--root-cap"),
    (("verify", "--morphism", "dekking_h", "--source", "dekking_h_source",
      "--target", "squarefree4", "--depth", "-1"), "--depth"),
    (("scenario", "pu-shuffle", "--prefix-length", "-5"), "--prefix-length"),
    (FAMILY + ("--samples", "-1"), "--samples"),
    (FAMILY + ("--cap", "-1"), "--cap"),
    (FAMILY + ("--denominator", "0"), "--denominator"),
])
def test_unusable_numeric_flags_are_usage_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    FAMILY + ("--seed-word", "9"),
    FAMILY + ("--seed-word", "1" * 21, "--cap", "3000000"),
    FAMILY + ("--seed-word", ""),
    FAMILY + ("--seed-word", "  "),
], ids=["seed-outside-alphabet", "family-above-enumeration-limit",
        "empty-seed", "whitespace-seed"])
def test_unusable_family_requests_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "Traceback" not in err


COUNT = ("count", "--spec", "{path}", "--n-max", "4")


@pytest.mark.parametrize("argv, content", [
    (COUNT, b"alphabet 2\nsquares whitelist 01\n"),
    (COUNT, b"alphabet 2\nsquares min-root 0\n"),
    (COUNT, b"alphabet 0\n"),
    (COUNT, "alphabet 2  # f\u00fcr\n".encode()),
    (("scan", "--word", "{path}", "--cubes"), "0101\u00e9".encode()),
], ids=["whitelist-entry-not-a-square", "min-root-0", "alphabet-0",
        "non-ascii-spec", "non-ascii-word"])
def test_malformed_files_are_usage_errors(capsys, tmp_path, argv, content):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "Traceback" not in err


VERIFY_G = ("verify", "--morphism", "dekking_g", "--source",
            "dekking_g_source", "--target", "dekking")


@pytest.mark.parametrize("argv", [
    VERIFY_G + ("--fixed-point-morphism", "dekking_h",
                "--fixed-point-seed", "9"),
    VERIFY_G + ("--fixed-point-morphism", "dekking_h",
                "--fixed-point-seed", "-1"),
    VERIFY_G + ("--fixed-point-morphism", "dekking_g"),
    ("verify", "--morphism", "{path}", "--source", "dekking_g_source",
     "--target", "dekking"),
    ("verify", "--morphism", "{uniform}", "--source", "squarefree4",
     "--target", "dekking"),
    ("verify", "--morphism", "{empty}", "--source", "{unary}",
     "--target", "{squares}"),
], ids=["seed-outside-alphabet", "negative-seed", "not-an-endomorphism",
        "non-uniform-morphism", "source-letter-without-image",
        "empty-images"])
def test_unusable_verify_requests_are_usage_errors(capsys, tmp_path, argv):
    path = tmp_path / "m.txt"
    path.write_text("0 -> 01\n1 -> 100\n")
    uniform = tmp_path / "u.txt"
    uniform.write_text("0 -> 0000\n1 -> 0101\n")
    empty = tmp_path / "e.txt"
    empty.write_text("0 -> \n")
    unary = tmp_path / "a1.txt"
    unary.write_text("alphabet 1\n")
    squares = tmp_path / "sq.txt"
    squares.write_text("alphabet 2\nsquares min-root 1\n")
    code, out, err = run_cli(capsys, *(a.format(path=path, uniform=uniform,
                                                 empty=empty, unary=unary,
                                                 squares=squares)
                                       for a in argv))
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "Traceback" not in err


def test_verify_catches_images_outside_the_target_alphabet(capsys, tmp_path):
    morphism = tmp_path / "m.txt"
    morphism.write_text("0 -> 02\n1 -> 12\n")
    any2 = tmp_path / "any2.txt"
    any2.write_text("alphabet 2\n")
    code, out, _ = run_cli(capsys, "verify", "--morphism", str(morphism),
                           "--source", str(any2), "--target", str(any2))
    assert code == 1
    assert "INCOMPLETE" in out and "letter at 1: 2" in out


def test_shuffle_round_trip(capsys, tmp_path, registry):
    left = tmp_path / "left.txt"
    right = tmp_path / "right.txt"
    left.write_text(registry.reference_prefixes["shuffle_even_18"])
    right.write_text(registry.reference_prefixes["shuffle_odd_18"])
    code, out, _ = run_cli(capsys, "shuffle", "--left", str(left),
                           "--right", str(right))
    assert code == 0
    expected = registry.reference_prefixes["shuffle_base_2000"][:36]
    assert out.strip() == expected

    right.write_text("01")
    code, _, err = run_cli(capsys, "shuffle", "--left", str(left),
                           "--right", str(right))
    assert code == 2 and "equal length" in err


def test_family_subcommand(capsys):
    code, out, _ = run_cli(capsys, "family", "--sub", "dekking_sub",
                           "--outer", "dekking_g",
                           "--seed-word", "0310201023",
                           "--target", "dekking", "--denominator", "300")
    assert code == 0
    payload = json.loads(out)
    assert payload["family_size"] == 4
    assert payload["verified_count"] == 4


def test_family_never_verifies_more_words_than_it_has(capsys):
    code, out, _ = run_cli(capsys, "family", "--sub", "dekking_sub",
                           "--outer", "dekking_g", "--seed-word", "0",
                           "--target", "dekking_binary", "--cap", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["family_size"] == payload["verified_count"] == 1
    assert payload["enumerated"]


def test_scenario_subcommand_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "scenario", "pu-shuffle",
                           "--prefix-length", "2000")
    assert code == 0
    assert "scenario pu-shuffle: PASS" in out
    code, _, err = run_cli(capsys, "scenario", "not-a-scenario")
    assert code == 2 and "unknown scenario" in err
    code, _, err = run_cli(capsys, "scenario")
    assert code == 2 and "--all" in err


def test_console_script_is_installed():
    exe = shutil.which("wordavoid")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "generate", "--morphism", "pu_f",
                           "--length", "27"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "001001110001001110110110001"


def test_scenario_all_passes_quickly(capsys):
    code, out, _ = run_cli(capsys, "scenario", "--all",
                           "--prefix-length", "2000")
    assert code == 0
    assert out.count("PASS") == 6


def test_scenario_stdout_does_not_depend_on_the_cpus(capsys, monkeypatch):
    """One usable CPU runs the scenarios in-process, two fork a pool; the
    bytes are the same, and no worker outlives `main`."""
    outputs = {}
    for cpus in (1, 2):
        monkeypatch.setattr("os.sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)))
        for fmt in ("text", "json"):
            code, out, _ = run_cli(capsys, "scenario", "--all", "--format",
                                   fmt, "--prefix-length", "2000")
            assert code == 0
            assert multiprocessing.active_children() == []
            outputs.setdefault(fmt, set()).add(out)
    assert all(len(outs) == 1 for outs in outputs.values())


def test_forked_scenarios_do_not_repeat_buffered_output(capsys):
    """A forked worker must not print its copy of what the parent had
    written to a pipe but not yet flushed."""
    argv = ["scenario", "--all", "--prefix-length", "2000"]
    proc = run_script(f"""
        import sys
        from wordavoid.cli import main
        print("before")
        sys.exit(main({argv!r}))
        """)
    code, out, _ = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, "before\n" + out)


def test_package_import_leaves_the_pool_modules_unloaded():
    proc = run_script("""
        import sys
        import wordavoid
        print([m for m in ("multiprocessing", "concurrent.futures")
               if m in sys.modules])
        """)
    assert proc.stdout == "[]\n"


def test_dead_scenario_worker_is_a_failed_check():
    proc = run_script("""
        import sys
        from wordavoid import cli, scenarios
        scenarios.SCENARIOS["pu-shuffle"] = lambda reg, n: os._exit(7)
        sys.exit(cli.main(["scenario", "--all", "--prefix-length", "2000"]))
        """)
    assert proc.returncode == 1
    assert proc.stdout.count("\nscenario ") == 5
    assert "scenario pu-shuffle: FAIL\n  [FAIL] scenario worker: raised" \
        " BrokenProcessPool(" in proc.stdout


def test_scenario_json_digest_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "scenario", "--all", "--format", "json",
                           "--prefix-length", "2000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e2164396bc3b28a9ccf30d96059e930a3125e950f0edf6bf2006d25e3861f6ae")
