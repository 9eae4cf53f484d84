"""Command line behavior: outputs, determinism, exit statuses."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
import tracemalloc

import pytest

import wordavoid
from wordavoid import (Morphism, fixed_point_prefix, scenarios,
                       word_from_text, word_to_text)
from wordavoid.cli import main
from wordavoid.scenarios import MINIMAL_SET_SIZES, SCENARIOS

from conftest import (format_morphism, run_script, use_cpus,
                      with_image_letter)


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


def test_count_runs_in_one_process(capsys, monkeypatch):
    """`count` forks nothing, whatever the CPUs or the environment offer."""
    code, table, _ = run_cli(capsys, "count", "--spec", "dekking",
                             "--n-max", "12")
    forks = use_cpus(monkeypatch, 4)
    monkeypatch.setenv("WORDAVOID_WORKERS", "4")
    code2, again, _ = run_cli(capsys, "count", "--spec", "dekking",
                              "--n-max", "12")
    assert code == code2 == 0
    assert (again, forks) == (table, [])


def test_forbidden_growth_pipeline(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "forbidden", "--spec", "fraenkel-simpson",
                           "--max-len", "20")
    assert code == 0
    listing = tmp_path / "fs-derived-L20.txt"
    listing.write_text(out)
    assert len(out.strip().splitlines()) == MINIMAL_SET_SIZES["fs"]

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
    assert "COMPLETE" in out and "sync delay 12, root cap 20" in out

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


def test_verify_text_marks_incomplete_gap_evidence_open(capsys):
    code, out, _ = run_cli(capsys, "verify", "--morphism", "dekking_g",
                           "--source", "dekking_g_source",
                           "--target", "dekking_binary")
    assert code == 1
    assert "  gap pattern 1.3.2: exhaustive (open)\n" in out


def test_fixed_point_off_the_source_language_speaks_of_its_own_factors(
        capsys, tmp_path):
    """The Thue-Morse word never uses letters 2 and 3, so the dekking_g
    certificate over it speaks of its 6 source-legal factors, all binary
    and squarefree; without it the gap pattern 1.3.2 stays open."""
    thue_morse = tmp_path / "thue-morse.txt"
    thue_morse.write_text("0 -> 01\n1 -> 10\n2 -> 22\n3 -> 33\n")
    args = ("verify", "--morphism", "dekking_g", "--source",
            "dekking_g_source", "--target", "dekking_binary", "--format",
            "json")
    code, out, _ = run_cli(capsys, *args, "--fixed-point-morphism",
                           str(thue_morse))
    payload = json.loads(out)
    assert code == 0
    assert payload["scope"] == "fixed-point"
    assert payload["bounded"]["words_checked"] == 6
    code, out, _ = run_cli(capsys, *args)
    assert code == 1 and json.loads(out)["scope"] == "spec"


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
    # verify has no --depth; the unknown flag is a usage error all the same
    (("verify", "--morphism", "dekking_h", "--source", "dekking_h_source",
      "--target", "squarefree4", "--depth", "-1"), "--depth"),
    (("scenario", "pu-shuffle", "--prefix-length", "-5"), "--prefix-length"),
    (FAMILY + ("--samples", "-1"), "--samples"),
    (FAMILY + ("--cap", "-1"), "--cap"),
    (FAMILY + ("--denominator", "0"), "--denominator"),
    (("count", "--spec", "dekking", "--n-max", "100001"), "--n-max"),
    (("forbidden", "--spec", "dekking", "--max-len", "100001"), "--max-len"),
    (("verify", "--morphism", "dekking_h", "--source", "dekking_h_source",
      "--target", "squarefree4", "--root-cap", "100001"), "--root-cap"),
    (("generate", "--morphism", "dekking_h", "--length", "10000001"),
     "--length"),
    (("growth", "--forbidden", "README.md", "--tol", "inf"), "--tol"),
    (FAMILY + ("--samples", "65537"), "--samples"),
])
def test_unusable_numeric_flags_are_usage_errors(capsys, argv, flag):
    """Out-of-range values, the size caps among them, are rejected before
    any work starts."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 5.0
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


# 10^16 is past the address space: no allocation could hold it.
HUGE = "10000000000000000"


@pytest.mark.parametrize("argv, flag", [
    (("count", "--spec", "dekking", "--n-max", HUGE), "--n-max"),
    (("forbidden", "--spec", "dekking", "--max-len", HUGE), "--max-len"),
    (("verify", "--morphism", "dekking_h", "--source", "dekking_h_source",
      "--target", "squarefree4", "--root-cap", HUGE), "--root-cap"),
], ids=["count", "forbidden", "verify"])
def test_requests_too_large_for_memory_are_usage_errors(capsys, argv, flag):
    """The size flags' caps reject these before anything is allocated."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and flag in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["pu-shuffle", "dekking-verify"])
@pytest.mark.parametrize("length", [HUGE, "10000001"])
def test_prefix_length_past_its_bound_is_a_usage_error(capsys, name, length):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "scenario", name, "--prefix-length",
                             length)
    assert time.perf_counter() - start < 5.0
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--prefix-length" in errors[0]


@pytest.mark.parametrize("where", ["setup", "check"])
def test_scenario_out_of_memory_is_a_usage_error(capsys, monkeypatch, where):
    """Running out of memory, in a scenario's setup or in one of its
    checks, is an unusable request, not a failed check."""
    def exhausted(*args):
        raise MemoryError

    if where == "setup":
        monkeypatch.setitem(SCENARIOS, "pu-lemmas", exhausted)
    else:  # the check that the core prefix avoids the forbidden triples
        monkeypatch.setattr(scenarios, "satisfies_spec", exhausted)
    code, out, err = run_cli(capsys, "scenario", "pu-lemmas",
                             "--prefix-length", "2000")
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == ["error: out of memory"]


@pytest.mark.parametrize("error, message", [
    (MemoryError, "error: out of memory"),
    (ValueError("no view"), "error: no view"),
])
def test_rendering_errors_are_usage_errors(capsys, monkeypatch, error,
                                           message):
    """`main` renders inside its error handling: a text view that fails
    gives exit 2, one error line and no stdout."""
    def fail(*args):
        raise error

    monkeypatch.setattr(scenarios.ScenarioReport, "digest", fail)
    code, out, err = run_cli(capsys, "scenario",
                             "dekking-forbidden-motivation")
    assert (code, out) == (2, "")
    assert [line for line in err.splitlines() if "error:" in line] == [message]


def test_json_requests_never_build_the_text_view(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("the text view was built")

    monkeypatch.setattr(scenarios.ScenarioReport, "digest", fail)
    code, out, _ = run_cli(capsys, "scenario", "dekking-forbidden-motivation",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["ok"] is True


def test_huge_family_denominator_needs_no_huge_power(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *FAMILY, "--denominator", HUGE)
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert json.loads(out)["exponent_check"] is True


COUNT = ("count", "--spec", "{path}", "--n-max", "4")


@pytest.mark.parametrize("argv, content", [
    (COUNT, b"alphabet 2\nsquares whitelist 01\n"),
    (COUNT, b"alphabet 2\nsquares min-root 0\n"),
    (COUNT, b"alphabet 0\n"),
    (COUNT, b"alphabet 300\nsquares min-root 1\n"),
    (COUNT, "alphabet 2  # f\u00fcr\n".encode()),
    (("scan", "--word", "{path}", "--cubes"), "0101\u00e9".encode()),
], ids=["whitelist-entry-not-a-square", "min-root-0", "alphabet-0",
        "alphabet-300", "non-ascii-spec", "non-ascii-word"])
def test_malformed_files_are_usage_errors(capsys, tmp_path, argv, content):
    path = tmp_path / "input.txt"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("alphabet", ["257", "2000000"])
def test_growth_alphabet_past_a_byte_is_a_usage_error(capsys, tmp_path,
                                                      alphabet):
    """Letters are bytes, so the factor automaton takes at most 256 letters
    and builds no transition rows for a wider alphabet."""
    path = tmp_path / "squares.txt"
    path.write_text("00\n11\n")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "growth", "--forbidden", str(path),
                             "--alphabet", alphabet)
    assert time.perf_counter() - start < 5
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        "error: alphabet_size must be 1..256: letters are bytes"]
    code, out, _ = run_cli(capsys, "growth", "--forbidden", str(path),
                           "--alphabet", "256")
    assert code == 0
    assert 255 < json.loads(out)["eigenvalue"] < 256


def test_widest_alphabet_counts_every_letter(capsys, tmp_path):
    """Letters are bytes, so 256 letters is the widest alphabet, and none
    wraps onto another."""
    path = tmp_path / "a256.txt"
    path.write_text("alphabet 256\nsquares min-root 1\n")
    code, out, _ = run_cli(capsys, "count", "--spec", str(path), "--n-max",
                           "2")
    assert code == 0
    assert out == f"n,count\n0,1\n1,256\n2,{256 * 255}\n"


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
    ("verify", "--morphism", "dekking_h", "--source", "dekking_h_source",
     "--target", "squarefree4", "--fixed-point-morphism", "{growing}"),
    VERIFY_G + ("--fixed-point-morphism", "{growing}"),
], ids=["seed-outside-alphabet", "negative-seed", "not-an-endomorphism",
        "non-uniform-morphism", "source-letter-without-image",
        "empty-images", "non-uniform-fixed-point-unused",
        "non-uniform-fixed-point-used"])
def test_unusable_verify_requests_are_usage_errors(capsys, tmp_path, argv):
    """A fixed point is checked before any channel runs, also where the
    certificate has no gap pattern to use it on."""
    path = tmp_path / "m.txt"
    path.write_text("0 -> 01\n1 -> 100\n")
    growing = tmp_path / "g.txt"  # prolongable at 0, but not uniform
    growing.write_text("0 -> 0123\n1 -> 1\n2 -> 2\n3 -> 3\n")
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
                                                 squares=squares,
                                                 growing=growing)
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
    code, out, err = run_cli(capsys, "scenario", "pu-shuffle", "--all")
    assert (code, out) == (2, "")
    assert "pass a scenario name or --all" in err


def test_console_script_is_installed():
    exe = shutil.which("wordavoid")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "generate", "--morphism", "pu_f",
                           "--length", "27"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "001001110001001110110110001"


def test_module_run_is_the_entry_point(capsys):
    """`python -m wordavoid.cli` runs the same command line as `main`."""
    src = pathlib.Path(wordavoid.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "wordavoid.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    argv = ("count", "--spec", "dekking", "--n-max", "3")
    _, expected, _ = run_cli(capsys, *argv)
    proc = module(*argv)
    assert (proc.returncode, proc.stdout) == (0, expected)
    assert expected.startswith("n,count\n")
    assert module("count", "--spec", "dekking").returncode == 2


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
            with pytest.raises(ChildProcessError):  # no child at all
                os.waitpid(-1, os.WNOHANG)
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
        print([m for m in ("multiprocessing", "concurrent.futures",
                           "selectors") if m in sys.modules])
        """)
    assert proc.stdout == "[]\n"


def test_pooled_scenarios_never_load_the_executor():
    proc = run_script("""
        import sys
        from wordavoid import cli
        code = cli.main(["scenario", "--all", "--prefix-length", "2000"])
        print([m for m in ("multiprocessing", "concurrent.futures", "signal")
               if m in sys.modules])
        sys.exit(code)
        """)
    assert proc.returncode == 0
    assert proc.stdout.count("PASS") == 6
    assert proc.stdout.endswith("\n[]\n")


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


def test_out_of_memory_in_a_forked_check_is_a_usage_error():
    proc = run_script("""
        import sys
        from wordavoid import cli, scenarios

        def exhausted(*args):
            raise MemoryError

        scenarios.satisfies_spec = exhausted
        sys.exit(cli.main(["scenario", "--all", "--prefix-length", "2000"]))
        """)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "error: out of memory" in proc.stderr.splitlines()


def test_reproduce_tables_prints_growth_estimates():
    """The growth figures are power-iteration estimates, some below the
    true rate, so the script does not call them bounds."""
    src = pathlib.Path(wordavoid.__file__).parents[1]
    script = pathlib.Path(__file__).parents[1] / "scripts" / "reproduce_tables.py"
    proc = subprocess.run([sys.executable, str(script), "--n-max", "3",
                           "--max-len", "8"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)},
                          timeout=60)
    assert proc.returncode == 0
    assert "growth estimate" in proc.stdout
    assert "upper bound" not in proc.stdout


@pytest.fixture(scope="module")
def digest_script():
    path = pathlib.Path(__file__).parents[1] / "scripts" / "certificate_digest.py"
    spec = importlib.util.spec_from_file_location("certificate_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The lines of scripts/certificate_digest.py after their labels.  A
# deliberate change to one re-pins it here, with the old and new lines
# recorded in CHANGES.md.
PINNED_DIGESTS = {
    "certificates": "692 e528623c0923899bceab98d2104b6af6f454456bfc6aeca0"
                    "0873f5b1825bcc6b",
    "scenario --all": "2996e91dd2df1ee31573bff77acdf8867557bb11ba84c24200ba"
                      "6c205bc69f29",
    "scenario --all --prefix-length 2000": "aee0a9f496d04a30335982148ff5d6c2"
                                           "3c6e54191c6791e77de752bb4f9d6f99",
    "tables": "149e93de3f5bb0891c7665061bade7285cac0ed233257be43fbdd6812612549e",
    "scans": "ae3948060c929c37ba587509cc8e63ad8bd5b4745e165c8bbc9994f4df0e7e10",
    "cli": "43b98e999676d495422c84e4119d6c8d61cf6b838cdb4e42ad05b339c3174025",
}


@pytest.mark.parametrize("label", PINNED_DIGESTS, ids=[
    "certificates", "scenario-all", "scenario-all-prefix-2000", "tables",
    "scans", "cli"])
def test_digest_line_is_pinned(digest_script, label):
    assert list(digest_script.LINES) == list(PINNED_DIGESTS)
    assert digest_script.LINES[label]() == PINNED_DIGESTS[label]
