#!/usr/bin/env python3
"""Print the digests that pin the verifier's and the scenarios' output.

The first line counts the registry certificates and hashes their JSON: every
packaged morphism or substitution, against every packaged source spec whose
alphabet matches its source alphabet and every target spec wide enough for
its images, at the default root cap and at 2W+3, and then the four packaged
coder certificates over their fixed points at both caps.  The next two lines
hash the stdout of `wordavoid scenario --all --format json`, at the default
prefix length and at 2000.  The fourth hashes what the legal-word walker
produces: the count tables to length 36 and the minimal forbidden sets to
length 30 of the Dekking and Fraenkel-Simpson binary specs.  The fifth hashes
what the word scanners report on the long words of `scenario --all` (the
Dekking and Fraenkel-Simpson binary prefixes, the PU core and both PU
tracks), each as built and with 20 seeded single-letter flips: the first
violation under every packaged spec of the word's alphabet, the longest
square root, and on the PU core the occurrences of its four gap patterns.
The sixth hashes the exit code and stdout of a fixed table of in-process
`wordavoid` calls: every subcommand in every `--format` it accepts, on
packaged names and small temp files written with comments, blank lines and
CRLF line ends, including calls that exit 1 and 2.  Two trees whose lines
agree produce the same certificates, scenario reports, count tables, minimal
sets, scanner answers and command line output.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

from wordavoid import cli
from wordavoid.instances import MORPHISM_NAMES, SPEC_NAMES, SUBSTITUTION_NAMES
from wordavoid import (GapPattern, count_avoiding, fixed_point_prefix,
                       gap_occurrences, load_registry, max_square_root,
                       minimal_forbidden, satisfies_spec,
                       verify_square_transfer)


# The packaged certificates that speak of a fixed point: coder, source,
# target and the fixed point's morphism (seed 0).
FIXED_POINT_CERTIFICATES = [
    ("dekking_g", "dekking_g_source", "dekking_binary", "dekking_h"),
    ("fs_g", "fs_g_source", "fs_binary", "fs_h"),
    ("pu_g1", "pu_source", "pu_binary", "pu_h"),
    ("pu_g2", "pu_source", "pu_binary", "pu_h"),
]


def certificate_digest() -> tuple[int, str]:
    reg = load_registry()
    specs = [(name, getattr(reg, name)) for name in SPEC_NAMES]
    runs = []
    for name in MORPHISM_NAMES + SUBSTITUTION_NAMES:
        morphism = getattr(reg, name)
        for source_name, source in specs:
            if source.alphabet_size != morphism.source_size:
                continue
            for target_name, target in specs:
                if target.alphabet_size >= morphism.target_size:
                    runs.append((name, source_name, target_name, None))
    runs += FIXED_POINT_CERTIFICATES
    digest = hashlib.sha256()
    count = 0
    for name, source_name, target_name, core in runs:
        morphism = getattr(reg, name)
        flat = (morphism.to_annotated()[0] if name in SUBSTITUTION_NAMES
                else morphism)
        fixed_point = None if core is None else (getattr(reg, core), 0)
        for cap in (None, 2 * flat.uniform_width + 3):
            cert = verify_square_transfer(
                morphism, getattr(reg, source_name), getattr(reg, target_name),
                root_cap=cap, fixed_point=fixed_point,
                name=f"{name}:{source_name}:{target_name}")
            digest.update(json.dumps(cert.to_dict(),
                                     sort_keys=True).encode() + b"\n")
            count += 1
    return count, digest.hexdigest()


def scenario_digest(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(["scenario", "--all", "--format", "json", *argv])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def tables_digest() -> str:
    reg = load_registry()
    digest = hashlib.sha256()
    for spec in (reg.dekking_binary, reg.fs_binary):
        digest.update(repr(count_avoiding(spec, 36).counts).encode() + b"\n")
        digest.update(minimal_forbidden(spec, 30).to_lines().encode())
    return digest.hexdigest()


def long_words() -> dict[str, tuple[bytes, int]]:
    """The long words `scenario --all` scans, with their alphabet sizes."""
    reg = load_registry()
    n = 100_000
    dekking = fixed_point_prefix(reg.dekking_h, 0, n // 6 + 1)
    fs = fixed_point_prefix(reg.fs_h, 0, n // 6 + 1)
    tracks = fixed_point_prefix(reg.pu_h, 0, (n + 2) // 3)
    return {"dekking": (reg.dekking_g.apply(dekking)[:n], 2),
            "fs": (reg.fs_g.apply(fs)[:n], 2),
            "pu_core": (fixed_point_prefix(reg.pu_h, 0, n), 4),
            "even": (reg.pu_g2.apply(tracks)[:n], 2),
            "odd": (reg.pu_g1.apply(tracks)[:n], 2)}


def scans_digest() -> str:
    reg = load_registry()
    specs = [(name, getattr(reg, name)) for name in SPEC_NAMES]
    patterns = (GapPattern(0, 1, 3), GapPattern(1, 0, 2),
                GapPattern(2, 3, 1), GapPattern(3, 2, 0))
    rng = random.Random(0)
    digest = hashlib.sha256()
    for label, (word, size) in long_words().items():
        flipped = bytearray(word)
        for _ in range(20):
            p = rng.randrange(len(flipped))
            flipped[p] = (flipped[p] + rng.randrange(1, size)) % size
        for w in (word, bytes(flipped)):
            answers = {}
            for name, spec in specs:
                if spec.alphabet_size == size:
                    v = satisfies_spec(w, spec).violation
                    answers[name] = v and (v.kind, v.position, v.root_length)
            answers["max_square_root"] = max_square_root(w)
            if label == "pu_core":
                answers["gaps"] = list(gap_occurrences(w, patterns).values())
            digest.update(json.dumps([label, answers]).encode() + b"\n")
    return digest.hexdigest()


# Small input files of the `cli` line, written with the comments, blank
# lines and CRLF line ends that spec, map and word-list files may hold.
CLI_FILES = {
    "word": "0110100110010110100101100110100110010110",
    "squares": "0010011",
    "left": "0101101",
    "right": "1100101",
    "runs": "# runs of three\r\n\r\n111  # ones\r\n000\r\n",
    "spec": "# no runs of three\nalphabet 2\n\nforbid 000 111  # runs\n",
    "map": "# Thue-Morse\n0 -> 01\n\n1 -> 10  # swapped\n",
}

# (label, argv) of each call of the `cli` line; `{name}` is the path of the
# file CLI_FILES[name].  `verify` gets only packaged names, since its
# certificate is named after the --morphism token.
CLI_CALLS = [
    ("generate text", ["generate", "--morphism", "dekking_h",
                       "--length", "60"]),
    ("generate json", ["generate", "--morphism", "{map}", "--length", "33",
                       "--format", "json"]),
    ("scan text", ["scan", "--word", "{word}", "--min-root", "3", "--cubes",
                   "--factors", "{runs}", "--gap-pattern", "0,1,0"]),
    ("scan json", ["scan", "--word", "{word}", "--min-root", "3", "--cubes",
                   "--factors", "{runs}", "--gap-pattern", "0,1,0",
                   "--format", "json"]),
    ("scan squares", ["scan", "--word", "{squares}", "--min-root", "1"]),
    ("scan nothing", ["scan", "--word", "{word}"]),
    ("verify text", ["verify", "--morphism", "dekking_h", "--source",
                     "dekking_h_source", "--target", "squarefree4"]),
    ("verify json", ["verify", "--morphism", "dekking_g", "--source",
                     "dekking_g_source", "--target", "dekking_binary",
                     "--fixed-point-morphism", "dekking_h", "--format",
                     "json"]),
    ("verify substitution text", ["verify", "--morphism", "dekking_sub",
                                  "--source", "dekking_h_source",
                                  "--target", "squarefree4"]),
    ("verify substitution json", ["verify", "--morphism", "fs_sub",
                                  "--source", "fs_h_target", "--target",
                                  "fs_g_source", "--format", "json"]),
    ("verify root cap", ["verify", "--morphism", "dekking_h", "--source",
                         "dekking_h_source", "--target", "squarefree4",
                         "--root-cap", "5"]),
    ("count csv", ["count", "--spec", "dekking", "--n-max", "12"]),
    ("count json", ["count", "--spec", "{spec}", "--n-max", "12",
                    "--format", "json"]),
    ("count text", ["count", "--spec", "ejs3", "--n-max", "12",
                    "--format", "text"]),
    ("forbidden text", ["forbidden", "--spec", "fraenkel-simpson",
                        "--max-len", "12"]),
    ("forbidden json", ["forbidden", "--spec", "{spec}", "--max-len", "6",
                        "--format", "json"]),
    ("growth json", ["growth", "--forbidden", "{runs}"]),
    ("growth text", ["growth", "--forbidden", "{runs}", "--alphabet", "3",
                     "--format", "text"]),
    ("family json", ["family", "--sub", "dekking_sub", "--outer", "dekking_g",
                     "--seed-word", "0123", "--target", "dekking_binary"]),
    ("family text", ["family", "--sub", "dekking_sub", "--outer", "dekking_g",
                     "--seed-word", "111", "--target", "dekking_binary",
                     "--denominator", "1", "--format", "text"]),
    ("shuffle text", ["shuffle", "--left", "{left}", "--right", "{right}"]),
    ("shuffle json", ["shuffle", "--left", "{left}", "--right", "{right}",
                      "--format", "json"]),
    ("scenario text", ["scenario", "dekking-forbidden-motivation"]),
    ("scenario certificates text", ["scenario", "fs-verify",
                                    "--prefix-length", "2000"]),
    ("scenario json", ["scenario", "counting", "--format", "json"]),
    ("scenario nothing", ["scenario"]),
]


def cli_digest() -> str:
    """Hash the label, exit code and stdout of each call in CLI_CALLS.

    Stderr is left out: its `config:` line names the temp files.
    """
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in CLI_FILES.items():
            paths[name] = os.path.join(tmp, f"{name}.txt")
            with open(paths[name], "w", encoding="ascii", newline="") as fh:
                fh.write(text)
        for label, argv in CLI_CALLS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([arg.format(**paths) for arg in argv])
            digest.update(json.dumps([label, code, out.getvalue()]).encode()
                          + b"\n")
    return digest.hexdigest()


# Each line's label and how to compute its digest, in printed order.
LINES = {
    "certificates": lambda: "{} {}".format(*certificate_digest()),
    "scenario --all": scenario_digest,
    "scenario --all --prefix-length 2000":
        lambda: scenario_digest("--prefix-length", "2000"),
    "tables": tables_digest,
    "scans": scans_digest,
    "cli": cli_digest,
}


def main() -> int:
    for label, digest in LINES.items():
        print(f"{label} {digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
