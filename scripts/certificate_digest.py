#!/usr/bin/env python3
"""Print the digests that pin the verifier's and the scenarios' output.

The first line counts the registry certificates and hashes their JSON: every
packaged morphism or substitution, against every packaged source spec whose
alphabet matches its source alphabet and every target spec wide enough for
its images, at the default root cap and at 2W+3.  The next two lines hash the
stdout of `wordavoid scenario --all --format json`, at the default prefix
length and at 2000.  The fourth hashes what the legal-word walker produces:
the count tables to length 36 and the minimal forbidden sets to length 30 of
the Dekking and Fraenkel-Simpson binary specs.  The fifth hashes what the
word scanners report on the long words of `scenario --all` (the Dekking and
Fraenkel-Simpson binary prefixes, the PU core and both PU tracks), each as
built and with 20 seeded single-letter flips: the first violation under
every packaged spec of the word's alphabet, the longest square root, and on
the PU core the occurrences of its four gap patterns.  Two trees whose lines
agree produce the same certificates, scenario reports, count tables, minimal
sets and scanner answers.
"""

import contextlib
import hashlib
import io
import json
import random
import sys

from wordavoid import cli
from wordavoid.instances import MORPHISM_NAMES, SPEC_NAMES, SUBSTITUTION_NAMES
from wordavoid import (GapPattern, count_avoiding, fixed_point_prefix,
                       gap_occurrences, load_registry, max_square_root,
                       minimal_forbidden, satisfies_spec,
                       verify_square_transfer, verify_substitution_transfer)


def certificate_digest() -> tuple[int, str]:
    reg = load_registry()
    specs = [(name, getattr(reg, name)) for name in SPEC_NAMES]
    jobs = [(name, getattr(reg, name), verify_square_transfer)
            for name in MORPHISM_NAMES]
    jobs += [(name, getattr(reg, name), verify_substitution_transfer)
             for name in SUBSTITUTION_NAMES]
    digest = hashlib.sha256()
    count = 0
    for name, morphism, verifier in jobs:
        flat = (morphism.to_annotated()[0] if name in SUBSTITUTION_NAMES
                else morphism)
        width = flat.uniform_width
        for source_name, source in specs:
            if source.alphabet_size != morphism.source_size:
                continue
            for target_name, target in specs:
                if target.alphabet_size < morphism.target_size:
                    continue
                for cap in (None, 2 * width + 3):
                    cert = verifier(morphism, source, target, root_cap=cap,
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


# Each line's label and how to compute its digest, in printed order.
LINES = {
    "certificates": lambda: "{} {}".format(*certificate_digest()),
    "scenario --all": scenario_digest,
    "scenario --all --prefix-length 2000":
        lambda: scenario_digest("--prefix-length", "2000"),
    "tables": tables_digest,
    "scans": scans_digest,
}


def main() -> int:
    for label, digest in LINES.items():
        print(f"{label} {digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
