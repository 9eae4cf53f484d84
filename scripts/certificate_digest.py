#!/usr/bin/env python3
"""Print the digests that pin the verifier's and the scenarios' output.

The first line counts the registry certificates and hashes their JSON: every
packaged morphism or substitution, against every packaged source spec whose
alphabet matches its source alphabet and every target spec wide enough for
its images, at the default root cap and at 2W+3.  The next two lines hash the
stdout of `wordavoid scenario --all --format json`, at the default prefix
length and at 2000.  The fourth hashes what the legal-word walker produces:
the count tables to length 36 and the minimal forbidden sets to length 30 of
the Dekking and Fraenkel-Simpson binary specs.  Two trees whose lines agree
produce the same certificates, scenario reports, count tables and minimal
sets.
"""

import contextlib
import hashlib
import io
import json
import sys

from wordavoid import cli
from wordavoid.instances import MORPHISM_NAMES, SPEC_NAMES, SUBSTITUTION_NAMES
from wordavoid import (count_avoiding, load_registry, minimal_forbidden,
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


def main() -> int:
    count, digest = certificate_digest()
    print(f"certificates {count} {digest}")
    print(f"scenario --all {scenario_digest()}")
    print(f"scenario --all --prefix-length 2000"
          f" {scenario_digest('--prefix-length', '2000')}")
    print(f"tables {tables_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
