"""Scenario runners exercising the packaged constructions end to end.

Each scenario reruns one construction's verification story at desk scale and
reports named pass/fail checks plus JSON-able artifacts.  Reference prefixes
are pinned in the packaged data and certificate rows here, so a corrupted
registry entry surfaces as a failed check rather than a crash.
"""

from __future__ import annotations

import hashlib

from .counting import (build_automaton, count_avoiding, growth_rate,
                       lower_bound_family, minimal_forbidden)
from .instances import InstanceRegistry, load_registry
from .morphisms import fixed_point_prefix, power
from .verify import find_inclusions, find_interchanges, verify_square_transfer
from .words import (AvoidanceSpec, GapPattern, Record, gap_occurrences,
                    max_square_root, perfect_shuffle, satisfies_spec,
                    word_from_text, word_to_text)

# The pinned count tables and minimal-set sizes; the tests import them.
G_TABLE = (1, 2, 4, 6, 10, 16, 24, 36, 52, 72, 90, 116, 142, 178, 220, 264,
           332, 414)
H_TABLE = (1, 2, 4, 8, 13, 22, 31, 46, 58, 78, 99, 124, 144, 176, 198, 234,
           262, 300, 351)
MINIMAL_SET_SIZES = {"dekking": 90, "fs": 65}

# Digests of the sorted enumerated family words, frozen from the verified
# construction so any image corruption shows up as a family mismatch.
FAMILY_DIGESTS = {
    "dekking": "eeef81c3ff5a16cb024fe161bd6aed8f474e1ed33c254cffd49522163aefd2dc",
    "fs": "a11398d1ea5d9a35f06a49f463c78578c86105a1d8f580f97f5f09627e7b6868",
}


class Check(Record):
    name: str
    ok: bool
    detail: str = ""


class ScenarioReport(Record):
    name: str
    inputs: tuple[str, ...]
    checks: tuple[Check, ...]
    artifacts: dict

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "ok": self.ok,
                "checks": [c.to_dict() for c in self.checks]}

    def digest(self) -> str:
        lines = [f"scenario {self.name}: {'PASS' if self.ok else 'FAIL'}"]
        for c in self.checks:
            mark = "ok " if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.name}" + (f": {c.detail}" if c.detail
                                                   else ""))
        return "\n".join(lines)


class _Collector:
    """Runs check bodies, catching exceptions as failures."""

    def __init__(self):
        self.checks: list[Check] = []
        self.artifacts: dict = {}

    def run(self, name: str, body) -> None:
        """`body` returns (ok, detail); an exception fails the check."""
        try:
            ok, detail = body()
        except MemoryError:
            raise  # a request too large to hold is unusable, not a failure
        except Exception as exc:
            ok, detail = False, f"raised {exc!r}"
        self.checks.append(Check(name, bool(ok), detail))

    def certify(self, name: str, key: str, verify, pinned, detail: str
                ) -> None:
        """Check a transfer certificate: run `verify`, keep the certificate
        under the artifact `key`, and pass when it is complete and
        `pinned(cert)` holds.  `detail` is formatted with the certificate
        as `c`."""

        def body():
            cert = verify()
            self.artifacts[key] = cert.to_dict()
            return cert.complete and pinned(cert), detail.format(c=cert)

        self.run(name, body)

    def prefixes(self, refs: dict, stem: str, label: str, word: bytes,
                 lengths: tuple[int, ...] = (2000,)) -> None:
        """Compare `word` with the reference prefix `<stem>_<n>` for each
        n; the 2000-letter comparison is the extended check."""
        for n in lengths:

            def body(key=f"{stem}_{n}"):
                ref = word_from_text(refs[key])
                m = min(len(word), len(ref))
                return (m > 0 and word[:m] == ref[:m],
                        f"{m} reference symbols compared")

            self.run(f"{label} prefix" + (", extended" if n == 2000 else ""),
                     body)


def _construction_words(col: _Collector, core_morphism, coder,
                        prefix_length: int) -> tuple[bytes, bytes]:
    """The core fixed-point prefix and its coded binary word, long enough
    for the 2000-letter references and for `prefix_length` binary letters;
    their first 60 letters are kept as artifacts."""
    core = fixed_point_prefix(core_morphism, 0,
                              max(2000, prefix_length // 6 + 1))
    binary = coder.apply(core)[:max(2000, prefix_length)]
    col.artifacts["core_prefix"] = word_to_text(core[:60])
    col.artifacts["binary_prefix"] = word_to_text(binary[:60])
    return core, binary


def _scenario_dekking_verify(reg: InstanceRegistry, prefix_length: int
                             ) -> ScenarioReport:
    col = _Collector()
    refs = reg.reference_prefixes
    core, binary = _construction_words(col, reg.dekking_h, reg.dekking_g,
                                       prefix_length)
    col.certify(
        "core transfer certificate", "core_certificate",
        lambda: verify_square_transfer(reg.dekking_h, reg.dekking_h_source,
                                       reg.squarefree4, name="dekking_h"),
        lambda c: (c.sync_delay == 12 and not c.interchanges
                   and c.bounded.legal_counts[5] == 49),
        "complete, D {c.sync_delay}, 0 interchanges, "
        "{c.bounded.legal_counts[5]} words at length 5")
    col.certify(
        "coder transfer certificate", "coder_certificate",
        lambda: verify_square_transfer(reg.dekking_g, reg.dekking_g_source,
                                       reg.dekking_binary,
                                       fixed_point=(reg.dekking_h, 0),
                                       name="dekking_g"),
        lambda c: (c.sync_delay == 9
                   and [(w.a, w.b, w.c, w.split, word_to_text(w.s),
                         word_to_text(w.t), word_to_text(w.u),
                         word_to_text(w.v)) for w, _ in c.interchanges]
                   == [(2, 1, 3, 4, "0110", "01", "0101", "10")]
                   and c.bounded.legal_counts[5] == 28),
        "complete, D {c.sync_delay}, 1 interchange, "
        "{c.bounded.legal_counts[5]} words at length 5")
    col.certify(
        "substitution transfer certificate", "substitution_certificate",
        lambda: verify_square_transfer(reg.dekking_sub, reg.dekking_h_source,
                                       reg.squarefree4, name="dekking_sub"),
        lambda c: c.sync_delay == 14 and not c.interchanges,
        "complete, D {c.sync_delay}, 0 interchanges")
    col.prefixes(refs, "dekking_core", "core fixed-point", core, (50, 2000))
    col.prefixes(refs, "dekking_binary", "binary word", binary, (60, 2000))
    col.run("binary prefix meets target spec",
            lambda: (satisfies_spec(binary[:prefix_length],
                                    reg.dekking_binary).ok,
                     f"{min(prefix_length, len(binary))} symbols scanned"))
    return ScenarioReport(
        "dekking-verify",
        ("dekking_h", "dekking_g", "dekking_sub", "dekking_h_source",
         "dekking_g_source", "squarefree4", "dekking_binary"),
        tuple(col.checks), col.artifacts)


_MOTIVATION = (
    ("12", "square", "0110"), ("12", "square", "1100"),
    ("12", "square", "1001"), ("13", "square", "0110"),
    ("21", "cube", "01"), ("32", "square", "1001"),
    ("231", "square", "10010110"), ("10302", "square", "100100110110"),
)


def _scenario_dekking_motivation(reg: InstanceRegistry, prefix_length: int
                                 ) -> ScenarioReport:
    col = _Collector()
    for source_text, kind, root_text in _MOTIVATION:
        source = word_from_text(source_text)
        root = word_from_text(root_text)
        repeat = root * (3 if kind == "cube" else 2)

        def body(source=source, repeat=repeat):
            image = reg.dekking_g.apply(source)
            ok = (repeat in image
                  and not satisfies_spec(image, reg.dekking_binary).ok)
            return ok, "occurs and breaks the binary spec"

        col.run(f"image of {source_text} contains {kind} of {root_text}", body)
    return ScenarioReport("dekking-forbidden-motivation",
                          ("dekking_g", "dekking_binary"),
                          tuple(col.checks), col.artifacts)


def _scenario_fs_verify(reg: InstanceRegistry, prefix_length: int
                        ) -> ScenarioReport:
    col = _Collector()
    refs = reg.reference_prefixes

    def special_case():
        image = reg.fs_g.apply(word_from_text("434010"))
        wanted = (word_from_text("1100") + word_from_text("01110010110001") * 2
                  + word_from_text("1100"))
        ok = image == wanted and max_square_root(image) == 14
        return ok, "codes a square with root length 14"

    core, binary = _construction_words(col, reg.fs_h, reg.fs_g, prefix_length)
    col.certify(
        "core transfer certificate", "core_certificate",
        lambda: verify_square_transfer(reg.fs_h, reg.fs_h_source,
                                       AvoidanceSpec(5, square_min_root=1),
                                       name="fs_h"),
        lambda c: c.sync_delay == 31 and not c.interchanges,
        "complete, D {c.sync_delay}, 0 interchanges")
    col.certify(
        "coder transfer certificate", "coder_certificate",
        lambda: verify_square_transfer(reg.fs_g, reg.fs_g_source,
                                       reg.fs_binary,
                                       fixed_point=(reg.fs_h, 0),
                                       name="fs_g"),
        lambda c: c.sync_delay == 19 and not c.interchanges,
        "complete, D {c.sync_delay}, 0 interchanges")
    col.certify(
        "substitution transfer certificate", "substitution_certificate",
        lambda: verify_square_transfer(reg.fs_sub, reg.fs_h_target,
                                       reg.fs_g_source, name="fs_sub"),
        lambda c: (c.sync_delay == 31
                   and [(w.a, w.b, w.c) for w, _ in c.interchanges]
                   == [(2, 1, 5), (2, 4, 5), (5, 3, 2)]),
        "complete, D {c.sync_delay}, 3 interchanges")
    col.run("the word behind the length-6 forbidden factor", special_case)
    col.prefixes(refs, "fs_core", "core fixed-point", core)
    col.prefixes(refs, "fs_binary", "binary word", binary)
    col.run("binary prefix meets whitelist spec",
            lambda: (satisfies_spec(binary[:prefix_length], reg.fs_binary).ok,
                     f"{min(prefix_length, len(binary))} symbols scanned"))
    return ScenarioReport(
        "fs-verify",
        ("fs_h", "fs_g", "fs_sub", "fs_h_source", "fs_h_target",
         "fs_g_source", "fs_binary"),
        tuple(col.checks), col.artifacts)


def _scenario_pu_shuffle(reg: InstanceRegistry, prefix_length: int
                         ) -> ScenarioReport:
    col = _Collector()
    refs = reg.reference_prefixes

    def equations():
        checked = 0
        for n in range(0, 7):
            for letter in range(4):
                lhs = power(reg.pu_f, n + 1,
                            bytes((letter & 1, letter >> 1)))
                core = power(reg.pu_h, n, bytes((letter,)))
                rhs = perfect_shuffle(reg.pu_g2.apply(core),
                                      reg.pu_g1.apply(core))
                if lhs != rhs:
                    return False, f"identity fails at n={n}, letter={letter}"
                checked += 1
        return True, f"{checked} identities, n up to 6"

    def doubled_prefixes():
        need = 2 * len(power(reg.pu_f, 8, b"\x00"))
        stream = fixed_point_prefix(reg.pu_f, 0, need)
        for n in range(0, 9):
            block = power(reg.pu_f, n, b"\x00")
            if stream[:2 * len(block)] != block + block:
                return False, f"doubling fails at n={n}"
        return True, "doubled prefix up to n=8"

    core_len = max(700, (prefix_length + 2) // 3)
    core = fixed_point_prefix(reg.pu_h, 0, core_len)
    even = reg.pu_g2.apply(core)[:prefix_length]
    odd = reg.pu_g1.apply(core)[:prefix_length]
    base = fixed_point_prefix(reg.pu_f, 0, 2 * prefix_length)
    col.artifacts["even_track_prefix"] = word_to_text(even[:18])
    col.artifacts["odd_track_prefix"] = word_to_text(odd[:18])
    col.artifacts["base_prefix"] = word_to_text(base[:27])

    col.run("shuffle identities", equations)
    col.prefixes(refs, "shuffle_even", "even track", even, (18, 2000))
    col.prefixes(refs, "shuffle_odd", "odd track", odd, (18, 2000))
    col.prefixes(refs, "shuffle_base", "base word", base, (27, 2000))
    col.run("base word doubles its own prefixes", doubled_prefixes)
    col.run("shuffling the tracks rebuilds the base word",
            lambda: (perfect_shuffle(even, odd) == base[:2 * len(even)],
                     f"{2 * len(even)} symbols compared"))

    def roots_below_4(track):
        root = max_square_root(track)
        return root <= 3, f"max root {root}"

    for label, track in (("even", even), ("odd", odd)):
        col.run(f"{label} track squares have roots below 4",
                lambda track=track: roots_below_4(track))
    return ScenarioReport(
        "pu-shuffle", ("pu_f", "pu_h", "pu_g1", "pu_g2"),
        tuple(col.checks), col.artifacts)


_GAP_PATTERNS = (GapPattern(0, 1, 3), GapPattern(1, 0, 2),
                 GapPattern(2, 3, 1), GapPattern(3, 2, 0))
_INTERCHANGE_TRIPLES = ((0, 3, 2), (1, 2, 3), (2, 1, 0), (3, 0, 1))
_SHUFFLE_CODERS = ("pu_g1", "pu_g2")


def _scenario_pu_lemmas(reg: InstanceRegistry, prefix_length: int
                        ) -> ScenarioReport:
    col = _Collector()
    core = fixed_point_prefix(reg.pu_h, 0, prefix_length)

    col.run("core morphism has no inclusions",
            lambda: (find_inclusions(reg.pu_h) == [], ""))
    col.run("core morphism has no interchanges",
            lambda: (find_interchanges(reg.pu_h) == [], ""))

    col.certify(
        "core transfer certificate", "core_certificate",
        lambda: verify_square_transfer(reg.pu_h, reg.pu_source,
                                       reg.squarefree4, name="pu_h"),
        lambda c: c.sync_delay == 2 and not c.interchanges,
        "complete, D {c.sync_delay}, 0 interchanges")
    col.run("forbidden triples absent from the core prefix",
            lambda: (satisfies_spec(core, reg.pu_source).ok,
                     f"{len(core)} symbols scanned"))
    found = gap_occurrences(core, _GAP_PATTERNS)
    for pattern in _GAP_PATTERNS:
        col.run("gap pattern {}.{}.{} absent".format(*pattern.letters()),
                lambda pattern=pattern: (not found[pattern],
                                         f"{len(core)} symbols scanned"))

    for coder in _SHUFFLE_CODERS:
        col.certify(
            f"{coder.replace('pu_', 'coder ')} transfer certificate",
            f"{coder}_certificate",
            lambda coder=coder: verify_square_transfer(
                getattr(reg, coder), reg.pu_source, reg.pu_binary,
                fixed_point=(reg.pu_h, 0), name=coder),
            lambda c: (c.sync_delay == 9
                       and tuple((w.a, w.b, w.c) for w, _ in c.interchanges)
                       == _INTERCHANGE_TRIPLES),
            "complete, D {c.sync_delay}, 4 interchanges")
    return ScenarioReport(
        "pu-lemmas",
        ("pu_h", "pu_g1", "pu_g2", "pu_source", "pu_binary", "squarefree4"),
        tuple(col.checks), col.artifacts)


def _scenario_counting(reg: InstanceRegistry, prefix_length: int
                       ) -> ScenarioReport:
    col = _Collector()

    def tables():
        got_g = count_avoiding(reg.dekking_binary, len(G_TABLE) - 1).counts
        got_h = count_avoiding(reg.fs_binary, len(H_TABLE) - 1).counts
        col.artifacts["dekking_counts"] = list(got_g)
        col.artifacts["fs_counts"] = list(got_h)
        if got_g != G_TABLE:
            return False, "cubefree bounded-square table mismatch"
        if got_h != H_TABLE:
            return False, "whitelist table mismatch"
        return True, f"both tables match, G_5={got_g[5]}"

    col.run("count tables", tables)

    def golden():
        auto = build_automaton(
            minimal_forbidden(AvoidanceSpec(2, (word_from_text("000"),
                                                word_from_text("111"))), 3))
        est = growth_rate(auto)
        col.artifacts["golden_estimate"] = est.to_dict()
        return (abs(est.eigenvalue - 1.6180339887) < 1e-5,
                f"eigenvalue {est.eigenvalue:.7f}")

    col.run("two-letter-run growth rate", golden)

    for label, spec, target_eig in (("dekking", reg.dekking_binary, 1.178),
                                    ("fs", reg.fs_binary, 1.135)):

        def body(label=label, spec=spec, target_eig=target_eig):
            derived = minimal_forbidden(spec, 20)
            est = growth_rate(build_automaton(derived))
            col.artifacts[f"{label}_growth"] = est.to_dict()
            col.artifacts[f"{label}_minimal_size"] = len(derived.words)
            expected = MINIMAL_SET_SIZES[label]
            size_note = ""
            if len(derived.words) != expected:
                sample = derived.ordered()[:3]
                size_note = (f"; size {len(derived.words)} differs from "
                             f"{expected}, sample "
                             + ",".join(word_to_text(w) for w in sample))
            ok = abs(est.eigenvalue - target_eig) < 0.005
            return ok, (f"{len(derived.words)} minimal words, eigenvalue "
                        f"{est.eigenvalue:.6f}{size_note}")

        col.run(f"{label} derived growth bound", body)

    def family(label, sub, outer, seed, target, denominator, size, length):
        def body():
            report = lower_bound_family(sub, outer, seed, target,
                                        exponent_denominator=denominator)
            col.artifacts[f"{label}_family"] = report.to_dict()
            words = sorted(outer.apply(img) for img in sub.iter_images(seed))
            digest = hashlib.sha256(b"".join(words)).hexdigest()
            ok = (report.family_size == size and report.word_length == length
                  and report.verified_count == size and report.exponent_check
                  and report.enumerated and digest == FAMILY_DIGESTS[label])
            return ok, (f"{report.family_size} words of length "
                        f"{report.word_length}, all verified")
        return body

    col.run("dekking lower-bound family",
            family("dekking", reg.dekking_sub, reg.dekking_g,
                   reg.dekking_h.image(0), reg.dekking_binary, 300, 4, 600))
    col.run("fs lower-bound family",
            family("fs", reg.fs_sub, reg.fs_g, reg.fs_h.image(0),
                   reg.fs_binary, 1152, 16, 3456))
    return ScenarioReport(
        "counting",
        ("dekking_binary", "fs_binary", "dekking_sub", "dekking_g",
         "fs_sub", "fs_g"),
        tuple(col.checks), col.artifacts)


SCENARIOS = {
    "dekking-verify": _scenario_dekking_verify,
    "dekking-forbidden-motivation": _scenario_dekking_motivation,
    "fs-verify": _scenario_fs_verify,
    "pu-shuffle": _scenario_pu_shuffle,
    "pu-lemmas": _scenario_pu_lemmas,
    "counting": _scenario_counting,
}


def run_scenario(name: str, registry: InstanceRegistry | None = None,
                 prefix_length: int = 100_000) -> ScenarioReport:
    """Run one named scenario; unknown names raise ValueError.

    A crash while building the scenario's words counts as a failure, not an
    error: broken registry data must never look like a passing run.  Running
    out of memory is not a failure of the data, so MemoryError propagates.
    """
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})")
    reg = registry if registry is not None else load_registry()
    try:
        return SCENARIOS[name](reg, prefix_length)
    except MemoryError:
        raise
    except Exception as exc:
        return failed_report(name, "scenario setup", exc)


def failed_report(name: str, check: str, exc: BaseException) -> ScenarioReport:
    """The report of a scenario that stopped when `check` raised `exc`."""
    return ScenarioReport(name, (), (Check(check, False, f"raised {exc!r}"),),
                          {})

