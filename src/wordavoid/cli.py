"""Command line front end.

Exit codes follow one rule everywhere: 0 when the requested checks pass,
1 when a check fails, 2 when the request itself is unusable (bad flags,
unreadable files, malformed data).  The resolved configuration is echoed
to stderr so reruns can be compared byte for byte on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

from .counting import (FactorAutomaton, count_avoiding, growth_rate,
                       lower_bound_family, minimal_forbidden)
from .instances import (MORPHISM_NAMES, SUBSTITUTION_NAMES, load_registry)
from .morphisms import fixed_point_prefix, parse_morphism, parse_substitution
from .pool import process_map
from .scenarios import SCENARIOS, failed_report, run_scenario
from .verify import verify_square_transfer
from .words import (GapPattern, ParseError, content_lines,
                    find_cube_at_least, find_square_at_least, format_spec,
                    gap_first_and_count, parse_spec, perfect_shuffle,
                    scan_forbidden, word_from_text, word_to_text)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: non-ASCII byte at offset"
                         f" {exc.start}") from None


def _resolve_spec(token: str):
    reg = load_registry()
    spec = reg.spec_by_name(token)
    if spec is not None:
        return spec
    return parse_spec(_read(token))


def _resolve_map(token: str, names, parse):
    """The packaged map named `token` if it is among `names`, else the map
    file at `token`, read once and parsed by `parse`."""
    if token in names:
        return getattr(load_registry(), token)
    return parse(_read(token))


def _read_word(path: str) -> bytes:
    return word_from_text(_read(path))


def _read_words(path: str) -> list[bytes]:
    """One word a line; `#` starts a comment, as in spec and map files."""
    words = []
    for lineno, line in content_lines(_read(path)):
        try:
            words.append(word_from_text(line))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return words


def _spec_oneline(spec) -> str:
    return "; ".join(format_spec(spec).splitlines())


def _int_at_least(minimum: int, maximum: int | None = None):
    """argparse type for an integer flag with a smallest usable value, and
    a largest one where larger requests would not fit in memory."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                f"must be at most {maximum}, got {value}")
        return value
    return parse


def _positive_float(text: str) -> float:
    """argparse type for a float flag that must be finite and above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text}")
    return value


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each returns (exit status, JSON payload, text view); the
# text view is a zero-argument callable, so a JSON request never builds it.
# `main` renders the one the format asks for.

def _word_result(word: bytes):
    return (0, {"length": len(word), "word": word_to_text(word)},
            lambda: word_to_text(word))


def _cmd_generate(args):
    morphism = _resolve_map(args.morphism, MORPHISM_NAMES, parse_morphism)
    return _word_result(fixed_point_prefix(morphism, args.seed_letter,
                                           args.length))


def _cmd_scan(args):
    word = _read_word(args.word)
    findings = []

    def found(name, hit, *keys):
        """Record check `name`, with its hit's values under `keys`."""
        findings.append((name, hit and dict(zip(keys, hit))))

    if args.min_root is not None:
        found("square with root >= %d" % args.min_root,
              find_square_at_least(word, args.min_root), "position", "root")
    if args.cubes:
        found("cube", find_cube_at_least(word, 1), "position", "root")
    if args.factors is not None:
        hit = scan_forbidden(word, tuple(_read_words(args.factors)))
        found("forbidden factor", hit and (hit[0], word_to_text(hit[1])),
              "position", "factor")
    if args.gap_pattern is not None:
        # One decimal digit per letter, the letters a word file can hold.
        parts = [p.strip() for p in args.gap_pattern.split(",")]
        if len(parts) != 3 or not all(len(p) == 1 and "0" <= p <= "9"
                                      for p in parts):
            raise ParseError("gap pattern must be three one-digit letters"
                             " `a,b,c`")
        pattern = GapPattern(*(int(p) for p in parts))
        hit, count = gap_first_and_count(word, pattern)
        found("gap pattern %d.%d.%d" % pattern.letters(),
              hit and (*hit, count), "position", "gap", "occurrences")
    if not findings:
        raise ParseError("nothing to scan for; pass --min-root, --cubes,"
                         " --factors, or --gap-pattern")

    def text():
        lines = [f"scanned {len(word)} symbols"]
        for name, hit in findings:
            if hit is None:
                lines.append(f"  {name}: none")
            else:
                detail = ", ".join(f"{k} {v}" for k, v in sorted(hit.items()))
                lines.append(f"  {name}: {detail}")
        return "\n".join(lines)

    clean = all(hit is None for _, hit in findings)
    return (0 if clean else 1,
            {"length": len(word), "clean": clean,
             "checks": [{"name": name, "finding": hit}
                        for name, hit in findings]},
            text)


def _render_certificate(cert) -> str:
    lines = [f"transfer {cert.name or '(unnamed)'}: "
             f"{'COMPLETE' if cert.complete else 'INCOMPLETE'}",
             f"  width {cert.width}, sync delay {cert.sync_delay},"
             f" root cap {cert.root_cap}",
             f"  scope: {cert.scope}",
             f"  source: {_spec_oneline(cert.source)}",
             f"  target: {_spec_oneline(cert.target)}",
             f"  bounded case: {cert.bounded.words_checked} words up to"
             f" length {cert.bounded.max_source_length},"
             f" {len(cert.bounded.violations)} violations",
             f"  interchanges: {len(cert.interchanges)}"]
    for w, r in cert.interchanges:
        lines.append(f"    ({w.a},{w.b},{w.c}) split {w.split}  {r.method}")
    for ev in cert.gap_evidence:
        p = ev.pattern
        state = "complete" if ev.complete else "open"
        lines.append(f"  gap pattern {p.first}.{p.middle}.{p.last}:"
                     f" {ev.kind} ({state})")
    if cert.residual:
        lines.append("  residual:")
        lines.extend(f"    {r}" for r in cert.residual)
    else:
        lines.append("  residual: none")
    return "\n".join(lines)


def _cmd_verify(args):
    source = _resolve_spec(args.source)
    target = _resolve_spec(args.target)
    fixed_point = None
    if args.fixed_point_morphism is not None:
        fixed_point = (_resolve_map(args.fixed_point_morphism,
                                    MORPHISM_NAMES, parse_morphism),
                       args.fixed_point_seed)
    # A map file parses as a substitution; one with one image per letter
    # certifies as the morphism it is (see `Substitution.to_annotated`).
    morphism = _resolve_map(args.morphism, MORPHISM_NAMES + SUBSTITUTION_NAMES,
                            parse_substitution)
    cert = verify_square_transfer(morphism, source, target,
                                  root_cap=args.root_cap,
                                  fixed_point=fixed_point,
                                  name=args.name or args.morphism)
    return (0 if cert.complete else 1, cert.to_dict(),
            partial(_render_certificate, cert))


def _cmd_count(args):
    spec = _resolve_spec(args.spec)
    table = count_avoiding(spec, args.n_max)
    def text():
        return "\n".join(f"{n:4d} {c}" for n, c in enumerate(table.counts))

    return (0, {"spec": _spec_oneline(spec), "counts": list(table.counts)},
            table.to_csv if args.format == "csv" else text)


def _cmd_forbidden(args):
    spec = _resolve_spec(args.spec)
    derived = minimal_forbidden(spec, args.max_len)
    return (0, {"spec": _spec_oneline(spec), "max_length": args.max_len,
                "words": [word_to_text(w) for w in derived.ordered()]},
            derived.to_lines)


def _cmd_growth(args):
    words = _read_words(args.forbidden)
    if args.alphabet is not None:
        alphabet = args.alphabet
    elif words:
        alphabet = max(max(w) for w in words) + 1
    else:
        raise ParseError("empty forbidden list needs --alphabet")
    if any(max(w) >= alphabet for w in words):
        raise ParseError("forbidden words use letters outside the alphabet")
    estimate = growth_rate(FactorAutomaton(alphabet, frozenset(words)),
                           tol=args.tol)
    return (0, estimate.to_dict(),
            lambda: f"eigenvalue {estimate.eigenvalue:.9f} from"
                    f" {estimate.states} live states after"
                    f" {estimate.iterations} iterations")


def _cmd_family(args):
    sub = _resolve_map(args.sub, SUBSTITUTION_NAMES, parse_substitution)
    outer = _resolve_map(args.outer, MORPHISM_NAMES, parse_morphism)
    target = _resolve_spec(args.target)
    report = lower_bound_family(sub, outer, word_from_text(args.seed_word),
                                target, exponent_denominator=args.denominator,
                                enumeration_cap=args.cap,
                                samples=args.samples, seed=args.seed)
    expected = report.family_size if report.enumerated else args.samples
    ok = report.verified_count == expected and report.exponent_check

    def text():
        mode = "enumerated" if report.enumerated else f"sampled {args.samples}"
        return (f"{report.family_size} words of length {report.word_length}"
                f" ({mode}); {report.verified_count} verified; exponent check"
                f" {'passed' if report.exponent_check else 'failed'}")

    return 0 if ok else 1, report.to_dict(), text


def _cmd_shuffle(args):
    return _word_result(perfect_shuffle(_read_word(args.left),
                                        _read_word(args.right)))


def _cmd_scenario(args):
    if args.all == (args.name is not None):
        raise ParseError("pass a scenario name or --all")
    names = list(SCENARIOS) if args.all else [args.name]
    # The scenarios are independent, so they share out the usable CPUs; a
    # dead worker fails the scenarios it had not finished.
    reports = process_map(
        partial(run_scenario, prefix_length=args.prefix_length), names,
        failed=lambda name, exc: failed_report(name, "scenario worker", exc))
    return (0 if all(r.ok for r in reports) else 1,
            [r.to_dict() for r in reports],
            lambda: "\n\n".join(r.digest() for r in reports))


# ---------------------------------------------------------------------------
# Argument wiring.

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordavoid",
        description="Construct, verify, and count words avoiding"
                    " large squares.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def fmt(p, default, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser("generate", help="fixed-point prefix of a morphism")
    p.add_argument("--morphism", required=True)
    p.add_argument("--seed-letter", type=int, default=0)
    # Memory grows with the length: near 800 MB at the bound.
    p.add_argument("--length", type=_int_at_least(0, 10_000_000),
                   required=True)
    fmt(p, "text")
    p.set_defaults(run=_cmd_generate)

    p = sub.add_parser("scan", help="scan a word file for violations")
    p.add_argument("--word", required=True)
    p.add_argument("--min-root", type=_int_at_least(1), default=None)
    p.add_argument("--cubes", action="store_true")
    p.add_argument("--factors", default=None)
    p.add_argument("--gap-pattern", default=None, metavar="A,B,C")
    fmt(p, "text")
    p.set_defaults(run=_cmd_scan)

    p = sub.add_parser("verify", help="transfer certificate for a morphism")
    p.add_argument("--morphism", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    # This cap, --n-max and --max-len size the walker's column step; at the
    # bound the step alone takes 13-26 MB, and its runs grow with it.
    p.add_argument("--root-cap", type=_int_at_least(1, 100_000),
                   default=None)
    p.add_argument("--fixed-point-morphism", default=None)
    p.add_argument("--fixed-point-seed", type=int, default=0)
    p.add_argument("--name", default=None)
    fmt(p, "text")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("count", help="exact counts of legal words by length")
    p.add_argument("--spec", required=True)
    p.add_argument("--n-max", type=_int_at_least(0, 100_000),
                   required=True)
    fmt(p, "csv", ("csv", "json", "text"))
    p.set_defaults(run=_cmd_count)

    p = sub.add_parser("forbidden", help="minimal forbidden words of a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--max-len", type=_int_at_least(1, 100_000),
                   required=True)
    fmt(p, "text")
    p.set_defaults(run=_cmd_forbidden)

    p = sub.add_parser("growth", help="growth rate from a forbidden list")
    p.add_argument("--forbidden", required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--alphabet", type=_int_at_least(1), default=None)
    fmt(p, "json")
    p.set_defaults(run=_cmd_growth)

    p = sub.add_parser("family", help="verify an exponential word family")
    p.add_argument("--sub", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--seed-word", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--denominator", type=_int_at_least(1), default=None)
    p.add_argument("--cap", type=_int_at_least(0), default=1 << 16)
    # About 1 ms a sample on a long family; at most the default --cap.
    p.add_argument("--samples", type=_int_at_least(1, 1 << 16), default=64)
    p.add_argument("--seed", type=int, default=0)
    fmt(p, "json")
    p.set_defaults(run=_cmd_family)

    p = sub.add_parser("shuffle", help="perfect shuffle of two word files")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    fmt(p, "text")
    p.set_defaults(run=_cmd_shuffle)

    p = sub.add_parser("scenario", help="run packaged scenarios")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--all", action="store_true")
    # Memory grows with the prefix: pu-shuffle peaks near 150 MB at the bound.
    p.add_argument("--prefix-length", type=_int_at_least(1, 10_000_000),
                   default=100_000)
    fmt(p, "text")
    p.set_defaults(run=_cmd_scenario)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # The resolved invocation, echoed before any work runs.
    config = {"seed": 0, **{key: value for key, value in vars(args).items()
                            if key != "run" and value is not None}}
    print("config: " + json.dumps(config, sort_keys=True), file=sys.stderr)
    try:
        code, payload, text = args.run(args)
        _emit(json.dumps(payload, sort_keys=True) if args.format == "json"
              else text())
        return code
    except ValueError as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a request too large to hold is unusable
        print("error: out of memory" + (f" ({exc})" if str(exc) else ""),
              file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
