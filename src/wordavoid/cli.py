"""Command line front end.

Exit codes follow one rule everywhere: 0 when the requested checks pass,
1 when a check fails, 2 when the request itself is unusable (bad flags,
unreadable files, malformed data).  The resolved configuration is echoed
to stderr so reruns can be compared byte for byte on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

from .counting import (FactorAutomaton, count_avoiding, growth_rate,
                       lower_bound_family, minimal_forbidden)
from .instances import (MORPHISM_NAMES, SUBSTITUTION_NAMES, load_registry)
from .morphisms import (Substitution, fixed_point_prefix, parse_morphism,
                        parse_substitution)
from .pool import process_map
from .scenarios import SCENARIOS, failed_report, run_scenario
from .verify import verify_square_transfer, verify_substitution_transfer
from .words import (GapPattern, ParseError, find_cube_at_least,
                    find_square_at_least, format_spec, gap_first_and_count,
                    parse_spec, perfect_shuffle, scan_forbidden,
                    word_from_text, word_to_text)


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
    lines = (line.split("#", 1)[0] for line in _read(path).splitlines())
    return [word_from_text(line) for line in lines if line.strip()]


def _spec_oneline(spec) -> str:
    return "; ".join(format_spec(spec).splitlines())


def _int_at_least(minimum: int):
    """argparse type for an integer flag with a smallest usable value."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value
    return parse


def _positive_float(text: str) -> float:
    """argparse type for a float flag that must be above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# Subcommand bodies.  Each returns the exit status.

def _cmd_generate(args) -> int:
    morphism = _resolve_map(args.morphism, MORPHISM_NAMES, parse_morphism)
    word = fixed_point_prefix(morphism, args.seed_letter, args.length)
    if args.format == "json":
        _emit(json.dumps({"length": len(word), "word": word_to_text(word)},
                         sort_keys=True))
    else:
        _emit(word_to_text(word))
    return 0


def _cmd_scan(args) -> int:
    word = _read_word(args.word)
    findings = []

    if args.min_root is not None:
        hit = find_square_at_least(word, args.min_root)
        findings.append(("square with root >= %d" % args.min_root,
                         None if hit is None else
                         {"position": hit[0], "root": hit[1]}))
    if args.cubes:
        hit = find_cube_at_least(word, 1)
        findings.append(("cube",
                         None if hit is None else
                         {"position": hit[0], "root": hit[1]}))
    if args.factors is not None:
        hit = scan_forbidden(word, tuple(_read_words(args.factors)))
        findings.append(("forbidden factor",
                         None if hit is None else
                         {"position": hit[0], "factor": word_to_text(hit[1])}))
    if args.gap_pattern is not None:
        # One decimal digit per letter, the letters a word file can hold.
        parts = [p.strip() for p in args.gap_pattern.split(",")]
        if len(parts) != 3 or not all(len(p) == 1 and "0" <= p <= "9"
                                      for p in parts):
            raise ParseError("gap pattern must be three one-digit letters"
                             " `a,b,c`")
        pattern = GapPattern(*(int(p) for p in parts))
        hit, count = gap_first_and_count(word, pattern)
        findings.append(("gap pattern %d.%d.%d" % pattern.letters(),
                         None if hit is None else
                         {"position": hit[0], "gap": hit[1],
                          "occurrences": count}))
    if not findings:
        raise ParseError("nothing to scan for; pass --min-root, --cubes,"
                         " --factors, or --gap-pattern")

    clean = all(hit is None for _, hit in findings)
    if args.format == "json":
        _emit(json.dumps({"length": len(word), "clean": clean,
                          "checks": [{"name": name, "finding": hit}
                                     for name, hit in findings]},
                         sort_keys=True))
    else:
        lines = [f"scanned {len(word)} symbols"]
        for name, hit in findings:
            if hit is None:
                lines.append(f"  {name}: none")
            else:
                detail = ", ".join(f"{k} {v}" for k, v in sorted(hit.items()))
                lines.append(f"  {name}: {detail}")
        _emit("\n".join(lines))
    return 0 if clean else 1


def _render_certificate(cert) -> str:
    lines = [f"transfer {cert.name or '(unnamed)'}: "
             f"{'COMPLETE' if cert.complete else 'INCOMPLETE'}",
             f"  width {cert.width}, depth {cert.depth},"
             f" root cap {cert.root_cap}",
             f"  source: {_spec_oneline(cert.source)}",
             f"  target: {_spec_oneline(cert.target)}",
             f"  bounded case: {cert.bounded.words_checked} words up to"
             f" length {cert.bounded.max_source_length},"
             f" {len(cert.bounded.violations)} violations"]

    def block(label, rows):
        lines.append(f"  {label}: {len(rows)}")
        for w, r in rows:
            lines.append(f"    ({w.a},{w.b}) -> {w.c} @{w.offset}  {r.method}")
            for e in r.embeddings:
                lines.append(f"      pred {e.pred}, succ {e.succ}: {e.case}")

    block("inclusions", cert.inclusions)
    block("equal-pair inclusions", cert.equal_pair_inclusions)
    lines.append(f"  interchanges: {len(cert.interchanges)}")
    for w, r in cert.interchanges:
        lines.append(f"    ({w.a},{w.b},{w.c}) split {w.split}  {r.method}")
    for ev in cert.gap_evidence:
        p = ev.pattern
        state = "complete" if ev.complete else "empirical"
        lines.append(f"  gap pattern {p.first}.{p.middle}.{p.last}:"
                     f" {ev.kind} ({ev.scope} scope, {state})")
    if cert.residual:
        lines.append("  residual:")
        lines.extend(f"    {r}" for r in cert.residual)
    else:
        lines.append("  residual: none")
    return "\n".join(lines)


def _cmd_verify(args) -> int:
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
    verifier = (verify_substitution_transfer
                if isinstance(morphism, Substitution)
                else verify_square_transfer)
    cert = verifier(morphism, source, target, depth=args.depth,
                    root_cap=args.root_cap, fixed_point=fixed_point,
                    name=args.name or args.morphism)
    if args.format == "json":
        _emit(json.dumps(cert.to_dict(), sort_keys=True))
    else:
        _emit(_render_certificate(cert))
    return 0 if cert.complete else 1


def _workers_from_env() -> int:
    raw = os.environ.get("WORDAVOID_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ParseError(f"WORDAVOID_WORKERS must be an integer, got {raw!r}"
                         ) from None


def _cmd_count(args) -> int:
    spec = _resolve_spec(args.spec)
    table = count_avoiding(spec, args.n_max, workers=_workers_from_env())
    if args.format == "json":
        _emit(json.dumps({"spec": _spec_oneline(spec),
                          "counts": list(table.counts)}, sort_keys=True))
    elif args.format == "text":
        _emit("\n".join(f"{n:4d} {c}" for n, c in enumerate(table.counts)))
    else:
        _emit(table.to_csv())
    return 0


def _cmd_forbidden(args) -> int:
    spec = _resolve_spec(args.spec)
    derived = minimal_forbidden(spec, args.max_len)
    ordered = sorted(derived.words, key=lambda w: (len(w), w))
    if args.format == "json":
        _emit(json.dumps({"spec": _spec_oneline(spec),
                          "max_length": args.max_len,
                          "words": [word_to_text(w) for w in ordered]},
                         sort_keys=True))
    else:
        _emit(derived.to_lines())
    return 0


def _cmd_growth(args) -> int:
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
    if args.format == "text":
        _emit(f"eigenvalue {estimate.eigenvalue:.9f} from {estimate.states}"
              f" live states after {estimate.iterations} iterations")
    else:
        _emit(json.dumps(estimate.to_dict(), sort_keys=True))
    return 0


def _cmd_family(args) -> int:
    sub = _resolve_map(args.sub, SUBSTITUTION_NAMES, parse_substitution)
    outer = _resolve_map(args.outer, MORPHISM_NAMES, parse_morphism)
    target = _resolve_spec(args.target)
    report = lower_bound_family(sub, outer, word_from_text(args.seed_word),
                                target, exponent_denominator=args.denominator,
                                enumeration_cap=args.cap,
                                samples=args.samples, seed=args.seed)
    expected = report.family_size if report.enumerated else args.samples
    ok = report.verified_count == expected and report.exponent_check
    if args.format == "text":
        mode = "enumerated" if report.enumerated else f"sampled {args.samples}"
        _emit(f"{report.family_size} words of length {report.word_length}"
              f" ({mode}); {report.verified_count} verified;"
              f" exponent check {'passed' if report.exponent_check else 'failed'}")
    else:
        _emit(json.dumps(report.to_dict(), sort_keys=True))
    return 0 if ok else 1


def _cmd_shuffle(args) -> int:
    left = _read_word(args.left)
    right = _read_word(args.right)
    word = perfect_shuffle(left, right)
    if args.format == "json":
        _emit(json.dumps({"length": len(word), "word": word_to_text(word)},
                         sort_keys=True))
    else:
        _emit(word_to_text(word))
    return 0


def _cmd_scenario(args) -> int:
    if args.all:
        names = list(SCENARIOS)
    elif args.name is not None:
        names = [args.name]
    else:
        raise ParseError("pass a scenario name or --all")
    # The scenarios are independent, so they share out the usable CPUs; a
    # dead worker fails the scenarios it had not finished.
    reports = process_map(
        partial(run_scenario, prefix_length=args.prefix_length), names,
        failed=lambda name, exc: failed_report(name, "scenario worker", exc))
    if args.format == "json":
        _emit(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    else:
        _emit("\n\n".join(r.digest() for r in reports))
    return 0 if all(r.ok for r in reports) else 1


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
    p.add_argument("--length", type=_int_at_least(0), required=True)
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
    p.add_argument("--depth", type=_int_at_least(0), default=2)
    p.add_argument("--root-cap", type=_int_at_least(1), default=None)
    p.add_argument("--fixed-point-morphism", default=None)
    p.add_argument("--fixed-point-seed", type=int, default=0)
    p.add_argument("--name", default=None)
    fmt(p, "text")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("count", help="exact counts of legal words by length")
    p.add_argument("--spec", required=True)
    p.add_argument("--n-max", type=_int_at_least(0), required=True)
    fmt(p, "csv", ("csv", "json", "text"))
    p.set_defaults(run=_cmd_count)

    p = sub.add_parser("forbidden", help="minimal forbidden words of a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--max-len", type=_int_at_least(1), required=True)
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
    p.add_argument("--samples", type=_int_at_least(1), default=64)
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
    p.add_argument("--prefix-length", type=_int_at_least(1), default=100_000)
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
        return args.run(args)
    except ValueError as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
