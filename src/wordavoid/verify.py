"""Transfer verification for uniform morphisms.

Proves statements of the form "if a word satisfies the source spec, its image
satisfies the target spec" by splitting any would-be violation into three
exhaustive channels:

* short violations, inside the image of a bounded source word (the shared
  legal-word walker gives the words in chunks of one length, carrying their
  images' runs through a target column step with roots capped at the root
  cap; it sets apart the words whose image fails and does not extend them,
  and `satisfies_spec` names each violation; a cap below 2W leaves the
  roots above it as a residual);
* inclusions, where one image sits inside the image of a pair with offcut
  affixes on both sides (one inventory over all pairs, refuted case by case
  through context letters and forced pullbacks);
* interchanges, where two images share a prefix/suffix splitting of a third
  (refuted by proving a three-letter gap pattern absent from the source
  language; the bounded exhaustive search runs on the shared legal-word
  walker).

Every question of the form "can this short word occur?" goes to one oracle,
`_forbids`.  A fixed point enters as a spec that forbids its short
non-factors too; only block descent and the empirical scan read it itself.

A `TransferCertificate` holds the witnesses and their refutations; its
residual obligations are read off those rows, and it is complete when
nothing is left open.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .counting import walk_legal
from .morphisms import Morphism, Substitution, fixed_point_prefix
from .words import (AvoidanceSpec, ColumnStep, GapPattern, Record,
                    Violation, format_spec, gap_first_and_count,
                    satisfies_spec, word_to_text)

FixedPoint = tuple[Morphism, int]

# Gap-pattern evidence: block descent checks gaps below this many letters
# against the exact factors, the exhaustive search walks gaps up to this
# many letters, and the empirical scan reads this long a fixed-point prefix.
_DESCENT_BASE = 12
_EXHAUST_GAP = 8
_SCAN_LENGTH = 100_000
# A fixed point's spec forbids non-factors of at most this many letters, the
# longest factors block descent reads below width 14.  A longer bounded case
# walks a superset of the factors, which is sound.
_SCOPE_LENGTH = 25


def _framed(morphism: Morphism, prefix=b"", suffix=b"") -> list[int]:
    """The letters whose image starts with `prefix` and ends with `suffix`."""
    return [x for x in range(morphism.source_size)
            if morphism.image(x).startswith(prefix)
            and morphism.image(x).endswith(suffix)]


def _forbids(spec: AvoidanceSpec, word: bytes,
             classes: tuple[int, ...] | None = None) -> str | None:
    """Why the spec forbids the word (projected through `classes`), as
    "<word> (<kind>)", or None when the word is legal."""
    if classes is not None:
        word = bytes(classes[b] for b in word)
    bad = satisfies_spec(word, spec).violation
    return None if bad is None else f"{word_to_text(word)} ({bad.kind})"


# ---------------------------------------------------------------------------
# Exact factors of a fixed point.

# A full scenario run uses 32 factor sets.
_FACTOR_SETS_KEPT = 256


@lru_cache(maxsize=_FACTOR_SETS_KEPT)
def exact_factors(morphism: Morphism, seed: int, length: int) -> frozenset[bytes]:
    """All factors of the given length of the fixed point, computed exactly.

    A factor of length k starts inside the first block of a window of
    j = 1 + ceil((k-1)/W) consecutive blocks, and the block word of a window
    is itself a factor of the fixed point.  For k = 2 the window is a pair
    again: every pair but the first starts in the first block of the image
    of an earlier pair, so the pairs are the least set that holds the first
    one and is closed under that step.  Every letter starts a pair.
    """
    if morphism.source_size != morphism.target_size:
        raise ValueError("exact factors need an endomorphism")
    width = morphism.uniform_width
    if width is None or width < 2:
        raise ValueError("exact factors need uniform width >= 2")
    if not morphism.is_prolongable(seed):
        raise ValueError(f"morphism is not prolongable at {seed}")
    if length < 1:
        raise ValueError("length must be positive")
    if length == 1:
        return frozenset(pair[:1] for pair in exact_factors(morphism, seed, 2))

    def in_first_block(source: bytes) -> list[bytes]:
        window = morphism.apply(source)
        return [window[i:i + length] for i in range(width)
                if i + length <= len(window)]

    if length == 2:
        pairs: set[bytes] = set()
        frontier = [morphism.image(seed)[:2]]
        while frontier:
            pair = frontier.pop()
            if pair not in pairs:
                pairs.add(pair)
                frontier.extend(in_first_block(pair))
        return frozenset(pairs)
    blocks = 1 + -(-(length - 1) // width)
    return frozenset(factor for source in exact_factors(morphism, seed, blocks)
                     for factor in in_first_block(source))


def _fixed_point_spec(source: AvoidanceSpec, fixed_point: FixedPoint,
                      length: int) -> AvoidanceSpec:
    """The source spec plus the fixed point's minimal non-factors u + a (u
    and u[1:] + a factors) of at most `length` letters that the source
    allows.  Its legal words up to that length are the source-legal factors:
    the shortest non-factor in a source-legal word is minimal and legal."""
    m, seed = fixed_point
    shorter: frozenset[bytes] = frozenset((b"",))
    extra: list[bytes] = []
    for k in range(1, length + 1):
        factors = exact_factors(m, seed, k)
        extra += sorted(w for u in shorter for a in range(source.alphabet_size)
                        if (w := u + bytes((a,)))[1:] in shorter
                        and w not in factors and _forbids(source, w) is None)
        shorter = factors
    return source.replace(forbidden=source.forbidden + tuple(extra))


def _fixed_point_phases(morphism: Morphism, seed: int, word: bytes) -> set[int]:
    """Positions mod width at which `word` can start in the fixed point."""
    windows = [morphism.apply(pair) for pair in exact_factors(morphism, seed, 2)]
    return {i for window in windows for i in range(morphism.uniform_width)
            if window.startswith(word, i)}


# ---------------------------------------------------------------------------
# Witnesses.

class InclusionWitness(Record):
    """image(a) + image(b) contains image(c) at `offset`, flanked by t and u."""

    a: int
    b: int
    c: int
    offset: int
    t: bytes
    u: bytes


class InterchangeWitness(Record):
    """image(a) = s+t, image(b) = u+v, image(c) = s+v at the recorded split.

    `splits` lists every split position that works; `split` is the smallest.
    """

    a: int
    b: int
    c: int
    split: int
    s: bytes
    t: bytes
    u: bytes
    v: bytes
    splits: tuple[int, ...]


class EmbeddingCase(Record):
    """One choice of context letters around an inclusion, and its outcome."""

    pred: int
    succ: int
    case: str
    detail: str


class Refutation(Record):
    method: str
    detail: str
    embeddings: tuple[EmbeddingCase, ...] = ()

    _CLOSED = ("pair-illegal", "no-right-extension", "no-left-extension",
               "gap-pattern-absent")

    @property
    def ok(self) -> bool:
        if self.method == "embeddings":
            return all(e.case != "open" for e in self.embeddings)
        return self.method in self._CLOSED

    def to_dict(self) -> dict:
        out = {"method": self.method, "detail": self.detail}
        if self.embeddings:
            out["embeddings"] = [e.to_dict() for e in self.embeddings]
        return out


class GapEvidence(Record):
    """Why a pattern first..middle..last with equal gaps cannot occur.

    kind is one of follower, descent, exhaustive, scan, present;
    only complete evidence makes a certificate complete.
    """

    pattern: GapPattern
    kind: str
    complete: bool
    detail: str


class BoundedCaseReport(Record):
    max_source_length: int
    words_checked: int
    legal_counts: tuple[int, ...]
    violations: tuple[tuple[bytes, Violation], ...]

    def to_dict(self) -> dict:
        return {**super().to_dict(),
                "violations": [{"source": word_to_text(w),
                                "violation": v.describe()}
                               for w, v in self.violations]}


# ---------------------------------------------------------------------------
# Witness search.

def find_inclusions(morphism: Morphism) -> list[InclusionWitness]:
    """All ways an image sits strictly inside the image of a two-letter word,
    over every pair (a, b) in order.

    Offsets 0 and W would make c a copy of a or b and are not inclusions.
    """
    width = morphism.uniform_width
    if width is None:
        raise ValueError("inclusion search needs a uniform morphism")
    out = []
    for a in range(morphism.source_size):
        for b in range(morphism.source_size):
            combined = morphism.image(a) + morphism.image(b)
            for offset in range(1, width):
                segment = combined[offset:offset + width]
                for c in range(morphism.source_size):
                    if morphism.image(c) == segment:
                        out.append(InclusionWitness(
                            a, b, c, offset,
                            combined[:offset], combined[offset + width:]))
    return out


def find_interchanges(morphism: Morphism,
                      classes: tuple[int, ...] | None = None
                      ) -> list[InterchangeWitness]:
    """Triples where image(c) recombines a prefix of image(a) with a suffix
    of image(b).  Only triples with c distinct from both a and b (as classes)
    threaten a square, so only those are reported.
    """
    width = morphism.uniform_width
    if width is None:
        raise ValueError("interchange search needs a uniform morphism")
    cls = classes or tuple(range(morphism.source_size))
    out = []
    for a in range(morphism.source_size):
        for b in range(morphism.source_size):
            for c in range(morphism.source_size):
                if cls[a] == cls[c] or cls[b] == cls[c]:
                    continue
                ia, ib, ic = morphism.image(a), morphism.image(b), morphism.image(c)
                splits = tuple(k for k in range(1, width)
                               if ia[:k] == ic[:k] and ib[k:] == ic[k:])
                if splits:
                    k = splits[0]
                    out.append(InterchangeWitness(
                        a, b, c, k, ia[:k], ia[k:], ib[:k], ib[k:], splits))
    return out


# ---------------------------------------------------------------------------
# Inclusion refutation.

def refute_inclusion(morphism: Morphism, witness: InclusionWitness,
                     source: AvoidanceSpec, depth: int = 2,
                     classes: tuple[int, ...] | None = None) -> Refutation:
    """Refute one inclusion against the source spec.

    Depth 0 uses only the pair itself and the two affix extension checks.
    Depth 1 adds the embedding analysis through context letters, and depth 2
    adds the forced-pullback cases, which look one source letter further.
    """
    a, b, c, offset = witness.a, witness.b, witness.c, witness.offset
    t, u = witness.t, witness.u

    reason = _forbids(source, bytes([a, b]), classes)
    if reason is not None:
        return Refutation("pair-illegal", f"source forbids {reason}")
    preds = _framed(morphism, suffix=t)
    succs = _framed(morphism, prefix=u)
    if not succs:
        return Refutation("no-right-extension",
                          f"{word_to_text(u)} is not a prefix of any image")
    if not preds:
        return Refutation("no-left-extension",
                          f"{word_to_text(t)} is not a suffix of any image")
    if depth < 1:
        return Refutation("open", "embedding analysis needs depth >= 1")

    embeddings = []
    for e in preds:
        for d in succs:
            embeddings.append(_embedding_case(
                morphism, source, classes, a, b, c, offset, e, d, depth))
    open_count = sum(1 for e in embeddings if e.case == "open")
    detail = (f"{len(embeddings)} embeddings, all refuted" if open_count == 0
              else f"{open_count} of {len(embeddings)} embeddings open")
    return Refutation("embeddings", detail, tuple(embeddings))


def _embedding_case(morphism, source, classes, a, b, c, offset, e, d,
                    depth) -> EmbeddingCase:
    width = morphism.uniform_width
    for case, context in (("context-pair", (e, c)), ("context-pair", (c, d)),
                          ("context-triple", (e, c, d))):
        reason = _forbids(source, bytes(context), classes)
        if reason is not None:
            return EmbeddingCase(e, d, case, f"source forbids {reason}")

    # v·image(ab)·w = image(ecd) leaves v = image(e)[:W-o] hanging on the
    # left and w = image(d)[W-o:] on the right; both are nonempty for any
    # inclusion, so the trivial case cannot arise here.
    v = morphism.image(e)[:width - offset]
    w = morphism.image(d)[width - offset:]
    k_right = _framed(morphism, prefix=w)
    k_left = _framed(morphism, suffix=v)

    left = right = None
    if depth >= 2:
        left = _forced_case(source, classes, k_left, (a, b), "left")
        right = _forced_case(source, classes, k_right, (a, b), "right")
    # The certificate records the first case that applies, in this order:
    # the one-letter-offcut forced cases, the missing pullbacks, then the
    # general forced cases.
    if offset == 1 and left is not None:
        return EmbeddingCase(e, d, "left-pullback-forced", left)
    if width - offset == 1 and right is not None:
        return EmbeddingCase(e, d, "right-pullback-forced", right)
    if not k_right:
        return EmbeddingCase(e, d, "no-right-pullback",
                             f"{word_to_text(w)} is not a prefix of any image")
    if not k_left:
        return EmbeddingCase(e, d, "no-left-pullback",
                             f"{word_to_text(v)} is not a suffix of any image")
    if left is not None:
        return EmbeddingCase(e, d, "left-pullback-forced-general", left)
    if right is not None:
        return EmbeddingCase(e, d, "right-pullback-forced-general", right)
    return EmbeddingCase(e, d, "open", "no case applies")


def _forced_case(source, classes, candidates, pair, side) -> str | None:
    """Every pullback candidate must make the extended triple illegal."""
    if not candidates:
        return None
    reasons = []
    for k in candidates:
        triple = bytes([k, *pair] if side == "left" else [*pair, k])
        reason = _forbids(source, triple, classes)
        if reason is None:
            return None
        reasons.append(reason)
    return f"forced {side} letter in {{{','.join(str(k) for k in candidates)}}}: " \
           + "; ".join(reasons)


# ---------------------------------------------------------------------------
# Gap patterns.

def _exhaustive_viability(pattern: GapPattern, spec: AvoidanceSpec,
                          max_gap: int) -> bool:
    """Whether no gap fits, shown by walking the legal words first + alpha:
    every one dies before alpha reaches max_gap letters, and no alpha left
    makes a legal pattern word.  The walk prunes soundly because a violation
    inside a prefix survives every extension."""
    alphas = []
    for words, _ in walk_legal(spec, max_gap + 1,
                               np.array([[pattern.first]], np.uint8)):
        if words.shape[1] == max_gap + 1:
            return False
        alphas += (row[1:].tobytes() for row in words)
    return all(_forbids(spec, pattern.word(alpha)) for alpha in alphas)


def _gap_flanks(fixed_point: FixedPoint, gap: int) -> set[tuple[int, int, int]]:
    """The letters (first, middle, last) of every gap pattern that occurs in
    the fixed point with a gap of this length, from its exact factors."""
    m, seed = fixed_point
    return {(f[0], f[gap + 1], f[-1]) for f in exact_factors(m, seed, 2 * gap + 3)
            if f[1:gap + 1] == f[gap + 2:-1]}


def _descent_proof(pattern: GapPattern, fixed_point: FixedPoint) -> str | None:
    """Prove the pattern absent from the fixed point by block descent.

    For a large-gap occurrence, the middle letter sits at some phase i of
    some block x.  The gap then starts with the rest of that block and ends
    with the start of the next copy's block, so the words built from those
    affixes must be factors; when their phases are pinned, both copies of
    the gap parse into whole blocks and the occurrence pulls back to a
    strictly smaller occurrence of a (possibly different) pattern.  Small
    gaps are checked against the exact factor sets.
    """
    m, seed = fixed_point
    width = m.uniform_width
    if not m.injective_on_letters:
        return None
    base = max(_DESCENT_BASE, width - 1)
    letters = [x for (x,) in sorted(exact_factors(m, seed, 1))]

    todo = [pattern]
    resolved: dict[GapPattern, list[str]] = {}
    while todo:
        pat = todo.pop()
        if pat in resolved:
            continue
        cases: list[str] = []
        resolved[pat] = cases
        for x in letters:
            img = m.image(x)
            for i in [i for i, a in enumerate(img) if a == pat.middle]:
                tag = f"(x={x},i={i})"
                before, after = img[:i], img[i + 1:]
                lead = bytes([pat.first]) + after
                trail = before + bytes([pat.last])
                if lead not in exact_factors(m, seed, len(lead)):
                    cases.append(f"{tag} lead {word_to_text(lead)} impossible")
                    continue
                if trail not in exact_factors(m, seed, len(trail)):
                    cases.append(f"{tag} trail {word_to_text(trail)} impossible")
                    continue
                if (_fixed_point_phases(m, seed, lead) != {i}
                        or _fixed_point_phases(m, seed, trail) != {0}):
                    return None
                ys = [y for y in letters if m.image(y)[i:] == lead]
                zs = [z for z in letters if m.image(z)[:i + 1] == trail]
                nxt = sorted((GapPattern(y, x, z) for y in ys for z in zs),
                             key=GapPattern.letters)
                todo.extend(nxt)
                names = ",".join(q.text() for q in nxt)
                cases.append(f"{tag} descends to {names or 'nothing'}")

    for gap in range(base):
        flanks = _gap_flanks(fixed_point, gap)
        if any(pat.letters() in flanks for pat in resolved):
            return None

    parts = []
    for pat in sorted(resolved, key=GapPattern.letters):
        parts.append(f"{pat.text()}: " + "; ".join(resolved[pat]))
    return f"gaps < {base} absent by exact factors; " + " | ".join(parts)


def prove_gap_pattern_absence(pattern: GapPattern, spec: AvoidanceSpec,
                              fixed_point: FixedPoint | None = None
                              ) -> GapEvidence:
    """Best available evidence that the pattern cannot occur.

    Tries, in order: the follower argument, block descent over the fixed
    point, a bounded exhaustive search (complete only when every branch dies
    early), and finally an empirical scan of a fixed point prefix.  The
    other rungs ask only the spec: a fixed point's spec (`_fixed_point_spec`)
    makes them speak of its factors.
    """
    # The follower argument: no gap fits when first-middle-last is illegal
    # and no letter may follow both the middle letter and the first.
    b, c, _ = pattern.letters()
    if _forbids(spec, bytes(pattern.letters())):
        followers = [d for d in range(spec.alphabet_size)
                     if _forbids(spec, bytes([c, d])) is None]
        if all(_forbids(spec, bytes([b, d])) for d in followers):
            return GapEvidence(pattern, "follower", True,
                               f"{pattern.text()} illegal; followers of {c}"
                               f" are {{{','.join(map(str, followers))}}} and"
                               f" none may follow {b}")
    if fixed_point is not None:
        detail = _descent_proof(pattern, fixed_point)
        if detail is not None:
            return GapEvidence(pattern, "descent", True, detail)
    if _exhaustive_viability(pattern, spec, _EXHAUST_GAP):
        return GapEvidence(pattern, "exhaustive", True,
                           f"every branch dies within gap {_EXHAUST_GAP}")
    if fixed_point is not None:
        prefix = fixed_point_prefix(*fixed_point, _SCAN_LENGTH)
        hit, _ = gap_first_and_count(prefix, pattern)
        if hit is not None:
            pos, gap = hit
            return GapEvidence(pattern, "present", False,
                               f"occurs at position {pos} with gap {gap}")
        return GapEvidence(pattern, "scan", False,
                           f"absent from the first {len(prefix)} letters")
    return GapEvidence(pattern, "exhaustive", False,
                       f"only gaps <= {_EXHAUST_GAP} checked")


def refute_interchange(evidence: GapEvidence) -> Refutation:
    """An interchange forces its gap pattern b..c..a in the source word, so
    a proof that the pattern is absent refutes it; empirical evidence
    leaves it open, and the row says which evidence that was."""
    pattern = evidence.pattern.text()
    if evidence.complete:
        return Refutation("gap-pattern-absent",
                          f"pattern {pattern} ruled out by {evidence.kind}")
    return Refutation("open", f"pattern {pattern} not ruled out:"
                              f" {evidence.kind}, {evidence.detail}")


# ---------------------------------------------------------------------------
# Bounded case and certificates.

def bounded_case_check(morphism: Morphism, source: AvoidanceSpec,
                       target: AvoidanceSpec, root_cap: int,
                       classes: tuple[int, ...] | None = None
                       ) -> BoundedCaseReport:
    """Check images of every legal source word long enough to contain any
    target violation of root at most root_cap.

    Longer roots are what the inclusion and interchange analysis covers, so
    they are not reported here; letters and forbidden factors are checked in
    full.  An image violation survives every extension, so a word whose image
    violates is reported and its extensions are not visited.

    The source words come from the legal-word walker, which carries their
    images' runs too.  A word's parent has a clean image, which is a prefix
    of the word's image, so a violation can only end in the last block: one
    target `ColumnStep` of that block, roots capped at root_cap, flags
    exactly the violating images, each checked whole by `satisfies_spec`
    for the reported violation.  The violations are sorted by source word.
    """
    width = morphism.uniform_width
    if not width:
        raise ValueError("bounded case needs a uniform morphism with"
                         " nonempty images")
    if root_cap < 0:
        raise ValueError("root_cap must be >= 0")
    max_len = (2 * root_cap) // width + 2
    counts = [0] * (max_len + 1)
    violations: list[tuple[bytes, Violation]] = []
    letters = classes or tuple(range(morphism.source_size))
    image = (morphism.table, ColumnStep(target, max_len * width, root_cap))
    for words, failed in walk_legal(source, max_len, classes=letters,
                                    image=image):
        counts[words.shape[1]] += len(words)
        for word in failed:
            counts[len(word)] += 1
            found = satisfies_spec(morphism.apply(word.tobytes()), target,
                                   max_root=root_cap).violation
            if found is None:
                raise AssertionError("the target step flagged the clean"
                                     f" image of {word.tobytes()!r}")
            violations.append((word.tobytes(), found))
    counts[0] = 0  # the empty word's image holds nothing to check
    violations.sort(key=lambda item: item[0])
    return BoundedCaseReport(max_len, sum(counts), tuple(counts),
                             tuple(violations))


class TransferCertificate(Record):
    """Everything checked while verifying one transfer statement."""

    name: str
    width: int
    depth: int
    root_cap: int
    scope: str
    source: AvoidanceSpec
    target: AvoidanceSpec
    classes: tuple[int, ...] | None
    bounded: BoundedCaseReport
    inclusions: tuple[tuple[InclusionWitness, Refutation], ...]
    interchanges: tuple[tuple[InterchangeWitness, Refutation], ...]
    gap_evidence: tuple[GapEvidence, ...]

    @property
    def residual(self) -> tuple[str, ...]:
        """What is left open: roots above the cap, bounded-case violations,
        then every row that is not refuted."""
        cap, full = self.root_cap, 2 * self.width
        return (*([f"root cap {cap} is below 2W = {full}:"
                   f" roots {cap + 1}..{full} unchecked"] if cap < full else []),
                *(f"bounded case: image of {word_to_text(w)} has"
                  f" {v.describe()}" for w, v in self.bounded.violations),
                *(f"inclusion ({w.a},{w.b})->{w.c}@{w.offset} unresolved"
                  for w, r in self.inclusions if not r.ok),
                *(f"interchange ({w.a},{w.b},{w.c}) unresolved"
                  for w, r in self.interchanges if not r.ok))

    @property
    def complete(self) -> bool:
        return not self.residual

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "source": format_spec(self.source),
            "target": format_spec(self.target),
            "bounded": self.bounded.to_dict(),
            "inclusions": [{"witness": w.to_dict(), **r.to_dict()}
                           for w, r in self.inclusions],
            "interchanges": [{"witness": w.to_dict(), **r.to_dict()}
                             for w, r in self.interchanges],
            "gap_evidence": [e.to_dict() for e in self.gap_evidence],
            "residual": list(self.residual),
            "complete": self.complete,
        }


def verify_square_transfer(morphism: Morphism | Substitution,
                           source: AvoidanceSpec, target: AvoidanceSpec,
                           depth: int = 2, root_cap: int | None = None,
                           fixed_point: FixedPoint | None = None,
                           name: str = "") -> TransferCertificate:
    """Verify that images of source-legal words satisfy the target spec.

    A substitution is verified by flattening alternate images to fresh
    letters that share their original letter's legality class (see
    `Substitution.to_annotated`).  The root cap defaults to 2W; a smaller one
    cannot give a complete certificate, because the roots between it and 2W
    are checked nowhere.  With `fixed_point`, the scope is its source-legal
    factors: every channel asks its spec (`_fixed_point_spec`).  An inclusion
    on a pair the source forbids threatens nothing, so its row is dropped.
    """
    classes = None
    if isinstance(morphism, Substitution):
        morphism, classes = morphism.to_annotated()
    width = morphism.uniform_width
    if width is None:
        raise ValueError("transfer verification needs a uniform morphism")
    if not morphism.injective_on_letters:
        raise ValueError("transfer verification needs distinct images")
    letters = max(classes) + 1 if classes else morphism.source_size
    if source.alphabet_size > letters:
        raise ValueError(f"the source spec has {source.alphabet_size} letters"
                         f" but only {letters} have an image")
    cap = 2 * width if root_cap is None else root_cap
    spec, scope = source, "spec"
    if fixed_point is not None:
        spec, scope = _fixed_point_spec(source, fixed_point, min(
            _SCOPE_LENGTH, max(3, 2 * cap // width + 2))), "fixed-point"
    bounded = bounded_case_check(morphism, spec, target, cap, classes)
    inclusions = tuple(
        (w, r) for w in find_inclusions(morphism)
        if (r := refute_inclusion(morphism, w, spec, depth, classes)).method
        != "pair-illegal")
    cls = classes or tuple(range(morphism.source_size))
    interchanges = [(w, GapPattern(cls[w.b], cls[w.c], cls[w.a]))
                    for w in find_interchanges(morphism, classes)]
    patterns = sorted({p for _, p in interchanges}, key=GapPattern.letters)
    evidence = {p: prove_gap_pattern_absence(p, spec, fixed_point)
                for p in patterns}
    return TransferCertificate(
        name=name, width=width, depth=depth, root_cap=cap, scope=scope,
        source=source, target=target, classes=classes,
        bounded=bounded, inclusions=inclusions,
        interchanges=tuple((w, refute_interchange(evidence[p]))
                           for w, p in interchanges),
        gap_evidence=tuple(evidence[p] for p in patterns))
