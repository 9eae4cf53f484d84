"""Transfer verification for uniform morphisms.

Proves statements of the form "if a word satisfies the source spec, its image
satisfies the target spec" by splitting any would-be violation by its root:

* roots below the synchronization delay D (`sync_delay`), and forbidden
  factors, lie inside the image of a bounded source word, which the shared
  legal-word walker enumerates with its image's runs (the bounded case, up
  to the root cap max(2W, D - 1));
* a square of root D or more pulls back to a square of the source word or
  to an interchange, where two images share a prefix/suffix splitting of a
  third, refuted by proving a three-letter gap pattern absent from the
  source language (see `verify_square_transfer`).

Inclusions, where one image sits inside the image of a pair, only show that
D > W: `find_inclusions` and `refute_inclusion` list them, and no
certificate reads them.

Every question of the form "can this short word occur?" goes to one oracle,
`_forbids`.  A fixed point enters as a spec that forbids its short
non-factors too; only block descent reads it itself, by its exact factors.

A `TransferCertificate` holds D, the bounded case and the interchange rows
with their refutations; it is complete when its residual, read off those,
is empty.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .counting import walk_legal
from .morphisms import Morphism, Substitution
from .words import (AvoidanceSpec, ColumnStep, GapPattern, Record,
                    Violation, satisfies_spec, word_to_text)

FixedPoint = tuple[Morphism, int]

# Gap-pattern evidence: block descent checks gaps below this many letters
# against the exact factors, and the exhaustive search walks gaps up to this
# many letters.
_DESCENT_BASE = 12
_EXHAUST_GAP = 8
# The synchronization delay is sought up to this many widths, over words of
# at most one block more.
_SYNC_BLOCKS = 8
# A fixed point's spec forbids non-factors of at most this many letters, the
# longest factors block descent reads below width 14.  A longer bounded case
# walks a superset of the factors, which is sound.
_SCOPE_LENGTH = 25
# The bounded case stops once it has walked this many source words; the
# largest packaged walk is 15,862.
_BOUNDED_WORDS = 100_000


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


class Refutation(Record):
    method: str
    detail: str

    @property
    def ok(self) -> bool:
        return self.method != "open"


class GapEvidence(Record):
    """Why a pattern first..middle..last with equal gaps cannot occur.

    kind is one of follower, descent, exhaustive; only complete evidence
    makes a certificate complete.
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
# Inclusions and the synchronization delay.

def refute_inclusion(morphism: Morphism, witness: InclusionWitness,
                     source: AvoidanceSpec,
                     classes: tuple[int, ...] | None = None) -> Refutation:
    """Refute one inclusion from the pair itself and its two affixes: the
    source forbids the pair, or an affix extends to no image.  Otherwise
    the row is open; no certificate rests on it (see
    `verify_square_transfer`)."""
    t, u = witness.t, witness.u
    reason = _forbids(source, bytes([witness.a, witness.b]), classes)
    if reason is not None:
        return Refutation("pair-illegal", f"source forbids {reason}")
    if not any(image.startswith(u) for image in morphism.images):
        return Refutation("no-right-extension",
                          f"{word_to_text(u)} is not a prefix of any image")
    if not any(image.endswith(t) for image in morphism.images):
        return Refutation("no-left-extension",
                          f"{word_to_text(t)} is not a suffix of any image")
    return Refutation("open", "both affixes extend to images")


def _checked_width(morphism: Morphism, source: AvoidanceSpec,
                   classes: tuple[int, ...] | None) -> int:
    """The width of a uniform morphism with nonempty images whose letters,
    or their classes, cover the source alphabet; ValueError otherwise."""
    width = morphism.uniform_width
    if not width:
        raise ValueError("the verifier needs a uniform morphism with"
                         " nonempty images")
    covered = set(classes or range(morphism.source_size)).intersection(
        range(source.alphabet_size))
    if len(covered) < source.alphabet_size:
        raise ValueError(f"the source spec has {source.alphabet_size} letters"
                         f" but only {len(covered)} have an image")
    return width


def sync_delay(morphism: Morphism, spec: AvoidanceSpec,
               classes: tuple[int, ...] | None = None) -> int | None:
    """The synchronization delay D: the least length such that every factor
    of D letters of an image h(w), w legal, starts at only one position mod
    W; None above 8W.  D - 1 is the longest factor with two phases, since
    a factor's extensions keep its phase.  Level n sorts the windows of
    (n - 1)W letters at each phase of the images of the legal words of n
    letters, and of n - 1 letters padded with a block no image holds.  The
    longest common prefix of two windows of different phases is that of
    some adjacent such pair; once the longest over all levels is shorter
    than (n - 1)W, it is D - 1."""
    width = _checked_width(morphism, spec, classes)
    pad = np.full((1, width), morphism.target_size, np.uint16)
    images = np.concatenate([morphism.table, pad])
    level = np.zeros((1, 0), np.uint8)  # the empty word
    longest = 0
    for n in range(1, _SYNC_BLOCKS + 2):
        padded = np.column_stack([level, np.full(len(level), len(images) - 1)])
        grown = [words for words, _ in walk_legal(spec, n, level, classes)
                 if words.shape[1] == n] if len(level) else []
        level = np.concatenate(grown) if grown else padded[:0]
        span = (n - 1) * width
        if not span:
            continue
        blocks = images[np.concatenate([level, padded])].reshape(
            len(level) + len(padded), n * width)
        windows = np.concatenate([blocks[:, i:i + span] for i in range(width)])
        phases = np.arange(width).repeat(len(blocks))
        order = np.argsort(np.ascontiguousarray(windows).view(
            f"V{windows.itemsize * span}").ravel())
        windows, phases = windows[order], phases[order]
        pairs = phases[1:] != phases[:-1]
        differ = windows[1:][pairs] != windows[:-1][pairs]
        common = np.where(differ.any(axis=1), differ.argmax(axis=1), span)
        longest = max(longest, int(common.max(initial=0)))
        if longest < span:
            return longest + 1
    return None


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
    point's exact factors, and a bounded exhaustive search, which is
    complete only when every branch dies early.  The other rungs ask only
    the spec: a fixed point's spec (`_fixed_point_spec`) makes them speak
    of its factors.
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
    return GapEvidence(pattern, "exhaustive", False,
                       f"only gaps <= {_EXHAUST_GAP} checked")


def refute_interchange(evidence: GapEvidence) -> Refutation:
    """An interchange forces its gap pattern b..c..a in the source word, so
    a proof that the pattern is absent refutes it; incomplete evidence
    leaves it open, and the row says which evidence that was."""
    pattern = evidence.pattern.text()
    if evidence.complete:
        return Refutation("gap-pattern-absent",
                          f"pattern {pattern} ruled out by {evidence.kind}")
    return Refutation("open", f"pattern {pattern} not ruled out:"
                              f" {evidence.kind}, {evidence.detail}")


# ---------------------------------------------------------------------------
# Bounded case and certificates.

def _bounded_length(width: int, root_cap: int, target: AvoidanceSpec) -> int:
    """The most source letters whose image a target violation of root at
    most root_cap needs: a square, a cube up to the longest root the target
    checks cubes at, or the longest forbidden factor.  A factor of f letters
    from any phase needs ceil((f - 1)/W) + 1 blocks."""
    cube = max((root_cap if top is None else min(root_cap, top)
                for kind, _, _, top, _ in target.repetition_rules
                if kind == "cube"), default=0)
    longest = max(3 * cube, *map(len, target.forbidden), 1)
    return max((2 * root_cap) // width + 2, -(-(longest - 1) // width) + 1)


def bounded_case_check(morphism: Morphism, source: AvoidanceSpec,
                       target: AvoidanceSpec, root_cap: int,
                       classes: tuple[int, ...] | None = None
                       ) -> BoundedCaseReport:
    """Check images of every legal source word long enough to contain any
    target violation of root at most root_cap.

    Longer roots are what the synchronization-delay argument covers (see
    `verify_square_transfer`), so they are not reported here; letters and
    forbidden factors are checked in full, however long.  An image
    violation survives every extension, so a word whose image violates is
    reported and its extensions are not visited.  The walk stops once it
    has checked `_BOUNDED_WORDS` source words, and the certificate's
    residual then names that budget.

    The source words come from the legal-word walker, which carries their
    images' runs too.  A word's parent has a clean image, which is a prefix
    of the word's image, so a violation can only end in the last block: one
    target `ColumnStep` of that block, roots capped at root_cap, flags
    exactly the violating images, each checked whole by `satisfies_spec`
    for the reported violation.  The violations are sorted by source word.
    """
    width = _checked_width(morphism, source, classes)
    if root_cap < 0:
        raise ValueError("root_cap must be >= 0")
    max_len = _bounded_length(width, root_cap, target)
    counts = [0] * (max_len + 1)
    violations: list[tuple[bytes, Violation]] = []
    image = (morphism.table, ColumnStep(target, max_len * width, root_cap))
    for words, failed in walk_legal(source, max_len, classes=classes,
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
        if sum(counts[1:]) >= _BOUNDED_WORDS:
            break
    counts[0] = 0  # the empty word's image holds nothing to check
    violations.sort(key=lambda item: item[0])
    return BoundedCaseReport(max_len, sum(counts), tuple(counts),
                             tuple(violations))


def _allows_squares_from(spec: AvoidanceSpec, root: int) -> bool:
    """Whether the spec's square rule allows a square of root >= `root`."""
    return all(kind != "square" or lo > root
               or any(len(square) >= 2 * root for square in allowed)
               for kind, _, lo, _, allowed in spec.repetition_rules)


class TransferCertificate(Record):
    """Everything checked while verifying one transfer statement."""

    name: str
    width: int
    sync_delay: int | None
    root_cap: int
    scope: str
    source: AvoidanceSpec
    target: AvoidanceSpec
    classes: tuple[int, ...] | None
    bounded: BoundedCaseReport
    interchanges: tuple[tuple[InterchangeWitness, Refutation], ...]
    gap_evidence: tuple[GapEvidence, ...]

    @property
    def residual(self) -> tuple[str, ...]:
        """What is left open: a long-root argument that does not apply (no
        delay D, a cap below max(2W, D - 1), or a scope that allows squares
        of root ceil(D/W) or more), a bounded case stopped at its budget of
        source words, bounded-case violations, then every interchange row
        that is not refuted."""
        width, delay, cap = self.width, self.sync_delay, self.root_cap
        if delay is None:
            argument = [f"no synchronization delay up to 8W ="
                        f" {_SYNC_BLOCKS * width}: roots above {cap}"
                        f" unchecked"]
        else:
            top, least = max(2 * width, delay - 1), -(-delay // width)
            argument = [f"root cap {cap} is below max(2W, D - 1) = {top}:"
                        f" roots {cap + 1}..{top} unchecked"
                        ] if cap < top else []
            if _allows_squares_from(self.source, least):
                argument.append(f"scope allows squares of root {least} or"
                                f" more")
        if self.bounded.words_checked >= _BOUNDED_WORDS:
            argument.append(f"bounded case stopped at its budget of"
                            f" {_BOUNDED_WORDS} source words")
        return (*argument,
                *(f"bounded case: image of {word_to_text(w)} has"
                  f" {v.describe()}" for w, v in self.bounded.violations),
                *(f"interchange ({w.a},{w.b},{w.c}) unresolved"
                  for w, r in self.interchanges if not r.ok))

    @property
    def complete(self) -> bool:
        return not self.residual

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "interchanges": [{"witness": w.to_dict(), **r.to_dict()}
                             for w, r in self.interchanges],
            "residual": list(self.residual),
            "complete": self.complete,
        }


def verify_square_transfer(morphism: Morphism | Substitution,
                           source: AvoidanceSpec, target: AvoidanceSpec,
                           root_cap: int | None = None,
                           fixed_point: FixedPoint | None = None,
                           name: str = "") -> TransferCertificate:
    """Verify that images of source-legal words satisfy the target spec.

    Roots below the synchronization delay D (`sync_delay`) go to the bounded
    case, at the root cap max(2W, D - 1) by default; a smaller cap leaves
    the roots above it open.  Longer roots need no enumeration:

    Take a square uu in h(w), w in scope, with root r >= D.  Both copies of
    u have the one phase of u, so W divides r; write r = kW and call the
    phase i.  h is uniform and injective on letters, so the whole blocks of
    the two copies agree, and w holds a z b z c with |z| = k - 1.  If
    i = 0, then a = b and w holds the square (a z)(a z).  If i > 0, then
    h(b) = h(c)[:i] + h(a)[i:].  With a = b or b = c, w holds a square of
    root k (a = c would make h(b) = h(a)).  Otherwise this is the
    interchange row (c, a, b) of `find_interchanges`, and w holds its gap
    pattern a..b..c with gap k - 1.  So no image holds a square, nor a
    cube, of root D or more when the scope forbids squares of root
    ceil(D/W) or more and every interchange pattern is ruled out; the
    residual names whichever of these fails, and the cap stays 2W by
    default where one does.  With letter classes the same holds of the
    class word, which the source spec constrains.  Inclusion rows take no
    part: an inclusion only shows that D > W.

    A substitution is verified by flattening alternate images to fresh
    letters that share their original letter's legality class (see
    `Substitution.to_annotated`).  With `fixed_point`, the scope is its
    source-legal factors: every channel asks its spec (`_fixed_point_spec`),
    which forbids its non-factors as long as the delay's walk and the
    bounded case read.
    """
    classes = None
    if isinstance(morphism, Substitution):
        morphism, classes = morphism.to_annotated()
    width = _checked_width(morphism, source, classes)
    if not morphism.injective_on_letters:
        raise ValueError("transfer verification needs distinct images")
    spec, scope, walked = source, "spec", _SYNC_BLOCKS + 1
    if fixed_point is not None:
        spec, scope = (_fixed_point_spec(source, fixed_point, walked),
                       "fixed-point")
    delay = sync_delay(morphism, spec, classes)
    cap = root_cap
    if cap is None:  # a cap past 2W pays only where the argument can close
        cap = 2 * width if delay is None or _allows_squares_from(
            source, -(-delay // width)) else max(2 * width, delay - 1)
    length = _bounded_length(width, cap, target)
    if fixed_point is not None and length > walked:
        spec = _fixed_point_spec(source, fixed_point,
                                 min(_SCOPE_LENGTH, length))
    bounded = bounded_case_check(morphism, spec, target, cap, classes)
    cls = classes or tuple(range(morphism.source_size))
    interchanges = [(w, GapPattern(cls[w.b], cls[w.c], cls[w.a]))
                    for w in find_interchanges(morphism, classes)]
    patterns = sorted({p for _, p in interchanges}, key=GapPattern.letters)
    evidence = {p: prove_gap_pattern_absence(p, spec, fixed_point)
                for p in patterns}
    return TransferCertificate(
        name=name, width=width, sync_delay=delay, root_cap=cap, scope=scope,
        source=source, target=target, classes=classes, bounded=bounded,
        interchanges=tuple((w, refute_interchange(evidence[p]))
                           for w, p in interchanges),
        gap_evidence=tuple(evidence[p] for p in patterns))
