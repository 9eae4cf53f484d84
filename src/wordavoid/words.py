"""Square, cube, and gap scanning over words stored as bytes of small letters.

A word is a ``bytes`` object whose values are letters 0, 1, 2, ... of a small
alphabet.  Every scanner reads one stream, ``_repeats``: for each shift d,
the maximal runs (left, right) of word[j] == word[j+d] with right - left >=
span(d), whose starts j with word[j:j+span(d)] == word[j+d:j+d+span(d)] are
left..right-span(d).  Span d gives squares of root d, span 2d cubes, and span
d-1 the repeated gap of a gap pattern.  A byte search covers small shifts and
an anchored block search large ones, so scanning a clean word of length n
costs roughly n log n byte operations.  First-hit checks read the first run of
each shift, gap patterns the run ends, and full scans every start.
`gap_occurrences` answers any number of gap patterns from one stream.
Worst-case output size is quadratic on highly repetitive input, which the
intended avoidance words never are.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

# Shifts up to this bound are swept directly; larger shifts go through the
# anchored block search, which extends runs in doubling chunks from _CHUNK.
_SWEEP_CUT = 128
_CHUNK = 256


class ParseError(ValueError):
    """Raised when a word, morphism, or spec text is malformed."""


def word_from_text(text: str) -> bytes:
    """Parse a word written as decimal digits.  Whitespace is ignored."""
    out = bytearray()
    for ch in text:
        if ch.isspace():
            continue
        if not "0" <= ch <= "9":
            raise ParseError(f"bad letter {ch!r} in word")
        out.append(int(ch))
    return bytes(out)


def word_to_text(word: bytes) -> str:
    return "".join(str(b) for b in word)


def perfect_shuffle(even: bytes, odd: bytes) -> bytes:
    """Interleave two equal-length words, `even` supplying position 0."""
    if len(even) != len(odd):
        raise ValueError("perfect shuffle needs words of equal length")
    out = bytearray(2 * len(even))
    out[0::2] = even
    out[1::2] = odd
    return bytes(out)


def contains_factor(word: bytes, factor: bytes) -> bool:
    return word.find(factor) != -1


def _extend_left(arr: np.ndarray, shift: int, left: int) -> int:
    c = _CHUNK
    while left > 0:
        c = min(c, left)
        bad = np.nonzero(arr[left - c:left] != arr[left - c + shift:left + shift])[0]
        if bad.size:
            return left - c + int(bad[-1]) + 1
        left -= c
        c *= 2
    return left


def _extend_right(arr: np.ndarray, shift: int, right: int) -> int:
    limit = arr.size - shift
    c = _CHUNK
    while right < limit:
        c = min(c, limit - right)
        bad = np.nonzero(arr[right:right + c] != arr[right + shift:right + shift + c])[0]
        if bad.size:
            return right + int(bad[0])
        right += c
        c *= 2
    return right


def _long_runs(arr, word, lo, hi, need) -> dict[int, list[tuple[int, int]]]:
    """Maximal equal runs {shift: [(left, right), ...]} with lo <= shift <= hi
    and right - left >= need(shift), each list from left to right.

    Completeness relies on any window of length >= 2*(lo//2) - 1 containing a
    block that starts on a multiple of lo//2, so need(shift) must be at least
    lo - 1.  Anchors reach a shift's runs from left to right, so an occurrence
    left of the last run's right end lies in that run and is not extended.
    """
    n = len(word)
    s = lo // 2
    runs = {}
    if s == 0 or n < lo + s:
        return runs
    reach: dict[int, int] = {}  # shift -> right end of its last run found
    for js in range(lo + -lo % s, n - s + 1, s):
        pat = word[js:js + s]
        wlo = max(0, js - hi)
        whi = js - lo + s
        pos = word.find(pat, wlo, whi)
        while pos != -1:
            shift = js - pos
            if pos >= reach.get(shift, 0):
                left = _extend_left(arr, shift, pos)
                right = _extend_right(arr, shift, pos + s)
                reach[shift] = right
                if right - left >= need(shift):
                    runs.setdefault(shift, []).append((left, right))
            pos = word.find(pat, pos + 1, whi)
    return runs


def _mask_runs(eq: bytes, probe: bytes, left: int):
    """Maximal runs of 1 bytes in eq at least len(probe) long, from the one
    at left, which must be the first."""
    while left != -1:
        right = eq.find(b"\0", left + len(probe))
        yield left, len(eq) if right == -1 else right
        left = -1 if right == -1 else eq.find(probe, right)


def _repeats(word: bytes, lo: int, hi: int, span):
    """Yield (d, runs) for each shift d in lo..hi, ascending, with a repeat.

    runs iterates, left to right, the maximal (left, right) with
    word[j] == word[j+d] for j in left..right-1 and right - left >= span(d),
    where span(d) >= 1.  Runs of shifts up to _SWEEP_CUT come lazily from a
    byte search over the equality mask, so a clean shift costs one compare
    and one skipping search; the anchored block search finds the runs of
    larger shifts when span(d) >= d - 1 (see _long_runs).
    """
    if lo < 1:
        raise ValueError("min_root must be >= 1")
    arr = np.frombuffer(word, dtype=np.uint8)
    for d in range(lo, min(hi, _SWEEP_CUT) + 1):
        eq = (arr[:-d] == arr[d:]).tobytes()
        probe = b"\1" * span(d)
        left = eq.find(probe)
        if left != -1:
            yield d, _mask_runs(eq, probe, left)
    clo = max(lo, _SWEEP_CUT + 1)
    while clo <= hi:  # doubling shift classes [clo, 2clo) for the block search
        yield from sorted(_long_runs(arr, word, clo, min(2 * clo - 1, hi),
                                     span).items())
        clo *= 2


def _first_repeat(word: bytes, lo: int, hi: int, power: int,
                  allowed: frozenset = frozenset()) -> tuple[int, int] | None:
    """Least (start, root) of a power-th power with root in lo..hi that is not
    an allowed word, or None.  In a run of shift d the power at p + d is the
    one at p, so at most d starts a run are compared with the allowed words.
    """
    hits = []
    for d, runs in _repeats(word, lo, hi, lambda d: (power - 1) * d):
        size = power * d
        hits += islice(((p, d) for left, right in runs
                        for p in range(left, min(left + d, right + d - size + 1))
                        if word[p:p + size] not in allowed), 1)
    return min(hits, default=None)


def _top(n: int, power: int, *caps: int | None) -> int:
    """Largest root a power-th power can have in n letters, within the caps."""
    return min([n // power, *(c for c in caps if c is not None)])


def _occurrences(word: bytes, lo: int, hi: int, power: int) -> list[tuple[int, int]]:
    return sorted((p, d) for d, runs in _repeats(word, lo, hi, lambda d: (power - 1) * d)
                  for left, right in runs
                  for p in range(left, right + d - power * d + 1))


def find_squares(word: bytes, min_root: int = 1, max_root: int | None = None) -> list[tuple[int, int]]:
    """All square occurrences as (position, root length), sorted.

    A square of root d at position p means word[p:p+d] == word[p+d:p+2d].
    """
    return _occurrences(word, min_root, _top(len(word), 2, max_root), 2)


def find_cubes(word: bytes, min_root: int = 1, max_root: int | None = None) -> list[tuple[int, int]]:
    """All cube occurrences as (position, root length), sorted."""
    return _occurrences(word, min_root, _top(len(word), 3, max_root), 3)


def find_square_at_least(word: bytes, min_root: int) -> tuple[int, int] | None:
    """First (position, root) square with root >= min_root, or None."""
    return _first_repeat(word, min_root, _top(len(word), 2), 2)


def find_cube_at_least(word: bytes, min_root: int = 1) -> tuple[int, int] | None:
    return _first_repeat(word, min_root, _top(len(word), 3), 3)


def max_square_root(word: bytes) -> int:
    """Largest root length of any square in the word, 0 if square free."""
    return max((d for d, _ in _repeats(word, 1, len(word) // 2, lambda d: d)),
               default=0)


@dataclass(frozen=True)
class GapPattern:
    """Letters flanking a repeated gap: first + alpha + middle + alpha + last."""

    first: int
    middle: int
    last: int

    def word(self, alpha: bytes) -> bytes:
        return bytes([self.first]) + alpha + bytes([self.middle]) + alpha + bytes([self.last])

    def letters(self) -> tuple[int, int, int]:
        return (self.first, self.middle, self.last)


def gap_occurrences(word: bytes, patterns
                    ) -> dict[GapPattern, list[tuple[int, int]]]:
    """For each pattern, the occurrences of pattern.word(alpha) as sorted
    (position, len(alpha)) pairs, all from one sweep of the word.

    The gap may be empty; position is where the first letter sits.
    """
    out = {pattern: [] for pattern in patterns}
    gmax = (len(word) - 3) // 2
    if gmax < 0 or not out:
        return out
    arr = np.frombuffer(word, dtype=np.uint8)
    every = any(p.first == p.middle == p.last for p in out)

    def flank(d: int, starts: np.ndarray) -> None:
        first, middle, last = arr[starts], arr[starts + d], arr[starts + 2 * d]
        for pattern, occ in out.items():
            ok = ((first == pattern.first) & (middle == pattern.middle)
                  & (last == pattern.last))
            occ.extend((i, d - 1) for i in starts[ok].tolist())

    # Gap 0 is shift 1 from every position.  A gap g >= 1 at position i is a
    # repeat of span g and shift g + 1 that starts at i + 1; in word[1:-1] it
    # starts at i and fits whole patterns.  A start past its run's left end
    # has first == middle and one short of its right end middle == last, so
    # unless a pattern is a,a,a only the starts at the run ends are read.
    flank(1, np.arange(len(word) - 2))
    for d, runs in _repeats(word[1:-1], 2, gmax + 1, lambda d: d - 1):
        flank(d, np.array([j for left, right in runs
                           for j in (range(left, right - d + 2) if every
                                     else {left, right - d + 1})]))
    for occ in out.values():
        occ.sort()
    return out


def find_gap_occurrences(word: bytes, pattern: GapPattern) -> list[tuple[int, int]]:
    """Occurrences of pattern.word(alpha) as (position, len(alpha)), sorted."""
    return gap_occurrences(word, (pattern,))[pattern]


def contains_gap_pattern(word: bytes, pattern: GapPattern) -> bool:
    return bool(find_gap_occurrences(word, pattern))


def scan_forbidden(word: bytes, forbidden) -> tuple[int, bytes] | None:
    """Leftmost occurrence of any forbidden factor, ties to the shortest."""
    hits = [(p, len(f), f) for f in forbidden if (p := word.find(f)) != -1]
    if not hits:
        return None
    p, _, f = min(hits)
    return p, f


@dataclass(frozen=True)
class Violation:
    """One reason a word fails a spec."""

    kind: str                  # "letter" | "forbidden" | "square" | "cube"
    position: int
    factor: bytes
    root_length: int | None = None

    def describe(self) -> str:
        if self.kind in ("square", "cube"):
            return (f"{self.kind} of root {self.root_length} at {self.position}: "
                    f"{word_to_text(self.factor)}")
        return f"{self.kind} at {self.position}: {word_to_text(self.factor)}"


@dataclass(frozen=True)
class SpecCheck:
    ok: bool
    violation: Violation | None = None


@dataclass(frozen=True)
class AvoidanceSpec:
    """What a word must avoid.

    square_min_root forbids squares whose root is at least that long;
    square_whitelist instead allows only the listed squares and forbids every
    other square.  The two square policies are mutually exclusive.
    """

    alphabet_size: int
    forbidden: tuple[bytes, ...] = ()
    square_min_root: int | None = None
    square_whitelist: tuple[bytes, ...] | None = None
    cubefree: bool = False

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        if self.square_min_root is not None and self.square_whitelist is not None:
            raise ValueError("choose one square policy")
        if self.square_min_root is not None and self.square_min_root < 1:
            raise ValueError("square_min_root must be >= 1")
        for w in self.square_whitelist or ():
            h = len(w) // 2
            if len(w) == 0 or len(w) % 2 or w[:h] != w[h:]:
                raise ValueError(f"whitelist entry {word_to_text(w)} is not a square")

    @cached_property
    def repetition_rules(self) -> tuple[tuple[str, int, int, int | None, frozenset], ...]:
        """(kind, power, least root, greatest root or None, allowed words) of
        each forbidden repetition, in the order violations are reported.  A
        cube of root d begins with a square of root d, so cubes stop at the
        longest root that has an allowed square."""
        rules, cube_top = [], None
        if self.square_min_root is not None:
            rules.append(("square", 2, self.square_min_root, None, frozenset()))
            cube_top = self.square_min_root - 1
        elif self.square_whitelist is not None:
            rules.append(("square", 2, 1, None, frozenset(self.square_whitelist)))
            cube_top = max((len(w) // 2 for w in self.square_whitelist), default=0)
        if self.cubefree:
            rules.append(("cube", 3, 1, cube_top, frozenset()))
        return tuple(rules)


def satisfies_spec(word: bytes, spec: AvoidanceSpec,
                   max_root: int | None = None) -> SpecCheck:
    """Check a whole word against a spec, reporting the first violation.

    Checks run in a fixed order (letters, forbidden factors, then the spec's
    repetition rules) and each reports its leftmost, then smallest,
    occurrence.  With max_root set, squares and cubes whose root is longer
    are not reported; letters and forbidden factors are always checked.
    """
    if word:
        arr = np.frombuffer(word, dtype=np.uint8)
        if int(arr.max()) >= spec.alphabet_size:
            p = int(np.argmax(arr >= spec.alphabet_size))
            return SpecCheck(False, Violation("letter", p, word[p:p + 1]))
    hit = scan_forbidden(word, spec.forbidden)
    if hit is not None:
        return SpecCheck(False, Violation("forbidden", hit[0], hit[1]))
    for kind, power, lo, hi, allowed in spec.repetition_rules:
        hit = _first_repeat(word, lo, _top(len(word), power, hi, max_root), power, allowed)
        if hit is not None:
            p, d = hit
            return SpecCheck(False, Violation(kind, p, word[p:p + power * d], d))
    return SpecCheck(True, None)


def _starts(rows: np.ndarray, factor: bytes, first: int,
            last: int) -> np.ndarray:
    """hit[i, p - first] says whether row i holds `factor` at column p, for
    p in first..last."""
    hit = np.ones((len(rows), last - first + 1), dtype=bool)
    for i, letter in enumerate(factor):
        hit &= rows[:, first + i:last + i + 1] == letter
    return hit


def suffix_screen(rows: np.ndarray, spec: AvoidanceSpec, new: int | None = None,
                  max_root: int | None = None) -> np.ndarray:
    """Flag the rows of a 2-D uint8 array of words that break the spec with
    a violation ending at column `new` (default: the last column) or later.

    A violation is a letter outside the alphabet, a forbidden factor, or a
    power of a repetition rule that is not an allowed word, with root at most
    max_root when it is set.  Each factor, and each rule and root, takes one
    array compare over the windows that end at `new` or later.  When every
    row's prefix before column `new` satisfies the spec, a row is flagged
    exactly when the whole row breaks it.
    """
    count, n = rows.shape
    new = n - 1 if new is None else new
    flagged = (rows[:, new:] >= spec.alphabet_size).any(axis=1)
    for factor in spec.forbidden:
        first, last = max(0, new - len(factor) + 1), n - len(factor)
        if first <= last:
            flagged |= _starts(rows, factor, first, last).any(axis=1)
    for _, power, lo, hi, allowed in spec.repetition_rules:
        for d in range(lo, _top(n, power, hi, max_root) + 1):
            # A power of root d at p repeats for (power-1)·d letters from p
            # and ends at p + power·d - 1, so p runs from first to last.
            span = (power - 1) * d
            first, last = max(0, new - power * d + 1), n - power * d
            equal = rows[:, first:n - d] == rows[:, first + d:]
            if first == last:  # one window, as in the walker
                hit = equal.all(axis=1, keepdims=True)
            else:
                sums = np.zeros((count, equal.shape[1] + 1), dtype=np.int32)
                np.cumsum(equal, axis=1, dtype=np.int32, out=sums[:, 1:])
                hit = sums[:, span:] - sums[:, :-span] == span
            for word in allowed:
                if len(word) == power * d:
                    hit &= ~_starts(rows, word, first, last)
            flagged |= hit.any(axis=1)
    return flagged


def suffix_legal(word: bytes, spec: AvoidanceSpec) -> bool:
    """Check only the constraints that end at the last letter.

    Sound for incremental search: if every proper prefix passed this check,
    the word satisfies the spec exactly when this check passes.  It is the
    one-row case of `suffix_screen`.
    """
    row = np.frombuffer(word, dtype=np.uint8).reshape(1, len(word))
    return not suffix_screen(row, spec)[0]


def parse_spec(text: str) -> AvoidanceSpec:
    """Read a spec from its text form.

    Lines are `alphabet N`, `squares min-root N | whitelist W... | all-forbidden
    | any`, `cubes forbidden | any`, and `forbid W...`; # starts a comment.
    """
    alphabet = None
    forbidden: list[bytes] = []
    min_root = None
    whitelist = None
    cubefree = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        key, args = fields[0], fields[1:]
        try:
            if key == "alphabet":
                alphabet = int(args[0])
            elif key == "squares":
                if args[0] == "min-root":
                    min_root = int(args[1])
                elif args[0] == "all-forbidden":
                    min_root = 1
                elif args[0] == "whitelist":
                    whitelist = tuple(word_from_text(a) for a in args[1:])
                elif args[0] != "any":
                    raise ParseError(f"unknown square policy {args[0]!r}")
            elif key == "cubes":
                if args[0] == "forbidden":
                    cubefree = True
                elif args[0] != "any":
                    raise ParseError(f"unknown cube policy {args[0]!r}")
            elif key == "forbid":
                forbidden.extend(word_from_text(a) for a in args)
            else:
                raise ParseError(f"unknown key {key!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise ParseError(f"line {lineno}: {exc}") from None
            raise ParseError(f"line {lineno}: cannot parse {line!r}") from None
    if alphabet is None:
        raise ParseError("spec is missing an alphabet line")
    try:
        return AvoidanceSpec(alphabet_size=alphabet, forbidden=tuple(forbidden),
                             square_min_root=min_root,
                             square_whitelist=whitelist, cubefree=cubefree)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_spec(spec: AvoidanceSpec) -> str:
    lines = [f"alphabet {spec.alphabet_size}"]
    if spec.square_min_root is not None:
        lines.append(f"squares min-root {spec.square_min_root}")
    if spec.square_whitelist is not None:
        entries = " ".join(word_to_text(w) for w in spec.square_whitelist)
        lines.append(f"squares whitelist {entries}")
    if spec.cubefree:
        lines.append("cubes forbidden")
    if spec.forbidden:
        lines.append("forbid " + " ".join(word_to_text(f) for f in spec.forbidden))
    return "\n".join(lines) + "\n"
