"""Square, cube, and gap scanning over words stored as bytes of small letters.

A word is a ``bytes`` object whose values are letters 0, 1, 2, ... of a small
alphabet.  Every scanner reads one stream, ``_repeats``: for each shift d,
the maximal runs (left, right) of word[j] == word[j+d] with right - left >=
span(d), whose starts j with word[j:j+span(d)] == word[j+d:j+d+span(d)] are
left..right-span(d).  Span d gives squares of root d, span 2d cubes, and span
d-1 the repeated gap of a gap pattern.  A byte search covers small shifts and
an anchored block search large ones, so scanning a clean word of length n
costs roughly n log n byte operations.  Both read bytes that each pack as
many letters as fit (8 of a binary word), so that a byte search on a small
alphabet skips as it would on a large one.  First-hit checks read the first
run of each shift; with allowed words, `_power_starts` checks every start of
the shift in windowed array compares.  Once a hit is held, later shifts read
only the letters that a power starting before it can occupy.  Gap patterns
read the ends of every run, taking a small shift's runs from one array pass,
and full scans every start.  `gap_occurrences` answers any number of gap
patterns from one stream; `gap_first_and_count` counts one without listing.
Worst-case output size is quadratic on highly repetitive input, which the
intended avoidance words never are.

Batches of words grown column by column (the legal-word walk and its
words' images) are checked by `ColumnStep.fold`, which carries for each
shift the run of equal letters that ends at the last column and decides
from it alone whether a forbidden power ends there.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import attrgetter

import numpy as np

# Shifts up to this bound are swept directly; larger shifts go through the
# anchored block search, which extends runs in doubling chunks from _CHUNK.
# Words shorter than _LONG, where numpy's cost per call dominates, sweep at
# most _SHORT_CUT shifts.
_SWEEP_CUT = 256
_SHORT_CUT = 128
_LONG = 1 << 14
_CHUNK = 256
# Starts per _power_starts call of a first-hit check, which bounds its arrays.
_STARTS = 1 << 16


class ParseError(ValueError):
    """Raised when a word, morphism, or spec text is malformed."""


_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


def word_from_text(text: str) -> bytes:
    """Parse a word written as decimal digits.  Whitespace is ignored."""
    digits = "".join(text.split())  # split() drops exactly the isspace() ones
    if digits.isascii() and (digits.isdigit() or not digits):
        return digits.encode().translate(_DIGITS)
    bad = next(ch for ch in digits if not "0" <= ch <= "9")
    raise ParseError(f"bad letter {bad!r} in word")


def word_to_text(word: bytes) -> str:
    return "".join(str(b) for b in word)


def content_lines(text: str):
    """(line number, line) for each line of a spec, map or word-list file that
    holds something once its `#` comment is dropped, stripped.  Numbers count
    every line from 1, blank and comment lines included."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


class Record:
    """An immutable record whose fields are its class's annotated names, in
    order; a class attribute of the same name is the field's default.

    Records are built from positional or keyword fields, then
    `__post_init__` checks them.  Two records are equal when they are of
    one class with equal fields, and hash as their field tuple.  Every
    record shares these methods, so defining one generates no code.
    `functools.cached_property` still works: it writes the instance
    `__dict__` directly.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", ()))
        fields = cls._fields = cls._fields + names
        cls._defaults = {**cls._defaults, **{
            name: cls.__dict__[name] for name in names if name in cls.__dict__}}
        # The field tuple, read in C and called as self._key(self).
        # attrgetter of one name returns its value bare.
        cls._key = staticmethod(
            attrgetter(*fields) if len(fields) > 1 else
            lambda record: tuple(getattr(record, f) for f in fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            if len(args) > len(fields):
                raise TypeError(f"{type(self).__name__} takes at most"
                                f" {len(fields)} fields, got {len(args)}")
            args = [*args]
            for name in fields[len(args):]:
                if name in kwargs:
                    args.append(kwargs.pop(name))
                elif name in self._defaults:
                    args.append(self._defaults[name])
                else:
                    raise TypeError(f"{type(self).__name__} is missing"
                                    f" field {name!r}")
            if kwargs:
                raise TypeError(f"{type(self).__name__} got unknown or"
                                f" repeated fields {sorted(kwargs)}")
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a record with constraints overrides this."""

    def __setattr__(self, name, _value):
        raise AttributeError(f"cannot set {name!r}: records are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: records are immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        pairs = zip(self._fields, self._key(self))
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{name}={value!r}" for name, value in pairs)
                + ")")

    def replace(self, **changes):
        """A copy with the named fields changed, checked as a new record."""
        return type(self)(**{**dict(zip(self._fields, self._key(self))),
                             **changes})

    def to_dict(self) -> dict:
        """The fields in order, as JSON takes them: see `_plain`."""
        return {name: _plain(value)
                for name, value in zip(self._fields, self._key(self))}


def _plain(value):
    """A field value as JSON takes it: words, gap patterns and specs as text
    (`format_spec`), records as their dicts, tuples as lists, and a set of
    words as a list sorted by length, then word."""
    if isinstance(value, frozenset):
        value = tuple(sorted(value, key=lambda w: (len(w), w)))
    return (word_to_text(value) if isinstance(value, bytes)
            else value.text() if isinstance(value, GapPattern)
            else format_spec(value) if isinstance(value, AvoidanceSpec)
            else value.to_dict() if isinstance(value, Record)
            else [_plain(item) for item in value] if isinstance(value, tuple)
            else value)


def perfect_shuffle(even: bytes, odd: bytes) -> bytes:
    """Interleave two equal-length words, `even` supplying position 0."""
    if len(even) != len(odd):
        raise ValueError("perfect shuffle needs words of equal length")
    out = bytearray(2 * len(even))
    out[0::2] = even
    out[1::2] = odd
    return bytes(out)


def _extend_left(word: bytes, shift: int, left: int) -> int:
    c = _CHUNK
    while left > 0:
        c = min(c, left)
        # Little-endian, so the last letter that differs is the top set bit.
        x = (int.from_bytes(word[left - c:left], "little")
             ^ int.from_bytes(word[left - c + shift:left + shift], "little"))
        if x:
            return left - c + (x.bit_length() + 7) // 8
        left -= c
        c *= 2
    return left


def _extend_right(word: bytes, shift: int, right: int) -> int:
    limit = len(word) - shift
    c = _CHUNK
    while right < limit:
        c = min(c, limit - right)
        # Big-endian, so the first letter that differs is the top set bit.
        x = (int.from_bytes(word[right:right + c], "big")
             ^ int.from_bytes(word[right + shift:right + shift + c], "big"))
        if x:
            return right + c - (x.bit_length() + 7) // 8
        right += c
        c *= 2
    return right


def _long_runs(word, packed, q, lo, hi, need) -> dict[int, list[tuple[int, int]]]:
    """Maximal equal runs {shift: [(left, right), ...]} with lo <= shift <= hi
    and right - left >= need(shift), each list from left to right, where
    byte p of `packed` holds the q letters word[p:p+q] and q <= lo // 2.

    Completeness relies on any window of length >= 2*(lo//2) - 1 containing a
    block that starts on a multiple of lo//2, so need(shift) must be at least
    lo - 1.  A block of s letters at js is the needle packed[js:js+s-q+1], at
    the same positions.  Anchors reach a shift's runs from left to right, so
    an occurrence left of the last run's right end lies in that run and is
    not extended.
    """
    n = len(word)
    s = lo // 2
    runs = {}
    if s == 0 or n < lo + s:
        return runs
    t = s - q + 1  # bytes of a block's needle
    reach: dict[int, int] = {}  # shift -> right end of its last run found
    for js in range(lo + -lo % s, n - s + 1, s):
        pat = packed[js:js + t]
        wlo = max(0, js - hi)
        whi = js - lo + t
        pos = packed.find(pat, wlo, whi)
        while pos != -1:
            shift = js - pos
            if pos >= reach.get(shift, 0):
                left = _extend_left(word, shift, pos)
                right = _extend_right(word, shift, pos + s)
                reach[shift] = right
                if right - left >= need(shift):
                    runs.setdefault(shift, []).append((left, right))
            pos = packed.find(pat, pos + 1, whi)
    return runs


def _mask_runs(eq: bytes, probe: bytes, left: int, tail: int):
    """Maximal runs of 1 bytes in eq at least len(probe) long, from the one
    at left, which must be the first, each right end moved on by `tail`."""
    while left != -1:
        right = eq.find(b"\0", left + len(probe))
        yield left, (len(eq) if right == -1 else right) + tail
        left = -1 if right == -1 else eq.find(probe, right)


def _mask_edges(equal: np.ndarray, span: int) -> np.ndarray:
    """All maximal runs of True in `equal` at least span long, as the rows
    (left, right) of a (k, 2) array, from one pass over its edges."""
    edges = np.flatnonzero(np.diff(equal, prepend=False, append=False))
    edges = edges.reshape(-1, 2)
    return edges[edges[:, 1] - edges[:, 0] >= span]


def _packed(arr: np.ndarray, k: int, q: int) -> tuple[bytes, np.ndarray]:
    """G, as bytes and as an array: byte p holds the letters arr[p:p+q],
    each below k, as one base-k number, for k**q <= 256."""
    size = max(0, len(arr) - q + 1)
    g = arr[:size].copy()
    for i in range(1, q):
        g *= k  # each partial value stays below k**q, so within a byte
        g += arr[i:i + size]
    packed = g.tobytes()  # a whole-word slice of bytes is no copy
    return packed, np.frombuffer(packed, dtype=np.uint8)


def _repeats(word: bytes, lo: int, hi: int, span, stop=None, every=False):
    """Yield (d, runs) for each shift d in lo..hi, ascending, with a repeat.

    runs iterates, left to right, the maximal (left, right) with
    word[j] == word[j+d] for j in left..right-1 and right - left >= span(d),
    where span(d) >= 1 grows with d.  Runs of shifts up to the cut come
    lazily from a byte search over the equality mask, so a clean shift costs
    one compare and one skipping search; the anchored block search finds
    the runs of larger shifts when span(d) >= d - 1 (see _long_runs).  Both
    read the packed copy G of _packed when span(d) >= q, for k the alphabet
    size (the largest letter plus one, at least 2) and q the largest with
    k**q <= 256: a run of span(d) equal letters is a run of span(d) - q + 1
    equal bytes of G from the same left end, whose right end lies q - 1
    letters on.  Shorter spans read the letters, as the same code with q = 1.
    `stop`, when given, is called before each shift or class of shifts for
    a bound on the starts still wanted: only the prefix that a repeat
    starting below it can occupy is read, and runs are those of that
    prefix.  With `every`, for readers of every run, runs is instead a
    (k, 2) array, so a swept shift's runs come from one array pass over the
    mask's edges.
    """
    if lo < 1:
        raise ValueError("min_root must be >= 1")
    n = len(word)
    arr = np.frombuffer(word, dtype=np.uint8)
    k = max(2, int(arr.max(initial=0)) + 1)  # a one-letter word packs as binary
    q = next(q for q in range(8, 0, -1) if k ** q <= 256)
    views = {1: (word, arr)}  # the word as bytes of t letters each, by t
    if 1 < q <= span(hi):  # else no span reaches q
        views[q] = _packed(arr, k, q)
    cut = _SWEEP_CUT if n >= _LONG else min(_SWEEP_CUT, _SHORT_CUT)

    def prefix(d):  # letters a repeat of shift d starting below stop() needs
        return n if stop is None else min(n, stop() + span(d) + d - 1)

    for d in range(lo, min(hi, cut) + 1):
        t = q if span(d) >= q else 1
        m = max(0, prefix(d) - d - t + 1)  # bytes compared
        width = span(d) - t + 1  # bytes a run must hold
        g = views[t][1]
        equal = g[:m] == g[d:d + m]
        eq = equal.tobytes()
        probe = b"\1" * width
        left = eq.find(probe)
        if left != -1:
            yield d, (_mask_edges(equal, width) + (0, t - 1) if every
                      else _mask_runs(eq, probe, left, t - 1))
    clo = max(lo, cut + 1)
    while clo <= hi:  # doubling shift classes [clo, 2clo) for the block search
        chi = min(2 * clo - 1, hi)
        m = prefix(chi)
        t = q if clo // 2 >= q else 1
        found = _long_runs(word[:m], views[t][0][:m - t + 1], t, clo, chi,
                           span)
        for d, runs in sorted(found.items()):
            yield d, np.array(runs, dtype=np.intp) if every else runs
        clo *= 2


def _first_repeat(word: bytes, lo: int, hi: int, power: int,
                  allowed: frozenset = frozenset()) -> tuple[int, int] | None:
    """Least (start, root) of a power-th power with root in lo..hi that is not
    an allowed word, or None.

    A shift with no allowed word of its power's length reads its first run's
    left end.  A shift with one, of any size, is checked at every start by
    `_power_starts`, one array compare per window of _STARTS starts up to
    the first hit.  Once a hit is held, later shifts look only at the
    starts below it.
    """
    sizes = {len(w) for w in allowed}
    arr = np.frombuffer(word, dtype=np.uint8)
    best = None

    def stop():
        return len(word) if best is None else best[0]

    for d, runs in _repeats(word, lo, hi, lambda d: (power - 1) * d, stop):
        size = power * d
        p = None
        if size not in sizes:
            p = next(iter(runs))[0]
        else:
            top = min(len(word) - size, stop() - 1)
            for first in range(0, top + 1, _STARTS):
                hit = _power_starts(arr, power, d, allowed, first,
                                    min(first + _STARTS - 1, top))
                if hit.any():
                    p = first + int(hit.argmax())
                    break
        if p is not None and p < stop():
            best = (p, d)
    return best


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


class GapPattern(Record):
    """Letters flanking a repeated gap: first + alpha + middle + alpha + last."""

    first: int
    middle: int
    last: int

    def word(self, alpha: bytes) -> bytes:
        return bytes([self.first]) + alpha + bytes([self.middle]) + alpha + bytes([self.last])

    def letters(self) -> tuple[int, int, int]:
        return (self.first, self.middle, self.last)

    def text(self) -> str:
        return word_to_text(bytes(self.letters()))


def _gap_starts(word: bytes):
    """Yield (d, ends, letters, lo, hi) for gaps d - 1 from 0 up: a pattern
    word with gap d - 1 can start only at a position in `ends`, whose
    flanking letters are `letters` (first, middle, last), or at an i with
    lo[k] <= i < hi[k], where all three equal word[i].

    Gap 0 is shift 1 from every position.  A gap g >= 1 at position i is a
    repeat of span g and shift g + 1 that starts at i + 1; in word[1:-1] it
    starts at i and fits whole patterns.  A start past its run's left end
    has first == middle and one short of its right end middle == last, so
    `ends` holds the starts at each run's two ends and lo..hi the ones between.
    """
    arr = np.frombuffer(word, dtype=np.uint8)
    none = np.zeros(0, dtype=np.int64)
    # Gap 0's starts are the largest array of a sweep; int32 halves it.
    yield (1, np.arange(len(word) - 2, dtype=np.int32),
           (arr[:-2], arr[1:-1], arr[2:]), none, none)
    for d, runs in _repeats(word[1:-1], 2, (len(word) - 1) // 2,
                            lambda d: d - 1, every=True):
        left, right = runs.T
        last = right - d + 1
        ends = np.sort(np.concatenate((left, last[last > left])))
        yield (d, ends, (arr[ends], arr[ends + d], arr[ends + 2 * d]),
               left + 1, np.maximum(last, left + 1))


def _flanked(letters: tuple[np.ndarray, ...], pattern: GapPattern) -> np.ndarray:
    """Mask of the starts whose flanking letters are the pattern's."""
    first, middle, last = letters
    return ((first == pattern.first) & (middle == pattern.middle)
            & (last == pattern.last))


def gap_occurrences(word: bytes, patterns
                    ) -> dict[GapPattern, list[tuple[int, int]]]:
    """For each pattern, the occurrences of pattern.word(alpha) as sorted
    (position, len(alpha)) pairs, all from one sweep of the word.

    The gap may be empty; position is where the first letter sits.
    """
    out = {pattern: [] for pattern in patterns}
    if not out:
        return out
    for d, ends, letters, lo, hi in _gap_starts(word):
        for pattern, occ in out.items():
            occ.extend((i, d - 1) for i in ends[_flanked(letters, pattern)].tolist())
            if pattern.first == pattern.middle == pattern.last:
                occ.extend((i, d - 1) for a, b in zip(lo.tolist(), hi.tolist())
                           for i in range(a, b) if word[i] == pattern.first)
    for occ in out.values():
        occ.sort()
    return out


def gap_first_and_count(word: bytes, pattern: GapPattern
                        ) -> tuple[tuple[int, int] | None, int]:
    """The first occurrence of pattern.word(alpha) as (position, len(alpha)),
    or None, and the number of occurrences, without listing them.

    Only an a,a,a pattern occurs strictly inside a run, at each start that
    holds a, so one prefix sum over the letter counts those starts.
    """
    letter = pattern.first
    inside = pattern.first == pattern.middle == pattern.last
    if inside:
        held = np.zeros(len(word) + 1, dtype=np.int64)
        np.cumsum(np.frombuffer(word, dtype=np.uint8) == letter, out=held[1:])
    first, count = None, 0
    for d, ends, letters, lo, hi in _gap_starts(word):
        hits = ends[_flanked(letters, pattern)]
        count += hits.size
        found = hits[:1].tolist()
        if inside:
            per_run = held[hi] - held[lo]
            count += int(per_run.sum())
            runs = np.flatnonzero(per_run)[:1]
            found += [word.index(letter, lo[k], hi[k]) for k in runs]
        if found and (first is None or min(found) < first[0]):
            first = (min(found), d - 1)
    return first, count


def find_gap_occurrences(word: bytes, pattern: GapPattern) -> list[tuple[int, int]]:
    """Occurrences of pattern.word(alpha) as (position, len(alpha)), sorted."""
    return gap_occurrences(word, (pattern,))[pattern]


def contains_gap_pattern(word: bytes, pattern: GapPattern) -> bool:
    return gap_first_and_count(word, pattern)[0] is not None


def scan_forbidden(word: bytes, forbidden) -> tuple[int, bytes] | None:
    """Leftmost occurrence of any forbidden factor, ties to the shortest."""
    hits = [(p, len(f), f) for f in forbidden if (p := word.find(f)) != -1]
    if not hits:
        return None
    p, _, f = min(hits)
    return p, f


class Violation(Record):
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


class SpecCheck(Record):
    ok: bool
    violation: Violation | None = None


class AvoidanceSpec(Record):
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
        # Lists become tuples, so a spec hashes and equals its tuple twin.
        for name in ("forbidden", "square_whitelist"):
            if isinstance(getattr(self, name), list):
                self.__dict__[name] = tuple(getattr(self, name))
        if not 1 <= self.alphabet_size <= 256:
            raise ValueError("alphabet_size must be 1..256: letters are bytes")
        if self.square_min_root is not None and self.square_whitelist is not None:
            raise ValueError("choose one square policy")
        if self.square_min_root is not None and self.square_min_root < 1:
            raise ValueError("square_min_root must be >= 1")
        if b"" in self.forbidden:
            raise ValueError("a forbidden word must not be empty")
        for w in self.square_whitelist or ():
            h = len(w) // 2
            if len(w) == 0 or len(w) % 2 or w[:h] != w[h:]:
                raise ValueError(f"whitelist entry {word_to_text(w)} is not a square")

    @cached_property
    def repetition_rules(self) -> tuple[tuple[str, int, int, int | None, frozenset], ...]:
        """(kind, power, least root, greatest root or None, allowed words) of
        each forbidden repetition, in the order violations are reported.  A
        whitelist that holds the square of every letter starts its square
        rule at root 2, without those squares, so no check reads a root
        whose every square is allowed.  A cube of root d begins with a
        square of root d, so cubes stop at the longest root that has an
        allowed square."""
        rules, cube_top = [], None
        if self.square_min_root is not None:
            rules.append(("square", 2, self.square_min_root, None, frozenset()))
            cube_top = self.square_min_root - 1
        elif self.square_whitelist is not None:
            allowed = frozenset(self.square_whitelist)
            doubled = {bytes((a, a)) for a in range(self.alphabet_size)}
            lo = 2 if doubled <= allowed else 1
            rules.append(("square", 2, lo, None,
                          allowed - doubled if lo == 2 else allowed))
            cube_top = max((len(w) // 2 for w in allowed), default=0)
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


def _starts(letters: np.ndarray, factor: bytes, first: int,
            last: int) -> np.ndarray:
    """hit[p - first] says whether `factor` starts at index p of the first
    axis of `letters`, for p in first..last, across its other axes."""
    hit = np.ones((last - first + 1,) + letters.shape[1:], dtype=bool)
    for i, letter in enumerate(factor):
        hit &= letters[first + i:last + i + 1] == letter
    return hit


def _power_starts(arr: np.ndarray, power: int, d: int, allowed: frozenset,
                  first: int, last: int) -> np.ndarray:
    """hit[p - first] says whether the word `arr` holds at p, for p in
    first..last, a power-th power of root d that is not an allowed word."""
    # A power of root d at p repeats for (power-1)·d letters from p.
    span = (power - 1) * d
    equal = arr[first:last + span] == arr[first + d:last + span + d]
    sums = np.zeros(equal.size + 1, dtype=np.int32)
    np.cumsum(equal, dtype=np.int32, out=sums[1:])
    hit = sums[span:] - sums[:-span] == span
    for word in allowed:
        if len(word) == power * d:
            hit &= ~_starts(arr, word, first, last)
    return hit


class ColumnStep:
    """What a spec forbids to end at the new columns of a batch of words.

    A batch is stored column by column: cols[j] holds letter j of every
    word, over one axis or more; `fold`, the one driver, steps any columns
    from the runs before them.  Its runs at a column hold, for each shift
    d = 1..D with D = min(column, top), the length of the run of word[j] ==
    word[j - d] that ends there; runs[D - d] holds shift d, in the order of
    the letters compared.  A power of root d ends at the column exactly
    when its run is at least (power - 1)·d.  `thresholds` holds, per root, the least such
    length over the rules without an allowed word of that power's length,
    or the dtype's largest value, which no run reaches; the powers that
    have one are in `allowed` as (root, power, words).  A violation that
    ends at the last column starts at column 0 only when it is the whole
    word, so one threshold compare, one compare per power with allowed
    words and one per factor each sort their hits into two masks, the
    whole word and a shorter suffix: a threshold hit by its root's row in
    `fills`, an allowed-word or factor hit by its length.
    """

    def __init__(self, spec: AvoidanceSpec, n: int, max_root: int | None = None):
        """The step for words of at most n letters, roots capped at max_root."""
        self.alphabet_size = spec.alphabet_size
        self.forbidden = spec.forbidden
        self.dtype = np.min_scalar_type(n)
        never = np.iinfo(self.dtype).max
        rules = [(power, lo, _top(n, power, hi, max_root), allowed)
                 for _, power, lo, hi, allowed in spec.repetition_rules]
        self.top = max((top for _, _, top, _ in rules), default=0)
        thresholds = np.full(self.top, never, self.dtype)
        self.allowed = []
        for power, lo, top, allowed in rules:
            rule = (power - 1) * np.arange(lo, top + 1, dtype=self.dtype)
            for size in sorted({len(w) for w in allowed if len(w) % power == 0}):
                if lo <= size // power <= top:
                    rule[size // power - lo] = never
                    words = [list(w) for w in allowed if len(w) == size]
                    self.allowed.append((size // power, power,
                                         np.array(words, np.uint8).T[:, :, None]))
            window = thresholds[lo - 1:top]
            np.minimum(window, rule, out=window)
        # Shift by shift in the runs' order, from the top root down.
        self.thresholds = thresholds[::-1, None].copy()
        # fills[m]: the roots whose least power is m letters long, so that
        # in an m-letter word it is the whole word.
        self.fills: dict[int, list[int]] = {}
        for d, t in enumerate(thresholds.tolist(), start=1):
            if t != never:
                self.fills.setdefault(t + d, []).append(d)

    def advance(self, cols: np.ndarray, runs: np.ndarray) -> np.ndarray:
        """The runs at the last column of `cols`, shaped (D, ...), from those
        at the one before, which broadcast against its other axes: one
        compare of the last letter with the D before it, into the one buffer
        returned, resets or starts every run, and scaling the old shifts'
        rows (the last ones) in place by their runs + 1 extends theirs."""
        n = len(cols)
        width = min(n - 1, self.top)
        out = np.empty((width,) + cols.shape[1:], self.dtype)
        np.equal(cols[n - 1 - width:n - 1], cols[n - 1], out=out)
        tail = out[width - len(runs):]
        np.multiply(tail, runs + 1, out=tail)
        return out

    def powers(self, cols: np.ndarray, runs: np.ndarray):
        """Two flat masks over the words of a 2-D batch, from its 2-D runs at
        the last column: a forbidden power that ends there is the whole
        word, and one is a shorter suffix."""
        n, width = len(cols), len(runs)
        hit = runs >= self.thresholds[self.top - width:]
        whole = np.zeros(hit.shape[1], bool)
        if n in self.fills:  # else an empty fancy index costs more than this
            rows = [width - d for d in self.fills[n]]
            whole = hit[rows].any(axis=0)
            hit[rows] = False
        part = hit.any(axis=0)
        for d, power, words in self.allowed:
            if power * d <= n:
                at = np.flatnonzero(runs[width - d] >= (power - 1) * d)
                tail = cols[n - power * d:, at]
                found = whole if power * d == n else part
                found[at[~(tail[:, None] == words).all(axis=0).any(axis=0)]] = True
        return whole, part

    def factors(self, cols: np.ndarray, new: int):
        """Two flat masks over the words of a 2-D batch, for a letter
        outside the alphabet at a column from `new` on or a forbidden factor
        that ends there, by one compare per factor: that violation is the
        whole word, and it is a shorter factor."""
        n = len(cols)
        outside = (cols[new:] >= self.alphabet_size).any(axis=0)
        none = np.zeros(len(outside), bool)
        # A letter is the whole word only of a one-letter word.
        whole, part = (outside, none) if n == 1 else (none, outside)
        for factor in self.forbidden:
            first, last = max(new - len(factor) + 1, 0), n - len(factor)
            if first <= last:
                found = whole if len(factor) == n else part
                found[_starts(cols, factor, first, last).any(axis=0)] = True
        return whole, part

    def fold(self, cols: np.ndarray, first: int, new: int,
             runs: np.ndarray | None = None):
        """Step a batch through columns first..n-1 from `runs`, its runs at
        column first - 1, which broadcast against its other axes (none by
        default, as at column 0).  Returns the runs at the last column and
        two flat masks over the words, of the violations that end at column
        `new` or later, for `new` at least `first`: `whole`, one spans the
        whole word, and `part`, one is shorter.  A power that ends before
        the last column is shorter than the word."""
        n, size = len(cols), math.prod(cols.shape[1:])
        flat = cols.reshape(n, size)  # n or size may be 0, so no -1
        if runs is None:
            runs = np.zeros((0,) + cols.shape[1:], self.dtype)
        whole, part = self.factors(flat, new)
        for j in range(first, n):
            runs = self.advance(cols[:j + 1], runs)
            if j >= new:
                ends, shorter = self.powers(flat[:j + 1],
                                            runs.reshape(len(runs), size))
                (whole if j == n - 1 else part)[ends] = True
                part |= shorter
        return runs, whole, part


def suffix_legal(word: bytes, spec: AvoidanceSpec) -> bool:
    """Check only the constraints that end at the last letter.

    Sound for incremental search: if every proper prefix passed this check,
    the word satisfies the spec exactly when this check passes.  It is a
    one-row `ColumnStep.fold`.
    """
    cols = np.frombuffer(word, dtype=np.uint8).reshape(len(word), 1)
    _, whole, part = ColumnStep(spec, len(word)).fold(cols, 0, len(word) - 1)
    return not (whole | part)[0]


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
    for lineno, line in content_lines(text):
        key, *args = line.split()
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
