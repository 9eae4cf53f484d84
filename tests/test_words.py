"""Word-level scanners against brute-force oracles."""

from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordavoid import words
from wordavoid import (AvoidanceSpec, GapPattern, ParseError,
                       find_cube_at_least, find_square_at_least,
                       fixed_point_prefix, format_spec, gap_occurrences,
                       max_square_root, parse_spec, perfect_shuffle,
                       satisfies_spec, scan_forbidden, word_from_text,
                       word_to_text)
from wordavoid.words import (contains_gap_pattern, find_cubes,
                             find_gap_occurrences, find_squares, suffix_legal)

from conftest import (naive_cubes, naive_gap_occurrences, naive_satisfies,
                      naive_squares, naive_word_from_text, run_script, specs)

words2 = st.binary(max_size=40).map(lambda b: bytes(x & 1 for x in b))


@st.composite
def planted(draw, alphabet):
    """Up to 80 letters: a random word with a block repeated 1-3 times inside."""
    letters = st.binary(max_size=32).map(
        lambda b: bytes(x % alphabet for x in b))
    base = draw(letters)
    block = draw(letters.filter(len).map(lambda b: b[:16]))
    at = draw(st.integers(0, len(base)))
    return base[:at] + block * draw(st.integers(1, 3)) + base[at:]


# Small cuts send most shifts through the anchored block search, which the
# default cut reaches only on words longer than 256 letters.
cuts = st.sampled_from([1, 2, 3, 128])


@contextmanager
def sweep_cut(cut):
    saved = words._SWEEP_CUT
    words._SWEEP_CUT = cut
    try:
        yield
    finally:
        words._SWEEP_CUT = saved


def test_word_text_round_trip():
    assert word_from_text("0102 31") == bytes([0, 1, 0, 2, 3, 1])
    assert word_to_text(bytes([0, 1, 0, 2])) == "0102"
    for text in ("01a2", "0\u00b2", "0\u0663"):
        with pytest.raises(ParseError):
            word_from_text(text)


def parsed(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


# Text mixing ASCII digits, letters and spaces with non-ASCII digits (Arabic
# and superscript) and spaces (no-break, em, ideographic and line separator).
texts = st.text(st.sampled_from("0123456789 \t\n\x0b\x1cx-\u00b2\u0663"
                                "\u00a0\u2003\u3000\u2028") | st.characters())


@given(texts)
@settings(max_examples=300)
def test_word_from_text_matches_the_character_loop(text):
    assert parsed(word_from_text, text) == parsed(naive_word_from_text, text)


def test_perfect_shuffle_interleaves():
    assert perfect_shuffle(b"\x00\x01\x00", b"\x00\x00\x01") == \
        bytes([0, 0, 1, 0, 0, 1])
    with pytest.raises(ValueError):
        perfect_shuffle(b"\x00", b"\x00\x01")


@given(planted(2), cuts)
@settings(max_examples=150)
def test_find_squares_matches_naive(word, cut):
    with sweep_cut(cut):
        assert find_squares(word, 1) == naive_squares(word, 1)
        assert find_squares(word, 2) == naive_squares(word, 2)


@given(planted(3), cuts)
@settings(max_examples=100)
def test_find_cubes_matches_naive(word, cut):
    with sweep_cut(cut):
        assert find_cubes(word, 1) == naive_cubes(word, 1)


@given(planted(2), cuts)
@settings(max_examples=100)
def test_first_hits_agree_with_full_scans(word, cut):
    sq = naive_squares(word, 2)
    cu = naive_cubes(word, 1)
    allowed = (word_from_text("00"), word_from_text("11"))
    unlisted = [(p, d) for p, d in naive_squares(word, 1)
                if word[p:p + 2 * d] not in allowed]
    with sweep_cut(cut):
        assert find_square_at_least(word, 2) == min(sq, default=None)
        assert find_cube_at_least(word, 1) == min(cu, default=None)
        # Squares are reported before cubes of any root.
        for spec, occ in ((AvoidanceSpec(2, square_min_root=2), sq),
                          (AvoidanceSpec(2, cubefree=True), cu),
                          (AvoidanceSpec(2, square_whitelist=allowed), unlisted),
                          (AvoidanceSpec(2, square_min_root=2, cubefree=True),
                           sq or cu),
                          (AvoidanceSpec(2, square_whitelist=allowed,
                                         cubefree=True), unlisted or cu)):
            v = satisfies_spec(word, spec).violation
            assert (v and (v.position, v.root_length)) == min(occ, default=None)


@given(planted(2), cuts)
@settings(max_examples=100)
def test_max_square_root_matches_naive(word, cut):
    occ = naive_squares(word, 1)
    expected = max((root for _, root in occ), default=0)
    with sweep_cut(cut):
        assert max_square_root(word) == expected


@given(planted(3), cuts, st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2))
@settings(max_examples=150)
def test_gap_occurrences_match_naive(word, cut, first, middle, last):
    pattern = GapPattern(first, middle, last)
    expected = naive_gap_occurrences(word, pattern)
    with sweep_cut(cut):
        assert find_gap_occurrences(word, pattern) == expected
        assert contains_gap_pattern(word, pattern) == bool(expected)
        assert words.gap_first_and_count(word, pattern) == (
            min(expected, default=None), len(expected))


@given(planted(3), cuts)
@settings(max_examples=100)
def test_one_sweep_answers_every_gap_pattern(word, cut):
    patterns = [GapPattern(*letters) for letters in product(range(3), repeat=3)]
    with sweep_cut(cut):
        found = gap_occurrences(word, patterns)
        summaries = {p: words.gap_first_and_count(word, p) for p in patterns}
    assert found == {p: naive_gap_occurrences(word, p) for p in patterns}
    assert summaries == {p: (min(occ, default=None), len(occ))
                         for p, occ in found.items()}


def naive_runs(word, d, span):
    """Maximal (left, right) with word[j] == word[j+d] for j in left..right-1
    and right - left >= span, by the definition."""
    runs, left = [], 0
    for j in range(len(word) - d + 1):
        if j == len(word) - d or word[j] != word[j + d]:
            if j - left >= span:
                runs.append((left, j))
            left = j + 1
    return runs


SPANS = {"square": (1, lambda d: d), "cube": (1, lambda d: 2 * d),
         "gap": (2, lambda d: d - 1)}


@given(planted(2), cuts, st.sampled_from(sorted(SPANS)))
@settings(max_examples=150)
def test_repeats_yield_the_maximal_runs(word, cut, kind):
    lo, span = SPANS[kind]
    expected = [(d, naive_runs(word, d, span(d)))
                for d in range(lo, len(word) + 1)]
    with sweep_cut(cut):
        found = [(d, list(runs))
                 for d, runs in words._repeats(word, lo, len(word), span)]
        arrays = [(d, list(map(tuple, runs.tolist()))) for d, runs in
                  words._repeats(word, lo, len(word), span, every=True)]
    assert found == arrays == [(d, runs) for d, runs in expected if runs]


@st.composite
def packed_words(draw):
    """Up to about 600 letters over 1 to 20 letters, so that one packed byte
    holds from 8 down to 1 of them: a random word with a block of up to 100
    letters repeated 1-3 times inside."""
    alphabet = draw(st.integers(1, 20))
    rng = draw(st.randoms(use_true_random=False))

    def letters(size):
        return bytes(rng.randrange(alphabet) for _ in range(size))

    base = letters(draw(st.integers(0, 300)))
    block = letters(draw(st.integers(1, 100)))
    at = draw(st.integers(0, len(base)))
    return base[:at] + block * draw(st.integers(1, 3)) + base[at:]


def letter_runs(word, d, span):
    """naive_runs at array speed: the runs lie between the j with
    word[j] != word[j+d]."""
    arr = np.frombuffer(word, dtype=np.uint8)
    breaks = [-1, *np.flatnonzero(arr[:len(word) - d] != arr[d:]).tolist(),
              len(word) - d]
    return [(a + 1, b) for a, b in zip(breaks, breaks[1:]) if b - a - 1 >= span]


@given(packed_words(), st.sampled_from([1, 2, 3, 7, 8, 9, 128]),
       st.sampled_from(sorted(SPANS)))
@settings(max_examples=150, deadline=None)
def test_packed_scans_yield_the_letter_runs(word, cut, kind):
    """Cuts around q = 8, 5, 4, 3 and 2 put both searches on either side
    of the packed copy; the first hits read it with a bound held."""
    lo, span = SPANS[kind]
    for d in range(lo, min(len(word), 12) + 1):
        assert letter_runs(word, d, span(d)) == naive_runs(word, d, span(d))
    expected = [(d, runs) for d in range(lo, len(word) + 1)
                if (runs := letter_runs(word, d, span(d)))]
    with sweep_cut(cut):
        found = [(d, list(runs))
                 for d, runs in words._repeats(word, lo, len(word), span)]
        arrays = [(d, list(map(tuple, runs.tolist()))) for d, runs in
                  words._repeats(word, lo, len(word), span, every=True)]
        power = {"square": 2, "cube": 3}.get(kind)
        first = power and words._first_repeat(word, 1, len(word) // power,
                                              power)
    assert found == arrays == expected
    if power:
        assert first == min(((runs[0][0], d) for d, runs in expected
                             if power * d <= len(word)), default=None)


def test_one_letter_words_are_scanned_in_time():
    """A one-letter word packs as a binary one; 0^10000 holds squares of
    every root up to 5000 and 0 alpha 0 alpha 0 at 4999 * 5000 places."""
    proc = run_script("""
        import time
        from wordavoid import GapPattern, words
        word = bytes(10_000)
        start = time.perf_counter()
        print(words.max_square_root(word),
              words.find_square_at_least(word, 100),
              words.find_cube_at_least(word, 50),
              words.gap_first_and_count(word, GapPattern(0, 0, 0)))
        print(time.perf_counter() - start < 20)
        """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "5000 (0, 100) (0, 50) ((0, 0), 24995000)\nTrue\n"


@st.composite
def whitelisted(draw):
    """A planted word and a whitelist of some of its own squares, of any
    root, so allowed roots fall on both sides of every cut."""
    word = draw(planted(2))
    own = sorted({word[p:p + 2 * d] for p, d in naive_squares(word)})
    allowed = draw(st.lists(st.sampled_from(own), unique=True)) if own else []
    return word, AvoidanceSpec(2, square_whitelist=tuple(allowed))


@given(whitelisted(), cuts, st.sampled_from([1, 3, 1 << 16]))
@settings(max_examples=150)
def test_whitelist_reports_the_least_unlisted_square(case, cut, starts):
    """Small start windows split each array check into several calls."""
    word, spec = case
    allowed = set(spec.square_whitelist)
    unlisted = [(p, d) for p, d in naive_squares(word)
                if word[p:p + 2 * d] not in allowed]
    saved = words._STARTS
    words._STARTS = starts
    try:
        with sweep_cut(cut):
            check = satisfies_spec(word, spec)
    finally:
        words._STARTS = saved
    v = check.violation
    assert (v and (v.position, v.root_length)) == min(unlisted, default=None)
    cols = np.frombuffer(word, dtype=np.uint8).reshape(len(word), 1)
    flagged = words.ColumnStep(spec, len(word)).fold(cols, 0, 0)[1]
    assert bool(flagged[0]) == (not check.ok)


@pytest.mark.parametrize("cut", [1, 2, 128])
@pytest.mark.parametrize("text", ["2010102", "201010102"])
def test_allowed_square_does_not_hide_its_rotation(cut, text):
    """0101 is allowed and 1010 is not, so in a run of period 2 longer than
    4 letters the square reported is the one right of the run's left end."""
    spec = AvoidanceSpec(3, square_whitelist=(word_from_text("0101"),))
    with sweep_cut(cut):
        v = satisfies_spec(word_from_text(text), spec).violation
    assert (v.kind, v.position, v.root_length) == ("square", 2, 2)


@pytest.mark.parametrize("cut", [1, 128])
def test_anchored_search_extends_each_run_once(monkeypatch, cut):
    """Anchors land many times inside each long run of 0^300 1 0^300; each
    run, emitted or too short, is extended once."""
    word = bytes(300) + b"\1" + bytes(300)
    extend = words._extend_right
    ends = []

    def counted(word, shift, right):
        ends.append((shift, extend(word, shift, right)))
        return ends[-1][1]

    monkeypatch.setattr(words, "_extend_right", counted)
    patterns = (GapPattern(0, 0, 0), GapPattern(0, 1, 0))
    with sweep_cut(cut):
        for scan, expected in (
                (find_squares, lambda: naive_squares(word)),
                (find_cubes, lambda: naive_cubes(word)),
                (lambda w: gap_occurrences(w, patterns),
                 lambda: {p: naive_gap_occurrences(word, p)
                          for p in patterns})):
            ends.clear()
            assert scan(word) == expected()
            # Distinct runs of one shift have distinct right ends.
            assert ends and len(ends) == len(set(ends))


@pytest.mark.parametrize("whitelist", [None, ("00", "11", "011011")])
def test_first_hit_bounds_the_later_shifts(registry, monkeypatch, whitelist):
    """Once a violation at p is held, a later shift reads only the letters
    that a power starting before p can occupy: its equality mask, the
    prefix its anchored class searches, and its allowed-square windows.
    Flipping letter 3 of the 100,000-letter Dekking binary prefix puts the
    square 0101 at position 0."""
    n = 100_000
    word = bytearray(registry.dekking_g.apply(
        fixed_point_prefix(registry.dekking_h, 0, n // 6 + 1))[:n])
    word[3] ^= 1
    spec = (registry.ejs2 if whitelist is None else AvoidanceSpec(
        2, square_whitelist=tuple(map(word_from_text, whitelist))))
    reads = []
    for name, record in (
            # A square sweep of shift d = len(probe) + tail compares the
            # bytes up to d + len(eq), each holding tail + 1 letters.
            ("_mask_runs", lambda eq, probe, left, tail:
             (2 * (len(probe) + tail), len(eq) + len(probe) + 2 * tail)),
            # A class reads its letters and packed bytes of q letters each.
            ("_long_runs", lambda word, packed, q, lo, hi, need:
             (2 * hi, max(len(word), len(packed) + q - 1))),
            ("_power_starts", lambda arr, power, d, allowed, first, last:
             (power * d, last + power * d))):
        def recorded(*args, fn=getattr(words, name), record=record):
            reads.append(record(*args))
            return fn(*args)
        monkeypatch.setattr(words, name, recorded)
    v = satisfies_spec(bytes(word), spec).violation
    assert (v.position, v.root_length) == (0, 2)
    # (letters a power of the shift spans, letters read) past the hit
    later = [(size, read) for size, read in reads if size > 4]
    assert any(size > 2 * words._SWEEP_CUT for size, _ in later)
    assert all(read <= v.position + size - 1 for size, read in later)


def test_gap_pattern_word_builder():
    pattern = GapPattern(1, 3, 2)
    assert pattern.word(word_from_text("00")) == word_from_text("1003002")
    assert pattern.letters() == (1, 3, 2)


def test_scan_forbidden_reports_first_hit():
    word = word_from_text("0102010")
    assert scan_forbidden(word, (word_from_text("20"),)) == \
        (3, word_from_text("20"))
    assert scan_forbidden(word, (word_from_text("22"),)) is None


SPECS = [
    AvoidanceSpec(2, square_min_root=2),
    AvoidanceSpec(2, square_min_root=4, cubefree=True),
    AvoidanceSpec(2, square_whitelist=(word_from_text("00"),
                                       word_from_text("11"),
                                       word_from_text("0101"))),
    AvoidanceSpec(3, square_min_root=1),
    AvoidanceSpec(2, forbidden=(word_from_text("000"), word_from_text("111"))),
    AvoidanceSpec(2, square_whitelist=tuple(word_from_text(w) for w in
                                            ("00", "11", "0101", "1010")),
                  cubefree=True),
    AvoidanceSpec(2, square_min_root=1, cubefree=True),
]


@pytest.mark.parametrize("spec", SPECS, ids=range(len(SPECS)))
@given(word=planted(2), max_root=st.none() | st.integers(0, 8), cut=cuts)
@settings(max_examples=80)
def test_satisfies_spec_matches_naive(spec, word, max_root, cut):
    with sweep_cut(cut):
        check = satisfies_spec(word, spec, max_root=max_root)
    assert check.ok == naive_satisfies(word, spec, max_root)


@given(words2)
@settings(max_examples=80)
def test_violation_is_reported_with_its_window(word):
    spec = AvoidanceSpec(2, square_min_root=2)
    check = satisfies_spec(word, spec)
    if not check.ok:
        v = check.violation
        assert v.kind == "square"
        root = v.root_length
        assert word[v.position:v.position + 2 * root] == v.factor
        assert v.factor[:root] == v.factor[root:]


@st.composite
def batches(draw):
    """(spec, max_root, rows): a spec over 2-3 letters, maybe a root cap,
    and 1-6 rows of one length from 1 to 12.  Periodic rows put powers of
    the longest roots at every column, and one letter past the alphabet may
    occur."""
    alphabet = draw(st.integers(2, 3))
    spec = draw(specs(alphabet))
    max_root = draw(st.none() | st.integers(1, 3))
    n = draw(st.integers(1, 12))
    letter = st.integers(0, alphabet)
    periodic = st.integers(1, max(1, n // 2)).flatmap(
        lambda p: st.lists(letter, min_size=p, max_size=p))
    row = periodic.map(lambda w: bytes((w * n)[:n])) | st.lists(
        letter, min_size=n, max_size=n).map(bytes)
    return spec, max_root, draw(st.lists(row, min_size=1, max_size=6))


def as_cols(rows):
    """Rows of one length stored column by column, as `ColumnStep` reads."""
    return np.array([list(r) for r in rows], dtype=np.uint8).T.copy()


@given(batches())
@settings(max_examples=150, deadline=None)
def test_screen_flags_exactly_the_rows_that_break_the_spec(batch):
    """The bounded case's shape: for every column `new`, the rows of a batch
    that are legal before it, with roots maybe capped, are flagged by a
    fold from column 0 exactly where the whole row breaks the spec."""
    spec, max_root, rows = batch
    n = len(rows[0])
    step = words.ColumnStep(spec, n, max_root)
    broken = {r: not naive_satisfies(r, spec, max_root) for r in rows}
    for new in range(n):
        legal = [r for r in rows if naive_satisfies(r[:new], spec, max_root)]
        if legal:
            flagged = step.fold(as_cols(legal), 0, new)[1]
            assert flagged.tolist() == [broken[r] for r in legal], new


@given(batches(), st.data())
@settings(max_examples=150, deadline=None)
def test_fold_resumes_from_its_own_runs(batch, data):
    """Folding a batch in two pieces, the second from the runs the first
    ends with, gives the runs of one fold from column 0, and between them
    the same flags."""
    spec, max_root, rows = batch
    n = len(rows[0])
    cut = data.draw(st.integers(0, n))
    new = data.draw(st.integers(0, n - 1))
    step = words.ColumnStep(spec, n, max_root)
    cols = as_cols(rows)
    runs, flagged = step.fold(cols, 0, new)
    head_runs, head = step.fold(cols[:cut], 0, new)
    tail_runs, tail = step.fold(cols, cut, max(new, cut), head_runs)
    assert np.array_equal(tail_runs, runs)
    assert (head | tail).tolist() == flagged.tolist()


@pytest.mark.parametrize("spec", SPECS, ids=range(len(SPECS)))
@given(word=words2)
@settings(max_examples=80)
def test_suffix_legal_builds_exactly_the_legal_words(spec, word):
    """A word is legal iff every step of appending its letters stays legal."""
    incremental = all(suffix_legal(word[:i + 1], spec)
                      for i in range(len(word)))
    assert incremental == satisfies_spec(word, spec).ok


def test_spec_text_round_trip(registry):
    for name in ("dekking_binary", "fs_binary", "pu_source", "ejs3"):
        spec = getattr(registry, name)
        assert parse_spec(format_spec(spec)) == spec


def test_spec_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        parse_spec("alphabet 2\nsquares min-root x\n")
    with pytest.raises(ParseError, match="alphabet"):
        parse_spec("forbid 00\n")


def test_root_cap_never_hides_letters_or_factors():
    spec = AvoidanceSpec(2, forbidden=(word_from_text("11"),),
                         square_min_root=1)
    assert satisfies_spec(word_from_text("0120"), spec,
                          max_root=0).violation.kind == "letter"
    assert satisfies_spec(word_from_text("0110"), spec,
                          max_root=0).violation.kind == "forbidden"
    assert satisfies_spec(word_from_text("0101"), spec, max_root=1).ok
    assert satisfies_spec(word_from_text("0101"), spec,
                          max_root=2).violation.root_length == 2
