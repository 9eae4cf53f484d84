"""Transfer verification: witness inventories and refutation methods.

The expected inventories below were frozen from brute-force enumeration
(see conftest oracles) and cross-checked against the bounded reports, so
regressions in either the finders or the refuters surface as diffs here.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from wordavoid import (AvoidanceSpec, BoundedCaseReport, GapPattern, Morphism,
                       Substitution, bounded_case_check, find_inclusions,
                       find_interchanges, prove_gap_pattern_absence,
                       refute_inclusion, satisfies_spec, sync_delay,
                       verify_square_transfer, walk_legal, word_from_text,
                       word_to_text)
from wordavoid import counting, verify, words
from wordavoid.morphisms import FixedPointStream, fixed_point_prefix
from wordavoid.verify import _exhaustive_viability, exact_factors
from wordavoid.words import suffix_legal

from conftest import (all_words, naive_gap_occurrences, naive_inclusions,
                      naive_interchanges, naive_legal_words, naive_satisfies,
                      specs, with_image_letter)


@st.composite
def uniform_morphisms(draw):
    source = draw(st.integers(2, 4))
    target = draw(st.integers(2, 3))
    width = draw(st.integers(2, 4))
    images = tuple(bytes(draw(st.lists(st.integers(0, target - 1),
                                       min_size=width, max_size=width)))
                   for _ in range(source))
    return Morphism(source, target, images)


@given(uniform_morphisms())
@settings(max_examples=120)
def test_inclusion_finder_matches_brute_force(morphism):
    # one scan lists every pair's inclusions, pair by pair
    got = [(w.a, w.b, w.c, w.offset) for w in find_inclusions(morphism)]
    assert sorted(got) == sorted(naive_inclusions(morphism))
    assert [row[:2] for row in got] == sorted(row[:2] for row in got)


@given(uniform_morphisms())
@settings(max_examples=120)
def test_interchange_finder_matches_brute_force(morphism):
    got = {(w.a, w.b, w.c): list(w.splits)
           for w in find_interchanges(morphism)}
    assert got == naive_interchanges(morphism)


def test_witness_segments_reconstruct_the_images(registry):
    h = registry.dekking_h
    wit = find_inclusions(h)[0]
    assert (wit.a, wit.b, wit.c, wit.offset) == (3, 1, 2, 6)
    assert wit.t == word_from_text("020301")
    assert wit.u == word_from_text("0102")
    combined = h.image(wit.a) + h.image(wit.b)
    assert combined == wit.t + h.image(wit.c) + wit.u


# ---------------------------------------------------------------------------
# First construction: 10-uniform core plus 6-uniform coder.

def test_core_inclusions_and_refutation(registry):
    rows = [w for w in find_inclusions(registry.dekking_h)
            if source_allows_pair(registry.dekking_h_source, w)]
    assert [(w.a, w.b, w.c, w.offset) for w in rows] == [(3, 1, 2, 6)]
    ref = refute_inclusion(registry.dekking_h, rows[0],
                           registry.dekking_h_source)
    assert ref.method == "no-right-extension"
    assert ref.ok


def source_allows_pair(source, witness):
    """Whether an inclusion sits on a pair the source allows."""
    return satisfies_spec(bytes((witness.a, witness.b)), source).ok


def inclusion_rows(morphism, source):
    """The inclusions on pairs the source allows, in scan order, each with
    how `refute_inclusion` screens it; the rows on the other pairs are
    checked to be the ones it calls illegal."""
    classes = None
    if isinstance(morphism, Substitution):
        morphism, classes = morphism.to_annotated()
    rows = [(w, refute_inclusion(morphism, w, source, classes=classes))
            for w in find_inclusions(morphism)]
    cls = classes or tuple(range(morphism.source_size))
    for w, r in rows:
        pair = bytes((cls[w.a], cls[w.b]))
        assert (r.method == "pair-illegal") == (
            not satisfies_spec(pair, source).ok)
    return [(w, r) for w, r in rows if r.method != "pair-illegal"]


def dropped_inclusions(morphism, source):
    """The keys of the inclusions on pairs the source forbids, in scan
    order."""
    kept = [w for w, _ in inclusion_rows(morphism, source)]
    if isinstance(morphism, Substitution):
        morphism = morphism.to_annotated()[0]
    return [(w.a, w.b, w.c, w.offset) for w in find_inclusions(morphism)
            if w not in kept]


def test_coder_inclusion_inventory_shrinks_under_source_filter(registry):
    found = find_inclusions(registry.dekking_g)
    assert len([w for w in found if w.a != w.b]) == 6
    rows = inclusion_rows(registry.dekking_g, registry.dekking_g_source)
    filtered = [w for w, _ in rows]
    assert filtered == [w for w in found
                        if source_allows_pair(registry.dekking_g_source, w)]
    keys = [(w.a, w.b, w.c, w.offset) for w in filtered]
    assert keys == [(0, 1, 3, 3), (1, 0, 2, 2), (2, 3, 1, 4)]
    affixes = [(word_to_text(w.t), word_to_text(w.u)) for w in filtered]
    assert affixes == [("010", "110"), ("01", "0011"), ("0110", "10")]
    assert [r.method for _, r in rows] == ["no-right-extension"] * 3
    # the rows left out sit on pairs the source already forbids
    dropped = dropped_inclusions(registry.dekking_g, registry.dekking_g_source)
    assert set(dropped) == {(0, 0, 3, 3), (1, 1, 2, 2), (2, 2, 1, 4),
                            (3, 3, 0, 3), (1, 2, 2, 2), (1, 3, 2, 2),
                            (3, 2, 0, 3)}


def test_an_equal_pair_the_source_allows_is_an_inclusion():
    """00 is legal when the source forbids nothing, so the row on it
    stays."""
    m = Morphism(2, 2, (word_from_text("01"), word_from_text("10")))
    rows = [(w.a, w.b, w.c, w.offset)
            for w, _ in inclusion_rows(m, AvoidanceSpec(2))]
    assert (0, 0, 1, 1) in rows
    assert dropped_inclusions(m, AvoidanceSpec(2)) == []


def test_a_certificate_reads_no_inclusion(registry, monkeypatch):
    """The long roots rest on the synchronization delay, so a certificate
    neither scans nor refutes an inclusion."""
    calls = []
    for name in ("find_inclusions", "refute_inclusion"):
        monkeypatch.setattr(verify, name,
                            lambda *args, name=name: calls.append(name))
    cert = verify_square_transfer(registry.dekking_sub,
                                  registry.dekking_h_source,
                                  registry.squarefree4)
    assert cert.complete and calls == []
    assert "inclusions" not in cert.to_dict()


def test_coder_interchange_witness(registry):
    rows = find_interchanges(registry.dekking_g)
    assert len(rows) == 1
    w = rows[0]
    assert (w.a, w.b, w.c, w.split) == (2, 1, 3, 4)
    assert (word_to_text(w.s), word_to_text(w.t),
            word_to_text(w.u), word_to_text(w.v)) == \
        ("0110", "01", "0101", "10")
    assert w.splits == (4,)
    g = registry.dekking_g
    assert g.image(w.a) == w.s + w.t
    assert g.image(w.b) == w.u + w.v
    assert g.image(w.c) == w.s + w.v


def test_interchange_gap_pattern_descent(registry):
    pattern = GapPattern(1, 3, 2)
    evidence = prove_gap_pattern_absence(pattern, registry.dekking_g_source,
                                         fixed_point=(registry.dekking_h, 0))
    assert evidence.kind == "descent"
    assert evidence.complete
    # exhaustive cross-check at small gap lengths: no legal instance has a
    # gap of at most 8 letters
    spec = registry.dekking_g_source
    assert not any(satisfies_spec(pattern.word(row[1:].tobytes()), spec).ok
                   for chunk, _ in walk_legal(
                       spec, 9, np.array([[pattern.first]], np.uint8))
                   for row in chunk)


@pytest.mark.parametrize("name", ["dekking_sub", "fs_sub"])
def test_interchanges_never_repeat_a_class(registry, name):
    """An interchange whose middle letter shares a class with an end
    threatens no square, so the finder leaves it out and no gap pattern
    repeats a letter."""
    morphism, classes = getattr(registry, name).to_annotated()
    rows = find_interchanges(morphism, classes)
    assert all(classes[w.c] not in (classes[w.a], classes[w.b])
               for w in rows)
    # what the classes leave out is exactly the letter rows that repeat one
    assert rows == [w for w in find_interchanges(morphism)
                    if classes[w.c] not in (classes[w.a], classes[w.b])]


def test_interchange_closes_only_on_a_proof(registry):
    """Spec scope has no fixed point to descend on, and the exhaustive
    search of pattern 132 reaches its gap bound, so the interchange stays
    open and its row names that evidence."""
    cert = verify_square_transfer(registry.dekking_g,
                                  registry.dekking_g_source,
                                  registry.dekking_binary)
    assert [e.to_dict() for e in cert.gap_evidence] == [
        {"pattern": "132", "kind": "exhaustive", "complete": False,
         "detail": "only gaps <= 8 checked"}]
    [(wit, ref)] = cert.interchanges
    assert (wit.a, wit.b, wit.c, ref.method) == (2, 1, 3, "open")
    assert ref.detail == ("pattern 132 not ruled out: exhaustive,"
                          " only gaps <= 8 checked")
    assert cert.residual == ("interchange (2,1,3) unresolved",)


def test_realizable_gap_pattern_is_found():
    """010 is squarefree, so the search does not close: over four letters,
    where its walk reaches the gap bound, and over two, where the walk dies
    below it."""
    pattern = GapPattern(0, 1, 0)
    for size in (4, 2):
        spec = AvoidanceSpec(size, square_min_root=1)
        assert satisfies_spec(pattern.word(b""), spec).ok
        assert not _exhaustive_viability(pattern, spec, 4)
        assert not prove_gap_pattern_absence(pattern, spec).complete


@pytest.mark.parametrize("pattern, spec, on_fixed_point, verdict", [
    (GapPattern(0, 1, 1), AvoidanceSpec(4), True, ("follower", True)),
    (GapPattern(0, 0, 0), AvoidanceSpec(4), True, ("exhaustive", False)),
    (GapPattern(0, 0, 0),
     AvoidanceSpec(2, (word_from_text("00"),), square_min_root=2), False,
     ("exhaustive", True)),
], ids=["follower", "open", "exhaustive"])
def test_gap_evidence_rungs_hold_by_brute_force(registry, pattern, spec,
                                                on_fixed_point, verdict):
    """A complete verdict holds on every short legal word of the spec, and
    with a Dekking fixed point also on a prefix of it.  With a fixed point
    the rungs ask its spec, as a fixed-point certificate does; 000 over the
    Dekking fixed point has no proof and no rung reads a prefix, so it
    stays open."""
    fixed_point = (registry.dekking_h, 0) if on_fixed_point else None
    if on_fixed_point:
        spec = verify._fixed_point_spec(spec, fixed_point, 3)
    evidence = prove_gap_pattern_absence(pattern, spec, fixed_point)
    assert (evidence.kind, evidence.complete) == verdict
    if not evidence.complete:
        return
    words = [w for level in naive_legal_words(spec, 14) for w in level]
    if on_fixed_point:
        words.append(fixed_point_prefix(registry.dekking_h, 0, 1500))
    assert not any(naive_gap_occurrences(w, pattern) for w in words)


def test_repetitive_fixed_point_is_certified_without_a_prefix(monkeypatch):
    """2 -> 22 fills the fixed point with long one-letter runs, which a gap
    scan of its 100,000-letter prefix once took seconds over.  No rung reads
    a prefix now, so pattern 201 stays open on its exhaustive search."""
    def images(*texts):
        return tuple(word_from_text(t) for t in texts)

    def no_prefix(*args):
        raise AssertionError("the verifier read a fixed-point prefix")

    monkeypatch.setattr(FixedPointStream, "prefix", no_prefix)
    start = time.perf_counter()
    cert = verify_square_transfer(
        Morphism(4, 2, images("11110", "11001", "01110", "00011")),
        AvoidanceSpec(4, square_whitelist=(), cubefree=True),
        AvoidanceSpec(2, forbidden=images("100", "00"), cubefree=True),
        fixed_point=(Morphism(4, 4, images("01", "02", "22", "13")), 0))
    elapsed = time.perf_counter() - start
    assert not cert.complete
    assert [e.to_dict() for e in cert.gap_evidence] == [
        {"pattern": "023", "kind": "follower", "complete": True,
         "detail": "023 illegal; followers of 2 are {0} and none may"
                   " follow 0"},
        {"pattern": "201", "kind": "exhaustive", "complete": False,
         "detail": "only gaps <= 8 checked"}]
    assert [(w.a, w.b, w.c, r.detail) for w, r in cert.interchanges] == [
        (1, 2, 0, "pattern 201 not ruled out: exhaustive, only gaps <= 8"
                  " checked"),
        (3, 0, 2, "pattern 023 ruled out by follower")]
    assert cert.residual == (
        "bounded case: image of 0 has cube of root 1 at 0: 111",
        "bounded case: image of 1 has forbidden at 1: 100",
        "bounded case: image of 2 has cube of root 1 at 1: 111",
        "interchange (1,2,0) unresolved")
    assert elapsed < 1


@pytest.mark.parametrize("budget", [1, 1 << 20])
@pytest.mark.parametrize("spec, pattern", [
    (AvoidanceSpec(4, square_min_root=1), GapPattern(0, 1, 0)),
    (AvoidanceSpec(3, (word_from_text("021"),), square_min_root=2,
                   cubefree=True), GapPattern(0, 2, 1)),
    (AvoidanceSpec(2, square_min_root=1), GapPattern(0, 0, 1)),
    (AvoidanceSpec(2, square_min_root=1), GapPattern(0, 1, 0)),
])
def test_gap_instance_has_the_least_gap_word(monkeypatch, budget, spec,
                                             pattern):
    """The search closes exactly when no gap of at most max_gap letters
    makes a legal pattern word and every legal first + alpha has alpha
    shorter than max_gap, however many words a chunk of the walk holds."""
    monkeypatch.setattr(counting, "_SCREEN_BYTES", budget)
    max_gap = 4
    alphas = [alpha for n in range(max_gap + 1)
              for alpha in all_words(spec.alphabet_size, n)
              if naive_satisfies(bytes([pattern.first]) + alpha, spec)]
    found = [a for a in alphas if naive_satisfies(pattern.word(a), spec)]
    assert _exhaustive_viability(pattern, spec, max_gap) == (
        not found and all(len(a) < max_gap for a in alphas))


def test_core_certificate(registry):
    cert = verify_square_transfer(registry.dekking_h,
                                  registry.dekking_h_source,
                                  registry.squarefree4, name="core")
    assert cert.complete
    assert (cert.sync_delay, cert.root_cap) == (12, 20)
    assert cert.bounded.max_source_length == 6
    assert cert.bounded.legal_counts == (0, 4, 8, 17, 28, 49, 82)
    assert not cert.bounded.violations
    assert not cert.interchanges
    assert len(inclusion_rows(registry.dekking_h,
                              registry.dekking_h_source)) == 1
    assert dropped_inclusions(registry.dekking_h,
                              registry.dekking_h_source) == []


def test_coder_certificate(registry):
    cert = verify_square_transfer(registry.dekking_g,
                                  registry.dekking_g_source,
                                  registry.dekking_binary,
                                  fixed_point=(registry.dekking_h, 0),
                                  name="coder")
    assert cert.complete
    assert (cert.sync_delay, cert.root_cap) == (9, 12)
    assert cert.bounded.legal_counts == (0, 4, 8, 14, 20, 28, 34)
    assert len(cert.interchanges) == 1
    assert dropped_inclusions(registry.dekking_g,
                              registry.dekking_g_source) == [
        (0, 0, 3, 3), (1, 1, 2, 2), (1, 2, 2, 2), (1, 3, 2, 2), (2, 2, 1, 4),
        (3, 2, 0, 3), (3, 3, 0, 3)]
    assert [e.kind for e in cert.gap_evidence] == ["descent"]


def test_substitution_certificate(registry):
    cert = verify_square_transfer(registry.dekking_sub,
                                  registry.dekking_h_source,
                                  registry.squarefree4, name="sub")
    assert cert.complete
    assert cert.sync_delay == 14
    assert cert.classes == (0, 1, 2, 3, 1)
    assert cert.bounded.legal_counts == (0, 5, 11, 28, 51, 103, 197)
    rows = [((w.a, w.b, w.c, w.offset), r.method) for w, r in inclusion_rows(
        registry.dekking_sub, registry.dekking_h_source)]
    assert rows == [((3, 1, 2, 6), "no-right-extension"),
                    ((3, 4, 2, 6), "no-left-extension")]
    assert dropped_inclusions(registry.dekking_sub,
                              registry.dekking_h_source) == [
        (2, 2, 4, 4), (4, 1, 2, 6), (4, 4, 2, 6)]
    assert not cert.interchanges


def test_corrupted_core_yields_incomplete_certificate(registry):
    # 0 -> 0010... starts with a square, which the bounded case must catch
    broken = with_image_letter(registry.dekking_h, 0, 1, 0)
    cert = verify_square_transfer(broken, registry.dekking_h_source,
                                  registry.squarefree4, name="broken")
    assert not cert.complete
    assert cert.bounded.violations
    assert any("bounded case" in line for line in cert.residual)


# ---------------------------------------------------------------------------
# Second construction: 24-uniform core plus 6-uniform coder.

def test_fs_core_certificate(registry):
    cert = verify_square_transfer(registry.fs_h, registry.fs_h_source,
                                  AvoidanceSpec(5, square_min_root=1),
                                  name="fs core")
    assert cert.complete
    assert (cert.sync_delay, cert.root_cap) == (31, 48)
    assert cert.bounded.legal_counts == (0, 5, 13, 35, 83, 202, 478)
    [(w, r)] = inclusion_rows(registry.fs_h, registry.fs_h_source)
    assert (w.a, w.b, w.c, w.offset, word_to_text(w.t), word_to_text(w.u)) \
        == (3, 2, 0, 13, "0123212343234", "01232101234")
    assert r.method == "no-left-extension"
    assert not cert.interchanges


# Rows whose pair the source allows and whose affixes both extend stay
# open: no certificate reads them.
FS_CODER_ROWS = [
    ((0, 1, 3, 2), "open"),
    ((0, 2, 0, 5), "pair-illegal"),
    ((1, 0, 4, 2), "open"),
    ((1, 2, 0, 5), "no-left-extension"),
    ((2, 1, 4, 1), "no-right-extension"),
    ((2, 3, 4, 1), "no-right-extension"),
    ((2, 4, 4, 1), "pair-illegal"),
    ((3, 2, 0, 5), "no-left-extension"),
    ((3, 4, 1, 4), "open"),
    ((4, 3, 0, 4), "open"),
]


def test_fs_coder_rows_and_methods(registry):
    rows = [w for w in find_inclusions(registry.fs_g) if w.a != w.b]
    assert len(rows) == 10
    table = []
    for wit in sorted(rows, key=lambda w: (w.a, w.b, w.c, w.offset)):
        ref = refute_inclusion(registry.fs_g, wit, registry.fs_g_source)
        table.append(((wit.a, wit.b, wit.c, wit.offset), ref.method))
        assert ref.ok == (ref.method != "open")
    assert table == FS_CODER_ROWS


def test_fs_coder_certificate(registry):
    cert = verify_square_transfer(registry.fs_g, registry.fs_g_source,
                                  registry.fs_binary,
                                  fixed_point=(registry.fs_h, 0),
                                  name="fs coder")
    assert cert.complete
    assert (cert.sync_delay, cert.root_cap) == (19, 18)
    assert cert.bounded.legal_counts == (0, 5, 9, 14, 19, 24, 31, 38, 45)
    # the source filter drops two illegal pairs
    assert len(inclusion_rows(registry.fs_g, registry.fs_g_source)) == 8
    assert not cert.interchanges


def test_fs_whitelist_square_comes_from_one_factor(registry):
    image = registry.fs_g.apply(word_from_text("434010"))
    middle = word_from_text("01110010110001")
    assert image == word_from_text("1100") + middle * 2 + word_from_text("1100")


def test_fs_substitution_certificate(registry):
    sub = registry.fs_sub
    assert sub.count_images(registry.fs_h.image(0)) == 16
    cert = verify_square_transfer(sub, registry.fs_h_target,
                                  registry.fs_g_source, name="fs sub")
    assert cert.complete
    assert cert.classes == (0, 1, 2, 3, 4, 0)
    assert cert.sync_delay == 31
    assert cert.bounded.legal_counts == (0, 6, 12, 19, 28, 46, 72)
    rows = [((w.a, w.b, w.c, w.offset), r.method)
            for w, r in inclusion_rows(sub, registry.fs_h_target)]
    assert rows == [((3, 2, 0, 13), "no-left-extension")]
    assert dropped_inclusions(sub, registry.fs_h_target) == [
        (0, 0, 2, 11), (2, 2, 0, 13), (2, 5, 0, 13), (3, 5, 0, 13)]
    triples = [(w.a, w.b, w.c) for w, _ in cert.interchanges]
    assert triples == [(2, 1, 5), (2, 4, 5), (5, 3, 2)]
    assert cert.scope == "spec"
    evidence = {(e.pattern.first, e.pattern.middle, e.pattern.last): e.kind
                for e in cert.gap_evidence}
    assert evidence == {(1, 0, 2): "follower", (4, 0, 2): "follower",
                        (3, 2, 0): "follower"}
    assert all(e.complete for e in cert.gap_evidence)


# ---------------------------------------------------------------------------
# Third construction: 3-uniform morphisms with no obstructions at all.

def test_shuffle_core_has_no_obstructions(registry):
    assert find_inclusions(registry.pu_h) == []
    assert find_interchanges(registry.pu_h) == []
    cert = verify_square_transfer(registry.pu_h, registry.pu_source,
                                  registry.squarefree4, name="shuffle core")
    assert cert.complete
    assert cert.sync_delay == 2 and not cert.interchanges


def test_shuffle_coders_certificates(registry):
    for coder in (registry.pu_g1, registry.pu_g2):
        cert = verify_square_transfer(coder, registry.pu_source,
                                      registry.pu_binary,
                                      fixed_point=(registry.pu_h, 0))
        assert cert.complete
        assert (cert.sync_delay, cert.root_cap) == (9, 8)
        assert len(inclusion_rows(coder, registry.pu_source)) == 12
        triples = tuple((w.a, w.b, w.c) for w, _ in cert.interchanges)
        assert triples == ((0, 3, 2), (1, 2, 3), (2, 1, 0), (3, 0, 1))
        assert all(e.kind == "descent" and e.complete
                   for e in cert.gap_evidence)


@pytest.mark.parametrize("coder", ["pu_g1", "pu_g2"])
def test_shuffle_coders_hold_on_the_fixed_point_past_twice_the_width(
        registry, coder):
    """At cap 13 = 5W - 2 the bounded case walks only the fixed point's
    factors, none of whose images holds a square of root 8 or 9."""
    cert = verify_square_transfer(getattr(registry, coder),
                                  registry.pu_source, registry.pu_binary,
                                  root_cap=13, fixed_point=(registry.pu_h, 0))
    assert cert.scope == "fixed-point"
    assert cert.bounded.words_checked == 400
    assert cert.complete


def test_shuffle_coder_fails_on_a_source_word_off_the_fixed_point(registry):
    """310120 is pu_source-legal but not a factor of the PU core, and its
    image under g1 starts with a root-8 square."""
    cert = verify_square_transfer(registry.pu_g1, registry.pu_source,
                                  registry.pu_binary, root_cap=13)
    assert cert.scope == "spec"
    word = word_from_text("310120")
    assert word not in exact_factors(registry.pu_h, 0, 6)
    assert word in [w for w, _ in cert.bounded.violations]
    image = registry.pu_g1.apply(word)
    assert word_to_text(image) == "110101001101010001"
    assert image[:8] == image[8:16]
    assert not cert.complete


# The packaged certificates that speak of a fixed point: coder, source,
# target and the fixed point's morphism (seed 0).
FIXED_POINT_CERTIFICATES = [
    ("dekking_g", "dekking_g_source", "dekking_binary", "dekking_h"),
    ("fs_g", "fs_g_source", "fs_binary", "fs_h"),
    ("pu_g1", "pu_source", "pu_binary", "pu_h"),
    ("pu_g2", "pu_source", "pu_binary", "pu_h"),
]


@pytest.mark.parametrize("cap", [None, 13])
@pytest.mark.parametrize("coder, source, target, core",
                         FIXED_POINT_CERTIFICATES,
                         ids=[r[0] for r in FIXED_POINT_CERTIFICATES])
def test_fixed_point_bounded_case_walks_its_legal_factors(registry, coder,
                                                          source, target,
                                                          core, cap):
    """Each length of a fixed-point bounded case counts exactly the
    source-legal factors of that length, read off a long prefix; a bounded
    case that walks source-legal words off the fixed point counts more."""
    spec = getattr(registry, source)
    cert = verify_square_transfer(getattr(registry, coder), spec,
                                  getattr(registry, target), root_cap=cap,
                                  fixed_point=(getattr(registry, core), 0))
    assert not cert.bounded.violations
    assert cert.complete == (
        cert.root_cap >= max(2 * cert.width, cert.sync_delay - 1))
    prefix = fixed_point_prefix(getattr(registry, core), 0, 20_000)
    for k, count in enumerate(cert.bounded.legal_counts[1:], start=1):
        factors = {prefix[i:i + k] for i in range(len(prefix) - k + 1)}
        assert count == sum(naive_satisfies(f, spec) for f in factors)


def test_shuffle_coder_splits_differ(registry):
    g1 = {(w.a, w.b, w.c): w.splits
          for w in find_interchanges(registry.pu_g1)}
    g2 = {(w.a, w.b, w.c): w.splits
          for w in find_interchanges(registry.pu_g2)}
    assert set(g1) == set(g2)
    assert all(s == (1,) for s in g1.values())
    assert all(s == (2,) for s in g2.values())


# ---------------------------------------------------------------------------
# Bounded channel on its own.

def test_bounded_case_counts_agree_with_certificate(registry):
    report = bounded_case_check(registry.dekking_h,
                                registry.dekking_h_source,
                                registry.squarefree4, 20)
    assert report.words_checked == sum(report.legal_counts)
    assert report.legal_counts[5] == 49
    assert not report.violations


@st.composite
def letter_classes(draw, size):
    """(alphabet, classes): the morphism's own letters, or in some draws 2 or
    3 classes that each hold a letter."""
    if not draw(st.booleans()):
        return size, None
    alphabet = draw(st.integers(2, min(3, size)))
    extra = draw(st.lists(st.integers(0, alphabet - 1),
                          min_size=size - alphabet, max_size=size - alphabet))
    return alphabet, tuple(draw(st.permutations([*range(alphabet), *extra])))


@given(uniform_morphisms(), st.data())
@settings(max_examples=150, deadline=None)
def test_bounded_case_matches_brute_force(morphism, data):
    """Every source word up to the bounded-case depth, kept when its
    projection is source-legal and the images of its proper prefixes are
    clean; the kept words with a dirty image are the violations, in
    lexicographic preorder."""
    width = morphism.uniform_width
    alphabet, classes = data.draw(letter_classes(morphism.source_size))
    source = data.draw(specs(alphabet))
    target = data.draw(specs(morphism.target_size, 2 * width + 3))
    caps = [cap for cap in (1, width, 2 * width, 2 * width + 3)
            if morphism.source_size ** bounded_reach(width, cap, target)
            <= 4096]
    cap = data.draw(st.sampled_from(caps))
    max_len = bounded_reach(width, cap, target)

    def project(word):
        return word if classes is None else bytes(classes[x] for x in word)

    def clean(word):
        return naive_satisfies(morphism.apply(word), target, max_root=cap)

    kept = sorted(w for n in range(1, max_len + 1)
                  for w in all_words(morphism.source_size, n)
                  if naive_satisfies(project(w), source)
                  and all(clean(w[:k]) for k in range(1, len(w))))
    report = bounded_case_check(morphism, source, target, cap, classes)
    assert report.max_source_length == max_len
    assert report.legal_counts == tuple(
        sum(1 for w in kept if len(w) == n) for n in range(max_len + 1))
    assert report.words_checked == len(kept)
    assert report.violations == tuple(
        (w, satisfies_spec(morphism.apply(w), target,
                           max_root=cap).violation)
        for w in kept if not clean(w))


def bounded_reach(width, cap, target):
    """The source letters whose images hold, from any phase, every target
    violation of root at most cap: a square of root cap (one block more
    where W divides 2 cap), a cube of a root the target checks cubes at,
    up to cap, and each forbidden factor."""
    if target.square_min_root is not None:
        cube_top = target.square_min_root - 1
    elif target.square_whitelist is not None:
        cube_top = max((len(s) // 2 for s in target.square_whitelist),
                       default=0)
    else:
        cube_top = cap
    spans = [len(f) for f in target.forbidden]
    if target.cubefree:
        spans.append(3 * min(cap, cube_top))
    return max([(2 * cap) // width + 2]
               + [next(n for n in itertools.count(1)
                       if width - 1 + span <= n * width) for span in spans])


def dfs_bounded_case(morphism, source, target, root_cap, classes=None):
    """The bounded case as one word-by-word walk in lexicographic preorder:
    an extension is legal when its projection passes `suffix_legal`, each
    legal word's image is checked whole, and a violation prunes the word's
    extensions.  The words reach every violation of root at most root_cap
    (`bounded_reach`)."""
    max_len = bounded_reach(morphism.uniform_width, root_cap, target)
    counts = [0] * (max_len + 1)
    violations = []
    letters = classes or tuple(range(morphism.source_size))
    stack = [b""]
    while stack:
        word = stack.pop()
        if word:
            counts[len(word)] += 1
            bad = satisfies_spec(morphism.apply(word), target,
                                 max_root=root_cap).violation
            if bad is not None:
                violations.append((word, bad))
                continue
        if len(word) < max_len:
            children = [word + bytes([x]) for x in range(len(letters))]
            stack += reversed([ext for ext in children if suffix_legal(
                bytes(letters[x] for x in ext), source)])
    return BoundedCaseReport(max_len, sum(counts), tuple(counts),
                             tuple(violations))


@st.composite
def block_targets(draw, morphism, cap):
    """Target specs cut from images so that they hit: forbidden factors
    spanning two or three image blocks, whitelist roots up to the cap, maybe
    cubes, and maybe one image letter too many."""
    width = morphism.uniform_width
    alphabet = draw(st.integers(morphism.target_size - 1, morphism.target_size))
    source = st.lists(st.integers(0, morphism.source_size - 1),
                      min_size=4, max_size=4).map(bytes)

    def cut(shortest, longest):
        image = morphism.apply(draw(source))
        n = draw(st.integers(shortest, longest))
        at = draw(st.integers(0, len(image) - n))
        return image[at:at + n]

    forbidden = tuple(cut(width + 1, 2 * width + 1)
                      for _ in range(draw(st.integers(0, 2))))
    cubefree = draw(st.booleans())
    policy = draw(st.sampled_from(("min-root", "whitelist", "any")))
    if policy == "min-root":
        squares = {"square_min_root": draw(st.integers(1, cap + 1))}
    elif policy == "whitelist":
        roots = [cut(1, cap) for _ in range(draw(st.integers(0, 3)))]
        squares = {"square_whitelist": tuple(r + r for r in roots)}
    else:
        squares = {}
    return AvoidanceSpec(alphabet, forbidden, cubefree=cubefree, **squares)


@seed(8)
@given(uniform_morphisms(), st.data())
@settings(max_examples=100, deadline=None)
def test_bounded_case_matches_the_walk_across_blocks(morphism, data):
    width = morphism.uniform_width
    alphabet, classes = data.draw(letter_classes(morphism.source_size))
    caps = [cap for cap in (1, width, 2 * width, 2 * width + 3)
            if morphism.source_size ** ((2 * cap) // width + 2) <= 4096]
    cap = data.draw(st.sampled_from(caps))
    source = data.draw(specs(alphabet))
    target = data.draw(block_targets(morphism, cap))
    assert (bounded_case_check(morphism, source, target, cap, classes)
            == dfs_bounded_case(morphism, source, target, cap, classes))


@pytest.mark.parametrize("rows", [1, 3])
def test_bounded_case_is_the_same_in_small_chunks(registry, monkeypatch,
                                                  rows):
    fs_sub, classes = registry.fs_sub.to_annotated()
    cases = [(registry.dekking_h, registry.dekking_h_source,
              registry.squarefree4, 20, None),
             (registry.pu_g1, registry.pu_source, registry.pu_binary, 9, None),
             (fs_sub, registry.fs_h_target, registry.fs_g_source, 48, classes)]
    expected = [bounded_case_check(*case) for case in cases]
    assert len(expected[1].violations) == 16
    for case, report in zip(cases, expected):
        morphism, cap = case[0], case[3]
        width = morphism.uniform_width
        # `rows` source words a chunk of the longest, and more at shorter ones
        widest = (((2 * cap) // width + 3) * morphism.source_size
                  * (1 + width))
        monkeypatch.setattr(counting, "_SCREEN_BYTES",
                            1 if rows == 1 else rows * 4 * (widest + 1))
        assert counting._chunk_rows(widest) == rows
        assert bounded_case_check(*case) == report


def test_bounded_case_refuses_a_flagged_clean_image(registry, monkeypatch):
    """A target step that flags an image the whole-word check passes is an
    error, not a violation without a kind."""

    class FlagsEveryImage(words.ColumnStep):
        def fold(self, cols, first, new, runs=None):
            runs, whole, part = super().fold(cols, first, new, runs)
            return runs, np.ones_like(whole), part

    monkeypatch.setattr(verify, "ColumnStep", FlagsEveryImage)
    with pytest.raises(AssertionError, match="clean image"):
        bounded_case_check(registry.dekking_h, registry.dekking_h_source,
                           registry.squarefree4, 20)


def test_bounded_case_builds_one_step_per_spec(registry, monkeypatch):
    """The walk's source step and one target step check every chunk: the
    images' runs are carried, not rebuilt per chunk."""
    built = []
    init = words.ColumnStep.__init__

    def counted(self, spec, *args):
        built.append(spec)
        init(self, spec, *args)

    monkeypatch.setattr(words.ColumnStep, "__init__", counted)
    fs_sub, classes = registry.fs_sub.to_annotated()
    report = bounded_case_check(fs_sub, registry.fs_h_target,
                                registry.fs_g_source, 48, classes)
    assert report.words_checked > 100
    assert len(built) == 2
    assert set(built) == {registry.fs_h_target, registry.fs_g_source}


def test_bounded_case_rejects_negative_root_cap(registry):
    with pytest.raises(ValueError):
        bounded_case_check(registry.dekking_h, registry.dekking_h_source,
                           registry.squarefree4, -1)


def test_bounded_case_stops_at_its_budget(registry, monkeypatch):
    """A walk that reaches its budget of source words stops there, and the
    certificate names the budget, so a stopped walk is never complete."""
    case = (registry.dekking_h, registry.dekking_h_source,
            registry.squarefree4)
    assert verify_square_transfer(*case).bounded.words_checked == 188
    monkeypatch.setattr(verify, "_BOUNDED_WORDS", 100)
    cert = verify_square_transfer(*case)
    assert 100 <= cert.bounded.words_checked < 188
    assert not cert.complete
    assert cert.residual == (
        "bounded case stopped at its budget of 100 source words",)


@pytest.mark.slow
def test_a_walk_without_bound_stops_at_the_budget():
    """D = 14 and cap 13 here: the full bounded case walks millions of
    source words, so the budget stops it and the residual says so."""
    m = Morphism(4, 3, tuple(word_from_text(t)
                             for t in ("11", "22", "01", "20")))
    cert = verify_square_transfer(m, AvoidanceSpec(4, square_min_root=2),
                                  AvoidanceSpec(3, square_min_root=2))
    assert (cert.sync_delay, cert.root_cap) == (14, 13)
    assert cert.bounded.words_checked >= verify._BOUNDED_WORDS
    assert not cert.complete
    assert cert.residual[0].startswith(
        f"bounded case stopped at its budget of {verify._BOUNDED_WORDS}")


# 0 -> 0010, 1 -> 0111: every image holds the square 00.
SQUARE_IMAGES = Morphism(2, 2, (word_from_text("0010"), word_from_text("0111")))


@pytest.mark.parametrize("cap", [0, 4, 7])
def test_root_cap_below_twice_the_width_is_never_complete(cap):
    cert = verify_square_transfer(SQUARE_IMAGES, AvoidanceSpec(2),
                                  AvoidanceSpec(2, square_min_root=1),
                                  root_cap=cap)
    assert not cert.complete
    assert f"roots {cap + 1}..8 unchecked" in cert.residual[0]


def test_root_cap_of_one_width_hides_a_long_square():
    """With the cap at W the bounded case misses a root-5 square, below the
    synchronization delay 7, so the residual names the roots left out."""
    m = Morphism(3, 2, tuple(word_from_text(t) for t in ("000", "101", "111")))
    source = AvoidanceSpec(3, square_min_root=1)
    target = AvoidanceSpec(2, square_min_root=3)
    image = m.apply(word_from_text("2120"))
    assert satisfies_spec(image, target).violation.root_length == 5
    capped = verify_square_transfer(m, source, target, root_cap=3)
    assert capped.sync_delay == 7
    assert not capped.bounded.violations
    assert capped.residual == ("root cap 3 is below max(2W, D - 1) = 6:"
                               " roots 4..6 unchecked",)
    assert not verify_square_transfer(m, source, target).complete


def test_source_letters_without_an_image_are_rejected():
    # the ternary source word 012 has no image under a binary morphism
    m = Morphism(2, 2, (word_from_text("0000"), word_from_text("0101")))
    with pytest.raises(ValueError, match="only 2 have an image"):
        verify_square_transfer(m, AvoidanceSpec(3, square_min_root=1),
                               AvoidanceSpec(2, square_min_root=3))


def test_sync_delay_rejects_a_ragged_morphism():
    with pytest.raises(ValueError, match="uniform morphism"):
        sync_delay(Morphism(2, 2, (b"\x00", b"\x00\x01")), AvoidanceSpec(2))


def test_sync_delay_rejects_empty_images():
    with pytest.raises(ValueError, match="nonempty images"):
        sync_delay(Morphism(2, 2, (b"", b"")), AvoidanceSpec(2))


def test_delay_and_bounded_case_reject_source_letters_without_an_image():
    """Both would walk the binary words only and skip letter 2, or with the
    classes (0, 2) skip letter 1."""
    m = Morphism(2, 2, (word_from_text("01"), word_from_text("10")))
    source = AvoidanceSpec(3, square_min_root=1)
    target = AvoidanceSpec(2, square_min_root=2)
    for classes in (None, (0, 2)):
        with pytest.raises(ValueError, match="only 2 have an image"):
            bounded_case_check(m, source, target, 4, classes)
        with pytest.raises(ValueError, match="only 2 have an image"):
            sync_delay(m, source, classes)


def allows_squares_from_fields(spec, root):
    """Whether the spec allows a square of some root of `root` or more, read
    off its fields."""
    if spec.square_min_root is not None:
        return spec.square_min_root > root
    return spec.square_whitelist is None or any(
        len(square) >= 2 * root for square in spec.square_whitelist)


@st.composite
def square_policies(draw):
    """A spec on 2 or 3 letters with a min-root, a whitelist (in some draws
    holding every letter's square) or no square rule."""
    size = draw(st.integers(2, 3))
    policy = draw(st.sampled_from(("min-root", "whitelist", "letters",
                                   "none")))
    if policy == "min-root":
        return AvoidanceSpec(size, square_min_root=draw(st.integers(1, 4)))
    if policy == "none":
        return AvoidanceSpec(size, cubefree=draw(st.booleans()))
    roots = draw(st.lists(st.lists(st.integers(0, size - 1), min_size=1,
                                   max_size=3).map(bytes), max_size=3))
    if policy == "letters":
        roots += [bytes((a,)) for a in range(size)]
    return AvoidanceSpec(size, square_whitelist=tuple(
        dict.fromkeys(r + r for r in roots)))


@given(square_policies(), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
@example(AvoidanceSpec(2, square_whitelist=(b"\x00\x00", b"\x01\x01")), 1)
@example(AvoidanceSpec(2, square_whitelist=(b"\x00\x00", b"\x01\x01")), 2)
def test_allowed_squares_come_from_the_repetition_rules(spec, root):
    assert verify._allows_squares_from(spec, root) == (
        allows_squares_from_fields(spec, root))


# Statements the verifier once called COMPLETE at the cap 2W: images, target
# alphabet, target min-root, a squarefree source word whose image holds a
# square of root 2W + 1, where, and the synchronization delay D.
FALSE_COMPLETE = [
    ("01 00 12 22", 3, 4, "323103123", (7, 5), 6),
    ("0000 1010 0110 1111", 2, 8, "20302", (1, 9), 10),
    ("1101 0000 1010", 2, 9, "02101", (2, 9), 11),
    ("0000 1101 1010", 2, 9, "12010", (2, 9), 11),
    ("11 12 00 20", 3, 5, "012032", (1, 5), 6),
    ("22 10 00 21", 3, 5, "032012", (1, 5), 6),
]


def _false_complete_case(images, target_size, min_root):
    m = Morphism(len(images.split()), target_size,
                 tuple(word_from_text(t) for t in images.split()))
    return (m, AvoidanceSpec(m.source_size, square_min_root=1),
            AvoidanceSpec(target_size, square_min_root=min_root))


@pytest.mark.parametrize("images,target_size,min_root,text,where",
                         [r[:5] for r in FALSE_COMPLETE],
                         ids=[r[0] for r in FALSE_COMPLETE])
def test_false_complete_rows_break_the_target(images, target_size, min_root,
                                              text, where):
    m, source, target = _false_complete_case(images, target_size, min_root)
    word = word_from_text(text)
    assert satisfies_spec(word, source).ok
    bad = satisfies_spec(m.apply(word), target).violation
    assert (bad.position, bad.root_length) == where
    assert where[1] == 2 * m.uniform_width + 1


def assert_refuted_below_the_delay(images, target_size, min_root, delay):
    """At the default cap max(2W, D - 1) the bounded case reaches the
    missed root, so only counterexamples are left open."""
    m, source, target = _false_complete_case(images, target_size, min_root)
    cert = verify_square_transfer(m, source, target)
    assert cert.sync_delay == delay
    assert cert.root_cap == max(2 * m.uniform_width, delay - 1)
    assert not cert.complete
    assert cert.bounded.violations
    assert all(line.startswith("bounded case: ") for line in cert.residual)


@pytest.mark.parametrize("images,target_size,min_root,delay",
                         [r[:3] + r[5:] for r in FALSE_COMPLETE],
                         ids=[r[0] for r in FALSE_COMPLETE])
def test_default_cap_reaches_a_root_past_twice_the_width(images, target_size,
                                                         min_root, delay):
    assert_refuted_below_the_delay(images, target_size, min_root, delay)


# The same for missed squares longer than 2W + 1: images, target alphabet,
# target min-root, a squarefree source word, where its image breaks the
# target, and D.
FALSE_COMPLETE_LONG = [
    ("210 022 101 121", 3, 8, "103120", (2, 8), 9),
    ("1111 1000 1010 0011", 2, 10, "323123210", (15, 10), 13),
    ("0000 0111 1010 1101", 2, 11, "323130120", (14, 11), 14),
    ("1110 0000 0100 1001", 2, 13, "32130120", (5, 13), 14),
]


@pytest.mark.parametrize("images,target_size,min_root,text,where",
                         [r[:5] for r in FALSE_COMPLETE_LONG],
                         ids=[r[0] for r in FALSE_COMPLETE_LONG])
def test_long_false_complete_rows_break_the_target(images, target_size,
                                                   min_root, text, where):
    m, source, target = _false_complete_case(images, target_size, min_root)
    word = word_from_text(text)
    assert satisfies_spec(word, source).ok
    bad = satisfies_spec(m.apply(word), target).violation
    assert (bad.position, bad.root_length) == where
    assert where[1] > 2 * m.uniform_width + 1


@pytest.mark.parametrize("images,target_size,min_root,delay",
                         [r[:3] + r[5:] for r in FALSE_COMPLETE_LONG],
                         ids=[r[0] for r in FALSE_COMPLETE_LONG])
def test_default_cap_reaches_a_long_root(images, target_size, min_root,
                                         delay):
    assert_refuted_below_the_delay(images, target_size, min_root, delay)


def test_bounded_case_reads_a_forbidden_factor_longer_than_its_squares(
        registry):
    """0123020 is a pu_source-legal prefix of the PU core's fixed point, and
    its 21-letter image is the target's one forbidden factor: the bounded
    case walks words long enough to hold it from any phase, 8 letters."""
    word = word_from_text("0123020")
    assert satisfies_spec(word, registry.pu_source).ok
    target = registry.squarefree4.replace(
        forbidden=(registry.pu_h.apply(word),))
    cert = verify_square_transfer(registry.pu_h, registry.pu_source, target)
    assert cert.bounded.max_source_length == 8
    assert word in [w for w, _ in cert.bounded.violations]
    assert not cert.complete


def naive_sync_delay(morphism, spec, top):
    """The least length l <= top at which the factors of l letters of the
    images of the legal words of l // W + 2 letters each start at one
    position mod W, by sets of (factor, phase); None when there is none."""
    width = morphism.uniform_width
    for length in range(1, top + 1):
        phases = {}
        for level in naive_legal_words(spec, length // width + 2):
            for word in level:
                image = morphism.apply(word)
                for i in range(min(width, len(image) - length + 1)):
                    phases.setdefault(image[i:i + length], set()).add(i)
        if all(len(found) == 1 for found in phases.values()):
            return length
    return None


@given(uniform_morphisms(), st.data())
@settings(max_examples=60, deadline=None)
def test_sync_delay_matches_the_definition(morphism, data):
    """Up to 3W, checked on small sources: the walk's answer is the least
    length with one phase a factor, or lies above 3W."""
    assume(morphism.injective_on_letters and morphism.source_size <= 3)
    source = data.draw(specs(morphism.source_size, 2))
    top = 3 * morphism.uniform_width
    delay = sync_delay(morphism, source)
    assert naive_sync_delay(morphism, source, top) == (
        delay if delay is not None and delay <= top else None)


def test_bounded_case_rejects_nonuniform():
    ragged = Morphism(2, 2, (b"\x00\x01", b"\x01"))
    with pytest.raises(ValueError):
        bounded_case_check(ragged, AvoidanceSpec(2), AvoidanceSpec(2), 4)


@pytest.mark.parametrize("name", ["dekking_h", "fs_h", "pu_h", "pu_f"])
def test_exact_factors_match_a_long_prefix(registry, name):
    morphism = getattr(registry, name)
    prefix = fixed_point_prefix(morphism, 0, 20_000)
    for k in range(1, 13):
        seen = {prefix[i:i + k] for i in range(len(prefix) - k + 1)}
        assert exact_factors(morphism, 0, k) == seen


@pytest.mark.parametrize("name", ["dekking_h", "fs_h", "pu_h"])
def test_gap_flanks_match_the_per_gap_word_rule(registry, name):
    """A pattern is in the flank set of a gap exactly when pattern.word(alpha)
    is an exact factor for some exact factor alpha of the gap's length."""
    morphism = getattr(registry, name)
    size = morphism.source_size
    patterns = [GapPattern(*letters) for letters in
                np.ndindex(size, size, size)]
    for gap in range(12):
        factors = exact_factors(morphism, 0, 2 * gap + 3)
        alphas = exact_factors(morphism, 0, gap) if gap else (b"",)
        flanks = verify._gap_flanks((morphism, 0), gap)
        for pattern in patterns:
            assert (pattern.letters() in flanks) == any(
                pattern.word(alpha) in factors for alpha in alphas)


def test_exact_factors_need_a_fixed_point(registry):
    # 1 -> 0310230102 does not start with 1, so no fixed point starts at 1
    with pytest.raises(ValueError, match="not prolongable at 1"):
        exact_factors(registry.dekking_h, 1, 2)


def test_module_caches_stay_bounded(registry):
    """Enough distinct fixed points to fill the module's factor cache past
    its bound; it keeps at most maxsize entries."""
    exact_factors.cache_clear()
    variants = {with_image_letter(registry.dekking_h, 1, position, letter)
                for position in range(10) for letter in range(4)}
    for morphism in variants:
        for length in range(1, 12):
            exact_factors(morphism, 0, length)
    info = exact_factors.cache_info()
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize


def test_kept_walks_stay_bounded():
    """Counting more specs than the counting module keeps walks of leaves
    it at its bound, with the specs walked last."""
    specs = [AvoidanceSpec(2, square_min_root=root)
             for root in range(1, counting._WALKS_KEPT + 5)]
    for spec in specs:
        counting.count_avoiding(spec, 6)
    assert list(counting._walks) == specs[-counting._WALKS_KEPT:]


# ---------------------------------------------------------------------------
# Soundness against brute force.

@st.composite
def transfer_statements(draw):
    """A random transfer statement: a uniform morphism of width 2 or 3 on 3
    or 4 letters, in some draws a substitution with a second image for one
    letter; a squarefree source, maybe with forbidden factors, or on 3
    letters a min-root 2 or whitelist source; a target with a min-root up
    to 5W, cubefree in some draws and with one forbidden factor cut from an
    image in some.  In some draws the statement speaks of a fixed point:
    that of a prolongable, injective endomorphism of width 2 or 3 on the
    source alphabet, at 0."""
    width = draw(st.integers(2, 3))
    size = draw(st.integers(3, 4))
    target_size = draw(st.integers(2, 3))
    letter = st.integers(0, size - 1)
    policy = draw(st.sampled_from(("squarefree", "min-root", "whitelist")
                                  if size == 3 else ("squarefree",)))
    extra = int(policy == "squarefree" and draw(st.booleans()))
    block = st.lists(st.integers(0, target_size - 1), min_size=width,
                     max_size=width).map(bytes)
    images = draw(st.lists(block, min_size=size + extra,
                           max_size=size + extra, unique=True))
    if extra:
        sets = [(image,) for image in images[:size]]
        twice = draw(letter)
        sets[twice] += (images[size],)
        morphism = Substitution(size, target_size, tuple(sets))
    else:
        morphism = Morphism(size, target_size, tuple(images))
    if policy == "whitelist":
        roots = draw(st.lists(letter.map(lambda a: bytes((a,))), max_size=2))
        squares = {"square_whitelist": tuple(r + r for r in roots)}
    else:
        squares = {"square_min_root": 1 if policy == "squarefree" else 2}
    factors = st.lists(letter, min_size=2, max_size=3).map(bytes)
    source = AvoidanceSpec(size, tuple(draw(st.lists(factors, max_size=2))),
                           **squares)
    cut = ()
    if draw(st.booleans()):
        image = b"".join(images[x] for x in draw(st.lists(
            letter, min_size=3, max_size=3)))
        n = draw(st.integers(width + 1, 3 * width))
        at = draw(st.integers(0, len(image) - n))
        cut = (image[at:at + n],)
    target = AvoidanceSpec(target_size, cut,
                           square_min_root=draw(st.integers(1, 5 * width)),
                           cubefree=draw(st.booleans()))
    fixed_point = None
    if draw(st.booleans()):
        span = draw(st.integers(2, 3))
        core = st.lists(letter, min_size=span, max_size=span).map(bytes)
        first = b"\x00" + draw(core)[1:]
        rest = draw(st.lists(core.filter(lambda image: image != first),
                             min_size=size - 1, max_size=size - 1,
                             unique=True))
        fixed_point = (Morphism(size, size, (first, *rest)), 0)
    return morphism, source, target, fixed_point


# The fixed-point prefix that a sound certificate is checked on.
_FUZZ_PREFIX = 1000


def assert_complete_means_sound(statement):
    """A COMPLETE certificate holds on every source-legal word of up to 8
    letters in its scope: each of its images passes the naive target check.
    Over a fixed point, that scope is checked on the factors of a prefix,
    which no pattern that block descent rules out may occur in either.
    Spec-scope statements with no delay up to 5W are left out, which keeps
    the bounded case small; they are not COMPLETE below that anyway.  Over
    a fixed point the bounded case walks only its few factors."""
    morphism, source, target, fixed_point = statement
    if fixed_point is None:
        flat, classes = (morphism.to_annotated()
                         if isinstance(morphism, Substitution)
                         else (morphism, None))
        delay = sync_delay(flat, source, classes)
        assume(delay is not None and delay <= 5 * flat.uniform_width)
    cert = verify_square_transfer(morphism, source, target,
                                  fixed_point=fixed_point)
    if fixed_point is not None:
        prefix = fixed_point_prefix(*fixed_point, _FUZZ_PREFIX)
        for evidence in cert.gap_evidence:
            if evidence.kind == "descent":
                assert not naive_gap_occurrences(prefix, evidence.pattern)
    if not cert.complete:
        return
    if fixed_point is None:
        words = [word for level in naive_legal_words(source, 8)
                 for word in level]
    else:
        words = [word for word in {prefix[i:i + n] for n in range(1, 9)
                                   for i in range(len(prefix) - n + 1)}
                 if naive_satisfies(word, source)]
    images = (morphism.iter_images if isinstance(morphism, Substitution)
              else lambda word: (morphism.apply(word),))
    for word in words:
        for image in images(word):
            assert naive_satisfies(image, target), word_to_text(word)


def with_false_completes(test):
    """Run the known false COMPLETEs of a cap of 2W first: each breaks its
    target on a word of at most 8 letters."""
    for images, target_size, min_root, *_ in (FALSE_COMPLETE
                                              + FALSE_COMPLETE_LONG):
        test = example((*_false_complete_case(images, target_size,
                                              min_root), None))(test)
    return test


def _texts(*texts):
    return tuple(word_from_text(t) for t in texts)


# The fixed point of 0 -> 01, 1 -> 20, 2 -> 00 starts 012, the coder's
# interchange pattern with gap 0, so block descent must leave it open.
PATTERN_IN_FIXED_POINT = (
    Morphism(3, 2, _texts("000", "100", "101")),
    AvoidanceSpec(3, square_min_root=1), AvoidanceSpec(2, square_min_root=1),
    (Morphism(3, 3, _texts("01", "20", "00")), 0))
# COMPLETE over the fixed point of 0 -> 01, 1 -> 20, 2 -> 00, 3 -> 10, with
# two of its gap patterns ruled out by block descent.
COMPLETE_OVER_FIXED_POINT = (
    Substitution(4, 2, (_texts("000"), _texts("001"), _texts("010", "101"),
                        _texts("011"))),
    AvoidanceSpec(4, square_min_root=1), AvoidanceSpec(2, square_min_root=3),
    (Morphism(4, 4, _texts("01", "20", "00", "10")), 0))


@seed(29)
@given(transfer_statements())
@settings(max_examples=50, deadline=None)
@example(PATTERN_IN_FIXED_POINT)
@example(COMPLETE_OVER_FIXED_POINT)
@with_false_completes
def test_complete_certificates_hold_by_brute_force(statement):
    assert_complete_means_sound(statement)


@pytest.mark.slow
@seed(2029)
@given(transfer_statements())
@settings(max_examples=500, deadline=None)
@example(PATTERN_IN_FIXED_POINT)
@example(COMPLETE_OVER_FIXED_POINT)
@with_false_completes
def test_complete_certificates_hold_by_brute_force_at_length(statement):
    assert_complete_means_sound(statement)
