"""Counting, minimal forbidden words, growth rates, families, exhaustion."""

import math
import random
from itertools import islice
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from wordavoid import (AvoidanceSpec, ExhaustReport, FactorAutomaton,
                       GrowthEstimate, build_automaton, count_avoiding,
                       exhaust_max_length, fixed_point_prefix, growth_rate,
                       lower_bound_family, minimal_forbidden, satisfies_spec,
                       walk_legal, word_from_text, word_to_text)
from wordavoid import counting
from wordavoid.words import ColumnStep
from wordavoid.scenarios import G_TABLE, H_TABLE, MINIMAL_SET_SIZES

from conftest import (all_words, naive_count, naive_legal_words,
                      naive_satisfies, specs)


def test_count_tables_match_frozen_values(registry):
    assert count_avoiding(registry.dekking_binary, 17).counts == G_TABLE
    assert count_avoiding(registry.fs_binary, 18).counts == H_TABLE


def test_count_csv_layout(registry):
    csv = count_avoiding(registry.dekking_binary, 3).to_csv()
    assert csv == "n,count\n0,1\n1,2\n2,4\n3,6\n"


@given(st.integers(0, 7))
@settings(max_examples=8, deadline=None)
def test_counts_match_naive_filter(n):
    spec = AvoidanceSpec(2, square_min_root=2)
    assert count_avoiding(spec, n).counts[n] == naive_count(spec, n)


@given(st.integers(2, 3).flatmap(specs), st.integers(0, 8))
@settings(max_examples=50, deadline=None)
def test_pruned_naive_counts_match_the_product_enumeration(spec, n):
    assert ([len(words) for words in naive_legal_words(spec, n)]
            == [naive_count(spec, k) for k in range(n + 1)])


def test_counts_match_naive_on_registry_specs(registry):
    for name in ("dekking_binary", "fs_binary", "ejs2"):
        spec = getattr(registry, name)
        table = count_avoiding(spec, 8)
        for n in range(9):
            assert table.counts[n] == naive_count(spec, n), (name, n)


# ---------------------------------------------------------------------------
# Minimal forbidden words.

def test_minimal_forbidden_binary_runs():
    spec = AvoidanceSpec(2, (word_from_text("000"), word_from_text("111")))
    derived = minimal_forbidden(spec, 4)
    assert derived.words == {word_from_text("000"), word_from_text("111")}


def test_minimal_forbidden_definition_holds(registry):
    derived = minimal_forbidden(registry.dekking_binary, 12)
    for word in derived.words:
        assert not satisfies_spec(word, registry.dekking_binary).ok
        assert satisfies_spec(word[1:], registry.dekking_binary).ok
        assert satisfies_spec(word[:-1], registry.dekking_binary).ok


def test_minimal_forbidden_sizes_and_members(registry):
    dek = minimal_forbidden(registry.dekking_binary, 20)
    assert len(dek.words) == MINIMAL_SET_SIZES["dekking"]
    assert word_from_text("000") in dek.words
    assert word_from_text("11011001001101100100") in dek.words
    fs = minimal_forbidden(registry.fs_binary, 20)
    assert len(fs.words) == MINIMAL_SET_SIZES["fs"]
    assert word_from_text("0000") in fs.words
    assert word_from_text("1010") in fs.words
    assert word_from_text("1110001011100010") in fs.words


@st.composite
def small_specs(draw):
    """Specs small enough to check every word up to the drawn length."""
    alphabet = draw(st.integers(2, 3))
    spec = draw(specs(alphabet))
    return spec, draw(st.integers(1, 10 if alphabet == 2 else 6))


def naive_minimal(spec, max_length):
    """Illegal words of at most max_length letters whose one-letter
    truncations are both legal, by checking every word."""
    legal = {w: naive_satisfies(w, spec)
             for n in range(max_length + 1)
             for w in all_words(spec.alphabet_size, n)}
    return {w for w, ok in legal.items()
            if not ok and legal[w[1:]] and legal[w[:-1]]}


@given(small_specs())
@settings(max_examples=60, deadline=None)
def test_minimal_forbidden_matches_brute_force(case):
    spec, max_length = case
    assert minimal_forbidden(spec, max_length).words == naive_minimal(
        spec, max_length)


def test_count_then_minimal_set_walk_once(registry):
    """A minimal set no deeper than a count table just made is read from
    that table's walk."""
    spec = registry.dekking_binary
    with patch.object(counting, "walk_legal",
                      wraps=counting.walk_legal) as walk:
        table = count_avoiding(spec, 36)
        derived = minimal_forbidden(spec, 30)
    assert walk.call_count == 1
    counting._walks.clear()
    assert derived == minimal_forbidden(spec, 30)
    assert table.counts[:31] == count_avoiding(spec, 30).counts


@given(small_specs(), st.data())
@settings(max_examples=40, deadline=None)
def test_kept_walks_answer_as_the_oracles(case, data):
    """Count tables and minimal sets at two lengths, asked for in either
    order and each view first, so that some are read from a deeper kept
    walk and some walk deeper and replace it, equal the brute-force
    answers."""
    spec, deepest = case
    lengths = [deepest, data.draw(st.integers(1, deepest))]
    counts = [len(words) for words in naive_legal_words(spec, deepest)]
    minimal = naive_minimal(spec, deepest)
    for first, second in ((count_avoiding, minimal_forbidden),
                          (minimal_forbidden, count_avoiding)):
        for order in (lengths, lengths[::-1]):
            counting._walks.clear()
            for call, n in zip((first, second, first, second),
                               order + order[::-1]):
                if call is count_avoiding:
                    assert call(spec, n).counts == tuple(counts[:n + 1])
                else:
                    assert call(spec, n).words == {
                        w for w in minimal if len(w) <= n}


def as_rows(words, length):
    """Words of one length as the walker's 2-D uint8 array."""
    return np.frombuffer(b"".join(words), dtype=np.uint8).reshape(
        len(words), length)


class Scripted:
    """Stands in for `st.data()` in an explicit example: each draw
    returns the next of the given values."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


FS_WHITELIST = AvoidanceSpec(2, square_whitelist=tuple(
    word_from_text(w) for w in ("00", "11", "0101")))
TERNARY_WHITELIST = AvoidanceSpec(3, square_whitelist=(
    word_from_text("00"), word_from_text("11")))


@given(small_specs(), st.data())
@example((FS_WHITELIST, 11), Scripted(None, 0, {b""}, 64))
@example((TERNARY_WHITELIST, 6), Scripted(None, 0, {b""}, 64))
@example((TERNARY_WHITELIST, 6), Scripted((0, 1, 2, 2), 1, {b"\3"}, 1))
@settings(max_examples=80, deadline=None)
def test_walk_legal_matches_brute_force(case, data):
    """From any batch of legal prefixes of one length the walk yields, in
    chunks of one length, exactly the legal words that extend a prefix, each
    once.  Each chunk comes with exactly its minimal forbidden one-letter
    extensions below max_len: illegal, with a legal right truncation.  Under
    a class map, a word is legal when its letter-by-letter projection is."""
    spec, max_len = case
    classes = data.draw(st.none() | st.lists(
        st.integers(0, spec.alphabet_size - 1), min_size=1,
        max_size=spec.alphabet_size + 2).map(tuple))
    size = spec.alphabet_size if classes is None else len(classes)
    while size ** max_len > 2048:
        max_len -= 1

    def legal(word):
        projected = word if classes is None else bytes(classes[x] for x in word)
        return naive_satisfies(projected, spec)

    words = sorted(w for n in range(max_len + 1)
                   for w in all_words(size, n) if legal(w))
    length = data.draw(st.sampled_from(sorted({len(w) for w in words})))
    prefixes = sorted(data.draw(st.sets(
        st.sampled_from([w for w in words if len(w) == length]),
        min_size=1)))
    budget = data.draw(st.sampled_from([1, 64, counting._SCREEN_BYTES]))
    walked = []
    with patch.object(counting, "_SCREEN_BYTES", budget):
        for chunk, minimal in walk_legal(
                spec, max_len, as_rows(prefixes, length), classes):
            rows = [row.tobytes() for row in chunk]
            walked += rows
            extensions = [] if chunk.shape[1] == max_len else [
                w + bytes([x]) for w in rows for x in range(size)]
            assert minimal.shape[1] == chunk.shape[1] + 1
            assert sorted(row.tobytes() for row in minimal) == sorted(
                ext for ext in extensions
                if not legal(ext) and legal(ext[1:]))
    assert sorted(walked) == [w for w in words if w[:length] in prefixes]


def test_walk_does_not_extend_prefixes_past_max_len(registry):
    """Prefixes at or past max_len are yielded once, with no extensions,
    also in a language with words of every length."""
    spec = registry.dekking_binary
    prefixes = as_rows(sorted(w for w in all_words(2, 5)
                              if naive_satisfies(w, spec)), 5)
    for max_len in (3, 5):
        chunks = list(islice(walk_legal(spec, max_len, prefixes), 2))
        assert len(chunks) == 1
        words, minimal = chunks[0]
        assert np.array_equal(words, prefixes)
        assert minimal.shape == (0, 6)


@pytest.mark.parametrize("rows", [1, 3])
def test_walk_is_the_same_in_small_chunks(registry, monkeypatch, rows):
    """Count tables, minimal sets and exhaustion witnesses do not depend on
    how many words a chunk holds."""
    calls = [(count_avoiding, registry.dekking_binary, 20),
             (count_avoiding, registry.fs_binary, 20),
             (minimal_forbidden, registry.dekking_binary, 16),
             (minimal_forbidden, registry.fs_binary, 16),
             (exhaust_max_length, registry.ejs3, 40)]
    expected = [call(spec, n) for call, spec, n in calls]
    for (call, spec, n), result in zip(calls, expected):
        # `rows` words a chunk of length n, and more in shorter chunks
        widest = (n + 1) * spec.alphabet_size
        monkeypatch.setattr(counting, "_SCREEN_BYTES",
                            1 if rows == 1 else rows * 4 * (widest + 1))
        assert counting._chunk_rows(widest) == rows
        sizes = {}
        for words, _ in walk_legal(spec, n):
            length = words.shape[1]
            sizes[length] = max(sizes.get(length, 0), len(words))
        assert sizes.get(n, rows) == rows
        assert all(size <= counting._chunk_rows((k + 1) * spec.alphabet_size)
                   for k, size in sizes.items())
        counting._walks.clear()  # the call walks in small chunks
        assert call(spec, n) == result


def assert_a_clean_image_walks_the_plain_words(spec, max_len):
    """Identity images into a spec that forbids nothing never fail, so the
    imaged walk, which also carries image runs, yields the plain walk's
    words at every length, and no failed extension."""
    image = (np.arange(spec.alphabet_size, dtype=np.uint8)[:, None],
             ColumnStep(AvoidanceSpec(spec.alphabet_size), max_len))
    plain, imaged = {}, {}
    for words, _ in walk_legal(spec, max_len):
        plain.setdefault(words.shape[1], []).extend(map(bytes, words))
    for words, failed in walk_legal(spec, max_len, image=image):
        assert len(failed) == 0
        imaged.setdefault(words.shape[1], []).extend(map(bytes, words))
    assert sorted(plain) == sorted(imaged) == list(range(len(plain)))
    for n in plain:
        assert sorted(plain[n]) == sorted(imaged[n]), n


@pytest.mark.parametrize("name", ["dekking_binary", "fs_binary", "pu_binary",
                                  "ejs2", "ejs3"])
def test_a_clean_image_walks_the_registry_words(registry, name):
    assert_a_clean_image_walks_the_plain_words(getattr(registry, name), 14)


@given(small_specs())
@settings(max_examples=40, deadline=None)
def test_a_clean_image_walks_the_plain_words(case):
    assert_a_clean_image_walks_the_plain_words(*case)


def test_minimal_forbidden_lines_are_sorted(registry):
    lines = minimal_forbidden(registry.fs_binary, 8).to_lines().splitlines()
    assert lines == sorted(lines, key=lambda t: (len(t), t))


# ---------------------------------------------------------------------------
# Factor automaton and growth rates.

def test_automaton_counts_equal_dfs_counts(registry):
    for spec, n_max in ((registry.dekking_binary, 14),
                        (registry.fs_binary, 14)):
        derived = minimal_forbidden(spec, 20)
        auto = build_automaton(derived)
        table = count_avoiding(spec, n_max)
        counted = auto.count_words(n_max)
        # equal while the forbidden list is long enough to be exact
        assert counted[:n_max + 1] == table.counts


def test_automaton_dominates_beyond_its_window(registry):
    derived = minimal_forbidden(registry.dekking_binary, 12)
    auto = build_automaton(derived)
    table = count_avoiding(registry.dekking_binary, 16)
    counted = auto.count_words(16)
    assert all(a >= t for a, t in zip(counted, table.counts))
    assert counted[16] > table.counts[16]


def test_automaton_without_constraints_counts_everything():
    auto = FactorAutomaton(2, frozenset())
    assert auto.count_words(10) == tuple(2 ** n for n in range(11))


def test_single_factor_automaton_gives_fibonacci():
    auto = FactorAutomaton(2, frozenset({word_from_text("00")}))
    counts = auto.count_words(10)
    for i in range(2, 11):
        assert counts[i] == counts[i - 1] + counts[i - 2]


def pinned_fields(estimate):
    return (repr(estimate.eigenvalue), repr(estimate.residual),
            estimate.iterations, estimate.states)


def test_growth_golden_ratio():
    spec = AvoidanceSpec(2, (word_from_text("000"), word_from_text("111")))
    est = growth_rate(build_automaton(minimal_forbidden(spec, 3)))
    assert est.eigenvalue == pytest.approx(1.6180339887, abs=1e-5)
    assert pinned_fields(est) == (
        "1.618033989003667", "4.1061332112235505e-10", 22, 5)


@pytest.mark.parametrize("name, length, fields", [
    ("dekking_binary", 20,
     ("1.1771981569905536", "1.1963541268755762e-10", 205, 639)),
    ("dekking_binary", 30,
     ("1.145656797053983", "6.237237393236228e-10", 231, 1931)),
    ("fs_binary", 20,
     ("1.1347173709131346", "3.9925351913439044e-10", 140, 326)),
    ("fs_binary", 30,
     ("1.101188606682661", "7.706346671909614e-10", 213, 1043)),
    # Finite languages: every legal word is shorter than the set's longest
    # minimal word, so the live part has no cycle.
    ("ejs2", 20, ("0.0", "0.0", 139, 139)),
    ("ejs3", 30, ("0.0", "0.0", 395, 395)),
])
def test_growth_fields_are_pinned(registry, name, length, fields):
    """Every field to the last bit: a power step that sums in another order
    fails here, not only in the scenario digest."""
    derived = minimal_forbidden(getattr(registry, name), length)
    assert pinned_fields(growth_rate(build_automaton(derived))) == fields


def test_growth_rates_on_derived_sets(registry):
    dek = growth_rate(build_automaton(
        minimal_forbidden(registry.dekking_binary, 20)))
    assert dek.eigenvalue == pytest.approx(1.178, abs=0.005)
    fs = growth_rate(build_automaton(
        minimal_forbidden(registry.fs_binary, 20)))
    assert fs.eigenvalue == pytest.approx(1.135, abs=0.005)


def test_growth_of_dead_language_is_zero():
    auto = FactorAutomaton(2, frozenset({b"\x00", b"\x01"}))
    est = growth_rate(auto)
    assert est.eigenvalue == 0.0


@pytest.mark.parametrize("max_iterations", [0, -1])
def test_growth_rejects_fewer_than_one_iteration(max_iterations):
    auto = FactorAutomaton(2, frozenset({word_from_text("00")}))
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        growth_rate(auto, max_iterations=max_iterations)


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.inf, math.nan])
def test_growth_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    """An infinite tolerance would stop after one step, as if converged."""
    auto = FactorAutomaton(2, frozenset({word_from_text("00")}))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        growth_rate(auto, tol=tol)


# An alphabet of 2 or 3 letters and a few forbidden words of 1 to 5 letters.
FORBIDDEN_SETS = st.integers(2, 3).flatmap(lambda k: st.tuples(
    st.just(k),
    st.frozensets(st.lists(st.integers(0, k - 1), min_size=1,
                           max_size=5).map(bytes), max_size=6)))


def dense_growth_rate(automaton, tol=1e-9, max_iterations=200_000):
    """Reference power iteration on the dense matrix M + I.  A nilpotent M
    (the live part has no cycle) gives 0.0 once n steps pass unconverged."""
    matrix, live = automaton.transition_matrix()
    n = len(live)
    if n == 0 or not matrix.any():
        return 0.0, n, 0
    shifted = matrix + np.eye(n)
    vec = np.full(n, 1.0 / math.sqrt(n))
    previous = 0.0
    for iteration in range(1, max_iterations + 1):
        nxt = shifted @ vec
        vec = nxt / np.linalg.norm(nxt)
        rayleigh = float(vec @ (shifted @ vec))
        if abs(rayleigh - previous) < tol:
            return rayleigh - 1.0, n, iteration
        if iteration == n and not np.linalg.matrix_power(matrix > 0, n).any():
            return 0.0, n, iteration
        previous = rayleigh
    return previous - 1.0, n, max_iterations


def assert_same_growth(automaton, **kwargs):
    est = growth_rate(automaton, **kwargs)
    eigenvalue, states, iterations = dense_growth_rate(automaton, **kwargs)
    assert (est.states, est.iterations) == (states, iterations)
    assert est.eigenvalue == pytest.approx(eigenvalue, abs=1e-12)
    return est


@given(FORBIDDEN_SETS)
@settings(max_examples=80, deadline=None)
def test_growth_matches_dense_iteration(case):
    alphabet, forbidden = case
    assert_same_growth(FactorAutomaton(alphabet, forbidden),
                       max_iterations=3000)


def naive_has_cycle(automaton):
    """Whether the live states close a cycle, by depth-first search."""
    on_path, done = set(), set()

    def cycle_from(state):
        on_path.add(state)
        for succ in automaton.transitions[state]:
            if automaton.dead[succ] or succ in done:
                continue
            if succ in on_path or cycle_from(succ):
                return True
        on_path.discard(state)
        done.add(state)
        return False

    return any(cycle_from(s) for s, dead in enumerate(automaton.dead)
               if not dead and s not in done)


@given(FORBIDDEN_SETS)
@example((2, frozenset({b"\0\0", b"\1\1", b"\0\1\0", b"\1\0\1"})))
@example((2, frozenset({b"\0\0\0", b"\1\1", b"\1\0\1", b"\0\1\0\0"})))
@example((3, frozenset({b"\0", b"\1\1", b"\2\2", b"\1\2\1", b"\2\1\2"})))
@settings(max_examples=80, deadline=None)
def test_growth_is_zero_exactly_when_the_live_part_is_acyclic(case):
    alphabet, forbidden = case
    auto = FactorAutomaton(alphabet, forbidden)
    est = growth_rate(auto, max_iterations=3000)
    assert (est.eigenvalue == 0.0) == (not naive_has_cycle(auto))


def test_counting_runs_no_numpy_sort(registry, monkeypatch):
    """Counting sorts in Python, and orders live successors by a network
    of minimum and maximum passes: the first numpy sort of a process maps
    0.14-0.39 MB of kernels, more than a counting run's peak memory may
    grow."""
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy sort on the counting path")

    for name in ("sort", "argsort", "unique", "lexsort"):
        monkeypatch.setattr(np, name, refuse)
    for name, length in (("dekking_binary", 20), ("fs_binary", 20),
                         ("pu_binary", 12), ("ejs2", 20), ("ejs3", 30)):
        spec = getattr(registry, name)
        count_avoiding(spec, length)
        growth_rate(build_automaton(minimal_forbidden(spec, length)))
    # The widest alphabet, whose successors take the longest network.
    rng = random.Random(0)
    growth_rate(FactorAutomaton(256, frozenset(
        bytes(rng.randrange(256) for _ in range(rng.randint(2, 4)))
        for _ in range(300))))


def test_growth_matches_dense_iteration_on_derived_sets(registry):
    for spec in (registry.dekking_binary, registry.fs_binary):
        assert_same_growth(build_automaton(minimal_forbidden(spec, 20)))


def test_growth_matches_dense_iteration_on_edge_cases():
    dead = assert_same_growth(FactorAutomaton(2, frozenset({b"\x00",
                                                             b"\x01"})))
    assert dead.eigenvalue == 0.0
    periodic = assert_same_growth(FactorAutomaton(
        2, frozenset({word_from_text("00"), word_from_text("11")})))
    assert periodic.eigenvalue == pytest.approx(1.0, abs=1e-6)


def naive_automaton(alphabet_size, forbidden):
    """(transitions, dead) of the factor automaton by its definition.

    A state is a prefix of a forbidden word over the alphabet, numbered in
    the order the words, shortest first and then lexicographic, create
    them.  The successor of p by a is the longest suffix of p + a that is
    a state, and p is dead when some suffix of p is forbidden.
    """
    words = sorted((w for w in forbidden if all(c < alphabet_size for c in w)),
                   key=lambda w: (len(w), w))
    states = [b""]
    for word in words:
        states += [word[:end] for end in range(1, len(word) + 1)
                   if word[:end] not in states]

    def successor(p, a):
        q = p + bytes([a])
        return next(states.index(q[i:]) for i in range(len(q) + 1)
                    if q[i:] in states)

    transitions = [[successor(p, a) for a in range(alphabet_size)]
                   for p in states]
    dead = [any(p[i:] in forbidden for i in range(len(p) + 1))
            for p in states]
    return transitions, dead


# Alphabets of 1 to 9 letters, so the successor network pads the letters to
# 1, 2, 4, 8 and 16 ranks; words may hold letters past the alphabet, and a
# set need not be minimal.
WIDE_SETS = st.integers(1, 9).flatmap(lambda k: st.tuples(
    st.just(k),
    st.frozensets(st.lists(st.integers(0, k), min_size=1,
                           max_size=5).map(bytes), max_size=8)))


@given(WIDE_SETS)
@example((3, frozenset()))
@example((2, frozenset({b"", b"\1\0"})))
@example((9, frozenset({b"\3", b"\3\1", bytes([9, 1]), b"\1\2\1"})))
@settings(max_examples=150, deadline=None)
def test_automaton_matches_its_definition(case):
    alphabet, forbidden = case
    auto = FactorAutomaton(alphabet, forbidden)
    transitions, dead = naive_automaton(alphabet, forbidden)
    assert auto.transitions.tolist() == transitions
    assert auto.dead.tolist() == dead
    assert auto.live_states == dead.count(False)
    # Each live state's live successors, ascending, then pads of n.
    live = [s for s, d in enumerate(dead) if not d]
    n = len(live)
    succs = [sorted(live.index(t) for t in transitions[s] if not dead[t])
             for s in live]
    ranks = max(map(len, succs), default=0)
    got_live, table = auto._live_successors()
    assert got_live.tolist() == live
    assert table.shape == (ranks, n)
    assert table.T.tolist() == [row + [n] * (ranks - len(row))
                                for row in succs]


def edge_list_growth(automaton, tol=1e-9, max_iterations=3000):
    """Power iteration as `growth_rate` runs it, with the product summed over
    an edge list by one unbuffered `np.add.at`: each entry takes its
    identity term, then its live successors in ascending order."""
    dead = automaton.dead.tolist()
    live = [s for s, d in enumerate(dead) if not d]
    edges = [(i, live.index(t)) for i, s in enumerate(live)
             for t in sorted(automaton.transitions[s].tolist())
             if not dead[t]]
    n = len(live)
    if not edges:
        return GrowthEstimate(0.0, n, 0, 0.0)
    sources, targets = np.array(edges).T

    def shifted(vec):
        out = vec.copy()
        np.add.at(out, sources, vec[targets])
        return out

    vec = np.full(n, 1.0 / math.sqrt(n))
    nxt = shifted(vec)
    previous = 0.0
    for iteration in range(1, max_iterations + 1):
        vec = nxt / math.sqrt(nxt @ nxt)
        nxt = shifted(vec)
        rayleigh = float(vec @ nxt)
        residual = abs(rayleigh - previous)
        if residual < tol:
            return GrowthEstimate(rayleigh - 1.0, n, iteration, residual)
        if iteration == n and not naive_has_cycle(automaton):
            return GrowthEstimate(0.0, n, iteration, 0.0)
        previous = rayleigh
    return GrowthEstimate(previous - 1.0, n, max_iterations, residual)


@given(WIDE_SETS)
@settings(max_examples=80, deadline=None)
def test_growth_is_the_edge_list_iteration_bit_for_bit(case):
    """Adding a gathered row per successor rank, 0.0 for a dead successor,
    sums in the edge list's order, so every field is the same float."""
    alphabet, forbidden = case
    auto = FactorAutomaton(alphabet, forbidden)
    assert growth_rate(auto, max_iterations=3000) == edge_list_growth(auto)


def test_derived_growth_is_the_edge_list_iteration_bit_for_bit(registry):
    for spec in (registry.dekking_binary, registry.fs_binary):
        auto = build_automaton(minimal_forbidden(spec, 20))
        assert growth_rate(auto, max_iterations=3000) == edge_list_growth(auto)


def test_transition_matrix_counts_live_edges():
    auto = FactorAutomaton(3, frozenset({word_from_text("00")}))
    matrix, live = auto.transition_matrix()
    assert len(live) == auto.live_states == 2
    # root: 0 -> "0", 1 and 2 -> root; "0": 1 and 2 -> root
    assert matrix.tolist() == [[2.0, 1.0], [2.0, 0.0]]


def test_a_word_past_the_alphabet_adds_no_state():
    """A forbidden word with a letter outside the alphabet can never occur:
    the automaton is the one built without it."""
    plain = FactorAutomaton(2, frozenset({word_from_text("00")}))
    for extra in ("2", "02", "021", "20", "9"):
        auto = FactorAutomaton(2, frozenset({word_from_text("00"),
                                             word_from_text(extra)}))
        assert (auto.transitions.tolist(), auto.dead.tolist(),
                auto.live_states) == (plain.transitions.tolist(),
                                      plain.dead.tolist(),
                                      plain.live_states), extra
        assert auto.count_words(8) == plain.count_words(8)


def test_growth_estimate_serializes():
    auto = FactorAutomaton(2, frozenset({word_from_text("00")}))
    d = growth_rate(auto).to_dict()
    assert set(d) == {"eigenvalue", "states", "iterations", "residual"}


# ---------------------------------------------------------------------------
# Lower-bound families.

def test_dekking_family(registry):
    report = lower_bound_family(registry.dekking_sub, registry.dekking_g,
                                registry.dekking_h.image(0),
                                registry.dekking_binary,
                                exponent_denominator=300)
    assert report.family_size == 4
    assert report.word_length == 600
    assert report.verified_count == 4
    assert report.exponent_check
    assert report.enumerated


def test_fs_family(registry):
    report = lower_bound_family(registry.fs_sub, registry.fs_g,
                                registry.fs_h.image(0), registry.fs_binary,
                                exponent_denominator=1152)
    assert report.family_size == 16
    assert report.word_length == 3456
    assert report.verified_count == 16
    assert report.exponent_check
    assert report.enumerated


def test_family_sampling_path_is_deterministic(registry):
    kwargs = dict(exponent_denominator=1152, enumeration_cap=4, samples=6)
    a = lower_bound_family(registry.fs_sub, registry.fs_g,
                           registry.fs_h.image(0), registry.fs_binary,
                           seed=3, **kwargs)
    b = lower_bound_family(registry.fs_sub, registry.fs_g,
                           registry.fs_h.image(0), registry.fs_binary,
                           seed=3, **kwargs)
    assert not a.enumerated
    assert a == b
    assert a.verified_count == 6


def test_family_no_larger_than_the_sample_is_enumerated(registry):
    # one word, cap 0: the 64 samples would all be that word
    single = lower_bound_family(registry.dekking_sub, registry.dekking_g,
                                b"\x00", registry.dekking_binary,
                                enumeration_cap=0)
    assert (single.family_size, single.verified_count) == (1, 1)
    assert single.enumerated
    sampled = lower_bound_family(registry.dekking_sub, registry.dekking_g,
                                 registry.dekking_h.image(0),
                                 registry.dekking_binary,
                                 enumeration_cap=0, samples=3)
    assert (sampled.family_size, sampled.verified_count) == (4, 3)
    assert not sampled.enumerated


def test_family_above_the_enumeration_limit_is_sampled(registry):
    # 40 letters with two images each: a family of 2^40, far past what
    # `Substitution.iter_images` would list
    seed_word = fixed_point_prefix(registry.dekking_h, 0, 200)
    report = lower_bound_family(registry.dekking_sub, registry.dekking_g,
                                seed_word, registry.dekking_binary,
                                samples=8)
    assert report.family_size == 1 << 40
    assert report.word_length == 200 * 60
    assert (report.verified_count, report.enumerated) == (8, False)


def test_exponent_check_matches_the_power():
    limits = [2 ** n for n in range(300)]
    for base in range(70):
        for exponent in range(1, 70):
            power = base ** exponent
            assert ([counting._power_reaches(base, exponent, n)
                     for n in range(300)]
                    == [power >= limit for limit in limits]), (base, exponent)


# ---------------------------------------------------------------------------
# Exhaustion of finite avoidance languages.

def test_every_length4_binary_word_has_a_square():
    for word in all_words(2, 4):
        assert not naive_satisfies(word, AvoidanceSpec(2, square_min_root=1))
    report = exhaust_max_length(AvoidanceSpec(2, square_min_root=1), 10)
    assert report.max_length == 3
    assert not report.exceeded
    assert word_to_text(report.witness) == "010"


def test_exhaust_root2_language(registry):
    report = exhaust_max_length(registry.ejs2, 40)
    assert not report.exceeded
    assert report.max_length == 18
    assert len(report.witness) == 18
    assert naive_satisfies(report.witness, registry.ejs2)


def test_exhaust_root3_cubefree_language(registry):
    report = exhaust_max_length(registry.ejs3, 60)
    assert not report.exceeded
    assert report.max_length == 29
    assert naive_satisfies(report.witness, registry.ejs3)


def test_exhaust_reports_open_ended_languages(registry):
    report = exhaust_max_length(registry.dekking_binary, 40)
    assert report.exceeded
    assert report.max_length is None and report.witness is None


@st.composite
def exhaust_cases(draw):
    """A small spec and a cap low enough to list every legal word."""
    alphabet = draw(st.integers(2, 3))
    return draw(specs(alphabet)), draw(st.integers(1, 12 if alphabet == 2
                                                   else 8))


@seed(2003)
@given(exhaust_cases())
@example((AvoidanceSpec(2, square_whitelist=(word_from_text("11"),)), 11))
@settings(max_examples=60, deadline=None)
def test_exhaust_matches_brute_force(case):
    """The report is the naive one, whatever a chunk holds: a cap report
    when some legal word reaches the cap, else the greatest length and the
    least legal word of that length.  In the example, the first longest
    word the walk yields is 1101110, not the least, 0111011."""
    spec, cap = case
    expected = naive_exhaustion(spec, cap)
    for budget in (1, counting._SCREEN_BYTES):
        with patch.object(counting, "_SCREEN_BYTES", budget):
            assert exhaust_max_length(spec, cap) == expected


@pytest.mark.parametrize("name, cap, longest", [
    ("binary squarefree", 10, 3), ("ejs2", 40, 18)])
def test_exhaustion_witness_is_the_least_longest_word(registry, monkeypatch,
                                                      name, cap, longest):
    """With one word a chunk, the greatest length arrives in several chunks,
    and the witness is still the least word of that length."""
    spec = (AvoidanceSpec(2, square_min_root=1) if name == "binary squarefree"
            else registry.ejs2)
    monkeypatch.setattr(counting, "_SCREEN_BYTES", 1)
    deepest = [words for words, _ in walk_legal(spec, cap)
               if words.shape[1] == longest]
    assert len(deepest) > 1 and all(len(words) == 1 for words in deepest)
    report = exhaust_max_length(spec, cap)
    assert report == naive_exhaustion(spec, cap)
    assert report.max_length == longest


@given(small_specs(), st.sampled_from([1, 64, counting._SCREEN_BYTES]))
@settings(max_examples=60, deadline=None)
def test_exhaustion_matches_the_legal_words_of_small_specs(case, budget):
    """A report that says `exceeded` has a legal word of the cap's length;
    any other names the greatest length and its least word."""
    spec, cap = case
    with patch.object(counting, "_SCREEN_BYTES", budget):
        report = exhaust_max_length(spec, cap)
    levels = list(naive_legal_words(spec, cap))
    assert report.exceeded == bool(levels[cap])
    assert report == naive_exhaustion(spec, cap)


def naive_exhaustion(spec, cap):
    """The report by brute force: a cap report when a legal word has `cap`
    letters, else the greatest length and its least legal word."""
    levels = [level for level in naive_legal_words(spec, cap) if level]
    if len(levels) > cap:
        return ExhaustReport(None, None, True)
    return ExhaustReport(len(levels) - 1, min(levels[-1]), False)
