"""Exact counting of avoiding words and growth-rate estimates.

Every search over legal words goes through one walker, `walk_legal`: it
extends a chunk of words of one length by every letter at once and carries,
per word, the runs of equal letters at each shift that end at its last
letter, so one `ColumnStep` of the extensions decides which die: the new
letter is the only place a fresh violation can end.  The same step says
which of the dead are minimal forbidden words, since every constraint (a
forbidden factor, a forbidden square, a cube) is a factor and legality is
closed under taking factors.  Counting tallies the chunks' rows,
exhaustion looks for the longest word, minimality collects the minimal
extensions, and the verifier's bounded case prunes the rows whose image
fails.  Minimal forbidden words (both one-letter truncations legal) feed an
Aho-Corasick factor automaton whose live part counts and bounds the language;
its Perron root comes from power iteration over the live edge list, standing
in for the symbolic characteristic polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .morphisms import Morphism, Substitution
from .pool import process_map, usable_cpus
from .words import AvoidanceSpec, ColumnStep, satisfies_spec, word_to_text


@dataclass(frozen=True)
class CountTable:
    """Exact number of legal words at each length from 0 up."""

    spec: AvoidanceSpec
    counts: tuple[int, ...]

    def to_csv(self) -> str:
        lines = ["n,count"]
        lines += [f"{n},{c}" for n, c in enumerate(self.counts)]
        return "\n".join(lines) + "\n"


# Byte budget of one chunk's step.  Chunks hold as many words as fit it,
# and at least one whatever their length.
_SCREEN_BYTES = 1 << 20


def _chunk_rows(columns: int) -> int:
    """Words per chunk when each is screened as `columns` letters, counting
    4 bytes a letter: the letter, its class, and the step's runs and its one
    compare, which hold at most one byte a letter below 256 letters."""
    return max(1, _SCREEN_BYTES // (4 * (columns + 1)))


def walk_legal(spec: AvoidanceSpec, max_len: int,
               prefixes: np.ndarray | None = None,
               classes: tuple[int, ...] | None = None, width: int = 1):
    """Legal words extending legal prefixes, up to max_len letters, one chunk
    of words of one length at a time.

    `prefixes` is a 2-D uint8 array of legal words of one length, the empty
    word by default.  Yields (words, minimal, keep): a B x k array of legal
    words, the array of their one-letter extensions that are minimal
    forbidden words (empty from max_len letters on, where no word is
    extended), and a mask of B True values.  A chunk is stored column by
    column with each word's `ColumnStep` runs, folded once from the
    prefixes, so one step of the extensions decides which die and which of
    those are minimal.  The legal extensions of the rows still kept are
    walked once the consumer resumes, so clearing keep[i] prunes the
    subtree of row i.  The
    walk is a preorder of chunks: a chunk's subtrees are walked before the
    next chunk of its length, and rows run in lexicographic order when the
    prefixes do.  A chunk of k-letter words has at most `_chunk_rows((k + 1)
    * max(alphabet, width))` rows, where `width` is the columns a caller
    screens per letter (the bounded case's image width), so at most about
    max_len x alphabet x `_SCREEN_BYTES` is live.  With `classes`, the
    letters are 0..len(classes)-1 and letter x is checked as classes[x].
    """
    size = spec.alphabet_size if classes is None else len(classes)
    table = None if classes is None else np.array(classes, dtype=np.uint8)
    letters = np.arange(size, dtype=np.uint8)
    step = ColumnStep(spec, max_len)

    def project(cols):
        return cols if table is None else table[cols]

    def chunks(batch, runs, live):
        # Each piece gathers its words of the batch, so that no pending
        # piece keeps a walked batch alive.  The first piece goes on top.
        rows = _chunk_rows((len(batch) + 1) * max(size, width))
        return [(batch[:, live[i:i + rows]], runs[:, live[i:i + rows]])
                for i in range(0, len(live), rows)[::-1]]

    def in_order(mask, batch):
        # Extension x of word i is column x * batch + i of a flat chunk;
        # list the masked ones word by word, each by letter.
        i = np.flatnonzero(mask.reshape(size, batch).T)
        return i % size * batch + i // size

    # Chunks hold their words column by column, as the step reads them.
    cols = (np.zeros((0, 1), dtype=np.uint8) if prefixes is None
            else np.ascontiguousarray(prefixes.T))
    runs = np.zeros((0, cols.shape[1]), step.dtype)
    if len(cols) < max_len:
        runs = step.fold(project(cols), 1, max_len)[0]
    stack = chunks(cols, runs, np.arange(cols.shape[1]))
    while stack:
        cols, runs = stack.pop()
        k = len(cols)
        keep = np.ones(cols.shape[1], dtype=bool)
        if k >= max_len:
            yield cols.T, np.empty((0, k + 1), dtype=np.uint8), keep
            continue
        batch = cols.shape[1]
        ext = np.empty((k + 1, size, batch), dtype=np.uint8)
        ext[:k] = cols[:, None]
        ext[k] = letters[:, None]
        cols = ext[:k, 0]  # lets the popped chunk go
        runs, bad, minimal = step(project(ext), runs[:, None])
        ext = ext.reshape(k + 1, -1)
        yield cols.T, ext[:, in_order(minimal, batch)].T, keep
        live = in_order(~bad & np.tile(keep, size), batch)
        stack += chunks(ext, runs.reshape(len(runs), ext.shape[1]), live)
        del ext, runs


def _tally(prefixes: np.ndarray | None, spec: AvoidanceSpec,
           n_max: int) -> list[int]:
    """Counts by length of legal words extending the prefixes."""
    counts = [0] * (n_max + 1)
    for words, _, _ in walk_legal(spec, n_max, prefixes):
        counts[words.shape[1]] += len(words)
    return counts


def count_avoiding(spec: AvoidanceSpec, n_max: int,
                   workers: int = 1) -> CountTable:
    """Count legal words of each length 0..n_max by one pruned walk.

    With workers > 1 the legal words of a fixed split length are dealt into
    one group per process, and each group is walked as one batch in
    `process_map`'s pool; counts merge by addition, so the result does not
    depend on scheduling.  The pool never exceeds the usable CPUs (the
    affinity set) or the number of words at the split.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    workers = min(workers, usable_cpus())
    if workers <= 1:
        return CountTable(spec, tuple(_tally(None, spec, n_max)))
    split = min(6, n_max)
    counts = [0] * (n_max + 1)
    frontier = [np.empty((0, split), dtype=np.uint8)]
    for words, _, _ in walk_legal(spec, split):
        if words.shape[1] == split:
            frontier.append(words)
        else:
            counts[words.shape[1]] += len(words)
    frontier = np.concatenate(frontier)
    groups = min(workers, len(frontier))
    jobs = [frontier[i::groups] for i in range(groups)]
    for part in process_map(partial(_tally, spec=spec, n_max=n_max), jobs):
        for n, c in enumerate(part):
            counts[n] += c
    return CountTable(spec, tuple(counts))


@dataclass(frozen=True)
class MinimalForbiddenSet:
    """Spec-violating words whose one-letter truncations are both legal."""

    spec: AvoidanceSpec
    max_length: int
    words: frozenset[bytes]

    def to_lines(self) -> str:
        ordered = sorted(self.words, key=lambda w: (len(w), w))
        return "\n".join(word_to_text(w) for w in ordered) + "\n"


def minimal_forbidden(spec: AvoidanceSpec, max_length: int) -> MinimalForbiddenSet:
    """All minimal forbidden words of length <= max_length.

    Every proper factor of a candidate is a factor of one of its two
    truncations, so legality of both truncations is the whole minimality
    condition.  Legality is closed under taking factors, so the walker's
    minimal extensions of legal words are exactly these words.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    found = set()
    for _, minimal, _ in walk_legal(spec, max_length):
        found.update(row.tobytes() for row in minimal)
    return MinimalForbiddenSet(spec, max_length, frozenset(found))


class FactorAutomaton:
    """Deterministic complete automaton tracking forbidden-factor progress.

    States are the trie nodes of the forbidden words with Aho-Corasick
    failure transitions filled in; a state is dead once any forbidden word
    has been completed.  Words avoiding the whole set correspond to paths
    from the root through live states.
    """

    def __init__(self, alphabet_size: int, forbidden: frozenset[bytes]):
        if alphabet_size < 1:
            raise ValueError("alphabet must be nonempty")
        self.alphabet_size = alphabet_size
        children: list[dict[int, int]] = [{}]
        dead = [False]
        for word in sorted(forbidden, key=lambda w: (len(w), w)):
            node = 0
            for letter in word:
                if letter not in children[node]:
                    children.append({})
                    dead.append(False)
                    children[node][letter] = len(children) - 1
                node = children[node][letter]
            dead[node] = True

        size = len(children)
        goto = [[0] * alphabet_size for _ in range(size)]
        fail = [0] * size
        queue = list(children[0].values())
        for letter in range(alphabet_size):
            goto[0][letter] = children[0].get(letter, 0)
        head = 0
        while head < len(queue):
            node = queue[head]
            head += 1
            dead[node] = dead[node] or dead[fail[node]]
            for letter in range(alphabet_size):
                child = children[node].get(letter)
                if child is None:
                    goto[node][letter] = goto[fail[node]][letter]
                else:
                    fail[child] = goto[fail[node]][letter]
                    goto[node][letter] = child
                    queue.append(child)

        self.transitions = tuple(tuple(row) for row in goto)
        self.dead = tuple(dead)
        self.live_states = sum(1 for d in dead if not d)

    def count_words(self, n_max: int) -> tuple[int, ...]:
        """Exact path counts through live states, one per length."""
        weight = {0: 1} if not self.dead[0] else {}
        counts = [sum(weight.values())]
        for _ in range(n_max):
            nxt: dict[int, int] = {}
            for state, w in weight.items():
                for letter in range(self.alphabet_size):
                    succ = self.transitions[state][letter]
                    if not self.dead[succ]:
                        nxt[succ] = nxt.get(succ, 0) + w
            weight = nxt
            counts.append(sum(weight.values()))
        return tuple(counts)

    def _live_edges(self) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
        """Live states and their edges as (source, target) index arrays.

        Indices are positions in the live-state tuple.  There is one edge per
        letter, so a pair may repeat; sources ascend, and targets ascend
        within a source.
        """
        live = tuple(s for s in range(len(self.dead)) if not self.dead[s])
        index = {s: i for i, s in enumerate(live)}
        sources: list[int] = []
        targets: list[int] = []
        for i, s in enumerate(live):
            succs = sorted(index[t] for t in self.transitions[s]
                           if not self.dead[t])
            sources += [i] * len(succs)
            targets += succs
        return (live, np.array(sources, dtype=np.intp),
                np.array(targets, dtype=np.intp))

    def transition_matrix(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Adjacency counts between live states, with the state relabeling."""
        live, sources, targets = self._live_edges()
        matrix = np.zeros((len(live), len(live)))
        np.add.at(matrix, (sources, targets), 1.0)
        return matrix, live


def build_automaton(forbidden_set: MinimalForbiddenSet) -> FactorAutomaton:
    return FactorAutomaton(forbidden_set.spec.alphabet_size, forbidden_set.words)


@dataclass(frozen=True)
class GrowthEstimate:
    """Dominant eigenvalue of the live transition matrix."""

    eigenvalue: float
    states: int
    iterations: int
    residual: float

    def to_dict(self) -> dict:
        return {"eigenvalue": self.eigenvalue, "states": self.states,
                "iterations": self.iterations, "residual": self.residual}


def growth_rate(automaton: FactorAutomaton, tol: float = 1e-9,
                max_iterations: int = 200_000) -> GrowthEstimate:
    """Perron root of the live part by power iteration.

    Iteration runs on M + I, whose spectrum is the shifted one but which is
    aperiodic whenever the live part is nonempty, so the Rayleigh quotient
    settles even on periodic languages; (M + I)v >= v for the nonnegative
    iterates, so their norm never vanishes.  The product walks the live edge
    list instead of a dense matrix, one bincount per step: each row sums its
    identity term first, then its successors in ascending order, the order a
    dense row product takes.  The product that gives one step's Rayleigh
    quotient is the next step's iterate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    live, sources, targets = automaton._live_edges()
    n = len(live)
    if n == 0 or len(sources) == 0:
        return GrowthEstimate(0.0, n, 0, 0.0)
    diagonal = np.arange(n)
    rows = np.concatenate((diagonal, sources))
    cols = np.concatenate((diagonal, targets))

    def shifted(vec: np.ndarray) -> np.ndarray:
        return np.bincount(rows, weights=vec[cols], minlength=n)

    vec = np.full(n, 1.0 / math.sqrt(n))
    nxt = shifted(vec)
    previous = 0.0
    for iteration in range(1, max_iterations + 1):
        vec = nxt / np.linalg.norm(nxt)
        nxt = shifted(vec)
        rayleigh = float(vec @ nxt)
        residual = abs(rayleigh - previous)
        if residual < tol:
            return GrowthEstimate(rayleigh - 1.0, n, iteration, residual)
        previous = rayleigh
    return GrowthEstimate(previous - 1.0, n, max_iterations, residual)


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of enumerating one substitution image family."""

    word_length: int
    family_size: int
    verified_count: int
    exponent_check: bool
    enumerated: bool

    def to_dict(self) -> dict:
        return {"word_length": self.word_length,
                "family_size": self.family_size,
                "verified_count": self.verified_count,
                "exponent_check": self.exponent_check,
                "enumerated": self.enumerated}


def lower_bound_family(sub: Substitution, outer: Morphism, seed_word: bytes,
                       target: AvoidanceSpec, *,
                       exponent_denominator: int | None = None,
                       enumeration_cap: int = 1 << 16,
                       samples: int = 64, seed: int = 0) -> FamilyReport:
    """Check every word of outer(sub(seed_word)) against the target spec.

    The family size is exact regardless of size; a family larger than both
    the enumeration cap and the sample count is checked on a deterministic
    sample only.  The exponent check compares family_size against
    2^(word_length / denominator) in exact integers.
    An empty seed word leaves nothing to check and is rejected.
    """
    if not seed_word:
        raise ValueError("the seed word is empty")
    family_size = sub.count_images(seed_word)
    # The first-choice image, without enumerating a family of any size.
    length = len(outer.apply(b"".join(sub.image_sets[a][0]
                                      for a in seed_word)))
    verified = 0
    enumerated = family_size <= max(enumeration_cap, samples)
    if enumerated:
        for image in sub.iter_images(seed_word):
            word = outer.apply(image)
            if len(word) == length and satisfies_spec(word, target).ok:
                verified += 1
    else:
        for i in range(samples):
            word = outer.apply(sub.sample_image(seed_word, seed + i))
            if len(word) == length and satisfies_spec(word, target).ok:
                verified += 1
    check = True
    if exponent_denominator is not None:
        check = family_size ** exponent_denominator >= 2 ** length
    return FamilyReport(length, family_size, verified, check, enumerated)


@dataclass(frozen=True)
class ExhaustReport:
    """Longest legal word when the whole search tree is finite."""

    max_length: int | None
    witness: bytes | None
    exceeded: bool

    def to_dict(self) -> dict:
        return {"max_length": self.max_length,
                "witness": None if self.witness is None
                else word_to_text(self.witness),
                "exceeded": self.exceeded}


def exhaust_max_length(spec: AvoidanceSpec, hard_cap: int) -> ExhaustReport:
    """Longest legal word, or a cap report when the walk still has room.

    The witness is the lexicographically least legal word of the greatest
    length, the first one a preorder walk meets.  Hitting a legal word of
    length hard_cap means the language may well be infinite, so the search
    stops and says so rather than pretending the cap is an answer.
    """
    if hard_cap < 1:
        raise ValueError("hard_cap must be >= 1")
    best = b""
    for words, _, _ in walk_legal(spec, hard_cap):
        if words.shape[1] == hard_cap:
            return ExhaustReport(None, None, True)
        # Rows of a chunk are sorted, so its first row is its least.
        best = min(best, words[0].tobytes(), key=lambda w: (-len(w), w))
    return ExhaustReport(len(best), best, False)
