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
extensions, and the verifier's bounded case has the walker carry its words'
image runs too, so a second step of each extension's last image block
decides which images fail.  Minimal forbidden words (both one-letter
truncations legal) feed an Aho-Corasick factor automaton whose live part
counts and bounds the language; its Perron root comes from power iteration
over the live edge list, standing in for the symbolic characteristic
polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .morphisms import Morphism, Substitution
from .words import (AvoidanceSpec, ColumnStep, report_row, satisfies_spec,
                    word_to_text)


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
               classes: tuple[int, ...] | None = None, image=None):
    """Legal words extending legal prefixes, up to max_len letters, one chunk
    of words of one length at a time.

    `prefixes` is a 2-D uint8 array of legal words of one length, the empty
    word by default.  Yields (words, dead): a B x k array of legal words and
    an array of their one-letter extensions (empty from max_len letters on,
    where no word is extended).  Each legal word is yielded exactly once, in
    no promised order.  `dead` holds the extensions that are minimal
    forbidden words, or with `image`, a pair of an image table (letters x W)
    and a `ColumnStep` of a target spec, the legal extensions whose image
    fails; then only words whose image passes (the prefixes' must) are
    walked.  A chunk is stored column by column with each word's runs (and
    its image's), folded once from the prefixes, so one step of the
    extensions (and W of their last image block) decides which die.  A chunk
    of k-letter words has at most `_chunk_rows((k + 1) * alphabet * (1 + W))`
    rows (W = 0 without an image), so at most about max_len x alphabet x
    `_SCREEN_BYTES` is live.  With `classes`, the letters are
    0..len(classes)-1 and letter x is checked as classes[x].
    """
    size = spec.alphabet_size if classes is None else len(classes)
    table = None if classes is None else np.array(classes, dtype=np.uint8)
    letters = np.arange(size, dtype=np.uint8)
    step = ColumnStep(spec, max_len)
    images, target = image or (None, None)
    width = 0 if image is None else images.shape[1]

    def project(cols):
        return cols if table is None else table[cols]

    def imaged(cols):  # the image of a 2-D batch, column by column
        return images[cols].transpose(0, 2, 1).reshape(-1, cols.shape[1])

    def chunks(live, batch, *runs):
        # Each piece gathers its words and runs, so that no pending piece
        # keeps a walked batch alive.
        rows = _chunk_rows((len(batch) + 1) * size * (1 + width))
        return [[a[:, live[i:i + rows]] for a in (batch, *runs)]
                for i in range(0, len(live), rows)]

    # Chunks hold their words column by column, as the steps read them.
    cols = (np.zeros((0, 1), dtype=np.uint8) if prefixes is None
            else np.ascontiguousarray(prefixes.T))
    runs = image_runs = np.zeros((0, cols.shape[1]), np.uint8)
    if len(cols) < max_len:
        runs = step.fold(project(cols), 1, max_len)[0]
        if image is not None:
            image_runs = target.fold(imaged(cols), 1, len(cols) * width)[0]
    stack = chunks(np.arange(cols.shape[1]), cols, runs, image_runs)
    while stack:
        cols, runs, image_runs = stack.pop()
        k = len(cols)
        if k >= max_len:
            yield cols.T, np.empty((0, k + 1), dtype=np.uint8)
            continue
        ext = np.empty((k + 1, size, cols.shape[1]), dtype=np.uint8)
        ext[:k] = cols[:, None]
        ext[k] = letters[:, None]
        cols = ext[:k, 0]  # lets the popped chunk go
        runs, bad, dead = step(project(ext), runs[:, None])
        ext = ext.reshape(k + 1, -1)
        runs = runs.reshape(len(runs), ext.shape[1])
        image_runs = np.tile(image_runs, size)  # none without an image
        if image is not None:  # step the last image block from its runs
            image_runs, failed = target.fold(imaged(ext), k * width,
                                             k * width, image_runs)
            dead, bad = failed & ~bad, failed | bad
        yield cols.T, ext[:, dead].T
        stack += chunks(np.flatnonzero(~bad), ext, runs, image_runs)
        del ext, runs, image_runs


def count_avoiding(spec: AvoidanceSpec, n_max: int) -> CountTable:
    """Count legal words of each length 0..n_max by one pruned walk."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    counts = [0] * (n_max + 1)
    for words, _ in walk_legal(spec, n_max):
        counts[words.shape[1]] += len(words)
    return CountTable(spec, tuple(counts))


@dataclass(frozen=True)
class MinimalForbiddenSet:
    """Spec-violating words whose one-letter truncations are both legal."""

    spec: AvoidanceSpec
    max_length: int
    words: frozenset[bytes]

    def ordered(self) -> list[bytes]:
        """The words, shortest first and lexicographic within a length."""
        return sorted(self.words, key=lambda w: (len(w), w))

    def to_lines(self) -> str:
        return "\n".join(word_to_text(w) for w in self.ordered()) + "\n"


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
    for _, minimal in walk_legal(spec, max_length):
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
        if not 1 <= alphabet_size <= 256:
            raise ValueError("alphabet_size must be 1..256: letters are bytes")
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

    to_dict = report_row


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
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
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

    to_dict = report_row


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
    enumerated = family_size <= max(enumeration_cap, samples)
    images = (sub.iter_images(seed_word) if enumerated else
              (sub.sample_image(seed_word, seed + i) for i in range(samples)))
    verified = 0
    for image in images:
        word = outer.apply(image)
        if len(word) == length and satisfies_spec(word, target).ok:
            verified += 1
    check = (exponent_denominator is None
             or _power_reaches(family_size, exponent_denominator, length))
    return FamilyReport(length, family_size, verified, check, enumerated)


def _power_reaches(base: int, exponent: int, bits: int) -> bool:
    """base ** exponent >= 2 ** bits, for base, bits >= 0 and exponent >= 1.

    With b the bit length of base, 2^(b-1) <= base < 2^b decides every case
    but (b-1)*exponent < bits < b*exponent, where the power has fewer than
    2*bits bits; a huge exponent never builds a huge power.
    """
    b = base.bit_length()
    if (b - 1) * exponent >= bits:
        return True
    if b * exponent <= bits:
        return False
    return base ** exponent >= 2 ** bits


@dataclass(frozen=True)
class ExhaustReport:
    """Longest legal word when the whole search tree is finite."""

    max_length: int | None
    witness: bytes | None
    exceeded: bool


def exhaust_max_length(spec: AvoidanceSpec, hard_cap: int) -> ExhaustReport:
    """Longest legal word, or a cap report when the walk still has room.

    The witness is the lexicographically least legal word of the greatest
    length.  Hitting a legal word of length hard_cap means the language may
    well be infinite, so the search stops and says so rather than pretending
    the cap is an answer.
    """
    if hard_cap < 1:
        raise ValueError("hard_cap must be >= 1")
    best = b""
    for words, _ in walk_legal(spec, hard_cap):
        if words.shape[1] == hard_cap:
            return ExhaustReport(None, None, True)
        least = min(row.tobytes() for row in words)  # rows share a length
        best = min(best, least, key=lambda w: (-len(w), w))
    return ExhaustReport(len(best), best, False)
