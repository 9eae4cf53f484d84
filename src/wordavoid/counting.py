"""Exact counting of avoiding words and growth-rate estimates.

Every search over legal words goes through one walker, `walk_legal`: it
extends a chunk of words of one length by every letter at once and carries,
per word, the runs of equal letters at each shift that end at its last
letter, so one `ColumnStep.fold` of the extensions' new letter decides
which die: it is the only place a fresh violation can end.  The same fold
says which of the dead are minimal forbidden words (every violation the
whole word), since every constraint (a forbidden factor, a forbidden
square, a cube) is a factor and legality is closed under taking factors.
Counting and minimality share one recorded walk per spec, kept for the
last `_WALKS_KEPT` specs walked: it tallies the chunks' rows and collects
the minimal extensions, and a count table or minimal set no deeper than
the spec's kept walk is sliced from it, which pays only when one process
asks for both views of a spec, the deeper first.  Exhaustion looks for
the longest word, and the verifier's bounded case has the walker carry
its words' image runs too, so the same call on each extension's last
image block decides which images fail.  Minimal forbidden words (both
one-letter truncations legal) feed an Aho-Corasick factor automaton whose
live part counts and bounds the language; its Perron root comes from power
iteration over the live edge list, standing in for the symbolic
characteristic polynomials.
"""

from __future__ import annotations

import math

import numpy as np

from .morphisms import Morphism, Substitution
from .words import (AvoidanceSpec, ColumnStep, Record, satisfies_spec,
                    word_to_text)


class CountTable(Record):
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
    its image's, only with an image), folded once from the prefixes.  One
    `ColumnStep.fold` of a level's new letter (and of its new image block)
    from the parents' runs, broadcast over the letters, decides which die.
    Nothing extends a word of max_len letters, so the deepest level gathers
    only its surviving words and yields them at once, without runs.  A
    chunk of k-letter words has at most
    `_chunk_rows((k + 1) * alphabet * (1 + W))` rows (W = 0 without an
    image), so at most about max_len x alphabet x `_SCREEN_BYTES` is live.
    With `classes`, the letters are 0..len(classes)-1 and letter x is
    checked as classes[x].
    """
    size = spec.alphabet_size if classes is None else len(classes)
    table = None if classes is None else np.array(classes, dtype=np.uint8)
    letters = np.arange(size, dtype=np.uint8)
    step = ColumnStep(spec, max_len)
    images, target = image or (None, None)
    width = 0 if image is None else images.shape[1]

    def project(cols):
        return cols if table is None else table[cols]

    def imaged(cols):  # the image of a batch, column by column
        return np.moveaxis(images[cols], -1, 1).reshape(
            (len(cols) * width,) + cols.shape[1:])

    def chunks(live, batch, *runs):
        # Each piece gathers its words and runs, so that no pending piece
        # keeps a walked batch alive.
        rows = _chunk_rows((len(batch) + 1) * size * (1 + width))
        for i in range(0, len(live), rows):
            yield [a[:, live[i:i + rows]] for a in (batch, *runs)]

    def leaves(live, batch):  # words that are not extended, yielded at once
        empty = np.empty((0, len(batch) + 1), dtype=np.uint8)
        for (words,) in chunks(live, batch):
            yield words.T, empty

    # Chunks hold their words column by column, as the steps read them.
    cols = (np.zeros((0, 1), dtype=np.uint8) if prefixes is None
            else np.ascontiguousarray(prefixes.T))
    if len(cols) >= max_len:
        yield from leaves(np.arange(cols.shape[1]), cols)
        return
    runs = step.fold(project(cols), 1, max_len)[0]
    image_runs = [] if image is None else [
        target.fold(imaged(cols), 1, len(cols) * width)[0]]
    stack = list(chunks(np.arange(cols.shape[1]), cols, runs, *image_runs))
    while stack:
        cols, runs, *image_runs = stack.pop()  # image runs with an image only
        k = len(cols)
        ext = np.empty((k + 1, size, cols.shape[1]), dtype=np.uint8)
        ext[:k] = cols[:, None]
        ext[k] = letters[:, None]
        cols = ext[:k, 0]  # lets the popped chunk go
        runs, whole, part = step.fold(project(ext), k, k, runs[:, None])
        bad, dead = whole | part, whole & ~part
        if image_runs:  # step the last image block from its runs
            image_runs[0], whole, part = target.fold(
                imaged(ext), k * width, k * width, image_runs[0][:, None])
            dead, bad = (whole | part) & ~bad, whole | part | bad
        ext = ext.reshape(k + 1, -1)
        yield cols.T, ext[:, dead].T
        live = (~bad).nonzero()[0]
        if k + 1 == max_len:  # the deepest level's words carry no runs
            del runs, image_runs
            yield from leaves(live, ext)
        else:
            stack += chunks(live, ext, *(r.reshape(len(r), ext.shape[1])
                                         for r in (runs, *image_runs)))
            del ext, runs, image_runs


# Specs whose deepest walk is kept, the most recently walked last.
_WALKS_KEPT = 8
_walks: dict[AvoidanceSpec, tuple[tuple[int, ...], frozenset[bytes]]] = {}


def _recorded_walk(spec: AvoidanceSpec, depth: int
                   ) -> tuple[tuple[int, ...], frozenset[bytes]]:
    """The number of legal words of each length and the minimal forbidden
    words, from one walk of at least `depth` letters.

    A walk to N letters holds both views of the language truncated at N:
    its words count it, and its dead extensions, of at most N letters, are
    its minimal forbidden words.  The deepest walk of each of the last
    `_WALKS_KEPT` specs walked is kept, so a query no deeper reads it and
    a deeper one walks again and replaces it.
    """
    kept = _walks.get(spec)
    if kept is not None and len(kept[0]) > depth:
        return kept
    counts = [0] * (depth + 1)
    found = set()
    for words, dead in walk_legal(spec, depth):
        counts[words.shape[1]] += len(words)
        data, width = dead.tobytes(), dead.shape[1]
        found.update(data[i:i + width] for i in range(0, len(data), width))
    _walks.pop(spec, None)
    if len(_walks) == _WALKS_KEPT:
        del _walks[next(iter(_walks))]
    kept = _walks[spec] = (tuple(counts), frozenset(found))
    return kept


def count_avoiding(spec: AvoidanceSpec, n_max: int) -> CountTable:
    """Count legal words of each length 0..n_max by one pruned walk, or
    from a kept walk at least as deep."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return CountTable(spec, _recorded_walk(spec, n_max)[0][:n_max + 1])


class MinimalForbiddenSet(Record):
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
    minimal extensions of legal words are exactly these words.  They come
    from the same walk as `count_avoiding`'s, kept or walked anew.
    """
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    counts, found = _recorded_walk(spec, max_length)
    if len(counts) > max_length + 1:
        found = frozenset(w for w in found if len(w) <= max_length)
    return MinimalForbiddenSet(spec, max_length, found)


class FactorAutomaton:
    """Deterministic complete automaton tracking forbidden-factor progress.

    States are the trie nodes of the forbidden words, numbered as the
    words, shortest first, add them; a state is dead once any forbidden
    word has been completed.  Each node is one row of a successor per
    letter, -1 where the trie has no child, and a breadth-first pass fills
    those from the Aho-Corasick failure state's row.  A forbidden word with
    a letter outside the alphabet can never occur and adds no state.
    Words avoiding the whole set correspond to paths from the root through
    live states.
    """

    def __init__(self, alphabet_size: int, forbidden: frozenset[bytes]):
        if not 1 <= alphabet_size <= 256:
            raise ValueError("alphabet_size must be 1..256: letters are bytes")
        self.alphabet_size = alphabet_size
        goto = [[-1] * alphabet_size]
        dead = [False]
        for word in sorted(forbidden, key=lambda w: (len(w), w)):
            if max(word, default=0) >= alphabet_size:
                continue
            node = 0
            for letter in word:
                if goto[node][letter] < 0:
                    goto[node][letter] = len(goto)
                    goto.append([-1] * alphabet_size)
                    dead.append(False)
                node = goto[node][letter]
            dead[node] = True

        fail = [0] * len(goto)
        queue = [child for child in goto[0] if child >= 0]
        goto[0] = [max(child, 0) for child in goto[0]]
        for node in queue:  # the queue grows as the pass reaches each level
            dead[node] = dead[node] or dead[fail[node]]
            row, back = goto[node], goto[fail[node]]
            for letter, child in enumerate(row):
                if child < 0:
                    row[letter] = back[letter]
                else:
                    fail[child] = back[letter]
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
        live: list[int] = []
        index = [-1] * len(self.dead)  # a dead state's stays -1
        for s, dead in enumerate(self.dead):
            if not dead:
                index[s] = len(live)
                live.append(s)
        sources: list[int] = []
        targets: list[int] = []
        for i, s in enumerate(live):
            succs = sorted([index[t] for t in self.transitions[s]
                            if index[t] >= 0])
            sources += [i] * len(succs)
            targets += succs
        return (tuple(live), np.array(sources, dtype=np.intp),
                np.array(targets, dtype=np.intp))

    def transition_matrix(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Adjacency counts between live states, with the state relabeling."""
        live, sources, targets = self._live_edges()
        matrix = np.zeros((len(live), len(live)))
        np.add.at(matrix, (sources, targets), 1.0)
        return matrix, live


def build_automaton(forbidden_set: MinimalForbiddenSet) -> FactorAutomaton:
    return FactorAutomaton(forbidden_set.spec.alphabet_size, forbidden_set.words)


class GrowthEstimate(Record):
    """Dominant eigenvalue of the live transition matrix."""

    eigenvalue: float
    states: int
    iterations: int
    residual: float


def growth_rate(automaton: FactorAutomaton, tol: float = 1e-9,
                max_iterations: int = 200_000) -> GrowthEstimate:
    """Perron root of the live part by power iteration.

    Iteration runs on M + I, whose spectrum is the shifted one but which is
    aperiodic whenever the live part is nonempty, so the Rayleigh quotient
    settles even on periodic languages; (M + I)v >= v for the nonnegative
    iterates, so their norm never vanishes.  The product walks the live edge
    list instead of a dense matrix, one unbuffered add per step: each row
    starts from its identity term, then adds its successors in ascending
    order, the order a dense row product takes.  The product that gives one
    step's Rayleigh quotient is the next step's iterate.

    A live part without a cycle (a finite language) has Perron root 0, which
    the iterates of M + I approach only about as 1/k in k steps.  So once n
    steps (n live states) pass without convergence, one Kahn pass over the
    edge list looks for a cycle, and without one the estimate is 0.0 with
    residual 0.0 at once.  A run that converges sooner makes no pass.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    live, sources, targets = automaton._live_edges()
    n = len(live)
    if n == 0 or len(sources) == 0:
        return GrowthEstimate(0.0, n, 0, 0.0)

    def shifted(vec: np.ndarray) -> np.ndarray:
        out = vec.copy()
        np.add.at(out, sources, vec[targets])  # in edge order
        return out

    vec = np.full(n, 1.0 / math.sqrt(n))
    nxt = shifted(vec)
    previous = 0.0
    for iteration in range(1, max_iterations + 1):
        vec = nxt / math.sqrt(nxt @ nxt)  # np.linalg.norm's own arithmetic
        nxt = shifted(vec)
        rayleigh = float(vec @ nxt)
        residual = abs(rayleigh - previous)
        if residual < tol:
            return GrowthEstimate(rayleigh - 1.0, n, iteration, residual)
        if iteration == n and _acyclic(sources, targets, n):
            return GrowthEstimate(0.0, n, iteration, 0.0)
        previous = rayleigh
    return GrowthEstimate(previous - 1.0, n, max_iterations, residual)


def _acyclic(sources: np.ndarray, targets: np.ndarray, n: int) -> bool:
    """Whether the edges among n states close no cycle, by Kahn's algorithm
    in rounds: each drops the edges out of the states that no edge left
    enters.  A round that drops none leaves a cycle, since every source of
    an edge left is entered by another."""
    while len(sources):
        keep = (np.bincount(targets, minlength=n) > 0)[sources]
        if keep.all():
            return False
        sources, targets = sources[keep], targets[keep]
    return True


class FamilyReport(Record):
    """Outcome of enumerating one substitution image family."""

    word_length: int
    family_size: int
    verified_count: int
    exponent_check: bool
    enumerated: bool


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


class ExhaustReport(Record):
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
    longest, kept = 0, []  # the chunks of the greatest length so far
    for words, _ in walk_legal(spec, hard_cap):  # the empty word first
        length = words.shape[1]
        if length == hard_cap:
            return ExhaustReport(None, None, True)
        if length > longest:
            longest, kept = length, []
        if length == longest:
            kept.append(words)
    best = min(row.tobytes() for words in kept for row in words)
    return ExhaustReport(longest, best, False)
