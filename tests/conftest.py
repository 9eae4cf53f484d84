"""Shared fixtures and brute-force oracles.

The oracles restate the definitions with plain loops so the fast paths in
the package are checked against something that cannot share their bugs.
"""

import itertools
import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import strategies as st

import wordavoid
from wordavoid import (AvoidanceSpec, Morphism, ParseError, Substitution,
                       counting, load_registry, word_to_text)


@pytest.fixture(scope="session")
def registry():
    return load_registry()


@pytest.fixture(autouse=True)
def forget_walks():
    """Each test starts with no kept walk, so a test that counts or lists
    minimal words walks, whatever the tests before it asked for."""
    counting._walks.clear()


def run_script(script: str) -> subprocess.CompletedProcess:
    """Run a Python script in a child interpreter that imports this package
    from where the tests do, with two usable CPUs and block-buffered
    stdout; give up after 60 s."""
    script = ("import os\nos.sched_getaffinity = lambda pid: {0, 1}\n"
              + textwrap.dedent(script))
    src = os.path.dirname(os.path.dirname(wordavoid.__file__))
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60, env=env)


def use_cpus(monkeypatch, cpus):
    """Make `cpus` CPUs usable and count the workers forked: `os.fork`
    still forks, and each call adds an entry to the list returned."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr("os.fork", counted_fork)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)))
    return forks


def format_morphism(morphism: Morphism) -> str:
    """A morphism in the file format `parse_morphism` reads."""
    lines = [f"{a} -> {word_to_text(img)}" for a, img in enumerate(morphism.images)]
    return "\n".join(lines) + "\n"


def format_substitution(sub: Substitution) -> str:
    """A substitution in the file format `parse_substitution` reads."""
    lines = []
    for a, choices in enumerate(sub.image_sets):
        lines.append(f"{a} -> " + ", ".join(word_to_text(img) for img in choices))
    return "\n".join(lines) + "\n"


def with_image_letter(morphism: Morphism, image_index: int, position: int,
                      letter: int) -> Morphism:
    """Copy of a morphism with one image letter replaced."""
    images = list(morphism.images)
    img = bytearray(images[image_index])
    img[position] = letter
    images[image_index] = bytes(img)
    return Morphism(morphism.source_size, morphism.target_size, tuple(images))


@st.composite
def specs(draw, alphabet, max_min_root=4):
    """Small random specs: a few forbidden factors, one square policy and
    maybe cubes."""
    letters = st.integers(0, alphabet - 1)
    factor = st.lists(letters, min_size=1, max_size=4).map(bytes)
    forbidden = tuple(draw(st.lists(factor, max_size=3)))
    root = st.lists(letters, min_size=1, max_size=2).map(bytes)
    policy = draw(st.sampled_from(("min-root", "whitelist")))
    if policy == "min-root":
        squares = {"square_min_root": draw(st.integers(1, max_min_root))}
    else:
        roots = draw(st.lists(root, max_size=3))
        squares = {"square_whitelist": tuple(r + r for r in roots)}
    return AvoidanceSpec(alphabet, forbidden, cubefree=draw(st.booleans()),
                         **squares)


# ---------------------------------------------------------------------------
# Definitional oracles.

def naive_word_from_text(text: str) -> bytes:
    """`word_from_text` by its definition, one character at a time."""
    out = bytearray()
    for ch in text:
        if ch.isspace():
            continue
        if not "0" <= ch <= "9":
            raise ParseError(f"bad letter {ch!r} in word")
        out.append(int(ch))
    return bytes(out)


def naive_squares(word, min_root=1, max_root=None):
    """All (position, root) square occurrences, by the definition."""
    out = []
    top = len(word) // 2 if max_root is None else max_root
    for pos in range(len(word)):
        for root in range(min_root, top + 1):
            if pos + 2 * root > len(word):
                break
            if word[pos:pos + root] == word[pos + root:pos + 2 * root]:
                out.append((pos, root))
    return out


def naive_cubes(word, min_root=1, max_root=None):
    out = []
    top = len(word) // 3 if max_root is None else max_root
    for pos in range(len(word)):
        for root in range(min_root, top + 1):
            if pos + 3 * root > len(word):
                break
            if (word[pos:pos + root] == word[pos + root:pos + 2 * root]
                    == word[pos + 2 * root:pos + 3 * root]):
                out.append((pos, root))
    return out


def naive_gap_occurrences(word, pattern):
    """All (position, gap) occurrences of first+alpha+middle+alpha+last."""
    out = []
    for gap in range(0, (len(word) - 3) // 2 + 1):
        span = 2 * gap + 3
        for pos in range(len(word) - span + 1):
            if (word[pos] == pattern.first
                    and word[pos + gap + 1] == pattern.middle
                    and word[pos + span - 1] == pattern.last
                    and word[pos + 1:pos + gap + 1]
                    == word[pos + gap + 2:pos + span - 1]):
                out.append((pos, gap))
    return sorted(out)


def naive_satisfies(word, spec: AvoidanceSpec, max_root=None) -> bool:
    """Legality by definition; max_root ignores longer squares and cubes."""
    if any(letter >= spec.alphabet_size for letter in word):
        return False
    for factor in spec.forbidden:
        if factor and factor in word:
            return False
    if spec.square_min_root is not None:
        if naive_squares(word, spec.square_min_root, max_root):
            return False
    if spec.square_whitelist is not None:
        allowed = set(spec.square_whitelist)
        for pos, root in naive_squares(word, 1, max_root):
            if word[pos:pos + 2 * root] not in allowed:
                return False
    if spec.cubefree and naive_cubes(word, 1, max_root):
        return False
    return True


def naive_count(spec: AvoidanceSpec, n: int) -> int:
    total = 0
    for tup in itertools.product(range(spec.alphabet_size), repeat=n):
        if naive_satisfies(bytes(tup), spec):
            total += 1
    return total


def naive_legal_words(spec: AvoidanceSpec, n_max: int):
    """The legal words of each length up to n_max, one list a length, found
    by extending only legal words: every rule forbids a factor, so an
    illegal word has no legal extension.  Each word passes `naive_satisfies`
    whole."""
    words = [b""]
    for _ in range(n_max + 1):
        words = [w for w in words if naive_satisfies(w, spec)]
        yield words
        words = [w + bytes((x,)) for w in words
                 for x in range(spec.alphabet_size)]


def all_words(alphabet_size, length):
    for tup in itertools.product(range(alphabet_size), repeat=length):
        yield bytes(tup)


def naive_inclusions(morphism):
    """Brute interior occurrences of image(c) inside image(a)+image(b)."""
    out = []
    for a in range(morphism.source_size):
        for b in range(morphism.source_size):
            combined = morphism.image(a) + morphism.image(b)
            for c in range(morphism.source_size):
                img = morphism.image(c)
                for off in range(1, len(combined) - len(img)):
                    if combined[off:off + len(img)] == img:
                        out.append((a, b, c, off))
    return out


def naive_interchanges(morphism):
    """Brute splits image(c) = prefix of image(a) + suffix of image(b)."""
    width = morphism.uniform_width
    found = {}
    for a in range(morphism.source_size):
        for b in range(morphism.source_size):
            for c in range(morphism.source_size):
                if c == a or c == b:
                    continue
                ia, ib, ic = (morphism.image(x) for x in (a, b, c))
                splits = [k for k in range(1, width)
                          if ia[:k] == ic[:k] and ib[k:] == ic[k:]]
                if splits:
                    found[(a, b, c)] = splits
    return found
