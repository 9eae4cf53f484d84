"""Uniform morphisms, fixed points, and substitutions with alternate images."""

from __future__ import annotations

import itertools
import math
import random
from functools import cached_property

import numpy as np

from .words import ParseError, Record, content_lines, word_from_text


class Morphism(Record):
    """Letter-to-word map, applied by concatenating images."""

    source_size: int
    target_size: int
    images: tuple[bytes, ...]

    def __post_init__(self):
        if len(self.images) != self.source_size:
            raise ValueError("one image per source letter")
        for img in self.images:
            if any(b >= self.target_size for b in img):
                raise ValueError("image letter outside target alphabet")

    @property
    def uniform_width(self) -> int | None:
        widths = {len(img) for img in self.images}
        return widths.pop() if len(widths) == 1 else None

    @property
    def injective_on_letters(self) -> bool:
        return len(set(self.images)) == self.source_size

    def image(self, letter: int) -> bytes:
        return self.images[letter]

    @cached_property
    def table(self) -> np.ndarray | None:
        """The images as the rows of a uint8 array; None unless uniform."""
        width = self.uniform_width
        flat = np.frombuffer(b"".join(self.images), dtype=np.uint8)
        return None if width is None else flat.reshape(self.source_size, width)

    def apply(self, word: bytes) -> bytes:
        try:
            if self.table is not None:  # one lookup for uniform images
                return self.table[np.frombuffer(word, dtype=np.uint8)].tobytes()
            return b"".join(self.images[a] for a in word)
        except IndexError:
            raise ValueError("word uses letters outside the source alphabet"
                             ) from None

    def is_prolongable(self, letter: int) -> bool:
        if not 0 <= letter < self.source_size:
            return False
        img = self.images[letter]
        return len(img) > 1 and img[0] == letter


def power(morphism: Morphism, n: int, word: bytes) -> bytes:
    """Apply a morphism from an alphabet to itself n times."""
    if morphism.source_size != morphism.target_size:
        raise ValueError("powers need matching alphabets")
    if n < 0:
        raise ValueError("negative power")
    for _ in range(n):
        word = morphism.apply(word)
    return word


class FixedPointStream:
    """Growing prefix of the fixed point of a morphism prolongable at `seed`.

    Each request applies the morphism to as many not yet expanded letters of
    an internal buffer as it needs, so successive prefixes cost amortized
    linear time.
    """

    def __init__(self, morphism: Morphism, seed: int):
        if morphism.source_size != morphism.target_size:
            raise ValueError("fixed points need matching alphabets")
        if not morphism.is_prolongable(seed):
            raise ValueError(f"morphism is not prolongable at {seed}")
        self.morphism = morphism
        self.seed = seed
        self._buf = bytearray(morphism.image(seed))
        self._expanded = 1  # letters of the buffer already pushed through

    def prefix(self, length: int) -> bytes:
        if length < 0:
            raise ValueError("prefix length must be >= 0")
        width = self.morphism.uniform_width or 1
        while len(self._buf) < length:
            if self._expanded >= len(self._buf):
                raise ValueError("morphism erases letters; fixed point is finite")
            stop = min(len(self._buf),
                       self._expanded - (len(self._buf) - length) // width)
            self._buf += self.morphism.apply(self._buf[self._expanded:stop])
            self._expanded = stop
        return bytes(self._buf[:length])


def fixed_point_prefix(morphism: Morphism, seed: int, length: int) -> bytes:
    """First `length` letters of the fixed point starting at `seed`."""
    return FixedPointStream(morphism, seed).prefix(length)


class Substitution(Record):
    """Morphism whose letters may each carry several alternate images."""

    source_size: int
    target_size: int
    image_sets: tuple[tuple[bytes, ...], ...]

    def __post_init__(self):
        if len(self.image_sets) != self.source_size:
            raise ValueError("one image set per source letter")
        for choices in self.image_sets:
            if not choices:
                raise ValueError("every letter needs at least one image")
            for img in choices:
                if any(b >= self.target_size for b in img):
                    raise ValueError("image letter outside target alphabet")

    def _choices(self, word: bytes) -> list[tuple[bytes, ...]]:
        try:
            return [self.image_sets[a] for a in word]
        except IndexError:
            raise ValueError("word uses letters outside the source alphabet"
                             ) from None

    def count_images(self, word: bytes) -> int:
        return math.prod(len(choices) for choices in self._choices(word))

    def iter_images(self, word: bytes, cap: int = 1 << 20):
        """All images of `word`, in lexicographic choice order."""
        count = self.count_images(word)
        if count > cap:
            raise ValueError(f"image family of {count} words is larger than"
                             f" the enumeration limit {cap}")
        for picks in itertools.product(*self._choices(word)):
            yield b"".join(picks)

    def sample_image(self, word: bytes, seed: int) -> bytes:
        """One image of `word`, choices drawn from a fresh seeded generator."""
        rng = random.Random(seed)
        return b"".join(rng.choice(choices) for choices in self._choices(word))

    def to_annotated(self) -> tuple[Morphism, tuple[int, ...] | None]:
        """Flatten to a plain morphism over an alphabet of (letter, choice) ids.

        Ids 0..source_size-1 keep each letter's first image; extra choices get
        fresh ids in (letter, choice) order.  Returns the morphism and the map
        from new id back to the underlying letter, or None when no letter has
        an alternate image and the morphism is the substitution itself.
        """
        images = [choices[0] for choices in self.image_sets]
        classes = list(range(self.source_size))
        for letter, choices in enumerate(self.image_sets):
            for img in choices[1:]:
                images.append(img)
                classes.append(letter)
        return (Morphism(len(images), self.target_size, tuple(images)),
                tuple(classes) if len(classes) > self.source_size else None)


def parse_morphism(text: str) -> Morphism:
    images = _parse_image_lines(text, allow_choices=False)
    flat = tuple(choices[0] for choices in images)
    target = max((max(img) for img in flat if img), default=-1) + 1
    return Morphism(len(flat), target, flat)


def parse_substitution(text: str) -> Substitution:
    images = _parse_image_lines(text, allow_choices=True)
    target = max((max(img) for choices in images for img in choices if img),
                 default=-1) + 1
    return Substitution(len(images), target, tuple(images))


def _parse_image_lines(text: str, allow_choices: bool) -> list[tuple[bytes, ...]]:
    entries: dict[int, tuple[bytes, ...]] = {}
    for lineno, line in content_lines(text):
        try:
            lhs, arrow, rhs = line.partition("->")
            if not arrow:
                raise ParseError("expected `letter -> image`")
            try:
                letter = int(lhs)
            except ValueError:
                raise ParseError(f"bad letter {lhs.strip()!r}") from None
            choices = tuple(word_from_text(part) for part in rhs.split(","))
            if len(choices) > 1 and not allow_choices:
                raise ParseError("alternate images not allowed here")
            if letter in entries:
                raise ParseError(f"duplicate letter {letter}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        entries[letter] = choices
    if sorted(entries) != list(range(len(entries))):
        raise ParseError("letters must cover 0..k-1")
    return [entries[a] for a in range(len(entries))]
