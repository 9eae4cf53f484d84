"""Morphism and substitution mechanics."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordavoid import (FixedPointStream, Morphism, ParseError, Substitution,
                       fixed_point_prefix, parse_morphism,
                       parse_substitution, power, word_from_text)

from conftest import format_morphism, format_substitution


@st.composite
def morphisms(draw):
    source = draw(st.integers(2, 4))
    target = draw(st.integers(2, 4))
    images = tuple(bytes(draw(st.lists(st.integers(0, target - 1),
                                       min_size=1, max_size=5)))
                   for _ in range(source))
    return Morphism(source, target, images)


@given(morphisms(), st.binary(max_size=12))
@settings(max_examples=100)
def test_apply_is_a_homomorphism(morphism, raw):
    word = bytes(x % morphism.source_size for x in raw)
    for cut in range(len(word) + 1):
        assert morphism.apply(word) == (morphism.apply(word[:cut])
                                        + morphism.apply(word[cut:]))


@given(morphisms(), st.integers(1, 4), st.binary(max_size=12))
@settings(max_examples=100)
def test_uniform_apply_concatenates_images(morphism, width, raw):
    uniform = Morphism(morphism.source_size, morphism.target_size,
                       tuple((img * width)[:width] for img in morphism.images))
    word = bytes(x % uniform.source_size for x in raw)
    assert uniform.apply(word) == b"".join(uniform.image(a) for a in word)


def test_apply_rejects_foreign_letters():
    for m in (Morphism(2, 2, (b"\x00\x01", b"\x01")),
              Morphism(2, 2, (b"\x00\x01", b"\x01\x01"))):
        with pytest.raises(ValueError):
            m.apply(b"\x02")


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30)
def test_power_composes(a, b):
    m = Morphism(2, 2, (word_from_text("01"), word_from_text("10")))
    word = word_from_text("01")
    assert power(m, a + b, word) == power(m, a, power(m, b, word))


def test_power_zero_is_identity():
    m = Morphism(2, 2, (word_from_text("01"), word_from_text("10")))
    assert power(m, 0, word_from_text("0110")) == word_from_text("0110")


def test_uniform_width():
    assert Morphism(2, 2, (b"\x00\x01", b"\x01\x00")).uniform_width == 2
    assert Morphism(2, 2, (b"\x00\x01", b"\x01")).uniform_width is None


def test_prolongable_and_fixed_point():
    thue = Morphism(2, 2, (word_from_text("01"), word_from_text("10")))
    assert thue.is_prolongable(0)
    prefix = fixed_point_prefix(thue, 0, 16)
    assert prefix == word_from_text("0110100110010110")
    # the defining property: applying the morphism reproduces a prefix
    assert thue.apply(prefix)[:16] == prefix

    shifted = Morphism(2, 2, (word_from_text("10"), word_from_text("01")))
    assert not shifted.is_prolongable(0)
    with pytest.raises(ValueError):
        FixedPointStream(shifted, 0)


def test_fixed_point_prefixes_nest(registry):
    for name in ("dekking_h", "fs_h", "pu_h", "pu_f"):
        m = getattr(registry, name)
        long = fixed_point_prefix(m, 0, 800)
        assert fixed_point_prefix(m, 0, 300) == long[:300]
        assert m.apply(long)[:800] == long


@given(morphisms(), st.none() | st.integers(2, 4),
       st.lists(st.integers(0, 300), max_size=4))
@settings(max_examples=100)
def test_stream_prefixes_are_prefixes_of_the_fixed_point(morphism, width,
                                                         lengths):
    """Letter 0 is prolongable; other letters may be erased (non-uniform) or
    all images cut to one width (uniform)."""
    k = morphism.source_size
    images = [bytes(x % k for x in img) for img in morphism.images]
    images = [b"\x00" + images[0]] + [img[1:] for img in images[1:]]
    if width is not None:
        images = [(img + bytes(width))[:width] for img in images]
    m = Morphism(k, k, tuple(images))
    stream = FixedPointStream(m, 0)
    for length in lengths:
        word = b"\x00"
        while len(word) < length and m.apply(word) != word:
            word = m.apply(word)
        if len(word) < length:
            with pytest.raises(ValueError, match="erases"):
                stream.prefix(length)
        else:
            assert stream.prefix(length) == word[:length]


def test_stream_of_an_erasing_morphism_is_finite():
    stream = FixedPointStream(Morphism(2, 2, (b"\x00\x01", b"")), 0)
    assert stream.prefix(2) == b"\x00\x01"
    with pytest.raises(ValueError, match="erases"):
        stream.prefix(3)


def test_negative_prefix_length_is_rejected():
    """A negative length would slice letters off the end of the buffer."""
    thue_morse = Morphism(2, 2, (b"\x00\x01", b"\x01\x00"))
    with pytest.raises(ValueError, match="length"):
        fixed_point_prefix(thue_morse, 0, -3)


def test_stream_matches_one_shot_prefix(registry):
    stream = FixedPointStream(registry.dekking_h, 0)
    assert stream.prefix(7) == fixed_point_prefix(registry.dekking_h, 0, 7)
    assert stream.prefix(500) == fixed_point_prefix(registry.dekking_h, 0, 500)


def test_morphism_text_round_trip(registry):
    for name in ("dekking_h", "dekking_g", "fs_h", "fs_g", "pu_f", "pu_h",
                 "pu_g1", "pu_g2"):
        m = getattr(registry, name)
        assert parse_morphism(format_morphism(m)) == m
    with pytest.raises(ParseError, match="line 1"):
        parse_morphism("0 = 01\n")


def test_substitution_text_round_trip(registry):
    for name in ("dekking_sub", "fs_sub"):
        s = getattr(registry, name)
        assert parse_substitution(format_substitution(s)) == s


def test_substitution_counts_are_products(registry):
    sub = registry.dekking_sub
    seed = registry.dekking_h.image(0)
    ones = seed.count(1)
    assert sub.count_images(seed) == 2 ** ones
    images = list(sub.iter_images(seed))
    assert len(images) == len(set(images)) == 2 ** ones
    lengths = {len(w) for w in images}
    assert lengths == {10 * len(seed)}


def test_substitution_images_are_choice_products():
    sub = Substitution(2, 2, ((b"\x00",), (b"\x01\x00", b"\x00\x01")))
    images = sorted(sub.iter_images(b"\x01\x00\x01"))
    expected = sorted(a + b"\x00" + b for a, b in
                      itertools.product([b"\x01\x00", b"\x00\x01"], repeat=2))
    assert images == expected


def test_sample_image_is_deterministic_and_valid(registry):
    sub = registry.fs_sub
    seed = registry.fs_h.image(0)
    first = sub.sample_image(seed, 7)
    assert first == sub.sample_image(seed, 7)
    assert first != sub.sample_image(seed, 8)
    universe = set(sub.iter_images(seed))
    assert {sub.sample_image(seed, s) for s in range(40)} <= universe


def test_annotated_flattening_keeps_classes(registry):
    annotated, classes = registry.fs_sub.to_annotated()
    assert annotated.source_size == len(classes)
    assert classes[:registry.fs_sub.source_size] == tuple(
        range(registry.fs_sub.source_size))
    for fresh, owner in enumerate(classes):
        assert annotated.image(fresh) in \
            registry.fs_sub.image_sets[owner]
