"""Registry loading, data-file pinning, and mutation helpers."""

import hashlib
from importlib import resources

import pytest

from wordavoid import (format_spec, load_registry, parse_morphism, parse_spec,
                       parse_substitution, word_from_text)
from wordavoid.instances import (DATA_NAMES, MORPHISM_NAMES, SPEC_ALIASES,
                                 SPEC_NAMES, SUBSTITUTION_NAMES)

from conftest import format_morphism, format_substitution, with_image_letter

# Checksums pin the packaged files against silent edits.  Regenerate with
# `sha256sum src/wordavoid/scenarios/*` after an intentional change.
DATA_CHECKSUMS = {
    "dekking_binary.txt": "5cb9a9081bab27360113a6516dc138b4f6fabafd7d90fe3e30d67a290df5e046",
    "dekking_g.txt": "373f7e44e3c07cefdc866f585f4fc009b6e92ce45e2d5bbbf99764265b0a48ba",
    "dekking_g_source.txt": "1d1ba0967f4fe9da8461f5715a7106fbabb25c8efde50a08aac14734f6f4ae24",
    "dekking_h.txt": "39e5c49d4443c32b868fa0dafa17c6f069c913cf6164bfaf053d716cc2a51a31",
    "dekking_h_source.txt": "6274a12849de56ab90f78e84294d0615c36087cc002bf3699c8b83124cae59ff",
    "dekking_sub.txt": "0d3b3de85fb812fb4707652641773916b61c658d70b5d9db32fa349ed1e9d2be",
    "ejs2.txt": "89bb89364cd3756874083b37d564c9ffefc34ddb631dbe92b33a472ed486082e",
    "ejs3.txt": "1ab12fe9449ac844907a1eb73864a23d6d439c9b967a06729ffdb6947a03d4c2",
    "fs_binary.txt": "365e158b6d09d2e028a7fee0316d217c47f0a10a878027bec9477b86a77b80c0",
    "fs_g.txt": "99ed1097da5016aed95df1d5d181ea04dc62ed6a0d498a5720801db8b879897f",
    "fs_g_source.txt": "67a5d62765cb0239d40da2504f87f25b14c4723f65bdce7742f3ccbcfeb6b453",
    "fs_h.txt": "1cdc0e3a0300ec04710521f77fb5963e619c20e106bbf98b13bc50c8038adbc4",
    "fs_h_source.txt": "a4ec7c363d5cd3397bfdf01d2c7ed2a11e237768a0422706ead6316f7725a8fe",
    "fs_h_target.txt": "932310d01415385a8c55c8d94c8fe965e7326335fb35176b20a4377b1f3e2e7c",
    "fs_sub.txt": "d76912faf75fc2801767be0eaede2da1f6bdc6f133fe9fe6d42ab4cd1d04d915",
    "pu_binary.txt": "87f8dd976673cb879156da50f7d7d1e878d32154f19fea9d5a6d4685b2b4604a",
    "pu_f.txt": "28b4554a421c0291fef337fe7096641bae4ad18f19d2d27aee5a5e580b012821",
    "pu_g1.txt": "288526109c828082192b244fe433733a57855c46a70986edb6cc803957b68453",
    "pu_g2.txt": "644c9fcdb3e18d1d1e406780bb9a2b02306290070b704339b01781c4b79104f4",
    "pu_h.txt": "9f1d628d6203449497fcfff31388d8803c138790088daf1d32c006470e94657e",
    "pu_source.txt": "2e32d5227d26b2e958e3b8a1f169d0f9f7d7c6f77e1e6ef76737c7278f380cef",
    "squarefree4.txt": "5e3beb8209733443b8c6ddccdf819b00c2bb61dd3cffa648bd285315e3733d1f",
    "reference_prefixes.json": "bdb9862125dcc84808701e5f4d42bfd0bf69ecfc7245f4e832a2ac5efba57a6d",
    "shuffle_coder_cases.json": "e4a423ac7d5f95c982c233cd5acb7ed100c5de5982149fdd18b6c1eb7c570b70",
}


def test_packaged_files_match_checksums():
    root = resources.files("wordavoid") / "scenarios"
    seen = {}
    for entry in root.iterdir():
        if entry.name.endswith((".txt", ".json")):
            seen[entry.name] = hashlib.sha256(
                entry.read_bytes()).hexdigest()
    assert seen == DATA_CHECKSUMS


def test_registry_covers_every_declared_name(registry):
    for name in MORPHISM_NAMES + SUBSTITUTION_NAMES + SPEC_NAMES:
        assert hasattr(registry, name)
    assert set(registry.reference_prefixes) >= {
        "dekking_core_50", "dekking_binary_60", "shuffle_base_27",
        "shuffle_even_18", "shuffle_odd_18"}
    assert len(registry.coder_case_atlas) == 24


def test_registry_round_trips(registry):
    for name in MORPHISM_NAMES:
        m = getattr(registry, name)
        assert parse_morphism(format_morphism(m)) == m
    for name in SUBSTITUTION_NAMES:
        s = getattr(registry, name)
        assert parse_substitution(format_substitution(s)) == s
    for name in SPEC_NAMES:
        spec = getattr(registry, name)
        assert parse_spec(format_spec(spec)) == spec


def test_morphism_shapes(registry):
    assert registry.dekking_h.uniform_width == 10
    assert registry.dekking_g.uniform_width == 6
    assert registry.fs_h.uniform_width == 24
    assert registry.fs_g.uniform_width == 6
    for name in ("pu_f", "pu_h", "pu_g1", "pu_g2"):
        assert getattr(registry, name).uniform_width == 3
    assert registry.pu_f.source_size == 2
    assert registry.pu_h.source_size == 4


def test_forbidden_triple_set(registry):
    triples = {f for f in registry.pu_source.forbidden if len(f) == 3}
    assert len(triples) == 16
    assert all(len(w) == 3 for w in triples)
    for text in ("010", "013", "021", "323"):
        assert word_from_text(text) in triples
    assert word_from_text("012") not in triples


def test_spec_aliases(registry):
    assert registry.spec_by_name("dekking") is registry.dekking_binary
    assert registry.spec_by_name("fraenkel-simpson") is registry.fs_binary
    assert registry.spec_by_name("ejs2") is registry.ejs2
    assert registry.spec_by_name("ejs3") is registry.ejs3
    assert registry.spec_by_name("fs_binary") is registry.fs_binary
    assert registry.spec_by_name("dekking_h") is None
    assert registry.spec_by_name("/tmp/nope.txt") is None
    assert set(SPEC_ALIASES) == {"dekking", "fraenkel-simpson", "ejs2", "ejs3"}


def test_registry_is_cached(registry):
    assert load_registry() is registry


def test_spec_relationships(registry):
    assert set(registry.dekking_h_source.forbidden) <= \
        set(registry.dekking_g_source.forbidden)
    assert set(registry.fs_h_source.forbidden) <= \
        set(registry.fs_h_target.forbidden) <= \
        set(registry.fs_g_source.forbidden)
    assert registry.fs_binary.square_whitelist is not None
    assert registry.dekking_binary.square_min_root == 4
    assert registry.dekking_binary.cubefree


def test_reference_prefixes_nest(registry):
    refs = registry.reference_prefixes
    for short_key, long_key in (("dekking_core_50", "dekking_core_2000"),
                                ("dekking_binary_60", "dekking_binary_2000"),
                                ("shuffle_base_27", "shuffle_base_2000"),
                                ("shuffle_even_18", "shuffle_even_2000"),
                                ("shuffle_odd_18", "shuffle_odd_2000")):
        assert refs[long_key].startswith(refs[short_key])


def test_atlas_rows_are_well_formed(registry):
    for row in registry.coder_case_atlas:
        assert row["coder"] in ("pu_g1", "pu_g2")
        assert 0 <= row["a"] < 4 and 0 <= row["b"] < 4 and 0 <= row["c"] < 4
        assert row["offset"] in (1, 2)
        assert isinstance(row["method"], str)


def test_with_image_letter(registry):
    original = registry.dekking_h
    assert original.image(2)[5] == 3
    mutated = with_image_letter(original, 2, 5, 1)
    assert mutated.image(2) != original.image(2)
    assert mutated.image(2)[5] == 1
    for k in (0, 1, 3):
        assert mutated.image(k) == original.image(k)
    assert original.image(2)[5] == 3  # original untouched
    with pytest.raises(IndexError):
        with_image_letter(original, 0, 99, 1)


def test_replaced_overrides_one_entry(registry):
    mutated = with_image_letter(registry.pu_g1, 0, 0, 1)
    clone = registry.replaced(pu_g1=mutated)
    assert clone.pu_g1 is mutated
    assert clone.pu_g2 is registry.pu_g2
    assert load_registry() is registry
