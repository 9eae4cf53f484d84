"""Acceptance checklist: one printed PASS/FAIL line per shipped claim.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines on
passing runs too). Tolerances and time limits are part of each criterion
and are asserted, not merely displayed.
"""

import random
import time

from wordavoid import (AvoidanceSpec, build_automaton, count_avoiding,
                       exhaust_max_length, find_squares, fixed_point_prefix,
                       growth_rate, lower_bound_family, max_square_root,
                       minimal_forbidden, perfect_shuffle, power,
                       run_scenario, verify_square_transfer, word_from_text,
                       word_to_text)
from wordavoid.instances import MORPHISM_NAMES
from wordavoid.scenarios import G_TABLE, H_TABLE, SCENARIOS

from conftest import (all_words, naive_legal_words, naive_squares,
                      with_image_letter)


# Both minimal forbidden sets as first derived and cross-validated; kept so
# a later size drift can be reported as an exact symmetric difference.
DEKKING_MINIMAL_L20 = """
000 111 010101 101010 00110011 01100110 10011001 11001100 001001001
010010010 011011011 100100100 101101101 110110110 0010100101 0100101001
0101001010 0101101011 0110101101 1001010010 1010010100 1010110101 1011010110
1101011010 001011001011 001101001101 010011010011 010110010110 011001011001
011010011010 100101100101 100110100110 101001101001 101100101100
110010110010 110100110100 0010110100101101 0100101101001011 0101101001011010
0110100101101001 1001011010010110 1010010110100101 1011010010110100
1101001011010010 001001011001001011 001001101001001101 001011001001011001
001011011001011011 001101001001101001 001101101001101101 010010011010010011
010010110010010110 010011010010011010 010011011010011011 010110010010110010
010110110010110110 011001001011001001 011001011011001011 011010010011010010
011010011011010011 011011001011011001 011011010011011010 100100101100100101
100100110100100110 100101100100101100 100101101100101101 100110100100110100
100110110100110110 101001001101001001 101001101101001101 101100100101100100
101100101101100101 101101001101101001 101101100101101100 110010010110010010
110010110110010110 110100100110100100 110100110110100110 110110010110110010
110110100110110100 00100110110010011011 00110110010011011001
01001101100100110110 01100100110110010011 01101100100110110010
10010011011001001101 10011011001001101100 10110010011011001001
11001001101100100110 11011001001101100100
""".split()

FS_MINIMAL_L20 = """
0000 1010 1111 001001 010010 011011 100100 101101 110110 00010001 00100010
00110011 01000100 01100110 01110111 10001000 10011001 10111011 11001100
11011101 11101110 0001100011 0011000110 0011100111 0110001100 0111001110
1000110001 1001110011 1100011000 1100111001 1110011100 000111000111
001011001011 001110001110 010110010110 011001011001 011100011100
100011100011 100101100101 101100101100 110001110001 110010110010
111000111000 00010110001011 00101100010110 00101110010111 01011000101100
01011100101110 01100010110001 01110010111001 10001011000101 10010111001011
10110001011000 10111001011100 11000101100010 11001011100101 11100101110010
0001011100010111 0010111000101110 0101110001011100 0111000101110001
1000101110001011 1011100010111000 1100010111000101 1110001011100010
""".split()

INTERCHANGE_TRIPLES = ((0, 3, 2), (1, 2, 3), (2, 1, 0), (3, 0, 1))


def _report(num: int, text: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_pinned_prefixes(registry):
    refs = registry.reference_prefixes
    start = time.perf_counter()
    core = fixed_point_prefix(registry.dekking_h, 0, 50)
    binary = registry.dekking_g.apply(fixed_point_prefix(
        registry.dekking_h, 0, 10))[:60]
    base = fixed_point_prefix(registry.pu_f, 0, 27)
    small = fixed_point_prefix(registry.pu_h, 0, 6)
    even = registry.pu_g2.apply(small)[:18]
    odd = registry.pu_g1.apply(small)[:18]
    elapsed = time.perf_counter() - start
    ok = (word_to_text(core) == refs["dekking_core_50"]
          and word_to_text(binary) == refs["dekking_binary_60"]
          and word_to_text(base) == refs["shuffle_base_27"]
          and word_to_text(even) == refs["shuffle_even_18"]
          and word_to_text(odd) == refs["shuffle_odd_18"]
          and elapsed < 1.0)
    _report(1, "pinned fixed-point prefixes (50/60/27/18/18 symbols)",
            ok, f"{elapsed:.3f}s")


def test_criterion_2_count_tables(registry):
    start = time.perf_counter()
    got_g = count_avoiding(registry.dekking_binary, 17).counts
    time_g = time.perf_counter() - start
    start = time.perf_counter()
    got_h = count_avoiding(registry.fs_binary, 18).counts
    time_h = time.perf_counter() - start
    tables_ok = (got_g == G_TABLE and got_h == H_TABLE
                 and time_g < 10.0 and time_h < 10.0)
    naive_ok = all(
        list(got[:17]) == [len(w) for w in naive_legal_words(spec, 16)]
        for spec, got in ((registry.dekking_binary, got_g),
                          (registry.fs_binary, got_h)))
    _report(2, "count tables exact and cross-checked naively to n=16",
            tables_ok and naive_ok, f"{time_g:.2f}s and {time_h:.2f}s")


def test_criterion_3_growth_bounds(registry):
    runs = AvoidanceSpec(2, (word_from_text("000"), word_from_text("111")))
    golden = growth_rate(build_automaton(minimal_forbidden(runs, 3)))
    details = [f"golden {golden.eigenvalue:.6f}"]
    ok = abs(golden.eigenvalue - 1.618034) < 1e-5
    for label, spec, target, frozen in (
            ("dekking", registry.dekking_binary, 1.178, DEKKING_MINIMAL_L20),
            ("fs", registry.fs_binary, 1.135, FS_MINIMAL_L20)):
        derived = minimal_forbidden(spec, 20)
        est = growth_rate(build_automaton(derived))
        ok = ok and abs(est.eigenvalue - target) < 0.005
        details.append(f"{label} {est.eigenvalue:.6f}"
                       f" from {len(derived.words)} words")
        if len(derived.words) != len(frozen):
            diff = sorted({word_to_text(w) for w in derived.words}
                          ^ set(frozen), key=lambda t: (len(t), t))
            details.append(f"{label} size {len(derived.words)} !="
                           f" {len(frozen)}, symmetric difference {diff}")
    _report(3, "growth rates within tolerance (sizes vs 90 and 65 reported)",
            ok, "; ".join(details))


def test_criterion_4_lower_bound_families(registry):
    start = time.perf_counter()
    dek = lower_bound_family(registry.dekking_sub, registry.dekking_g,
                             registry.dekking_h.image(0),
                             registry.dekking_binary,
                             exponent_denominator=300)
    fs = lower_bound_family(registry.fs_sub, registry.fs_g,
                            registry.fs_h.image(0), registry.fs_binary,
                            exponent_denominator=1152)
    elapsed = time.perf_counter() - start
    ok = (dek.family_size == 4 and dek.word_length == 600
          and dek.verified_count == 4 and dek.enumerated
          and dek.exponent_check and 4 == 2 ** (600 // 300)
          and fs.family_size == 16 and fs.word_length == 3456
          and fs.verified_count == 16 and fs.enumerated
          and fs.exponent_check and 16 >= 2 ** (3456 // 1152)
          and elapsed < 30.0)
    _report(4, "families of 4 x 600 and 16 x 3456 legal words, "
            "meeting their exponents", ok, f"{elapsed:.1f}s")


def test_criterion_5_certificates(registry):
    reg = registry
    dek_h = verify_square_transfer(reg.dekking_h, reg.dekking_h_source,
                                   reg.squarefree4)
    dek_g = verify_square_transfer(reg.dekking_g, reg.dekking_g_source,
                                   reg.dekking_binary,
                                   fixed_point=(reg.dekking_h, 0))
    fs_h = verify_square_transfer(reg.fs_h, reg.fs_h_source,
                                  AvoidanceSpec(5, square_min_root=1))
    fs_g = verify_square_transfer(reg.fs_g, reg.fs_g_source, reg.fs_binary,
                                  fixed_point=(reg.fs_h, 0))
    pu_h = verify_square_transfer(reg.pu_h, reg.pu_source, reg.squarefree4)
    pu_g1 = verify_square_transfer(reg.pu_g1, reg.pu_source, reg.pu_binary,
                                   fixed_point=(reg.pu_h, 0))
    pu_g2 = verify_square_transfer(reg.pu_g2, reg.pu_source, reg.pu_binary,
                                   fixed_point=(reg.pu_h, 0))

    def inventory(cert):
        return len(cert.inclusions), len(cert.interchanges)

    complete = all(c.complete for c in
                   (dek_h, dek_g, fs_h, fs_g, pu_h, pu_g1, pu_g2))
    inventories = (inventory(dek_h) == (1, 0)
                   and inventory(dek_g) == (3, 1)
                   and inventory(fs_h) == (1, 0)
                   and inventory(pu_h) == (0, 0))
    triples = all(
        tuple((w.a, w.b, w.c) for w, _ in cert.interchanges)
        == INTERCHANGE_TRIPLES for cert in (pu_g1, pu_g2))

    live = {}
    for coder_name, cert in (("pu_g1", pu_g1), ("pu_g2", pu_g2)):
        for wit, ref in cert.inclusions:
            live[(coder_name, wit.a, wit.b, wit.c, wit.offset)] = (
                ref.method,
                tuple((e.pred, e.succ, e.case) for e in ref.embeddings))
    pinned = {
        (row["coder"], row["a"], row["b"], row["c"], row["offset"]):
        (row["method"], tuple((e["pred"], e["succ"], e["case"])
                              for e in row["embeddings"]))
        for row in reg.coder_case_atlas}
    atlas_ok = live == pinned

    _report(5, "seven complete certificates with the published witness "
            "inventories and case table", complete and inventories
            and triples and atlas_ok,
            f"{len(pinned)} case rows reproduced" if atlas_ok
            else "case table drifted")


def test_criterion_6_shuffle_identity(registry):
    reg = registry
    start = time.perf_counter()
    identities = all(
        power(reg.pu_f, n + 1, bytes((letter & 1, letter >> 1)))
        == perfect_shuffle(
            reg.pu_g2.apply(power(reg.pu_h, n, bytes((letter,)))),
            reg.pu_g1.apply(power(reg.pu_h, n, bytes((letter,)))))
        for n in range(7) for letter in range(4))
    stream = fixed_point_prefix(reg.pu_f, 0, 2 * len(power(reg.pu_f, 8, b"\x00")))
    doubling = all(
        stream[:2 * len(block)] == block + block
        for block in (power(reg.pu_f, n, b"\x00") for n in range(9)))
    core = fixed_point_prefix(reg.pu_h, 0, 33334)
    even = reg.pu_g2.apply(core)[:100000]
    odd = reg.pu_g1.apply(core)[:100000]
    roots = max(max_square_root(even), max_square_root(odd))
    elapsed = time.perf_counter() - start
    ok = (identities and doubling and len(even) == len(odd) == 100000
          and roots <= 3 and elapsed < 10.0)
    _report(6, "shuffle identities, doubled prefixes, and track square "
            "roots at most 3", ok, f"max root {roots}, {elapsed:.1f}s")


def test_criterion_7_boundary_facts(registry):
    squares_everywhere = all(
        find_squares(word) and naive_squares(word)
        for word in all_words(2, 4))
    low = exhaust_max_length(registry.spec_by_name("ejs2"), 60)
    high = exhaust_max_length(registry.spec_by_name("ejs3"), 60)
    ok = (squares_everywhere
          and not low.exceeded and low.max_length == 18
          and len(low.witness) == 18
          and not high.exceeded and high.max_length == 29
          and len(high.witness) == 29)
    _report(7, "every binary length-4 word has a square; strict regimes die "
            "at 18 and 29", ok,
            f"longest survivors {low.max_length} and {high.max_length}")


def test_criterion_8_mutation_sensitivity(registry):
    touched_by = {
        "dekking_h": ("dekking-verify", "counting"),
        "dekking_g": ("dekking-verify", "dekking-forbidden-motivation",
                      "counting"),
        "fs_h": ("fs-verify", "counting"),
        "fs_g": ("fs-verify", "counting"),
        "pu_f": ("pu-shuffle", "pu-lemmas"),
        "pu_h": ("pu-shuffle", "pu-lemmas"),
        "pu_g1": ("pu-shuffle", "pu-lemmas"),
        "pu_g2": ("pu-shuffle", "pu-lemmas"),
    }
    caught = 0
    for case in range(20):
        rng = random.Random(1000 + case)
        name = rng.choice(MORPHISM_NAMES)
        morphism = getattr(registry, name)
        image_index = rng.randrange(morphism.source_size)
        image = morphism.image(image_index)
        position = rng.randrange(len(image))
        letter = rng.choice([x for x in range(morphism.target_size)
                             if x != image[position]])
        mutated = registry.replaced(**{name: with_image_letter(
            morphism, image_index, position, letter)})
        order = touched_by[name] + tuple(
            s for s in SCENARIOS if s not in touched_by[name])
        for scenario in order:
            if not run_scenario(scenario, mutated, prefix_length=2000).ok:
                caught += 1
                break
    _report(8, "20 random single-symbol corruptions all break a scenario",
            caught == 20, f"{caught}/20 caught")
