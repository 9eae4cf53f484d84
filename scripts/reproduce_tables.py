#!/usr/bin/env python3
"""Reproduce the headline numbers: count tables, minimal forbidden sets,
growth estimates at each requested length, and the two exponential family
bounds."""

import argparse
import sys

from wordavoid import (build_automaton, count_avoiding, growth_rate,
                       load_registry, lower_bound_family, minimal_forbidden)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=17)
    parser.add_argument("--max-len", type=int, nargs="+", default=[20, 30, 40],
                        help="lengths of the minimal forbidden sets behind"
                             " the growth estimates")
    args = parser.parse_args()

    reg = load_registry()
    jobs = (("cubefree with squares below root 4", reg.dekking_binary),
            ("squares whitelisted to 00, 11, 0101", reg.fs_binary))

    for label, spec in jobs:
        print(f"== {label}")
        # The deepest set first: its walk also serves the shallower sets
        # and a count table no deeper.
        sets = {max_len: minimal_forbidden(spec, max_len)
                for max_len in sorted(args.max_len, reverse=True)}
        table = count_avoiding(spec, args.n_max)
        print("   counts:", ", ".join(str(c) for c in table.counts))
        for max_len in args.max_len:
            derived = sets[max_len]
            estimate = growth_rate(build_automaton(derived))
            print(f"   L={max_len}: {len(derived.words)} minimal forbidden"
                  f" words, {estimate.states} live states,"
                  f" growth estimate {estimate.eigenvalue:.6f}")

    print("== lower-bound families")
    dek = lower_bound_family(reg.dekking_sub, reg.dekking_g,
                             reg.dekking_h.image(0), reg.dekking_binary,
                             exponent_denominator=300)
    fs = lower_bound_family(reg.fs_sub, reg.fs_g, reg.fs_h.image(0),
                            reg.fs_binary, exponent_denominator=1152)
    ok = True
    for label, rep in (("cubefree", dek), ("whitelist", fs)):
        verdict = (rep.verified_count == rep.family_size
                   and rep.exponent_check)
        ok = ok and verdict
        print(f"   {label}: {rep.family_size} words of length"
              f" {rep.word_length}, {rep.verified_count} verified,"
              f" exponent check {'passed' if rep.exponent_check else 'failed'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
