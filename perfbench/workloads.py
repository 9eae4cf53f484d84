"""The benchmark's workloads and the oracles that check their outputs.

Each workload is a closed loop: one caller issues each operation after the
previous one returns, the way a researcher or the command line runs them.
`TIMED[name](reg, seed, rec)` runs the timed operations and returns what the
oracles need; `CHECKS[name](state, ref, rec)` runs the oracles afterwards,
outside the timed path.  An operation fails when it raises, returns a wrong
verdict, or an oracle rejects its output.

- scan: ~1.2M-letter windows of the three constructions at seed-drawn
  offsets, scanned for squares, cubes and gap patterns.  The word scanners
  do nearly all the work on a few huge inputs.
- enumerate: count tables, minimal forbidden sets, automata and growth
  rates of the two binary specs, plus the finite regimes.  The legal-word
  walk does most of the work, with thousands of scanner calls on tiny words.
- scenarios: `wordavoid scenario --all --format json` in-process.  The only
  workload that runs the verifier's bounded case and the CLI rendering.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import numpy as np

from wordavoid import cli
from wordavoid.counting import (build_automaton, count_avoiding,
                                exhaust_max_length, growth_rate,
                                minimal_forbidden)
from wordavoid.morphisms import FixedPointStream
from wordavoid.words import (GapPattern, contains_gap_pattern,
                             max_square_root, satisfies_spec, word_from_text)

WINDOW = 1_200_000       # letters of each binary word scanned
MAX_OFFSET = 200_000     # window offsets are drawn from [0, MAX_OFFSET)
PREFIX_CHECKED = 2000    # leading letters compared with the reference data

COUNT_DEPTH = 36
MINIMAL_LENGTH = 30
EXHAUST_CAP = 60
# Agreement required between growth_rate and a dense eigenvalue solver; the
# power iteration's own stopping rule does not bound its error below ~3e-6.
GROWTH_TOLERANCE = 1e-5

GAP_PATTERNS = (GapPattern(0, 1, 3), GapPattern(1, 0, 2),
                GapPattern(2, 3, 1), GapPattern(3, 2, 0))

SCENARIO_ARGV = ["scenario", "--all", "--format", "json"]


class Recorder:
    """Attempted operations and the reasons the failed ones failed."""

    def __init__(self):
        self.attempted: list[str] = []
        self.failures: dict[str, str] = {}

    def op(self, name, body, verdict=lambda value: True):
        """Run one operation; return its value, or None if it raised."""
        self.attempted.append(name)
        try:
            value = body()
        except Exception as exc:
            self.fail(name, f"raised {exc!r}")
            return None
        if not verdict(value):
            self.fail(name, "wrong verdict")
        return value

    def expect(self, name, ok, reason):
        """Oracle outcome for an operation already attempted."""
        try:
            passed = ok()
        except Exception as exc:
            passed, reason = False, f"{reason}: raised {exc!r}"
        if not passed:
            self.fail(name, reason)

    def fail(self, name, reason):
        self.failures.setdefault(name, reason)


# ---------------------------------------------------------------------------
# scan

def _binary_word(core_morphism, coder, offset):
    """Prefix of coder(fixed point) long enough to hold the window."""
    width = coder.uniform_width
    core = FixedPointStream(core_morphism, 0).prefix(
        -(-(offset + WINDOW) // width))
    return coder.apply(core)


def scan_timed(reg, seed, rec):
    rng = random.Random(seed)
    state = {}
    for label, core_m, coder, spec in (
            ("dekking", reg.dekking_h, reg.dekking_g, reg.dekking_binary),
            ("fs", reg.fs_h, reg.fs_g, reg.fs_binary)):
        offset = rng.randrange(MAX_OFFSET)
        word = rec.op(f"generate {label}",
                      lambda: _binary_word(core_m, coder, offset),
                      lambda w: len(w) >= offset + WINDOW)
        state[label] = word
        window = word[offset:offset + WINDOW] if word else b""
        rec.op(f"{label} window legal",
               lambda: satisfies_spec(window, spec).ok, bool)

    # The shuffle's binary word interleaves two tracks, each a 3-uniform
    # image of the core, so WINDOW letters take WINDOW // 6 core letters.
    core_len = WINDOW // 6
    offset = rng.randrange(MAX_OFFSET // 6)

    def generate_pu():
        core = FixedPointStream(reg.pu_h, 0).prefix(offset + core_len)
        return core, reg.pu_g2.apply(core), reg.pu_g1.apply(core)

    words = rec.op("generate pu", generate_pu,
                   lambda w: len(w[0]) == offset + core_len)
    core, even, odd = words or (b"", b"", b"")
    state["pu_even"], state["pu_odd"] = even, odd
    track = slice(3 * offset, 3 * (offset + core_len))
    for label, word in (("even", even), ("odd", odd)):
        rec.op(f"pu {label} track max root",
               lambda: max_square_root(word[track]), lambda r: 0 < r <= 3)
    core_window = core[offset:]
    rec.op("pu core legal",
           lambda: satisfies_spec(core_window, reg.pu_source).ok, bool)
    for pattern in GAP_PATTERNS:
        name = "".join(map(str, pattern.letters()))
        rec.op(f"pu gap pattern {name} absent",
               lambda: contains_gap_pattern(core_window, pattern),
               lambda found: found is False)
    return state


def scan_check(state, ref, rec):
    prefixes = ref["prefixes"]
    for op, key, ref_key in (("generate dekking", "dekking", "dekking_binary"),
                             ("generate fs", "fs", "fs_binary"),
                             ("generate pu", "pu_even", "shuffle_even"),
                             ("generate pu", "pu_odd", "shuffle_odd")):
        rec.expect(op, lambda: state[key][:PREFIX_CHECKED]
                   == word_from_text(prefixes[ref_key]),
                   f"{key} prefix differs from the reference")


# ---------------------------------------------------------------------------
# enumerate

SPECS = (("dekking", "dekking_binary"), ("fs", "fs_binary"))


def enumerate_timed(reg, seed, rec):
    state = {}
    for label, attr in SPECS:
        spec = getattr(reg, attr)
        table = rec.op(f"count {label}",
                       lambda: count_avoiding(spec, COUNT_DEPTH))
        mfs = rec.op(f"minimal {label}",
                     lambda: minimal_forbidden(spec, MINIMAL_LENGTH))
        auto = rec.op(f"automaton {label}", lambda: build_automaton(mfs))
        est = rec.op(f"growth {label}", lambda: growth_rate(auto))
        state[label] = (table, mfs, auto, est)
    for name in ("ejs2", "ejs3"):
        report = rec.op(f"exhaust {name}",
                        lambda: exhaust_max_length(getattr(reg, name),
                                                   EXHAUST_CAP),
                        lambda r: not r.exceeded)
        state[name] = report
    return state


def _spectral_radius(automaton) -> float:
    matrix, _ = automaton.transition_matrix()
    return float(np.abs(np.linalg.eigvals(matrix)).max())


def enumerate_check(state, ref, rec):
    for label, _ in SPECS:
        table, mfs, auto, est = state[label]
        paper = tuple(ref["count_tables"][label])
        rec.expect(f"count {label}",
                   lambda: table.counts[:len(paper)] == paper,
                   "count table differs from the paper's")
        # Two independent mechanisms: the pruned walk and the automaton
        # built from the minimal forbidden words.
        rec.expect(f"count {label}",
                   lambda: table.counts[:MINIMAL_LENGTH + 1]
                   == auto.count_words(MINIMAL_LENGTH),
                   "walk and automaton counts differ")
        size = ref["minimal_sizes_20"][label]
        rec.expect(f"minimal {label}",
                   lambda: sum(len(w) <= 20 for w in mfs.words) == size,
                   f"minimal set at length 20 does not have {size} words")
        rec.expect(f"growth {label}",
                   lambda: abs(est.eigenvalue - _spectral_radius(auto))
                   < GROWTH_TOLERANCE,
                   "growth rate disagrees with numpy.linalg.eigvals")
    for name in ("ejs2", "ejs3"):
        rec.expect(f"exhaust {name}",
                   lambda: state[name].max_length == ref["exhaust"][name],
                   f"longest legal word is not {ref['exhaust'][name]}")


# ---------------------------------------------------------------------------
# scenarios

def scenarios_timed(reg, seed, rec):
    out, err = io.StringIO(), io.StringIO()

    def run():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(SCENARIO_ARGV)

    rec.op("scenario --all", run, lambda code: code == 0)
    return out.getvalue()


def scenarios_check(stdout, ref, rec):
    def all_ok():
        reports = json.loads(stdout)
        return (len(reports) == ref["scenario_count"]
                and all(c["ok"] for r in reports for c in r["checks"]))

    rec.expect("scenario --all", all_ok, "a scenario check failed")
    return hashlib.sha256(stdout.encode()).hexdigest()


TIMED = {"scan": scan_timed, "enumerate": enumerate_timed,
         "scenarios": scenarios_timed}
CHECKS = {"scan": scan_check, "enumerate": enumerate_check,
          "scenarios": scenarios_check}
