"""Span tracer for the layer entry points of wordavoid, applied from outside.

The tracer rebinds module attributes in each caller's namespace (and class
attributes for methods), so the package source stays untouched.  Spans are
kept in memory as [name, start, end, parent] and turned into per-layer
metrics or written out when the repetition ends.

Layer self time is a span's duration minus the time its child spans cover.
Scenario spans are reported inclusive: the layers below them are reported
on their own, so the scenario figure says where a scenario's time went.
"""

from __future__ import annotations

import json
import types
from collections import Counter
from time import perf_counter

from wordavoid import cli, counting, instances, morphisms, scenarios, verify, words

# Scanner inputs at least this long count as long calls.
LONG_WORD = 1000

SCANNERS = ("satisfies_spec", "find_squares", "find_cubes",
            "find_square_at_least", "find_cube_at_least", "max_square_root",
            "find_gap_occurrences", "contains_gap_pattern", "scan_forbidden")

# (module, function, span name) for the layer entry points timed as spans.
ENTRY_POINTS = (
    (counting, "count_avoiding", "counting.walk"),
    (counting, "exhaust_max_length", "counting.walk"),
    (counting, "minimal_forbidden", "counting.minimal"),
    (counting, "build_automaton", "counting.automaton"),
    (counting, "growth_rate", "counting.power"),
    (counting, "lower_bound_family", "counting.family"),
    (verify, "bounded_case_check", "verify.bounded"),
    (verify, "find_inclusions", "verify.inclusion"),
    (verify, "refute_inclusion", "verify.inclusion"),
    (verify, "find_interchanges", "verify.gap"),
    (verify, "refute_interchange", "verify.gap"),
    (verify, "prove_gap_pattern_absence", "verify.gap"),
    (morphisms, "fixed_point_prefix", "morphisms.generate"),
    (morphisms, "power", "morphisms.generate"),
    (instances, "load_registry", "instances.registry"),
    (cli, "_emit", "cli.render"),
)

METHODS = (
    (morphisms.Morphism, "apply", "morphisms.generate"),
    (morphisms.FixedPointStream, "prefix", "morphisms.generate"),
    (scenarios.ScenarioReport, "to_dict", "cli.render"),
    (scenarios.ScenarioReport, "digest", "cli.render"),
)

# Modules whose calls into a layer count as layer calls.  The words module is
# left out on purpose: its internal calls are part of one scanner call.
CALLERS = (counting, verify, scenarios, cli, instances, morphisms)

SELF_TIMED = ("words.long", "words.short", "counting.walk", "counting.minimal",
              "counting.automaton", "counting.power", "counting.family",
              "verify.bounded", "verify.inclusion", "verify.gap",
              "morphisms.generate", "instances.registry", "cli.render")
COUNTED = ("words.long_letters", "words.suffix_calls", "counting.walk_nodes",
           "counting.minimal_words", "counting.automaton_states",
           "counting.power_iterations", "counting.family_words",
           "verify.bounded_words", "verify.inclusion_witnesses",
           "verify.gap_patterns", "morphisms.letters")

class Tracer:
    """Wraps the entry points, records spans and counts, restores on exit."""

    def __init__(self, callers=()):
        self.callers = CALLERS + tuple(callers)
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _wrap(self, fn, name_of, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            name = name_of(args)
            parent = stack[-1] if stack else -1
            span = [name, perf_counter(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, span)
            return result

        traced.__wrapped__ = fn
        return traced

    def _scanner(self, fn):
        def name_of(args):
            return "words.long" if len(args[0]) >= LONG_WORD else "words.short"

        def after(args, result, span):
            if span[0] == "words.long":
                self.counts["words.long_letters"] += len(args[0])
            if span[3] >= 0 and self.spans[span[3]][0] == "counting.minimal":
                self.counts["counting.minimal_checks"] += 1
        return self._wrap(fn, name_of, after)

    def _suffix(self, fn):
        counts = self.counts

        def counted(word, spec):
            result = fn(word, spec)
            counts["words.suffix_calls"] += 1
            if result and self._parent_name() == "counting.walk":
                counts["counting.walk_nodes"] += 1
            return result

        counted.__wrapped__ = fn
        return counted

    def _after(self, span_name):
        counts = self.counts

        def after(args, result, span):
            if span_name == "counting.walk":
                counts["counting.walk_nodes"] += 1  # the empty word
            elif span_name == "counting.minimal":
                counts["counting.minimal_words"] += len(result.words)
            elif span_name == "counting.automaton":
                counts["counting.automaton_states"] += result.live_states
            elif span_name == "counting.power":
                counts["counting.power_iterations"] += result.iterations
            elif span_name == "counting.family":
                counts["counting.family_words"] += result.family_size
            elif span_name == "verify.bounded":
                counts["verify.bounded_words"] += result.words_checked
            elif (span_name == "verify.inclusion"
                  and isinstance(result, list)):
                counts["verify.inclusion_witnesses"] += len(result)
            elif (span_name == "verify.gap"
                  and isinstance(result, verify.GapEvidence)):
                counts["verify.gap_patterns"] += 1
            elif (span_name == "morphisms.generate"
                  and (span[3] < 0
                       or self.spans[span[3]][0] != "morphisms.generate")):
                counts["morphisms.letters"] += len(result)
        return after

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        replace = {}
        for name in SCANNERS:
            fn = getattr(words, name)
            replace[id(fn)] = self._scanner(fn)
        replace[id(words.suffix_legal)] = self._suffix(words.suffix_legal)
        for module, name, span in ENTRY_POINTS:
            fn = getattr(module, name)
            replace[id(fn)] = self._wrap(fn, lambda args, span=span: span,
                                         self._after(span))
        for module in self.callers:
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    self._set(module, attr, replace[id(value)])
        for cls, name, span in METHODS:
            self._set(cls, name, self._wrap(vars(cls)[name],
                                            lambda args, span=span: span,
                                            self._after(span)))
        table = scenarios.SCENARIOS
        for name, fn in list(table.items()):
            self._undo.append((table, name, fn))
            table[name] = self._wrap(fn, lambda args, n=name: f"scenarios.{n}")
        dumps = self._wrap(cli.json.dumps, lambda args: "cli.render")
        proxy = types.SimpleNamespace(**{k: getattr(cli.json, k)
                                         for k in cli.json.__all__})
        proxy.dumps = dumps
        self._set(cli, "json", proxy)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times, call counts and work counts; 0 when idle."""
        duration = [end - start for _, start, end, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += duration[i]
        self_time: Counter = Counter()
        inclusive: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, _, _, _) in enumerate(self.spans):
            self_time[name] += duration[i] - covered[i]
            inclusive[name] += duration[i]
            calls[name] += 1
        out: dict[str, float] = {}
        for span in SELF_TIMED:
            out[f"{span}_s"] = self_time[span]
            if span.startswith("words."):
                out[f"{span}_calls"] = calls[span]
        for name in COUNTED:
            out[name] = self.counts[name]
        checks = self.counts["counting.minimal_checks"]
        out["counting.minimal_hit_ratio"] = (
            self.counts["counting.minimal_words"] / checks if checks else 0.0)
        for name in scenarios.SCENARIOS:
            out[f"scenarios.{name}_s"] = inclusive[f"scenarios.{name}"]
        return out

    def write(self, path, origin: float) -> None:
        """Write spans (times relative to `origin`) and counts as JSON."""
        spans = [{"name": n, "start": s - origin, "end": e - origin,
                  "parent": p} for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts)}, fh)
