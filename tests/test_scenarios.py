"""Scenario harness: everything passes on the pinned registry, and any
single-symbol corruption of a registry morphism is caught by some check."""

import json
import random
from unittest.mock import patch

import pytest

from wordavoid import SCENARIOS, counting, run_scenario, scenarios, verify
from wordavoid.instances import MORPHISM_NAMES

from conftest import with_image_letter

REDUCED = 2000

# Scenarios that exercise each morphism, cheapest first.
TOUCHED_BY = {
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


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_passes(name, registry):
    report = run_scenario(name, registry, prefix_length=REDUCED)
    failed = [c.name + ": " + c.detail for c in report.checks if not c.ok]
    assert report.ok, failed
    assert report.checks
    assert "PASS" in report.digest()


def test_counting_scenario_walks_each_spec_once(registry):
    """The count tables are sliced from the depth-20 walks that the derived
    sets read, so the scenario walks Dekking and Fraenkel-Simpson once each
    and the golden two-letter set to its length 3."""
    with patch.object(counting, "walk_legal",
                      wraps=counting.walk_legal) as walk:
        report = run_scenario("counting", registry)
    assert report.ok
    assert [call.args[1] for call in walk.call_args_list] == [20, 20, 3]


@pytest.mark.parametrize("name, failing", [
    ("dekking-verify", {"coder"}),
    ("fs-verify", {"substitution"}),
    ("pu-lemmas", {"coder g1", "coder g2"}),
])
def test_certificate_checks_compare_the_pinned_rows(registry, monkeypatch,
                                                    name, failing):
    """Complete certificates whose interchange rows were dropped fail every
    check that pins those rows."""
    real = verify.verify_square_transfer
    monkeypatch.setattr(scenarios, "verify_square_transfer",
                        lambda *args, **kwargs: real(*args, **kwargs).replace(
                            interchanges=()))
    report = run_scenario(name, registry, prefix_length=REDUCED)
    failed = {c.name for c in report.checks if not c.ok}
    assert failed == {f"{label} transfer certificate" for label in failing}
    if name == "dekking-verify":
        assert report.checks[0].detail.endswith("49 words at length 5")


GAP_CHECKS = ["gap pattern {}.{}.{} absent".format(*pattern.letters())
              for pattern in scenarios._GAP_PATTERNS]


@pytest.mark.parametrize("coder", scenarios._SHUFFLE_CODERS)
def test_pu_gap_checks_read_both_coders_evidence(registry, monkeypatch,
                                                  coder):
    """A gap check fails alone when one coder certificate, still complete,
    holds incomplete evidence for its pattern."""
    real = verify.verify_square_transfer
    for pattern, check in zip(scenarios._GAP_PATTERNS, GAP_CHECKS):

        def weakened(*args, pattern=pattern, **kwargs):
            cert = real(*args, **kwargs)
            if kwargs["name"] != coder:
                return cert
            return cert.replace(gap_evidence=tuple(
                e.replace(complete=False) if e.pattern == pattern else e
                for e in cert.gap_evidence))

        monkeypatch.setattr(scenarios, "verify_square_transfer", weakened)
        report = run_scenario("pu-lemmas", registry, prefix_length=REDUCED)
        assert [c.name for c in report.checks if not c.ok] == [check]


def test_pu_gap_checks_fail_when_a_coder_certificate_raises(registry,
                                                            monkeypatch):
    real = verify.verify_square_transfer

    def broken(*args, **kwargs):
        if kwargs["name"] == "pu_g2":
            raise RuntimeError("no certificate")
        return real(*args, **kwargs)

    monkeypatch.setattr(scenarios, "verify_square_transfer", broken)
    report = run_scenario("pu-lemmas", registry, prefix_length=REDUCED)
    assert [c.name for c in report.checks if not c.ok] == [
        "coder g2 transfer certificate", *GAP_CHECKS]


def test_unknown_scenario_is_rejected(registry):
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("definitely-not-a-scenario", registry)


def test_report_serializes_to_json(registry):
    report = run_scenario("dekking-forbidden-motivation", registry,
                          prefix_length=REDUCED)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["name"] == "dekking-forbidden-motivation"
    assert payload["ok"] is True
    assert len(payload["checks"]) == 8


def test_failed_checks_show_in_digest(registry):
    broken = registry.replaced(
        dekking_g=with_image_letter(registry.dekking_g, 0, 0, 1))
    report = run_scenario("dekking-forbidden-motivation", broken,
                          prefix_length=REDUCED)
    assert not report.ok
    assert "FAIL" in report.digest()


@pytest.mark.parametrize("case", range(20))
def test_mutation_is_caught_by_some_scenario(case, registry):
    rng = random.Random(1000 + case)
    name = rng.choice(MORPHISM_NAMES)
    morphism = getattr(registry, name)
    image_index = rng.randrange(morphism.source_size)
    position = rng.randrange(len(morphism.image(image_index)))
    original = morphism.image(image_index)[position]
    letter = rng.choice([x for x in range(morphism.target_size)
                         if x != original])
    mutated = registry.replaced(**{
        name: with_image_letter(morphism, image_index, position, letter)})

    tried = []
    caught = False
    for scenario in TOUCHED_BY[name] + tuple(
            s for s in SCENARIOS if s not in TOUCHED_BY[name]):
        tried.append(scenario)
        if not run_scenario(scenario, mutated, prefix_length=REDUCED).ok:
            caught = True
            break
    assert caught, (name, image_index, position, letter, tried)
