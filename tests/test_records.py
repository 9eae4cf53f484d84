"""Records: every result type the package exports is an immutable `Record`
that behaves as a frozen dataclass did, field by field."""

import json
import pickle

import numpy as np
import pytest

import wordavoid
from wordavoid import (AvoidanceSpec, GapPattern, MinimalForbiddenSet,
                       Morphism, Substitution, build_automaton,
                       count_avoiding, exhaust_max_length, find_inclusions,
                       format_spec, growth_rate, lower_bound_family,
                       minimal_forbidden, run_scenario, satisfies_spec,
                       verify_square_transfer, word_from_text, word_to_text)
from wordavoid.words import Record

RECORDS = sorted((value for value in vars(wordavoid).values()
                  if isinstance(value, type) and issubclass(value, Record)),
                 key=lambda cls: cls.__name__)

# Field values for the records that check theirs, and another valid value
# of their last field; any other record takes one string a field.
VALID = {
    AvoidanceSpec: (2, (b"\0\0\0",), 2, None, True),
    Morphism: (2, 2, (b"\0\1", b"\1\0")),
    Substitution: (2, 2, ((b"\0\1",), (b"\1\0", b"\1\1"))),
}
LAST = {AvoidanceSpec: False, Morphism: (b"\1\1", b"\0\0"),
        Substitution: ((b"\0",), (b"\1",))}


def fields(cls) -> tuple[str, ...]:
    """A record's fields: its annotated names, in order."""
    return tuple(cls.__annotations__)


def sample(cls) -> dict:
    values = VALID.get(cls) or [f"{name} value" for name in fields(cls)]
    return dict(zip(fields(cls), values))


def test_every_exported_result_type_is_a_record():
    assert len(RECORDS) == 19
    assert {cls.__module__ for cls in RECORDS} == {
        "wordavoid.words", "wordavoid.morphisms", "wordavoid.verify",
        "wordavoid.counting", "wordavoid.scenarios"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_behave_as_frozen_dataclasses(cls):
    kwargs = sample(cls)
    values = tuple(kwargs.values())
    record = cls(*values)
    assert cls(**kwargs) == record
    assert tuple(getattr(record, name) for name in kwargs) == values
    assert list(Record.to_dict(record)) == list(kwargs)

    # Defaults are the class attributes of the same name.
    defaults = {name: cls.__dict__[name] for name in kwargs
                if name in cls.__dict__}
    required = {name: v for name, v in kwargs.items() if name not in defaults}
    bare = cls(**required)
    assert {name: getattr(bare, name) for name in defaults} == defaults

    first = next(iter(kwargs))
    with pytest.raises(TypeError):
        cls(**{name: v for name, v in kwargs.items() if name != first})
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=0)
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values[:1], **{first: values[0]})

    with pytest.raises(AttributeError):
        setattr(record, first, values[0])
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.unknown = 0
    assert getattr(record, first) == values[0]

    assert hash(record) == hash(cls(**kwargs)) == hash(values)
    twin = type("Twin", (Record,), {"__annotations__": dict.fromkeys(kwargs)})
    assert twin(*values) != record and record != twin(*values)
    assert record != values

    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in kwargs.items()) + ")"

    last, value = list(kwargs)[-1], LAST.get(cls, "changed")
    changed = record.replace(**{last: value})
    assert type(changed) is cls
    assert changed == cls(*values[:-1], value)
    assert getattr(record, last) == kwargs[last]
    assert record.replace() == record
    with pytest.raises(TypeError):
        record.replace(unknown=0)

    assert pickle.loads(pickle.dumps(record)) == record


def built_records(registry):
    """One record of each exported type, as the package builds it."""
    reg = registry
    cert = verify_square_transfer(reg.dekking_g, reg.dekking_g_source,
                                  reg.dekking_binary, name="coder")
    broken = verify_square_transfer(reg.pu_h, reg.pu_source, reg.ejs2.replace(
        alphabet_size=4))
    (witness, refutation), = cert.interchanges
    check = satisfies_spec(b"\0\0", reg.squarefree4)
    minimal = minimal_forbidden(reg.ejs2, 6)
    report = run_scenario("dekking-forbidden-motivation", reg,
                          prefix_length=2000)
    return [reg.fs_g_source, reg.pu_h, reg.dekking_sub, GapPattern(0, 1, 3),
            check, check.violation, cert, cert.bounded, broken.bounded,
            witness, refutation, cert.gap_evidence[0],
            find_inclusions(reg.dekking_h)[0],
            count_avoiding(reg.ejs2, 4), minimal,
            growth_rate(build_automaton(minimal)),
            exhaust_max_length(reg.ejs2, 30),
            lower_bound_family(reg.dekking_sub, reg.dekking_g,
                               word_from_text("0123"), reg.dekking_binary),
            report, report.checks[0]]


def test_every_exported_record_serializes_to_json(registry):
    """`to_dict` renders specs as spec text and sets of words as sorted
    texts, so every record's dict is JSON as it stands."""
    records = built_records(registry)
    assert {type(r) for r in records} == set(RECORDS)
    for record in records:
        json.dumps(record.to_dict())
    minimal = next(r for r in records if isinstance(r, MinimalForbiddenSet))
    assert minimal.to_dict()["spec"] == format_spec(registry.ejs2)
    assert minimal.to_dict()["words"] == [
        word_to_text(w) for w in minimal.ordered()]


def test_a_spec_built_from_lists_is_its_tuple_twin():
    """List fields become tuples, so a spec from lists hashes, as the kept
    walks of `counting` need, and equals the spec built from tuples."""
    word = b"\x00\x01\x01"
    listed = AvoidanceSpec(2, [word], square_min_root=3)
    assert listed == AvoidanceSpec(2, (word,), square_min_root=3)
    assert hash(listed) == hash(AvoidanceSpec(2, (word,), square_min_root=3))
    whitelisted = AvoidanceSpec(2, square_whitelist=[b"\0\0", b"\1\1"])
    assert whitelisted.square_whitelist == (b"\0\0", b"\1\1")
    assert hash(whitelisted) == hash(AvoidanceSpec(
        2, square_whitelist=(b"\0\0", b"\1\1")))


def test_record_repr_is_pinned():
    assert repr(GapPattern(0, 1, 3)) == "GapPattern(first=0, middle=1, last=3)"
    assert repr(AvoidanceSpec(2, square_min_root=2)) == (
        "AvoidanceSpec(alphabet_size=2, forbidden=(), square_min_root=2,"
        " square_whitelist=None, cubefree=False)")


def test_pickling_keeps_a_computed_cached_property():
    morphism = Morphism(*VALID[Morphism])
    spec = AvoidanceSpec(*VALID[AvoidanceSpec])
    table, rules = morphism.table, spec.repetition_rules
    morphism, spec = pickle.loads(pickle.dumps((morphism, spec)))
    assert np.array_equal(vars(morphism)["table"], table)
    assert vars(spec)["repetition_rules"] == rules
    assert morphism == Morphism(*VALID[Morphism])


@pytest.mark.parametrize("build, message", [
    (lambda: AvoidanceSpec(0), "alphabet_size must be 1..256"),
    (lambda: AvoidanceSpec(2, square_min_root=1, square_whitelist=()),
     "choose one square policy"),
    (lambda: AvoidanceSpec(2, square_min_root=0), "square_min_root must be"),
    (lambda: AvoidanceSpec(2, square_whitelist=(b"\0\1",)), "not a square"),
    (lambda: AvoidanceSpec(*VALID[AvoidanceSpec]).replace(alphabet_size=300),
     "alphabet_size must be 1..256"),
    (lambda: Morphism(2, 2, (b"\0",)), "one image per source letter"),
    (lambda: Morphism(1, 2, (b"\2",)), "outside target alphabet"),
    (lambda: Morphism(*VALID[Morphism]).replace(target_size=1),
     "outside target alphabet"),
    (lambda: Substitution(2, 2, ((b"\0",),)), "one image set per source"),
    (lambda: Substitution(1, 2, ((),)), "at least one image"),
    (lambda: Substitution(1, 2, ((b"\2",),)), "outside target alphabet"),
    # the whole-word checker and the walker read an empty factor apart
    (lambda: AvoidanceSpec(2, forbidden=(b"",)), "must not be empty"),
], ids=["alphabet", "two-policies", "min-root", "whitelist", "spec-replace",
        "images", "morphism-target", "morphism-replace", "image-sets",
        "empty-set", "substitution-target", "empty-forbidden"])
def test_post_init_checks_raise_value_error(build, message):
    with pytest.raises(ValueError, match=message):
        build()
