"""The result records: immutable, hashable, and serialised in field order.

The records are ``typing.NamedTuple`` classes, and ``BraidWord`` is a small
immutable class.  These tests pin what callers relied on while they were
frozen dataclasses: assignment fails, equal values hash alike, the reprs
read as before, and ``_asdict()`` keeps the old field (JSON key) order.
"""

import copy
import pickle

import pytest

from torusknot.alexander import TorusFamily, UnsupportedFamily
from torusknot.bounds import BoundBracket, KnownUpper
from torusknot.braid import LemmaCheck, NormalForm, cyclically_equal, normal_form
from torusknot.diagram import ConstraintComponent, DaltReport
from torusknot.hfk import ConjectureViolation, Staircase, WidthReport
from torusknot.verify import CheckResult
from torusknot.words import BraidWord, parse_braid

# One value of each record, with its fields in the order the dataclass
# declared them (the order of dataclasses.asdict and so of the CLI's JSON).
_RECORDS = [
    (WidthReport(3, -2, 6), ("delta_max", "delta_min", "width")),
    (
        ConjectureViolation(4, 7, 3, 2, 2),
        ("p", "q", "width", "previous_width", "expected_jump"),
    ),
    (
        LemmaCheck(4, 5, 1, "equal", 15, True),
        ("p", "q", "n", "relation", "crossings", "passed"),
    ),
    (CheckResult("width-formulas", True, "ok", 0.5), ("name", "passed", "detail", "seconds")),
    (NormalForm(3, 1, ((2, 1, 3),)), ("strands", "infimum", "factors")),
    (ConstraintComponent((0, 1), (1,)), ("crossings", "changes")),
    (DaltReport(1, (1,), ()), ("minimum_changes", "witness", "component_structure")),
    (KnownUpper(7, True, "a note"), ("value", "needs_pd_import", "note")),
    (Staircase((0, 1)), ("s",)),
    (TorusFamily("pn+1", 3, 2), ("kind", "p", "n")),
    (
        BoundBracket("dealternating", 1, 2, "floer-width", "standard closure"),
        ("invariant", "lower", "upper", "lower_source", "upper_source"),
    ),
]
_IDS = [type(record).__name__ for record, _ in _RECORDS]


@pytest.mark.parametrize("record,fields", _RECORDS, ids=_IDS)
def test_asdict_keeps_the_dataclass_field_order(record, fields):
    assert record._fields == fields
    assert list(record._asdict()) == list(fields)
    assert tuple(record._asdict().values()) == tuple(record)


@pytest.mark.parametrize("record,fields", _RECORDS, ids=_IDS)
def test_record_fields_cannot_be_assigned(record, fields):
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1  # no __dict__ to hold it


@pytest.mark.parametrize("record,fields", _RECORDS, ids=_IDS)
def test_records_survive_pickle_and_copy(record, fields):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin == record and type(twin) is type(record)


def test_braid_word_cannot_be_assigned_or_deleted():
    w = BraidWord(3, (1, 2))
    for name in ("strands", "letters", "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(w, name, ())
        with pytest.raises(AttributeError):
            delattr(w, name)
    assert w == BraidWord(3, (1, 2))


def test_braid_word_length_truth_and_repr():
    assert len(BraidWord(3, (1, 2, 1))) == 3
    assert not BraidWord(3, ()) and BraidWord(3, (2,))
    assert repr(BraidWord(3, (1, 2))) == "BraidWord(strands=3, letters=(1, 2))"
    assert str(BraidWord(3, ())) == "(empty)"
    assert not isinstance(BraidWord(3, (1,)), tuple)
    assert BraidWord(strands=3, letters=[2]) == BraidWord(3, (2,))


def test_braid_words_hash_and_compare_by_value():
    a, b = parse_braid("121", 3), BraidWord(3, (1, 2, 1))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != BraidWord(4, (1, 2, 1))  # the strand count is part of the value
    assert a != (3, (1, 2, 1)) and a != "121"
    assert len({a, b, parse_braid("212", 3)}) == 2
    assert {a: "x"}[b] == "x"
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert twin == a and type(twin) is BraidWord


def test_normal_forms_hash_and_compare_by_value():
    x, y = normal_form(parse_braid("121", 3)), normal_form(parse_braid("212", 3))
    assert x == y and hash(x) == hash(y)
    assert x == NormalForm(strands=3, infimum=1, factors=())
    assert x != normal_form(parse_braid("12", 3))
    assert len({x, y, normal_form(parse_braid("11", 3))}) == 2
    assert {x: "half twist"}[y] == "half twist"
    # no rotation matches, so the orbit search runs over a set of normal forms
    assert not cyclically_equal(BraidWord(4, (1, 1, 2)), BraidWord(4, (1, 1, 1)))


def test_reprs_read_as_before():
    assert repr(Staircase((0, 1))) == "Staircase(s=(0, 1))"
    assert repr(WidthReport(1, 0, 2)) == "WidthReport(delta_max=1, delta_min=0, width=2)"
    assert repr(TorusFamily("5n+2", 5, 1)) == "TorusFamily(kind='5n+2', p=5, n=1)"
    assert repr(BoundBracket("turaev_genus", 0, 0, "none", "standard closure")) == (
        "BoundBracket(invariant='turaev_genus', lower=0, upper=0, "
        "lower_source='none', upper_source='standard closure')"
    )


def test_validated_records_check_every_construction():
    stair = Staircase([0, 2, 5])
    assert stair.s == (0, 2, 5) and stair.k == 2
    with pytest.raises(ValueError, match="strictly increase"):
        stair._replace(s=(0, 5, 2))
    with pytest.raises(TypeError, match="must be ints"):
        Staircase._make([(0, True)])
    family = TorusFamily(kind="pn-1", p=4, n=2)
    assert family.q == 7 and family._replace(n=3).q == 11
    with pytest.raises(UnsupportedFamily, match="requires p = 5"):
        family._replace(kind="5n+2")
    bracket = BoundBracket("dealternating", 1, 2, "floer-width", "standard closure")
    assert bracket._replace(upper=1).is_sharp()
    with pytest.raises(AssertionError, match=r"inconsistent bracket for dealternating: \[3, 2\]"):
        bracket._replace(lower=3)
