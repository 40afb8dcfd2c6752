"""Contract of the nine immutable value classes.

Each class shows, compares and hashes by its fields in declaration order,
refuses assignment and deletion, survives pickle and copy, and validates its
fields on construction.  The repr strings are the ones the classes gave when
they were declared with dataclasses.
"""

import copy
import pickle

import pytest

from wittpadics import (
    ExactExponent,
    FermatWitness,
    MismatchedRing,
    NotAUnit,
    NotPrime,
    PAdicInt,
    PAdicNumber,
    PolarForm,
    QuotientCongruenceReport,
    RootCheck,
    RootReason,
    RootReport,
    WittVector,
)
from wittpadics.cli import Command
from wittpadics.padic import Record

# (class, field names, field values, values differing in one field, repr)
CASES = [
    (
        PAdicInt,
        ("p", "precision", "residue"),
        (11, 3, 5),
        (11, 3, 6),
        "PAdicInt(p=11, precision=3, residue=5)",
    ),
    (
        PAdicNumber,
        ("p", "valuation", "unit"),
        (5, -2, PAdicInt(5, 4, 7)),
        (5, -1, PAdicInt(5, 4, 7)),
        "PAdicNumber(p=5, valuation=-2, unit=PAdicInt(p=5, precision=4, residue=7))",
    ),
    (
        WittVector,
        ("p", "digits"),
        (5, (1, 0, 4)),
        (5, (1, 0, 3)),
        "WittVector(p=5, digits=(1, 0, 4))",
    ),
    (
        PolarForm,
        ("p", "valuation", "teich_digit", "argument"),
        (5, 1, 2, PAdicInt(5, 3, 10)),
        (5, 1, 3, PAdicInt(5, 3, 10)),
        "PolarForm(p=5, valuation=1, teich_digit=2, argument=PAdicInt(p=5, precision=3, residue=10))",
    ),
    (
        ExactExponent,
        ("numerator", "denominator_power"),
        (-1, 2),
        (-1, 3),
        "ExactExponent(numerator=-1, denominator_power=2)",
    ),
    (
        RootCheck,
        ("ok", "reason", "digit_index"),
        (False, RootReason.WITT_DIGIT_NONZERO, 1),
        (False, RootReason.WITT_DIGIT_NONZERO, 2),
        "RootCheck(ok=False, reason=<RootReason.WITT_DIGIT_NONZERO: 'witt digit nonzero'>, digit_index=1)",
    ),
    (
        RootReport,
        ("exists", "reason", "digit_index", "roots", "output_precision"),
        (True, RootReason.OK, None, (PAdicNumber(11, 0, PAdicInt(11, 2, 113)),), 2),
        (True, RootReason.OK, None, (PAdicNumber(11, 0, PAdicInt(11, 2, 113)),), 1),
        "RootReport(exists=True, reason=<RootReason.OK: 'ok'>, digit_index=None, "
        "roots=(PAdicNumber(p=11, valuation=0, unit=PAdicInt(p=11, precision=2, residue=113)),), "
        "output_precision=2)",
    ),
    (
        QuotientCongruenceReport,
        ("holds", "root_quotient", "scaled_quotient", "digit_value", "digit_predicted"),
        (True, 4, 4, 10, 10),
        (True, 4, 4, 10, 9),
        "QuotientCongruenceReport(holds=True, root_quotient=4, scaled_quotient=4, digit_value=10, "
        "digit_predicted=10)",
    ),
    (
        FermatWitness,
        ("p", "x", "y", "sum", "root"),
        (7, 1, 2, 129, PAdicInt(7, 5, 12057)),
        (7, 1, 2, 129, PAdicInt(7, 4, 12057)),
        "FermatWitness(p=7, x=1, y=2, sum=129, root=PAdicInt(p=7, precision=5, residue=12057))",
    ),
]
IDS = [case[0].__name__ for case in CASES]


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


def test_every_value_class_is_covered():
    assert len({case[0] for case in CASES}) == 9


@pytest.mark.parametrize("cls,names,values,other,text", CASES, ids=IDS)
def test_repr_matches_the_recorded_form(cls, names, values, other, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls,names,values,other,text", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, other, text):
    a = cls(*values)
    b = cls(**dict(zip(names, values)))
    assert _fields(a, names) == _fields(b, names) == values
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("cls,names,values,other,text", CASES, ids=IDS)
def test_equality_and_hash_go_by_the_fields(cls, names, values, other, text):
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    assert a != c and not a == c
    assert hash(c) == hash(other)
    assert len({a, b, c}) == 2
    assert a != values and values != a
    assert a != list(values)
    assert a != object()


def test_equal_fields_in_another_class_are_not_equal():
    # QuotientCongruenceReport and FermatWitness both take five unchecked fields.
    fields = (7, 1, 2, 129, 5)
    report, witness = QuotientCongruenceReport(*fields), FermatWitness(*fields)
    assert report != witness and witness != report
    assert not report == witness
    instances = [cls(*values) for cls, _, values, _, _ in CASES]
    for i, a in enumerate(instances):
        for j, b in enumerate(instances):
            assert (a == b) == (i == j)


@pytest.mark.parametrize("cls,names,values,other,text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, other, text):
    obj = cls(*values)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _fields(obj, names) == values


@pytest.mark.parametrize("cls,names,values,other,text", CASES, ids=IDS)
def test_pickle_and_copy_round_trips(cls, names, values, other, text):
    obj = cls(*values)
    copies = [copy.copy(obj), copy.deepcopy(obj)]
    copies += [pickle.loads(pickle.dumps(obj, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls
        assert twin == obj and hash(twin) == hash(obj)
        assert _fields(twin, names) == values
        assert repr(twin) == text


def test_defaults():
    assert RootCheck(True, RootReason.OK) == RootCheck(True, RootReason.OK, None)
    assert RootCheck(True, RootReason.OK).digit_index is None
    assert ExactExponent(3) == ExactExponent(3, 0)
    assert ExactExponent(numerator=3).denominator_power == 0
    assert repr(ExactExponent(3)) == "ExactExponent(numerator=3, denominator_power=0)"


def test_padic_int_reduces_and_validates():
    assert PAdicInt(5, 2, 27).residue == 2
    assert PAdicInt(5, 2, -1).residue == 24
    assert PAdicInt(p=5, precision=2, residue=-1) == PAdicInt(5, 2, 24)
    with pytest.raises(ValueError, match="precision must be >= 1, got 0"):
        PAdicInt(5, 0, 1)


def test_witt_vector_reduces_and_validates():
    assert WittVector(5, (7, -1, 5)).digits == (2, 4, 0)
    assert WittVector(5, [1, 2]).digits == (1, 2)
    with pytest.raises(ValueError, match="at least one digit"):
        WittVector(5, ())
    with pytest.raises(NotPrime):
        WittVector(6, (1,))


def test_padic_number_validates():
    assert PAdicNumber(5, 0, None).is_zero
    with pytest.raises(NotAUnit):
        PAdicNumber(5, 0, PAdicInt(5, 3, 10))
    with pytest.raises(MismatchedRing):
        PAdicNumber(5, 0, PAdicInt(7, 3, 1))
    with pytest.raises(ValueError, match="valuation 0"):
        PAdicNumber(5, 1, None)
    with pytest.raises(NotPrime):
        PAdicNumber(9, 0, None)


# The six classes that take Record's own constructor, with one full set of field values.
PLAIN = [case[:3] for case in CASES if case[0] not in (PAdicInt, PAdicNumber, WittVector, ExactExponent)] + [
    (Command, ("help", "arguments", "handler", "needs_p"), ("help", (), print, False))
]


@pytest.mark.parametrize("cls,names,values", PLAIN, ids=[case[0].__name__ for case in PLAIN])
def test_wrong_arguments_raise_type_error_naming_the_class(cls, names, values):
    name = cls.__qualname__
    with pytest.raises(TypeError, match=rf"^{name}\(\) takes {len(names)} arguments but {len(names) + 1} were given"):
        cls(*values, 0)
    with pytest.raises(TypeError, match=rf"^{name}\(\) missing field {names[1]!r}"):
        cls(values[0])
    with pytest.raises(TypeError, match=rf"^{name}\(\) missing field {names[0]!r}"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match=rf"^{name}\(\) got an unknown or repeated field 'colour'"):
        cls(*values, colour=1)
    with pytest.raises(TypeError, match=rf"^{name}\(\) got an unknown or repeated field {names[0]!r}"):
        cls(*values[:-1], **{names[0]: values[0], names[-1]: values[-1]})


@pytest.mark.parametrize("cls,names,values", PLAIN, ids=[case[0].__name__ for case in PLAIN])
def test_positional_keyword_mixes_agree(cls, names, values):
    full = cls(*values)
    for k in range(len(names) + 1):
        assert cls(*values[:k], **dict(zip(names[k:], values[k:]))) == full


def test_defaults_fill_only_omitted_trailing_fields():
    assert RootCheck._defaults == {"digit_index": None} and Command._defaults == {"needs_p": True}
    assert RootCheck(False, RootReason.WITT_DIGIT_NONZERO, 2).digit_index == 2
    assert RootCheck(False, RootReason.WITT_DIGIT_NONZERO, digit_index=2).digit_index == 2
    assert RootCheck(ok=True, reason=RootReason.OK).digit_index is None
    assert Command("h", (), print).needs_p is True
    assert Command("h", (), print, False).needs_p is False
    assert Command("h", (), print, needs_p=False).needs_p is False
    with pytest.raises(TypeError, match=r"^RootCheck\(\) missing field 'reason'"):
        RootCheck(True, digit_index=None)
    with pytest.raises(TypeError, match=r"^Command\(\) missing field 'handler'"):
        Command("h", (), needs_p=False)
    for cls in (PolarForm, RootReport, QuotientCongruenceReport, FermatWitness):
        assert cls._defaults == {}


def test_only_the_validating_classes_define_a_constructor():
    seen = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("wittpadics.")}
    assert {cls.__name__ for cls in seen} == set(IDS) | {"Command"}
    assert {cls for cls in seen if "__init__" in cls.__dict__} == {PAdicInt, PAdicNumber, WittVector, ExactExponent}
