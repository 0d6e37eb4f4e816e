"""The value semantics of the library's records: RimHookRecord, CoreResult,
GrContext and GeneratorCheck.

Each is an immutable record compared, hashed, printed, copied and pickled by
its fields, and equal only to a record of its own class.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from mnrules.partitions import CoreResult, RimHookRecord
from mnrules.quantum import GeneratorCheck, GrContext

# (class, field names, field values, repr text)
RECORDS = [
    (
        RimHookRecord,
        ("inner", "outer", "size", "height"),
        ((1,), (1, 1, 1), 2, 2),
        "RimHookRecord(inner=(1,), outer=(1, 1, 1), size=2, height=2)",
    ),
    (
        CoreResult,
        ("core", "hooks_removed", "height_sum"),
        ((), 1, 3),
        "CoreResult(core=(), hooks_removed=1, height_sum=3)",
    ),
    (GrContext, ("k", "n"), (2, 5), "GrContext(k=2, n=5)"),
    (
        GeneratorCheck,
        ("name", "expected", "actual", "ok"),
        ("h_4", {(1, ()): -1}, {(1, ()): -1}, True),
        "GeneratorCheck(name='h_4', expected={(1, ()): -1}, actual={(1, ()): -1}, ok=True)",
    ),
]

IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert tuple(getattr(by_position, f) for f in names) == values
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_equal_only_to_a_record_of_the_same_class(cls, names, values, text):
    rec = cls(*values)
    assert rec != values
    assert values != rec
    assert rec != list(values)

    class Sub(cls):
        pass

    assert rec != Sub(*values)
    for other, _, other_values, _ in RECORDS:
        if other is not cls:
            assert rec != other(*other_values)


@pytest.mark.parametrize("cls, names, values, text", RECORDS[:3], ids=IDS[:3])
def test_equal_records_hash_equal(cls, names, values, text):
    assert hash(cls(*values)) == hash(cls(*values))
    assert len({cls(*values), cls(*values)}) == 1


def test_a_generator_check_is_unhashable_because_its_fields_are_dicts():
    _, _, values, _ = RECORDS[3]
    with pytest.raises(TypeError):
        hash(GeneratorCheck(*values))


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, names, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, text):
    rec = cls(*values)
    for f in names:
        with pytest.raises(AttributeError):
            setattr(rec, f, 0)
        with pytest.raises(AttributeError):
            delattr(rec, f)
    with pytest.raises(AttributeError):
        rec.extra = 0
    assert tuple(getattr(rec, f) for f in names) == values


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(cls, names, values, text):
    rec = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is cls and back == rec
    for clone in (copy.copy(rec), copy.deepcopy(rec)):
        assert type(clone) is cls and clone == rec
        assert repr(clone) == text


def test_grassmannian_needs_0_lt_k_lt_n():
    with pytest.raises(ValueError) as err:
        GrContext(3, 3)
    assert str(err.value) == "need 0 < k < n, got k=3, n=3"


class Small(int):
    pass


def test_grassmannian_takes_only_integers():
    for k, n in [(1.5, 4), (2, 4.0), ("2", 4), (2, "4"), (None, 4), (Fraction(2), 4)]:
        with pytest.raises(ValueError) as err:
            GrContext(k, n)
        assert str(err.value) == f"k and n must be integers, got k={k!r}, n={n!r}"
    ctx = GrContext(Small(2), Small(5))
    assert ctx == GrContext(2, 5)
    assert repr(ctx) == "GrContext(k=2, n=5)"
    assert GrContext(True, 3) == GrContext(1, 3)
