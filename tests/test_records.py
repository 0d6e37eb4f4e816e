"""The value semantics of the library's records: CoreResult and GrContext.

Each is an immutable named tuple compared, hashed, printed, copied and
pickled by its fields, and equal to the plain tuple of those fields.
"""

import copy
import pickle

import pytest

from mnrules.partitions import CoreResult
from mnrules.quantum import GrContext

# (class, field names, field values, repr text)
RECORDS = [
    (
        CoreResult,
        ("core", "hooks_removed", "height_sum"),
        ((), 1, 3),
        "CoreResult(core=(), hooks_removed=1, height_sum=3)",
    ),
    (GrContext, ("k", "n"), (2, 5), "GrContext(k=2, n=5)"),
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
def test_equal_to_the_tuple_of_its_fields_and_to_no_list(cls, names, values, text):
    rec = cls(*values)
    assert rec == values and values == rec and not rec != values
    assert hash(rec) == hash(values)
    assert rec != list(values)

    class Sub(cls):
        pass

    assert rec == Sub(*values)
    for other, _, other_values, _ in RECORDS:
        if other is not cls:
            assert rec != other(*other_values)


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_equal_records_hash_equal(cls, names, values, text):
    assert hash(cls(*values)) == hash(cls(*values))
    assert len({cls(*values), cls(*values)}) == 1


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


class Small(int):
    pass


def test_grassmannian_takes_only_integers():
    # the refusals of floats, strings, fractions and None are REFUSALS rows
    # in test_input_checks.py; integers of any int type are stored as ints,
    # and k may be as large as ROW_LIMIT
    ctx = GrContext(Small(2), Small(5))
    assert ctx == GrContext(2, 5)
    assert repr(ctx) == "GrContext(k=2, n=5)"
    assert GrContext(True, 3) == GrContext(1, 3)
    for ctx in (GrContext(Small(2), Small(5)), GrContext(True, 3), GrContext(2, Small(5)), GrContext(500, 1000)):
        assert list(map(type, ctx)) == [int, int], ctx
    assert GrContext(500, 1000) == (500, 1000)


def test_grassmannian_is_a_checked_named_tuple():
    ctx = GrContext(2, 5)
    assert tuple(ctx) == ctx == (2, 5) and not ctx != (2, 5)
    k, n = ctx
    assert (k, n) == (ctx.k, ctx.n) == (ctx[0], ctx[1])
    assert ctx._replace(n=6) == GrContext(2, 6)
    assert GrContext._make([3, 7]) == GrContext(3, 7)
    for build in (lambda: ctx._replace(k=7), lambda: GrContext._make((3, 3))):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value).startswith("need 0 < k < n, got k=")
    with pytest.raises(ValueError) as err:
        ctx._replace(k=1.5)
    assert str(err.value) == "k must be an integer, got 1.5"
