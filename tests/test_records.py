"""Every result type is a ``Record``: immutable, compared by class and fields,
printed in the ``Name(field=value)`` form, copied by ``replace`` and turned
into plain dicts by ``asdict``."""

import operator

import pytest

from bioqm import (
    ChshBound,
    DualVector,
    FieldConfig,
    GroupElement,
    Measurement,
    StateVector,
    census,
    chsh_bound,
    enumerate_group,
    table_report,
)
from bioqm.acceptance import CriterionResult  # the one module __init__ does not load
from bioqm.gf import Record, asdict, replace

GF3, GF9 = FieldConfig(3, 1), FieldConfig(3, 2)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted(
    {cls for cls in _subclasses(Record) if cls.__module__.startswith("bioqm.")},
    key=lambda cls: (cls.__module__, cls.__qualname__),
)
ROW = (GF9.one(), GF9.element(0, 1))


def _values(cls) -> tuple:
    """Field values a record of cls accepts: a row for kets and bras, else numbers."""
    if "components" in cls._fields:
        return ROW, GF9
    return tuple(range(10, 10 + len(cls._fields)))


def _ids(classes):
    return [cls.__qualname__ for cls in classes]


def test_every_result_type_is_a_record():
    names = {cls.__qualname__ for cls in RECORDS}
    assert {"ChshBound", "Census", "StateVector", "DualVector", "GroupElement",
            "PhiUniquenessReport", "LPResult"} <= names and CriterionResult in RECORDS
    assert all(cls._fields for cls in RECORDS)
    assert StateVector._fields == DualVector._fields == ("components", "config")


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_records_refuse_every_write(cls):
    record = cls(*_values(cls))
    for name in (cls._fields[0], "note"):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(record, name)
    assert record == cls(*_values(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_records_are_equal_by_class_and_fields(cls):
    values = _values(cls)
    record, twin = cls(*values), cls(**dict(zip(cls._fields, values)))
    assert record == twin and hash(record) == hash(twin) == hash(values)
    first = cls._fields[0]
    changed = replace(record, **{first: ROW[::-1] if first == "components" else -1})
    assert changed != record and type(changed) is cls
    assert [getattr(changed, name) for name in cls._fields[1:]] == list(values[1:])
    for other in RECORDS:
        if other is not cls and _values(other) == values:
            assert other(*values) != record


def test_init_binds_every_field_once():
    assert Measurement(1, variance=2) == Measurement(expectation=1, variance=2)
    for args, kwargs in [((1,), {}), ((1, 2, 3), {}), ((1, 2), {"spread": 3}),
                         ((1,), {"expectation": 2}), ((), {"variance": 2})]:
        with pytest.raises(TypeError, match="Measurement"):
            Measurement(*args, **kwargs)


def test_replace_checks_the_new_fields():
    with pytest.raises(ValueError, match="at least one component"):
        replace(StateVector(ROW, GF9), components=())
    with pytest.raises(TypeError, match=r"variance, got 0 .*'weight'\] by keyword"):
        replace(Measurement(1, 2), weight=3)


def test_reprs_are_the_dataclass_form():
    group = enumerate_group(GF3)
    assert repr(chsh_bound(GF3)) == (
        "ChshBound(bound=2, states_scanned=24, quadruples_per_state=4)")
    assert repr(census(GF3)) == (
        "Census(states=40, product=16, product_physical=16, product_self_orthogonal=0,"
        " entangled=24, entangled_physical=8, entangled_self_orthogonal=16)")
    assert repr(StateVector.make(GF9, [1, (0, 1)])) == (
        "StateVector(components=(<1 in GF(9)>, <i in GF(9)>),"
        " config=FieldConfig(p=3, degree=2))")
    assert repr(group.elements[1]) == (
        "GroupElement(matrix=((<0 in GF(3)>, <1 in GF(3)>), (<-1 in GF(3)>, <0 in GF(3)>)),"
        " label='(ab)(cd)', sign=1)")
    assert isinstance(group.elements[1], GroupElement)


def test_asdict_recurses_and_keeps_containers_and_leaves():
    bound = ChshBound(4, 540, 16)
    leaf = GF9.element(1, 2)
    nested = Measurement(expectation=[bound, (leaf,)], variance={"census": census(GF3)})
    assert asdict(nested) == {
        "expectation": [{"bound": 4, "states_scanned": 540, "quadruples_per_state": 16},
                        (leaf,)],
        "variance": {"census": census(GF3).counts()},
    }
    converted = asdict(nested)
    assert type(converted["expectation"]) is list and type(converted["expectation"][1]) is tuple
    assert converted["expectation"][1][0] is leaf

    table = table_report(GF9)
    report = asdict(table)
    assert type(report["rows"]) is tuple and type(report["rows"][0]["cells"]) is tuple
    rep = report["rows"][0]["state"]["rep"]
    assert rep["config"] is GF9 and type(rep["components"]) is tuple
    assert all(map(operator.is_, rep["components"], table.rows[0].state.rep.components))
