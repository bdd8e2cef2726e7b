"""The model and result records: fields, equality, hash, repr, immutability and ``replace``."""

import importlib
import inspect

import pytest

from lglab import ValidationError
from lglab.classify import Classification
from lglab.core import FrozenRecordError, OnticModel, OnticStateSpace, _Record
from lglab.lg import ChainRecord, check_implication_chain
from lglab.operational import Protocol, ProtocolStep
from lglab.zoo import build_superselected_arrangement

from builders import replace

MODULES = ("core", "operational", "lg", "classify", "twoslit", "zoo")

#: Every record class, found by scanning the modules that define them.
RECORDS = [
    obj
    for module in map(importlib.import_module, (f"lglab.{name}" for name in MODULES))
    for obj in vars(module).values()
    if isinstance(obj, type) and issubclass(obj, _Record) and obj is not _Record
    and obj.__module__ == module.__name__
]


def blank(cls, values):
    """A record of ``cls`` holding ``values`` in field order, made without its validation."""
    record = cls.__new__(cls)
    vars(record).update(zip(cls._fields, values))
    return record


def test_every_record_class_is_found():
    assert len(RECORDS) == 21
    assert {"OnticModel", "ProtocolStep", "ChainRecord", "Classification",
            "SlitAmplitudes", "ZooBuild"} <= {cls.__name__ for cls in RECORDS}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_init_takes_the_annotated_fields_in_order(cls):
    annotated = list(cls.__dict__["__annotations__"])
    assert list(inspect.signature(cls.__init__).parameters)[1:] == annotated
    assert list(cls._fields) == annotated


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_give_equal_records_and_hashes(cls):
    values = [f"value {i}" for i in range(len(cls._fields))]
    record, twin = blank(cls, values), blank(cls, list(values))
    assert record is not twin
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    for i, name in enumerate(cls._fields):
        changed = blank(cls, values[:i] + ["other"] + values[i + 1:])
        assert (changed == record) is (name not in cls._compared)
    other = next(c for c in RECORDS if c is not cls)
    stranger = other.__new__(other)
    vars(stranger).update(vars(record))
    assert record != stranger and stranger != record


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_are_refused(cls):
    record = blank(cls, range(len(cls._fields)))
    first = cls._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
        setattr(record, first, "changed")
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    with pytest.raises(FrozenRecordError, match=f"cannot delete field '{first}'"):
        delattr(record, first)
    assert getattr(record, first) == 0 and not hasattr(record, "extra")


def test_repr_names_every_field():
    assert repr(ProtocolStep(None, "Mz")) == (
        "ProtocolStep(transformation=None, measurement='Mz', perform=True)")
    space = OnticStateSpace(("a", "b"))
    assert repr(space) == "OnticStateSpace(states=('a', 'b'))"
    model = OnticModel(space, {}, {}, {})
    assert repr(model) == (f"OnticModel(space={space!r}, preparations={{}}, "
                           "transformations={}, measurements={}, metadata={})")


def test_chain_record_equality_ignores_report_and_details():
    record = check_implication_chain(build_superselected_arrangement(0.25, 0.25))
    assert ChainRecord._compared == ("ontically_noninvasive", "opnd_complete", "opnd_specific",
                                     "lgi_satisfied", "lg_pairwise")
    other = replace(record, report=None, details={"other": 1})
    assert other == record and hash(other) == hash(record)
    assert replace(record, lg_pairwise=record.lg_pairwise + 1.0) != record


def test_replace_changes_the_given_fields_and_validates_again():
    protocol = Protocol("zero", [ProtocolStep(None, "Mz"), ProtocolStep("T", "Mx", False)])
    moved = replace(protocol, preparation="one")
    assert (moved.preparation, moved.steps) == ("one", protocol.steps)
    assert replace(protocol, steps=[ProtocolStep(None, "Mx")]).steps == (ProtocolStep(None, "Mx"),)
    with pytest.raises(ValidationError, match="protocol must perform at least one measurement"):
        replace(protocol, steps=(ProtocolStep(None, "Mz", False),))
    with pytest.raises(TypeError):
        replace(protocol, prep="one")


def test_a_dict_field_left_out_defaults_to_a_new_empty_dict():
    space = OnticStateSpace(("a",))
    first, second = OnticModel(space, {}, {}, {}), OnticModel(space, {}, {}, {})
    assert first.metadata == {} and first.metadata is not second.metadata
    verdicts = [Classification("Q", "not-MR", False) for _ in range(2)]
    assert verdicts[0].eigenstate_preparations == {}
    assert verdicts[0].eigenstate_preparations is not verdicts[1].eigenstate_preparations
