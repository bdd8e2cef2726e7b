"""The model and result records: fields, binding, equality, hash, repr, immutability and
``replace``."""

import ast
import importlib
import inspect
import os

import pytest

import lglab
from lglab import ValidationError
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


#: The records that check, convert or default a field, and so define their own ``__init__``.
OWN_INIT = {"OnticStateSpace", "Measurement", "OnticModel", "LgArrangement", "Protocol",
            "JointDistribution", "SlitAmplitudes"}


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
    assert list(cls._fields) == annotated
    if cls.__name__ in OWN_INIT:
        assert list(inspect.signature(cls.__init__).parameters)[1:] == annotated
        return
    assert cls.__init__ is _Record.__init__
    values = [object() for _ in annotated]
    for record in (cls(*values), cls(**dict(zip(annotated, values))),
                   cls(*values[:1], **dict(zip(annotated[1:], values[1:])))):
        assert vars(record) == dict(zip(annotated, values))
        assert record._values(annotated) == tuple(values)
    refused = [
        (values[:-1], {}),  # the last field missing
        ([], dict(zip(annotated[1:], values[1:]))),  # the first field missing
        (values, {"unknown": 1}),
        (values[:-1], {"unknown": 1}),
        (values, {annotated[-1]: 1}),  # the last field given twice
        ([*values, 1], {}),
    ]
    for args, named in refused:
        with pytest.raises(TypeError, match=rf"{cls.__name__}\(\) takes the fields "
                                            rf"\({', '.join(annotated)}\)"):
            cls(*args, **named)


def test_exactly_the_records_that_check_convert_or_default_define_init():
    assert {cls.__name__ for cls in RECORDS if "__init__" in vars(cls)} == OWN_INIT


def copy_only_inits(tree: ast.Module) -> list:
    """The ``_Record`` subclasses in ``tree`` whose ``__init__`` takes no default and whose
    body, docstring aside, is one ``vars(self).update`` call passing each parameter as itself."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef)
                and any(isinstance(base, ast.Name) and base.id == "_Record" for base in node.bases)):
            continue
        for init in node.body:
            if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                continue
            args = init.args
            params = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs][1:]
            body = init.body[1:] if ast.get_docstring(init) is not None else init.body
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Expr) else None
            if (not args.defaults and not any(args.kw_defaults) and isinstance(call, ast.Call)
                    and ast.unparse(call.func) == "vars(self).update" and not call.args
                    and sorted((k.arg, ast.unparse(k.value)) for k in call.keywords)
                    == sorted((name, name) for name in params)):
                found.append(node.name)
    return found


def test_the_guard_finds_an_init_that_only_stores_its_fields():
    source = """
class Stored(_Record):
    a: int
    b: int

    def __init__(self, a, b):
        "Docstring."
        vars(self).update(b=b, a=a)


class Defaulted(_Record):
    a: int

    def __init__(self, a=0):
        vars(self).update(a=a)


class Renamed(_Record):
    a: int
    b: int

    def __init__(self, a, b):
        vars(self).update(a=b, b=a)


class Checked(_Record):
    a: int

    def __init__(self, a):
        if a < 0:
            raise ValueError(a)
        vars(self).update(a=a)
"""
    assert copy_only_inits(ast.parse(source)) == ["Stored"]


def test_no_record_defines_an_init_that_only_stores_its_fields():
    src = os.path.dirname(lglab.__file__)
    found = []
    for filename in sorted(os.listdir(src)):
        if filename.endswith(".py"):
            with open(os.path.join(src, filename), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename)
            found += [f"{filename[:-3]}.{name}" for name in copy_only_inits(tree)]
    assert found == []


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
    assert repr(ProtocolStep(None, "Mz", True)) == (
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
    protocol = Protocol("zero", [ProtocolStep(None, "Mz", True), ProtocolStep("T", "Mx", False)])
    moved = replace(protocol, preparation="one")
    assert (moved.preparation, moved.steps) == ("one", protocol.steps)
    step = ProtocolStep(None, "Mx", True)
    assert replace(protocol, steps=[step]).steps == (ProtocolStep(None, "Mx", True),)
    with pytest.raises(ValidationError, match="protocol must perform at least one measurement"):
        replace(protocol, steps=(ProtocolStep(None, "Mz", False),))
    with pytest.raises(TypeError):
        replace(protocol, prep="one")


def test_a_dict_field_left_out_defaults_to_a_new_empty_dict():
    space = OnticStateSpace(("a",))
    first, second = OnticModel(space, {}, {}, {}), OnticModel(space, {}, {}, {})
    assert first.metadata == {} and first.metadata is not second.metadata
