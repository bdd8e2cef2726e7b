"""Model files in and out: the indented writer and the loader's point-mass rows.

``schema.write_document`` must write the bytes of ``json.dump(doc,
handle, indent=2)`` and a newline. ``json.dumps`` stays the reference
here, on every zoo export, on the command reports and on synthetic
documents that reach each branch of the writer.
"""

import copy
import io
import json
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

from lglab import Distribution, SchemaError, cli, schema, zoo
from builders import expanded
from perfbench.workloads import CLI_GRID, ZOO


def json_dump_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def assert_same_text(got, expected):
    """Fail naming the first difference: pytest's diff of a megabyte string takes minutes."""
    if got != expected:
        at = next(i for i, pair in enumerate(zip(got + "\0", expected + "\1")) if len(set(pair)) > 1)
        pytest.fail(f"first difference at offset {at}: "
                    f"{got[at - 30:at + 30]!r} against {expected[at - 30:at + 30]!r}")


def written(doc, write_document=schema.write_document) -> str:
    handle = io.StringIO()
    write_document(doc, handle)
    return handle.getvalue()


def export_document(entry, *params) -> dict:
    """The document ``lglab zoo export`` writes."""
    with redirect_stdout(io.StringIO()) as out:
        assert cli.main(["zoo", "export", entry, *params]) == 0
    return json.loads(out.getvalue())


@pytest.fixture
def writes(monkeypatch):
    """The (document, text) of each write_document call, which passes the text on."""
    calls = []

    def recorded(doc, handle):  # written() keeps the writer it was defined with
        calls.append((doc, written(doc)))
        handle.write(calls[-1][1])

    monkeypatch.setattr(schema, "write_document", recorded)
    return calls


#: Command lines whose reports the suite reads, beside every zoo entry's lg,
#: classify and export; {model} is an exported superselected file.
REPORTS = [
    ["lg", "--zoo", "superselected", "--p1", "0.25", "--p2", "0.25"],
    ["lg", "--zoo", "qubit", "--depth", "3"],
    ["lg", "--zoo", "bohm-two-path", "--depth", "3"],
    ["lg", "--zoo", "superselected", "--tol", "0.01"],
    ["classify", "--zoo", "superselected", "--image-depth", "1"],
    ["classify", "--zoo", "superselected", "--tol", "0.5"],
    ["classify", "--zoo", "qubit"],
    ["twoslit", "--mod1-sq", "0.2", "--phi", str(math.pi)],
    ["twoslit", "--mod1-sq", "0.5", "--phi", "7.0"],
    ["twoslit", "--sweep", "--mod-steps", "3", "--phi-steps", "4"],
    ["zoo", "list"],
    ["lg", "--model", "{model}", "--arrangement", "lg"],
    ["run", "--model", "{model}", "--protocol", "lg-all", "--marginal", "0,2"],
]

ZOO_REPORTS = [[*command, entry, *CLI_GRID.get(entry, [])]
               for entry in ZOO for command in (["lg", "--zoo"], ["classify", "--zoo"],
                                                ["zoo", "export"])]


@pytest.mark.parametrize("argv", ZOO_REPORTS + REPORTS + [["zoo", "export", "ks-sphere"]],
                         ids=" ".join)
def test_every_report_is_written_as_json_dump_writes_it(argv, writes, tmp_path, capsys):
    model = tmp_path / "superselected.json"
    cli.main(["zoo", "export", "superselected", "--out", str(model)])
    writes.clear()
    code = cli.main([arg.format(model=model) for arg in argv] + ["--no-timestamp"])
    out = capsys.readouterr().out
    if code == 2:  # a refusal (lg on an entry without an arrangement) writes no report
        assert writes == [] and out == ""
        return
    [(doc, text)] = writes
    assert_same_text(text, json_dump_text(doc))
    assert_same_text(out, text)


def shared_documents() -> list:
    """Documents that hold one flat container several times at one depth and at others."""
    row, items, empty, nothing = {"+1": 1.0, "-1": 0.0}, [1, "two", None, 2.5], {}, []
    return [
        {"a": row, "b": row, "c": {"d": row, "e": [row, row]}, "f": [[row]]},
        [items, items, {"x": items, "y": [items, {"z": items}]}, items],
        {"e": empty, "f": empty, "g": [empty, nothing, {"h": empty}], "i": nothing, "j": nothing},
        [row, items, empty, [row, items, empty, nothing], {"k": row, "l": items, "m": nothing}],
    ]


SHARED = shared_documents()

#: Documents that reach every branch: scalars at the top, empty containers at
#: several depths, lists of lists, tuples, non-finite floats, non-ASCII text,
#: keys of every allowed type, values of subclasses of the JSON types, and
#: containers held in several places.
SYNTHETIC = [
    0, -1.5, "text", None, True, [], {}, (),
    [[]], [{}], {"a": {}}, {"a": []}, {"a": {"b": {"c": {}, "d": []}}},
    [[1, 2], [3, [4, {}]], [], [[[]]]],
    (1, (2.5, ("x", None))),
    {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "list": [math.nan, -math.inf]},
    {"é": "ü ☃ \U0001f600", "\x00\n\t\"\\": [" ", "ß"]},
    {1: "int", 2.5: "float", True: "true", False: "false", None: "null", math.nan: "nan",
     -math.inf: "-inf", 10**30: "big"},
    {"mixed": {"a": {1: [True, False, None]}, "b": 2}},
    {math.nan: [1], -math.inf: {"a": {}}, True: [[]], None: {"x": [2]}, 2.5: [3], 10**30: [4]},
    {"numpy": np.float64(0.1), "row": {"s": np.float64(1 / 3), "t": 1}, "flags": [True, False]},
    [np.float64("nan"), np.float64(-0.0), 1e308, 5e-324, -0.0],
    {"deep": [[[[[{"k": [1, [2, [3, {}]]]}]]]]]},
    *SHARED,
]


@pytest.mark.parametrize("doc", SYNTHETIC)
def test_synthetic_documents_are_written_as_json_dump_writes_them(doc):
    assert_same_text(written(doc), json_dump_text(doc))


@pytest.mark.parametrize("doc", SHARED)
def test_a_shared_container_is_written_in_the_writes_of_an_unshared_copy(doc):
    shared, unshared = Pieces(), Pieces()
    schema.write_document(doc, shared)
    schema.write_document(copy.deepcopy(doc), unshared)
    assert shared == unshared  # the same text, in the same writes


def test_an_export_shares_a_dict_wherever_the_model_shares_a_row():
    model = zoo.build("ks-sphere", n_points=100).model
    doc = schema.model_to_doc(model)
    assert len({id(row) for row in doc["measurements"]["Mz"]["response"].values()}) == 2
    kernels = model.transformations.values()
    kernel_rows = [row for rows in doc["transformations"].values() for row in rows.values()]
    distinct = {id(dist) for kernel in kernels for dist in kernel.rows.values()}
    assert (len(kernel_rows), len(set(map(id, kernel_rows))), len(distinct)) == (400, 200, 200)
    # the update re-samples onto the eigenstate preparations, which the model shares
    assert doc["measurements"]["Mz"]["update"]["rows"]["+1"] is doc["preparations"]["up"]
    text = written(doc)
    assert_same_text(text, json_dump_text(doc))
    assert_same_text(text, written(copy.deepcopy(doc)))


@pytest.mark.parametrize("doc", [
    {"a": {1, 2}},
    {"a": [object()]},
    object(),
    {"a": {"b": 1, "c": {"d": b"bytes"}}},
    {(1, 2): 1},
    {"a": {"b": {(1,): 2}}},
    {"a": {"b": [], frozenset(): 1}},
])
def test_an_unserialisable_value_raises_json_dumps_type_error(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as raised:
        written(doc)
    assert str(raised.value) == str(expected.value)


def containers(value, depth=0):
    """(container, depth) for each place the document holds a dict or a list, itself first."""
    if isinstance(value, (dict, list)):
        yield value, depth
        for item in value.values() if isinstance(value, dict) else value:
            yield from containers(item, depth + 1)


def test_a_large_export_is_streamed_in_pieces():
    # the document is never held as one string: a write carries at most one
    # container of scalars, so no write is longer than the longest of them as
    # written at its depth, and there are at least as many writes as containers
    doc = export_document("ks-sphere", "--grid", "200")
    pieces = Pieces()
    schema.write_document(doc, pieces)
    assert_same_text("".join(pieces), json_dump_text(doc))
    held = list(containers(doc))
    flat = [json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
            for value, depth in held
            if not any(isinstance(item, (dict, list))
                       for item in (value.values() if isinstance(value, dict) else value))]
    assert len(pieces) >= len(held)
    assert max(map(len, pieces)) <= max(map(len, flat))


class Pieces(list):
    """A text handle that keeps each write apart."""

    write = list.append


# ---------------------------------------------------------------------------
# point-mass rows on the loader's direct path


#: (zoo entry, key path to a one-entry row holding 1.0): a preparation, a
#: kernel row and a per-state update row.
POINT_MASS_ROWS = [
    ("qubit", ("preparations", "up")),
    ("qubit", ("transformations", "rot1", "q(1,0)")),
    ("superselected", ("measurements", "read", "update", "rows", "up", "+1")),
]


def row_parent(doc, path):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    return parent


@pytest.fixture(params=POINT_MASS_ROWS, ids=lambda p: ".".join(p[1]))
def point_row(request):
    entry, path = request.param
    doc = expanded(export_document(entry))
    [(label, weight)] = row_parent(doc, path)[path[-1]].items()
    assert weight == 1.0 and type(weight) is float
    return doc, path, label


def load_with_row(point_row, row):
    doc, path, _ = point_row
    doc = copy.deepcopy(doc)
    row_parent(doc, path)[path[-1]] = row
    return schema.doc_to_model(doc)[0]


@pytest.mark.parametrize("row,suffix,message", [
    ({"nowhere": 1.0}, "", "unknown state label 'nowhere'"),
    ({"{label}": True}, ".{label}", "value must be number, got bool"),
    ({"{label}": math.nan}, "", "weight nan for state '{label}' is not a nonnegative number"),
    ({"{label}": -1.0}, "", "weight -1.0 for state '{label}' is not a nonnegative number"),
    ({"{label}": 1.5}, "", "weights sum to 1.5, expected 1 within 1e-09"),
], ids=["unknown-label", "true", "nan", "negative", "far-from-1"])
def test_a_one_entry_row_is_refused_as_the_validated_path_refuses_it(point_row, row, suffix,
                                                                     message):
    label, path = point_row[2], ".".join(point_row[1])
    row = {key.format(label=label): value for key, value in row.items()}
    with pytest.raises(SchemaError) as raised:
        load_with_row(point_row, row)
    assert raised.value.path == path + suffix.format(label=label)
    assert str(raised.value) == f"{path}{suffix.format(label=label)}: {message.format(label=label)}"


@pytest.mark.parametrize("weight", [1, 1.0000000001])
def test_a_row_not_holding_the_float_one_is_validated_and_loads_as_it(point_row, weight,
                                                                      monkeypatch):
    # the int 1, and a weight that renormalizes to 1.0, take the validated
    # path; the row loads as the float 1.0, as the point mass does
    label = point_row[2]
    direct = []  # the labels of the rows loaded on the direct path
    point_mass = Distribution.point_mass.__func__
    monkeypatch.setattr(Distribution, "point_mass", classmethod(
        lambda cls, space, at: direct.append(at) or point_mass(cls, space, at)))
    reference = load_with_row(point_row, {label: 1.0})
    on_direct_path = direct.count(label)
    direct.clear()
    model = load_with_row(point_row, {label: weight})
    assert direct.count(label) == on_direct_path - 1
    assert json.dumps(schema.model_to_doc(model)) == json.dumps(schema.model_to_doc(reference))


def loaded_row(model, path):
    """The distribution a model loaded from a POINT_MASS_ROWS entry holds at its key path."""
    kind, *keys = path
    if kind == "preparations":
        return model.preparations[keys[0]]
    if kind == "transformations":
        return model.transformations[keys[0]].rows[keys[1]]
    return model.measurements[keys[0]].update.rows[keys[3], keys[4]]


def test_a_label_row_loads_as_the_point_mass_on_the_direct_path(point_row, monkeypatch):
    _, path, label = point_row
    reference = load_with_row(point_row, {label: 1.0})
    validated = []  # the key paths of the rows loaded on the validated path
    distribution = schema._distribution
    monkeypatch.setattr(schema, "_distribution", lambda space, row, at:
                        validated.append(at) or distribution(space, row, at))
    model = load_with_row(point_row, label)
    assert loaded_row(model, path) is model.space.points[label]
    assert ".".join(path) not in validated
    assert json.dumps(schema.model_to_doc(model)) == json.dumps(schema.model_to_doc(reference))


@pytest.mark.parametrize("row,message", [
    ("nowhere", "unknown state label 'nowhere'"),
    (["nowhere"], "value must be dict, got list"),
    (1.0, "value must be dict, got float"),
], ids=["unknown-label", "list", "number"])
def test_a_row_neither_a_known_label_nor_a_dict_is_refused_at_its_key_path(point_row, row,
                                                                           message):
    # an unknown label is refused as the row {label: 1.0} is
    path = ".".join(point_row[1])
    with pytest.raises(SchemaError) as raised:
        load_with_row(point_row, row)
    assert raised.value.path == path
    assert str(raised.value) == f"{path}: {message}"


#: A document as exported, with its certain rows as labels, and as a file without label
#: rows writes it.
FORMS = {"labels": lambda doc: doc, "dicts": expanded}


def sphere_document() -> dict:
    """A ks-sphere export of 300 states, whose Mz declares two distinct response rows."""
    return json.loads(json.dumps(schema.model_to_doc(zoo.build("ks-sphere", n_points=100).model)))


def response_rows(model) -> int:
    """The distinct response row objects of the model's Mz."""
    return len({id(row) for row in model.measurements["Mz"].response.table.values()})


@pytest.mark.parametrize("form", FORMS.values(), ids=FORMS.keys())
def test_a_loaded_model_shares_equal_response_rows(form):
    doc = form(sphere_document())
    text = json_dump_text(doc)
    model, _, _ = schema.doc_to_model(doc)
    assert response_rows(model) == 2  # as built; one per state before the rows were shared
    assert json_dump_text(doc) == text  # the document is left as it was


@pytest.mark.parametrize("form", FORMS.values(), ids=FORMS.keys())
def test_rows_written_with_a_negative_zero_stay_apart(form):
    # a certain row holding -0.0 is written as a dict, beside neighbours
    # written as their label (or, in files without label rows, as dicts)
    doc = form(sphere_document())
    response = doc["measurements"]["Mz"]["response"]
    first = next(s for s, row in expanded(doc)["measurements"]["Mz"]["response"].items()
                 if row == {"+1": 1.0, "-1": 0.0})
    response[first] = {"+1": 1.0, "-1": -0.0}  # equal to its neighbours under ==
    model, _, _ = schema.doc_to_model(doc)
    assert response_rows(model) == 3
    assert_same_text(written(form(schema.model_to_doc(model))), written(doc))


def test_a_bad_row_written_for_several_states_is_reported_at_the_first():
    doc = sphere_document()
    response = doc["measurements"]["Mz"]["response"]
    for state in ("r0:7", "r0:3", "r1:0"):
        response[state] = {"+1": 0.7, "-1": 0.7}
    with pytest.raises(SchemaError) as raised:
        schema.doc_to_model(doc)
    assert str(raised.value) == ("measurements.Mz.response: "
                                 "response row for 'r0:3' sums to 1.4, expected 1")


def test_a_mistyped_row_written_for_several_states_is_reported_at_the_first():
    doc = sphere_document()
    response = doc["measurements"]["Mz"]["response"]
    for state in ("r0:7", "r0:3", "r1:0"):
        response[state] = {"+1": "1", "-1": 0.0}
    with pytest.raises(SchemaError) as raised:
        schema.doc_to_model(doc)
    assert raised.value.path == "measurements.Mz.response.r0:3.+1"
    assert str(raised.value) == "measurements.Mz.response.r0:3.+1: value must be number, got str"


def test_a_bad_label_written_for_several_states_is_reported_at_the_first():
    doc = sphere_document()
    response = doc["measurements"]["Mz"]["response"]
    for state in ("r0:7", "r0:3", "r1:0"):
        response[state] = "+2"
    with pytest.raises(SchemaError) as raised:
        schema.doc_to_model(doc)
    assert str(raised.value) == ("measurements.Mz.response: "
                                 "unknown outcome '+2' in row for 'r0:3'")
