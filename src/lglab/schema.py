"""Versioned JSON document format for finite models and their analyses.

The format is a plain JSON tree with a ``schema: 1`` field and
probabilities as decimal literals, hand-editable and diff-friendly.
Export followed by import reproduces the model exactly: state and
outcome labels are strings, floats round-trip through their shortest
repr, and table ordering is preserved.

A certain row may be written as its one label: a preparation, kernel or
update row as the state holding weight 1, a response row as the outcome
given with probability 1. An export writes every row that way whose
label loads back as exactly the row (see ``_label``); on a large model,
whose rotations and readouts are mostly certain, that is most rows, and
the file shrinks by nearly half.

``write_document`` writes the bytes of ``json.dump(doc, handle,
indent=2)`` and a newline, at the speed of ``json``'s C encoder: that
encoder cannot indent, but it writes each container that holds no
container, one item to a line, when its item separator carries the
line break and the indent. Both directions do their per-row work once
per distinct row. An export holds one label or dict per distinct kernel,
response and update row of the model. The loader reads a label row as
the space's point mass, and a one-entry dict holding 1.0 as well, the
most common rows of a large model, and gives the states whose response
rows are written alike one row object. It type-checks each such row
once, and the response normalizes and keeps it once, as for a built model.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from json.encoder import c_make_encoder, encode_basestring_ascii

from .core import (
    Distribution,
    Measurement,
    MeasurementUpdate,
    OnticModel,
    OnticStateSpace,
    ResponseFunction,
    TransformationKernel,
)
from .errors import ModelError, SchemaError, ValidationError
from .lg import LgArrangement
from .operational import ObservableAssignment, Protocol, ProtocolStep

SCHEMA_VERSION = 1


def model_to_doc(model: OnticModel, name=None, arrangements=None, protocols=None) -> dict:
    """Serialize a model (plus optional named arrangements and protocols).

    Each distinct kernel, response and update row is converted once, to
    its label where it is certain (``_label``) and to a dict otherwise, so
    the document shares one dict wherever the model shares a row that is
    not certain; the document is read-only.
    """
    rows_doc: dict = {}  # id(row) -> its document; the model holds every row for the call

    def row_doc(row):
        converted = rows_doc.get(id(row))
        if converted is None:
            converted = _label(row)
            if converted is None:
                converted = {str(label): p for label, p in row.items()}
            rows_doc[id(row)] = converted
        return converted

    doc = {"schema": SCHEMA_VERSION}
    if name is not None:
        doc["name"] = name
    doc["ontic_states"] = [str(s) for s in model.space.states]
    doc["preparations"] = {
        pname: row_doc(dist.weights) for pname, dist in model.preparations.items()
    }
    doc["transformations"] = {
        tname: {str(s): row_doc(row.weights) for s, row in kernel.rows.items()}
        for tname, kernel in model.transformations.items()
    }
    measurements = {}
    for mname, meas in model.measurements.items():
        if meas.update.rows and meas.update.outcome_rows:
            raise SchemaError(
                "mixed per-state and per-outcome update rows cannot be serialized",
                path=f"measurements.{mname}.update",
            )
        if meas.update.outcome_rows:
            update_doc = {
                "mode": "per_outcome",
                "rows": {str(q): row_doc(d.weights) for q, d in meas.update.outcome_rows.items()},
            }
        else:
            rows: dict = {}
            for (s, q), dist in meas.update.rows.items():
                rows.setdefault(str(s), {})[str(q)] = row_doc(dist.weights)
            update_doc = {"mode": "per_state", "rows": rows}
        measurements[mname] = {
            "outcomes": [str(q) for q in meas.outcomes],
            "response": {str(s): row_doc(row) for s, row in meas.response.table.items()},
            "update": update_doc,
        }
    doc["measurements"] = measurements
    doc["quantity_classes"] = dict(model.metadata.get("quantity_classes", {}))
    if protocols:
        doc["protocols"] = {
            pname: {
                "preparation": proto.preparation,
                "steps": [
                    {
                        "transformation": step.transformation,
                        "measurement": step.measurement,
                        "perform": step.perform,
                    }
                    for step in proto.steps
                ],
            }
            for pname, proto in protocols.items()
        }
    if arrangements:
        doc["arrangements"] = {
            aname: {
                "preparation": arr.preparation,
                "transformations": list(arr.transformations),
                "measurements": list(arr.measurements),
                "values": {
                    m: {str(q): int(arr.assignment.value(m, q))
                        for q in model.measurement(m).outcomes}
                    for m in dict.fromkeys(arr.measurements)
                },
            }
            for aname, arr in arrangements.items()
        }
    metadata = {k: v for k, v in model.metadata.items() if k != "quantity_classes"}
    if metadata:
        doc["metadata"] = metadata
    return doc


def _label(row):
    """The label a certain row is written as, or None: its one key holding 1.0, where
    every other key holds +0.0. That label loads back as the same row; a row holding
    -0.0 stays a dict, so that it keeps its bytes."""
    if len(row) == 1:  # a point mass: a distribution keeps no zero weight
        [(label, p)] = row.items()
        return str(label) if p == 1.0 else None
    values = list(row.values())
    if values.count(1.0) != 1 or values.count(0.0) != len(values) - 1:
        return None  # counted first: a large preparation is no candidate, and no repr is made
    if not {"0.0", "1.0"}.issuperset(map(repr, values)):
        return None  # a -0.0, or a number of another type that equals 0 or 1
    return str(list(row)[values.index(1.0)])


def _typed(value, kind, path, what="value"):
    """``value`` if it has the JSON type ``kind``; true and false are not numbers."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        name = "number" if kind == (int, float) else kind.__name__
        raise SchemaError(f"{what} must be {name}, got {type(value).__name__}", path=path)
    return value


def _require(doc, key, kind, path):
    if key not in _typed(doc, dict, path):
        raise SchemaError(f"missing required key {key!r}", path=path)
    return _typed(doc[key], kind, path, repr(key))


def _names(items, path) -> tuple:
    """A list of names as a tuple; the exact-type test first keeps valid lists fast."""
    if not {str}.issuperset(map(type, items)):
        for i, x in enumerate(items):
            _typed(x, str, f"{path}[{i}]", "name")
    return tuple(items)


def _numbers(doc, path) -> dict:
    """A label -> number object; the exact-type test first keeps valid rows fast."""
    if not (isinstance(doc, dict) and {int, float}.issuperset(map(type, doc.values()))):
        for label, value in _typed(doc, dict, path).items():
            _typed(value, (int, float), f"{path}.{label}")
    return doc


@contextmanager
def _at(path):
    """Re-raise a component constructor's error as a SchemaError at ``path``."""
    try:
        yield
    except (ValidationError, ModelError, OverflowError) as exc:  # overflow: an int past any float
        raise SchemaError(str(exc), path=path) from None


def _rows(space, rows_doc, path) -> dict:
    """The distribution each row of ``rows_doc`` describes, under the row's key.

    A point mass of a known state, written as the state's label or as that
    label holding the float 1.0, passes every check of the others, so it is
    read straight from the space's interned point mass
    (``Distribution.point_mass``). Every other row goes through
    ``_distribution`` with its key path, an unknown label as the row
    ``{label: 1.0}``, so that both forms are refused alike.
    """
    position, points, point_mass = space.position, space.points, Distribution.point_mass
    out = {}
    for key, row in rows_doc.items():
        if type(row) is str:
            if row in position:
                out[key] = points.get(row) or point_mass(space, row)
                continue
            row = {row: 1.0}
        elif type(row) is dict and len(row) == 1:
            [(label, weight)] = row.items()
            if type(weight) is float and weight == 1.0 and label in position:
                out[key] = point_mass(space, label)
                continue
        out[key] = _distribution(space, row, f"{path}.{key}")
    return out


def _distribution(space, weights_doc, path) -> Distribution:
    """The distribution a row that ``_rows`` does not read as a point mass describes."""
    try:  # not _at: a model file holds one distribution per kernel and update row
        return Distribution(space, _numbers(weights_doc, path))
    except (ValidationError, OverflowError) as exc:
        raise SchemaError(str(exc), path=path) from None


def doc_to_model(doc) -> tuple:
    """Parse a schema document into (model, protocols, arrangements)."""
    if not isinstance(doc, dict):
        raise SchemaError("model document must be a JSON object")
    version = _require(doc, "schema", int, path="schema")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version}", path="schema")
    states = _names(_require(doc, "ontic_states", list, "ontic_states"), "ontic_states")
    with _at("ontic_states"):
        space = OnticStateSpace(states)

    preparations = _rows(space, _require(doc, "preparations", dict, "preparations"),
                         "preparations")

    transformations = {}
    for tname, rows in _require(doc, "transformations", dict, "transformations").items():
        path = f"transformations.{tname}"
        kernel_rows = _rows(space, _typed(rows, dict, path), path)
        with _at(path):
            transformations[tname] = TransformationKernel(space, kernel_rows)

    measurements = {}
    for mname, mdoc in _require(doc, "measurements", dict, "measurements").items():
        path = f"measurements.{mname}"
        outcomes = _names(_require(mdoc, "outcomes", list, path), f"{path}.outcomes")
        equal: dict = {}  # repr(row) -> (the first state, its row), which -0.0 keeps from 0.0
        table = {s: equal.setdefault(repr(row), (s, row))[1]
                 for s, row in _require(mdoc, "response", dict, path).items()}
        labels = {}  # id of a label row -> the row {label: 1.0} it stands for
        for s, row in equal.values():
            if type(row) is str:
                labels[id(row)] = {row: 1.0}
            else:
                _numbers(row, f"{path}.response.{s}")
        if labels:
            table = {s: labels.get(id(row), row) for s, row in table.items()}
        with _at(f"{path}.response"):
            response = ResponseFunction(space, outcomes, table)
        update_doc = _require(mdoc, "update", dict, path)
        mode = _require(update_doc, "mode", str, f"{path}.update")
        rows_doc = _require(update_doc, "rows", dict, f"{path}.update")
        with _at(f"{path}.update"):
            if mode == "per_outcome":
                outcome_rows = _rows(space, rows_doc, f"{path}.update.rows")
                update = MeasurementUpdate(space, outcomes, outcome_rows=outcome_rows)
            elif mode == "per_state":
                rows = {}
                for s, per_outcome in rows_doc.items():
                    spath = f"{path}.update.rows.{s}"
                    for q, dist in _rows(space, _typed(per_outcome, dict, spath), spath).items():
                        rows[(s, q)] = dist
                update = MeasurementUpdate(space, outcomes, rows=rows)
            else:
                raise SchemaError(f"unknown update mode {mode!r}", path=f"{path}.update")
            measurements[mname] = Measurement(mname, response, update)

    metadata = dict(_typed(doc.get("metadata", {}), dict, "metadata"))
    classes = _typed(doc.get("quantity_classes", {}), dict, "quantity_classes")
    if classes:
        metadata["quantity_classes"] = classes
        for label, members in classes.items():
            path = f"quantity_classes.{label}"
            for m in _names(_typed(members, list, path), path):
                if m not in measurements:
                    raise SchemaError(f"unknown measurement {m!r}", path=path)
    with _at(None):
        model = OnticModel(
            space=space,
            preparations=preparations,
            transformations=transformations,
            measurements=measurements,
            metadata=metadata,
        )

    protocols = {}
    for pname, pdoc in _typed(doc.get("protocols", {}), dict, "protocols").items():
        path = f"protocols.{pname}"
        prep = _require(pdoc, "preparation", str, path)
        if prep not in preparations:
            raise SchemaError(f"unknown preparation {prep!r}", path=path)
        steps = []
        for i, sdoc in enumerate(_require(pdoc, "steps", list, path)):
            spath = f"{path}.steps[{i}]"
            t = _typed(sdoc, dict, spath).get("transformation")
            m = _typed(sdoc.get("measurement"), str, spath, "'measurement'")
            if t is not None and _typed(t, str, spath, "'transformation'") not in transformations:
                raise SchemaError(f"unknown transformation {t!r}", path=spath)
            if m not in measurements:
                raise SchemaError(f"unknown measurement {m!r}", path=spath)
            perform = _typed(sdoc.get("perform", True), bool, spath, "'perform'")
            steps.append(ProtocolStep(t, m, perform))
        with _at(path):
            protocols[pname] = Protocol(prep, tuple(steps))

    arrangements = {}
    for aname, adoc in _typed(doc.get("arrangements", {}), dict, "arrangements").items():
        path = f"arrangements.{aname}"
        values = _require(adoc, "values", dict, path)
        for m, per_outcome in values.items():
            _numbers(per_outcome, f"{path}.values.{m}")
        transformations_doc = _require(adoc, "transformations", list, path)
        for i, t in enumerate(transformations_doc):
            if t is not None:
                _typed(t, str, f"{path}.transformations[{i}]", "name")
        with _at(path):
            arrangements[aname] = LgArrangement(
                model=model,
                preparation=_require(adoc, "preparation", str, path),
                transformations=tuple(transformations_doc),
                measurements=_names(
                    _require(adoc, "measurements", list, path), f"{path}.measurements"
                ),
                assignment=ObservableAssignment(values),
            )

    return model, protocols, arrangements


#: The exact types of the values a container written by one C encoder call may hold.
_SCALARS = frozenset({str, int, float, bool, type(None)})

#: What json.dump calls on a value it cannot write: it raises json.dump's TypeError.
_DEFAULT = json.JSONEncoder().default


def write_document(doc, handle):
    """Write ``doc`` to a text handle as ``json.dump(doc, handle, indent=2)`` does, then a newline.

    Model files and command reports are all written here. A container
    whose values are all str, int, float, bool or None goes to one
    ``json.encoder.c_make_encoder`` call, made once per depth, whose item
    separator is a comma, a line break and the indent of its items; only
    its brackets are then indented. Other containers are walked here, and
    each item is written as it is reached, so a large document is never
    held as one string.
    """
    write = handle.write
    encoders: dict = {}  # depth -> the C encoder of a container's items at that depth

    def flat(value, depth) -> str:
        encode = encoders.get(depth)
        if encode is None:
            encode = encoders[depth] = c_make_encoder(
                None, _DEFAULT, encode_basestring_ascii, None,
                ": ", ",\n" + "  " * (depth + 1), False, False, True)
        return "".join(encode(value, depth))

    def emit(value, depth):
        if isinstance(value, dict):
            brackets, values = "{}", value.values()
        elif isinstance(value, (list, tuple)):
            brackets, values = "[]", value
        else:
            return write(flat(value, depth))
        if not value:
            return write(brackets)
        indent = "\n" + "  " * (depth + 1)
        if _SCALARS.issuperset(map(type, values)):
            items = flat(value, depth)[1:-1]
            return write(brackets[0] + indent + items + indent[:-2] + brackets[1])
        heads = map(_key, value) if brackets == "{}" else itertools.repeat("")
        separator = brackets[0] + indent
        for head, item in zip(heads, values):
            write(separator + head)
            emit(item, depth + 1)
            separator = "," + indent
        write(indent[:-2] + brackets[1])

    emit(doc, 0)
    write("\n")


def _key(key) -> str:
    """A dict key as json.dump writes it, with the separator after it."""
    if not isinstance(key, str):
        if not isinstance(key, (int, float)) and key is not None:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {key.__class__.__name__}")
        key = json.dumps(key)
    return encode_basestring_ascii(key) + ": "


def dump_document(doc, path):
    with open(path, "w", encoding="utf-8") as handle:
        write_document(doc, handle)


def load_document(path) -> dict:
    """The JSON document in a UTF-8 file; a file that does not parse is a SchemaError."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8: byte {data[exc.start]:#04x} at offset {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise SchemaError("JSON nesting is too deep") from None
    except ValueError:  # an integer literal past Python's limit on digits
        raise SchemaError("an integer literal has too many digits to read") from None


def load_model_file(path) -> tuple:
    """Load and validate a model file; returns (model, protocols, arrangements)."""
    return doc_to_model(load_document(path))
