"""Versioned JSON document format for finite models and their analyses.

The format is a plain JSON tree with a ``schema: 1`` field and
probabilities as decimal literals, hand-editable and diff-friendly.
Export followed by import reproduces the model exactly: state and
outcome labels are strings, floats round-trip through their shortest
repr, and table ordering is preserved.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

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


def _weights_doc(dist: Distribution) -> dict:
    return {str(label): w for label, w in dist.weights.items()}


def model_to_doc(model: OnticModel, name=None, arrangements=None, protocols=None) -> dict:
    """Serialize a model (plus optional named arrangements and protocols)."""
    doc = {"schema": SCHEMA_VERSION}
    if name is not None:
        doc["name"] = name
    doc["ontic_states"] = [str(s) for s in model.space.states]
    doc["preparations"] = {
        pname: _weights_doc(dist) for pname, dist in model.preparations.items()
    }
    doc["transformations"] = {
        tname: {str(s): _weights_doc(row) for s, row in kernel.rows.items()}
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
                "rows": {str(q): _weights_doc(d) for q, d in meas.update.outcome_rows.items()},
            }
        else:
            rows: dict = {}
            for (s, q), dist in meas.update.rows.items():
                rows.setdefault(str(s), {})[str(q)] = _weights_doc(dist)
            update_doc = {"mode": "per_state", "rows": rows}
        measurements[mname] = {
            "outcomes": [str(q) for q in meas.outcomes],
            "response": {
                str(s): {str(q): p for q, p in row.items()}
                for s, row in meas.response.table.items()
            },
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
    return tuple(_typed(x, str, f"{path}[{i}]", "name") for i, x in enumerate(items))


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
    except (ValidationError, ModelError) as exc:
        raise SchemaError(str(exc), path=path) from None


def _distribution(space, weights_doc, path) -> Distribution:
    try:  # not _at: a model file holds one distribution per kernel and update row
        return Distribution(space, _numbers(weights_doc, path))
    except ValidationError as exc:
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

    preparations = {}
    for pname, weights in _require(doc, "preparations", dict, "preparations").items():
        preparations[pname] = _distribution(space, weights, f"preparations.{pname}")

    transformations = {}
    for tname, rows in _require(doc, "transformations", dict, "transformations").items():
        path = f"transformations.{tname}"
        kernel_rows = {
            s: _distribution(space, row, f"{path}.{s}")
            for s, row in _typed(rows, dict, path).items()
        }
        with _at(path):
            transformations[tname] = TransformationKernel(space, kernel_rows)

    measurements = {}
    for mname, mdoc in _require(doc, "measurements", dict, "measurements").items():
        path = f"measurements.{mname}"
        outcomes = _names(_require(mdoc, "outcomes", list, path), f"{path}.outcomes")
        response_doc = _require(mdoc, "response", dict, path)
        for s, row in response_doc.items():
            _numbers(row, f"{path}.response.{s}")
        with _at(f"{path}.response"):
            response = ResponseFunction(space, outcomes, response_doc)
        update_doc = _require(mdoc, "update", dict, path)
        mode = _require(update_doc, "mode", str, f"{path}.update")
        rows_doc = _require(update_doc, "rows", dict, f"{path}.update")
        with _at(f"{path}.update"):
            if mode == "per_outcome":
                update = MeasurementUpdate(
                    space,
                    outcomes,
                    outcome_rows={
                        q: _distribution(space, d, f"{path}.update.rows.{q}")
                        for q, d in rows_doc.items()
                    },
                )
            elif mode == "per_state":
                rows = {}
                for s, per_outcome in rows_doc.items():
                    for q, d in _typed(per_outcome, dict, f"{path}.update.rows.{s}").items():
                        rows[(s, q)] = _distribution(space, d, f"{path}.update.rows.{s}.{q}")
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


def dump_document(doc, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def load_document(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_model_file(path) -> tuple:
    """Load and validate a model file; returns (model, protocols, arrangements)."""
    return doc_to_model(load_document(path))
