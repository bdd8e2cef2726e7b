"""Parts that tests build models, probes and record copies from, which no command or zoo
entry needs."""

from __future__ import annotations

import copy

from lglab import zoo
from lglab.core import (OUTCOMES, Distribution, Measurement, MeasurementUpdate, OnticModel,
                        OnticStateSpace, TransformationKernel)


def identity(space: OnticStateSpace) -> TransformationKernel:
    """The kernel that leaves every state in place; its rows are the space's point masses."""
    return TransformationKernel(space, {s: Distribution.point_mass(space, s) for s in space.states})


def sphere_probe(model: OnticModel, direction) -> Measurement:
    """A deterministic reading ``probe`` along any direction, on a ks-sphere model's base grid.

    For single-shot probing only: its update is empty, so it is not meant
    to sit mid-protocol.
    """
    dots = zoo._dots(zoo._fibonacci_sphere(model.metadata["n_points"]), direction)
    response = zoo._reading(model.space, {f"r0:{k}": d >= 0.0 for k, d in enumerate(dots)})
    return Measurement("probe", response, MeasurementUpdate(model.space, OUTCOMES))


def replace(record, /, **changes):
    """A new record of ``record``'s class with ``changes`` to its fields, validated again."""
    return type(record)(**{**dict(zip(record._fields, record._values(record._fields))), **changes})


def expanded(doc: dict) -> dict:
    """A copy of a model document whose label rows are written out as dicts.

    A model file may write a certain row as its one label: a state for a
    preparation, kernel or update row, an outcome for a response row. Here
    each becomes the dict it stands for, ``{state: 1.0}`` or the response
    row over every outcome in order, as files without label rows write them.
    """
    def rows(table: dict) -> dict:
        return {key: {row: 1.0} if isinstance(row, str) else row for key, row in table.items()}

    doc = copy.deepcopy(doc)
    doc["preparations"] = rows(doc["preparations"])
    doc["transformations"] = {t: rows(kernel) for t, kernel in doc["transformations"].items()}
    for meas in doc["measurements"].values():
        meas["response"] = {
            state: {q: 1.0 if q == row else 0.0 for q in meas["outcomes"]}
            if isinstance(row, str) else row
            for state, row in meas["response"].items()}
        update = meas["update"]
        if update["mode"] == "per_outcome":
            update["rows"] = rows(update["rows"])
        else:
            update["rows"] = {state: rows(table) for state, table in update["rows"].items()}
    return doc
