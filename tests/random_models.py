"""Seeded random finite models for fuzzing the exact identities, and row mutations of models."""

from __future__ import annotations

import numpy as np

from lglab.core import (
    MINUS,
    OUTCOMES,
    PLUS,
    Distribution,
    Measurement,
    MeasurementUpdate,
    OnticModel,
    OnticStateSpace,
    ResponseFunction,
    TransformationKernel,
)
from lglab.lg import LgArrangement
from lglab.operational import ObservableAssignment

from builders import replace


def _random_distribution(rng, space) -> Distribution:
    raw = rng.random(len(space.states)) + 1e-3
    raw /= raw.sum()
    return Distribution(space, dict(zip(space.states, raw)))


def _random_kernel(rng, space) -> TransformationKernel:
    return TransformationKernel(
        space, {s: _random_distribution(rng, space) for s in space.states}
    )


def _random_measurement(rng, space, label, noninvasive=False) -> Measurement:
    table = {}
    for s in space.states:
        p = float(rng.random())
        table[s] = {PLUS: p, MINUS: 1.0 - p}
    response = ResponseFunction(space, OUTCOMES, table)
    if noninvasive:
        update = MeasurementUpdate.noninvasive(space, OUTCOMES, space.states)
    else:
        update = MeasurementUpdate(
            space,
            OUTCOMES,
            rows={
                (s, q): _random_distribution(rng, space)
                for s in space.states
                for q in OUTCOMES
            },
        )
    return Measurement(label, response, update)


def random_arrangement(rng: np.random.Generator, max_states: int = 8,
                       noninvasive_early: bool = False) -> LgArrangement:
    """A random binary three-measurement arrangement on at most max_states states.

    With ``noninvasive_early`` the first two measurements get identity
    updates (the third stays arbitrary), the regime in which every
    non-disturbance property must hold.
    """
    n = int(rng.integers(2, max_states + 1))
    space = OnticStateSpace(tuple(f"s{i}" for i in range(n)))
    model = OnticModel(
        space=space,
        preparations={"E": _random_distribution(rng, space)},
        transformations={"T1": _random_kernel(rng, space), "T2": _random_kernel(rng, space)},
        measurements={
            "M1": _random_measurement(rng, space, "M1", noninvasive=noninvasive_early),
            "M2": _random_measurement(rng, space, "M2", noninvasive=noninvasive_early),
            "M3": _random_measurement(rng, space, "M3"),
        },
    )
    return LgArrangement(
        model=model,
        preparation="E",
        transformations=("T1", "T2"),
        measurements=("M1", "M2", "M3"),
        assignment=ObservableAssignment(
            {m: {PLUS: 1, MINUS: -1} for m in ("M1", "M2", "M3")}
        ),
    )


def without_last_row(model, transformation):
    """The model with one kernel lacking its row for the last ontic state."""
    kernel = model.transformations[transformation]
    last = model.space.states[-1]
    partial = TransformationKernel(
        model.space, {s: row for s, row in kernel.rows.items() if s != last}
    )
    return replace(
        model, transformations={**model.transformations, transformation: partial}
    )


def with_update(model, measurement, outcome_rows, rows=None, response=None):
    """The model with a measurement's update replaced, and some of its response rows."""
    meas = model.measurements[measurement]
    table = {**meas.response.table, **(response or {})}
    update = MeasurementUpdate(model.space, meas.outcomes, rows, outcome_rows)
    return replace(model, measurements={
        **model.measurements,
        measurement: Measurement(measurement, ResponseFunction(model.space, meas.outcomes, table),
                                 update)})


def identity_with_shared_rows():
    """An identity arrangement whose T1 lacks its last row and whose M1 draws from shared rows."""
    arr = random_arrangement(np.random.default_rng(5001), max_states=3, noninvasive_early=True)
    space = arr.model.space
    model = with_update(without_last_row(arr.model, "T1"), "M1",
                        {PLUS: arr.model.preparations["E"],
                         MINUS: Distribution.point_mass(space, space.states[0])})
    return replace(arr, model=model)
