"""Parts that tests build models, probes and record copies from, which no command or zoo
entry needs."""

from __future__ import annotations

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
