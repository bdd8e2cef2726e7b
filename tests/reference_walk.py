"""An independent forward walk over raw {label: weight} dicts, for checking the engine.

``run_protocol`` here reads the kernel, response and update rows of a model
directly, by label, with none of the positional forms the engine compiles.
The two-run non-disturbance references walk through it, so the engine's
backward checks are tested against code that shares no row reading with
them, and ``run_protocol`` itself is compared with it.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from lglab.core import Measurement, TransformationKernel
from lglab.errors import ModelError
from lglab.operational import JointDistribution, ProtocolStep


def push(weights: Mapping, kernel: TransformationKernel) -> dict:
    """Raw weights pushed through a kernel: sum_{s0} w(s0) * tau(. | s0)."""
    out: dict = {}
    rows = kernel.rows
    for label, w in weights.items():
        row = rows.get(label)
        if row is None:
            raise ModelError(f"kernel row undefined for state {label!r}")
        for target, p in row.weights.items():
            out[target] = out.get(target, 0.0) + w * p
    return out


def outcome_mass(weights: Mapping, measurement: Measurement, outcome) -> float:
    """Raw weight the measurement sends to one outcome: sum_s w(s) * xi(q | s)."""
    table = measurement.response.table
    total = 0.0
    for label, w in weights.items():
        row = table.get(label)
        if row is None:
            raise ModelError(f"response undefined for state {label!r}")
        total += w * row[outcome]
    return total


def measure(weights: Mapping, measurement: Measurement, outcomes) -> dict:
    """Raw weights after a measurement, summed over the given outcomes.

    Returns sum_{q in outcomes} sum_s w(s) * xi(q | s) * tau(. | q, s):
    ``(q,)`` is the selective update for outcome q (unnormalized, total
    mass the outcome's probability) and ``measurement.outcomes`` the
    non-selective one. Update rows are looked up only for nonzero flows,
    and flows are grouped by the identity of their update row before
    expansion, so updates that forget the incoming state (shared row
    objects) cost O(support) instead of O(support^2).
    """
    table = measurement.response.table
    update = measurement.update
    groups: dict = {}
    for label, w in weights.items():
        row = table.get(label)
        if row is None:
            raise ModelError(f"response undefined for state {label!r}")
        for q in outcomes:
            mass = w * row[q]
            if mass == 0.0:
                continue
            target = update.row(label, q)
            key = id(target)
            entry = groups.get(key)
            if entry is None:
                groups[key] = [target, mass]
            else:
                entry[1] += mass
    out: dict = {}
    for target, mass in groups.values():
        for label, p in target.weights.items():
            out[label] = out.get(label, 0.0) + mass * p
    return out


def walk(model, branches, steps) -> list:
    """Carry ``(weights, outcomes)`` branches through protocol steps."""
    for step in steps:
        if step.transformation is not None:
            kernel = model.transformation(step.transformation)
            branches = [(push(w, kernel), outs) for w, outs in branches]
        if step.perform:
            measurement = model.measurement(step.measurement)
            branches = [
                (grown, outs + (q,))
                for w, outs in branches
                for q in measurement.outcomes
                if (grown := measure(w, measurement, (q,)))
            ]
    return branches


def run_protocol(model, protocol) -> JointDistribution:
    """The exact joint outcome distribution of a protocol run, walked by label."""
    dist = model.preparation(protocol.preparation)
    last = max(i for i, s in enumerate(protocol.steps) if s.perform)
    steps = protocol.steps[: last + 1]
    final = model.measurement(steps[-1].measurement)
    read = steps[:-1] + (ProtocolStep(steps[-1].transformation, final.label, False),)
    table = {
        outs + (q,): outcome_mass(w, final, q)
        for w, outs in walk(model, [(dict(dist.weights), ())], read)
        for q in final.outcomes
    }
    axes = tuple(
        (s.measurement, model.measurement(s.measurement).outcomes) for s in steps if s.perform
    )
    full = {
        combo: table.get(combo, 0.0)
        for combo in itertools.product(*(outcomes for _, outcomes in axes))
    }
    return JointDistribution(axes, full)


def total_variation(weights: Mapping, other: Mapping, space) -> float:
    """Half the L1 distance of two raw weight dicts, over the union of their labels sorted
    in state order."""
    labels = sorted(weights.keys() | other.keys(), key=space.position.get)
    return 0.5 * sum(abs(weights.get(k, 0.0) - other.get(k, 0.0)) for k in labels)
