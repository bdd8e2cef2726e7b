"""Sequential-measurement protocols and their exact joint statistics.

A protocol is a preparation followed by steps of (transformation,
measurement, perform). Skipping a measurement removes both its response
and its update from the evolution; the step's transformation still
applies. The engine enumerates outcome branches depth-first in declared
outcome order and propagates exact weighted distributions, so identical
inputs give bit-identical tables.

``walk`` is the one loop over protocol steps and ``outcome_table`` reads
the final step. A measurement performed with its outcome ignored is the
non-selective update ``core.measure(w, m, m.outcomes)`` of each branch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    OnticModel,
    measure,
    outcome_mass,
    push,
    single_shot_probability,
)
from .errors import ModelError, ValidationError

#: Tolerance for declaring two sets of operational statistics equal.
EQUIVALENCE_TOL = 1e-9


@dataclass(frozen=True)
class ProtocolStep:
    """One (transformation, measurement, perform) slot of a protocol.

    ``transformation`` may be None when nothing evolves the system before
    the measurement slot.
    """

    transformation: Optional[str]
    measurement: str
    perform: bool = True


@dataclass(frozen=True)
class Protocol:
    """A preparation followed by an ordered list of protocol steps.

    ``preparation`` is a declared name, or an inline Distribution for
    engine-internal use.
    """

    preparation: object
    steps: tuple

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        if not any(s.perform for s in steps):
            raise ValidationError("protocol must perform at least one measurement")

    def with_mask(self, mask: Sequence[bool]) -> "Protocol":
        """The same protocol with a fresh perform mask."""
        if len(mask) != len(self.steps):
            raise ModelError("perform mask length does not match step count")
        steps = tuple(
            ProtocolStep(s.transformation, s.measurement, bool(m))
            for s, m in zip(self.steps, mask)
        )
        return Protocol(self.preparation, steps)


@dataclass(frozen=True)
class JointDistribution:
    """Dense probability table over the outcome tuples of performed measurements.

    ``axes`` is an ordered tuple of (measurement label, outcome tuple);
    ``table`` maps every outcome combination to its probability.
    """

    axes: tuple
    table: dict

    def __post_init__(self):
        total = 0.0
        for combo, p in self.table.items():
            if not (p >= -1e-15):
                raise ValidationError(
                    f"probability {p!r} for {combo!r} is not a nonnegative number"
                )
            total += p
        if not (abs(total - 1.0) <= 1e-9):
            raise ValidationError(f"joint table sums to {total!r}, expected 1")

    def axis_index(self, which) -> int:
        if isinstance(which, int):
            if not 0 <= which < len(self.axes):
                raise ModelError(f"axis index {which} out of range")
            return which
        hits = [i for i, (label, _) in enumerate(self.axes) if label == which]
        if not hits:
            raise ModelError(f"no axis labelled {which!r}")
        if len(hits) > 1:
            raise ModelError(f"axis label {which!r} is ambiguous; use an index")
        return hits[0]


def walk(model: OnticModel, branches, steps) -> list:
    """Carry ``(weights, outcomes)`` branches through protocol steps.

    Each step pushes every branch through its transformation; a performed
    step then splits each branch by outcome with the selective update,
    appending the outcome and dropping branches that receive no weight.
    A skipped step applies only its transformation.
    """
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


def outcome_table(model: OnticModel, branches, step: ProtocolStep) -> dict:
    """Outcome masses of a final performed step, keyed by branch outcomes + (q,).

    The step's measurement is read but its update is not applied: nothing
    after the final step can observe it.
    """
    branches = walk(model, branches, [ProtocolStep(step.transformation, step.measurement, False)])
    measurement = model.measurement(step.measurement)
    return {
        outs + (q,): outcome_mass(w, measurement, q)
        for w, outs in branches
        for q in measurement.outcomes
    }


def run_protocol(model: OnticModel, protocol: Protocol) -> JointDistribution:
    """Exact joint outcome distribution of a protocol run.

    The distribution over ontic states is propagated forward; every
    performed measurement branches on its outcomes with weight
    xi(q|state) and applies its update per (state, outcome). Steps after
    the last performed measurement cannot influence the table and are
    not evaluated.
    """
    dist = model.preparation(protocol.preparation)
    last = max(i for i, s in enumerate(protocol.steps) if s.perform)
    steps = protocol.steps[: last + 1]
    table = outcome_table(model, walk(model, [(dict(dist.weights), ())], steps[:-1]), steps[-1])
    axes = tuple(
        (s.measurement, model.measurement(s.measurement).outcomes) for s in steps if s.perform
    )
    full = {
        combo: table.get(combo, 0.0)
        for combo in itertools.product(*(outcomes for _, outcomes in axes))
    }
    return JointDistribution(axes, full)


def marginalize(joint: JointDistribution, keep) -> JointDistribution:
    """Sum out every axis not in ``keep`` (labels or indices, order-preserving)."""
    if not keep:
        raise ModelError("keep must name at least one axis")
    indices = sorted({joint.axis_index(k) for k in keep})
    axes = tuple(joint.axes[i] for i in indices)
    out: dict = {}
    for combo, p in joint.table.items():
        key = tuple(combo[i] for i in indices)
        out[key] = out.get(key, 0.0) + p
    full = {
        combo: out.get(combo, 0.0)
        for combo in itertools.product(*(outcomes for _, outcomes in axes))
    }
    return JointDistribution(axes, full)


@dataclass(frozen=True)
class ObservableAssignment:
    """Real values assigned to measurement outcomes, per measurement label."""

    values: dict

    def value(self, measurement_label, outcome) -> float:
        try:
            per_outcome = self.values[measurement_label]
        except KeyError:
            raise ModelError(f"no value assignment for measurement {measurement_label!r}") from None
        try:
            v = per_outcome[outcome]
        except KeyError:
            raise ModelError(
                f"no value assigned to outcome {outcome!r} of {measurement_label!r}"
            ) from None
        if v != v or v in (float("inf"), float("-inf")):
            raise ValidationError(f"non-finite value assigned to {outcome!r}")
        return v


def expectation(joint: JointDistribution, assignment: ObservableAssignment, axes=None) -> float:
    """Expected product of the assigned values on the chosen axes."""
    if axes is None:
        indices = list(range(len(joint.axes)))
    else:
        indices = [joint.axis_index(a) for a in axes]
    lookups = [
        {q: assignment.value(joint.axes[i][0], q) for q in joint.axes[i][1]} for i in indices
    ]
    total = 0.0
    for combo, p in joint.table.items():
        if p == 0.0:
            continue
        prod = p
        for lookup, i in zip(lookups, indices):
            prod *= lookup[combo[i]]
        total += prod
    return total


def preparations_equivalent(
    model: OnticModel, first, second, probes, tol: float = EQUIVALENCE_TOL
) -> tuple[bool, float]:
    """Whether two preparations agree on every declared probe.

    ``probes`` is a finite list of (transformation-or-None, measurement)
    name pairs; equivalence is certified only relative to it. Returns
    (verdict, max absolute probability deviation).
    """
    dist_a = model.preparation(first)
    dist_b = model.preparation(second)
    worst = 0.0
    for t_name, m_name in probes:
        kernel = None if t_name is None else model.transformation(t_name)
        measurement = model.measurement(m_name)
        for q in measurement.outcomes:
            pa = single_shot_probability(dist_a, kernel, measurement, q)
            pb = single_shot_probability(dist_b, kernel, measurement, q)
            worst = max(worst, abs(pa - pb))
    return worst <= tol, worst


def measurements_equivalent(
    model: OnticModel,
    first: str,
    second: str,
    probes=None,
    correspondence=None,
    tol: float = EQUIVALENCE_TOL,
) -> tuple[bool, float]:
    """Whether two measurements have the same response statistics on every probe.

    ``probes`` is a list of (preparation, transformation-or-None) name
    pairs, by default every declared pair. ``correspondence`` maps
    outcomes of the first measurement to outcomes of the second; by
    default the outcome sets must coincide. Updates are deliberately
    ignored: equivalence classes are about response statistics only.
    """
    meas_a = model.measurement(first)
    meas_b = model.measurement(second)
    if correspondence is None:
        if set(meas_a.outcomes) != set(meas_b.outcomes):
            raise ModelError(
                f"measurements {first!r} and {second!r} have different outcome sets "
                "and no correspondence was declared"
            )
        correspondence = {q: q for q in meas_a.outcomes}
    else:
        if set(correspondence) != set(meas_a.outcomes) or set(
            correspondence.values()
        ) != set(meas_b.outcomes):
            raise ModelError("outcome correspondence is not a bijection between outcome sets")
    if probes is None:
        probes = [(e, t) for e in model.preparations for t in [None, *model.transformations]]
    worst = 0.0
    for e_name, t_name in probes:
        dist = model.preparation(e_name)
        kernel = None if t_name is None else model.transformation(t_name)
        for qa, qb in correspondence.items():
            pa = single_shot_probability(dist, kernel, meas_a, qa)
            pb = single_shot_probability(dist, kernel, meas_b, qb)
            worst = max(worst, abs(pa - pb))
    return worst <= tol, worst


def is_operational_eigenstate(
    model: OnticModel, preparation, measurements, outcome, tol: float = EQUIVALENCE_TOL
) -> bool:
    """Whether every measurement in the class returns ``outcome`` with probability 1.

    The caller is responsible for the class members being pairwise
    equivalent; this only checks the probability-1 condition after the
    given preparation.
    """
    dist = model.preparation(preparation)
    for m_name in measurements:
        measurement = model.measurement(m_name) if isinstance(m_name, str) else m_name
        if single_shot_probability(dist, None, measurement, outcome) < 1.0 - tol:
            return False
    return True
