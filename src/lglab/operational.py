"""Sequential-measurement protocols and their exact joint statistics.

A protocol is a preparation followed by steps of (transformation,
measurement, perform). Skipping a measurement removes both its response
and its update from the evolution; the step's transformation still
applies. The engine enumerates outcome branches depth-first in declared
outcome order and propagates exact weighted distributions, so identical
inputs give bit-identical tables.

``walk`` is the one forward loop over steps. It takes each step as a
(transformation or None, measurement or None) pair of names, so a
skipped protocol step is a pair without its measurement. It moves every
branch with ``measure`` of one compiled form (see ``core``): a
transformation is a measurement whose one outcome, None, is certain. The
non-disturbance checks in ``lg`` walk forward only to the checked
measurement; they follow it and the suffix steps backwards, pulling
response functions back through the same forms, and take dot products
with the branches ``walk`` gives them. ``run_protocols`` is the one
protocol runner: it hands ``walk`` one operation at a time, so runs
that share a prefix walk it once, and ``run_protocol`` is its
one-protocol case.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .core import NORMALIZATION_TOL, OnticModel, _Record
from .errors import ModelError, ValidationError

#: Tolerance for declaring two sets of operational statistics equal.
EQUIVALENCE_TOL = 1e-9


class ProtocolStep(_Record):
    """One (transformation, measurement, perform) slot of a protocol.

    ``transformation`` may be None when nothing evolves the system before
    the measurement slot.
    """

    transformation: Optional[str]
    measurement: str
    perform: bool


class Protocol(_Record):
    """A preparation followed by an ordered list of protocol steps.

    ``preparation`` is the name of one of the model's declared preparations.
    """

    preparation: str
    steps: tuple

    def __init__(self, preparation, steps):
        steps = tuple(steps)
        if not any(s.perform for s in steps):
            raise ValidationError("protocol must perform at least one measurement")
        vars(self).update(preparation=preparation, steps=steps)

    def with_mask(self, mask: Sequence[bool]) -> "Protocol":
        """The same protocol with a fresh perform mask."""
        if len(mask) != len(self.steps):
            raise ModelError("perform mask length does not match step count")
        steps = tuple(
            ProtocolStep(s.transformation, s.measurement, bool(m))
            for s, m in zip(self.steps, mask)
        )
        return Protocol(self.preparation, steps)


class JointDistribution(_Record):
    """Dense probability table over the outcome tuples of performed measurements.

    ``axes`` is an ordered tuple of (measurement label, outcome tuple);
    ``table`` maps every outcome combination to its probability.
    """

    axes: tuple
    table: dict

    def __init__(self, axes, table):
        total = 0.0
        for combo, p in table.items():
            if not (p >= -1e-15):  # kept local: the rounding a computed joint probability shows
                raise ValidationError(
                    f"probability {p!r} for {combo!r} is not a nonnegative number"
                )
            total += p
        if not (abs(total - 1.0) <= NORMALIZATION_TOL):
            raise ValidationError(f"joint table sums to {total!r}, expected 1")
        vars(self).update(axes=axes, table=table)

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
    """Carry ``(branch, outcomes)`` pairs (see ``core``) through steps.

    A step is a (transformation or None, measurement or None) pair of
    names. Each step pushes every branch through its transformation; a
    step with a measurement then splits each branch by outcome with the
    selective update, appending the outcome and dropping branches that
    receive no weight.
    """
    for t_name, m_name in steps:
        if t_name is not None:
            kernel = model.transformation(t_name).form
            branches = [(kernel.measure(w, None), outs) for w, outs in branches]
        if m_name is not None:
            measurement = model.measurement(m_name)
            branches = [
                (grown, outs + (q,))
                for w, outs in branches
                for q in measurement.outcomes
                if (grown := measurement.form.measure(w, q))[0]
            ]
    return branches


def _dense(axes: tuple, table: dict) -> JointDistribution:
    """The joint over ``axes`` holding ``table``, with 0.0 for every outcome tuple it lacks."""
    full = {
        combo: table.get(combo, 0.0)
        for combo in itertools.product(*(outcomes for _, outcomes in axes))
    }
    return JointDistribution(axes, full)


def run_protocol(model: OnticModel, protocol: Protocol) -> JointDistribution:
    """Exact joint outcome distribution of a protocol run: ``run_protocols`` of it alone."""
    return run_protocols(model, [protocol])[0]


def run_protocols(model: OnticModel, protocols) -> list:
    """Exact joint outcome distribution of each protocol run, in order.

    The distribution over ontic states is propagated forward; every
    performed measurement branches on its outcomes with weight
    xi(q|state) and applies its update per (state, outcome). Steps after
    the last performed measurement cannot influence the table and are
    not evaluated, and that measurement is read without its update.

    A run's read steps are single operations: a push through a step's
    transformation, then a split by its measurement if performed. Runs
    that start with the same preparation and operations walk that shared
    prefix once: each run, in order, resumes from the longest prefix it
    shares with an earlier run, so every joint and the first error raised
    are those of running the protocols one by one. A prefix's branches
    are kept only until the last run resuming from it takes them.
    """
    # the trie of the runs' paths: a node is [children by operation, kept branches, the last
    # run resuming from it]; a run resumes from the deepest node an earlier run reached
    root = [{}, None, -1]
    runs = []
    for j, protocol in enumerate(protocols):
        steps = protocol.steps
        last = len(steps) - 1
        while not steps[last].perform:
            last -= 1
        path = [protocol.preparation]
        for s in steps[:last]:
            if s.transformation is not None:
                path.append((s.transformation, None))
            if s.perform:
                path.append((None, s.measurement))
        if steps[last].transformation is not None:
            path.append((steps[last].transformation, None))
        node, depth = root, 0
        for op in path:
            if op not in node[0]:
                break
            node, depth = node[0][op], depth + 1
        if depth > 1:  # past the preparation
            node[2] = j
        runs.append((protocol, steps[: last + 1], path, depth, node))
        for op in path[depth:]:
            node[0][op] = node = [{}, None, -1]
    joints = []
    for j, (protocol, steps, path, depth, node) in enumerate(runs):
        if depth > 1:  # an earlier run found the preparation and walked this prefix
            branches = node[1]
            if node[2] == j:
                node[1] = None
        else:
            depth, node = 1, root[0][path[0]]
            branches = [(model.preparation(protocol.preparation).branch, ())]
        final = model.measurement(steps[-1].measurement)
        for op in path[depth:]:
            branches = walk(model, branches, [op])
            node = node[0][op]
            if node[2] > j:
                node[1] = branches
        table = {
            outs + (q,): p
            for w, outs in branches
            for q, p in final.form.masses(w).items()
        }
        del branches
        axes = tuple(
            (s.measurement, model.measurement(s.measurement).outcomes) for s in steps if s.perform
        )
        joints.append(_dense(axes, table))
    return joints


def marginalize(joint: JointDistribution, keep) -> JointDistribution:
    """Sum out every axis not in ``keep`` (labels or indices, order-preserving)."""
    if not keep:
        raise ModelError("keep must name at least one axis")
    indices = sorted({joint.axis_index(k) for k in keep})
    out: dict = {}
    for combo, p in joint.table.items():
        key = tuple(combo[i] for i in indices)
        out[key] = out.get(key, 0.0) + p
    return _dense(tuple(joint.axes[i] for i in indices), out)


class ObservableAssignment(_Record):
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


def expectation(joint: JointDistribution, assignment: ObservableAssignment, axes) -> float:
    """Expected product of the assigned values on the given axes (labels or indices)."""
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


def measurements_equivalent(
    model: OnticModel, first: str, second: str, tol: float = EQUIVALENCE_TOL
) -> tuple[bool, float]:
    """Whether two measurements have the same response statistics on every declared probe.

    A probe is a declared preparation, alone or followed by one declared
    transformation. The two outcome sets must coincide. Updates are
    deliberately ignored: equivalence classes are about response
    statistics only. Each probe is pushed through its transformation
    once, and both measurements read that one branch.
    """
    meas_a = model.measurement(first)
    meas_b = model.measurement(second)
    if set(meas_a.outcomes) != set(meas_b.outcomes):
        raise ModelError(f"measurements {first!r} and {second!r} have different outcome sets")
    worst = 0.0
    for dist, kernel in itertools.product(model.preparations.values(),
                                          [None, *model.transformations.values()]):
        branch = dist.branch if kernel is None else kernel.form.measure(dist.branch, None)
        pa, pb = meas_a.form.masses(branch), meas_b.form.masses(branch)
        worst = max(worst, *(abs(pa[q] - pb[q]) for q in meas_a.outcomes))
    return worst <= tol, worst
