"""Finite ontic models: state spaces, distributions, responses, kernels.

Everything here is exact enumeration over a finite set of ontic states.
Probabilities are 64-bit floats; input tables are validated against a
normalization tolerance and then renormalized exactly, so downstream
identities hold to ~1e-15 rather than to the input tolerance.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from operator import itemgetter, mul
from typing import Hashable, Iterable, Mapping, Optional

from .errors import ModelError, ValidationError

#: Tolerance for accepting a hand-written probability table as normalized.
NORMALIZATION_TOL = 1e-9

#: Weights at or below this threshold are treated as outside the support.
SUPPORT_TOL = 1e-12

#: Totals within this of 1 are left untouched, so renormalization is a
#: fixed point and serialized models import back bit-identically.
_RENORM_SKIP = 1e-13

Label = Hashable
Outcome = Hashable

#: Outcome labels of a binary measurement whose values are +1 and -1.
PLUS = "+1"
MINUS = "-1"
OUTCOMES = (PLUS, MINUS)


@dataclass(frozen=True)
class OnticStateSpace:
    """An ordered finite set of opaque ontic-state labels.

    The ordering is fixed at construction and is what makes every
    downstream table, report and file deterministic.
    """

    states: tuple

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValidationError("state space must contain at least one state")
        members = frozenset(self.states)
        if len(members) != len(self.states):
            raise ValidationError("state labels must be unique")
        object.__setattr__(self, "_members", members)

    def __contains__(self, label) -> bool:
        return label in self._members

    def __len__(self) -> int:
        return len(self.states)


def _check_same_space(a: OnticStateSpace, b: OnticStateSpace, what: str):
    if a is not b and a != b:
        raise ModelError(f"mismatched state spaces in {what}")


class Distribution:
    """A probability distribution over ontic states.

    Weights are validated (nonnegative, summing to 1 within
    NORMALIZATION_TOL) and then renormalized exactly. Zero entries are
    dropped; the stored mapping is the support plus sub-threshold residue.
    Instances are treated as immutable.
    """

    __slots__ = ("space", "weights")

    def __init__(self, space: OnticStateSpace, weights: Mapping[Label, float]):
        for label, w in weights.items():
            if label not in space:
                raise ValidationError(f"unknown state label {label!r}")
            if not (w >= 0.0):
                raise ValidationError(
                    f"weight {w!r} for state {label!r} is not a nonnegative number"
                )
        total = math.fsum(weights.values())
        if not (abs(total - 1.0) <= NORMALIZATION_TOL):
            raise ValidationError(
                f"weights sum to {total!r}, expected 1 within {NORMALIZATION_TOL}"
            )
        self.space = space
        if abs(total - 1.0) <= _RENORM_SKIP:
            self.weights = {k: float(v) for k, v in weights.items() if v != 0.0}
        else:
            self.weights = {k: float(v / total) for k, v in weights.items() if v != 0.0}

    @classmethod
    def point_mass(cls, space: OnticStateSpace, label: Label) -> "Distribution":
        return cls(space, {label: 1.0})

    def weight(self, label: Label) -> float:
        return self.weights.get(label, 0.0)

    def support(self, tol: float = SUPPORT_TOL) -> frozenset:
        return frozenset(k for k, v in self.weights.items() if v > tol)

    def total_variation(self, other: "Distribution") -> float:
        keys = set(self.weights) | set(other.weights)
        return 0.5 * sum(abs(self.weight(k) - other.weight(k)) for k in keys)

    def __repr__(self):
        items = ", ".join(f"{k!r}: {v:.6g}" for k, v in self.weights.items())
        return f"Distribution({{{items}}})"


def mix(components: Iterable[tuple[float, Distribution]]) -> Distribution:
    """Convex mixture of distributions over a shared state space."""
    components = list(components)
    if not components:
        raise ModelError("cannot mix an empty set of distributions")
    space = components[0][1].space
    out: dict = {}
    for w, dist in components:
        _check_same_space(space, dist.space, "mix")
        if w < 0.0:
            raise ValidationError(f"negative mixture weight {w!r}")
        for label, p in dist.weights.items():
            out[label] = out.get(label, 0.0) + w * p
    return Distribution(space, out)


class ResponseFunction:
    """Outcome probabilities of a measuring device per ontic state.

    ``table`` maps state -> {outcome: probability}. Each present row must
    sum to 1; rows may be defined only for the states the device can
    actually be asked about (reachable-set models), and a missing row
    raises when queried.
    """

    __slots__ = ("space", "outcomes", "table")

    def __init__(self, space: OnticStateSpace, outcomes, table: Mapping):
        outcomes = tuple(outcomes)
        if len(outcomes) < 1 or len(set(outcomes)) != len(outcomes):
            raise ValidationError("outcomes must be a non-empty set of unique labels")
        normalized = {}
        for label, row in table.items():
            if label not in space:
                raise ValidationError(f"unknown state label {label!r} in response table")
            for q, p in row.items():
                if q not in outcomes:
                    raise ValidationError(f"unknown outcome {q!r} in row for {label!r}")
                if not (p >= 0.0):
                    raise ValidationError(
                        f"response probability {p!r} for {label!r} is not a nonnegative number"
                    )
            total = math.fsum(row.values())
            if not (abs(total - 1.0) <= NORMALIZATION_TOL):
                raise ValidationError(
                    f"response row for {label!r} sums to {total!r}, expected 1"
                )
            if abs(total - 1.0) <= _RENORM_SKIP:
                normalized[label] = {q: float(row.get(q, 0.0)) for q in outcomes}
            else:
                normalized[label] = {q: float(row.get(q, 0.0) / total) for q in outcomes}
        self.space = space
        self.outcomes = outcomes
        self.table = normalized

    def row(self, label: Label) -> Mapping:
        try:
            return self.table[label]
        except KeyError:
            raise ModelError(f"response undefined for state {label!r}") from None

    def determined_outcome(self, label: Label, tol: float = SUPPORT_TOL):
        """The single outcome taken with probability 1, or None if stochastic."""
        row = self.row(label)
        hits = [q for q, p in row.items() if p >= 1.0 - tol]
        if len(hits) == 1 and all(p <= tol for q, p in row.items() if q != hits[0]):
            return hits[0]
        return None


class TransformationKernel:
    """A stochastic map on ontic states: rows are distributions.

    Rows may be partial: a reachable-set model only defines the kernel
    where weight can actually sit when the transformation is applied.
    Applying the kernel to weight on a state without a row is an error.
    """

    __slots__ = ("space", "rows")

    def __init__(self, space: OnticStateSpace, rows: Mapping[Label, Distribution]):
        for label, dist in rows.items():
            if label not in space:
                raise ValidationError(f"unknown state label {label!r} in kernel")
            _check_same_space(space, dist.space, "transformation kernel row")
        self.space = space
        self.rows = dict(rows)

    @classmethod
    def identity(cls, space: OnticStateSpace) -> "TransformationKernel":
        return cls(space, {s: Distribution.point_mass(space, s) for s in space.states})

    def row(self, label: Label) -> Distribution:
        try:
            return self.rows[label]
        except KeyError:
            raise ModelError(f"kernel row undefined for state {label!r}") from None


class MeasurementUpdate:
    """Post-measurement state update: (state, outcome) -> distribution.

    ``outcome_rows`` optionally gives a row per outcome shared by every
    pre-measurement state (the update then forgets the incoming state);
    per-state ``rows`` take precedence. Rows are only consulted for
    outcomes that actually receive probability, so rows for
    zero-probability outcomes may be present or absent freely.
    """

    __slots__ = ("space", "outcomes", "rows", "outcome_rows")

    def __init__(self, space, outcomes, rows=None, outcome_rows=None):
        outcomes = tuple(outcomes)
        rows = dict(rows or {})
        outcome_rows = dict(outcome_rows or {})
        for (label, q), dist in rows.items():
            if label not in space:
                raise ValidationError(f"unknown state label {label!r} in update")
            if q not in outcomes:
                raise ValidationError(f"unknown outcome {q!r} in update row")
            _check_same_space(space, dist.space, "measurement update row")
        for q, dist in outcome_rows.items():
            if q not in outcomes:
                raise ValidationError(f"unknown outcome {q!r} in update row")
            _check_same_space(space, dist.space, "measurement update row")
        self.space = space
        self.outcomes = outcomes
        self.rows = rows
        self.outcome_rows = outcome_rows

    @classmethod
    def noninvasive(cls, space, outcomes, labels) -> "MeasurementUpdate":
        """The identity update: every outcome leaves every state untouched."""
        rows = {}
        for s in labels:
            point = Distribution.point_mass(space, s)
            for q in outcomes:
                rows[(s, q)] = point
        return cls(space, outcomes, rows)

    def row(self, label: Label, outcome: Outcome) -> Distribution:
        dist = self.rows.get((label, outcome))
        if dist is None:
            dist = self.outcome_rows.get(outcome)
        if dist is None:
            raise ModelError(
                f"measurement update undefined for state {label!r}, outcome {outcome!r}"
            )
        return dist


@dataclass(frozen=True)
class Measurement:
    """A response function bundled with its state-update kernel."""

    label: str
    response: ResponseFunction
    update: MeasurementUpdate

    def __post_init__(self):
        _check_same_space(self.response.space, self.update.space, f"measurement {self.label!r}")
        if self.response.outcomes != self.update.outcomes:
            raise ValidationError(
                f"measurement {self.label!r}: response and update outcome sets differ"
            )

    @property
    def outcomes(self):
        return self.response.outcomes

    @property
    def space(self):
        return self.response.space


@dataclass(frozen=True)
class OnticModel:
    """A finite ontic model: named preparations, transformations, measurements.

    All components live on one shared state space. ``metadata`` is a
    free-form record of modelling choices (grid sizes, surrogate update
    rules, ...) that travels with exports.
    """

    space: OnticStateSpace
    preparations: dict
    transformations: dict
    measurements: dict
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        names = list(self.preparations) + list(self.transformations) + list(self.measurements)
        if len(set(names)) != len(names):
            raise ValidationError("component names must be unique across the model")
        for name, dist in self.preparations.items():
            _check_same_space(self.space, dist.space, f"preparation {name!r}")
        for name, kernel in self.transformations.items():
            _check_same_space(self.space, kernel.space, f"transformation {name!r}")
        for name, meas in self.measurements.items():
            _check_same_space(self.space, meas.space, f"measurement {name!r}")
            if meas.label != name:
                raise ValidationError(f"measurement {name!r} carries label {meas.label!r}")

    def preparation(self, name) -> Distribution:
        if isinstance(name, Distribution):
            _check_same_space(self.space, name.space, "inline preparation")
            return name
        try:
            return self.preparations[name]
        except KeyError:
            raise ModelError(f"unknown preparation {name!r}") from None

    def transformation(self, name) -> TransformationKernel:
        try:
            return self.transformations[name]
        except KeyError:
            raise ModelError(f"unknown transformation {name!r}") from None

    def measurement(self, name) -> Measurement:
        try:
            return self.measurements[name]
        except KeyError:
            raise ModelError(f"unknown measurement {name!r}") from None


# ---------------------------------------------------------------------------
# operations
#
# push, outcome_mass and measure are the only code that moves weight
# between ontic states. They take raw {label: weight} dicts, keep the
# total mass as given and check nothing beyond the rows they look up;
# the Distribution-returning functions below wrap them with validation.
# Pullback.responses, Pullback.pull and Pullback.pull_measure are the
# duals of outcome_mass, push and measure: they carry effects (functions
# on ontic states, such as a response's xi(q | .)) backwards, so that
# <push(w, kernel), f> = <w, pull(f, kernel)>, and likewise for measure.
# An effect is a coefficient times a base array (lg sums such terms); a
# pull through an update that forgets the incoming state stays rank one.


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


def outcome_mass(weights: Mapping, measurement: Measurement, outcome: Outcome) -> float:
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


def dot(packed, effect) -> float:
    """<w, f> = sum_s w(s) * f(s) for weights packed by ``Pullback.pack``."""
    gather, values = packed
    return sum(map(mul, values, gather(effect)))


class Pullback:
    """Effects on one space's ontic states, and the duals of push and measure.

    An effect is a function on ontic states, such as a response's
    xi(q | .), held as a term ``(c, base)``: a coefficient times an array
    over the states' positions (``lg`` sums such terms). It is NaN outside
    its domain, the states from which the forward moves it stands for
    would look up a missing row, so a dot product that touches such a
    state is NaN; coefficients stay finite, so the NaN stays in the base.

    A pull through a kernel maps the base. A pull through an outcome that
    every state draws from one shared update row stays rank one, <row, f>
    times xi(q | .), so effects past an update that forgets the incoming
    state share a few bases; any other pull builds one base per effect.
    Layouts, and each base's pull through a kernel or dots with a
    measurement's rows, are computed once and kept while this lives.
    """

    def __init__(self, space: OnticStateSpace):
        self.position = {label: i for i, label in enumerate(space.states)}
        self._forms: dict = {}  # id(kernel or measurement) -> (it, its rows by position)
        self._per_base: dict = {}  # (id(component), id(base)) -> (base, what it gave)

    def pack(self, weights: Mapping) -> tuple:
        """Raw weights as (a reader of an effect at their states, weights), the form dot reads."""
        positions = list(map(self.position.__getitem__, weights))
        if len(positions) == 1:
            [i] = positions
            return (lambda effect: (effect[i],)), list(weights.values())
        return itemgetter(*positions), list(weights.values())

    def unit(self) -> list:
        """The effect 1 everywhere, of observing nothing."""
        return [(1.0, array("d", [1.0]) * len(self.position))]

    def responses(self, measurement: Measurement) -> list:
        """The effect xi(q | .) of each outcome q, the dual of outcome_mass."""
        return [(1.0, base) for base in self._form(measurement, self._lay_out_measurement)[0]]

    def pull(self, effects: list, kernel: TransformationKernel) -> list:
        """Effects pulled back through a kernel, the dual of push: s -> sum_{s'} tau(s' | s) f(s').

        A result is defined exactly where the kernel has a row lying
        inside the effect's domain: where push can move weight without
        reaching a state outside it.
        """
        to, weight, spread = self._form(kernel, self._lay_out_kernel)

        def pulled(base):
            out = array("d", map(mul, weight, map(base.__getitem__, to)))
            for i, packed in spread:
                out[i] = dot(packed, base)
            return out

        return [(c, self._once(kernel, base, pulled)) for c, base in effects]

    def pull_measure(self, effects: list, measurement: Measurement) -> list:
        """Effects pulled back through each outcome's selective update, the dual of measure.

        For each outcome q, in order, and each effect f the result has
        the effect s -> xi(q | s) * sum_{s'} tau(s' | q, s) f(s'). It is
        defined where the state has a response row and, for every
        outcome it can produce, an update row lying inside f's domain: a
        walk branches on every outcome. Update rows are grouped by
        identity, as in measure, so a row shared by many states
        (``outcome_rows``) costs one dot product per base, and an outcome
        drawn from one shared row gives <row, f> times xi(q | .), unless a
        row reaches outside f's domain, whose NaN stays with its users.
        """
        _, rows, number, xi, users, shared = self._form(measurement, self._lay_out_measurement)

        def at_rows(base):
            return [0.0] + [dot(packed, base) for packed in rows]

        values = []
        for c, base in effects:
            by_row = self._once(measurement, base, at_rows)
            values.append(by_row if c == 1.0 else [c * v for v in by_row])
        # The effects share their domain, so effects[0] tells which rows lie inside it.
        outside = [g for g, v in enumerate(values[0]) if math.isnan(v)]
        if outside:
            shared = {}
            xi = _blanked(xi, (i for g in outside for i in users[g]))
        return [
            (by_row[shared[q]], xi[q]) if q in shared
            else (1.0, array("d", map(mul, xi[q], map(by_row.__getitem__, number[q]))))
            for q in measurement.outcomes
            for by_row in values
        ]

    def _form(self, component, lay_out):
        entry = self._forms.get(id(component))
        if entry is None:
            entry = self._forms[id(component)] = (component, lay_out(component))
        return entry[1]

    def _once(self, component, base, compute):
        """compute(base) for one kernel or measurement, computed once per base."""
        key = (id(component), id(base))
        entry = self._per_base.get(key)
        if entry is None:
            entry = self._per_base[key] = (base, compute(base))
        return entry[1]

    def _lay_out_kernel(self, kernel: TransformationKernel) -> tuple:
        """A kernel's rows by position, as pull reads them.

        ``(to, weight, spread)``: the target and weight of each state's
        single-target row, NaN weight where a state has no row, and the
        rows with several targets as (position, packed row).
        """
        n = len(self.position)
        to = [0] * n
        weight = [math.nan] * n
        spread = []
        for label, row in kernel.rows.items():
            i = self.position[label]
            if len(row.weights) == 1:
                [(target, p)] = row.weights.items()
                to[i] = self.position[target]
                weight[i] = p
            else:
                spread.append((i, self.pack(row.weights)))
        return to, weight, spread

    def _lay_out_measurement(self, measurement: Measurement) -> tuple:
        """A measurement's response and update rows by position.

        ``(responses, rows, number, xi, users, shared)``: the response
        effects (NaN where a state has no response row); the distinct
        update rows, packed and numbered from 1 by identity; per outcome
        q and state, the number of the state's row for q (0 for none) and
        xi(q | state), NaN where the state lacks a response row or an
        update row for an outcome it can produce (else the response
        effect itself); per row number, the states that use it for an
        outcome they can produce; and the number of each outcome's row
        where every state producing it draws it from one row.
        """
        n = len(self.position)
        outcomes = measurement.outcomes
        responses = [array("d", [math.nan]) * n for _ in outcomes]
        numbering: dict = {}  # id(update row) -> its number
        rows, users = [], [[]]
        number = {q: [0] * n for q in outcomes}
        undefined = []
        for label, row in measurement.response.table.items():
            i = self.position[label]
            for effect, q in zip(responses, outcomes):
                effect[i] = row[q]
            found = []
            for q, p in row.items():
                if p == 0.0:
                    continue
                try:
                    target = measurement.update.row(label, q)
                except ModelError:
                    undefined.append(i)
                    break
                g = numbering.get(id(target))
                if g is None:
                    rows.append(self.pack(target.weights))
                    users.append([])
                    g = numbering[id(target)] = len(rows)
                found.append((q, g))
            else:
                for q, g in found:
                    number[q][i] = g
                    users[g].append(i)
        xi = dict(zip(outcomes, responses))
        if undefined:
            xi = _blanked(xi, undefined)
        drawn = {q: set(by_state) - {0} for q, by_state in number.items()}
        shared = {q: min(numbers) for q, numbers in drawn.items() if len(numbers) == 1}
        return responses, rows, number, xi, users, shared


def _blanked(xi: dict, states) -> dict:
    """Copies of the xi(q | .) arrays, NaN at the given state positions."""
    xi = {q: array("d", by_state) for q, by_state in xi.items()}
    for i in states:
        for by_state in xi.values():
            by_state[i] = math.nan
    return xi


def compose_preparation(preparation: Distribution, kernel: TransformationKernel) -> Distribution:
    """Push a preparation through a transformation kernel.

    Returns the distribution with weights sum_{s0} mu(s0) * tau(s | s0).
    """
    _check_same_space(preparation.space, kernel.space, "compose_preparation")
    return Distribution(preparation.space, push(preparation.weights, kernel))


def compose_kernels(first: TransformationKernel, second: TransformationKernel) -> TransformationKernel:
    """The kernel equivalent to applying ``first`` then ``second``."""
    _check_same_space(first.space, second.space, "compose_kernels")
    rows = {s: compose_preparation(dist, second) for s, dist in first.rows.items()}
    return TransformationKernel(first.space, rows)


def single_shot_probability(
    preparation: Distribution,
    kernel: Optional[TransformationKernel],
    measurement: Measurement,
    outcome: Outcome,
) -> float:
    """Probability of one outcome after preparation -> transformation -> measurement.

    ``kernel`` may be None for an immediate measurement.
    """
    if outcome not in measurement.outcomes:
        raise ModelError(f"unknown outcome {outcome!r} for measurement {measurement.label!r}")
    _check_same_space(preparation.space, measurement.space, "single_shot_probability")
    dist = preparation if kernel is None else compose_preparation(preparation, kernel)
    return outcome_mass(dist.weights, measurement, outcome)


def is_ontically_noninvasive(
    measurement: Measurement, for_outcome: Optional[Outcome] = None
) -> tuple[bool, float]:
    """Whether the update kernel is the identity on ontic states.

    With ``for_outcome`` given, only that outcome's rows are checked
    (partial noninvasiveness); otherwise all outcomes. Only rows for
    outcomes the response can actually produce are consulted. Returns
    (verdict, worst total-variation distance from the point mass).
    """
    if for_outcome is not None and for_outcome not in measurement.outcomes:
        raise ModelError(f"unknown outcome {for_outcome!r}")
    checked = (for_outcome,) if for_outcome is not None else measurement.outcomes
    worst = 0.0
    for label, row in measurement.response.table.items():
        for q in checked:
            if row[q] <= SUPPORT_TOL:
                continue
            dist = measurement.update.row(label, q)
            deviation = 1.0 - dist.weight(label)
            if deviation > worst:
                worst = deviation
    return worst <= SUPPORT_TOL, worst


def post_measurement_distribution(preparation: Distribution, measurement: Measurement) -> Distribution:
    """Ontic distribution after performing a measurement and discarding the outcome.

    This is the non-selective update sum_q xi(q|s0) tau(. | q, s0), the
    quantity compared against the untouched preparation in every
    operational-disturbance check.
    """
    _check_same_space(preparation.space, measurement.space, "post_measurement_distribution")
    return Distribution(
        preparation.space, measure(preparation.weights, measurement, measurement.outcomes)
    )
