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
from functools import cached_property
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
    downstream table, report and file deterministic. ``position`` maps
    each label to its index in that order.
    """

    states: tuple

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValidationError("state space must contain at least one state")
        position = {label: i for i, label in enumerate(self.states)}
        if len(position) != len(self.states):
            raise ValidationError("state labels must be unique")
        object.__setattr__(self, "position", position)

    def __contains__(self, label) -> bool:
        return label in self.position

    def __len__(self) -> int:
        return len(self.states)

    def pack(self, weights: Mapping) -> tuple:
        """Weights keyed by label as a branch: their positions, ascending, and weights."""
        positions = list(map(self.position.__getitem__, weights))
        values = list(weights.values())
        if positions != sorted(positions):
            positions, values = map(list, zip(*sorted(zip(positions, values))))
        return positions, values

    def unpack(self, branch) -> dict:
        """A branch as weights keyed by label, in position order."""
        positions, weights = branch
        return dict(zip(map(self.states.__getitem__, positions), weights))


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

    def support(self) -> frozenset:
        return frozenset(k for k, v in self.weights.items() if v > SUPPORT_TOL)

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

    def determined_outcome(self, label: Label):
        """The single outcome taken with probability 1, or None if stochastic."""
        row = self.row(label)
        hits = [q for q, p in row.items() if p >= 1.0 - SUPPORT_TOL]
        if len(hits) == 1 and all(p <= SUPPORT_TOL for q, p in row.items() if q != hits[0]):
            return hits[0]
        return None


class TransformationKernel:
    """A stochastic map on ontic states: rows are distributions.

    Rows may be partial: a reachable-set model only defines the kernel
    where weight can actually sit when the transformation is applied.
    Applying the kernel to weight on a state without a row is an error.
    """

    __slots__ = ("space", "rows", "__dict__")  # __dict__ keeps the compiled form

    def __init__(self, space: OnticStateSpace, rows: Mapping[Label, Distribution]):
        for label, dist in rows.items():
            if label not in space:
                raise ValidationError(f"unknown state label {label!r} in kernel")
            _check_same_space(space, dist.space, "transformation kernel row")
        self.space = space
        self.rows = dict(rows)

    @cached_property
    def form(self) -> "KernelForm":
        """The rows by state position, compiled on first use and kept."""
        return KernelForm(self)

    @classmethod
    def identity(cls, space: OnticStateSpace) -> "TransformationKernel":
        return cls(space, {s: Distribution.point_mass(space, s) for s in space.states})


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

    @cached_property
    def form(self) -> "MeasurementForm":
        """The response and update rows by state position, compiled on first use and kept."""
        return MeasurementForm(self)


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
# A branch is weight on ontic states packed by position: (positions in
# ascending order, their weights), so every sum over a branch runs in
# one order. Each kernel and measurement is compiled once, on first use,
# into the positional form it keeps (KernelForm, MeasurementForm). The
# forms' push, measure and masses are the only code that moves weight
# between ontic states; they keep the total mass as given and check
# nothing beyond the rows they read. The forms' pulls read the same rows
# backwards, carrying effects (functions on ontic states, such as
# xi(q | .)) so that <push(w), f> = <w, pull(f)>, and likewise for measure.
#
# An effect is a term (c, base): a coefficient times an array over the
# states' positions (lg sums such terms). It is NaN outside its domain,
# the states from which the forward moves it stands for would look up a
# missing row; coefficients stay finite, so the NaN stays in the base. A
# pull through an outcome that every state draws from one shared update
# row stays rank one, <row, f> times xi(q | .), so effects past an update
# that forgets the incoming state share a few bases. A pull's memo, kept
# for one check, computes each base's pull through a form once.


def _gather(positions):
    """A reader of an effect's values at the given positions, in their order."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


def dots(branch, effects) -> list:
    """<w, f> = sum_s w(s) * f(s) for each effect f, over the branch's positions in order."""
    positions, weights = branch
    gather = _gather(positions)
    return [sum(map(mul, weights, gather(f))) for f in effects]


def _row(space: OnticStateSpace, weights: Mapping, gathers: dict) -> tuple:
    """A kernel or update row as a branch, with the reader the pulls dot it through;
    rows on the same positions share both, through ``gathers``."""
    positions, values = space.pack(weights)
    key = tuple(positions)
    if key not in gathers:
        gathers[key] = key, _gather(positions)
    positions, gather = gathers[key]
    return positions, tuple(values), gather


def _ascending(out: dict) -> tuple:
    """Weights keyed by position as a branch."""
    positions = sorted(out)
    return positions, list(map(out.__getitem__, positions))


def summed(branches) -> tuple:
    """The sum of branches, as one branch."""
    out: dict = {}
    for positions, weights in branches:
        for i, w in zip(positions, weights):
            out[i] = out.get(i, 0.0) + w
    return _ascending(out)


class KernelForm:
    """A kernel's rows by state position.

    ``to`` and ``weight`` hold the target and weight of each state's
    single-target row, with NaN weight where the state's row has several
    targets or there is none. ``spread`` maps the position of each row
    with several targets to that row (see ``_row``).
    """

    __slots__ = ("states", "to", "weight", "spread")

    def __init__(self, kernel: TransformationKernel):
        space = kernel.space
        n = len(space.states)
        self.states = space.states
        self.to = array("i", [0]) * n
        self.weight = array("d", [math.nan]) * n
        self.spread = {}
        gathers: dict = {}
        for label, row in kernel.rows.items():
            i = space.position[label]
            if len(row.weights) == 1:
                [(target, p)] = row.weights.items()
                self.to[i] = space.position[target]
                self.weight[i] = p
            else:
                self.spread[i] = _row(space, row.weights, gathers)

    def push(self, branch) -> tuple:
        """The branch pushed through the kernel: sum_{s0} w(s0) * tau(. | s0)."""
        out: dict = {}
        spread, to, weight = self.spread, self.to, self.weight
        for i, w in zip(*branch):
            row = spread.get(i)
            if row is not None:
                for t, p in zip(row[0], row[1]):
                    out[t] = out.get(t, 0.0) + w * p
            elif weight[i] == weight[i]:
                t = to[i]
                out[t] = out.get(t, 0.0) + w * weight[i]
            else:
                raise ModelError(f"kernel row undefined for state {self.states[i]!r}")
        return _ascending(out)

    def pull(self, effects: list, memo: dict) -> list:
        """Effects pulled back through the kernel, the dual of push: s -> sum_t tau(t | s) f(t).

        A result is defined exactly where the kernel has a row lying
        inside the effect's domain: where push can move weight without
        reaching a state outside it.
        """
        def pulled(base):
            out = array("d", map(mul, self.weight, map(base.__getitem__, self.to)))
            for i, (_, weights, gather) in self.spread.items():
                out[i] = sum(map(mul, weights, gather(base)))
            return out

        return [(c, _once(memo, self, base, pulled)) for c, base in effects]


class MeasurementForm:
    """A measurement's response and update rows by state position.

    ``responses[q]`` is xi(q | .) as an array, NaN where a state has no
    response row. The distinct update rows are numbered from 1 by
    identity, and ``rows`` holds each (see ``_row``; entry 0 is unused).
    ``number[q]`` gives each state's row number for q, 0 where q has
    probability 0 there or the row is missing; ``missing`` lists the
    (position, outcome) pairs of nonzero probability without an update
    row, in response-table order. A walk branches on every outcome, so a
    state in ``missing`` is outside the domain of every pull: ``xi`` is
    ``responses`` with NaN there too, and ``shared`` maps each outcome
    that all the other states producing it draw from one row to that
    row's number. ``in_place`` holds when no row is missing and each state
    draws every outcome from the point mass at itself: the update moves
    no state.
    """

    __slots__ = ("states", "responses", "rows", "number", "missing", "xi", "shared", "in_place")

    def __init__(self, measurement: "Measurement"):
        space = measurement.space
        n = len(space.states)
        self.states = space.states
        self.responses = {q: array("d", [math.nan]) * n for q in measurement.outcomes}
        self.number = {q: array("i", [0]) * n for q in measurement.outcomes}
        self.rows, self.missing = [None], []
        numbering, gathers = {}, {}  # id(update row) -> its number
        for label, row in measurement.response.table.items():
            i = space.position[label]
            for q, p in row.items():
                self.responses[q][i] = p
                if p == 0.0:
                    continue
                try:
                    target = measurement.update.row(label, q)
                except ModelError:
                    self.missing.append((i, q))
                    continue
                g = self.number[q][i] = numbering.setdefault(id(target), len(self.rows))
                if g == len(self.rows):
                    self.rows.append(_row(space, target.weights, gathers))
        undefined = {i for i, _ in self.missing}
        self.xi = _blanked(self.responses, undefined) if undefined else self.responses
        drawn = {q: {g for i, g in enumerate(by_state) if g and i not in undefined}
                 for q, by_state in self.number.items()}
        self.shared = {q: min(numbers) for q, numbers in drawn.items() if len(numbers) == 1}
        self.in_place = not self.missing and all(
            self.rows[g][:2] == ((i,), (1.0,))
            for by_state in self.number.values() for i, g in enumerate(by_state) if g
        )

    def masses(self, branch) -> dict:
        """Weight the measurement sends to each outcome q: sum_s w(s) * xi(q | s)."""
        totals = dots(branch, self.responses.values())
        if math.isnan(totals[0]):
            xi = next(iter(self.responses.values()))
            raise self._undefined(next(i for i in branch[0] if math.isnan(xi[i])))
        return dict(zip(self.responses, totals))

    def measure(self, branch, outcome: Outcome) -> tuple:
        """The branch after the selective update for one outcome q, unnormalized.

        Returns sum_s w(s) * xi(q | s) * tau(. | q, s), whose total mass is
        the outcome's probability. Update rows are read only for nonzero
        flows, and flows are summed per row before it is expanded, so a
        row shared by many states (``outcome_rows``) is expanded once. An
        update that leaves every state in place only scales the branch.
        """
        xi, number = self.responses[outcome], self.number[outcome]
        if self.in_place:
            scaled = [(i, mass) for i, w in zip(*branch) if (mass := w * xi[i]) != 0.0]
            if any(mass != mass for _, mass in scaled):
                raise self._undefined(next(i for i, mass in scaled if mass != mass))
            return [i for i, _ in scaled], [mass for _, mass in scaled]
        masses: dict = {}
        for i, w in zip(*branch):
            mass = w * xi[i]
            if mass == 0.0:
                continue
            g = number[i]
            if not g:
                raise self._undefined(i, None if mass != mass else outcome)
            masses[g] = masses.get(g, 0.0) + mass
        out: dict = {}
        for g, mass in masses.items():
            positions, weights, _ = self.rows[g]
            for t, p in zip(positions, weights):
                out[t] = out.get(t, 0.0) + mass * p
        return _ascending(out)

    def pull(self, effects: list, memo: dict) -> list:
        """Effects pulled back through each outcome's selective update, the dual of measure.

        For each outcome q, in order, and each effect f the result has
        the effect s -> xi(q | s) * sum_{s'} tau(s' | q, s) f(s'). It is
        defined where the state has a response row and, for every
        outcome it can produce, an update row lying inside f's domain: a
        walk branches on every outcome. Each numbered row is dotted with
        each base once; an outcome in ``shared`` gives <row, f> times
        xi(q | .), unless a row reaches outside f's domain.
        """
        def at_rows(base):
            return [0.0] + [sum(map(mul, weights, take(base))) for _, weights, take in self.rows[1:]]

        values = []
        for c, base in effects:
            by_row = _once(memo, self, base, at_rows)
            values.append(by_row if c == 1.0 else [c * v for v in by_row])
        # The effects share their domain, so effects[0] tells which rows lie inside it,
        # and the states drawing from a row outside it leave it too.
        outside = {g for g, v in enumerate(values[0]) if math.isnan(v)}
        users = outside and {i for q, by_state in self.number.items()
                             for i, g in enumerate(by_state)
                             if g in outside and not math.isnan(self.xi[q][i])}
        xi, shared = (_blanked(self.xi, users), {}) if users else (self.xi, self.shared)
        return [
            (by_row[shared[q]], xi[q]) if q in shared
            else (1.0, array("d", map(mul, xi[q], map(by_row.__getitem__, self.number[q]))))
            for q in self.responses
            for by_row in values
        ]

    def _undefined(self, i: int, outcome=None) -> ModelError:
        """The error of reaching a state without a response row, or without an outcome's update row."""
        if outcome is None:
            return ModelError(f"response undefined for state {self.states[i]!r}")
        return ModelError(
            f"measurement update undefined for state {self.states[i]!r}, outcome {outcome!r}"
        )


def _once(memo: dict, form, base, compute):
    """compute(base) for one form, computed once per base while the memo lives."""
    key = (id(form), id(base))
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (base, compute(base))
    return entry[1]


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
    space = preparation.space
    return Distribution(space, space.unpack(kernel.form.push(space.pack(preparation.weights))))


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
    return measurement.form.masses(dist.space.pack(dist.weights))[outcome]


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
    form = measurement.form
    for i, q in form.missing:
        if q in checked and form.responses[q][i] > SUPPORT_TOL:
            raise form._undefined(i, q)
    weight = {g: dict(zip(*row[:2])) for g, row in enumerate(form.rows) if g}
    worst = 0.0
    for q in checked:
        for i, (p, g) in enumerate(zip(form.responses[q], form.number[q])):
            if p > SUPPORT_TOL:
                worst = max(worst, 1.0 - weight[g].get(i, 0.0))
    return worst <= SUPPORT_TOL, worst


def post_measurement_distribution(preparation: Distribution, measurement: Measurement) -> Distribution:
    """Ontic distribution after performing a measurement and discarding the outcome.

    This is the non-selective update sum_q xi(q|s0) tau(. | q, s0), the
    quantity compared against the untouched preparation in every
    operational-disturbance check.
    """
    _check_same_space(preparation.space, measurement.space, "post_measurement_distribution")
    space = preparation.space
    branch = space.pack(preparation.weights)
    updated = summed(measurement.form.measure(branch, q) for q in measurement.outcomes)
    return Distribution(space, space.unpack(updated))
