"""Finite ontic models: state spaces, distributions, responses, kernels.

Everything here is exact enumeration over a finite set of ontic states.
Probabilities are 64-bit floats; input tables are validated against a
normalization tolerance and then renormalized exactly, so downstream
identities hold to ~1e-15 rather than to the input tolerance.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from functools import cached_property
from itertools import compress
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

#: The most items (suffix effects, images, sweep rows, ontic states) one
#: size option may ask for: past it the input is refused before any is built.
SIZE_LIMIT = 10**6


def check_size(option: str, items: str, first: int, ratio: int = 0, terms: int = 1) -> None:
    """Raise ValidationError when ``option`` asks for more than SIZE_LIMIT ``items``.

    They number first * (1 + ratio + ... + ratio**(terms - 1)). The terms
    are added only while they are nonzero and the sum is within the limit,
    so a count too large to hold is refused as fast as any other.
    """
    total = 0
    for k in range(terms):
        term = first * ratio**k
        if not term:
            return
        total += term
        if total > SIZE_LIMIT:
            more = "more than " if k + 1 < terms and ratio else ""
            raise ValidationError(f"{option} asks for {more}{total} {items}; "
                                  f"the limit is {SIZE_LIMIT}")


#: Outcome labels of a binary measurement whose values are +1 and -1.
PLUS = "+1"
MINUS = "-1"
OUTCOMES = (PLUS, MINUS)


class FrozenRecordError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a record."""


class _Record:
    """An immutable record of named fields: the base of the model and result types.

    A subclass annotates its fields in order. The base's ``__init__``
    binds them, by position in that order or by name, and refuses a
    missing, unknown, repeated or surplus field. A subclass that checks,
    converts or defaults a field defines its own ``__init__``, taking the
    fields in the same order, and sets them, with any attribute derived
    from them, in one ``vars(self).update`` call. The base reads the
    annotations once per class. It gives every record equality and a
    hash over its fields, except those the class keyword ``uncompared``
    names; a ``Name(field=value, ...)`` repr; and refusal of assignment and
    deletion.
    """

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._compared = tuple(name for name in cls._fields if name not in uncompared)

    def __init__(self, *values, **named):
        fields = self._fields
        if not named and len(values) == len(fields):  # every field by position
            vars(self).update(zip(fields, values))
            return
        if len(values) > len(fields) or named.keys() != set(fields[len(values):]):
            raise TypeError(f"{type(self).__qualname__}() takes the fields ({', '.join(fields)}), "
                            f"by position or name; got {len(values)} by position and "
                            f"({', '.join(named)}) by name")
        vars(self).update(zip(fields, values), **named)

    def _values(self, names) -> tuple:
        return tuple(map(vars(self).__getitem__, names))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._compared) == other._values(self._compared)

    def __hash__(self):
        return hash(self._values(self._compared))

    def __repr__(self):
        fields = zip(self._fields, self._values(self._fields))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")


class OnticStateSpace(_Record):
    """An ordered finite set of opaque ontic-state labels.

    The ordering is fixed at construction and is what makes every
    downstream table, report and file deterministic. ``position`` maps
    each label to its index in that order; ``points`` holds the point
    mass of each label that ``Distribution.point_mass`` has been asked for.
    """

    states: tuple

    def __init__(self, states):
        if len(states) < 1:
            raise ValidationError("state space must contain at least one state")
        position = {label: i for i, label in enumerate(states)}
        if len(position) != len(states):
            raise ValidationError("state labels must be unique")
        vars(self).update(states=states, position=position, points={})

    def __contains__(self, label) -> bool:
        return label in self.position

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def line(self) -> array:
        """Every position in order, made on first use and kept; the runs of a form read it."""
        return array("i", range(len(self.states)))

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
    ``branch`` is the same weights packed by position (see the operations
    below), made on first use and kept. Mutating an instance, its
    ``weights`` included, is unsupported: point masses are shared (see
    ``point_mass``) and compiled forms keep what they read, the branch's
    tuples among it.
    """

    __slots__ = ("space", "weights", "_branch")  # no __dict__: point masses stay small

    def __init__(self, space: OnticStateSpace, weights: Mapping[Label, float]):
        for label, w in weights.items():
            if label not in space:
                raise ValidationError(f"unknown state label {label!r}")
            if not (w >= 0.0):
                raise ValidationError(
                    f"weight {w!r} for state {label!r} is not a nonnegative number"
                )
        divisor = _divisor(math.fsum(weights.values()), lambda total:
                           f"weights sum to {total!r}, expected 1 within {NORMALIZATION_TOL}")
        self.space = space
        self.weights = {k: float(v) / divisor for k, v in weights.items() if v != 0.0}

    @classmethod
    def point_mass(cls, space: OnticStateSpace, label: Label) -> "Distribution":
        """All weight on one state: the validated row {label: 1.0}, built directly.

        The space keeps one point mass per label, made on first request, so
        every caller shares it; mutating it is unsupported. An unknown label
        is refused and leaves nothing kept.
        """
        dist = space.points.get(label)
        if dist is None:
            if label not in space.position:
                raise ValidationError(f"unknown state label {label!r}")
            dist = space.points[label] = cls.__new__(cls)
            dist.space, dist.weights = space, {label: 1.0}
        return dist

    @property
    def branch(self) -> tuple:
        """The weights as a branch of two tuples, positions and weights, packed once."""
        try:
            return self._branch
        except AttributeError:
            self._branch = tuple(map(tuple, self.space.pack(self.weights)))
            return self._branch

    def support(self) -> frozenset:
        return frozenset(k for k, v in self.weights.items() if v > SUPPORT_TOL)

    def total_variation(self, other: "Distribution") -> float:
        """Half the L1 distance (see ``distance``)."""
        _check_same_space(self.space, other.space, "total_variation")
        return distance(self.branch, other.branch)

    def __repr__(self):
        items = ", ".join(f"{k!r}: {v:.6g}" for k, v in self.weights.items())
        return f"Distribution({{{items}}})"


class ResponseFunction:
    """Outcome probabilities of a measuring device per ontic state.

    ``table`` maps state -> {outcome: probability}. Each present row must
    sum to 1; rows may be defined only for the states the device can
    actually be asked about (reachable-set models), and a missing row
    raises when queried. Each distinct row object is validated and
    normalized once, and the states that draw it share the normalized row.
    """

    __slots__ = ("space", "outcomes", "table")

    def __init__(self, space: OnticStateSpace, outcomes, table: Mapping):
        outcomes = tuple(outcomes)
        if len(outcomes) < 1 or len(set(outcomes)) != len(outcomes):
            raise ValidationError("outcomes must be a non-empty set of unique labels")
        normalized = {}
        memo = {}  # id(row) -> (row, normalized): held, so that no other row takes the id
        known = space.position.keys() >= table.keys()  # else the loop names the first unknown
        for label, row in table.items():
            if not known and label not in space:
                raise ValidationError(f"unknown state label {label!r} in response table")
            entry = memo.get(id(row))
            if entry is None:
                entry = memo[id(row)] = (row, _normalized(label, row, outcomes))
            normalized[label] = entry[1]
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


def _normalized(label: Label, row: Mapping, outcomes: tuple) -> dict:
    """State ``label``'s response row checked and renormalized, read through one items() call."""
    items = row.items()
    for q, p in items:
        if q not in outcomes:
            raise ValidationError(f"unknown outcome {q!r} in row for {label!r}")
        if not (p >= 0.0):
            raise ValidationError(
                f"response probability {p!r} for {label!r} is not a nonnegative number"
            )
    divisor = _divisor(math.fsum(p for _, p in items), lambda total:
                       f"response row for {label!r} sums to {total!r}, expected 1")
    return {q: float(row.get(q, 0.0)) / divisor for q in outcomes}


def _divisor(total: float, message) -> float:
    """What a table whose entries sum to ``total`` is divided by to renormalize it: 1.0
    within _RENORM_SKIP of 1, so that renormalizing is a fixed point, else ``total``.
    A total further than NORMALIZATION_TOL from 1, or NaN, raises ValidationError with
    ``message(total)``."""
    if not (abs(total - 1.0) <= NORMALIZATION_TOL):
        raise ValidationError(message(total))
    return 1.0 if abs(total - 1.0) <= _RENORM_SKIP else total


class TransformationKernel:
    """A stochastic map on ontic states: rows are distributions.

    Rows may be partial: a reachable-set model only defines the kernel
    where weight can actually sit when the transformation is applied.
    Applying the kernel to weight on a state without a row is an error.
    """

    __slots__ = ("space", "rows", "__dict__")  # __dict__ keeps the compiled form

    def __init__(self, space: OnticStateSpace, rows: Mapping[Label, Distribution]):
        if not (space.position.keys() >= rows.keys()
                and all(dist.space is space for dist in rows.values())):
            for label, dist in rows.items():  # name the first offender
                if label not in space:
                    raise ValidationError(f"unknown state label {label!r} in kernel")
                _check_same_space(space, dist.space, "transformation kernel row")
        self.space = space
        self.rows = dict(rows)

    @cached_property
    def form(self) -> "Form":
        """The rows by state position, compiled on first use and kept, as a measurement
        with one certain outcome (see ``Form``)."""
        return Form(self.space, (None,), ((s, _CERTAIN) for s in self.rows),
                    lambda label, _: self.rows[label])


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
        rows = {(s, q): Distribution.point_mass(space, s) for s in labels for q in outcomes}
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


class Measurement(_Record):
    """A response function bundled with its state-update kernel."""

    label: str
    response: ResponseFunction
    update: MeasurementUpdate

    def __init__(self, label, response, update):
        _check_same_space(response.space, update.space, f"measurement {label!r}")
        if response.outcomes != update.outcomes:
            raise ValidationError(f"measurement {label!r}: response and update outcome sets differ")
        vars(self).update(label=label, response=response, update=update)

    @property
    def outcomes(self):
        return self.response.outcomes

    @property
    def space(self):
        return self.response.space

    @cached_property
    def form(self) -> "Form":
        """The response and update rows by state position, compiled on first use and kept."""
        return Form(self.space, self.outcomes, self.response.table.items(), self.update.row)


class OnticModel(_Record):
    """A finite ontic model: named preparations, transformations, measurements.

    All components live on one shared state space. ``metadata`` is a
    free-form record of modelling choices (grid sizes, surrogate update
    rules, ...) that travels with exports; it defaults to a new empty dict.
    """

    space: OnticStateSpace
    preparations: dict
    transformations: dict
    measurements: dict
    metadata: dict

    def __init__(self, space, preparations, transformations, measurements, metadata=None):
        declared: dict = {}  # component name -> the section declaring it first
        sections = {"preparations": preparations, "transformations": transformations,
                    "measurements": measurements}
        for section, components in sections.items():
            for name in components:
                if (first := declared.setdefault(name, section)) != section:
                    raise ValidationError(f"component name {name!r} is declared twice: "
                                          f"{first}.{name} and {section}.{name}")
        for name, dist in preparations.items():
            _check_same_space(space, dist.space, f"preparation {name!r}")
        for name, kernel in transformations.items():
            _check_same_space(space, kernel.space, f"transformation {name!r}")
        for name, meas in measurements.items():
            _check_same_space(space, meas.space, f"measurement {name!r}")
            if meas.label != name:
                raise ValidationError(f"measurement {name!r} carries label {meas.label!r}")
        vars(self).update(space=space, preparations=preparations, transformations=transformations,
                          measurements=measurements, metadata={} if metadata is None else metadata)

    def preparation(self, name) -> Distribution:
        return _declared(self.preparations, "preparation", name)

    def transformation(self, name) -> TransformationKernel:
        return _declared(self.transformations, "transformation", name)

    def measurement(self, name) -> Measurement:
        return _declared(self.measurements, "measurement", name)


def _declared(components: dict, kind: str, name):
    """The component declared under ``name``; an undeclared name is a ModelError."""
    try:
        return components[name]
    except KeyError:
        raise ModelError(f"unknown {kind} {name!r}") from None


# ---------------------------------------------------------------------------
# operations
#
# A branch is weight on ontic states packed by position: (positions in
# ascending order, their weights), so every sum over a branch runs in
# one order. A distribution keeps its branch (Distribution.branch), and a
# form's numbered rows share it. Each kernel and measurement is compiled
# once, on first use, into the positional form it keeps (Form); a kernel
# compiles as a measurement with one certain outcome. A form's measure
# and masses are the only code that moves weight between ontic states;
# they keep the total mass as given and check nothing beyond the rows
# they read. Its pull reads the same rows backwards, carrying effects
# (functions on ontic states, such as xi(q | .)) so that
# <measure(w, q), f> = <w, pull(f)[q]>. An outcome whose rows are point masses in state order
# is compiled into runs (Form.runs), stretches of states that each draw
# the point mass a fixed shift on: pull copies one slice of the base per
# run, reading no state alone, and measure reads each flow's target by
# position. A kernel's outcome is certain (Form.certain), so neither
# multiplies by its 1.0. A flow that meets no row falls through to the
# general loop, which names the missing row. Through an outcome whose
# states with a row all draw one row (Form.shared), measure moves the
# branch in one dot product and names a missing row as the loop would.
#
# An effect is a term (c, base): a coefficient times an array over the
# states' positions (lg sums such terms). It is NaN outside its domain,
# the states from which the forward moves it stands for would look up a
# missing row; coefficients stay finite, so the NaN stays in the base. A
# pull through an outcome that every state draws from one row stays rank
# one, <row, f> times xi(q | .): effects past an update that forgets the
# incoming state, or past a reset kernel, share a few bases. A pull's
# memo, kept for one check, computes each base's pull through a form
# once, and every pull keeps its effect's coefficient.


def _gather(positions):
    """A reader of an effect's values at the given positions, in their order."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return itemgetter(slice(positions[0], positions[0] + 1) if positions else slice(0))


def dots(branch, effects, memo=None) -> list:
    """<w, f> = sum_s w(s) * f(s) for each effect f, over the branch's positions in order.

    ``memo``, kept by the caller for one list of effects, holds their
    values at each distinct support read, so that branches sharing their
    positions read the effects once; at a support of every state they
    are the effects themselves.
    """
    positions, weights = branch
    if memo is None:
        values = map(_gather(positions), effects)
    else:
        key = tuple(positions)
        values = memo.get(key)
        if values is None:
            whole = effects and len(positions) == len(effects[0])
            values = memo[key] = effects if whole else list(map(_gather(positions), effects))
    return [sum(map(mul, weights, at)) for at in values]


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


def distance(a, b) -> float:
    """Half the L1 distance of two branches, summed in state order so that every process
    adds alike."""
    positions, weights = b
    return 0.5 * sum(map(abs, summed([a, (positions, [-w for w in weights])])[1]))


class Form:
    """A measurement's rows by state position; a kernel compiles as one.

    A kernel is a measurement whose one outcome, None, is certain where
    it declares a row: xi(None | .) is 1 there and NaN elsewhere, and the
    row is the update. So kernels share every method of measurements, and
    a reset kernel, whose states all draw one row, pulls rank one.

    ``responses[q]`` is xi(q | .) as an array, NaN where a state has no
    response row. ``to[q]`` tells where each state's update row for q
    sends its weight, as an index into a base extended past its end (see
    ``pull``): below ``end``, the number of states, the position of a
    point mass of weight 1; ``end`` where q has probability 0 or the row
    is missing; above ``end``, a row numbered by identity, which ``rows``
    maps to that row's branch and the reader the pulls dot it through.
    ``missing`` lists the (position, outcome) pairs of nonzero probability
    without an update row, in response-table order. ``flows`` is
    ``responses`` with NaN at those pairs, so ``flows[q]`` is NaN wherever
    a state lacks its response row or its own update row for q. A walk
    branches on every outcome, so a state in ``missing`` is outside the
    domain of every pull: ``xi`` is ``responses`` with NaN there for every
    outcome. ``shared`` maps an
    outcome to the one ``to`` value that every state with a row for it
    draws, where there is one: a point mass counts as one row by its
    state, whichever objects carry it, so how a model was built does not
    decide which sums run. ``runs`` maps each outcome whose drawn rows
    are all point masses at positions that strictly increase with the
    drawing state's position, as a rotation's or an identity update's
    are, to its runs: (start, stop, shift) for each maximal stretch of
    states start <= i < stop that draw the point masses at i + shift, in
    state order. Between runs no state draws a row. ``pull`` moves an
    effect through such an outcome by one slice per run, and ``measure``
    moves a branch by reading its ``to`` values at the branch's positions,
    already in ascending order. ``certain`` holds for a kernel: its one
    outcome has probability 1.0 wherever a row is declared, and no row is
    missing, so neither multiplies by it.
    ``complete`` holds when every state has a response row and none is
    ``missing``: no walk misses a row here. ``in_place`` holds when no
    row is missing and every outcome has runs, all of shift 0: the update
    moves no state. ``nonselective`` holds each state's update with its
    outcome ignored, made from ``to``, ``rows`` and ``xi`` on first use.
    """

    __slots__ = ("states", "outcomes", "responses", "to", "rows", "missing", "flows", "xi",
                 "shared", "runs", "certain", "complete", "in_place",
                 "__dict__")  # __dict__ keeps the non-selective rows

    def __init__(self, space: OnticStateSpace, outcomes: tuple, table: Iterable, row):
        """Compile (label, {outcome: probability}) response rows and ``row(label, outcome)``,
        the update row, which raises ModelError where it is missing."""
        end = len(space.states)
        self.states, self.outcomes = space.states, outcomes
        self.responses = {q: array("d", [math.nan]) * end for q in outcomes}
        self.to = {q: array("i", [end]) * end for q in outcomes}
        self.rows, self.missing = {}, []
        numbering, declared = {}, 0  # id(update row) -> its to value; response rows so far
        for declared, (label, probabilities) in enumerate(table, 1):
            i = space.position[label]
            for q, p in probabilities.items():
                self.responses[q][i] = p
                if p == 0.0:
                    continue
                try:
                    target = row(label, q)
                except ModelError:
                    self.missing.append((i, q))
                    continue
                t = numbering.get(id(target))
                if t is None:  # the row's first draw: read it once, however many states share it
                    if len(target.weights) == 1 and [*target.weights.values()] == [1.0]:
                        [t] = map(space.position.__getitem__, target.weights)
                    else:
                        t = end + 1 + len(self.rows)
                        self.rows[t] = (*target.branch, _gather(target.branch[0]))
                    numbering[id(target)] = t
                self.to[q][i] = t
        self.flows = _blanked(self.responses, self.missing)
        self.xi = _blanked(self.responses, [(i, q) for i, _ in self.missing for q in outcomes])
        self.shared, self.runs = {}, {}
        for q, to in self.to.items():
            if (runs := _runs(to, end, space.line)) is not None:
                self.runs[q] = runs
                if [b - a for a, b, _ in runs] == [1]:  # one state draws
                    self.shared[q] = runs[0][0] + runs[0][2]
                continue
            lowest = min(to)  # the only value besides end, if any: counted, not collected
            t = lowest if lowest != end else max(to)
            if t != end and to.count(t) + to.count(end) == end:
                self.shared[q] = t
        self.certain = outcomes == (None,)
        self.complete = declared == end and not self.missing
        self.in_place = not self.missing and len(self.runs) == len(outcomes) and not any(
            s for runs in self.runs.values() for _, _, s in runs)

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
        the outcome's probability; through a kernel (q = None), the branch
        pushed through it. An outcome in ``shared`` (``outcome_rows``, a
        reset) moves <w, flows(q | .)> onto its row in one step, the dual of
        a rank-one pull, also where another outcome's row is missing; where
        weight meets a missing row it names the state the loop would. An
        outcome in ``runs`` sends each nonzero flow to its target, read with
        the flows at the branch's positions, unless a flow meets no row;
        through a certain outcome each flow is the weight itself. Otherwise
        the state loop sends each nonzero flow to its point mass or expands
        its row for its state, in state order, and raises for the first
        missing row.
        """
        xi, to = self.responses[outcome], self.to[outcome]
        end, t = len(self.states), self.shared.get(outcome)
        if t is not None:  # every state with a row for q draws row t
            [flow] = dots(branch, [self.flows[outcome]])
            if flow == flow:
                positions, weights = self.rows[t][:2] if t > end else ((t,), (1.0,))
                return (list(positions), [flow * p for p in weights]) if flow else ([], [])
            # a state lacks its response or q's row: the loop would first expand t for every
            # state before it, so name the state here; zero weight there leaves it to the loop
            i = next((i for i, w in zip(*branch) if to[i] == end and w * xi[i] != 0.0), None)
            if i is not None:
                raise self._undefined(i, None if xi[i] != xi[i] else outcome)
        if outcome in self.runs:  # the loop's 0.0 + flow at each target, ascending already
            gather = _gather(branch[0])
            flows = branch[1] if self.certain else list(map(mul, branch[1], gather(xi)))
            # a kernel's xi is NaN off its rows, so any weight there, even 0, meets no row
            targets = gather(to) if self.certain else list(compress(gather(to), flows))
            if end not in targets:
                return (list(compress(targets, flows)) if self.certain else targets,
                        list(filter(None, flows)))
        out: dict = {}
        for i, w in zip(*branch):
            mass = w * xi[i]
            if mass == 0.0:
                continue
            t = to[i]
            if t < end:  # a point mass
                out[t] = out.get(t, 0.0) + mass
            elif t > end:
                positions, weights, _ = self.rows[t]
                for s, p in zip(positions, weights):
                    out[s] = out.get(s, 0.0) + mass * p
            else:
                raise self._undefined(i, None if mass != mass else outcome)
        return _ascending(out)

    def pull(self, effects: list, memo: dict) -> list:
        """Effects pulled back through each outcome's selective update, the dual of measure.

        For each outcome q, in order, and each effect c * f the result has
        the effect s -> c * xi(q | s) * sum_{s'} tau(s' | q, s) f(s'). It is
        defined where the state has a response row, an update row for every
        outcome it can produce (a walk branches on every outcome), and for
        q a row lying inside f's domain. The base f is extended past its end
        by a 0, which the states drawing no row read, and by its dots with
        the numbered rows; each state then reads its ``to`` value there,
        and an outcome in ``shared`` gives that value times xi(q | .)
        while it is a number. Through an outcome in ``runs`` the reads are
        slices of the extended base, one per run (see ``_sliced``).
        """
        def pulled(base):
            ext = base + array("d", [0.0] + [sum(map(mul, weights, take(base)))
                                             for _, weights, take in self.rows.values()])
            xi, shared = self.xi, self.shared
            return [(ext[shared[q]], xi[q]) if q in shared and not math.isnan(ext[shared[q]])
                    else (1.0, self._sliced(ext, q) if q in self.runs
                          else array("d", map(mul, xi[q], map(ext.__getitem__, self.to[q]))))
                    for q in self.to]

        terms = [_once(memo, self, base, pulled) for _, base in effects]
        return [(c * b, e)
                for by_effect in zip(*terms) for (c, _), (b, e) in zip(effects, by_effect)]

    @cached_property
    def nonselective(self) -> list:
        """N_s = sum_q xi(q | s) tau(. | q, s) for each state s, the update with its outcome
        ignored, made on first use and kept: (weights, reader) of N_s's targets in position
        order. Each state's targets are accumulated in outcome order, over the outcomes of
        nonzero probability. Where ``xi`` is NaN the state has no row, and its one weight NaN
        makes every dot with it NaN: the domain of ``pull``'s sum over the outcomes."""
        end, by_state = len(self.states), []
        for i, xi in enumerate(zip(*self.xi.values())):
            if math.isnan(xi[0]):  # xi is NaN for every outcome or for none
                by_state.append(((math.nan,), _gather([i])))
                continue
            out: dict = {}
            for p, t in zip(xi, (to[i] for to in self.to.values())):
                if p != 0.0:  # t is then a point mass's position or a numbered row
                    for s, w in zip(*self.rows[t][:2]) if t > end else ((t, 1.0),):
                        out[s] = out.get(s, 0.0) + p * w
            positions, weights = _ascending(out)
            by_state.append((weights, _gather(positions)))
        return by_state

    def _sliced(self, ext, q) -> array:
        """xi(q | s) * ext[to[q][s]] for each state s, through q's runs: one slice of ``ext``
        per run."""
        xi, out, i = self.xi[q], array("d"), 0
        for a, b, s in self.runs[q]:  # between runs xi(q | .) * ext[end] is xi(q | .): 0 or NaN
            pulled = ext[a + s:b + s]
            out += xi[i:a] + (pulled if self.certain else array("d", map(mul, xi[a:b], pulled)))
            i = b
        return out + xi[i:]

    def _undefined(self, i: int, outcome=None) -> ModelError:
        """The error of reaching a state without a kernel, response or outcome's update row."""
        state = self.states[i]
        if outcome is not None:
            return ModelError(
                f"measurement update undefined for state {state!r}, outcome {outcome!r}"
            )
        if self.certain:
            return ModelError(f"kernel row undefined for state {state!r}")
        return ModelError(f"response undefined for state {state!r}")


#: The response row of a kernel's one outcome, None: it occurs with certainty.
_CERTAIN = {None: 1.0}


def _once(memo: dict, form, base, compute):
    """compute(base) for one form, computed once per base while the memo lives."""
    key = (id(form), id(base))
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (base, compute(base))
    return entry[1]


def _runs(to, end: int, line: array):
    """The runs of an outcome's ``to`` values (see ``Form``), or None where a drawn row is
    not a point mass or the drawn positions do not strictly increase.

    From the state i that a run, or a stretch of states drawing no row, starts at, the
    stretch is the longest slice of ``to`` equal to the slice of ``like`` from ``like[j]``,
    its first value: ``end`` repeated (``gaps``) or every position in order (``line``, the
    space's). Bisection finds its length, so no state is read one at a time."""
    runs, i, gaps = [], 0, array("i", [end]) * end
    while i < end:
        # a numbered row, or a drawn position behind the last run's targets
        if (t := to[i]) > end or runs and runs[-1][1] + runs[-1][2] > t:
            return None
        if t == end:
            like, j = gaps, 0
        else:
            like, j = line, t
        # a slice of like cut short by its end is shorter than to's, so it differs too
        k = bisect_left(range(1, end - i + 1), True, key=lambda k: to[i:i + k] != like[j:j + k])
        if t < end:
            runs.append((i, i + k, t - i))
        i += k
    return runs


def _blanked(xi: dict, pairs) -> dict:
    """Copies of the xi(q | .) arrays, NaN at the given (position, outcome) pairs; xi itself
    when there are none."""
    if not pairs:
        return xi
    xi = {q: array("d", by_state) for q, by_state in xi.items()}
    for i, q in pairs:
        xi[q][i] = math.nan
    return xi


def compose_preparation(preparation: Distribution, kernel: TransformationKernel) -> Distribution:
    """Push a preparation through a transformation kernel.

    Returns the distribution with weights sum_{s0} mu(s0) * tau(s | s0).
    """
    _check_same_space(preparation.space, kernel.space, "compose_preparation")
    space = preparation.space
    pushed = kernel.form.measure(preparation.branch, None)
    return Distribution(space, space.unpack(pushed))


def outcome_probabilities(preparation: Distribution, measurement: Measurement) -> dict:
    """Each outcome's probability when the measurement reads the preparation."""
    _check_same_space(preparation.space, measurement.space, "outcome_probabilities")
    return measurement.form.masses(preparation.branch)


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
    weight = {t: dict(zip(*row[:2])) for t, row in form.rows.items()}
    worst = 0.0
    for q in checked:
        produced = map(SUPPORT_TOL.__lt__, form.responses[q])  # xi(q | s) > SUPPORT_TOL
        for i, t in compress(enumerate(form.to[q]), produced):
            # t == i is the point mass at i, which leaves the state in place
            if t != i and (moved := 1.0 - weight[t].get(i, 0.0) if t in weight else 1.0) > worst:
                worst = moved
                if worst >= 1.0:  # tau(s | q, s) >= 0, so no row moves a state further
                    return False, worst
    return worst <= SUPPORT_TOL, worst


def post_measurement_distribution(preparation: Distribution, measurement: Measurement) -> Distribution:
    """Ontic distribution after performing a measurement and discarding the outcome.

    This is the non-selective update sum_q xi(q|s0) tau(. | q, s0), the
    quantity compared against the untouched preparation in every
    operational-disturbance check.
    """
    _check_same_space(preparation.space, measurement.space, "post_measurement_distribution")
    branch, space = preparation.branch, preparation.space
    updated = summed(measurement.form.measure(branch, q) for q in measurement.outcomes)
    return Distribution(space, space.unpack(updated))
