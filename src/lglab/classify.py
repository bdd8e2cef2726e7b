"""Value-definiteness and the three-way macrorealism taxonomy.

A model is classified relative to a declared class of operationally
equivalent measurements. The ladder: value-definiteness of every ontic
state (else not-MR); every declared preparation a convex mixture of
operational-eigenstate preparations (MR1); failing that, every
preparation supported inside the union of eigenstate supports (MR2);
otherwise value-definite states outside every eigenstate support (MR3).
The eigenstate preparations of each value are decided once per class, by
one read of each preparation's outcome probabilities per member; the
verdict and the eigenstate fixed-point check both start from them.
"""

from __future__ import annotations

import itertools
import math
import operator

from .core import (
    Distribution,
    OnticModel,
    SUPPORT_TOL,
    _Record,
    check_size,
    compose_preparation,
    distance,
    outcome_probabilities,
)
from .errors import ClassificationError, EngineDefectError, ModelError
from .operational import EQUIVALENCE_TOL, measurements_equivalent

#: Total-variation residual below which a mixture decomposition counts as exact.
HULL_TOL = 1e-8

#: The least share of its norm that a column of the hull solve must have
#: outside the span of the columns before it to count as independent.
RANK_TOL = 1e-14


class QuantityClass(_Record):
    """A named class of pairwise operationally equivalent measurements."""

    label: str
    measurements: tuple

    @classmethod
    def verified(cls, model: OnticModel, label: str, measurements,
                 tol: float = EQUIVALENCE_TOL) -> "QuantityClass":
        """Build the class, checking pairwise equivalence on every declared probe."""
        measurements = tuple(measurements)
        if not measurements:
            raise ModelError("a quantity class needs at least one measurement")
        for name in measurements:
            model.measurement(name)
        for a, b in itertools.combinations(measurements, 2):
            equivalent, dev = measurements_equivalent(model, a, b, tol=tol)
            if not equivalent:
                raise ModelError(
                    f"measurements {a!r} and {b!r} differ on the probe set "
                    f"(deviation {dev:.3g}); not a valid quantity class"
                )
        return cls(label=label, measurements=measurements)


class MacrodefiniteResult(_Record):
    """Whether every ontic state answers the class deterministically and uniformly."""

    holds: bool
    witnesses: tuple  # (state, measurement, detail) triples
    value_of: dict  # state -> outcome, only meaningful when holds


def check_macrodefinite(model: OnticModel, quantity_class: QuantityClass) -> MacrodefiniteResult:
    """Check non-contextual value-definiteness of the whole state space.

    Each distinct response row object is decided once, and every state
    that draws it reuses the outcome.
    """
    members = [model.measurement(m) for m in quantity_class.measurements]
    witnesses = []
    value_of = {}
    decided = {}  # id(row) -> its determined outcome; the tables hold every row for the call
    for state in model.space.states:
        determined = None
        for meas in members:
            row = meas.response.row(state)
            try:
                outcome = decided[id(row)]
            except KeyError:
                outcome = decided[id(row)] = meas.response.determined_outcome(state)
            if outcome is None:
                witnesses.append((state, meas.label, f"stochastic response {dict(row)!r}"))
                break
            if determined is None:
                determined = outcome
            elif outcome != determined:
                witnesses.append(
                    (state, meas.label, f"responds {outcome!r} where {determined!r} expected")
                )
                break
        else:
            value_of[state] = determined
    return MacrodefiniteResult(holds=not witnesses, witnesses=tuple(witnesses), value_of=value_of)


def _eigenstates(model: OnticModel, quantity_class: QuantityClass) -> dict:
    """The operational-eigenstate preparations of each value: outcome -> tuple of names.

    A declared preparation is one for value q when no member of the class
    gives q with probability below 1 - EQUIVALENCE_TOL. Each preparation's
    outcome probabilities are read once per member. Outcomes come in the
    first member's order and names in declaration order; an empty tuple
    means no eigenstate preparation is declared for that value.
    """
    members = [model.measurement(m) for m in quantity_class.measurements]
    outcomes = members[0].outcomes
    if any(set(meas.outcomes) != set(outcomes) for meas in members):
        raise ModelError(f"the members of {quantity_class.label!r} have different outcome sets")
    names: dict = {q: [] for q in outcomes}
    for name, dist in model.preparations.items():
        read = [outcome_probabilities(dist, meas) for meas in members]
        for q in outcomes:
            if not any(p[q] < 1.0 - EQUIVALENCE_TOL for p in read):
                names[q].append(name)
    return {q: tuple(found) for q, found in names.items()}


class PreparationEvidence(_Record):
    """Mixture and support evidence for one classified preparation."""

    name: str
    hull_residual: float
    hull_weights: dict  # eigenstate preparation name -> weight
    mixture_member: bool
    support_contained: bool
    novel_states: tuple
    value_weights: dict  # outcome -> total weight on states with that value
    value_components: dict  # outcome -> Distribution (normalized per-value component)


class Classification(_Record):
    """Taxonomy verdict with re-checkable witnesses."""

    quantity_class: str
    verdict: str  # "MR1", "MR2", "MR3" or "not-MR"
    macrodefinite: bool
    macrodefinite_witnesses: tuple
    eigenstate_preparations: dict  # outcome -> tuple of names
    values_without_eigenstate: tuple
    evidence: tuple  # PreparationEvidence per classified preparation
    classified_preparations: tuple
    skipped_images: tuple


def _dot(u, v) -> float:
    return math.fsum(map(operator.mul, u, v))


def _householder(columns, target, passive) -> tuple:
    """QR of the passive columns by Householder reflections, applied to all.

    Returns the reflected columns and target and the least-squares
    weights of the passive columns. The weights are None when a passive
    column is numerically dependent on the ones before it: the part of it
    outside their span is below RANK_TOL of its norm.
    """
    a = [list(column) for column in columns]
    b = list(target)
    for i, j in enumerate(passive):
        v = a[j][i:]
        norm = math.hypot(*v)
        if not norm > RANK_TOL * math.hypot(*columns[j]):
            return a, b, None
        alpha = -norm if v[0] > 0.0 else norm
        v[0] -= alpha
        scale = -alpha * v[0]  # half of v.v
        for x in [a[c] for c in range(len(a)) if c not in passive[:i + 1]] + [b]:
            f = _dot(v, x[i:]) / scale
            x[i:] = [xi - f * vi for xi, vi in zip(x[i:], v)]
        a[j][i:] = [alpha] + [0.0] * (len(v) - 1)
    z = [0.0] * len(passive)
    for i in reversed(range(len(passive))):
        tail = math.fsum(a[passive[c]][i] * z[c] for c in range(i + 1, len(passive)))
        z[i] = (b[i] - tail) / a[passive[i]][i]
    return a, b, z


def _nnls(columns, target) -> list:
    """Nonnegative weights x minimising |sum_j x_j columns[j] - target|_2.

    Lawson and Hanson's active-set algorithm (Solving Least Squares
    Problems, 1974, ch. 23). Each passive set is solved by Householder QR,
    and a column's gain is read from the reflected residual, where the
    passive part is exactly zero: forming the normal equations would
    square the condition number of near-collinear columns.
    """
    k = len(columns)
    x = [0.0] * k
    passive = []
    a, b = columns, target
    for _ in range(3 * k):
        p = len(passive)
        gain = {j: _dot(a[j][p:], b[p:]) for j in range(k) if j not in passive}
        for t in sorted((j for j in gain if gain[j] > 0.0), key=gain.__getitem__, reverse=True):
            a, b, z = _householder(columns, target, passive + [t])
            if z is not None and z[-1] > 0.0:
                break
        else:
            return x
        passive.append(t)
        while not all(zj > 0.0 for zj in z):
            step, hit = min((x[j] / (x[j] - zj), j) for j, zj in zip(passive, z) if zj <= 0.0)
            for j, zj in zip(passive, z):
                x[j] += step * (zj - x[j])
            x[hit] = 0.0
            passive = [j for j in passive if x[j] > 0.0]
            a, b, z = _householder(columns, target, passive)
        x = [0.0] * k
        for j, zj in zip(passive, z):
            x[j] = zj
    raise EngineDefectError(f"the hull solve did not converge in {3 * k} iterations")


def _nu_decomposition(dist: Distribution, value_of: dict) -> tuple:
    """Split a preparation by the value its states carry.

    Each value-definite state has exactly one value, so the
    decomposition is unique: component q collects the states with value
    q, normalized, with the collected mass as its weight.
    """
    masses: dict = {}
    parts: dict = {}
    for label, w in dist.weights.items():
        q = value_of[label]
        masses[q] = masses.get(q, 0.0) + w
        parts.setdefault(q, {})[label] = w
    components = {
        q: Distribution(dist.space, {k: v / masses[q] for k, v in part.items()})
        for q, part in parts.items()
    }
    return masses, components


def classify(model: OnticModel, quantity_class: QuantityClass,
             image_depth: int = 0) -> Classification:
    """Classify a model into the three-family taxonomy for one quantity class.

    Classification is relative to the declared preparations (the set is
    echoed in the result), and mixture membership is decided to HULL_TOL.
    With ``image_depth`` > 0, images of declared preparations under
    sequences of declared transformations up to that depth are classified
    too; images whose kernel rows are undefined on the needed states are
    skipped and reported.
    """
    md = check_macrodefinite(model, quantity_class)
    if not md.holds:
        return Classification(
            quantity_class=quantity_class.label,
            verdict="not-MR",
            macrodefinite=False,
            macrodefinite_witnesses=md.witnesses,
            eigenstate_preparations={},
            values_without_eigenstate=(),
            evidence=(),
            classified_preparations=(),
            skipped_images=(),
        )

    eigen_names = _eigenstates(model, quantity_class)
    missing = tuple(q for q, names in eigen_names.items() if not names)
    all_eigen = [name for names in eigen_names.values() for name in names]
    if not all_eigen:
        raise ClassificationError(
            "no declared preparation is an operational eigenstate of "
            f"{quantity_class.label!r}; classification impossible"
        )
    union_support = set().union(*(model.preparation(name).support() for name in all_eigen))

    branching = len(model.transformations)
    check_size(f"--image-depth {image_depth}", "preparation images",
               len(model.preparations) * branching, branching, image_depth)
    targets = list(model.preparations.items())
    skipped = []
    frontier = list(targets)
    for _ in range(image_depth):
        if not frontier:  # no image grew at the last depth, so none grows at a deeper one
            break
        grown = []
        for name, dist in frontier:
            for t_name in model.transformations:
                image_name = f"{name}>{t_name}"
                try:
                    grown.append((image_name, compose_preparation(dist, model.transformation(t_name))))
                except ModelError:
                    skipped.append(image_name)
        targets.extend(grown)
        frontier = grown

    basis = [model.preparation(name).weights for name in all_eigen]
    rows = dict.fromkeys(label for weights in basis for label in weights)
    columns = [[weights.get(label, 0.0) for label in rows] for weights in basis]

    evidence = []
    for name, dist in targets:
        target = [dist.weights.get(label, 0.0) for label in rows]
        weights = _nnls(columns, target)
        misfit = target
        for w, column in zip(weights, columns):
            misfit = [m - w * c for m, c in zip(misfit, column)]
        outside = [w for label, w in dist.weights.items() if label not in rows]
        residual = 0.5 * math.fsum([*map(abs, misfit), *outside])
        mixture = residual <= HULL_TOL
        novel = tuple(sorted(dist.support() - union_support, key=model.space.position.__getitem__))
        contained = not novel
        if mixture and not contained:
            raise EngineDefectError(
                f"preparation {name!r} is a mixture of eigenstate preparations "
                "but escapes their supports"
            )
        masses, components = _nu_decomposition(dist, md.value_of)
        evidence.append(
            PreparationEvidence(
                name=name,
                hull_residual=residual,
                hull_weights=dict(zip(all_eigen, weights)),
                mixture_member=mixture,
                support_contained=contained,
                novel_states=novel,
                value_weights=masses,
                value_components=components,
            )
        )

    if all(e.mixture_member for e in evidence):
        verdict = "MR1"
    elif all(e.support_contained for e in evidence):
        verdict = "MR2"
    else:
        verdict = "MR3"
    return Classification(
        quantity_class=quantity_class.label,
        verdict=verdict,
        macrodefinite=True,
        macrodefinite_witnesses=(),
        eigenstate_preparations=eigen_names,
        values_without_eigenstate=missing,
        evidence=tuple(evidence),
        classified_preparations=tuple(name for name, _ in targets),
        skipped_images=tuple(skipped),
    )


class EquilibriumResult(_Record):
    """Fixed-point check of eigenstate preparations under the conditioned update."""

    holds: bool
    worst_deviation: float
    per_preparation: dict  # name -> total-variation deviation


def check_equilibrium_property(model: OnticModel, quantity_class: QuantityClass,
                               measurement: str) -> EquilibriumResult:
    """Whether each declared eigenstate preparation is preserved by its own update.

    For the eigenstate preparation of value q, the preparation is
    conditioned on outcome q (states with xi(q|s) <= SUPPORT_TOL
    dropped, the update for q applied, the result divided by P(q)) and
    compared with the preparation itself in total variation, to
    EQUIVALENCE_TOL.
    """
    meas = model.measurement(measurement)
    eigen_names = _eigenstates(model, quantity_class)
    if set(meas.outcomes) != set(eigen_names):
        raise ModelError(f"measurement {measurement!r} and the members of "
                         f"{quantity_class.label!r} have different outcome sets")
    return _equilibrium(model, meas, eigen_names)


def _equilibrium(model: OnticModel, meas, eigen_names: dict) -> EquilibriumResult:
    """``check_equilibrium_property`` of a measurement on a class's ``_eigenstates`` table,
    whose outcomes are the measurement's."""
    form, deviations = meas.form, {}
    for q in meas.outcomes:
        xi = form.responses[q]
        for name in eigen_names[q]:
            prepared = model.preparation(name).branch
            # a state without a response row (NaN) stays, so that masses names it
            kept = [not xi[i] <= SUPPORT_TOL for i in prepared[0]]
            branch = [list(itertools.compress(part, kept)) for part in prepared]
            p_q = form.masses(branch)[q]
            positions, weights = form.measure(branch, q)
            deviations[name] = distance((positions, [w / p_q for w in weights]), prepared)
    worst = max(deviations.values(), default=0.0)
    return EquilibriumResult(holds=worst <= EQUIVALENCE_TOL, worst_deviation=worst,
                             per_preparation=deviations)
