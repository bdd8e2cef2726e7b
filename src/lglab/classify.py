"""Value-definiteness and the three-way macrorealism taxonomy.

A model is classified relative to a declared class of operationally
equivalent measurements. The ladder: value-definiteness of every ontic
state (else not-MR); every declared preparation a convex mixture of
operational-eigenstate preparations (MR1); failing that, every
preparation supported inside the union of eigenstate supports (MR2);
otherwise value-definite states outside every eigenstate support (MR3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .core import (
    Distribution,
    OnticModel,
    SUPPORT_TOL,
    compose_preparation,
    measure,
    outcome_mass,
)
from .errors import ClassificationError, EngineDefectError, ModelError
from .operational import (
    EQUIVALENCE_TOL,
    is_operational_eigenstate,
    measurements_equivalent,
)

#: Total-variation residual below which a mixture decomposition counts as exact.
HULL_TOL = 1e-8


@dataclass(frozen=True)
class QuantityClass:
    """A named class of pairwise operationally equivalent measurements."""

    label: str
    measurements: tuple

    @classmethod
    def verified(cls, model: OnticModel, label: str, measurements, probes=None,
                 tol: float = EQUIVALENCE_TOL) -> "QuantityClass":
        """Build the class, checking pairwise equivalence on the declared probes."""
        measurements = tuple(measurements)
        if not measurements:
            raise ModelError("a quantity class needs at least one measurement")
        for name in measurements:
            model.measurement(name)
        for a, b in itertools.combinations(measurements, 2):
            equivalent, dev = measurements_equivalent(model, a, b, probes, tol=tol)
            if not equivalent:
                raise ModelError(
                    f"measurements {a!r} and {b!r} differ on the probe set "
                    f"(deviation {dev:.3g}); not a valid quantity class"
                )
        return cls(label=label, measurements=measurements)


@dataclass(frozen=True)
class MacrodefiniteResult:
    """Whether every ontic state answers the class deterministically and uniformly."""

    holds: bool
    witnesses: tuple  # (state, measurement, detail) triples
    value_of: dict  # state -> outcome, only meaningful when holds


def check_macrodefinite(model: OnticModel, quantity_class: QuantityClass,
                        tol: float = SUPPORT_TOL) -> MacrodefiniteResult:
    """Check non-contextual value-definiteness of the whole state space."""
    members = [model.measurement(m) for m in quantity_class.measurements]
    witnesses = []
    value_of = {}
    for state in model.space.states:
        determined = None
        for meas in members:
            outcome = meas.response.determined_outcome(state, tol=tol)
            if outcome is None:
                row = meas.response.row(state)
                witnesses.append((state, meas.label, f"stochastic response {dict(row)!r}"))
                determined = None
                break
            if determined is None:
                determined = outcome
            elif outcome != determined:
                witnesses.append(
                    (state, meas.label, f"responds {outcome!r} where {determined!r} expected")
                )
                determined = None
                break
        if determined is not None:
            value_of[state] = determined
    return MacrodefiniteResult(holds=not witnesses, witnesses=tuple(witnesses), value_of=value_of)


def operational_eigenstate_supports(model: OnticModel, quantity_class: QuantityClass,
                                    outcome, preparations=None,
                                    tol: float = EQUIVALENCE_TOL) -> tuple:
    """Union of supports of the declared eigenstate preparations for one value.

    Returns (support frozenset, tuple of contributing preparation names);
    an empty name tuple means no eigenstate preparation is declared for
    this value.
    """
    if preparations is None:
        preparations = list(model.preparations)
    names = []
    support = set()
    for name in preparations:
        dist = model.preparation(name)
        if is_operational_eigenstate(model, dist, quantity_class.measurements, outcome, tol=tol):
            names.append(name)
            support |= dist.support()
    return frozenset(support), tuple(names)


@dataclass(frozen=True)
class PreparationEvidence:
    """Mixture and support evidence for one classified preparation."""

    name: str
    hull_residual: float
    hull_weights: dict  # eigenstate preparation name -> weight
    mixture_member: bool
    support_contained: bool
    novel_states: tuple
    value_weights: dict  # outcome -> total weight on states with that value
    value_components: dict  # outcome -> Distribution (normalized per-value component)


@dataclass(frozen=True)
class Classification:
    """Taxonomy verdict with re-checkable witnesses."""

    quantity_class: str
    verdict: str  # "MR1", "MR2", "MR3" or "not-MR"
    macrodefinite: bool
    macrodefinite_witnesses: tuple
    eigenstate_preparations: dict  # outcome -> tuple of names
    values_without_eigenstate: tuple
    evidence: tuple  # PreparationEvidence per classified preparation
    classified_preparations: tuple
    skipped_images: tuple = ()
    hull_tol: float = HULL_TOL


def _as_vector(dist: Distribution, index: dict, n: int) -> np.ndarray:
    v = np.zeros(n)
    for label, w in dist.weights.items():
        v[index[label]] = w
    return v


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


def classify(model: OnticModel, quantity_class: QuantityClass, preparations=None,
             hull_tol: float = HULL_TOL, image_depth: int = 0) -> Classification:
    """Classify a model into the three-family taxonomy for one quantity class.

    Classification is relative to the declared preparations (the set is
    echoed in the result). With ``image_depth`` > 0, images of declared
    preparations under sequences of declared transformations up to that
    depth are classified too; images whose kernel rows are undefined on
    the needed states are skipped and reported.
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
            hull_tol=hull_tol,
        )

    if preparations is None:
        preparations = list(model.preparations)
    outcomes = model.measurement(quantity_class.measurements[0]).outcomes
    eigen_names: dict = {}
    union_support: set = set()
    for q in outcomes:
        support, names = operational_eigenstate_supports(
            model, quantity_class, q, preparations=preparations
        )
        eigen_names[q] = names
        union_support |= support
    missing = tuple(q for q in outcomes if not eigen_names[q])
    all_eigen = [name for q in outcomes for name in eigen_names[q]]
    if not all_eigen:
        raise ClassificationError(
            "no declared preparation is an operational eigenstate of "
            f"{quantity_class.label!r}; classification impossible"
        )

    targets = [(name, model.preparation(name)) for name in preparations]
    skipped = []
    frontier = list(targets)
    for depth in range(1, image_depth + 1):
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

    n = len(model.space)
    index = {label: i for i, label in enumerate(model.space.states)}
    basis = np.column_stack(
        [_as_vector(model.preparation(name), index, n) for name in all_eigen]
    )

    evidence = []
    all_mixture = True
    all_contained = True
    for name, dist in targets:
        b = _as_vector(dist, index, n)
        weights, _ = nnls(basis, b)
        residual = 0.5 * float(np.abs(basis @ weights - b).sum())
        mixture = residual <= hull_tol
        novel = tuple(sorted(dist.support() - union_support, key=index.__getitem__))
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
                hull_weights={e: float(w) for e, w in zip(all_eigen, weights)},
                mixture_member=mixture,
                support_contained=contained,
                novel_states=novel,
                value_weights=masses,
                value_components=components,
            )
        )
        all_mixture = all_mixture and mixture
        all_contained = all_contained and contained

    if all_mixture:
        verdict = "MR1"
    elif all_contained:
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
        hull_tol=hull_tol,
    )


@dataclass(frozen=True)
class EquilibriumResult:
    """Fixed-point check of eigenstate preparations under the conditioned update."""

    holds: bool
    worst_deviation: float
    per_preparation: dict  # name -> total-variation deviation


def check_equilibrium_property(model: OnticModel, quantity_class: QuantityClass,
                               measurement: str, tol: float = 1e-9) -> EquilibriumResult:
    """Whether each declared eigenstate preparation is preserved by its own update.

    For the eigenstate preparation of value q, the preparation is
    conditioned on outcome q (states with xi(q|s) <= SUPPORT_TOL
    dropped, the update for q applied, the result divided by P(q)) and
    compared with the preparation itself in total variation.
    """
    meas = model.measurement(measurement)
    deviations = {}
    for q in meas.outcomes:
        _, names = operational_eigenstate_supports(model, quantity_class, q)
        for name in names:
            dist = model.preparation(name)
            weights = {
                label: w for label, w in dist.weights.items()
                if meas.response.row(label)[q] > SUPPORT_TOL
            }
            p_q = outcome_mass(weights, meas, q)
            post = {label: w / p_q for label, w in measure(weights, meas, (q,)).items()}
            deviations[name] = Distribution(model.space, post).total_variation(dist)
    worst = max(deviations.values(), default=0.0)
    return EquilibriumResult(holds=worst <= tol, worst_deviation=worst,
                             per_preparation=deviations)
