"""Three-time correlation analysis: LG values, disturbance tables, chain checks.

The central objects are a three-measurement arrangement with +/-1 value
assignments, the four protocol runs it induces (all measurements
performed, and the three two-measurement sub-experiments sharing the
same preparation and transformations), and the exact decomposition that
ties the pairwise correlation sum to the all-performed table plus
marginal-disturbance terms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .core import Distribution, OnticModel, is_ontically_noninvasive, measure
from .errors import EngineDefectError, ModelError, PreconditionError, ValidationError
from .operational import (
    EQUIVALENCE_TOL,
    JointDistribution,
    ObservableAssignment,
    Protocol,
    ProtocolStep,
    expectation,
    measurements_equivalent,
    outcome_table,
    run_protocol,
    walk,
)

#: The exact decomposition identity must hold to this tolerance.
RESIDUAL_TOL = 1e-12

#: The trivial all-performed bound, allowing only float noise.
BOUND_TOL = 1e-12


@dataclass(frozen=True)
class LgArrangement:
    """A preparation, two interleaved evolutions and three binary measurements.

    The three two-measurement sub-experiments reuse the same
    preparation and transformation objects by construction: every run is
    derived from one protocol template with a different perform mask.
    """

    model: OnticModel
    preparation: object
    transformations: tuple  # (t1, t2), names or None
    measurements: tuple  # (m1, m2, m3) names
    assignment: ObservableAssignment

    def __post_init__(self):
        if len(self.transformations) != 2 or len(self.measurements) != 3:
            raise ValidationError("arrangement needs two transformations and three measurements")
        self.model.preparation(self.preparation)
        for t in self.transformations:
            if t is not None:
                self.model.transformation(t)
        for m_name in self.measurements:
            measurement = self.model.measurement(m_name)
            if len(measurement.outcomes) != 2:
                raise ValidationError(f"measurement {m_name!r} is not binary")
            values = sorted(
                self.assignment.value(m_name, q) for q in measurement.outcomes
            )
            if values != [-1, 1]:
                raise ValidationError(
                    f"assignment for {m_name!r} must map its outcomes onto -1 and +1"
                )

    def protocol(self, mask=(True, True, True)) -> Protocol:
        t1, t2 = self.transformations
        m1, m2, m3 = self.measurements
        steps = (
            ProtocolStep(None, m1, mask[0]),
            ProtocolStep(t1, m2, mask[1]),
            ProtocolStep(t2, m3, mask[2]),
        )
        return Protocol(self.preparation, steps)

    def value_map(self, position: int) -> dict:
        """Outcome label -> +/-1 for the measurement at the given slot."""
        m_name = self.measurements[position]
        outcomes = self.model.measurement(m_name).outcomes
        return {q: int(self.assignment.value(m_name, q)) for q in outcomes}


def _pair_value_table(joint: JointDistribution, i: int, j: int, vi: dict, vj: dict) -> dict:
    """Collapse a joint onto the +/-1 values of two of its axes."""
    out = {(a, b): 0.0 for a in (1, -1) for b in (1, -1)}
    for combo, p in joint.table.items():
        out[(vi[combo[i]], vj[combo[j]])] += p
    return out


def _all_three_value(joint: JointDistribution, asg: ObservableAssignment) -> float:
    """The three pair correlators of an all-performed table, summed and bound-checked."""
    value = (
        expectation(joint, asg, axes=[0, 1])
        + expectation(joint, asg, axes=[0, 2])
        + expectation(joint, asg, axes=[1, 2])
    )
    if not (-1.0 - BOUND_TOL <= value <= 3.0 + BOUND_TOL):
        raise EngineDefectError(
            f"all-performed correlation sum {value!r} escaped the [-1, 3] bound"
        )
    return value


def lg_value_all_three(arrangement: LgArrangement) -> float:
    """Sum of the three pair correlators from the single all-performed run.

    A well-defined joint table forces this into [-1, 3]; exceeding the
    bound by more than float noise indicates a propagation defect.
    """
    joint = run_protocol(arrangement.model, arrangement.protocol((True, True, True)))
    return _all_three_value(joint, arrangement.assignment)


def lg_value_pairwise(arrangement: LgArrangement) -> float:
    """Sum of the three pair correlators across the two-measurement sub-experiments.

    Each sub-experiment skips one measurement; preparation and
    transformations are identical in all three. No bound is imposed.
    """
    model = arrangement.model
    asg = arrangement.assignment
    total = 0.0
    for mask in ((True, True, False), (True, False, True), (False, True, True)):
        joint = run_protocol(model, arrangement.protocol(mask))
        total += expectation(joint, asg, axes=[0, 1])
    return total


@dataclass(frozen=True)
class DisturbanceReport:
    """Marginal-statistics shifts caused by performing the earlier measurements.

    ``d1`` tabulates the change in the (second, third) pair statistics
    from performing the first measurement, ``d2`` the change in the
    (first, third) statistics from performing the second, and ``d3`` the
    (first, second) change from performing the third, which is zero for
    any forward-propagating model. Keys are +/-1 value pairs.
    """

    d1: dict
    d2: dict
    d3: dict
    lg_all_three: float
    lg_pairwise: float
    decomposition_residual: float

    def max_disturbance(self) -> float:
        return max(
            abs(v) for v in itertools.chain(self.d1.values(), self.d2.values())
        )


def disturbance_report(arrangement: LgArrangement) -> DisturbanceReport:
    """Compute the disturbance tables and check the exact decomposition.

    The pairwise correlation sum always equals
    ``4*(P(+,+,+) + P(-,-,-)) + 2*(sum of equal-value d1 and d2 entries) - 1``;
    the report records the residual of that identity, which must vanish
    to RESIDUAL_TOL for every finite model.
    """
    model = arrangement.model
    asg = arrangement.assignment
    v1, v2, v3 = (arrangement.value_map(i) for i in range(3))

    j_all = run_protocol(model, arrangement.protocol((True, True, True)))
    j_12 = run_protocol(model, arrangement.protocol((True, True, False)))
    j_13 = run_protocol(model, arrangement.protocol((True, False, True)))
    j_23 = run_protocol(model, arrangement.protocol((False, True, True)))

    pairs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    t23_all = _pair_value_table(j_all, 1, 2, v2, v3)
    t13_all = _pair_value_table(j_all, 0, 2, v1, v3)
    t12_all = _pair_value_table(j_all, 0, 1, v1, v2)
    d1 = {k: _pair_value_table(j_23, 0, 1, v2, v3)[k] - t23_all[k] for k in pairs}
    d2 = {k: _pair_value_table(j_13, 0, 1, v1, v3)[k] - t13_all[k] for k in pairs}
    d3 = {k: _pair_value_table(j_12, 0, 1, v1, v2)[k] - t12_all[k] for k in pairs}

    for name, table in (("d1", d1), ("d2", d2)):
        balance = sum(table.values())
        if not (abs(balance) <= 1e-9):
            raise EngineDefectError(f"{name} entries sum to {balance!r}, expected 0")
    worst_d3 = max(abs(v) for v in d3.values())
    if not (worst_d3 <= RESIDUAL_TOL):
        raise EngineDefectError(
            f"performing the final measurement shifted earlier statistics by {worst_d3!r}"
        )

    lg_all = _all_three_value(j_all, asg)
    lg_pair = (
        expectation(j_12, asg, axes=[0, 1])
        + expectation(j_13, asg, axes=[0, 1])
        + expectation(j_23, asg, axes=[0, 1])
    )
    p_same = sum(
        p
        for combo, p in j_all.table.items()
        if v1[combo[0]] == v2[combo[1]] == v3[combo[2]]
    )
    equal_terms = d1[(1, 1)] + d1[(-1, -1)] + d2[(1, 1)] + d2[(-1, -1)]
    residual = lg_pair - (4.0 * p_same + 2.0 * equal_terms - 1.0)

    return DisturbanceReport(
        d1=d1,
        d2=d2,
        d3=d3,
        lg_all_three=lg_all,
        lg_pairwise=lg_pair,
        decomposition_residual=residual,
    )


@dataclass(frozen=True)
class OpndResult:
    """Outcome of one operational non-disturbance comparison."""

    non_disturbing: bool
    max_deviation: float
    context: str


def _arms(model: OnticModel, dist: Distribution, prefix, pre_transformation, measurement):
    """The (skipped, performed) arms of the checked measurement after a prefix.

    The skipped arm walks the performed ``prefix`` pairs and then only the
    pre-transformation; the performed arm applies the measurement's
    non-selective update to each skipped branch, which is the measurement
    performed with its outcome ignored.
    """
    steps = [ProtocolStep(t, m) for t, m in prefix]
    steps.append(ProtocolStep(pre_transformation, measurement.label, False))
    skipped = walk(model, [(dict(dist.weights), ())], steps)
    performed = [(measure(w, measurement, measurement.outcomes), outs) for w, outs in skipped]
    return skipped, performed


def _arm_deviation(model: OnticModel, arms, suffix) -> float:
    """Largest difference between the arms' tables of the surrounding outcomes.

    The tables are keyed by the prefix outcomes plus the outcomes of the
    performed ``suffix`` pairs; with no suffix they hold the branch masses.
    """
    steps = [ProtocolStep(t, m) for t, m in suffix]
    skipped, performed = (
        outcome_table(model, walk(model, arm, steps[:-1]), steps[-1])
        if steps
        else {outs: sum(w.values()) for w, outs in arm}
        for arm in arms
    )
    keys = performed.keys() | skipped.keys()
    return max(abs(performed.get(k, 0.0) - skipped.get(k, 0.0)) for k in keys)


def check_opnd(
    model: OnticModel,
    preparation,
    measurement: str,
    suffix,
    prefix=(),
    pre_transformation: Optional[str] = None,
    tol: float = EQUIVALENCE_TOL,
) -> OpndResult:
    """Compare surrounding statistics with a measurement performed vs skipped.

    The protocol is: preparation, the ``prefix`` (transformation,
    measurement) pairs all performed, then ``pre_transformation``
    followed by the checked measurement, then the ``suffix`` pairs all
    performed. The performed arm applies the checked measurement's
    non-selective update (performed, outcome ignored), the skipped arm
    leaves it out; the comparison is over the joint statistics of every
    other measurement, prefix outcomes included.
    """
    prefix = tuple(prefix)
    suffix = tuple(suffix)
    if not prefix and not suffix:
        raise ModelError("non-disturbance needs at least one surrounding measurement")
    meas = model.measurement(measurement)
    arms = _arms(model, model.preparation(preparation), prefix, pre_transformation, meas)
    worst = _arm_deviation(model, arms, suffix)
    context = f"E={preparation!r}, M={measurement!r}, suffix={[m for _, m in suffix]!r}"
    return OpndResult(worst <= tol, worst, context)


@dataclass(frozen=True)
class OpndCompleteResult:
    """Bounded check of non-disturbance over every declared context.

    The quantifier is a decidable surrogate for "any preparation, any
    subsequent measurement": declared preparations, optionally extended
    by one performed declared measurement and one declared
    transformation before the checked measurement, crossed with all
    suffix sequences of declared (transformation, measurement) pairs up
    to ``depth``. This context set covers the specific arrangement
    contexts, so the implication from complete to specific
    non-disturbance holds by construction. The worst-deviating context
    (preparation, prefix, pre-transformation, suffix) is reported.
    """

    non_disturbing: bool
    max_deviation: float
    witness: Optional[tuple]
    depth: int
    preparations: tuple
    undefined_contexts: int = 0


def check_opnd_complete(
    model: OnticModel,
    measurement: str,
    depth: int = 2,
    preparations=None,
    tol: float = EQUIVALENCE_TOL,
) -> OpndCompleteResult:
    """Check non-disturbance over every bounded declared context.

    Both arms are built once per (preparation, prefix, pre-transformation)
    and extended per suffix. Where the performed arm moves no branch
    weight the context is settled without suffixes: equal inputs give
    equal suffix statistics, and the raw total-variation shift bounds
    every table deviation. Contexts a reachable-set model leaves
    undefined (missing kernel rows) are skipped and counted.
    """
    if preparations is None:
        preparations = tuple(model.preparations)
    meas = model.measurement(measurement)
    alphabet = [(t, m) for t in model.transformations for m in model.measurements]
    suffixes = [
        seq
        for length in range(1, depth + 1)
        for seq in itertools.product(alphabet, repeat=length)
    ]
    prefixes = [()] + [((None, m),) for m in model.measurements]
    pre_ts = [None] + list(model.transformations)

    worst = 0.0
    witness = None
    ok = True
    undefined = 0
    for prep_name in preparations:
        dist = model.preparation(prep_name)
        for prefix, pre_t in itertools.product(prefixes, pre_ts):
            try:
                arms = _arms(model, dist, prefix, pre_t, meas)
            except ModelError:
                undefined += len(suffixes)
                continue
            bound = max(
                sum(abs(skip.get(k, 0.0) - done.get(k, 0.0)) for k in set(skip) | set(done))
                for (skip, _), (done, _) in zip(*arms)
            )
            if bound <= 0.5 * tol:
                worst = max(worst, bound)
                continue
            for suffix in suffixes:
                try:
                    deviation = _arm_deviation(model, arms, suffix)
                except ModelError:
                    undefined += 1
                    continue
                if deviation > worst:
                    worst = deviation
                    witness = (prep_name, prefix, pre_t, suffix)
                if not (deviation <= tol):
                    ok = False
    return OpndCompleteResult(
        ok and worst <= tol, worst, witness, depth, tuple(preparations), undefined
    )


@dataclass(frozen=True)
class ChainRecord:
    """Truth values along the noninvasiveness -> inequality chain.

    The four stages are: both early measurements ontically noninvasive;
    both operationally non-disturbing in every declared bounded context;
    both non-disturbing in the specific arrangement contexts; and the
    pairwise inequality satisfied. Every forward implication is asserted
    when the record is built.
    """

    ontically_noninvasive: bool
    opnd_complete: bool
    opnd_specific: bool
    lgi_satisfied: bool
    lg_pairwise: float
    details: dict = field(default_factory=dict, compare=False)

    def as_tuple(self):
        return (
            self.ontically_noninvasive,
            self.opnd_complete,
            self.opnd_specific,
            self.lgi_satisfied,
        )


def check_implication_chain(
    arrangement: LgArrangement, depth: int = 2, tol: float = EQUIVALENCE_TOL
) -> ChainRecord:
    """Evaluate the four chain stages and assert no forward implication fails."""
    model = arrangement.model
    t1, t2 = arrangement.transformations
    m1, m2, m3 = arrangement.measurements

    oni_1, dev_1 = is_ontically_noninvasive(model.measurement(m1))
    oni_2, dev_2 = (oni_1, dev_1) if m2 == m1 else is_ontically_noninvasive(model.measurement(m2))
    oni = oni_1 and oni_2

    complete_1 = check_opnd_complete(model, m1, depth=depth, tol=tol)
    complete_2 = (
        complete_1 if m2 == m1 else check_opnd_complete(model, m2, depth=depth, tol=tol)
    )
    complete = complete_1.non_disturbing and complete_2.non_disturbing

    specific_1 = check_opnd(
        model, arrangement.preparation, m1, suffix=[(t1, m2), (t2, m3)], tol=tol
    )
    specific_2 = check_opnd(
        model,
        arrangement.preparation,
        m2,
        suffix=[(t2, m3)],
        prefix=[(None, m1)],
        pre_transformation=t1,
        tol=tol,
    )
    specific = specific_1.non_disturbing and specific_2.non_disturbing

    lg_pair = lg_value_pairwise(arrangement)
    lgi = lg_pair >= -1.0 - tol

    record = ChainRecord(
        ontically_noninvasive=oni,
        opnd_complete=complete,
        opnd_specific=specific,
        lgi_satisfied=lgi,
        lg_pairwise=lg_pair,
        details={
            "oni_deviations": (dev_1, dev_2),
            "complete": (complete_1, complete_2),
            "specific": (specific_1, specific_2),
        },
    )
    stages = record.as_tuple()
    names = ("ontic noninvasiveness", "complete non-disturbance",
             "specific non-disturbance", "inequality satisfaction")
    for i in range(len(stages) - 1):
        if stages[i] and not stages[i + 1]:
            raise EngineDefectError(
                f"{names[i]} holds but {names[i + 1]} fails: {record.details!r}"
            )
    return record


@dataclass(frozen=True)
class PostSelectionRecord:
    """Per-preparation outcome of the keep/discard construction."""

    preparation: str
    keep_probability: float
    conditioned: Distribution
    deviation_from_input: float
    update_consistency: float


@dataclass(frozen=True)
class PostSelectionResult:
    """The composed coin-flip + keep/discard process and its verification.

    ``matches_input`` holds when the kept-branch ontic distribution
    reproduces the input preparation exactly (the composite acts as a
    totally noninvasive process); ``consistent`` holds when the
    end-to-end updated kept distribution agrees with the untouched
    kept-branch weights, which the partial-noninvasiveness precondition
    guarantees row by row.
    """

    kept_outcomes: tuple
    records: tuple
    matches_input: bool
    consistent: bool
    max_deviation_from_input: float
    max_update_inconsistency: float


def post_select_noninvasive(
    model: OnticModel,
    keep_first,
    keep_second,
    probes=None,
    tol: float = 1e-12,
) -> PostSelectionResult:
    """Verify the fair-choice + post-selection composite on every preparation.

    ``keep_first`` and ``keep_second`` are (measurement name, kept
    outcome) pairs; each measurement must be noninvasive for its kept
    outcome and the two must be operationally equivalent. On each run
    one of the two is chosen with probability 1/2 and the run is kept
    only when the chosen measurement produced its kept outcome.
    """
    (name_a, q_a), (name_b, q_b) = keep_first, keep_second
    meas_a = model.measurement(name_a)
    meas_b = model.measurement(name_b)

    equivalent, dev = measurements_equivalent(model, name_a, name_b, probes)
    if not equivalent:
        raise PreconditionError(
            f"measurements {name_a!r} and {name_b!r} are not operationally "
            f"equivalent on the declared probes (deviation {dev:.3g})"
        )
    for meas, q in ((meas_a, q_a), (meas_b, q_b)):
        ok, deviation = is_ontically_noninvasive(meas, for_outcome=q)
        if not ok:
            raise PreconditionError(
                f"measurement {meas.label!r} is not ontically noninvasive for "
                f"outcome {q!r} (deviation {deviation:.3g})"
            )

    records = []
    for prep_name, dist in model.preparations.items():
        half = {label: 0.5 * w for label, w in dist.weights.items()}
        kept = {
            label: w * (meas_a.response.row(label)[q_a] + meas_b.response.row(label)[q_b])
            for label, w in half.items()
        }
        post = measure(half, meas_a, (q_a,))
        for label, w in measure(half, meas_b, (q_b,)).items():
            post[label] = post.get(label, 0.0) + w
        keep_probability = sum(kept.values())
        if keep_probability <= 0.0:
            raise ModelError(
                f"post-selection keeps no runs for preparation {prep_name!r}"
            )
        conditioned = Distribution(
            model.space, {k: v / keep_probability for k, v in post.items()}
        )
        reference = Distribution(
            model.space, {k: v / keep_probability for k, v in kept.items()}
        )
        records.append(
            PostSelectionRecord(
                preparation=prep_name,
                keep_probability=keep_probability,
                conditioned=conditioned,
                deviation_from_input=conditioned.total_variation(dist),
                update_consistency=conditioned.total_variation(reference),
            )
        )
    worst_input = max(r.deviation_from_input for r in records)
    worst_update = max(r.update_consistency for r in records)
    return PostSelectionResult(
        kept_outcomes=((name_a, q_a), (name_b, q_b)),
        records=tuple(records),
        matches_input=worst_input <= tol,
        consistent=worst_update <= tol,
        max_deviation_from_input=worst_input,
        max_update_inconsistency=worst_update,
    )
