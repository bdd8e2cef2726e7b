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
import math
from array import array
from operator import add, mul
from typing import Optional

from .core import (
    NORMALIZATION_TOL,
    Distribution,
    OnticModel,
    _Record,
    check_size,
    distance,
    dots,
    is_ontically_noninvasive,
    summed,
)
from .errors import EngineDefectError, ModelError, PreconditionError, ValidationError
from .operational import (
    EQUIVALENCE_TOL,
    JointDistribution,
    ObservableAssignment,
    Protocol,
    ProtocolStep,
    expectation,
    measurements_equivalent,
    run_protocol,  # noqa: F401  (perfbench's instrumentation test reads lg.run_protocol)
    run_protocols,
    walk,
)

#: The float noise floor: the largest d3 entry allowed and the least ``tol``
#: of the chain. No run compares the decomposition residual with it: the lg
#: command gates that at ``cli.RESIDUAL_GATE``.
RESIDUAL_TOL = 1e-12

#: Float noise allowed on the trivial all-performed bound and on the
#: post-selection match.
BOUND_TOL = 1e-12

#: Perform masks of an arrangement's four runs: all three measurements,
#: then each pair with the remaining one skipped.
MASKS = {
    "all": (True, True, True),
    "12": (True, True, False),
    "13": (True, False, True),
    "23": (False, True, True),
}


class LgArrangement(_Record):
    """A preparation, two interleaved evolutions and three binary measurements.

    Each is named by its declaration in ``model``; an evolution may be None.

    The three two-measurement sub-experiments reuse the same
    preparation and transformation objects by construction: every run is
    derived from one protocol template with a different perform mask, so
    the runs performing the first measurement share its split and the
    first push, which ``run_protocols`` walks once.
    """

    model: OnticModel
    preparation: str
    transformations: tuple  # (t1, t2), names or None
    measurements: tuple  # (m1, m2, m3) names
    assignment: ObservableAssignment

    def __init__(self, model, preparation, transformations, measurements, assignment):
        if len(transformations) != 2 or len(measurements) != 3:
            raise ValidationError("arrangement needs two transformations and three measurements")
        model.preparation(preparation)
        for t in transformations:
            if t is not None:
                model.transformation(t)
        for m_name in measurements:
            measurement = model.measurement(m_name)
            if len(measurement.outcomes) != 2:
                raise ValidationError(f"measurement {m_name!r} is not binary")
            values = sorted(assignment.value(m_name, q) for q in measurement.outcomes)
            if values != [-1, 1]:
                raise ValidationError(
                    f"assignment for {m_name!r} must map its outcomes onto -1 and +1"
                )
        vars(self).update(model=model, preparation=preparation, transformations=transformations,
                          measurements=measurements, assignment=assignment)

    def protocol(self, mask=MASKS["all"]) -> Protocol:
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


def lg_value_pairwise(arrangement: LgArrangement) -> float:
    """Sum of the three pair correlators across the two-measurement sub-experiments.

    Each sub-experiment skips one measurement; preparation and
    transformations are identical in all three. The value is the
    ``lg_pairwise`` field of ``disturbance_report``, so it walks all four
    protocol runs and needs each of them defined; it raises where a run
    is undefined or a report gate fails.
    """
    return disturbance_report(arrangement).lg_pairwise


class DisturbanceReport(_Record):
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
    the report records the residual of that identity, which vanishes up
    to float rounding for every finite model (the lg command refuses one
    above ``cli.RESIDUAL_GATE``). The four ``MASKS`` runs come from one
    ``run_protocols`` call, which walks their shared prefixes once.
    """
    asg = arrangement.assignment
    v1, v2, v3 = values = [arrangement.value_map(i) for i in range(3)]
    j_all, j_12, j_13, j_23 = run_protocols(
        arrangement.model, [arrangement.protocol(mask) for mask in MASKS.values()])

    pairs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    tables = [(_pair_value_table(j_skipped, 0, 1, values[a], values[b]),
               _pair_value_table(j_all, a, b, values[a], values[b]))
              for j_skipped, a, b in ((j_23, 1, 2), (j_13, 0, 2), (j_12, 0, 1))]
    # d_k: the table of the run skipping measurement k minus the all-performed table
    d1, d2, d3 = ({k: skipped[k] - performed[k] for k in pairs} for skipped, performed in tables)

    for name, table in (("d1", d1), ("d2", d2)):
        balance = sum(table.values())
        if not (abs(balance) <= NORMALIZATION_TOL):  # each table compared sums to 1 within it
            raise EngineDefectError(f"{name} entries sum to {balance!r}, expected 0")
    worst_d3 = max(abs(v) for v in d3.values())
    if not (worst_d3 <= RESIDUAL_TOL):
        raise EngineDefectError(
            f"performing the final measurement shifted earlier statistics by {worst_d3!r}"
        )

    lg_all = (expectation(j_all, asg, axes=[0, 1]) + expectation(j_all, asg, axes=[0, 2])
              + expectation(j_all, asg, axes=[1, 2]))
    if not (-1.0 - BOUND_TOL <= lg_all <= 3.0 + BOUND_TOL):
        raise EngineDefectError(
            f"all-performed correlation sum {lg_all!r} escaped the [-1, 3] bound"
        )
    lg_pair = (expectation(j_12, asg, axes=[0, 1]) + expectation(j_13, asg, axes=[0, 1])
               + expectation(j_23, asg, axes=[0, 1]))
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


class OpndResult(_Record):
    """Outcome of one operational non-disturbance comparison."""

    non_disturbing: bool
    max_deviation: float


def _settled(model: OnticModel, measurement) -> bool:
    """Whether ``measurement`` leaves every state exactly in place and no walk can miss a row:
    every kernel's and measurement's form is ``complete`` (see ``core.Form``)."""
    return measurement.form.in_place and all(
        part.form.complete for parts in (model.transformations, model.measurements)
        for part in parts.values())


def _suffix_effects(model: OnticModel, memo: dict, suffixes) -> dict:
    """The effects of each suffix and of its tails, keyed by suffix.

    A suffix's effects are one per outcome sequence r, in product order:
    E_r(s) is the probability that the suffix's measurements read r,
    starting from ontic state s. They are built backwards: the effects
    of ``(t, m) + rest`` are those of ``rest`` pulled through m's
    selective update for each outcome and then through t, and the last
    measurement contributes only its response, since nothing after it
    observes its update. Suffixes sharing a tail share its effects, and
    ``memo`` keeps each of their bases' dots with m's update rows, however
    many transformations precede m.
    """
    tails = dict.fromkeys(suffix[k:] for suffix in suffixes for k in range(len(suffix)))
    effects: dict = {(): [(1.0, array("d", [1.0]) * len(model.space))]} if () in suffixes else {}
    for tail in sorted(tails, key=len):
        (t, m_name), rest = tail[0], tail[1:]
        form = model.measurement(m_name).form
        pulled = (form.pull(effects[rest], memo) if rest
                  else [(1.0, base) for base in form.responses.values()])
        effects[tail] = pulled if t is None else model.transformation(t).form.pull(pulled, memo)
    return effects


def _disturbances(memo: dict, measurement, effects, bases: dict) -> tuple:
    """D_r = sum_q P_q E_r - E_r for each effect E_r, P_q the pull through outcome q's update.

    The sum is E_r read after the measurement with its outcome ignored.
    Returns the D_r as sums of terms, in layers: each layer is a list of
    (coefficient, base number) pairs with one term of every D_r. When no
    outcome of the measurement is in ``shared`` and every E_r has
    coefficient 1, each D_r(s) is <N_s, E_r> - E_r(s), read in one pass
    through the form's ``nonselective`` rows N_s, and is one array, in
    one layer of coefficients 1. Otherwise there is one layer per
    outcome, pulled through its selective update, and one of -E_r. ``bases``
    maps id(base) to (number, base), numbered from 0 in order of first
    use, so that a base shared by several terms is dotted once.
    """
    form = measurement.form
    if not form.shared and all(c == 1.0 for c, _ in effects):
        layers = [[(1.0, _shifted(form.nonselective, e)) for _, e in effects]]
    else:
        pulled = form.pull(effects, memo)  # outcome-major
        n = len(effects)
        layers = [pulled[k:k + n] for k in range(0, len(pulled), n)]
        layers.append([(-c, e) for c, e in effects])
    return [[(c, bases.setdefault(id(e), (len(bases), e))[0]) for c, e in layer]
            for layer in layers]


def _shifted(rows, effect) -> array:
    """<N_s, E> - E(s) for each state s, through a form's ``nonselective`` rows."""
    return array("d", [sum(map(mul, weights, take(effect))) - e
                       for (weights, take), e in zip(rows, effect)])


def _deviation(by_base, layers) -> float:
    """Largest |<w_b, D_r>| over branches b and one suffix's ``_disturbances`` D_r.

    Each D_r is read from the branches' dots with the numbered bases, in
    number order, as a sum of coefficient * dot products, added layer by
    layer. A branch with a state outside the effects' domain makes its
    dot products NaN and raises ModelError: a forward walk would look up
    a missing row from there.
    """
    first, *rest = layers
    sums = [c * at[k] for at in by_base for c, k in first]
    for terms in rest:
        sums = list(map(add, sums, [c * at[k] for at in by_base for c, k in terms]))
    if any(map(math.isnan, sums)):
        raise ModelError("suffix statistics undefined on a branch reaching the measurement")
    return max(map(abs, sums))


def check_opnd(
    model: OnticModel,
    preparation: str,
    measurement: str,
    suffix,
    prefix=(),
    pre_transformation: Optional[str] = None,
) -> OpndResult:
    """Compare surrounding statistics with a measurement performed vs skipped.

    The protocol is: the declared preparation, the ``prefix`` (transformation,
    measurement) pairs all performed, then ``pre_transformation``
    followed by the checked measurement, then the ``suffix`` pairs all
    performed. The performed run applies the checked measurement's
    non-selective update (performed, outcome ignored), the skipped run
    leaves it out; the comparison is over the joint statistics of every
    other measurement, prefix outcomes included: the dot products of the
    branches reaching the measurement with the suffix's disturbance
    effects, non-disturbing to EQUIVALENCE_TOL. A context the model
    leaves undefined (a missing kernel, response or update row on the
    way) raises ModelError.
    """
    prefix = tuple(prefix)
    suffix = tuple(map(tuple, suffix))
    if not prefix and not suffix:
        raise ModelError("non-disturbance needs at least one surrounding measurement")
    meas = model.measurement(measurement)
    branches = walk(model, [(model.preparation(preparation).branch, ())],
                    [*prefix, (pre_transformation, None)])
    memo: dict = {}
    bases: dict = {}
    shifts = _disturbances(memo, meas, _suffix_effects(model, memo, [suffix])[suffix], bases)
    numbered = [base for _, base in bases.values()]
    worst = _deviation([dots(w, numbered) for w, _ in branches], shifts)
    return OpndResult(worst <= EQUIVALENCE_TOL, worst)


class OpndCompleteResult(_Record):
    """Bounded check of non-disturbance over every declared context.

    The quantifier is a decidable surrogate for "any preparation, any
    subsequent measurement": declared preparations, optionally extended
    by one performed declared measurement and one declared
    transformation before the checked measurement, crossed with all
    suffix sequences of declared (transformation, measurement) pairs up
    to ``depth``. The set covers an arrangement's specific contexts only
    when both its transformation slots are declared: a slot without a
    transformation puts a ``(None, measurement)`` step in a suffix, and
    no suffix here has one. ``max_deviation`` is the largest table
    deviation found. ``witness`` is the enumerated context (preparation,
    prefix, pre-transformation, suffix) that last raised the running
    maximum, so the first in enumeration order to reach it, or None
    when no enumerated context did. ``undefined_contexts`` counts the
    contexts skipped because the model leaves them undefined.
    ``settled`` is true when the measurement was settled without walking
    any context (see ``check_opnd_complete``).
    """

    non_disturbing: bool
    max_deviation: float
    witness: Optional[tuple]
    depth: int
    preparations: tuple
    undefined_contexts: int
    settled: bool


def check_opnd_complete(model: OnticModel, measurement: str, depth: int = 2) -> OpndCompleteResult:
    """Check non-disturbance over every bounded declared context.

    The measurement is settled, with no context walked, when the model
    declares every row a walk may look up and the measurement's update
    leaves every state exactly in place. Otherwise each preparation's
    prefixes are each walked forward once, and the branches a prefix
    leaves are pushed through each pre-transformation to the measurement.
    The effects are read once at each distinct support those branches
    reach, and a context's deviation is the largest
    |<w_b, D_r>| over branches b and outcome sequences r, where D_r is
    the suffix's effect E_r (a response function pulled back through
    the suffix) pulled back through the measurement performed with its
    outcome ignored, minus E_r. A context is undefined, and skipped and
    counted, when the forward walk would look up a missing row. The
    measurement is non-disturbing when the largest deviation is at most
    EQUIVALENCE_TOL. ``depth`` must be at least 1.
    """
    return _complete(model, (measurement,), depth, EQUIVALENCE_TOL)[measurement]


def _complete(model: OnticModel, measurements, depth, tol) -> dict:
    """``check_opnd_complete`` of each measurement, with the forward work shared by all of them.

    Each of a preparation's prefixes is walked once; a prefix the model
    leaves undefined counts every context of every head that shares it.
    Each unsettled measurement's D_r are made once per suffix (see
    ``_disturbances``), through its non-selective rows where it has no
    shared outcome. The numbered bases are read once at each distinct
    support of the branches reaching the measurement, and each branch
    dots them once.
    """
    if depth < 1:
        raise ValidationError(f"suffix depth {depth!r} is below 1, so no context has a suffix")
    # the suffixes of length L carry (|T| * sum over m of |outcomes(m)|)^L effects D_r
    steps = len(model.transformations) * sum(len(m.outcomes) for m in model.measurements.values())
    check_size(f"--depth {depth}", "suffix effects", steps, steps, depth)
    preparations = tuple(model.preparations)
    checked = {m: model.measurement(m) for m in measurements}
    alphabet = [(t, m) for t in model.transformations for m in model.measurements]
    lengths = range(1, depth + 1) if alphabet else ()  # no step makes no suffix of any length
    suffixes = [seq for length in lengths for seq in itertools.product(alphabet, repeat=length)]
    prefixes = [()] + [((None, m),) for m in model.measurements]
    pre_ts = [None] + list(model.transformations)

    worst = dict.fromkeys(checked, 0.0)
    witness = dict.fromkeys(checked)
    undefined = dict.fromkeys(checked, 0)
    left = [m for m, meas in checked.items() if not _settled(model, meas)]
    memo: dict = {}  # of the pulls, per base and form (see core)
    effects = _suffix_effects(model, memo, suffixes) if left else {}
    bases: dict = {}  # of every D_r's terms, dotted once per branch and head
    shifts = {m: {s: _disturbances(memo, checked[m], effects[s], bases) for s in suffixes}
              for m in left}
    numbered = [base for _, base in bases.values()]
    gathered: dict = {}  # the numbered bases at each distinct branch support (see core.dots)
    for prep_name in preparations if left else ():
        packed = [(model.preparation(prep_name).branch, ())]
        for prefix in prefixes:
            try:
                walked = walk(model, packed, prefix)
            except ModelError:  # so no measurement is settled: that needs every row declared
                undefined = {m: n + len(suffixes) * len(pre_ts) for m, n in undefined.items()}
                continue
            for pre_t in pre_ts:
                try:
                    branches = walk(model, walked, [(pre_t, None)])
                except ModelError:
                    undefined = {m: n + len(suffixes) for m, n in undefined.items()}
                    continue
                by_base = [dots(w, numbered, gathered) for w, _ in branches]
                for m in left:
                    for suffix in suffixes:
                        try:
                            deviation = _deviation(by_base, shifts[m][suffix])
                        except ModelError:
                            undefined[m] += 1
                            continue
                        if deviation > worst[m]:
                            worst[m] = deviation
                            witness[m] = (prep_name, prefix, pre_t, suffix)
    return {m: OpndCompleteResult(worst[m] <= tol, worst[m], witness[m], depth, preparations,
                                  undefined[m], m not in left) for m in checked}


class ChainRecord(_Record, uncompared=("report", "details")):
    """Truth values along the noninvasiveness -> inequality chain.

    The four stages are: both early measurements ontically noninvasive;
    both operationally non-disturbing in every declared bounded context
    (and in the arrangement's own, when a slot has no transformation);
    both non-disturbing in the specific arrangement contexts; and the
    pairwise inequality satisfied. Every forward implication is asserted
    when the record is built. ``report`` is the disturbance report the
    last two stages read. Neither it nor ``details`` takes part in
    equality.
    """

    ontically_noninvasive: bool
    opnd_complete: bool
    opnd_specific: bool
    lgi_satisfied: bool
    lg_pairwise: float
    report: DisturbanceReport
    details: dict

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
    """Evaluate the four chain stages and assert no forward implication fails.

    The specific stage reads the disturbance report of the arrangement's
    own runs: ``d1`` and ``d2`` are the first and second measurements
    performed vs skipped in their own contexts, and both must vanish to
    ``tol``. The inequality stage reads the report's pairwise value.
    ``depth`` must be at least 2: the complete check then covers both
    specific contexts (the first measurement's suffix has length 2) when
    both transformation slots are declared, so complete non-disturbance
    implies specific non-disturbance. A slot without a transformation
    puts its contexts outside the complete check's set, so the complete
    stage then also requires the specific stage. ``tol`` must be at least
    RESIDUAL_TOL: the stages compare float sums, whose rounding noise
    (about 1e-17 on an identity update) would otherwise decide them.
    """
    if depth < 2:
        raise ValidationError(
            f"suffix depth {depth!r} is below 2, so the complete check would not "
            "cover the arrangement's own length-2 suffix"
        )
    if not tol >= RESIDUAL_TOL:
        raise ValidationError(f"tolerance {tol!r} is below the float noise floor {RESIDUAL_TOL}")
    model = arrangement.model
    m1, m2, _ = arrangement.measurements
    report = disturbance_report(arrangement)
    early = dict.fromkeys((m1, m2))  # a repeated measurement is checked once
    oni = {m: is_ontically_noninvasive(model.measurement(m)) for m in early}
    complete = _complete(model, early, depth, tol)
    specific = tuple(max(map(abs, d.values())) for d in (report.d1, report.d2))
    opnd_specific = all(deviation <= tol for deviation in specific)
    opnd_complete = all(result.non_disturbing for result in complete.values())
    if None in arrangement.transformations:
        opnd_complete = opnd_complete and opnd_specific

    record = ChainRecord(
        ontically_noninvasive=all(ok for ok, _ in oni.values()),
        opnd_complete=opnd_complete,
        opnd_specific=opnd_specific,
        lgi_satisfied=report.lg_pairwise >= -1.0 - tol,
        lg_pairwise=report.lg_pairwise,
        report=report,
        details={
            "oni_deviations": (oni[m1][1], oni[m2][1]),
            "complete": (complete[m1], complete[m2]),
            "specific": specific,
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


class PostSelectionRecord(_Record):
    """Per-preparation outcome of the keep/discard construction."""

    preparation: str
    keep_probability: float
    conditioned: Distribution
    deviation_from_input: float
    update_consistency: float


class PostSelectionResult(_Record):
    """The composed coin-flip + keep/discard process and its verification.

    ``matches_input`` holds when the kept-branch ontic distribution
    reproduces the input preparation to BOUND_TOL (the composite acts as a
    totally noninvasive process); ``consistent`` holds when the
    end-to-end updated kept distribution agrees with the untouched
    kept-branch weights, which the partial-noninvasiveness precondition
    guarantees row by row.
    """

    records: tuple
    matches_input: bool
    consistent: bool
    max_deviation_from_input: float
    max_update_inconsistency: float


def post_select_noninvasive(model: OnticModel, keep_first, keep_second) -> PostSelectionResult:
    """Verify the fair-choice + post-selection composite on every preparation.

    ``keep_first`` and ``keep_second`` are (measurement name, kept
    outcome) pairs; each measurement must be noninvasive for its kept
    outcome and the two must be operationally equivalent on every
    declared probe. On each run one of the two is chosen with
    probability 1/2 and the run is kept only when the chosen
    measurement produced its kept outcome.
    """
    (name_a, q_a), (name_b, q_b) = keep_first, keep_second
    meas_a = model.measurement(name_a)
    meas_b = model.measurement(name_b)

    equivalent, dev = measurements_equivalent(model, name_a, name_b)
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

    xi_a, xi_b = meas_a.form.responses[q_a], meas_b.form.responses[q_b]
    records = []
    for prep_name, dist in model.preparations.items():
        positions, weights = dist.branch
        half = positions, [0.5 * w for w in weights]
        kept = [w * (xi_a[i] + xi_b[i]) for i, w in zip(*half)]
        post = summed([meas_a.form.measure(half, q_a), meas_b.form.measure(half, q_b)])
        keep_probability = sum(kept)
        if keep_probability <= 0.0:
            raise ModelError(
                f"post-selection keeps no runs for preparation {prep_name!r}"
            )
        conditioned = Distribution(model.space, model.space.unpack(
            (post[0], [v / keep_probability for v in post[1]])))
        reference = positions, [v / keep_probability for v in kept]
        records.append(
            PostSelectionRecord(
                preparation=prep_name,
                keep_probability=keep_probability,
                conditioned=conditioned,
                deviation_from_input=conditioned.total_variation(dist),
                update_consistency=distance(conditioned.branch, reference),
            )
        )
    worst_input = max(r.deviation_from_input for r in records)
    worst_update = max(r.update_consistency for r in records)
    return PostSelectionResult(
        records=tuple(records),
        matches_input=worst_input <= BOUND_TOL,
        consistent=worst_update <= BOUND_TOL,
        max_deviation_from_input=worst_input,
        max_update_inconsistency=worst_update,
    )
