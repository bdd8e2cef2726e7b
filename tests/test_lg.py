import itertools
import math
from array import array

import numpy as np
import pytest

from lglab import core, lg, operational, zoo
from lglab import (
    EQUIVALENCE_TOL,
    Distribution,
    Measurement,
    MeasurementUpdate,
    ModelError,
    ObservableAssignment,
    OnticModel,
    OnticStateSpace,
    PreconditionError,
    Protocol,
    ProtocolStep,
    ResponseFunction,
    TransformationKernel,
    LgArrangement,
    ValidationError,
    check_implication_chain,
    check_opnd,
    check_opnd_complete,
    disturbance_report,
    lg_value_pairwise,
    marginalize,
    post_select_noninvasive,
    run_protocol,
)
import reference_walk
from builders import replace
from random_models import (
    identity_with_shared_rows,
    random_arrangement,
    with_update,
    without_last_row,
)
from lglab.zoo import (
    build_qubit_arrangement,
    build_superselected_arrangement,
)

PLUS, MINUS = "+1", "-1"
TWO_THIRDS_PI = 2.0 * math.pi / 3.0


def deterministic_chain(flip1: bool, flip2: bool) -> LgArrangement:
    """A two-state chain with deterministic flips and exact, identity-update readout."""
    arr = build_superselected_arrangement(1.0 if flip1 else 0.0, 1.0 if flip2 else 0.0)
    return arr


class TestAllThreeValue:
    def test_constant_history_reaches_upper_bound(self):
        report = disturbance_report(deterministic_chain(False, False))
        assert report.lg_all_three == pytest.approx(3.0)

    def test_alternating_history_reaches_lower_bound(self):
        # history (+1, -1, +1): the two adjacent products are -1, the outer +1
        report = disturbance_report(deterministic_chain(True, True))
        assert report.lg_all_three == pytest.approx(-1.0)

    def test_qubit_all_three_never_violates(self):
        arr = build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI)
        value = disturbance_report(arr).lg_all_three
        # cos t1 + cos t2 + cos t1 cos t2 = -0.75 at 2*pi/3
        assert value == pytest.approx(-0.75, abs=1e-12)
        assert value >= -1.0 - 1e-12

    def test_bound_on_random_models(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            value = disturbance_report(random_arrangement(rng)).lg_all_three
            assert -1.0 - 1e-12 <= value <= 3.0 + 1e-12


class TestPairwiseValue:
    def test_classical_chain_hand_correlators(self):
        # adjacent correlators 1 - 2p, outer 1 - 2*2p(1-p)
        arr = build_superselected_arrangement(0.25, 0.25)
        assert lg_value_pairwise(arr) == pytest.approx(0.5 + 0.25 + 0.5, abs=1e-12)

    def test_qubit_violation_at_two_thirds_pi(self):
        arr = build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI)
        assert lg_value_pairwise(arr) == pytest.approx(-1.5, abs=1e-9)

    def test_noninvasive_updates_make_pairwise_equal_all_three(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            arr = random_arrangement(rng, noninvasive_early=True)
            assert lg_value_pairwise(arr) == pytest.approx(
                disturbance_report(arr).lg_all_three, abs=1e-12
            )


class TestDisturbanceReport:
    def test_noninvasive_updates_zero_out_tables(self):
        rng = np.random.default_rng(29)
        arr = random_arrangement(rng, noninvasive_early=True)
        report = disturbance_report(arr)
        assert report.max_disturbance() <= 1e-12

    def test_qubit_half_pi_middle_reading_shift(self):
        # skipping the middle reading lets the two quarter turns compose into
        # a half turn: outer (+,+) probability 0, against 0.5 with it present
        arr = build_qubit_arrangement(math.pi / 2.0, math.pi / 2.0)
        report = disturbance_report(arr)
        assert report.d2[(1, 1)] == pytest.approx(-0.5, abs=1e-12)

    def test_decomposition_residual_vanishes_on_random_models(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            report = disturbance_report(random_arrangement(rng))
            assert abs(report.decomposition_residual) <= 1e-12
            assert abs(sum(report.d1.values())) <= 1e-9
            assert abs(sum(report.d2.values())) <= 1e-9

    def test_violation_requires_disturbance(self):
        rng = np.random.default_rng(37)
        reports = [disturbance_report(random_arrangement(rng)) for _ in range(60)]
        reports += [
            disturbance_report(build_qubit_arrangement(*rng.uniform(0, 2 * math.pi, 2)))
            for _ in range(20)
        ]
        seen_violation = False
        for report in reports:
            if report.lg_pairwise < -1.0 - 1e-9:
                seen_violation = True
                assert report.max_disturbance() > 0.0
        assert seen_violation

    def test_lg_values_are_the_report_fields(self):
        # every zoo arrangement at its defaults, and seeded identity and invasive random ones
        builds = (zoo.build(name) for name, _ in zoo.list_models())
        arrangements = [build.arrangement for build in builds if build.arrangement is not None]
        rng = np.random.default_rng(43)
        arrangements += [random_arrangement(rng, noninvasive_early=k % 2 == 0) for k in range(20)]
        for arr in arrangements:
            report = disturbance_report(arr)
            assert lg_value_pairwise(arr) == report.lg_pairwise

    def test_a_report_builds_each_pair_value_table_once(self, monkeypatch):
        built = []
        real = lg._pair_value_table
        monkeypatch.setattr(lg, "_pair_value_table",
                            lambda joint, i, j, *values: built.append((id(joint), i, j))
                            or real(joint, i, j, *values))
        disturbance_report(build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI))
        assert len(built) == len(set(built)) == 6


class TestOpnd:
    def test_noninvasive_measurement_never_disturbs(self):
        arr = build_superselected_arrangement(0.3, 0.1)
        result = check_opnd(
            arr.model, "prep-mixed", "read", suffix=[("flip1", "read"), ("flip2", "read")]
        )
        assert result.non_disturbing and result.max_deviation <= 1e-12

    def test_reading_an_eigenstate_is_undetectable(self, spin_model):
        result = check_opnd(spin_model, "zero", "Mz", suffix=[("id", "Mz")])
        assert result.non_disturbing

    def test_collapse_destroys_transverse_statistics(self, spin_model):
        result = check_opnd(spin_model, "plus", "Mz", suffix=[("id", "Mx")])
        assert not result.non_disturbing
        assert result.max_deviation == pytest.approx(0.5, abs=1e-12)

    def test_complete_check_true_for_identity_updates(self):
        arr = build_superselected_arrangement(0.3, 0.1)
        result = check_opnd_complete(arr.model, "read")
        assert result.non_disturbing

    def test_complete_check_finds_projective_witness(self, spin_model):
        result = check_opnd_complete(spin_model, "Mz")
        assert not result.non_disturbing
        prep, _, _, suffix = result.witness
        assert prep == "plus"
        assert any(m == "Mx" for _, m in suffix)

    def test_complete_check_at_depth_one_sees_the_projective_disturbance(self):
        model = build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI).model
        result = check_opnd_complete(model, "Mz", depth=1)
        assert not result.non_disturbing
        assert result.max_deviation == pytest.approx(0.375, abs=1e-12)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_complete_check_refuses_depth_below_one(self, depth):
        # no suffix would be enumerated, so nothing could be found disturbing
        model = build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI).model
        with pytest.raises(ValidationError, match=f"depth {depth}"):
            check_opnd_complete(model, "Mz", depth=depth)

    def test_a_model_without_transformations_builds_no_suffix_length(self, lines_run):
        # without a (transformation, measurement) step no suffix has any length, so the
        # check costs the same at every depth
        model = zoo.build("support-mr-minimal").model
        shallow, deep = (lines_run(lg._complete, model, tuple(model.measurements), depth,
                                   EQUIVALENCE_TOL) for depth in (2, 10**3))
        assert deep == shallow

    def test_effects_are_built_only_when_a_context_needs_them(self, monkeypatch):
        calls = []
        original = lg._suffix_effects

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lg, "_suffix_effects", counted)
        rng = np.random.default_rng(13)
        identity = random_arrangement(rng, noninvasive_early=True).model
        invasive = random_arrangement(rng).model
        # the model declares every row and M1's update leaves every state in place,
        # which settles M1 without a walk
        settled = check_opnd_complete(identity, "M1")
        assert settled.non_disturbing and settled.settled
        assert calls == []
        for expected in (1, 2):
            assert not check_opnd_complete(invasive, "M1").settled
            assert len(calls) == expected

    def test_effects_through_a_forgetful_update_share_their_bases(self, monkeypatch):
        # ks-sphere's Mz update is one shared row per outcome, so every effect
        # past it is a coefficient on xi(+-|.) or on their pulls through
        # rot1 and rot2: a deeper suffix builds no new base
        model = zoo.build("ks-sphere", n_points=200).model
        # compile the positional forms first, so that only the checks' own arrays are counted
        for component in (*model.transformations.values(), *model.measurements.values()):
            assert component.form is component.form
        built = []

        def counted(*args):
            built.append(args[0])
            return array(*args)

        monkeypatch.setattr(core, "array", counted)
        monkeypatch.setattr(lg, "array", counted)
        counts = []
        for depth in (2, 3):
            built.clear()
            check_opnd_complete(model, "Mz", depth=depth)
            counts.append(len(built))
        assert 0 < counts[1] <= counts[0]

    def test_a_second_check_compiles_no_form(self, monkeypatch):
        # each kernel and measurement is compiled once, on first use, and keeps its form
        arr = random_arrangement(np.random.default_rng(7))
        compiled = []
        original = core.Form
        monkeypatch.setattr(core, "Form", lambda *args: compiled.append(args) or original(*args))
        suffix = [("T1", "M2"), ("T2", "M3")]
        check_opnd(arr.model, "E", "M1", suffix)
        check_implication_chain(arr)
        assert len(compiled) == len(arr.model.transformations) + len(arr.model.measurements)
        compiled.clear()
        check_opnd(arr.model, "E", "M1", suffix)
        check_implication_chain(arr)
        assert compiled == []

    def test_the_chain_walks_each_prefix_once_and_reads_each_support_once(self, monkeypatch):
        # ks-sphere checks Mz after 3 preparations, 2 prefixes and 3 pre-transformations:
        # each (preparation, prefix) is walked once and its branches pushed through each
        # pre-transformation, and the bases are read once at each support the branches reach
        arr = zoo.build("ks-sphere", n_points=100).arrangement
        model = arr.model
        check_implication_chain(arr)  # compile the forms, so that only the checks' work counts
        prefixes = [(), ((None, "Mz"),)]
        walked = {(prep, prefix): operational.walk(
                      model, [(model.space.pack(dist.weights), ())], prefix)
                  for prep, dist in model.preparations.items() for prefix in prefixes}
        supports = {tuple(w[0]) for branches in walked.values()
                    for t in (None, *model.transformations)
                    for w, _ in operational.walk(model, branches, [(t, None)])}
        running, measured, read = [], [], []  # the calls in progress; measures and reads counted
        complete, measure, gather = lg._complete, core.Form.measure, core._gather

        def counted_complete(*args):
            running.append(complete)
            try:
                return complete(*args)
            finally:
                running.pop()

        def counted_measure(form, branch, outcome):
            if running:
                measured.append((form, outcome))
            running.append(measure)
            try:
                return measure(form, branch, outcome)
            finally:
                running.pop()

        def counted_gather(positions):
            if running == [complete]:  # within _complete and outside a measure: a dot product's
                read.append(tuple(positions))
            return gather(positions)

        monkeypatch.setattr(lg, "_complete", counted_complete)
        monkeypatch.setattr(core.Form, "measure", counted_measure)
        monkeypatch.setattr(core, "_gather", counted_gather)
        check_implication_chain(arr)
        mz = model.measurement("Mz").form
        # one walk of the prefix (None, Mz) per preparation measures each outcome once
        assert sum(form is mz for form, _ in measured) == len(model.preparations) * 2
        for kernel in model.transformations.values():
            pushes = sum(form is kernel.form for form, _ in measured)
            assert pushes == sum(map(len, walked.values()))
        assert sorted(read) == sorted(supports)
        assert len(supports) < sum(map(len, walked.values())) * (1 + len(model.transformations))


def two_run_opnd(model, preparation, measurement, suffix, prefix=(), pre_transformation=None):
    """Reference definition: the performed run with the checked outcome summed out,
    against the run that skips the checked measurement, both walked by label."""
    outer = [ProtocolStep(t, m, True) for t, m in prefix]
    tail = [ProtocolStep(t, m, True) for t, m in suffix]

    def run(perform):
        steps = outer + [ProtocolStep(pre_transformation, measurement, perform)] + tail
        return reference_walk.run_protocol(model, Protocol(preparation, tuple(steps)))

    performed = run(True)
    keep = [i for i in range(len(performed.axes)) if i != len(prefix)]
    performed = marginalize(performed, keep)
    skipped = run(False)
    return max(abs(p - skipped.table[combo]) for combo, p in performed.table.items())


def two_run_contexts(model, measurement, depth=2):
    """Reference deviation of every bounded context, and the count left undefined."""
    alphabet = [(t, m) for t in model.transformations for m in model.measurements]
    suffixes = [
        seq for length in range(1, depth + 1) for seq in itertools.product(alphabet, repeat=length)
    ]
    deviations = {}
    undefined = 0
    for prep in model.preparations:
        for prefix in [()] + [((None, m),) for m in model.measurements]:
            for pre_t in [None, *model.transformations]:
                for suffix in suffixes:
                    try:
                        deviations[(prep, prefix, pre_t, suffix)] = two_run_opnd(
                            model, prep, measurement, suffix, prefix, pre_t
                        )
                    except ModelError:
                        undefined += 1
    return deviations, undefined


def without_response_row(model, measurement):
    """The model with one response lacking its row for the last ontic state."""
    meas = model.measurements[measurement]
    last = model.space.states[-1]
    response = ResponseFunction(
        model.space, meas.outcomes, {s: row for s, row in meas.response.table.items() if s != last}
    )
    return replace(
        model, measurements={**model.measurements,
                             measurement: Measurement(measurement, response, meas.update)}
    )


def kicked_toward_uniform(model, measurement, eps):
    """The model with each of a measurement's update rows mixed with weight ``eps`` of uniform."""
    meas = model.measurements[measurement]
    states = model.space.states
    rows = {
        key: Distribution(model.space, {s: (1.0 - eps) * row.weights.get(s, 0.0) + eps / len(states)
                                        for s in states})
        for key, row in meas.update.rows.items()
    }
    update = MeasurementUpdate(model.space, meas.outcomes, rows)
    return replace(
        model, measurements={**model.measurements,
                             measurement: Measurement(measurement, meas.response, update)}
    )


def without_update_row(model, measurement, impossible=False):
    """The model with one update lacking its row for (last state, MINUS).

    With ``impossible`` the response first gives MINUS probability 0 there,
    so that no walk looks the row up.
    """
    meas = model.measurements[measurement]
    last = model.space.states[-1]
    table = dict(meas.response.table)
    if impossible:
        table[last] = {PLUS: 1.0, MINUS: 0.0}
    update = MeasurementUpdate(
        model.space, meas.outcomes,
        {key: row for key, row in meas.update.rows.items() if key != (last, MINUS)},
    )
    response = ResponseFunction(model.space, meas.outcomes, table)
    return replace(
        model, measurements={**model.measurements,
                             measurement: Measurement(measurement, response, update)}
    )


def shared_row_outside_the_domain(model):
    """M1's PLUS row is shared and puts weight on the last state, where T1 has no row.

    PLUS is impossible at s0, so s0 does not use that row: contexts whose
    branches stay at s0, from the added preparation, remain defined.
    """
    space = model.space
    s0, *rest = space.states
    model = with_update(model, "M1",
                        {PLUS: Distribution(space, {s: 1.0 / len(rest) for s in rest}),
                         MINUS: Distribution.point_mass(space, s0)},
                        response={s0: {PLUS: 0.0, MINUS: 1.0}})
    model = without_last_row(model, "T1")
    return replace(
        model, preparations={**model.preparations, "at-s0": Distribution.point_mass(space, s0)})


def shared_and_per_state_rows(model):
    """M1 draws PLUS from one shared row and keeps its per-state MINUS rows."""
    rows = model.measurements["M1"].update.rows
    return with_update(model, "M1", {PLUS: model.preparations["E"]},
                       rows={key: row for key, row in rows.items() if key[1] == MINUS})


def shared_row_of_an_impossible_outcome(model):
    """M1's shared rows serve outcomes of probability 0 at s0 (MINUS) and s1 (PLUS)."""
    space = model.space
    s0, s1, *_ = space.states
    return with_update(model, "M1",
                       {PLUS: model.preparations["E"],
                        MINUS: Distribution(space, {s: 1.0 / len(space) for s in space.states})},
                       response={s0: {PLUS: 1.0, MINUS: 0.0}, s1: {PLUS: 0.0, MINUS: 1.0}})


def a_row_some_states_share(model):
    """T1 and M1's PLUS update send every state but the last to one row object, E."""
    space, row = model.space, model.preparations["E"]
    shared = dict.fromkeys(space.states[:-1], row)
    kernel = TransformationKernel(space, {**model.transformations["T1"].rows, **shared})
    rows = {**model.measurements["M1"].update.rows, **{(s, PLUS): row for s in shared}}
    model = with_update(model, "M1", {}, rows)
    return replace(model, transformations={**model.transformations, "T1": kernel})


def reset(model, kernel, row):
    """The model with one kernel sending every state to the same row object."""
    rows = dict.fromkeys(model.space.states, row)
    return replace(model, transformations={
        **model.transformations, kernel: TransformationKernel(model.space, rows)})


def reset_inside_the_domain(model):
    """T1 resets every state to the preparation E, where every later row is declared."""
    return reset(model, "T1", model.preparations["E"])


def reset_outside_the_domain(model):
    """T1 resets every state to the last one, where T2 has no row."""
    point = Distribution.point_mass(model.space, model.space.states[-1])
    return without_last_row(reset(model, "T1", point), "T2")


def declares_every_row(model) -> bool:
    """Every kernel and response row, and an update row for every outcome of nonzero
    probability, counted on the model's own tables rather than read from its forms."""
    n = len(model.space)

    def has_update(meas, state, outcome):
        try:
            return meas.update.row(state, outcome) is not None
        except ModelError:
            return False

    return all(len(kernel.rows) == n for kernel in model.transformations.values()) and all(
        len(meas.response.table) == n
        and all(has_update(meas, s, q) for s, row in meas.response.table.items()
                for q, p in row.items() if p != 0.0)
        for meas in model.measurements.values())


def _identity_model():
    return random_arrangement(np.random.default_rng(29), max_states=4,
                              noninvasive_early=True).model


#: (model, whether it declares every row): each zoo entry, and an identity model
#: as built and with the row mutations the non-disturbance tests use.
DECLARED_ROWS = [
    *((lambda name=name: zoo.build(name, **({"n_points": 200} if name == "ks-sphere" else {}))
       .model, None) for name, _ in zoo.list_models()),
    (_identity_model, True),
    (lambda: without_last_row(_identity_model(), "T2"), False),
    (lambda: without_response_row(_identity_model(), "M2"), False),
    (lambda: without_update_row(_identity_model(), "M2"), False),
    (lambda: without_update_row(_identity_model(), "M2", impossible=True), True),
    (lambda: identity_with_shared_rows().model, False),
    (lambda: shared_and_per_state_rows(_identity_model()), True),
    (lambda: shared_row_outside_the_domain(_identity_model()), False),
    (lambda: reset_inside_the_domain(_identity_model()), True),
]
DECLARED_ROWS_IDS = [*(name for name, _ in zoo.list_models()), "identity", "kernel-row",
                     "response-row", "update-row", "update-row-of-impossible-outcome",
                     "shared-rows", "shared-and-per-state-rows", "shared-row-outside-the-domain",
                     "reset"]


class TestSettledByForms:
    """The settling rule reads each form's ``complete`` flag, set when the form is compiled."""

    @pytest.mark.parametrize("build, declared", DECLARED_ROWS, ids=DECLARED_ROWS_IDS)
    def test_forms_are_complete_exactly_when_every_row_is_declared(self, build, declared):
        model = build()
        parts = [*model.transformations.values(), *model.measurements.values()]
        assert all(part.form.complete for part in parts) == declares_every_row(model)
        assert declared is None or declares_every_row(model) == declared
        n = len(model.space)
        for kernel in model.transformations.values():
            assert kernel.form.complete == (len(kernel.rows) == n)

    @pytest.mark.parametrize("build, _", DECLARED_ROWS, ids=DECLARED_ROWS_IDS)
    def test_a_measurement_is_settled_by_the_row_rule(self, build, _):
        model = build()
        for name, meas in model.measurements.items():
            settled = meas.form.in_place and declares_every_row(model)
            assert check_opnd_complete(model, name).settled == settled


class TestRunProtocolMatchesReferenceWalk:
    @pytest.mark.parametrize("mutate, raises", [
        (lambda model: model, False),
        (lambda model: without_last_row(model, "T1"), True),
        (lambda model: without_last_row(model, "T2"), True),
        (lambda model: without_response_row(model, "M1"), True),
        (lambda model: without_response_row(model, "M2"), True),
        (lambda model: without_update_row(model, "M1"), True),
        (lambda model: without_update_row(model, "M2"), True),
        (lambda model: without_update_row(model, "M2", impossible=True), False),
        (shared_row_outside_the_domain, True),
        (shared_and_per_state_rows, False),
        (shared_row_of_an_impossible_outcome, False),
        (reset_inside_the_domain, False),
        (reset_outside_the_domain, True),
        (a_row_some_states_share, False),
    ], ids=["none", "kernel-row-T1", "kernel-row-T2", "response-row-M1", "response-row-M2",
            "update-row-M1", "update-row-M2", "update-row-of-impossible-outcome",
            "shared-row-outside-the-domain", "shared-and-per-state-rows",
            "shared-row-of-an-impossible-outcome", "reset-inside-the-domain",
            "reset-outside-the-domain", "a-row-some-states-share"])
    def test_tables_equal_the_reference_walks(self, mutate, raises):
        # a walk that reaches a missing kernel, response or update row names it as the reference
        rng = np.random.default_rng(61)
        raised = 0
        for k in range(12):
            arr = random_arrangement(rng, max_states=5, noninvasive_early=k % 3 == 0)
            model = mutate(arr.model)
            for mask in lg.MASKS.values():
                protocol = arr.protocol(mask)
                try:
                    expected = reference_walk.run_protocol(model, protocol)
                except ModelError as error:
                    raised += 1
                    with pytest.raises(ModelError) as engine_error:
                        run_protocol(model, protocol)
                    assert str(engine_error.value) == str(error)
                    continue
                joint = run_protocol(model, protocol)
                assert joint.axes == expected.axes
                assert list(joint.table) == list(expected.table)
                assert max(abs(p - expected.table[c]) for c, p in joint.table.items()) <= 1e-15
        assert (raised > 0) == raises

    @pytest.mark.parametrize("component", ["Mz", "Mz-without-its-minus-row", "reset"])
    def test_a_row_several_states_draw_is_expanded_once(self, component):
        # the flows into ks-sphere's shared Mz row, also while Mz's MINUS row is missing, or
        # into a reset kernel's one row, are summed first and the row is expanded once: each
        # weight is the summed flow times p
        model = zoo.build("ks-sphere", n_points=200).model
        mz = model.measurements["Mz"]
        row, outcome, form = mz.update.outcome_rows[PLUS], PLUS, mz.form
        if component == "Mz-without-its-minus-row":
            update = MeasurementUpdate(model.space, mz.outcomes, outcome_rows={PLUS: row})
            form = Measurement("Mz", mz.response, update).form
            assert form.missing
        elif component == "reset":
            outcome = None
            form = TransformationKernel(model.space, dict.fromkeys(model.space.states, row)).form
        branch = model.space.pack(model.preparations["side"].weights)
        flow = sum(mass for i, w in zip(*branch) if (mass := w * form.responses[outcome][i]))
        expected = {model.space.position[s]: flow * p for s, p in row.weights.items()}
        assert dict(zip(*form.measure(branch, outcome))) == expected

    def test_a_shared_row_moves_in_one_step_while_another_row_is_missing(self, lines_run):
        # ks-sphere's Mz without its MINUS row, as a per-outcome file may declare it: the
        # PLUS flow reaches the shared row in one dot product, not one loop pass per state
        # (the result's one pass per entry of that row aside)
        model = zoo.build("ks-sphere", n_points=200).model
        mz = model.measurements["Mz"]
        row = mz.update.outcome_rows[PLUS]
        update = MeasurementUpdate(model.space, mz.outcomes, outcome_rows={PLUS: row})
        form = Measurement("Mz", mz.response, update).form
        assert form.missing
        whole = model.space.pack(model.preparations["up"].weights)
        small = (whole[0][:2], whole[1][:2])
        side = model.space.pack(model.preparations["side"].weights)  # MINUS states too
        assert len(whole[0]) > 50 and form.missing[0][0] in side[0]
        runs = [lines_run(form.measure, branch, PLUS) for branch in (small, whole, side)]
        assert runs[0] == runs[1] == runs[2] <= 20 + len(row.weights)

    @pytest.mark.parametrize("missing", ["response", "update"])
    def test_a_missing_row_is_named_before_the_shared_row_is_expanded(self, missing):
        # the last state reading PLUS lacks its response row, or its PLUS row while every
        # other state draws the one shared PLUS row: weight on every state names it as the
        # reference does, without expanding the shared row for the states before it
        model = zoo.build("ks-sphere", n_points=200).model
        mz = model.measurements["Mz"]
        last = [s for s, row in mz.response.table.items() if row[PLUS] == 1.0][-1]
        response, update = mz.response, mz.update
        if missing == "response":
            table = {s: row for s, row in response.table.items() if s != last}
            response = ResponseFunction(model.space, mz.outcomes, table)
        else:
            rows = {(s, PLUS): update.outcome_rows[PLUS] for s in model.space.states if s != last}
            update = MeasurementUpdate(model.space, mz.outcomes, rows,
                                       {MINUS: update.outcome_rows[MINUS]})
        measurement = Measurement("Mz", response, update)
        form, read = measurement.form, []

        class Reads(dict):
            def __getitem__(self, t):
                read.append(t)
                return dict.__getitem__(self, t)

        form.rows = Reads(form.rows)
        weights = dict.fromkeys(model.space.states, 1.0 / len(model.space))
        with pytest.raises(ModelError) as reference:
            reference_walk.measure(weights, measurement, (PLUS,))
        with pytest.raises(ModelError) as engine:
            form.measure(model.space.pack(weights), PLUS)
        assert str(engine.value) == str(reference.value) and repr(last) in str(engine.value)
        assert read == []


class TestOpndMatchesTwoRunDefinition:
    CONTEXTS = [
        # (measurement, suffix, prefix, pre-transformation)
        ("M1", [("T1", "M2"), ("T2", "M3")], (), None),
        ("M2", [("T2", "M3")], [(None, "M1")], "T1"),
        ("M2", [("T1", "M3"), ("T2", "M1")], [("T2", "M3")], None),
        ("M3", [], [(None, "M1"), ("T1", "M2")], "T2"),  # prefix only
    ]

    def test_check_opnd_on_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            model = random_arrangement(rng, max_states=5).model
            for measurement, suffix, prefix, pre_t in self.CONTEXTS:
                result = check_opnd(model, "E", measurement, suffix, prefix, pre_t)
                reference = two_run_opnd(model, "E", measurement, suffix, prefix, pre_t)
                assert abs(result.max_deviation - reference) <= 1e-15
                assert result.non_disturbing == (reference <= 1e-9)

    def test_a_context_needs_a_surrounding_measurement(self, spin_model):
        with pytest.raises(ModelError) as refusal:
            check_opnd(spin_model, "zero", "Mz", suffix=(), prefix=())
        assert str(refusal.value) == "non-disturbance needs at least one surrounding measurement"

    @pytest.mark.parametrize("partial", [False, True])
    def test_check_opnd_complete_on_random_models(self, partial):
        rng = np.random.default_rng(11)
        for _ in range(2):
            model = random_arrangement(rng, max_states=4).model
            if partial:
                model = without_last_row(model, "T2")
            deviations, undefined = two_run_contexts(model, "M1")
            worst = max(deviations.values())
            result = check_opnd_complete(model, "M1")
            assert result.undefined_contexts == undefined
            assert (undefined > 0) == partial
            assert abs(result.max_deviation - worst) <= 1e-15
            assert abs(deviations[result.witness] - worst) <= 1e-15
            assert result.non_disturbing == (worst <= 1e-9)

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("missing, undefined_expected", [
        (lambda model: without_response_row(model, "M2"), True),
        (lambda model: without_update_row(model, "M2"), True),
        (lambda model: without_update_row(model, "M2", impossible=True), False),
        # M1's pulls below go through one shared update row per outcome
        (shared_row_outside_the_domain, True),
        (shared_and_per_state_rows, False),
        (shared_row_of_an_impossible_outcome, False),
    ], ids=["response-row", "update-row", "update-row-of-impossible-outcome",
            "shared-row-outside-the-domain", "shared-and-per-state-rows",
            "shared-row-of-an-impossible-outcome"])
    def test_undefined_contexts_beyond_kernel_rows(self, missing, undefined_expected, depth):
        model = random_arrangement(np.random.default_rng(17), max_states=3).model
        # M1 and M2 alone keep the depth-3 reference enumeration small
        model = missing(replace(
            model, measurements={m: model.measurements[m] for m in ("M1", "M2")}))
        deviations, undefined = two_run_contexts(model, "M1", depth=depth)
        worst = max(deviations.values())
        result = check_opnd_complete(model, "M1", depth=depth)
        assert result.undefined_contexts == undefined
        assert (undefined > 0) == undefined_expected
        assert abs(result.max_deviation - worst) <= 1e-15
        assert result.witness == next(c for c, d in deviations.items() if d == worst)

    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("mutate, undefined_expected", [
        (reset_inside_the_domain, False),
        (reset_outside_the_domain, True),
    ], ids=["inside", "outside"])
    def test_contexts_through_a_reset_kernel(self, mutate, undefined_expected, depth):
        # T1's pulls are rank one, on a row inside or outside the domain. A reset forgets
        # what came before it, so contexts tie, and rounding picks the witness among them.
        model = random_arrangement(np.random.default_rng(17), max_states=3).model
        model = mutate(replace(
            model, measurements={m: model.measurements[m] for m in ("M1", "M2")}))
        deviations, undefined = two_run_contexts(model, "M1", depth=depth)
        worst = max(deviations.values())
        result = check_opnd_complete(model, "M1", depth=depth)
        assert result.undefined_contexts == undefined
        assert (undefined > 0) == undefined_expected
        assert abs(result.max_deviation - worst) <= 1e-15
        assert abs(deviations[result.witness] - worst) <= 1e-15

    @pytest.mark.parametrize("mutate", [reset_inside_the_domain, reset_outside_the_domain],
                             ids=["inside", "outside"])
    def test_a_reset_kernel_pulls_rank_one(self, mutate):
        # every state draws T1's one row, so an effect pulls back to <row, f> times xi(None | .)
        model = mutate(random_arrangement(np.random.default_rng(19), max_states=4).model)
        form = model.transformations["T1"].form
        row = model.transformations["T1"].rows[model.space.states[0]]
        f = array("d", np.random.default_rng(23).random(len(model.space)))
        [(c, base)] = form.pull([(2.0, f)], {})
        assert base is form.xi[None]
        assert c == 2.0 * core.dots(model.space.pack(row.weights), [f])[0]

    def test_identity_update_with_a_missing_suffix_row_counts_its_contexts(self):
        # M1 leaves every state in place, but T2 lacks a row that suffixes look up
        identity = random_arrangement(np.random.default_rng(3), max_states=4,
                                      noninvasive_early=True).model
        model = without_last_row(identity, "T2")
        deviations, undefined = two_run_contexts(model, "M1")
        result = check_opnd_complete(model, "M1")
        assert result.undefined_contexts == undefined == 408
        assert abs(result.max_deviation - max(deviations.values())) <= 1e-15
        assert result.non_disturbing

    def test_rounding_noise_of_an_identity_update_names_a_witness(self):
        # M2 leaves every state in place, so every context's true deviation is 0.
        # Effects past M1's shared rows are sums of coefficient * base terms, and a
        # pull through per-state rows keeps the coefficient; their rounding reads
        # 5.6e-17 here, and the first context to reach it is named.
        # This pins the summation order: changing it moves the value or the witness.
        model = identity_with_shared_rows().model
        result = check_opnd_complete(model, "M2")
        assert result.non_disturbing and result.undefined_contexts == 408
        assert result.max_deviation == 5.551115123125783e-17
        assert result.witness == ("E", (), None, (("T2", "M1"), ("T2", "M1")))

    def test_nearly_identity_update_reports_a_table_deviation(self):
        # nothing settles the heads, so the deviation and witness come from the tables
        identity = random_arrangement(np.random.default_rng(29), max_states=4,
                                      noninvasive_early=True).model
        model = kicked_toward_uniform(identity, "M1", 1e-11)
        deviations, undefined = two_run_contexts(model, "M1")
        worst = max(deviations.values())
        result = check_opnd_complete(model, "M1")
        assert result.undefined_contexts == undefined == 0
        assert abs(result.max_deviation - worst) <= 1e-15
        assert result.witness == next(c for c, d in deviations.items() if d == worst)
        assert result.non_disturbing

    def test_shared_update_rows_on_the_sphere_model(self):
        # ks-sphere's Mz update is one shared row per outcome (outcome_rows)
        model = zoo.build("ks-sphere", n_points=200).model
        deviations, undefined = two_run_contexts(model, "Mz", depth=3)
        worst = max(deviations.values())
        result = check_opnd_complete(model, "Mz", depth=3)
        assert result.undefined_contexts == undefined == 0
        assert abs(result.max_deviation - worst) <= 1e-15
        assert result.witness == next(c for c, d in deviations.items() if d == worst)
        assert result.non_disturbing == (worst <= 1e-9)


class TestImplicationChain:
    def test_noninvasive_model_is_all_true(self):
        record = check_implication_chain(build_superselected_arrangement(0.25, 0.25))
        assert record.as_tuple() == (True, True, True, True)

    def test_qubit_fails_every_stage(self):
        record = check_implication_chain(build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI))
        assert record.as_tuple() == (False, False, False, False)

    def test_disturbing_but_satisfying_fixture(self):
        fixture = zoo.build("lgi-holds-d-nonzero")
        record = check_implication_chain(fixture.arrangement)
        assert record.as_tuple() == (False, False, False, True)

    @pytest.mark.parametrize("tol", [0.0, 1e-20, 1e-16, 1e-13])
    def test_tolerance_below_the_residual_floor_is_refused(self, tol):
        # an identity update is settled at exactly 0, but the d-tables carry ~1e-17 of
        # rounding noise, which a tolerance this small would let decide the stages
        arr = random_arrangement(np.random.default_rng(5001), max_states=3, noninvasive_early=True)
        with pytest.raises(ValidationError, match="below the float noise floor 1e-12"):
            check_implication_chain(arr, tol=tol)
        assert check_implication_chain(arr, tol=lg.RESIDUAL_TOL).as_tuple() == (True,) * 4

    def test_details_do_not_depend_on_row_objects(self):
        # the two-path update collapses onto point masses; built from the space's
        # point masses, from one object per target state or from a fresh object per
        # state, it compiles alike, so every detail agrees to the last bit
        arr = zoo.build("bohm-two-path").arrangement
        model, space = arr.model, arr.model.space
        shared = {}
        rebuilds = (lambda s: shared.setdefault(s, Distribution(space, {s: 1.0})),
                    lambda s: Distribution(space, {s: 1.0}))
        details = [check_implication_chain(arr).details]
        for point in rebuilds:
            rows = {}
            for key, row in model.measurements["path"].update.rows.items():
                [target] = row.weights
                rows[key] = point(target)
            rebuilt = replace(arr, model=with_update(model, "path", None, rows))
            details.append(check_implication_chain(rebuilt).details)
        assert details[1] == details[0]
        assert details[2] == details[0]

    def test_chain_never_raises_on_random_models(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            check_implication_chain(random_arrangement(rng))
        for _ in range(20):
            record = check_implication_chain(random_arrangement(rng, noninvasive_early=True))
            assert record.as_tuple() == (True, True, True, True)

    def test_specific_stage_is_check_opnd_in_the_arrangements_own_contexts(self):
        rng = np.random.default_rng(43)
        arrangements = [
            random_arrangement(rng, noninvasive_early=identity)
            for identity in (False, True)
            for _ in range(6)
        ]
        for name, _ in zoo.list_models():
            built = zoo.build(name, **({"n_points": 200} if name == "ks-sphere" else {}))
            if built.arrangement is not None:
                arrangements.append(built.arrangement)
        for arr in arrangements:
            record = check_implication_chain(arr)
            (t1, t2), (m1, m2, m3) = arr.transformations, arr.measurements
            reference = (
                check_opnd(arr.model, arr.preparation, m1, suffix=[(t1, m2), (t2, m3)]),
                check_opnd(arr.model, arr.preparation, m2, suffix=[(t2, m3)],
                           prefix=[(None, m1)], pre_transformation=t1),
            )
            for deviation, result in zip(record.details["specific"], reference):
                assert abs(deviation - result.max_deviation) <= 1e-15
                assert (deviation <= EQUIVALENCE_TOL) == result.non_disturbing
            assert record.opnd_specific == all(r.non_disturbing for r in reference)

    def test_repeated_measurement_is_enumerated_once(self, monkeypatch):
        arr = random_arrangement(np.random.default_rng(8))
        repeated = replace(arr, measurements=("M1", "M1", "M3"))
        calls = []
        original = lg._complete

        def counted(model, measurements, *args):
            calls.append(tuple(measurements))
            return original(model, measurements, *args)

        monkeypatch.setattr(lg, "_complete", counted)
        record = check_implication_chain(repeated)
        assert calls == [("M1",)]
        first, second = record.details["complete"]
        assert first is second

    def test_early_measurements_share_one_effect_build(self, monkeypatch):
        calls = []
        original = lg._suffix_effects

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lg, "_suffix_effects", counted)
        record = check_implication_chain(random_arrangement(np.random.default_rng(13)))
        assert not any(result.non_disturbing for result in record.details["complete"])
        assert len(calls) == 1

    def test_complete_stage_equals_separate_checks(self):
        # T1 lacks a kernel row, so heads that apply it are undefined as a whole;
        # M2 lacks a response row. The arrangement uses neither.
        rng = np.random.default_rng(31)
        for identity in (False, True, False, True):  # missing rows settle no measurement
            arr = random_arrangement(rng, max_states=5, noninvasive_early=identity)
            model = without_response_row(without_last_row(arr.model, "T1"), "M2")
            arr = LgArrangement(model, "E", ("T2", "T2"), ("M1", "M3", "M3"), arr.assignment)
            record = check_implication_chain(arr)
            for m, shared in zip(("M1", "M3"), record.details["complete"]):
                alone = check_opnd_complete(model, m)
                assert shared.undefined_contexts > 0
                assert shared.non_disturbing == alone.non_disturbing
                assert shared.witness == alone.witness
                assert shared.undefined_contexts == alone.undefined_contexts
                assert shared.max_deviation == alone.max_deviation

    @pytest.mark.parametrize("slots", [(None, None), ("reset", None)])
    def test_slot_without_transformation_needs_the_specific_contexts(self, slots):
        # no suffix of the complete check has a step without a transformation,
        # so the arrangement's own contexts are required on top of it
        drifting = zoo.build("drifting-update").model
        space = drifting.space
        reset = TransformationKernel(
            space, {s: Distribution.point_mass(space, "u") for s in space.states}
        )
        model = replace(drifting, transformations={"reset": reset})
        arr = LgArrangement(model, "u-prep", slots, ("swapper",) * 3,
                            ObservableAssignment({"swapper": {PLUS: 1, MINUS: -1}}))
        record = check_implication_chain(arr)
        complete = record.details["complete"][0]
        assert complete.non_disturbing and complete.max_deviation == 0.0
        assert not record.opnd_specific
        assert not record.opnd_complete

    @pytest.mark.parametrize("depth", [1, 0, -1])
    def test_depth_below_two_is_refused(self, depth):
        # the complete check would not cover the first measurement's own
        # length-2 suffix, so complete => specific would not follow
        with pytest.raises(ValidationError, match="depth"):
            check_implication_chain(build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI),
                                    depth=depth)


def fully_noninvasive_pair_model():
    space = OnticStateSpace(("g", "h"))
    response = ResponseFunction(
        space,
        (PLUS, MINUS),
        {"g": {PLUS: 1.0, MINUS: 0.0}, "h": {PLUS: 0.0, MINUS: 1.0}},
    )
    def reading(label):
        return Measurement(
            label,
            ResponseFunction(space, (PLUS, MINUS), dict(response.table)),
            MeasurementUpdate.noninvasive(space, (PLUS, MINUS), space.states),
        )
    return OnticModel(
        space=space,
        preparations={"spread": Distribution(space, {"g": 0.6, "h": 0.4})},
        transformations={},
        measurements={"first": reading("first"), "second": reading("second")},
    )


def label_level_post_selection(model, keep_first, keep_second) -> list:
    """Each record of ``post_select_noninvasive`` computed by label, with its floats as hex:
    the halved and kept weights as dicts read through each response row, the posterior
    unpacked, and the conditioned and reference Distributions compared in total variation."""
    (name_a, q_a), (name_b, q_b) = keep_first, keep_second
    meas_a, meas_b, space = model.measurement(name_a), model.measurement(name_b), model.space
    records = []
    for prep_name, dist in model.preparations.items():
        half = {label: 0.5 * w for label, w in dist.weights.items()}
        kept = {label: w * (meas_a.response.row(label)[q_a] + meas_b.response.row(label)[q_b])
                for label, w in half.items()}
        branch = space.pack(half)
        post = space.unpack(core.summed([meas_a.form.measure(branch, q_a),
                                         meas_b.form.measure(branch, q_b)]))
        keep_probability = sum(kept.values())
        conditioned = Distribution(space, {k: v / keep_probability for k, v in post.items()})
        reference = Distribution(space, {k: v / keep_probability for k, v in kept.items()})
        records.append((prep_name, keep_probability.hex(),
                        [(k, v.hex()) for k, v in conditioned.weights.items()],
                        reference_walk.total_variation(conditioned.weights, dist.weights,
                                                       space).hex(),
                        reference_walk.total_variation(conditioned.weights, reference.weights,
                                                       space).hex()))
    return records


class TestPostSelection:
    def test_fully_noninvasive_pair_keeps_input(self):
        model = fully_noninvasive_pair_model()
        result = post_select_noninvasive(model, ("first", PLUS), ("second", MINUS))
        assert result.matches_input and result.consistent
        record = result.records[0]
        assert record.keep_probability == pytest.approx(0.5, abs=1e-15)
        assert record.conditioned.weights == pytest.approx(
            model.preparations["spread"].weights
        )

    def test_null_result_fixture_composite(self):
        model = zoo.build("null-result-pair").model
        result = post_select_noninvasive(model, ("null-plus", PLUS), ("null-minus", MINUS))
        assert result.matches_input
        assert result.max_deviation_from_input <= 1e-12
        # each arm alone is invasive overall
        from lglab import is_ontically_noninvasive

        assert not is_ontically_noninvasive(model.measurements["null-plus"])[0]
        assert is_ontically_noninvasive(model.measurements["null-plus"], PLUS)[0]

    @pytest.mark.parametrize("model, keep_first, keep_second", [
        (fully_noninvasive_pair_model, ("first", PLUS), ("second", MINUS)),
        (lambda: zoo.build("null-result-pair").model, ("null-plus", PLUS), ("null-minus", MINUS)),
        (lambda: zoo.build("null-result-pair").model, ("null-minus", MINUS), ("null-plus", PLUS)),
    ], ids=["fully-noninvasive-pair", "null-result-pair", "null-result-pair-swapped"])
    def test_every_field_equals_the_label_level_reference(self, model, keep_first, keep_second):
        model = model()
        result = post_select_noninvasive(model, keep_first, keep_second)
        assert [(r.preparation, r.keep_probability.hex(),
                 [(k, v.hex()) for k, v in r.conditioned.weights.items()],
                 r.deviation_from_input.hex(), r.update_consistency.hex())
                for r in result.records] == label_level_post_selection(model, keep_first,
                                                                        keep_second)

    def test_projective_pair_fails_precondition(self, spin_model):
        with pytest.raises(PreconditionError):
            post_select_noninvasive(spin_model, ("Mz", PLUS), ("Mz-alt", MINUS))

    def test_inequivalent_pair_fails_precondition(self, spin_model):
        with pytest.raises(PreconditionError) as refusal:
            post_select_noninvasive(spin_model, ("Mz", PLUS), ("Mx", PLUS))
        assert str(refusal.value) == ("measurements 'Mz' and 'Mx' are not operationally "
                                      "equivalent on the declared probes (deviation 0.5)")


class TestArrangementValidation:
    @pytest.mark.parametrize("transformations, measurements", [
        (("id",), ("Mz", "Mz", "Mz")),
        (("id", "id"), ("Mz", "Mz")),
    ], ids=["one-transformation", "two-measurements"])
    def test_slot_counts_must_be_two_and_three(self, spin_model, transformations,
                                               measurements):
        with pytest.raises(ValidationError) as refusal:
            LgArrangement(spin_model, "zero", transformations, measurements,
                          ObservableAssignment({"Mz": {PLUS: 1, MINUS: -1}}))
        assert str(refusal.value) == "arrangement needs two transformations and three measurements"

    def test_a_distribution_in_place_of_the_preparation_name_is_refused(self, spin_model):
        dist = spin_model.preparations["zero"]
        with pytest.raises(ModelError, match="unknown preparation"):
            LgArrangement(spin_model, dist, ("id", "id"), ("Mz", "Mx", "Mz"),
                          ObservableAssignment({m: {PLUS: 1, MINUS: -1} for m in ("Mz", "Mx")}))
        with pytest.raises(ModelError, match="unknown preparation"):
            lg.check_opnd(spin_model, dist, "Mz", [(None, "Mx")])

    def test_assignment_must_cover_both_values(self, spin_model):
        with pytest.raises(ValidationError):
            LgArrangement(
                model=spin_model,
                preparation="zero",
                transformations=("id", "id"),
                measurements=("Mz", "Mz", "Mz"),
                assignment=ObservableAssignment({"Mz": {PLUS: 1, MINUS: 1}}),
            )

    def test_ternary_measurement_rejected(self, spin_model):
        space = spin_model.space
        wide = Measurement(
            "wide",
            ResponseFunction(
                space, ("a", "b", "c"), {"z0": {"a": 1.0, "b": 0.0, "c": 0.0}}
            ),
            MeasurementUpdate(space, ("a", "b", "c")),
        )
        model = OnticModel(
            space=space,
            preparations=dict(spin_model.preparations),
            transformations=dict(spin_model.transformations),
            measurements={**spin_model.measurements, "wide": wide},
        )
        with pytest.raises(ValidationError):
            LgArrangement(
                model=model,
                preparation="zero",
                transformations=("id", "id"),
                measurements=("wide", "Mz", "Mz"),
                assignment=ObservableAssignment(
                    {"wide": {"a": 1, "b": -1, "c": 1}, "Mz": {PLUS: 1, MINUS: -1}}
                ),
            )
