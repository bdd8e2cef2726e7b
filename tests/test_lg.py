import dataclasses
import itertools
import math

import numpy as np
import pytest

from lglab import lg
from lglab import (
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
    lg_value_all_three,
    lg_value_pairwise,
    marginalize,
    post_select_noninvasive,
    run_protocol,
)
from lglab.testing import random_arrangement
from lglab.zoo import (
    build_fixtures,
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
        assert lg_value_all_three(deterministic_chain(False, False)) == pytest.approx(3.0)

    def test_alternating_history_reaches_lower_bound(self):
        # history (+1, -1, +1): the two adjacent products are -1, the outer +1
        assert lg_value_all_three(deterministic_chain(True, True)) == pytest.approx(-1.0)

    def test_qubit_all_three_never_violates(self):
        value = lg_value_all_three(build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI))
        # cos t1 + cos t2 + cos t1 cos t2 = -0.75 at 2*pi/3
        assert value == pytest.approx(-0.75, abs=1e-12)
        assert value >= -1.0 - 1e-12

    def test_bound_on_random_models(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            value = lg_value_all_three(random_arrangement(rng))
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
                lg_value_all_three(arr), abs=1e-12
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


def two_run_opnd(model, preparation, measurement, suffix, prefix=(), pre_transformation=None):
    """Reference definition: the performed run with the checked outcome summed out,
    against the run that skips the checked measurement."""
    outer = [ProtocolStep(t, m) for t, m in prefix]
    tail = [ProtocolStep(t, m) for t, m in suffix]

    def run(perform):
        steps = outer + [ProtocolStep(pre_transformation, measurement, perform)] + tail
        return run_protocol(model, Protocol(preparation, tuple(steps)))

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


def without_last_row(model, transformation):
    """The model with one kernel lacking its row for the last ontic state."""
    kernel = model.transformations[transformation]
    last = model.space.states[-1]
    partial = TransformationKernel(
        model.space, {s: row for s, row in kernel.rows.items() if s != last}
    )
    return dataclasses.replace(
        model, transformations={**model.transformations, transformation: partial}
    )


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


class TestImplicationChain:
    def test_noninvasive_model_is_all_true(self):
        record = check_implication_chain(build_superselected_arrangement(0.25, 0.25))
        assert record.as_tuple() == (True, True, True, True)

    def test_qubit_fails_every_stage(self):
        record = check_implication_chain(build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI))
        assert record.as_tuple() == (False, False, False, False)

    def test_disturbing_but_satisfying_fixture(self):
        fixture = build_fixtures()["lgi-holds-d-nonzero"]
        record = check_implication_chain(fixture.arrangement)
        assert record.as_tuple() == (False, False, False, True)

    def test_chain_never_raises_on_random_models(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            check_implication_chain(random_arrangement(rng))
        for _ in range(20):
            record = check_implication_chain(random_arrangement(rng, noninvasive_early=True))
            assert record.as_tuple() == (True, True, True, True)

    def test_repeated_measurement_is_enumerated_once(self, monkeypatch):
        arr = random_arrangement(np.random.default_rng(8))
        repeated = dataclasses.replace(arr, measurements=("M1", "M1", "M3"))
        calls = []
        original = lg.check_opnd_complete

        def counted(model, measurement, **kwargs):
            calls.append(measurement)
            return original(model, measurement, **kwargs)

        monkeypatch.setattr(lg, "check_opnd_complete", counted)
        record = check_implication_chain(repeated)
        assert calls == ["M1"]
        first, second = record.details["complete"]
        assert first is second


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
        model = build_fixtures()["null-result-pair"].model
        result = post_select_noninvasive(model, ("null-plus", PLUS), ("null-minus", MINUS))
        assert result.matches_input
        assert result.max_deviation_from_input <= 1e-12
        # each arm alone is invasive overall
        from lglab import is_ontically_noninvasive

        assert not is_ontically_noninvasive(model.measurements["null-plus"])[0]
        assert is_ontically_noninvasive(model.measurements["null-plus"], PLUS)[0]

    def test_projective_pair_fails_precondition(self, spin_model):
        with pytest.raises(PreconditionError):
            post_select_noninvasive(spin_model, ("Mz", PLUS), ("Mz-alt", MINUS))


class TestArrangementValidation:
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
