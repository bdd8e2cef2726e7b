import math

import numpy as np
import pytest

from lglab import core, lg
from lglab import (
    Distribution,
    JointDistribution,
    ModelError,
    ObservableAssignment,
    Protocol,
    ProtocolStep,
    ValidationError,
    expectation,
    marginalize,
    measurements_equivalent,
    run_protocol,
)
from lglab import (
    Measurement,
    MeasurementUpdate,
    OnticModel,
    OnticStateSpace,
    ResponseFunction,
)
from lglab.classify import QuantityClass, _eigenstates
from builders import identity, replace
from random_models import random_arrangement
from lglab.zoo import build_qubit_arrangement

PLUS, MINUS = "+1", "-1"
PM = ObservableAssignment({m: {PLUS: 1, MINUS: -1} for m in ("Mz", "Mx", "Mz-alt")})


class TestRunProtocol:
    def test_single_deterministic_readout_is_point_mass(self, spin_model):
        protocol = Protocol("zero", (ProtocolStep(None, "Mz", True),))
        joint = run_protocol(spin_model, protocol)
        assert joint.table[(PLUS,)] == 1.0
        assert joint.table[(MINUS,)] == 0.0

    def test_qubit_half_pi_pair(self):
        arr = build_qubit_arrangement(math.pi / 2.0, math.pi / 2.0)
        joint = run_protocol(arr.model, arr.protocol((True, True, False)))
        assert joint.table[(PLUS, PLUS)] == pytest.approx(0.5, abs=1e-12)
        assert joint.table[(PLUS, MINUS)] == pytest.approx(0.5, abs=1e-12)

    def test_qubit_half_pi_triple(self):
        arr = build_qubit_arrangement(math.pi / 2.0, math.pi / 2.0)
        joint = run_protocol(arr.model, arr.protocol((True, True, True)))
        assert joint.table[(PLUS, PLUS, PLUS)] == pytest.approx(0.25, abs=1e-12)
        assert joint.table[(PLUS, MINUS, PLUS)] == pytest.approx(0.25, abs=1e-12)

    def test_unresolved_names_rejected(self, spin_model):
        protocol = Protocol("zero", (ProtocolStep(None, "nope", True),))
        with pytest.raises(ModelError):
            run_protocol(spin_model, protocol)

    def test_a_distribution_in_place_of_the_preparation_name_is_refused(self, spin_model):
        protocol = Protocol(spin_model.preparations["zero"], (ProtocolStep(None, "Mz", True),))
        with pytest.raises(ModelError, match="unknown preparation"):
            run_protocol(spin_model, protocol)

    def test_needs_a_performed_measurement(self):
        with pytest.raises(ValidationError):
            Protocol("zero", (ProtocolStep(None, "Mz", False),))

    def test_skipping_final_measurement_equals_marginal(self):
        # no signalling backwards in time, by construction of the engine
        rng = np.random.default_rng(5)
        for _ in range(25):
            arr = random_arrangement(rng)
            full = run_protocol(arr.model, arr.protocol((True, True, True)))
            skipped = run_protocol(arr.model, arr.protocol((True, True, False)))
            reduced = marginalize(full, [0, 1])
            worst = max(abs(reduced.table[k] - skipped.table[k]) for k in reduced.table)
            assert worst <= 1e-12

    def test_protocols_of_arbitrary_length(self, spin_model):
        steps = tuple(
            ProtocolStep("id" if i else None, m, perform)
            for i, (m, perform) in enumerate(
                [("Mz", True), ("Mx", True), ("Mz", False), ("Mx", True), ("Mz", True)]
            )
        )
        joint = run_protocol(spin_model, Protocol("plus", steps))
        assert len(joint.axes) == 4
        assert sum(joint.table.values()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("mask", lg.MASKS.values(), ids=lg.MASKS.keys())
    def test_a_fresh_mask_gives_the_arrangements_protocol(self, mask):
        arr = build_qubit_arrangement(0.3, 2.0)
        assert arr.protocol().with_mask(mask) == arr.protocol(mask)

    def test_a_mask_of_another_length_is_refused(self):
        protocol = build_qubit_arrangement(0.3, 2.0).protocol()
        with pytest.raises(ModelError, match="^perform mask length does not match step count$"):
            protocol.with_mask((True, False))


HAND_TABLE = {
    (PLUS, PLUS, PLUS): 0.10,
    (PLUS, PLUS, MINUS): 0.05,
    (PLUS, MINUS, PLUS): 0.20,
    (PLUS, MINUS, MINUS): 0.15,
    (MINUS, PLUS, PLUS): 0.05,
    (MINUS, PLUS, MINUS): 0.10,
    (MINUS, MINUS, PLUS): 0.05,
    (MINUS, MINUS, MINUS): 0.30,
}
HAND_AXES = (("Mz", (PLUS, MINUS)), ("Mx", (PLUS, MINUS)), ("Mz-alt", (PLUS, MINUS)))


class TestMarginalize:
    def test_keep_all_is_identity(self):
        joint = JointDistribution(HAND_AXES, dict(HAND_TABLE))
        same = marginalize(joint, [0, 1, 2])
        assert same.table == joint.table

    def test_uniform_pair_to_single_axis(self):
        axes = (("Mz", (PLUS, MINUS)), ("Mx", (PLUS, MINUS)))
        joint = JointDistribution(axes, {k: 0.25 for k in [(a, b) for a in (PLUS, MINUS) for b in (PLUS, MINUS)]})
        single = marginalize(joint, ["Mz"])
        assert single.table == {(PLUS,): 0.5, (MINUS,): 0.5}

    def test_first_axis_marginal_matches_hand_sum(self):
        joint = JointDistribution(HAND_AXES, dict(HAND_TABLE))
        first = marginalize(joint, [0])
        assert first.table[(PLUS,)] == pytest.approx(0.50, abs=1e-15)
        assert first.table[(MINUS,)] == pytest.approx(0.50, abs=1e-15)
        pair = marginalize(joint, [0, 2])
        assert pair.table[(PLUS, PLUS)] == pytest.approx(0.30, abs=1e-15)
        assert pair.table[(MINUS, MINUS)] == pytest.approx(0.40, abs=1e-15)

    def test_empty_keep_rejected(self):
        joint = JointDistribution(HAND_AXES, dict(HAND_TABLE))
        with pytest.raises(ModelError):
            marginalize(joint, [])


def test_joint_table_rejects_nan_probability():
    axes = (("Mz", (PLUS, MINUS)),)
    with pytest.raises(ValidationError):
        JointDistribution(axes, {(PLUS,): math.nan, (MINUS,): 1.0})


class TestExpectation:
    def test_constant_plus_one(self):
        joint = JointDistribution(HAND_AXES, dict(HAND_TABLE))
        ones = ObservableAssignment({m: {PLUS: 1, MINUS: 1} for m, _ in HAND_AXES})
        assert expectation(joint, ones, axes=[0, 1, 2]) == pytest.approx(1.0, abs=1e-12)

    def test_qubit_pair_correlator_matches_cosine(self):
        for theta, want in ((math.pi / 2.0, 0.0), (2.0 * math.pi / 3.0, -0.5)):
            arr = build_qubit_arrangement(theta, theta)
            joint = run_protocol(arr.model, arr.protocol((True, True, False)))
            value = expectation(joint, arr.assignment, axes=[0, 1])
            assert value == pytest.approx(want, abs=1e-12)

    def test_linear_in_assignment_values(self):
        joint = JointDistribution(HAND_AXES, dict(HAND_TABLE))

        def single(v_plus, v_minus):
            asg = ObservableAssignment({"Mz": {PLUS: v_plus, MINUS: v_minus}})
            return expectation(joint, asg, axes=[0])

        left = single(2.0 * 1 + 3.0 * 5, 2.0 * (-1) + 3.0 * 0.5)
        right = 2.0 * single(1, -1) + 3.0 * single(5, 0.5)
        assert left == pytest.approx(right, abs=1e-12)


def probe_deviation(model, first, second, probes) -> float:
    """The largest outcome-probability gap between two preparations over
    (transformation-or-None, measurement) name probes."""
    worst = 0.0
    for t_name, m_name in probes:
        m = model.measurements[m_name]
        pa, pb = model.preparations[first], model.preparations[second]
        if t_name is not None:
            kernel = model.transformations[t_name]
            pa, pb = core.compose_preparation(pa, kernel), core.compose_preparation(pb, kernel)
        pa, pb = core.outcome_probabilities(pa, m), core.outcome_probabilities(pb, m)
        worst = max(worst, *(abs(pa[q] - pb[q]) for q in m.outcomes))
    return worst


class TestEquivalences:
    def test_identical_preparations(self, spin_model):
        probes = [(None, "Mz"), (None, "Mx"), ("id", "Mz")]
        assert probe_deviation(spin_model, "zero", "zero", probes) == 0.0

    def test_ontically_distinct_but_probe_equivalent(self):
        # three states; two distributions share every declared statistic
        space = OnticStateSpace(("a", "b", "c"))
        response = ResponseFunction(
            space,
            (PLUS, MINUS),
            {
                "a": {PLUS: 0.8, MINUS: 0.2},
                "b": {PLUS: 0.3, MINUS: 0.7},
                "c": {PLUS: 0.3, MINUS: 0.7},
            },
        )
        m = Measurement(
            "M", response, MeasurementUpdate.noninvasive(space, (PLUS, MINUS), space.states)
        )
        model = OnticModel(
            space=space,
            preparations={
                "one": Distribution(space, {"a": 0.5, "b": 0.5}),
                "two": Distribution(space, {"a": 0.5, "c": 0.5}),
            },
            transformations={"id": identity(space)},
            measurements={"M": m},
        )
        assert probe_deviation(model, "one", "two", [(None, "M"), ("id", "M")]) <= 1e-15
        assert model.preparations["one"].support() != model.preparations["two"].support()

    def test_discriminating_readout_separates(self, spin_model):
        assert probe_deviation(spin_model, "zero", "one", [(None, "Mz")]) == pytest.approx(1.0)

    def test_equal_measurements(self, spin_model):
        ok, _ = measurements_equivalent(spin_model, "Mz", "Mz")
        assert ok

    def test_same_response_different_update_still_equivalent(self, spin_model):
        # class membership is about response statistics only
        ok, dev = measurements_equivalent(spin_model, "Mz", "Mz-alt")
        assert ok and dev <= 1e-15

    def test_differing_response_detected(self, spin_model):
        # each declared preparation is a point mass that "id" leaves in place: z0 and z1
        # read Mz with certainty and Mx evenly, x0 the other way round, so every probe
        # differs by |1 - 0.5| = 0.5 on both outcomes
        ok, dev = measurements_equivalent(spin_model, "Mz", "Mx")
        assert not ok and dev == pytest.approx(0.5)

    def test_each_cell_is_computed_once_per_side(self, spin_model, monkeypatch):
        # a (preparation, probe) cell's outcome probabilities come from one pass of a
        # measurement's form per side, however many outcomes are compared
        passes = []
        masses = core.Form.masses
        monkeypatch.setattr(core.Form, "masses",
                            lambda form, branch: passes.append(form) or masses(form, branch))
        mz, alt = (spin_model.measurements[m].form for m in ("Mz", "Mz-alt"))
        measurements_equivalent(spin_model, "Mz", "Mz-alt")
        assert passes == [mz, alt] * 6  # 3 declared preparations x (no transformation, "id")

    def test_missing_outcome_correspondence_rejected(self, spin_model):
        space = spin_model.space
        odd = Measurement(
            "odd",
            ResponseFunction(space, ("u", "d"), {"z0": {"u": 1.0, "d": 0.0}}),
            MeasurementUpdate(space, ("u", "d")),
        )
        model = OnticModel(
            space=space,
            preparations=dict(spin_model.preparations),
            transformations=dict(spin_model.transformations),
            measurements={**spin_model.measurements, "odd": odd},
        )
        with pytest.raises(ModelError, match="have different outcome sets"):
            measurements_equivalent(model, "Mz", "odd", [("zero", None)])


class TestOperationalEigenstate:
    def test_point_mass_on_deterministic_state(self, spin_model):
        assert "zero" in _eigenstates(spin_model, QuantityClass("Q", ("Mz", "Mz-alt")))[PLUS]

    def test_superposed_state_is_not(self, spin_model):
        assert "plus" not in _eigenstates(spin_model, QuantityClass("Q", ("Mz",)))[PLUS]

    def test_closed_under_mixtures(self, spin_model):
        space = spin_model.space
        zero, partial = spin_model.preparations["zero"], Distribution(space, {"z0": 1.0})
        # their 0.3 : 0.7 mixture, written out
        blend = Distribution(space, {"z0": 0.3 * zero.weights["z0"] + 0.7 * partial.weights["z0"]})
        model = replace(spin_model, preparations={**spin_model.preparations, "blend": blend})
        assert "blend" in _eigenstates(model, QuantityClass("Q", ("Mz",)))[PLUS]
