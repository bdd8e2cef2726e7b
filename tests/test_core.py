import math
from array import array
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab import (
    Distribution,
    Measurement,
    MeasurementUpdate,
    ModelError,
    OnticModel,
    OnticStateSpace,
    ResponseFunction,
    TransformationKernel,
    ValidationError,
    check_equilibrium_property,
    check_implication_chain,
    classify,
    compose_preparation,
    disturbance_report,
    is_ontically_noninvasive,
    post_measurement_distribution,
)
from lglab import core, zoo
from lglab.classify import QuantityClass
import reference_walk
from builders import identity, replace
from random_models import (identity_with_shared_rows, random_arrangement, with_update,
                           without_last_row)

PLUS, MINUS = "+1", "-1"
OUTCOMES = (PLUS, MINUS)


def two_state_space():
    return OnticStateSpace(("l1", "l2"))


class TestDistribution:
    def test_rejects_bad_sum(self):
        space = two_state_space()
        with pytest.raises(ValidationError):
            Distribution(space, {"l1": 0.6, "l2": 0.5})

    def test_rejects_negative(self):
        space = two_state_space()
        with pytest.raises(ValidationError):
            Distribution(space, {"l1": 1.2, "l2": -0.2})

    def test_rejects_unknown_label(self):
        space = two_state_space()
        with pytest.raises(ValidationError):
            Distribution(space, {"nope": 1.0})

    def test_rejects_nan_weight(self):
        space = two_state_space()
        with pytest.raises(ValidationError):
            Distribution(space, {"l1": math.nan, "l2": 1.0})

    @pytest.mark.parametrize("first", [0.25, 0.25 + 2e-10])
    def test_stores_python_floats(self, first):
        space = two_state_space()
        d = Distribution(space, {"l1": np.float64(first), "l2": np.float64(0.75)})
        assert [type(w) for w in d.weights.values()] == [float, float]

    def test_renormalizes_within_tolerance(self):
        space = two_state_space()
        d = Distribution(space, {"l1": 0.5 + 2e-10, "l2": 0.5})
        assert sum(d.weights.values()) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("number", [float, Fraction, Decimal])
    @pytest.mark.parametrize("second, divided", [("0.49999999999998", False),
                                                 ("0.5000000002", True)])
    def test_renormalization_is_a_fixed_point_within_its_skip(self, second, divided, number):
        # a total within 1e-13 of 1 keeps each weight and response probability as given,
        # as a float, whatever number type gave it
        space = two_state_space()
        half, second = number("0.5"), number(second)
        total = math.fsum([0.5, float(second)]) if divided else 1.0
        expected = [0.5 / total, float(second) / total]
        assert list(Distribution(space, {"l1": half, "l2": second}).weights.values()) == expected
        response = ResponseFunction(space, OUTCOMES, {"l1": {PLUS: half, MINUS: second}})
        assert list(response.table["l1"].values()) == expected

    def test_support_threshold(self):
        space = two_state_space()
        d = Distribution(space, {"l1": 1.0 - 1e-13, "l2": 1e-13})
        assert d.support() == frozenset({"l1"})

    def test_state_labels_unique(self):
        with pytest.raises(ValidationError):
            OnticStateSpace(("a", "a"))

    def test_total_variation_across_spaces_rejected(self):
        space = two_state_space()
        other = OnticStateSpace(("a", "b"))
        with pytest.raises(ModelError, match="mismatched state spaces in total_variation"):
            Distribution.point_mass(space, "l1").total_variation(Distribution.point_mass(other, "a"))


def swap_kernel(space):
    return TransformationKernel(
        space,
        {
            "l1": Distribution.point_mass(space, "l2"),
            "l2": Distribution.point_mass(space, "l1"),
        },
    )


class TestComposePreparation:
    def test_identity_kernel_fixes_everything(self):
        space = two_state_space()
        mu = Distribution(space, {"l1": 0.3, "l2": 0.7})
        out = compose_preparation(mu, identity(space))
        assert out.weights == mu.weights

    def test_point_mass_through_splitting_row(self):
        space = two_state_space()
        kernel = TransformationKernel(
            space, {"l1": Distribution(space, {"l1": 0.5, "l2": 0.5})}
        )
        out = compose_preparation(Distribution.point_mass(space, "l1"), kernel)
        assert out.weights == {"l1": 0.5, "l2": 0.5}

    def test_swap_kernel_hand_sum(self):
        # 2x2 kernel by hand: weights simply trade places
        space = two_state_space()
        out = compose_preparation(Distribution(space, {"l1": 0.3, "l2": 0.7}), swap_kernel(space))
        assert out.weights["l1"] == pytest.approx(0.7, abs=1e-15)
        assert out.weights["l2"] == pytest.approx(0.3, abs=1e-15)

    def test_missing_row_is_domain_error(self):
        space = two_state_space()
        kernel = TransformationKernel(space, {"l1": Distribution.point_mass(space, "l1")})
        with pytest.raises(ModelError):
            compose_preparation(Distribution(space, {"l1": 0.5, "l2": 0.5}), kernel)

    def test_mismatched_spaces_rejected(self):
        space = two_state_space()
        other = OnticStateSpace(("a", "b"))
        with pytest.raises(ModelError):
            compose_preparation(
                Distribution.point_mass(space, "l1"), identity(other)
            )


@st.composite
def distributions(draw, space):
    raw = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0),
            min_size=len(space.states),
            max_size=len(space.states),
        )
    )
    total = sum(raw)
    return Distribution(space, {s: w / total for s, w in zip(space.states, raw)})


@st.composite
def kernels(draw, space):
    rows = {s: draw(distributions(space)) for s in space.states}
    return TransformationKernel(space, rows)


SPACE4 = OnticStateSpace(("a", "b", "c", "d"))


@settings(max_examples=40, deadline=None)
@given(distributions(SPACE4), kernels(SPACE4))
def test_composition_preserves_normalization(mu, kernel):
    out = compose_preparation(mu, kernel)
    assert sum(out.weights.values()) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(distributions(SPACE4), kernels(SPACE4), kernels(SPACE4))
def test_composition_is_associative(mu, k1, k2):
    stepwise = compose_preparation(compose_preparation(mu, k1), k2)
    # k1 then k2 as one kernel: each row of k1 pushed through k2
    fused = TransformationKernel(SPACE4,
                                 {s: compose_preparation(row, k2) for s, row in k1.rows.items()})
    assert stepwise.total_variation(compose_preparation(mu, fused)) <= 1e-12


def deterministic_measurement(space, update=None):
    response = ResponseFunction(
        space,
        OUTCOMES,
        {"l1": {PLUS: 1.0, MINUS: 0.0}, "l2": {PLUS: 0.0, MINUS: 1.0}},
    )
    if update is None:
        update = MeasurementUpdate.noninvasive(space, OUTCOMES, space.states)
    return Measurement("M", response, update)


class TestSingleShot:
    def test_deterministic_model_gives_zero_or_one(self):
        space = two_state_space()
        m = deterministic_measurement(space)
        mu = Distribution.point_mass(space, "l1")
        kernel = identity(space)
        pushed = core.compose_preparation(mu, kernel)
        assert core.outcome_probabilities(pushed, m)[PLUS] == 1.0
        assert core.outcome_probabilities(pushed, m)[MINUS] == 0.0

    def test_uniform_preparation_splits_evenly(self):
        space = two_state_space()
        m = deterministic_measurement(space)
        mu = Distribution(space, {"l1": 0.5, "l2": 0.5})
        assert core.outcome_probabilities(mu, m)[PLUS] == pytest.approx(0.5, abs=1e-15)

    def test_hand_sum_with_swap_kernel(self):
        # swap sends 0.7 onto l1 and 0.3 onto l2: 0.7*0.9 + 0.3*0.1 = 0.66
        space = two_state_space()
        response = ResponseFunction(
            space,
            OUTCOMES,
            {"l1": {PLUS: 0.9, MINUS: 0.1}, "l2": {PLUS: 0.1, MINUS: 0.9}},
        )
        m = Measurement(
            "M", response, MeasurementUpdate.noninvasive(space, OUTCOMES, space.states)
        )
        mu = Distribution(space, {"l1": 0.3, "l2": 0.7})
        p = core.outcome_probabilities(core.compose_preparation(mu, swap_kernel(space)), m)[PLUS]
        assert p == pytest.approx(0.66, abs=1e-15)

    def test_sums_to_one_over_outcomes(self):
        rng = np.random.default_rng(3)
        space = SPACE4
        raw = rng.random(4)
        mu = Distribution(space, dict(zip(space.states, raw / raw.sum())))
        table = {}
        for s in space.states:
            p = rng.random()
            table[s] = {PLUS: p, MINUS: 1.0 - p}
        m = Measurement(
            "M",
            ResponseFunction(space, OUTCOMES, table),
            MeasurementUpdate.noninvasive(space, OUTCOMES, space.states),
        )
        total = sum(core.outcome_probabilities(mu, m)[q] for q in OUTCOMES)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestOnticNoninvasiveness:
    def test_identity_update_passes(self):
        space = two_state_space()
        ok, deviation = is_ontically_noninvasive(deterministic_measurement(space))
        assert ok and deviation == 0.0

    def test_quantum_style_reprepare_fails(self):
        space = two_state_space()
        update = MeasurementUpdate(
            space,
            OUTCOMES,
            outcome_rows={
                PLUS: Distribution.point_mass(space, "l1"),
                MINUS: Distribution.point_mass(space, "l2"),
            },
        )
        # a stochastic-response state gets moved by the collapse
        response = ResponseFunction(
            space,
            OUTCOMES,
            {"l1": {PLUS: 1.0, MINUS: 0.0}, "l2": {PLUS: 0.5, MINUS: 0.5}},
        )
        ok, deviation = is_ontically_noninvasive(Measurement("M", response, update))
        assert not ok and deviation > 0.0

    def test_partial_noninvasiveness_for_one_outcome(self):
        space = two_state_space()
        update = MeasurementUpdate(
            space,
            OUTCOMES,
            rows={
                ("l2", MINUS): Distribution.point_mass(space, "l2"),
                ("l1", PLUS): Distribution.point_mass(space, "l2"),
            },
        )
        m = deterministic_measurement(space, update)
        ok_minus, dev_minus = is_ontically_noninvasive(m, for_outcome=MINUS)
        ok_all, dev_all = is_ontically_noninvasive(m)
        assert ok_minus and dev_minus == 0.0
        assert not ok_all and dev_all == 1.0

    def test_an_unknown_outcome_is_refused(self):
        with pytest.raises(ModelError) as refusal:
            is_ontically_noninvasive(deterministic_measurement(two_state_space()), "+2")
        assert str(refusal.value) == "unknown outcome '+2'"

    def test_a_missing_update_row_of_a_checked_outcome_raises(self):
        space = two_state_space()
        update = MeasurementUpdate(space, OUTCOMES,
                                   rows={("l1", PLUS): Distribution.point_mass(space, "l1")})
        m = deterministic_measurement(space, update)
        with pytest.raises(ModelError) as raised:
            is_ontically_noninvasive(m)
        assert str(raised.value) == "measurement update undefined for state 'l2', outcome '-1'"
        with pytest.raises(ModelError):
            is_ontically_noninvasive(m, for_outcome=MINUS)
        # the row a check of PLUS alone reads is declared
        assert is_ontically_noninvasive(m, for_outcome=PLUS) == (True, 0.0)

    def test_the_check_stops_at_the_first_state_moved_in_full(self, lines_run):
        # ks-sphere's update re-samples onto the base grid, so the first state of a
        # later stage that reads +1 moves in full; no state is read past it
        measurement = zoo.build("ks-sphere", n_points=100).model.measurement("Mz")
        measurement.form  # compiled here, so that only the check's lines are counted
        assert is_ontically_noninvasive(measurement) == (False, 1.0)
        assert lines_run(is_ontically_noninvasive, measurement) < len(measurement.space)


def label_level_deviation(measurement, for_outcome=None) -> float:
    """max 1 - tau(s | q, s) over states s and checked outcomes q of xi(q | s) > SUPPORT_TOL."""
    checked = measurement.outcomes if for_outcome is None else (for_outcome,)
    return max((1.0 - measurement.update.row(s, q).weights.get(s, 0.0)
                for s, row in measurement.response.table.items()
                for q in checked if row[q] > core.SUPPORT_TOL), default=0.0)


def assert_noninvasiveness_matches_the_reference(model):
    for measurement in model.measurements.values():
        for for_outcome in (None, *measurement.outcomes):
            worst = label_level_deviation(measurement, for_outcome)
            assert is_ontically_noninvasive(measurement, for_outcome) == (
                worst <= core.SUPPORT_TOL, worst)


@pytest.mark.parametrize("name", [name for name, _ in zoo.list_models()])
def test_noninvasiveness_of_zoo_measurements_equals_the_label_level_reference(name):
    assert_noninvasiveness_matches_the_reference(zoo.build(name).model)


def test_noninvasiveness_of_random_measurements_equals_the_label_level_reference():
    for seed in range(6):
        arrangement = random_arrangement(np.random.default_rng(seed), noninvasive_early=seed % 2)
        assert_noninvasiveness_matches_the_reference(arrangement.model)
    # a collapse onto one state or another moves every other state in full
    space = arrangement.model.space
    collapse = {PLUS: Distribution.point_mass(space, space.states[0]),
                MINUS: Distribution.point_mass(space, space.states[-1])}
    assert_noninvasiveness_matches_the_reference(with_update(arrangement.model, "M1", collapse))
    assert_noninvasiveness_matches_the_reference(identity_with_shared_rows().model)


@settings(max_examples=30, deadline=None)
@given(distributions(SPACE4))
def test_noninvasive_measurement_preserves_unconditioned_state(mu):
    rng = np.random.default_rng(11)
    table = {}
    for s in SPACE4.states:
        p = float(rng.random())
        table[s] = {PLUS: p, MINUS: 1.0 - p}
    m = Measurement(
        "M",
        ResponseFunction(SPACE4, OUTCOMES, table),
        MeasurementUpdate.noninvasive(SPACE4, OUTCOMES, SPACE4.states),
    )
    assert is_ontically_noninvasive(m)[0]
    post = post_measurement_distribution(mu, m)
    assert post.total_variation(mu) <= 1e-12


def test_a_measurement_keyed_by_another_label_is_refused():
    space = two_state_space()
    with pytest.raises(ValidationError) as refusal:
        OnticModel(space, {}, {}, {"other": deterministic_measurement(space)})
    assert str(refusal.value) == "measurement 'other' carries label 'M'"


def test_a_preparation_is_read_by_its_declared_name_only():
    space = two_state_space()
    mu = Distribution.point_mass(space, "l1")
    model = OnticModel(space, {"up": mu}, {}, {})
    assert model.preparation("up") is mu
    with pytest.raises(ModelError, match="unknown preparation"):
        model.preparation(mu)


def test_measurement_requires_matching_outcomes():
    space = two_state_space()
    response = ResponseFunction(space, OUTCOMES, {"l1": {PLUS: 1.0, MINUS: 0.0}})
    update = MeasurementUpdate(space, ("u", "d"))
    with pytest.raises(ValidationError):
        Measurement("M", response, update)


@pytest.mark.parametrize("first, second", [("preparations", "measurements"),
                                           ("preparations", "transformations"),
                                           ("transformations", "measurements")])
def test_a_component_name_declared_twice_names_both_places(first, second):
    space = two_state_space()
    components = {
        "preparations": Distribution.point_mass(space, "l1"),
        "transformations": swap_kernel(space),
        "measurements": Measurement(
            "read", ResponseFunction(space, OUTCOMES, {s: {PLUS: 1.0} for s in space.states}),
            MeasurementUpdate.noninvasive(space, OUTCOMES, space.states)),
    }
    sections = {section: {"read": components[section]} if section in (first, second) else {}
                for section in components}
    with pytest.raises(ValidationError) as error:
        OnticModel(space, **sections)
    assert str(error.value) == (
        f"component name 'read' is declared twice: {first}.read and {second}.read")


def test_response_rejects_nan_probability():
    space = two_state_space()
    with pytest.raises(ValidationError):
        ResponseFunction(space, OUTCOMES, {"l1": {PLUS: math.nan, MINUS: 1.0}})


@pytest.mark.parametrize("p", [0.25, 0.25 + 2e-10])
def test_response_stores_python_floats(p):
    space = two_state_space()
    response = ResponseFunction(
        space, OUTCOMES, {"l1": {PLUS: np.float64(p), MINUS: np.float64(0.75)}}
    )
    assert [type(v) for v in response.row("l1").values()] == [float, float]


def test_check_size_adds_terms_only_while_nonzero_and_within_the_limit(monkeypatch):
    monkeypatch.setattr(core, "SIZE_LIMIT", 10)
    core.check_size("--x 1", "items", 10)  # at the limit is within it
    core.check_size("--x 2", "items", 5, 0, 10**18)  # 5, then zeros: stops at the first
    with pytest.raises(ValidationError, match=r"^--x 3 asks for 11 items; the limit is 10$"):
        core.check_size("--x 3", "items", 11)
    with pytest.raises(ValidationError, match=r"^--x 4 asks for 14 items;"):
        core.check_size("--x 4", "items", 2, 2, 3)  # 2 + 4 + 8, the last term
    # refused at the first partial sum past the limit, 3 + 6 + 12, not after 10**18 terms
    with pytest.raises(ValidationError, match=r"^--x 5 asks for more than 21 items;"):
        core.check_size("--x 5", "items", 3, 2, 10**18)
    with pytest.raises(ValidationError, match=r"^--x 6 asks for more than 11 items;"):
        core.check_size("--x 6", "items", 1, 1, 10**18)


class CountedReads(dict):
    """A row's weights that count how often they are read: values() and items() calls."""

    reads = 0

    def values(self):
        self.reads += 1
        return super().values()

    def items(self):
        self.reads += 1
        return super().items()


def test_point_mass_is_one_object_per_state():
    space = two_state_space()
    first = Distribution.point_mass(space, "l1")
    assert Distribution.point_mass(space, "l1") is first
    assert Distribution.point_mass(space, "l2") is not first
    assert first.weights == {"l1": 1.0}


def test_point_mass_of_an_unknown_label_is_refused_and_not_kept():
    space = two_state_space()
    with pytest.raises(ValidationError, match="unknown state label 'nope'"):
        Distribution.point_mass(space, "nope")
    assert space.points == {}


def test_identity_rows_are_the_space_point_masses():
    space = OnticStateSpace(("a", "b", "c"))
    rows = identity(space).rows
    assert all(row is Distribution.point_mass(space, s) for s, row in rows.items())


def test_response_reads_each_shared_row_once():
    # 40 states draw two shared rows: each is checked once, and the states that
    # draw one row share one normalized row
    space = OnticStateSpace(tuple(f"s{i}" for i in range(40)))
    rows = [CountedReads({PLUS: 1.0}), CountedReads({PLUS: 0.25, MINUS: 0.75})]
    response = ResponseFunction(space, OUTCOMES, {s: rows[i % 2] for i, s in enumerate(space.states)})
    assert [row.reads for row in rows] == [1, 1]
    assert len({id(row) for row in response.table.values()}) == 2
    assert response.table["s0"] is response.table["s38"]
    assert response.table["s0"] == {PLUS: 1.0, MINUS: 0.0}
    assert response.table["s39"] == {PLUS: 0.25, MINUS: 0.75}


class FreshRows(Mapping):
    """A response table whose items() builds each state's row afresh, in pairs of
    alternating contents, so that each row is freed once the next is read.

    The rows are a dict subclass: plain dicts would share a free list with the
    normalized rows, which would take each freed row's memory first. So the id
    of a freed row goes to a later row, and a memo keyed by id that did not hold
    its rows would hand that row the normalized contents of the freed one.
    """

    class Row(dict):
        pass

    CONTENTS = ({PLUS: 1.0}, {PLUS: 1.0}, {MINUS: 1.0}, {MINUS: 1.0})

    def __init__(self, states):
        self.states = states

    def expected(self, i):
        return {q: self.CONTENTS[i % 4].get(q, 0.0) for q in OUTCOMES}

    def __getitem__(self, label):
        return self.Row(self.CONTENTS[self.states.index(label) % 4])

    def __iter__(self):
        return iter(self.states)

    def __len__(self):
        return len(self.states)

    def items(self):
        for i, label in enumerate(self.states):
            yield label, self.Row(self.CONTENTS[i % 4])


def test_response_memo_holds_its_rows():
    space = OnticStateSpace(tuple(f"s{i}" for i in range(40)))
    table = FreshRows(space.states)
    response = ResponseFunction(space, OUTCOMES, table)
    assert [response.table[s] for s in space.states] == list(map(table.expected, range(40)))


def test_compiling_reads_each_shared_row_once():
    # every state draws one of a few shared rows, as on the sphere model, where
    # 30 000 states draw one of Mz's two 5 000-entry rows: each row is read once
    space = OnticStateSpace(tuple(f"s{i}" for i in range(40)))
    spread = {s: 1.0 / 20 for s in space.states[:20]}
    rows = {
        "plus": Distribution(space, spread),
        "minus": Distribution(space, {s: 1.0 / 20 for s in space.states[20:]}),
        "reset": Distribution(space, spread),
        "point": Distribution.point_mass(space, "s0"),
    }
    for dist in rows.values():
        dist.weights = CountedReads(dist.weights)
    half = {PLUS: 0.5, MINUS: 0.5}
    measurement = Measurement(
        "M",
        ResponseFunction(space, OUTCOMES, dict.fromkeys(space.states, half)),
        MeasurementUpdate(space, OUTCOMES, outcome_rows={PLUS: rows["plus"], MINUS: rows["minus"]}),
    )
    reset = TransformationKernel(space, dict.fromkeys(space.states, rows["reset"]))
    collapse = TransformationKernel(space, dict.fromkeys(space.states, rows["point"]))
    forms = [measurement.form, reset.form, collapse.form]
    assert {name: dist.weights.reads for name, dist in rows.items()} == dict.fromkeys(rows, 1)
    # the forms still send every state's weight where the rows say
    assert forms[2].to[None] == array("i", [0]) * len(space)
    branch = space.pack(dict.fromkeys(space.states, 1.0 / 40))
    assert space.unpack(forms[1].measure(branch, None)) == pytest.approx(spread)


@pytest.mark.parametrize("n", [16, 64])
def test_an_identity_update_of_many_states_measures_as_the_reference_walk(n):
    # random models reach 8 states; identity updates here leave every state in place, with a
    # certain outcome on the first two states, and the last state without a response row
    rng = np.random.default_rng(n)
    space = OnticStateSpace(tuple(f"s{i}" for i in range(n)))
    probabilities = [0.0, 1.0, *map(float, rng.random(n - 2))]
    table = {s: {PLUS: p, MINUS: 1.0 - p} for s, p in zip(space.states, probabilities)}
    update = MeasurementUpdate.noninvasive(space, OUTCOMES, space.states)
    raw = rng.random(n) + 1e-3
    weights = dict(zip(space.states, map(float, raw / raw.sum())))
    measurement = Measurement("M", ResponseFunction(space, OUTCOMES, table), update)
    assert measurement.form.in_place
    for q in OUTCOMES:
        pushed = space.unpack(measurement.form.measure(space.pack(weights), q))
        expected = reference_walk.measure(weights, measurement, (q,))
        assert list(pushed) == sorted(expected, key=space.position.__getitem__)
        assert max(abs(w - expected[s]) for s, w in pushed.items()) <= 1e-15
    last = space.states[-1]
    partial = Measurement("M", ResponseFunction(
        space, OUTCOMES, {s: row for s, row in table.items() if s != last}), update)
    assert partial.form.in_place
    for q in OUTCOMES:
        with pytest.raises(ModelError) as engine_error:
            partial.form.measure(space.pack(weights), q)
        with pytest.raises(ModelError) as error:
            reference_walk.measure(weights, partial, (q,))
        assert str(engine_error.value) == str(error.value) == (
            f"response undefined for state {last!r}")


def zoo_model(name):
    """A zoo entry's model at its defaults, ks-sphere on its smallest grid."""
    return zoo.build(name, **({"n_points": 100} if name == "ks-sphere" else {})).model


def test_ordered_outcomes_draw_point_masses_in_state_order():
    models = {name: zoo_model(name) for name in ("qubit", "ks-sphere", "superselected",
                                                 "bohm-two-path")}
    for name in ("qubit", "ks-sphere"):
        assert [set(k.form.runs) for k in models[name].transformations.values()] == [{None}] * 2
    # at the default angles each rotation sends the first two stages one stage on, in one run
    for kernel in models["ks-sphere"].transformations.values():
        assert kernel.form.runs == {None: [(0, 200, 100)]} and kernel.form.certain
    turned = zoo.build("ks-sphere", n_points=100, theta1=0.3, theta2=2.0).model
    assert len(turned.transformations["rot1"].form.runs[None]) == 2
    superselected = models["superselected"]
    read = superselected.measurement("read").form
    assert set(read.runs) == set(OUTCOMES) and not read.certain
    assert read.shared == {PLUS: 0, MINUS: 1}  # one state draws each outcome
    assert {s for runs in read.runs.values() for _, _, s in runs} == {0}
    assert not any(k.form.runs for k in superselected.transformations.values())
    assert not any(k.form.runs for k in models["bohm-two-path"].transformations.values())
    # a kernel sending a later state to an earlier position is not ordered
    space = OnticStateSpace(("a", "b", "c"))
    point = {s: Distribution.point_mass(space, s) for s in space.states}
    assert TransformationKernel(space, {"a": point["b"], "c": point["c"]}).form.runs == {
        None: [(0, 1, 1), (2, 3, 0)]}
    assert TransformationKernel(space, {"a": point["c"], "c": point["b"]}).form.runs == {}


def assert_measures_as_the_reference_walk(model):
    """Every kernel and measurement outcome of the model, from a point mass at each state,
    each preparation and the uniform weights, against the label-level walk: the same
    weights, or the same ModelError."""
    space = model.space
    branches = [{s: 1.0} for s in space.states]
    branches += [dict(dist.weights) for dist in model.preparations.values()]
    branches.append(dict.fromkeys(space.states, 1.0 / len(space)))
    parts = [(k.form, None, lambda w, k=k: reference_walk.push(w, k))
             for k in model.transformations.values()]
    parts += [(m.form, q, lambda w, m=m, q=q: reference_walk.measure(w, m, (q,)))
              for m in model.measurements.values() for q in m.outcomes]
    for form, outcome, reference in parts:
        for weights in branches:
            try:
                expected = reference(weights)
            except ModelError as error:
                with pytest.raises(ModelError) as engine_error:
                    form.measure(space.pack(weights), outcome)
                assert str(engine_error.value) == str(error)
                continue
            pushed = space.unpack(form.measure(space.pack(weights), outcome))
            assert list(pushed) == sorted(expected, key=space.position.__getitem__)
            if outcome in form.runs:  # each weight is one flow: the same float
                assert pushed == expected
            else:
                assert pushed == pytest.approx(expected, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("name", [name for name, _ in zoo.list_models()])
def test_every_zoo_form_measures_as_the_reference_walk(name):
    assert_measures_as_the_reference_walk(zoo_model(name))


def test_row_mutations_measure_as_the_reference_walk():
    arrangement = random_arrangement(np.random.default_rng(10), max_states=5,
                                     noninvasive_early=True)
    model = arrangement.model
    space = model.space
    last = space.states[-1]
    points = {s: Distribution.point_mass(space, s) for s in space.states if s != last}
    model = replace(model, transformations={**model.transformations,
                                                 "I": TransformationKernel(space, points)})
    mutations = [
        model,
        without_last_row(model, "T1"),
        identity_with_shared_rows().model,
        # M2's identity update without the last state's rows
        with_update(model, "M2", {}, {(s, q): points[s] for s in points for q in OUTCOMES}),
        # M1 draws PLUS from one row but at the last state, which has its own PLUS row and
        # no MINUS row: PLUS has no shared row, though the states missing none share one
        with_update(model, "M1", {}, {**{(s, PLUS): model.preparations["E"] for s in points},
                                      **{(s, MINUS): points[s] for s in points},
                                      (last, PLUS): points[space.states[0]]}),
    ]
    for mutated in mutations:
        assert_measures_as_the_reference_walk(mutated)


def test_a_missing_row_reached_through_an_ordered_form_names_it():
    space = OnticStateSpace(("a", "b", "c"))
    point = {s: Distribution.point_mass(space, s) for s in space.states}
    kernel = TransformationKernel(space, {"a": point["b"], "c": point["c"]}).form
    update = MeasurementUpdate(space, OUTCOMES, {("a", PLUS): point["a"], ("b", MINUS): point["b"],
                                                 ("c", PLUS): point["c"], ("c", MINUS): point["c"]})
    table = {"a": {PLUS: 1.0}, "b": {PLUS: 0.5, MINUS: 0.5}}
    measurement = Measurement("M", ResponseFunction(space, OUTCOMES, table), update).form
    assert set(kernel.runs) == {None} and set(measurement.runs) == set(OUTCOMES)
    uniform = space.pack(dict.fromkeys(space.states, 1.0 / 3))
    # weight only where rows are declared passes through the ordered reads
    assert kernel.measure(space.pack({"a": 0.25, "c": 0.75}), None) == ([1, 2], [0.25, 0.75])
    assert measurement.measure(space.pack({"a": 0.5, "b": 0.5}), MINUS) == ([1], [0.25])
    failures = {
        (kernel, None): "kernel row undefined for state 'b'",
        (measurement, PLUS): "measurement update undefined for state 'b', outcome '+1'",
        (measurement, MINUS): "response undefined for state 'c'",
    }
    for (form, outcome), message in failures.items():
        with pytest.raises(ModelError) as error:
            form.measure(uniform, outcome)
        assert str(error.value) == message


def ordered_point_masses(rng, n: int) -> dict:
    """A random map of some of n positions to targets that strictly increase with them, in runs:
    a state draws no row at times, and at times its target jumps ahead of the last one + 1."""
    to, target = {}, int(rng.integers(0, n // 2))
    for i in range(n):
        if rng.random() < 0.25:
            continue
        target += int(rng.random() < 0.3) * int(rng.integers(1, 4))
        if target >= n:
            break
        to[i] = target
        target += 1
    return to


def runs_model(rng, n: int) -> OnticModel:
    """A kernel and a measurement whose rows are all point masses in state order: some states
    lack a kernel row, a response row or an update row, and some responses are 0, -0.0 or 1."""
    space = OnticStateSpace(tuple(f"s{i}" for i in range(n)))
    point = [Distribution.point_mass(space, s) for s in space.states]
    kernel = TransformationKernel(space, {space.states[i]: point[t] for i, t in
                                          ordered_point_masses(rng, n).items()})
    table = {}
    for s in space.states:
        if rng.random() < 0.85:
            p = [0.0, -0.0, 1.0, 0.5, float(rng.random())][int(rng.integers(0, 5))]
            table[s] = {PLUS: p, MINUS: 1.0 - p}
    rows = {(space.states[i], q): point[t]
            for q in OUTCOMES for i, t in ordered_point_masses(rng, n).items()}
    measurement = Measurement("M", ResponseFunction(space, OUTCOMES, table),
                              MeasurementUpdate(space, OUTCOMES, rows))
    straddling = (kernel.form.runs[None][:2] if len(kernel.form.runs[None]) > 1
                  else [(0, n, 0)])
    states = [space.states[i] for a, b, _ in straddling for i in range(a, b)]
    spread = Distribution(space, dict.fromkeys(states, 1.0 / len(states)))
    return OnticModel(space, {"spread": spread}, {"T": kernel}, {"M": measurement})


def test_every_form_on_a_space_reads_its_one_positions_array(monkeypatch):
    read = []
    runs = core._runs
    monkeypatch.setattr(core, "_runs", lambda to, end, line: read.append(line) or runs(to, end, line))
    model = zoo.build_ks_arrangement(100, 1.0, 1.0).model
    space = model.space
    assert [model.transformation(t).form.runs for t in ("rot1", "rot2")] != [{}, {}]
    assert len(read) == 2 and all(line is space.line for line in read)
    assert space.line == array("i", range(len(space)))
    # kept outside the fields: equality, hash and repr see the states alone
    fresh = OnticStateSpace(space.states)
    assert OnticStateSpace._fields == ("states",)
    assert (fresh, hash(fresh), repr(fresh)) == (space, hash(space), repr(space))


def test_each_distribution_is_packed_once(monkeypatch):
    # the lg path packs each preparation it reads once, among them Mz's outcome rows (the up
    # and down preparations); a second run, and the classify path after it, pack nothing
    built = zoo.build("ks-sphere", n_points=100)
    model, packed = built.model, []
    pack = OnticStateSpace.pack
    monkeypatch.setattr(OnticStateSpace, "pack",
                        lambda space, weights: packed.append(weights) or pack(space, weights))
    for run in range(2):
        disturbance_report(built.arrangement)
        check_implication_chain(built.arrangement)
        if run == 0:
            assert packed and len(set(map(id, packed))) == len(packed)
            prepared = {id(dist.weights) for dist in model.preparations.values()}
            assert set(map(id, packed)) <= prepared
            packed.clear()
    quantity_class = QuantityClass.verified(model, "Q", ["Mz"])
    classify(model, quantity_class)
    assert check_equilibrium_property(model, quantity_class, "Mz").holds
    assert packed == []


@pytest.mark.parametrize("name", [name for name, _ in zoo.list_models()])
def test_a_distribution_keeps_its_branch_and_forms_share_its_tuples(name):
    model = zoo_model(name)
    space = model.space
    # a point mass made on request, kept in space.points beside those the rows are
    Distribution.point_mass(space, space.states[0])
    kernels, measurements = model.transformations.values(), model.measurements.values()
    rows = [*model.preparations.values(), *space.points.values(),
            *(row for kernel in kernels for row in kernel.rows.values()),
            *(row for meas in measurements
              for row in (*meas.update.rows.values(), *meas.update.outcome_rows.values()))]
    for dist in rows:
        branch = dist.branch
        positions, weights = space.pack(dist.weights)
        assert branch == (tuple(positions), tuple(weights))
        assert list(map(type, branch)) == [tuple, tuple]
        assert dist.branch is branch
        assert not hasattr(dist, "__dict__")
    drawn = [(kernel.form, label, None, row) for kernel in kernels
             for label, row in kernel.rows.items()]
    drawn += [(meas.form, label, q, update.rows.get((label, q), update.outcome_rows.get(q)))
              for meas in measurements for update in (meas.update,)
              for label, probabilities in meas.response.table.items()
              for q, p in probabilities.items() if p != 0.0]
    seen = set()
    for form, label, q, row in drawn:
        t = form.to[q][space.position[label]]
        if t > len(space):
            seen.add((id(form), t))
            assert form.rows[t][0] is row.branch[0] and form.rows[t][1] is row.branch[1]
    # every numbered row of every form is checked
    assert seen == {(id(form), t) for form, *_ in drawn for t in form.rows}


def test_runs_move_weight_and_effects_as_the_state_loop_does():
    # random point-mass rows in state order, with negative shifts, gaps and missing rows: the
    # sliced push and pull give the loop's and the per-state gather's floats, bit for bit
    rng = np.random.default_rng(29)
    seen = set()
    for _ in range(40):
        model = runs_model(rng, 12)
        space, end = model.space, 12
        assert_measures_as_the_reference_walk(model)
        forms = [(model.transformation("T").form, None)]
        forms += [(model.measurement("M").form, q) for q in OUTCOMES]
        base = array("d", rng.random(end))
        base[int(rng.integers(0, end))] = math.nan
        base[int(rng.integers(0, end))] = -0.0
        for form, q in forms:
            runs = form.runs.get(q)
            if runs is None:
                continue
            seen |= {"negative" if s < 0 else "positive" if s else "zero" for _, _, s in runs}
            seen |= {"two runs"} if len(runs) > 1 else set()
            seen |= {"gap"} if sum(b - a for a, b, _ in runs) < end else set()
            # zero weights and zero flows are dropped as the loop drops them, over every state
            # and over the states that draw a row
            drawing = [space.states[i] for a, b, _ in runs for i in range(a, b)]
            for states in (space.states, drawing):
                weights = {s: float(rng.integers(0, 2)) / 4 for s in states}
                try:
                    expected = (reference_walk.push(weights, model.transformation("T"))
                                if q is None else
                                reference_walk.measure(weights, model.measurement("M"), (q,)))
                except ModelError as error:
                    with pytest.raises(ModelError) as engine_error:
                        form.measure(space.pack(weights), q)
                    assert str(engine_error.value) == str(error)
                    seen.add("no row")
                    continue
                pushed = space.unpack(form.measure(space.pack(weights), q))
                assert pushed == {s: w for s, w in expected.items() if w != 0.0}
            if q in form.shared:  # pulled rank one, not through the runs
                continue
            ext = base + array("d", [0.0])
            gathered = array("d", map(mul, form.xi[q], map(ext.__getitem__, form.to[q])))
            c, pulled = form.pull([(1.0, base)], {})[form.outcomes.index(q)]
            assert c == 1.0 and pulled.tobytes() == gathered.tobytes()
    assert seen == {"negative", "positive", "zero", "two runs", "gap", "no row"}


def test_kernel_and_response_name_their_first_offending_row():
    space = OnticStateSpace(("a", "b"))
    twin, other = OnticStateSpace(("a", "b")), OnticStateSpace(("a", "c"))
    a = Distribution.point_mass(space, "a")
    # a row on an equal space is accepted; rows are checked in order, label before space
    assert TransformationKernel(space, {"a": Distribution.point_mass(twin, "b")}).rows
    refusals = [
        ({"a": a, "z": a}, ValidationError, "unknown state label 'z' in kernel"),
        ({"a": a, "z": a, "b": Distribution.point_mass(other, "a")}, ValidationError,
         "unknown state label 'z' in kernel"),
        ({"b": a, "a": Distribution.point_mass(other, "a")}, ModelError,
         "mismatched state spaces in transformation kernel row"),
    ]
    for rows, error, message in refusals:
        with pytest.raises(error) as refusal:
            TransformationKernel(space, rows)
        assert str(refusal.value) == message
    responses = [
        ({"a": {PLUS: 1.0}, "z": {PLUS: 1.0}}, "unknown state label 'z' in response table"),
        ({"a": {PLUS: 2.0}, "z": {PLUS: 1.0}}, "response row for 'a' sums to 2.0, expected 1"),
    ]
    for table, message in responses:
        with pytest.raises(ValidationError) as refusal:
            ResponseFunction(space, OUTCOMES, table)
        assert str(refusal.value) == message
