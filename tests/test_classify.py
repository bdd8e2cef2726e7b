
import numpy as np
import pytest
from scipy.optimize import nnls

from lglab import (
    ClassificationError,
    Distribution,
    Measurement,
    MeasurementUpdate,
    ModelError,
    OnticModel,
    OnticStateSpace,
    ResponseFunction,
    check_equilibrium_property,
    check_macrodefinite,
    classify,
)
from lglab.classify import HULL_TOL, QuantityClass, _eigenstates, _nnls
from lglab.core import SUPPORT_TOL
from lglab.operational import EQUIVALENCE_TOL
from lglab import core, zoo
import reference_walk
from builders import replace
from random_models import random_arrangement

PLUS, MINUS = "+1", "-1"


def model_class(build):
    label, members = next(iter(build.model.metadata["quantity_classes"].items()))
    return QuantityClass.verified(build.model, label, members)


def eigenstate_support(model, quantity_class, value):
    """The eigenstate preparations of one value, and the union of their supports."""
    names = _eigenstates(model, quantity_class)[value]
    return frozenset().union(*(model.preparations[name].support() for name in names)), names


class TestMacrodefinite:
    def test_chain_readout_is_definite(self):
        build = zoo.build("superselected")
        assert check_macrodefinite(build.model, model_class(build)).holds

    def test_qubit_superposed_state_witnessed(self):
        build = zoo.build("qubit")
        result = check_macrodefinite(build.model, model_class(build))
        assert not result.holds
        states = {s for s, _, _ in result.witnesses}
        assert any(s.startswith("q(0.5") or "0.866" in s for s in states)

    def test_class_members_must_agree(self, spin_model):
        space = spin_model.space
        flipped = Measurement(
            "flipped",
            ResponseFunction(
                space,
                (PLUS, MINUS),
                {
                    "z0": {PLUS: 0.0, MINUS: 1.0},
                    "z1": {PLUS: 1.0, MINUS: 0.0},
                    "x0": {PLUS: 0.5, MINUS: 0.5},
                    "x1": {PLUS: 0.5, MINUS: 0.5},
                },
            ),
            MeasurementUpdate.noninvasive(space, (PLUS, MINUS), space.states),
        )
        model = OnticModel(
            space=space,
            preparations=dict(spin_model.preparations),
            transformations=dict(spin_model.transformations),
            measurements={**spin_model.measurements, "flipped": flipped},
        )
        cls = QuantityClass("Q", ("Mz", "flipped"))
        result = check_macrodefinite(model, cls)
        assert not result.holds

    @staticmethod
    def partial_model(*rows_of_b):
        """Members M0, M1, ... all certain of +1 at 'a'; member i's row at 'b' is rows_of_b[i],
        and a None leaves 'b' out of that member's response."""
        space = OnticStateSpace(("a", "b"))
        measurements = {}
        for i, row in enumerate(rows_of_b):
            table = {"a": {PLUS: 1.0, MINUS: 0.0}}
            if row is not None:
                table["b"] = row
            measurements[f"M{i}"] = Measurement(
                f"M{i}", ResponseFunction(space, (PLUS, MINUS), table),
                MeasurementUpdate.noninvasive(space, (PLUS, MINUS), space.states))
        model = OnticModel(space=space, preparations={"up": Distribution.point_mass(space, "a")},
                           transformations={}, measurements=measurements)
        return model, QuantityClass("Q", tuple(measurements))

    def test_a_state_without_a_response_row_is_refused(self):
        model, cls = self.partial_model(None)
        for check in (check_macrodefinite, classify):
            with pytest.raises(ModelError, match=r"^response undefined for state 'b'$"):
                check(model, cls)

    def test_a_stochastic_row_stops_its_state_before_a_later_member_is_read(self):
        # M0 is stochastic at 'b', so M1, which has no row there, is not asked about 'b'
        model, cls = self.partial_model({PLUS: 0.5, MINUS: 0.5}, None)
        result = check_macrodefinite(model, cls)
        assert result.witnesses == (("b", "M0", "stochastic response {'+1': 0.5, '-1': 0.5}"),)
        assert result.value_of == {"a": PLUS}
        assert classify(model, cls).verdict == "not-MR"
        with pytest.raises(ModelError, match=r"^response undefined for state 'b'$"):
            check_macrodefinite(model, QuantityClass("Q", ("M1", "M0")))

    def test_each_distinct_response_row_is_decided_once(self, monkeypatch):
        build = zoo.build("ks-sphere", n_points=100)
        table = build.model.measurement("Mz").response.table
        assert (len(table), len({id(row) for row in table.values()})) == (300, 2)
        decided = []
        determined_outcome = ResponseFunction.determined_outcome

        def counted(response, label):
            decided.append(label)
            return determined_outcome(response, label)

        monkeypatch.setattr(ResponseFunction, "determined_outcome", counted)
        result = check_macrodefinite(build.model, model_class(build))
        assert result.holds and len(result.value_of) == 300
        assert len(decided) == 2


class TestEigenstateSupports:
    def test_point_preparation_support(self, spin_model):
        cls = QuantityClass("Q", ("Mz",))
        support, names = eigenstate_support(spin_model, cls, PLUS)
        assert support == frozenset({"z0"})
        assert names == ("zero",)

    def test_chain_has_one_basis_state_per_value(self):
        build = zoo.build("superselected")
        cls = model_class(build)
        for value, state in ((PLUS, "up"), (MINUS, "down")):
            support, _ = eigenstate_support(build.model, cls, value)
            assert support == frozenset({state})

    def test_sphere_supports_are_hemispheres(self):
        arr = zoo.build_ks_arrangement(500, 1.0, 1.0)
        cls = QuantityClass.verified(arr.model, "Q", ["Mz"])
        support, names = eigenstate_support(arr.model, cls, PLUS)
        assert "up" in names
        assert support == arr.model.preparations["up"].support()


def brute_eigenstates(model, members) -> dict:
    """Each value's eigenstate preparations, with every probability read by label."""
    measurements = [model.measurements[m] for m in members]
    return {q: tuple(name for name, dist in model.preparations.items()
                     if all(reference_walk.outcome_mass(dist.weights, meas, q)
                            >= 1.0 - EQUIVALENCE_TOL for meas in measurements))
            for q in measurements[0].outcomes}


def with_copy(model, measurement, label):
    """The model with one more measurement: a copy of ``measurement`` under ``label``."""
    meas = model.measurements[measurement]
    return replace(model, measurements={**model.measurements,
                                        label: Measurement(label, meas.response, meas.update)})


def certain_on_two_thirds(seed):
    """A seeded random model whose M1 answers +1 on every third state, -1 on the next and
    stays random on the rest, with a copy ``M1-copy``, a point-mass preparation of each
    state, a spread over the +1 states and a blend of a +1 and a -1 state."""
    model = random_arrangement(np.random.default_rng(seed)).model
    space, m1 = model.space, model.measurements["M1"]
    certain = ({PLUS: 1.0, MINUS: 0.0}, {PLUS: 0.0, MINUS: 1.0})
    table = {s: certain[i % 3] if i % 3 < 2 else dict(m1.response.table[s])
             for i, s in enumerate(space.states)}
    ups = space.states[::3]
    preparations = {**model.preparations,
                    **{s: Distribution.point_mass(space, s) for s in space.states},
                    "spread": Distribution(space, dict.fromkeys(ups, 1.0 / len(ups))),
                    "blend": Distribution(space, {space.states[0]: 0.3, space.states[1]: 0.7})}
    m1 = Measurement("M1", ResponseFunction(space, m1.outcomes, table), m1.update)
    model = replace(model, preparations=preparations,
                    measurements={**model.measurements, "M1": m1})
    return with_copy(model, "M1", "M1-copy")


class TestEigenstates:
    @pytest.mark.parametrize("name", [name for name, _ in zoo.list_models()])
    def test_zoo_classes_match_a_walk_by_label(self, name):
        model = zoo.build(name).model
        for label, members in model.metadata["quantity_classes"].items():
            eigen = _eigenstates(model, QuantityClass(label, tuple(members)))
            assert eigen == brute_eigenstates(model, members)
            assert list(eigen) == list(model.measurements[members[0]].outcomes)

    @pytest.mark.parametrize("seed", range(6000, 6012))
    def test_two_member_classes_of_random_models_match_a_walk_by_label(self, seed):
        model = certain_on_two_thirds(seed)
        members = ("M1", "M1-copy")
        eigen = _eigenstates(model, QuantityClass.verified(model, "Q", members))
        assert eigen == brute_eigenstates(model, members)
        assert model.space.states[0] in eigen[PLUS] and "spread" in eigen[PLUS]
        assert "blend" not in eigen[PLUS] + eigen[MINUS]

    @pytest.mark.parametrize("members", [("read",), ("read", "read-copy")])
    def test_classify_reads_each_preparation_once_per_member(self, monkeypatch, members):
        model = with_copy(zoo.build("superselected").model, "read", "read-copy")
        cls = QuantityClass.verified(model, "Q", members)
        reads = []
        masses = core.Form.masses

        def counted(form, branch):
            reads.append((form, tuple(branch[0])))
            return masses(form, branch)

        monkeypatch.setattr(core.Form, "masses", counted)
        result = classify(model, cls)
        assert result.eigenstate_preparations == {PLUS: ("prep-up",), MINUS: ("prep-down",)}
        packed = [tuple(model.space.pack(dist.weights)[0]) for dist in model.preparations.values()]
        forms = [model.measurements[m].form for m in members]
        assert len(reads) == len(packed) * len(members)
        assert sorted((id(form), positions) for form, positions in reads) == sorted(
            (id(form), positions) for form in forms for positions in packed)


class TestClassify:
    def test_superselected_is_mixture_macrorealist(self):
        build = zoo.build("superselected")
        result = classify(build.model, model_class(build))
        assert result.verdict == "MR1"
        mixed = next(e for e in result.evidence if e.name == "prep-mixed")
        assert mixed.hull_residual <= 1e-10
        assert mixed.hull_weights["prep-up"] == pytest.approx(0.5, abs=1e-8)

    def test_sphere_is_support_macrorealist(self):
        arr = zoo.build_ks_arrangement(800, 1.0, 1.0)
        result = classify(arr.model, QuantityClass.verified(arr.model, "Q", ["Mz"]))
        assert result.verdict == "MR2"
        side = next(e for e in result.evidence if e.name == "side")
        assert not side.mixture_member
        assert side.hull_residual > 1e-3
        assert side.support_contained

    def test_two_path_is_supra_support(self):
        build = zoo.build("bohm-two-path")
        result = classify(build.model, model_class(build))
        assert result.verdict == "MR3"
        superposed = next(e for e in result.evidence if e.name == "superposed")
        assert superposed.novel_states

    def test_qubit_is_not_macrorealist(self):
        build = zoo.build("qubit")
        result = classify(build.model, model_class(build))
        assert result.verdict == "not-MR"

    def test_not_mr_fills_only_its_witnesses(self):
        build = zoo.build("qubit")
        result = classify(build.model, model_class(build))
        assert not result.macrodefinite
        assert result.macrodefinite_witnesses
        assert result.macrodefinite_witnesses == check_macrodefinite(
            build.model, model_class(build)).witnesses
        assert result.eigenstate_preparations == {}
        assert result.values_without_eigenstate == ()
        assert result.evidence == ()
        assert result.classified_preparations == ()
        assert result.skipped_images == ()

    def test_no_eigenstate_preparation_is_an_error(self):
        space = OnticStateSpace(("a", "b"))
        response = ResponseFunction(
            space,
            (PLUS, MINUS),
            {"a": {PLUS: 1.0, MINUS: 0.0}, "b": {PLUS: 0.0, MINUS: 1.0}},
        )
        model = OnticModel(
            space=space,
            preparations={"blend": Distribution(space, {"a": 0.5, "b": 0.5})},
            transformations={},
            measurements={
                "M": Measurement(
                    "M",
                    response,
                    MeasurementUpdate.noninvasive(space, (PLUS, MINUS), space.states),
                )
            },
        )
        with pytest.raises(ClassificationError):
            classify(model, QuantityClass("Q", ("M",)))

    def test_mixture_membership_implies_support_containment(self):
        for name in ("superselected", "support-mr-minimal", "bohm-two-path"):
            build = zoo.build(name)
            result = classify(build.model, model_class(build))
            for ev in result.evidence:
                if ev.mixture_member:
                    assert ev.support_contained

    def test_value_components_respect_values(self):
        build = zoo.build("support-mr-minimal")
        cls = model_class(build)
        result = classify(build.model, cls)
        md = check_macrodefinite(build.model, cls)
        response = build.model.measurements["look"].response
        for ev in result.evidence:
            for value, comp in ev.value_components.items():
                for state, weight in comp.weights.items():
                    if weight > 0.0:
                        assert md.value_of[state] == value
                        assert response.row(state)[value] == 1.0

    def test_relabeling_invariance(self):
        build = zoo.build("support-mr-minimal")
        renamed = {"x": "s1", "y": "s2", "z": "s3"}
        space = OnticStateSpace(tuple(renamed[s] for s in build.model.space.states))

        def rename_dist(dist):
            return Distribution(space, {renamed[k]: v for k, v in dist.weights.items()})

        look = build.model.measurements["look"]
        model = OnticModel(
            space=space,
            preparations={k: rename_dist(v) for k, v in build.model.preparations.items()},
            transformations={},
            measurements={
                "look": Measurement(
                    "look",
                    ResponseFunction(
                        space,
                        look.outcomes,
                        {renamed[s]: dict(row) for s, row in look.response.table.items()},
                    ),
                    MeasurementUpdate(
                        space,
                        look.outcomes,
                        outcome_rows={
                            q: rename_dist(d) for q, d in look.update.outcome_rows.items()
                        },
                    ),
                )
            },
        )
        result = classify(model, QuantityClass.verified(model, "Q", ["look"]))
        assert result.verdict == "MR2"

    def test_transformation_images_can_join_the_classified_set(self):
        build = zoo.build("superselected")
        result = classify(build.model, model_class(build), image_depth=2)
        assert result.verdict == "MR1"
        assert any(">" in name for name in result.classified_preparations)

    def test_preparation_order_is_irrelevant(self):
        build = zoo.build("support-mr-minimal")
        shuffled = OnticModel(
            space=build.model.space,
            preparations=dict(reversed(list(build.model.preparations.items()))),
            transformations={},
            measurements=dict(build.model.measurements),
            metadata=dict(build.model.metadata),
        )
        cls = QuantityClass.verified(shuffled, "Q", ["look"])
        assert classify(shuffled, cls).verdict == "MR2"


def hull_cases(seed, spread):
    """Seeded (basis, target) pairs with k = 1..6 columns of probability vectors.

    On every other case the last column lies within ``spread`` of the
    first; every third target is a mixture of the columns, the rest are
    random and mostly outside their hull.
    """
    rng = np.random.default_rng(seed)

    def column(n):
        v = np.zeros(n)
        support = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        v[support] = rng.random(len(support)) + 1e-3
        return v / v.sum()

    for case in range(300):
        n = int(rng.integers(3, 41))
        k = case % 6 + 1
        basis = np.column_stack([column(n) for _ in range(k)])
        if k > 1 and case % 2:
            basis[:, -1] = (1.0 - spread) * basis[:, 0] + spread * column(n)
        target = basis @ rng.dirichlet(np.ones(k)) if case % 3 == 0 else column(n)
        yield basis, target


class TestHullSolve:
    """The stdlib Lawson-Hanson solve against scipy.optimize.nnls, the solver it replaced."""

    @staticmethod
    def both(basis, target):
        """(weights, 2-norm residual, total-variation residual) of each solver."""
        ours = np.array(_nnls([c.tolist() for c in basis.T], target.tolist()))
        theirs, _ = nnls(basis, target)
        return [(w, np.linalg.norm(basis @ w - target), 0.5 * np.abs(basis @ w - target).sum())
                for w in (ours, theirs)]

    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_weights_and_residuals_match_scipy(self, seed):
        for basis, target in hull_cases(seed, spread=1.0):
            (ours, _, r_ours), (theirs, _, r_theirs) = self.both(basis, target)
            assert (r_ours <= HULL_TOL) == (r_theirs <= HULL_TOL)
            assert np.abs(ours - theirs).max() <= 1e-12
            assert abs(r_ours - r_theirs) <= 1e-12

    @pytest.mark.parametrize("spread", [1e-3, 1e-7, 1e-10, 0.0])
    def test_nearly_dependent_columns_keep_verdicts_and_objective(self, spread):
        # Nearly dependent columns fix the weights, and so the fit, only to
        # about 1e-16 times the squared condition number, for scipy as much
        # as here; the verdict and the minimised 2-norm residual are fixed.
        for seed in (3, 5, 7):
            for basis, target in hull_cases(seed, spread):
                (_, l2_ours, r_ours), (_, l2_theirs, r_theirs) = self.both(basis, target)
                assert (r_ours <= HULL_TOL) == (r_theirs <= HULL_TOL)
                assert abs(l2_ours - l2_theirs) <= 1e-12


class TestEquilibrium:
    def test_identity_update_is_fixed_point(self):
        build = zoo.build("superselected")
        result = check_equilibrium_property(build.model, model_class(build), "read")
        assert result.holds

    def test_resampling_update_preserves_eigen_density(self):
        arr = zoo.build_ks_arrangement(500, 1.0, 1.0)
        cls = QuantityClass.verified(arr.model, "Q", ["Mz"])
        result = check_equilibrium_property(arr.model, cls, "Mz")
        assert result.holds
        assert result.worst_deviation <= 1e-12

    def test_drifting_update_detected(self):
        build = zoo.build("drifting-update")
        result = check_equilibrium_property(build.model, model_class(build), "swapper")
        assert not result.holds

    def test_a_measurement_of_another_outcome_set_is_refused(self, spin_model):
        space = spin_model.space
        odd = Measurement("odd", ResponseFunction(space, ("u", "d"), {
            s: {"u": 1.0, "d": 0.0} for s in space.states}), MeasurementUpdate(space, ("u", "d")))
        model = replace(spin_model, measurements={**spin_model.measurements, "odd": odd})
        with pytest.raises(ModelError, match="'odd' and the members of 'Q' have different "
                                             "outcome sets"):
            check_equilibrium_property(model, QuantityClass("Q", ("Mz",)), "odd")
        with pytest.raises(ModelError, match="the members of 'Q' have different outcome sets"):
            check_equilibrium_property(model, QuantityClass("Q", ("Mz", "odd")), "Mz")

    def test_an_unverified_member_without_a_row_on_a_preparation_is_refused(self, spin_model):
        # Mz answers "plus" (state x0) at random, so it alone rules "plus" out; the class's
        # second member is still read on it, and has no response row there
        mz = spin_model.measurements["Mz"]
        table = {s: mz.response.table[s] for s in ("z0", "z1")}
        partial = Measurement("partial", ResponseFunction(spin_model.space, mz.outcomes, table),
                              mz.update)
        model = replace(spin_model, measurements={**spin_model.measurements, "partial": partial})
        with pytest.raises(ModelError, match="response undefined for state 'x0'"):
            check_equilibrium_property(model, QuantityClass("Q", ("Mz", "partial")), "Mz")


def label_level_equilibrium(model, quantity_class, measurement) -> dict:
    """``check_equilibrium_property``'s deviations computed by label: each eigenstate
    preparation's states that give its value as a dict, the posterior unpacked, divided by
    P(q) and validated as a Distribution, and its total variation from the preparation."""
    meas, space = model.measurement(measurement), model.space
    eigen_names = _eigenstates(model, quantity_class)
    deviations = {}
    for q in meas.outcomes:
        for name in eigen_names[q]:
            dist = model.preparation(name)
            branch = space.pack({label: w for label, w in dist.weights.items()
                                 if meas.response.row(label)[q] > SUPPORT_TOL})
            p_q = meas.form.masses(branch)[q]
            post = space.unpack(meas.form.measure(branch, q))
            post = Distribution(space, {label: w / p_q for label, w in post.items()}).weights
            deviations[name] = reference_walk.total_variation(post, dist.weights, space)
    return deviations


def assert_equilibrium_matches_the_label_level_reference(model, members):
    quantity_class = QuantityClass("Q", tuple(members))
    for measurement in members:
        ours = check_equilibrium_property(model, quantity_class, measurement).per_preparation
        theirs = label_level_equilibrium(model, quantity_class, measurement)
        assert [(k, v.hex()) for k, v in ours.items()] == [(k, v.hex()) for k, v in theirs.items()]


@pytest.mark.parametrize("name", [name for name, _ in zoo.list_models()])
def test_equilibrium_deviations_of_zoo_classes_equal_the_label_level_reference(name):
    model = zoo.build(name, **({"n_points": 100} if name == "ks-sphere" else {})).model
    assert_equilibrium_matches_the_label_level_reference(
        model, model.metadata["quantity_classes"]["Q"])


def test_equilibrium_deviations_of_random_classes_equal_the_label_level_reference():
    # the random M1 moves each eigenstate preparation, so the deviations are not 0 or 1
    for seed in range(6000, 6012):
        assert_equilibrium_matches_the_label_level_reference(certain_on_two_thirds(seed),
                                                             ("M1", "M1-copy"))


def test_images_stop_at_the_first_depth_that_adds_none(lines_run):
    # the model has no transformation, so no depth adds an image: the loop over
    # depths stops at the first empty frontier, and a deep --image-depth costs nothing more
    build = zoo.build("support-mr-minimal")
    cls = model_class(build)
    shallow, deep = (lines_run(classify, build.model, cls, depth) for depth in (2, 10**3))
    assert deep == shallow
