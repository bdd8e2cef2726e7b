import math
from types import SimpleNamespace

import numpy as np
import pytest

from lglab import (
    Distribution,
    EngineDefectError,
    ModelError,
    check_macrodefinite,
    lg_value_pairwise,
    run_protocol,
)
from lglab.classify import QuantityClass
from lglab import core, schema, zoo
from builders import sphere_probe

PLUS, MINUS = "+1", "-1"
TWO_THIRDS_PI = 2.0 * math.pi / 3.0
FIXTURES = ("lgi-holds-d-nonzero", "null-result-pair", "support-mr-minimal", "drifting-update")
MASKS = (
    (True, True, True),
    (True, True, False),
    (True, False, True),
    (False, True, True),
)


class TestQubit:
    def test_frozen_dynamics(self):
        assert lg_value_pairwise(zoo.build_qubit_arrangement(0.0, 0.0)) == pytest.approx(3.0)

    def test_boundary_at_half_pi(self):
        arr = zoo.build_qubit_arrangement(math.pi / 2.0, math.pi / 2.0)
        assert lg_value_pairwise(arr) == pytest.approx(-1.0, abs=1e-12)

    def test_global_minimum_angles(self):
        arr = zoo.build_qubit_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI)
        assert lg_value_pairwise(arr) == pytest.approx(-1.5, abs=1e-9)

    def test_engine_matches_sequential_closed_form(self):
        # pair correlators: cos t1 + cos(t1 + t2) + cos t2, from one-step
        # overlap factors; an oracle independent of the propagation engine
        rng = np.random.default_rng(2)
        for _ in range(12):
            t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
            arr = zoo.build_qubit_arrangement(t1, t2)
            want = math.cos(t1) + math.cos(t1 + t2) + math.cos(t2)
            assert lg_value_pairwise(arr) == pytest.approx(want, abs=1e-12)

    def test_single_shot_born_rule(self):
        arr = zoo.build_qubit_arrangement(1.1, 0.4)
        model = arr.model
        p = core.outcome_probabilities(
            core.compose_preparation(model.preparations["up"], model.transformations["rot1"]),
            model.measurements["Mz"],
        )[PLUS]
        assert p == pytest.approx(math.cos(1.1 / 2.0) ** 2, abs=1e-12)


class TestSuperselected:
    def test_no_flips_freezes_history(self):
        assert lg_value_pairwise(zoo.build_superselected_arrangement(0.0, 0.0)) == 3.0

    def test_quarter_flip_value(self):
        arr = zoo.build_superselected_arrangement(0.25, 0.25)
        assert lg_value_pairwise(arr) == pytest.approx(1.25, abs=1e-12)

    def test_half_flip_decorrelates(self):
        arr = zoo.build_superselected_arrangement(0.5, 0.5)
        assert lg_value_pairwise(arr) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ModelError):
            zoo.build_superselected_arrangement(1.5, 0.0)


class TestKsSphere:
    N = 2000

    def test_aligned_reading_is_certain(self):
        arr = zoo.build_ks_arrangement(self.N, 1.0, 1.0)
        p = core.outcome_probabilities(
            arr.model.preparations["up"], arr.model.measurements["Mz"]
        )[PLUS]
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_reading_splits(self):
        arr = zoo.build_ks_arrangement(self.N, 1.0, 1.0)
        probe = sphere_probe(arr.model, (1.0, 0.0, 0.0))
        p = core.outcome_probabilities(arr.model.preparations["up"], probe)[PLUS]
        assert p == pytest.approx(0.5, abs=5e-3)

    def test_sphere_probe_along_z_reads_as_mz(self):
        model = zoo.build_ks_arrangement(self.N, 1.0, 1.0).model
        probe = sphere_probe(model, (0.0, 0.0, 1.0))
        for prep in model.preparations.values():
            assert core.outcome_probabilities(prep, probe) == core.outcome_probabilities(
                prep, model.measurements["Mz"])

    def test_born_rule_converges_with_grid(self):
        direction = np.array([math.sin(1.0), 0.0, math.cos(1.0)])
        exact = math.cos(0.5) ** 2
        errors = []
        for n in (500, 4000):
            arr = zoo.build_ks_arrangement(n, 1.0, 1.0)
            probe = sphere_probe(arr.model, direction)
            p = core.outcome_probabilities(arr.model.preparations["up"], probe)[PLUS]
            errors.append(abs(p - exact))
        assert errors[1] < errors[0]
        assert errors[1] < 2e-3

    def test_pairwise_value_tracks_quantum(self):
        arr = zoo.build_ks_arrangement(self.N, TWO_THIRDS_PI, TWO_THIRDS_PI)
        assert lg_value_pairwise(arr) == pytest.approx(-1.5, abs=5e-2)

    def test_reading_is_value_definite_everywhere(self):
        arr = zoo.build_ks_arrangement(500, 1.0, 2.0)
        cls = QuantityClass.verified(arr.model, "Q", ["Mz"])
        assert check_macrodefinite(arr.model, cls).holds

    def test_grid_size_floor(self):
        with pytest.raises(ModelError):
            zoo.build_ks_arrangement(50, 1.0, 1.0)

    def test_rows_are_one_object_per_distinct_row(self):
        # rot1 and rot2 send the 200 states of the first two stages to the 200 of the
        # last two: each target's point mass is one object, built or loaded
        model = zoo.build("ks-sphere", n_points=100).model
        loaded, _, _ = schema.doc_to_model(schema.model_to_doc(model))
        for m in (model, loaded):
            rows = [row for name in ("rot1", "rot2") for row in m.transformations[name].rows.values()]
            assert len(rows) == 400
            assert len({id(row) for row in rows}) == len({s for row in rows for s in row.weights})
            assert len({id(row) for row in rows}) == 200
        # every state draws one of the builder's two response rows
        table = model.measurements["Mz"].response.table
        assert len({id(row) for row in table.values()}) == 2

    @pytest.mark.parametrize("n_points", [200, 10_000])
    def test_geometry_matches_the_numpy_build(self, n_points):
        """Stage signs and preparation weights equal the numpy build the stdlib one replaced."""
        index = np.arange(n_points)
        z = 1.0 - (2.0 * index + 1.0) / n_points
        phi = 2.0 * math.pi * index / ((1.0 + math.sqrt(5.0)) / 2.0)
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        base = np.column_stack((r * np.cos(phi), r * np.sin(phi), z))
        model = zoo.build("ks-sphere", n_points=n_points).model
        response = model.measurements["Mz"].response
        for i, angle in enumerate(model.metadata["stage_angles"]):
            c, s = math.cos(angle), math.sin(angle)
            rotation = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
            signs = [bool(v) for v in (rotation @ base.T)[2] >= 0.0]
            assert [response.row(f"r{i}:{k}")[PLUS] == 1.0 for k in range(n_points)] == signs
        for name, direction in (("up", (0.0, 0.0, 1.0)), ("down", (0.0, 0.0, -1.0)),
                                ("side", (1.0, 0.0, 0.0))):
            dots = base @ np.asarray(direction)
            w = np.where(dots > 0.0, dots, 0.0)
            w = w / w.sum()
            expected = {f"r0:{k}": float(w[k]) for k in range(n_points) if w[k] > 0.0}
            assert model.preparations[name].weights == Distribution(model.space, expected).weights


class TestTwoPath:
    def test_tables_match_qubit_everywhere(self):
        for t1, t2 in ((TWO_THIRDS_PI, TWO_THIRDS_PI), (0.7, 2.4), (math.pi / 2, 1.9)):
            q = zoo.build_qubit_arrangement(t1, t2)
            b = zoo.build_bohm_arrangement(t1, t2)
            for mask in MASKS:
                jq = run_protocol(q.model, q.protocol(mask))
                jb = run_protocol(b.model, b.protocol(mask))
                worst = max(abs(jq.table[k] - jb.table[k]) for k in jq.table)
                assert worst <= 1e-12

    def test_path_bit_is_value_definite(self):
        arr = zoo.build_bohm_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI)
        cls = QuantityClass.verified(arr.model, "Q", ["path"])
        assert check_macrodefinite(arr.model, cls).holds

    def test_violates_with_definite_paths(self):
        arr = zoo.build_bohm_arrangement(TWO_THIRDS_PI, TWO_THIRDS_PI)
        assert lg_value_pairwise(arr) == pytest.approx(-1.5, abs=1e-9)


#: The default angles and angle pairs whose stage angles stay finite.
CLOSURE_PAIRS = [(TWO_THIRDS_PI, TWO_THIRDS_PI), (0.0, 0.0), (-0.0, 1.0), (1.0, 1.0),
                 (math.pi, math.pi), (2.0 * math.pi, -2.0 * math.pi), (0.3, 2.0), (-1.2, 5.5)]


def _reach(model, unit):
    """Brute force over the kernels' public rows, at the level of ``unit(label)``.

    The starts are the units of the preparations and the update rows (the
    collapse targets). Returns the starts, the units one rotation reaches
    from them, and the units one or two rotations reach, rot1 and rot2 in
    either order.
    """
    kernels = [model.transformations[name] for name in ("rot1", "rot2")]
    rows = [*model.preparations.values()]
    for meas in model.measurements.values():
        rows += [*meas.update.rows.values(), *meas.update.outcome_rows.values()]
    starts = {unit(label) for row in rows for label in row.weights}

    def images(units):
        return {unit(target) for kernel in kernels for label, row in kernel.rows.items()
                if unit(label) in units for target in row.weights}

    one = starts | images(starts)
    return starts, one, one | images(one)


def _check_closure(model, unit):
    """States are what the starts reach; each kernel has rows on the starts and their images."""
    _, one, two = _reach(model, unit)
    assert {unit(label) for label in model.space.states} == two
    for name in ("rot1", "rot2"):
        assert {unit(label) for label in model.transformations[name].rows} == one
    return one, two


class TestReachableClosure:
    @pytest.mark.parametrize("t1, t2", CLOSURE_PAIRS)
    def test_qubit_states_are_the_two_rotation_closure(self, t1, t2):
        model = zoo.build_qubit_arrangement(t1, t2).model
        _check_closure(model, lambda label: label)
        for kernel in model.transformations.values():
            assert all(len(row.weights) == 1 for row in kernel.rows.values())

    @pytest.mark.parametrize("t1, t2", CLOSURE_PAIRS)
    def test_two_path_modes_are_the_two_rotation_closure(self, t1, t2):
        model = zoo.build_bohm_arrangement(t1, t2).model
        one, _ = _check_closure(model, lambda label: label.split("|")[1])
        for kernel in model.transformations.values():  # every path of a mapped mode has a row
            assert set(kernel.rows) == {s for s in model.space.states if s.split("|")[1] in one}

    @pytest.mark.parametrize("t1, t2", CLOSURE_PAIRS)
    def test_sphere_stage_angles_are_the_two_rotation_closure(self, t1, t2):
        n_points = 100
        model = zoo.build_ks_arrangement(n_points, t1, t2).model
        angles = model.metadata["stage_angles"]
        reached = {0.0, t1, t2, t1 + t1, t1 + t2, t2 + t1, t2 + t2}
        assert len(angles) == len(reached) and set(angles) == reached
        one, two = _check_closure(model, lambda label: int(label[1:label.index(":")]))
        assert two == set(range(len(angles)))
        for name, theta in (("rot1", t1), ("rot2", t2)):
            rows = model.transformations[name].rows
            assert len(rows) == len(one) * n_points
            for label, row in rows.items():
                stage, k = map(int, label[1:].split(":"))
                (target,) = row.weights
                assert target == f"r{angles.index(angles[stage] + theta)}:{k}"


#: Angle pairs at whole multiples of pi: an amplitude that is 0 in exact arithmetic
#: comes out of the rotations as a rounding residue of either sign.
DIAGONAL, ANTIDIAGONAL = "(0.707106781187,0.707106781187)", "(0.707106781187,-0.707106781187)"
BASIS_AND_DIAGONAL = {"p1|(1,0)", "p2|(0,1)", f"p1|{DIAGONAL}", f"p2|{DIAGONAL}"}
BOTH_DIAGONALS = BASIS_AND_DIAGONAL | {f"p1|{ANTIDIAGONAL}", f"p2|{ANTIDIAGONAL}"}
RESIDUE_PAIRS = [(2.0 * math.pi, -2.0 * math.pi, BASIS_AND_DIAGONAL),
                 (3.0 * math.pi, -math.pi, BOTH_DIAGONALS),
                 (-math.pi, -math.pi, BOTH_DIAGONALS)]


class TestOneStatePerRay:
    """A rounding residue on an amplitude never splits one ray into two states."""

    @pytest.mark.parametrize("t1, t2, _", RESIDUE_PAIRS)
    def test_qubit_reaches_the_two_basis_rays(self, t1, t2, _):
        assert zoo.build_qubit_arrangement(t1, t2).model.space.states == ("q(1,0)", "q(0,1)")

    @pytest.mark.parametrize("t1, t2, states", RESIDUE_PAIRS)
    def test_two_path_states_are_one_per_ray_and_path(self, t1, t2, states):
        assert set(zoo.build_bohm_arrangement(t1, t2).model.space.states) == states


class TestFixtures:
    def test_registry_is_stable(self):
        names = [name for name, _ in zoo.list_models()]
        assert names == [
            "qubit",
            "superselected",
            "ks-sphere",
            "bohm-two-path",
            "lgi-holds-d-nonzero",
            "null-result-pair",
            "support-mr-minimal",
            "drifting-update",
        ]

    def test_fixtures_reverify_on_build(self):
        for name in ("lgi-holds-d-nonzero", "null-result-pair", "support-mr-minimal"):
            built = zoo.build(name)
            assert isinstance(built, zoo.ZooBuild) and built.name == name

    @pytest.mark.parametrize("name", FIXTURES)
    def test_each_fixture_builds_the_same_document_every_time(self, name):
        def doc(built):
            arrangements = {"lg": built.arrangement} if built.arrangement else {}
            return schema.model_to_doc(built.model, name=built.name, arrangements=arrangements)

        assert doc(zoo.build(name)) == doc(zoo.build(name))

    def test_build_by_name_builds_only_that_fixture(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classify ran for a fixture that was not asked for")

        monkeypatch.setattr(zoo, "classify", refuse)
        for name in FIXTURES:
            if name != "support-mr-minimal":
                zoo.build(name)

    def test_failed_build_time_verification_raises(self, monkeypatch):
        monkeypatch.setattr(zoo, "classify", lambda model, cls: SimpleNamespace(verdict="MR1"))
        with pytest.raises(EngineDefectError, match="support-mr-minimal"):
            zoo.build("support-mr-minimal")

    def test_unknown_name_rejected(self):
        with pytest.raises(ModelError):
            zoo.build("no-such-model")

    def test_fixture_takes_no_parameters(self):
        with pytest.raises(ModelError):
            zoo.build("null-result-pair", theta1=1.0)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ModelError):
            zoo.build("qubit", n_points=10)


#: A non-default value of every builder parameter (ks-sphere at a small grid).
OFF_DEFAULTS = {"theta1": 1.0, "theta2": 0.5, "p1": 0.1, "p2": 0.7, "n_points": 300}


class TestDeclaredMetadata:
    @pytest.mark.parametrize("name", [name for name, _ in zoo.list_models()])
    @pytest.mark.parametrize("off_default", [False, True])
    def test_family_then_parameters_then_the_class(self, name, off_default):
        params = zoo.parameters(name)
        given = {p: OFF_DEFAULTS[p] for p in params} if off_default else {}
        model = zoo.build(name, **given).model
        keys = list(model.metadata)
        assert keys[0] == "family"
        assert tuple(keys[1:1 + len(params)]) == params
        for p, value in given.items():
            assert model.metadata[p] == value
        assert keys[-1] == "quantity_classes"
        assert model.metadata["quantity_classes"] == {"Q": list(model.measurements)}
        assert list(schema.model_to_doc(model)["metadata"]) == keys[:-1]
