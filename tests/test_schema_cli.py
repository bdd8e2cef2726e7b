import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lglab import (
    EQUIVALENCE_TOL,
    HULL_TOL,
    NORMALIZATION_TOL,
    RESIDUAL_TOL,
    SUPPORT_TOL,
    SchemaError,
    TransformationKernel,
    check_implication_chain,
    lg_value_pairwise,
)
from lglab import __version__, cli, core, schema, zoo
from lglab.classify import QuantityClass, classify
from builders import expanded, replace
from random_models import identity_with_shared_rows, random_arrangement, with_update
from perfbench.workloads import (
    CLASSIFY_PINS,
    CLASSIFY_REFUSALS,
    CLI_GRID,
    EXPORT_STATES,
    LG_PINS,
    ZOO,
)

TWO_THIRDS_PI = 2.0 * math.pi / 3.0


def export_doc(name, **params):
    build = zoo.build(name, **params)
    arrangements = {}
    protocols = {}
    if build.arrangement is not None:
        arrangements["lg"] = build.arrangement
        protocols["lg-all"] = build.arrangement.protocol()
    return build, schema.model_to_doc(
        build.model, name=name, arrangements=arrangements, protocols=protocols
    )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name,params",
        [
            ("qubit", {}),
            ("superselected", {}),
            ("bohm-two-path", {}),
            ("ks-sphere", {"n_points": 400}),
            ("lgi-holds-d-nonzero", {}),
            ("null-result-pair", {}),
            ("support-mr-minimal", {}),
            ("drifting-update", {}),
        ],
    )
    def test_export_import_reexport_is_identity(self, name, params):
        build, doc = export_doc(name, **params)
        text = json.dumps(doc, indent=2)
        model, protocols, arrangements = schema.doc_to_model(json.loads(text))
        assert model.space.states == build.model.space.states
        doc2 = schema.model_to_doc(
            model,
            name=name,
            arrangements=arrangements,
            protocols=protocols,
        )
        assert json.dumps(doc2, indent=2) == text

    @pytest.mark.parametrize("name", [name for name, _ in zoo.list_models()])
    def test_a_file_without_label_rows_loads_to_the_model_it_wrote(self, name):
        # every certain row written as a dict, as files without label rows write them
        _, doc = export_doc(name, **({"n_points": 100} if name == "ks-sphere" else {}))
        old = expanded(doc)
        assert old != doc
        model, protocols, arrangements = schema.doc_to_model(json.loads(json.dumps(old)))
        again = schema.model_to_doc(model, name=name, arrangements=arrangements,
                                    protocols=protocols)
        assert json.dumps(again, indent=2) == json.dumps(doc, indent=2)

    def test_imported_arrangement_reproduces_values(self):
        build, doc = export_doc("qubit")
        model, _, arrangements = schema.doc_to_model(json.loads(json.dumps(doc)))
        assert lg_value_pairwise(arrangements["lg"]) == lg_value_pairwise(build.arrangement)

    def test_sphere_export_carries_grid_metadata(self):
        _, doc = export_doc("ks-sphere", n_points=400)
        assert doc["metadata"]["n_points"] == 400
        assert "grid" in doc["metadata"]
        assert "update_rule" in doc["metadata"]


class TestSchemaValidation:
    def test_requires_schema_version(self):
        with pytest.raises(SchemaError):
            schema.doc_to_model({"ontic_states": ["a"]})

    def test_unknown_version_rejected(self):
        with pytest.raises(SchemaError):
            schema.doc_to_model(
                {"schema": 9, "ontic_states": ["a"], "preparations": {},
                 "transformations": {}, "measurements": {}}
            )

    def test_unnormalized_row_is_path_tagged(self):
        doc = {
            "schema": 1,
            "ontic_states": ["a", "b"],
            "preparations": {"E": {"a": 0.6, "b": 0.6}},
            "transformations": {},
            "measurements": {},
        }
        with pytest.raises(SchemaError) as err:
            schema.doc_to_model(doc)
        assert "preparations.E" in str(err.value)

    def test_mixed_update_rows_are_refused_at_export(self):
        # M1 draws +1 from one shared row and keeps its per-state -1 rows, which a file,
        # declaring an update per state or per outcome, cannot hold
        model = random_arrangement(np.random.default_rng(7)).model
        rows = model.measurements["M1"].update.rows
        mixed = with_update(model, "M1", {core.PLUS: model.preparations["E"]},
                            rows={key: row for key, row in rows.items() if key[1] == core.MINUS})
        with pytest.raises(SchemaError) as refusal:
            schema.model_to_doc(mixed)
        assert refusal.value.path == "measurements.M1.update"
        assert str(refusal.value) == ("measurements.M1.update: mixed per-state and per-outcome "
                                      "update rows cannot be serialized")

    def test_unknown_measurement_in_class(self):
        doc = {
            "schema": 1,
            "ontic_states": ["a"],
            "preparations": {"E": {"a": 1.0}},
            "transformations": {},
            "measurements": {},
            "quantity_classes": {"Q": ["nope"]},
        }
        with pytest.raises(SchemaError):
            schema.doc_to_model(doc)


def run_cli(args):
    return cli.main(args)


def exit_code(args):
    """The exit code of a command line, whether main returns it or argparse exits."""
    try:
        return run_cli(args)
    except SystemExit as exc:
        return exc.code


class TestCli:
    def test_lg_zoo_report(self, capsys):
        code = run_cli(
            ["lg", "--zoo", "superselected", "--p1", "0.25", "--p2", "0.25", "--no-timestamp"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["results"]["lg_pairwise"] == pytest.approx(1.25, abs=1e-12)
        assert out["results"]["chain"]["lgi_satisfied"] is True
        assert "tolerances" in out

    def test_reports_are_byte_identical(self, capsys):
        args = ["lg", "--zoo", "qubit", "--no-timestamp"]
        run_cli(args)
        first = capsys.readouterr().out
        run_cli(args)
        second = capsys.readouterr().out
        assert first == second

    def test_run_on_exported_file(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        assert run_cli(["zoo", "export", "superselected", "--out", str(path)]) == 0
        capsys.readouterr()
        code = run_cli(
            ["run", "--model", str(path), "--protocol", "lg-all", "--marginal", "0,2",
             "--no-timestamp"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        rows = {tuple(r["outcomes"]): r["p"] for r in out["results"]["joint"]}
        assert sum(rows.values()) == pytest.approx(1.0, abs=1e-12)
        assert "0,2" in out["results"]["marginals"]

    def test_a_step_without_perform_or_transformation_takes_their_defaults(self, tmp_path,
                                                                           capsys):
        # a step is performed unless it says otherwise, and has no transformation unless
        # it names one
        path = tmp_path / "superselected.json"
        assert run_cli(["zoo", "export", "superselected", "--out", str(path)]) == 0
        original = path.read_text()
        doc = json.loads(original)
        dropped = 0
        for protocol in doc["protocols"].values():
            for step in protocol["steps"]:
                for key, default in (("perform", True), ("transformation", None)):
                    if step[key] is default:
                        del step[key]
                        dropped += 1
        assert dropped == 13  # 4 protocols: 9 performed steps and 4 first steps without one
        _, protocols, _ = schema.doc_to_model(doc)
        assert protocols == schema.doc_to_model(json.loads(original))[1]
        argv = ["run", "--model", str(path), "--protocol", "lg-all", "--marginal", "0,2",
                "--no-timestamp"]
        capsys.readouterr()
        assert run_cli(argv) == 0
        expected = capsys.readouterr()
        path.write_text(json.dumps(doc))
        assert run_cli(argv) == 0
        assert capsys.readouterr() == expected

    def test_lg_on_model_file_matches_zoo(self, tmp_path, capsys):
        path = tmp_path / "qubit.json"
        run_cli(["zoo", "export", "qubit", "--out", str(path)])
        capsys.readouterr()
        run_cli(["lg", "--model", str(path), "--arrangement", "lg", "--no-timestamp"])
        from_file = json.loads(capsys.readouterr().out)["results"]["lg_pairwise"]
        run_cli(["lg", "--zoo", "qubit", "--no-timestamp"])
        from_zoo = json.loads(capsys.readouterr().out)["results"]["lg_pairwise"]
        assert from_file == from_zoo

    def test_lg_chain_explains_each_early_measurement(self, tmp_path, capsys):
        # a third kernel lacking one row leaves some complete-check contexts undefined
        arr = random_arrangement(np.random.default_rng(3))
        model, last = arr.model, arr.model.space.states[-1]
        partial = TransformationKernel(
            model.space, {s: row for s, row in model.transformations["T1"].rows.items() if s != last}
        )
        model = replace(model, transformations={**model.transformations, "T3": partial})
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(schema.model_to_doc(
            model, arrangements={"lg": replace(arr, model=model)})))
        args = ["lg", "--model", str(path), "--no-timestamp"]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        run_cli(args)
        assert capsys.readouterr().out == first
        chain = json.loads(first)["results"]["chain"]
        record = check_implication_chain(schema.load_model_file(str(path))[2]["lg"])
        assert list(chain["measurements"]) == ["M1", "M2"]
        for name, ontic, complete in zip(("M1", "M2"), record.details["oni_deviations"],
                                         record.details["complete"]):
            entry = chain["measurements"][name]
            assert entry["ontic_deviation"] == ontic
            assert entry["complete"]["max_deviation"] == complete.max_deviation
            assert entry["complete"]["undefined_contexts"] == complete.undefined_contexts > 0
            # a missing kernel row settles nothing, so every context was walked
            assert entry["complete"]["settled"] is complete.settled is False
            assert entry["complete"]["preparations"] == list(complete.preparations)
            preparation, prefix, pre_transformation, suffix = complete.witness
            assert entry["complete"]["witness"] == {
                "preparation": preparation,
                "prefix": [{"transformation": t, "measurement": m} for t, m in prefix],
                "pre_transformation": pre_transformation,
                "suffix": [{"transformation": t, "measurement": m} for t, m in suffix],
            }
        assert chain["specific_deviations"] == dict(zip(("d1", "d2"), record.details["specific"]))

    def test_lg_chain_lists_a_repeated_measurement_once(self, capsys):
        assert run_cli(["lg", "--zoo", "superselected", "--no-timestamp"]) == 0
        chain = json.loads(capsys.readouterr().out)["results"]["chain"]
        # identity updates on every declared row: settled without a walk, so
        # nothing deviates and there is no witness context
        assert chain["measurements"] == {"read": {
            "ontic_deviation": 0.0,
            "complete": {"max_deviation": 0.0, "witness": None, "undefined_contexts": 0,
                         "settled": True,
                         "preparations": ["prep-up", "prep-down", "prep-mixed"]},
        }}
        assert chain["specific_deviations"] == {"d1": 0.0, "d2": 0.0}

    @pytest.mark.parametrize("kernels, slots", [
        ({}, [None, None]),
        ({"reset": {"u": {"u": 1.0}, "v": {"u": 1.0}}}, ["reset", None]),
    ])
    def test_arrangement_slot_without_transformation_exits_0(self, kernels, slots, tmp_path,
                                                             capsys):
        _, doc = export_doc("drifting-update")
        doc["transformations"] = kernels
        doc["arrangements"] = {"lg": {"preparation": "u-prep", "transformations": slots,
                                      "measurements": ["swapper"] * 3,
                                      "values": {"swapper": {"+1": 1, "-1": -1}}}}
        path = tmp_path / "drifting.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["lg", "--model", str(path), "--no-timestamp"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        chain = json.loads(captured.out)["results"]["chain"]
        assert chain["opnd_complete"] is False and chain["opnd_specific"] is False

    def test_model_file_without_arrangement_says_none_is_declared(self, tmp_path, capsys):
        path = tmp_path / "drifting.json"
        assert run_cli(["zoo", "export", "drifting-update", "--out", str(path)]) == 0
        capsys.readouterr()
        assert run_cli(["lg", "--model", str(path)]) == 2
        assert capsys.readouterr().err == "error: model file declares no arrangement\n"

    def test_model_without_quantity_class_says_none_is_declared(self, tmp_path, capsys):
        _, doc = export_doc("superselected")
        doc["quantity_classes"] = {}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["classify", "--model", str(path)]) == 2
        assert capsys.readouterr().err == "error: model declares no quantity class\n"

    @pytest.mark.parametrize("declared, argv, message", [  # none declared: the two tests above
        ({"arrangements": {"lg": "lg", "lg-2": "lg"}}, ["lg"],
         "model file declares ['lg', 'lg-2']; pick one with --arrangement"),
        ({}, ["lg", "--arrangement", "nope"], "unknown arrangement 'nope'; model file has ['lg']"),
        ({"quantity_classes": {"Q": "Q", "R": "Q"}}, ["classify"],
         "model declares ['Q', 'R']; pick one with --class"),
        ({}, ["classify", "--class", "nope"], "unknown quantity class 'nope'; model has ['Q']"),
        ({}, ["run", "--protocol", "nope"],
         "unknown protocol 'nope'; model file has ['lg-all']"),
    ], ids=["several-arrangements", "unknown-arrangement", "several-classes", "unknown-class",
            "unknown-protocol"])
    def test_a_declared_name_is_picked_or_refused(self, declared, argv, message, tmp_path,
                                                  capsys):
        _, doc = export_doc("superselected")
        for section, names in declared.items():  # each new name copies the named entry
            doc[section] = {name: doc[section][source] for name, source in names.items()}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        assert run_cli([*argv, "--model", str(path), "--no-timestamp"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,')
        assert run_cli(["run", "--model", str(path), "--protocol", "x"]) == 2
        assert "line" in capsys.readouterr().err

    def test_invalid_probability_row_exits_2(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "ontic_states": ["a"],
            "preparations": {"E": {"a": 0.7}},
            "transformations": {},
            "measurements": {},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run_cli(["run", "--model", str(path), "--protocol", "x"]) == 2
        assert "preparations.E" in capsys.readouterr().err

    def test_nan_weight_in_model_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        run_cli(["zoo", "export", "superselected", "--out", str(path)])
        doc = json.loads(path.read_text())
        doc["preparations"]["prep-up"] = {"up": math.nan, "down": 1.0}
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["lg", "--model", str(path), "--no-timestamp"]) == 2
        assert "preparations.prep-up" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "keys,value,key_path",
        [
            (("preparations", "prep-up", "up"), "1.0", "preparations.prep-up.up"),
            (("measurements", "read"), 5, "measurements.read"),
            (("protocols", "lg-all", "steps", 0), "read", "protocols.lg-all.steps[0]"),
            (("ontic_states", 0), ["up"], "ontic_states[0]"),
            (("arrangements", "lg", "preparation"), "nowhere", "arrangements.lg"),
            (("preparations", "prep-up", "up"), 10**400, "preparations.prep-up"),
            (("measurements", "read", "response", "up", "+1"), 10**400,
             "measurements.read.response"),
        ],
        ids=["string-probability", "int-measurement", "string-step", "list-state-label",
             "unknown-arrangement-preparation", "huge-int-probability", "huge-int-response"],
    )
    def test_malformed_model_file_exits_2_with_key_path(self, keys, value, key_path,
                                                         tmp_path, capsys):
        path = tmp_path / "chain.json"
        run_cli(["zoo", "export", "superselected", "--out", str(path)])
        doc = expanded(json.loads(path.read_text()))
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["lg", "--model", str(path), "--no-timestamp"]) == 2
        assert f"{key_path}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,content,message",
        [
            (["lg"], b"\xff\xfe{}", "not UTF-8: byte 0xff at offset 0"),
            (["classify"], b"[" * 100_000, "JSON nesting is too deep"),
            (["run", "--protocol", "x"], b'{"schema": 1' + b"0" * 5000 + b"}",
             "an integer literal has too many digits to read"),
        ],
        ids=["not-utf-8", "deep-nesting", "integer-past-digit-limit"],
    )
    def test_unreadable_model_file_exits_2(self, argv, content, message, tmp_path, capsys):
        path = tmp_path / "unreadable.json"
        path.write_bytes(content)
        assert run_cli([*argv, "--model", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_protocol_exits_2(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        run_cli(["zoo", "export", "superselected", "--out", str(path)])
        capsys.readouterr()
        assert run_cli(["run", "--model", str(path), "--protocol", "nope"]) == 2

    def test_unknown_zoo_model_exits_2(self, capsys):
        assert run_cli(["lg", "--zoo", "nope"]) == 2

    def test_residual_gate_exits_3(self, capsys, monkeypatch):
        import lglab.lg as lg_module

        real = lg_module.disturbance_report

        def doctored(arrangement):
            report = real(arrangement)
            object.__setattr__(report, "decomposition_residual", 1e-6)
            return report

        monkeypatch.setattr(lg_module, "disturbance_report", doctored)
        assert run_cli(["lg", "--zoo", "superselected", "--no-timestamp"]) == 3

    def test_lg_runs_each_protocol_once(self, capsys, monkeypatch):
        """The chain reads its specific stage and pairwise value from the report's four runs."""
        import lglab.lg as lg_module

        calls = {"run_protocol": 0, "check_opnd": 0}
        for name in calls:
            real = getattr(lg_module, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(lg_module, name, counted)
        assert run_cli(["lg", "--zoo", "superselected", "--no-timestamp"]) == 0
        assert calls == {"run_protocol": 4, "check_opnd": 0}

    def test_classify_verdicts(self, capsys):
        run_cli(["classify", "--zoo", "superselected", "--no-timestamp"])
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["verdict"] == "MR1"
        assert out["results"]["eigenstate_fixed_point"]["read"] is True

    def test_classify_reports_the_images_it_skipped(self, capsys):
        # the two-path model's rotations declare rows where at most two of them
        # compose, so some images three transformations deep leave their domain
        argv = ["classify", "--zoo", "bohm-two-path", "--image-depth", "3", "--no-timestamp"]
        assert run_cli(argv) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        skipped = results["skipped_images"]
        assert len(skipped) == 24 and skipped[0] == "up>rot1>rot1>rot1"
        classified = [entry["preparation"] for entry in results["evidence"]]
        assert not set(skipped) & set(classified)
        model = zoo.build("bohm-two-path").model
        result = classify(model, QuantityClass.verified(model, "Q", ["path"]), image_depth=3)
        assert list(result.skipped_images) == skipped
        assert not set(skipped) & set(result.classified_preparations)

    def test_classify_not_mr_includes_witnesses(self, capsys):
        run_cli(["classify", "--zoo", "qubit", "--no-timestamp"])
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["verdict"] == "not-MR"
        assert out["results"]["macrodefinite_witness_count"] > 0

    def test_classify_image_weights_follow_the_state_order(self, capsys):
        # an image's weights come from compose_preparation in state order: prep-down>flip1
        # puts 0.75 on "down" (the -1 value) but lists "up" (+1), the first state, first
        args = ["classify", "--zoo", "superselected", "--image-depth", "1", "--no-timestamp"]
        assert run_cli(args) == 0
        evidence = {e["preparation"]: e
                    for e in json.loads(capsys.readouterr().out)["results"]["evidence"]}
        image = evidence["prep-down>flip1"]
        assert image["value_weights"] == {"+1": 0.25, "-1": 0.75}
        assert list(image["value_weights"]) == ["+1", "-1"]
        assert list(image["value_components"]) == ["+1", "-1"]

    def test_twoslit_point(self, capsys):
        run_cli(["twoslit", "--mod1-sq", "0.2", "--phi", str(math.pi), "--no-timestamp"])
        out = json.loads(capsys.readouterr().out)
        results = out["results"]
        assert results["lg_plus"] == pytest.approx(-1.4, abs=1e-12)
        assert results["violated"] is True
        assert results["engine_cross_check"]["max_gap"] <= 1e-12

    def test_twoslit_phase_folding_warns(self, capsys):
        run_cli(["twoslit", "--mod1-sq", "0.5", "--phi", "7.0", "--no-timestamp"])
        captured = capsys.readouterr()
        assert "folded" in captured.err

    def test_twoslit_sweep_csv(self, capsys):
        run_cli(["twoslit", "--sweep", "--mod-steps", "3", "--phi-steps", "4",
                 "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "mod1_sq,phi,lg_plus,lg_plus_mirrored,violated"
        assert len(lines) == 1 + 3 * 4

    @pytest.mark.parametrize("depth", ["1", "0", "-1"])
    def test_depth_below_two_exits_2(self, depth, capsys):
        with pytest.raises(SystemExit) as exited:
            run_cli(["lg", "--zoo", "qubit", "--depth", depth, "--no-timestamp"])
        assert exited.value.code == 2
        assert "--depth" in capsys.readouterr().err

    @pytest.mark.parametrize("tol, command", [
        *((tol, command) for tol in ("nan", "inf", "-1") for command in ("lg", "classify")),
        ("0", "lg"),  # below the residual floor the chain's stages would read rounding noise
    ])
    def test_non_finite_or_negative_tol_exits_2(self, command, tol, capsys):
        with pytest.raises(SystemExit) as exited:
            run_cli([command, "--zoo", "superselected", "--tol", tol, "--no-timestamp"])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert "--tol" in captured.err and captured.out == ""

    @pytest.mark.parametrize("tol", ["0", "1e-20", "1e-16"])
    def test_lg_tol_below_the_residual_floor_exits_2_on_a_model_file(self, tol, tmp_path, capsys):
        # M2 is an identity update, settled at exactly 0, but the d-tables of this
        # arrangement carry ~1e-17 of rounding noise: such a --tol made the chain's
        # implication assertions fail (exit 3) on a valid model
        arr = identity_with_shared_rows()
        arr = replace(arr, transformations=("T2", "T2"),
                           measurements=("M2", "M2", "M3"))
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(schema.model_to_doc(arr.model, arrangements={"lg": arr})))
        assert exit_code(["lg", "--model", str(path), "--tol", tol, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert "--tol" in captured.err and captured.out == ""
        assert run_cli(["lg", "--model", str(path), "--no-timestamp"]) == 0

    @pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
    def test_non_finite_phi_exits_2(self, phi, capsys):
        with pytest.raises(SystemExit) as exited:
            run_cli(["twoslit", "--mod1-sq", "0.5", f"--phi={phi}", "--no-timestamp"])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "--phi" in err and "folded" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lg", "--zoo", "qubit", "--theta1", "inf"],
            ["lg", "--zoo", "bohm-two-path", "--theta1", "inf"],
            ["lg", "--zoo", "ks-sphere", "--grid", "150", "--theta1", "nan"],
            ["zoo", "export", "ks-sphere", "--grid", "150", "--theta1", "nan"],
            ["lg", "--zoo", "qubit", "--theta1", "nan"],
            ["classify", "--zoo", "qubit", "--theta2=-inf"],
        ],
        ids=["qubit-inf", "two-path-inf", "lg-sphere-nan", "export-sphere-nan", "qubit-nan",
             "classify-theta2"],
    )
    def test_non_finite_zoo_angle_exits_2(self, argv, capsys):
        assert exit_code([*argv, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert "--theta" in captured.err and "is not a finite number" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["lg", "--zoo", "ks-sphere", "--grid", "100", "--theta1", "1e308", "--theta2", "1e308"],
            ["zoo", "export", "ks-sphere", "--grid", "100", "--theta1", "1e308"],
        ],
        ids=["lg-both-angles", "export-theta1"],
    )
    def test_sphere_stage_angle_overflow_exits_2(self, argv, capsys):
        # each angle is finite, but a stage angle theta1 + theta is not
        assert exit_code([*argv, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert "stage angle inf is not finite" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["lg", "--zoo", "qubit", "--depth", "3"],
             "--depth 3 asks for more than 20 suffix effects; the limit is 10"),
            (["classify", "--zoo", "superselected", "--image-depth", "2"],
             "--image-depth 2 asks for 18 preparation images; the limit is 10"),
            (["twoslit", "--sweep", "--mod-steps", "5", "--phi-steps", "4"],
             "--mod-steps 5 by --phi-steps 4 asks for 20 sweep rows; the limit is 10"),
            (["lg", "--zoo", "ks-sphere", "--grid", "100"],
             "--grid 100 over 3 rotation stages asks for 300 ontic states; the limit is 10"),
        ],
        ids=["lg-depth", "classify-image-depth", "twoslit-sweep", "sphere-grid"],
    )
    def test_size_past_the_limit_exits_2(self, argv, message, monkeypatch, capsys):
        # the limit is lowered, so that no command here could allocate much without it
        monkeypatch.setattr(core, "SIZE_LIMIT", 10)
        assert exit_code([*argv, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["lg", "--zoo", "qubit", "--arrangement", "x"], "--arrangement"),
            (["classify", "--zoo", "superselected", "--image-depth", "-1"], "--image-depth"),
            (["twoslit", "--mod1-sq", "0.2", "--phi", "1", "--format", "csv"], "--format"),
            (["lg", "--model", "{model}", "--theta1", "1"], "--theta1"),
            (["classify", "--model", "{model}", "--grid", "200"], "--grid"),
            (["run", "--model", "{model}", "--protocol", "lg-all", "--tol", "1"], "--tol"),
            (["twoslit", "--sweep", "--depth", "3"], "--depth"),
            (["lg", "--zoo", "qubit", "--format", "csv"], "--format"),
            (["zoo", "list", "qubit"], "qubit"),
            (["zoo", "list", "--grid", "7"], "--grid"),
            (["lg", "--zoo", "qubit", "--model", "{model}"], "--model"),
            (["classify", "--zoo", "qubit", "--model", "{model}"], "--model"),
            (["lg"], "--zoo"),
            (["zoo", "export"], "name"),
            (["twoslit", "--sweep", "--mod-steps", "2", "--phi-steps", "2", "--mod1-sq", "0.3",
              "--format", "csv"], "--mod1-sq does not apply to --sweep"),
            (["twoslit", "--mod1-sq", "0.3", "--phi", "1", "--mod-steps", "5"],
             "--mod-steps needs --sweep"),
            (["classify", "--zoo", "superselected", "--grid", "300"],
             "--grid does not apply to zoo model 'superselected'"),
            (["lg", "--zoo", "qubit", "--grid", "300"], "--grid does not apply to zoo model"),
            (["zoo", "export", "null-result-pair", "--p1", "0.1"], "--p1 does not apply"),
        ],
        ids=["lg-zoo-arrangement", "classify-negative-image-depth", "twoslit-point-csv",
             "lg-model-theta1", "classify-model-grid", "run-tol", "twoslit-depth", "lg-format",
             "zoo-list-name", "zoo-list-grid", "lg-zoo-and-model", "classify-zoo-and-model",
             "lg-no-source", "zoo-export-no-name", "twoslit-sweep-mod1-sq",
             "twoslit-point-mod-steps", "classify-superselected-grid", "lg-qubit-grid",
             "zoo-export-fixture-p1"],
    )
    def test_option_the_command_does_not_read_exits_2(self, argv, option, tmp_path, capsys):
        path = tmp_path / "chain.json"
        run_cli(["zoo", "export", "superselected", "--out", str(path)])
        argv = [arg.format(model=path) for arg in argv]
        assert exit_code([*argv, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert option in captured.err and captured.out == ""

    def test_zoo_list_contains_all_entries(self, capsys):
        run_cli(["zoo", "list", "--no-timestamp"])
        out = json.loads(capsys.readouterr().out)
        assert len(out["results"]["models"]) >= 6


#: The tolerances block of an lg report at the default --tol; a classify report adds
#: "class_equivalence", its own --tol.
TOLERANCES = {
    "normalization": NORMALIZATION_TOL,
    "support": SUPPORT_TOL,
    "equivalence": EQUIVALENCE_TOL,
    "hull": HULL_TOL,
    "decomposition_residual": RESIDUAL_TOL,
    "residual_gate": cli.RESIDUAL_GATE,
}


@pytest.mark.parametrize("entry", ZOO)
@pytest.mark.parametrize(
    "command",
    [["lg", "--zoo"], ["classify", "--zoo"], ["zoo", "export"]],
    ids=["lg", "classify", "zoo-export"],
)
def test_every_zoo_entry_through_the_cli(command, entry, capsys):
    """Exit code and pinned values of each zoo entry under each command that takes it."""
    code = run_cli([*command, entry, *CLI_GRID.get(entry, []), "--no-timestamp"])
    captured = capsys.readouterr()
    if command[0] == "lg":
        if entry not in LG_PINS:
            assert code == 2 and "ships no arrangement" in captured.err
            return
        assert code == 0
        report = json.loads(captured.out)
        assert report["tolerances"] == TOLERANCES
        results = report["results"]
        value, stages = LG_PINS[entry]
        assert results["lg_pairwise"] == pytest.approx(value, abs=1e-9)
        chain = results["chain"]
        assert (chain["ontically_noninvasive"], chain["opnd_complete"],
                chain["opnd_specific"], chain["lgi_satisfied"]) == stages
    elif command[0] == "classify":
        if entry in CLASSIFY_REFUSALS:
            assert code == 2 and CLASSIFY_REFUSALS[entry] in captured.err
            return
        assert code == 0
        report = json.loads(captured.out)
        assert report["tolerances"] == {**TOLERANCES, "class_equivalence": EQUIVALENCE_TOL}
        assert report["results"]["hull_tol"] == report["tolerances"]["hull"]
        assert report["results"]["verdict"] == CLASSIFY_PINS[entry]
    else:
        assert code == 0
        doc = json.loads(captured.out)
        assert len(doc["ontic_states"]) == EXPORT_STATES[entry]
        assert ("arrangements" in doc) == (entry in LG_PINS)


#: Each report command line, with the tolerance that its own --tol overrides or adds, if any.
#: MODEL stands for an exported superselected model file.
REPORT_COMMANDS = {
    "run": (["run", "--model", "MODEL", "--protocol", "lg-all"], None),
    "lg": (["lg", "--zoo", "superselected"], "equivalence"),
    "classify": (["classify", "--zoo", "superselected"], "class_equivalence"),
    "twoslit-point": (["twoslit", "--mod1-sq", "0.3", "--phi", "2.5"], None),
    "twoslit-sweep": (["twoslit", "--sweep", "--mod-steps", "3", "--phi-steps", "4"], None),
    "zoo-list": (["zoo", "list"], None),
}


@pytest.mark.parametrize("stamped", [False, True], ids=["no-timestamp", "timestamp"])
@pytest.mark.parametrize("argv, own", REPORT_COMMANDS.values(), ids=REPORT_COMMANDS.keys())
def test_every_report_starts_with_the_same_header(argv, own, stamped, tmp_path, capsys):
    path = tmp_path / "superselected.json"
    assert run_cli(["zoo", "export", "superselected", "--out", str(path)]) == 0
    argv = [str(path) if arg == "MODEL" else arg for arg in argv]
    tol = ["--tol", "1e-7"] if own else []
    assert run_cli([*argv, *tol, *([] if stamped else ["--no-timestamp"])]) == 0
    report = json.loads(capsys.readouterr().out)
    stamp = ["timestamp"] if stamped else []
    assert list(report) == ["tool", "version", "command", *stamp, "tolerances", "inputs",
                            "results"]
    assert [report["tool"], report["version"], report["command"]] == ["lglab", __version__,
                                                                      argv[0]]
    if stamped:
        assert datetime.fromisoformat(report["timestamp"]).utcoffset() == timedelta(0)
    # an override keeps its key's place; an added tolerance comes last
    expected = {**TOLERANCES, own: 1e-7} if own else TOLERANCES
    assert list(report["tolerances"].items()) == list(expected.items())


def test_classify_report_states_the_tolerances_its_checks_used(capsys):
    # --tol sets only the class members' pairwise check; the eigenstate checks keep 1e-9
    assert run_cli(["classify", "--zoo", "superselected", "--tol", "0.5", "--no-timestamp"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tolerances"] == {**TOLERANCES, "class_equivalence": 0.5}


DELETE = object()

#: What a mutated node becomes; DELETE removes it from its parent.
MUTANTS = (None, True, False, "x", math.nan, math.inf, -math.inf, [], {}, DELETE)


def node_paths(node, path=()):
    """The key path of every node below ``node``."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield path + (key,)
            yield from node_paths(child, path + (key,))


@pytest.fixture(scope="module")
def exported_superselected(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutants") / "superselected.json"
    assert run_cli(["zoo", "export", "superselected", "--out", str(path)]) == 0
    return path, json.loads(path.read_text())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_model_file_exits_0_or_2_without_traceback(data, exported_superselected):
    """One node of an exported model file replaced by a wrong type, NaN or inf, or deleted."""
    path, original = exported_superselected
    target = data.draw(st.sampled_from(list(node_paths(original))), label="node")
    mutant = data.draw(st.sampled_from(MUTANTS), label="mutant")
    doc = copy.deepcopy(original)
    parent = doc
    for key in target[:-1]:
        parent = parent[key]
    if mutant is DELETE:
        del parent[target[-1]]
    else:
        parent[target[-1]] = mutant
    path.write_text(json.dumps(doc))
    for argv in (["lg"], ["classify"], ["run", "--protocol", "lg-all"]):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = exit_code([*argv, "--model", str(path), "--no-timestamp"])
        assert code in (0, 2), (argv, err.getvalue())
        assert code == 0 or err.getvalue().startswith("error: "), (argv, err.getvalue())


#: (zoo entry, key path, new value, the refusal's message) for an exported model file: the
#: node at the key path takes the value (DELETE removes it), or the whole document at ().
REFUSED_MUTANTS = {
    "unknown-update-mode": ("superselected", ("measurements", "read", "update", "mode"), "weird",
                            "measurements.read.update: unknown update mode 'weird'"),
    "unknown-step-transformation": (
        "superselected", ("protocols", "lg-all", "steps", 1, "transformation"), "nope",
        "protocols.lg-all.steps[1]: unknown transformation 'nope'"),
    "document-not-an-object": ("superselected", (), [], "model document must be a JSON object"),
    "unknown-response-outcome": (
        "superselected", ("measurements", "read", "response", "up", "+2"), 0.0,
        "measurements.read.response: unknown outcome '+2' in row for 'up'"),
    "unknown-response-state": (
        "superselected", ("measurements", "read", "response", "zz"), {"+1": 1.0},
        "measurements.read.response: unknown state label 'zz' in response table"),
    "unknown-kernel-state": ("superselected", ("transformations", "flip1", "zz"), {"up": 1.0},
                             "transformations.flip1: unknown state label 'zz' in kernel"),
    "unknown-update-state": (
        "superselected", ("measurements", "read", "update", "rows", "zz"), {"+1": {"up": 1.0}},
        "measurements.read.update: unknown state label 'zz' in update"),
    "unknown-per-state-update-outcome": (
        "superselected", ("measurements", "read", "update", "rows", "up", "+2"), {"up": 1.0},
        "measurements.read.update: unknown outcome '+2' in update row"),
    "unknown-per-outcome-update-outcome": (
        "qubit", ("measurements", "Mz", "update", "rows", "+2"), {"q(1,0)": 1.0},
        "measurements.Mz.update: unknown outcome '+2' in update row"),
    "non-finite-value": ("superselected", ("arrangements", "lg", "values", "read", "+1"),
                         math.nan, "arrangements.lg: non-finite value assigned to '+1'"),
    "missing-value": ("superselected", ("arrangements", "lg", "values", "read", "+1"), DELETE,
                      "arrangements.lg: no value assigned to outcome '+1' of 'read'"),
    "no-values": ("superselected", ("arrangements", "lg", "values"), {},
                  "arrangements.lg: no value assignment for measurement 'read'"),
    "arrangement-with-two-measurements": (
        "superselected", ("arrangements", "lg", "measurements"), ["read", "read"],
        "arrangements.lg: arrangement needs two transformations and three measurements"),
    "unknown-preparation-label": ("superselected", ("preparations", "prep-up"), "nowhere",
                                  "preparations.prep-up: unknown state label 'nowhere'"),
    "unknown-kernel-row-label": ("qubit", ("transformations", "rot1", "q(1,0)"), "nowhere",
                                 "transformations.rot1.q(1,0): unknown state label 'nowhere'"),
    "unknown-per-state-update-label": (
        "superselected", ("measurements", "read", "update", "rows", "up", "+1"), "nowhere",
        "measurements.read.update.rows.up.+1: unknown state label 'nowhere'"),
    "unknown-per-outcome-update-label": (
        "qubit", ("measurements", "Mz", "update", "rows", "+1"), "nowhere",
        "measurements.Mz.update.rows.+1: unknown state label 'nowhere'"),
    "unknown-response-label": (
        "superselected", ("measurements", "read", "response", "up"), "+2",
        "measurements.read.response: unknown outcome '+2' in row for 'up'"),
    "component-name-declared-twice": (
        "superselected", ("preparations", "read"), {"up": 1.0},
        "component name 'read' is declared twice: preparations.read and measurements.read"),
}


@pytest.mark.parametrize("entry, keys, value, message", REFUSED_MUTANTS.values(),
                         ids=REFUSED_MUTANTS.keys())
def test_a_mutated_model_file_is_refused_with_its_key_path(entry, keys, value, message,
                                                            tmp_path, capsys):
    path = tmp_path / "model.json"
    assert run_cli(["zoo", "export", entry, "--out", str(path)]) == 0
    doc = expanded(json.loads(path.read_text()))
    if keys:
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    else:
        doc = value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert exit_code(["lg", "--model", str(path), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: {message}"
    assert "Traceback" not in err


#: (the quantity classes written into an exported superselected file, the refusal's message).
#: "flipread" is a copy of "read" whose response is flipped.
CLASS_REFUSALS = {
    "empty-class": (
        {"Q": []}, "quantity_classes.Q: a quantity class needs at least one measurement"),
    "members-not-equivalent": (
        {"Q": ["read", "flipread"]},
        "quantity_classes.Q: measurements 'read' and 'flipread' differ on the probe set "
        "(deviation 1); not a valid quantity class"),
}


@pytest.mark.parametrize("classes, message", CLASS_REFUSALS.values(), ids=CLASS_REFUSALS.keys())
def test_a_bad_quantity_class_is_refused_with_its_key_path(classes, message, tmp_path, capsys):
    path = tmp_path / "superselected.json"
    assert run_cli(["zoo", "export", "superselected", "--out", str(path)]) == 0
    doc = expanded(json.loads(path.read_text()))
    flipped = copy.deepcopy(doc["measurements"]["read"])
    flipped["response"] = {state: dict(zip(row, reversed(row.values())))
                           for state, row in flipped["response"].items()}
    doc["measurements"]["flipread"] = flipped
    doc["quantity_classes"] = classes
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert exit_code(["classify", "--model", str(path), "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: {message}"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["run", "--model", "MODEL", "--protocol", "lg-all", "--marginal", "7"],
     "axis index 7 out of range"),
    (["run", "--model", "MODEL", "--protocol", "lg-all", "--marginal", "nope"],
     "no axis labelled 'nope'"),
    (["run", "--model", "MODEL", "--protocol", "lg-all", "--marginal", "read"],
     "axis label 'read' is ambiguous; use an index"),
    (["run", "--model", "MODEL", "--protocol", "lg-all", "--marginal", "\u00b2"],
     "no axis labelled '\u00b2'"),
    (["twoslit", "--mod1-sq", "1.5", "--phi", "1"], "mod1_sq 1.5 outside [0, 1.0]"),
    (["twoslit", "--mod1-sq", "0.2"], "point mode needs --mod1-sq and --phi (or use --sweep)"),
], ids=["marginal-index-out-of-range", "marginal-unknown-label", "marginal-ambiguous-label",
        "marginal-superscript-digit", "twoslit-mod1-sq-above-1", "twoslit-point-without-phi"])
def test_an_option_value_is_refused_with_its_message(argv, message, tmp_path, capsys):
    path = tmp_path / "superselected.json"
    assert run_cli(["zoo", "export", "superselected", "--out", str(path)]) == 0
    argv = [str(path) if arg == "MODEL" else arg for arg in argv]
    assert exit_code([*argv, "--no-timestamp"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: {message}"
    assert "Traceback" not in err
