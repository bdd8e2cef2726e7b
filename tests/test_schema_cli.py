import json
import math

import pytest

from lglab import SchemaError, lg_value_pairwise
from lglab import cli, schema, zoo
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

    def test_lg_on_model_file_matches_zoo(self, tmp_path, capsys):
        path = tmp_path / "qubit.json"
        run_cli(["zoo", "export", "qubit", "--out", str(path)])
        capsys.readouterr()
        run_cli(["lg", "--model", str(path), "--arrangement", "lg", "--no-timestamp"])
        from_file = json.loads(capsys.readouterr().out)["results"]["lg_pairwise"]
        run_cli(["lg", "--zoo", "qubit", "--no-timestamp"])
        from_zoo = json.loads(capsys.readouterr().out)["results"]["lg_pairwise"]
        assert from_file == from_zoo

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
        ],
        ids=["string-probability", "int-measurement", "string-step", "list-state-label",
             "unknown-arrangement-preparation"],
    )
    def test_malformed_model_file_exits_2_with_key_path(self, keys, value, key_path,
                                                         tmp_path, capsys):
        path = tmp_path / "chain.json"
        run_cli(["zoo", "export", "superselected", "--out", str(path)])
        doc = json.loads(path.read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(["lg", "--model", str(path), "--no-timestamp"]) == 2
        assert f"{key_path}: " in capsys.readouterr().err

    def test_unknown_protocol_exits_2(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        run_cli(["zoo", "export", "superselected", "--out", str(path)])
        capsys.readouterr()
        assert run_cli(["run", "--model", str(path), "--protocol", "nope"]) == 2

    def test_unknown_zoo_model_exits_2(self, capsys):
        assert run_cli(["lg", "--zoo", "nope"]) == 2

    def test_residual_gate_exits_3(self, capsys, monkeypatch):
        import lglab.cli as cli_module

        real = cli_module.disturbance_report

        def doctored(arrangement):
            report = real(arrangement)
            object.__setattr__(report, "decomposition_residual", 1e-6)
            return report

        monkeypatch.setattr(cli_module, "disturbance_report", doctored)
        assert run_cli(["lg", "--zoo", "superselected", "--no-timestamp"]) == 3

    def test_classify_verdicts(self, capsys):
        run_cli(["classify", "--zoo", "superselected", "--no-timestamp"])
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["verdict"] == "MR1"
        assert out["results"]["eigenstate_fixed_point"]["read"] is True

    def test_classify_not_mr_includes_witnesses(self, capsys):
        run_cli(["classify", "--zoo", "qubit", "--no-timestamp"])
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["verdict"] == "not-MR"
        assert out["results"]["macrodefinite_witness_count"] > 0

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

    def test_zoo_list_contains_all_entries(self, capsys):
        run_cli(["zoo", "list", "--no-timestamp"])
        out = json.loads(capsys.readouterr().out)
        assert len(out["results"]["models"]) >= 6


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
        results = json.loads(captured.out)["results"]
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
        assert json.loads(captured.out)["results"]["verdict"] == CLASSIFY_PINS[entry]
    else:
        assert code == 0
        doc = json.loads(captured.out)
        assert len(doc["ontic_states"]) == EXPORT_STATES[entry]
        assert ("arrangements" in doc) == (entry in LG_PINS)
