"""The three workloads: set-up, one batch of ops, and a check of every op's output.

An op is one unit of user-visible work with a ``kind`` (``lg``,
``classify``, ``export``, ``load``, ``twoslit``, ``sweep``, ``core``).
``run`` is timed; ``check`` is not, and raises :class:`CheckFailed` when
the output is wrong. Values are pinned with tolerances, never with byte
hashes, so engine changes that move results by a few ulps still pass.

Nothing here imports lglab or numpy at module level: ``import lglab``
is part of the measured set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

#: The decomposition residual, the [-1, 3] bound and d3 must hold to this.
IDENTITY_TOL = 1e-12
#: Pinned values must match to this; engine changes may move them by ulps.
VALUE_TOL = 1e-9
#: A CLI op that runs longer than this is killed and counts as failed.
CLI_TIMEOUT_S = 60

ZOO = (
    "qubit",
    "superselected",
    "ks-sphere",
    "bohm-two-path",
    "lgi-holds-d-nonzero",
    "null-result-pair",
    "support-mr-minimal",
    "drifting-update",
)
#: Zoo entry -> (pinned lg_pairwise, pinned chain stages) for entries that ship an arrangement.
LG_PINS = {
    "qubit": (-1.5, (False, False, False, False)),
    "superselected": (1.25, (True, True, True, True)),
    "ks-sphere": (-1.573662899999999, (False, False, False, False)),  # at --grid 200
    "bohm-two-path": (-1.5, (False, False, False, False)),
    "lgi-holds-d-nonzero": (0.522, (False, False, False, True)),
}
CLASSIFY_PINS = {
    "qubit": "not-MR",
    "superselected": "MR1",
    "ks-sphere": "MR2",
    "bohm-two-path": "MR3",
    "lgi-holds-d-nonzero": "MR1",
    "support-mr-minimal": "MR2",
    "drifting-update": "MR1",
}
#: Documented refusal: exit 2 with this message.
CLASSIFY_REFUSALS = {
    "null-result-pair": "no declared preparation is an operational eigenstate",
}
EXPORT_STATES = {
    "qubit": 6,
    "superselected": 2,
    "ks-sphere": 600,
    "bohm-two-path": 16,
    "lgi-holds-d-nonzero": 2,
    "null-result-pair": 4,
    "support-mr-minimal": 3,
    "drifting-update": 2,
}
#: (command, zoo entry) -> stderr symptom of a defect the program has today.
#: Such an op counts as failed but does not make the run incorrect.
KNOWN_DEFECTS = {
    ("lg", "ks-sphere"): "Object of type bool is not JSON serializable",
    ("classify", "ks-sphere"): "Object of type bool is not JSON serializable",
}
CLI_GRID = {"ks-sphere": ["--grid", "200"]}
MARGINAL_0_2 = {("+1", "+1"): 0.625, ("+1", "-1"): 0.375, ("-1", "+1"): 0.0, ("-1", "-1"): 0.0}
TWOSLIT_POINT = ("0.2", "3.14159265", -1.4)
SWEEP_HEADER = "mod1_sq,phi,lg_plus,lg_plus_mirrored,violated"
SWEEP_ROWS = 36_000
SWEEP_VIOLATED = 5242
KS_LG_PAIRWISE = -1.501215578369125
KS_STATES = 30_000


class CheckFailed(Exception):
    """An op's output does not match what the benchmark pins."""


class KnownDefect(CheckFailed):
    """The op failed with the symptom of a defect listed in KNOWN_DEFECTS."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def near(value, expected, tol=VALUE_TOL) -> bool:
    """|value - expected| <= tol, false for NaN."""
    return abs(value - expected) <= tol


def check_lg_identities(label, residual, lg_all, d3_values):
    require(abs(residual) <= IDENTITY_TOL, f"{label}: decomposition residual {residual!r}")
    require(
        -1.0 - IDENTITY_TOL <= lg_all <= 3.0 + IDENTITY_TOL,
        f"{label}: lg_all_three {lg_all!r} outside [-1, 3]",
    )
    worst = max(abs(v) for v in d3_values)
    require(worst <= IDENTITY_TOL, f"{label}: d3 entry {worst!r} is not 0")


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Context:
    """Where a run works: checkout root, library sources, temporary directory, seed."""

    root: str
    src: str
    work_dir: str
    seed: int

    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (self.src, env.get("PYTHONPATH")) if p)
        return env


# ---------------------------------------------------------------------------
# cli-zoo


@dataclass
class CliResult:
    code: int
    stderr: str
    stdout: Optional[str] = None
    out_path: Optional[str] = None

    def text(self) -> str:
        if self.stdout is not None:
            return self.stdout
        with open(self.out_path, encoding="utf-8") as handle:
            return handle.read()


def run_cli_subprocess(ctx: Context, argv) -> CliResult:
    proc = subprocess.run(
        [sys.executable, "-m", "lglab.cli", *argv],
        cwd=ctx.root,
        env=ctx.child_env(),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return CliResult(proc.returncode, proc.stderr, stdout=proc.stdout)


def run_cli_in_process(argv, out_path) -> CliResult:
    """``cli.main`` in this interpreter, report to ``out_path``; an escaping exception is exit 1."""
    from lglab import cli

    if os.path.exists(out_path):
        os.remove(out_path)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out", out_path])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the CLI's contract maps an escaping exception to exit 1
        code = 1
        err.write(f"{type(exc).__name__}: {exc}\n")
    return CliResult(code, err.getvalue(), out_path=out_path)


def _known_defect(command, entry, result: CliResult):
    symptom = KNOWN_DEFECTS.get((command, entry))
    if symptom and result.code == 1 and symptom in result.stderr:
        raise KnownDefect(f"{command} {entry}: known defect: {symptom}")


def _require_exit(label, result: CliResult, code=0):
    tail = result.stderr.strip().splitlines()[-1:] if result.stderr else []
    require(result.code == code, f"{label}: exit {result.code}, expected {code}: {tail}")


def _check_lg(entry):
    def check(result: CliResult):
        label = f"lg {entry}"
        _known_defect("lg", entry, result)
        _require_exit(label, result)
        res = json.loads(result.text())["results"]
        check_lg_identities(
            label, res["decomposition_residual"], res["lg_all_three"],
            res["disturbance"]["d3"].values(),
        )
        value, stages = LG_PINS[entry]
        require(near(res["lg_pairwise"], value), f"{label}: lg_pairwise {res['lg_pairwise']!r}")
        chain = res["chain"]
        got = (chain["ontically_noninvasive"], chain["opnd_complete"],
               chain["opnd_specific"], chain["lgi_satisfied"])
        require(got == stages, f"{label}: chain {got}, expected {stages}")

    return check


def _check_classify(entry):
    def check(result: CliResult):
        label = f"classify {entry}"
        _known_defect("classify", entry, result)
        if entry in CLASSIFY_REFUSALS:
            _require_exit(label, result, 2)
            require(CLASSIFY_REFUSALS[entry] in result.stderr, f"{label}: message {result.stderr!r}")
            return
        _require_exit(label, result)
        verdict = json.loads(result.text())["results"]["verdict"]
        require(verdict == CLASSIFY_PINS[entry], f"{label}: verdict {verdict!r}")

    return check


def _check_export(entry):
    def check(result: CliResult):
        label = f"zoo export {entry}"
        _require_exit(label, result)
        doc = json.loads(result.text())
        require(doc.get("schema") == 1, f"{label}: schema {doc.get('schema')!r}")
        states = len(doc["ontic_states"])
        require(states == EXPORT_STATES[entry], f"{label}: {states} ontic states")
        require(("arrangements" in doc) == (entry in LG_PINS), f"{label}: arrangements block")

    return check


def _check_run(result: CliResult):
    label = "run --model superselected"
    _require_exit(label, result)
    res = json.loads(result.text())["results"]
    total = sum(row["p"] for row in res["joint"])
    require(near(total, 1.0, IDENTITY_TOL), f"{label}: joint sums to {total!r}")
    marginal = {tuple(row["outcomes"]): row["p"] for row in res["marginals"]["0,2"]}
    require(marginal.keys() == MARGINAL_0_2.keys(), f"{label}: marginal keys {sorted(marginal)}")
    for combo, p in MARGINAL_0_2.items():
        require(near(marginal[combo], p), f"{label}: P{combo} = {marginal[combo]!r}")


def _check_twoslit(result: CliResult):
    label = "twoslit point"
    _require_exit(label, result)
    res = json.loads(result.text())["results"]
    require(near(res["lg_plus"], TWOSLIT_POINT[2]), f"{label}: lg_plus {res['lg_plus']!r}")
    require(res["violated"] is (res["lg_plus"] < -1.0), f"{label}: violated flag")
    gap = res["engine_cross_check"]["max_gap"]
    require(gap <= IDENTITY_TOL, f"{label}: engine gap {gap!r}")


def _check_sweep(result: CliResult):
    label = "twoslit sweep"
    _require_exit(label, result)
    lines = result.text().splitlines()
    require(lines and lines[0] == SWEEP_HEADER, f"{label}: header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    require(len(rows) == SWEEP_ROWS, f"{label}: {len(rows)} rows")
    require(all(len(r) == 5 and r[4] in ("0", "1") for r in rows), f"{label}: malformed row")
    violated = sum(r[4] == "1" for r in rows)
    require(violated == SWEEP_VIOLATED, f"{label}: {violated} violated rows")


class CliZoo:
    """Every command a user types, each in a fresh interpreter.

    One op is one ``python -m lglab.cli ... --no-timestamp`` process. The
    traced run calls ``cli.main`` in-process instead, with ``--out`` to a
    temporary file, so spans can see inside it.
    """

    name = "cli-zoo"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.model_path = os.path.join(ctx.work_dir, "superselected.json")
        self.commands = []
        self.shape = {}

    def setup(self):
        from lglab import cli, zoo

        names = tuple(name for name, _ in zoo.list_models())
        if names != ZOO:
            raise CheckFailed(f"zoo lists {names}, the benchmark pins {ZOO}")
        code = cli.main(["zoo", "export", "superselected", "--out", self.model_path,
                         "--no-timestamp"])
        if code != 0:
            raise CheckFailed(f"exporting superselected for `run --model` exited {code}")
        commands = []
        for entry in ZOO:
            grid = CLI_GRID.get(entry, [])
            if entry in LG_PINS:
                commands.append(("lg", f"lg {entry}", ["lg", "--zoo", entry, *grid],
                                 _check_lg(entry)))
            commands.append(("classify", f"classify {entry}",
                             ["classify", "--zoo", entry, *grid], _check_classify(entry)))
            commands.append(("export", f"zoo export {entry}",
                             ["zoo", "export", entry, *grid], _check_export(entry)))
        commands += [
            ("load", "run --model superselected",
             ["run", "--model", self.model_path, "--protocol", "lg-all", "--marginal", "0,2"],
             _check_run),
            ("twoslit", "twoslit point",
             ["twoslit", "--mod1-sq", TWOSLIT_POINT[0], "--phi", TWOSLIT_POINT[1]],
             _check_twoslit),
            ("sweep", "twoslit sweep",
             ["twoslit", "--sweep", "--mod-steps", "100", "--phi-steps", "360",
              "--format", "csv"], _check_sweep),
        ]
        random.Random(self.ctx.seed).shuffle(commands)
        self.commands = commands
        self.shape = {"ops": len(commands), "order": [label for _, label, _, _ in commands]}

    def ops(self, traced: bool):
        ops = []
        for i, (kind, label, argv, check) in enumerate(self.commands):
            argv = [*argv, "--no-timestamp"]
            if traced:
                out = os.path.join(self.ctx.work_dir, f"op{i}.out")
                run = lambda argv=argv, out=out: run_cli_in_process(argv, out)
            else:
                run = lambda argv=argv: run_cli_subprocess(self.ctx, argv)
            ops.append(Op(kind, label, run, check))
        return ops


# ---------------------------------------------------------------------------
# ks-sphere


class KsSphere:
    """The library paths on the zoo ks-sphere at its default grid (30 000 states)."""

    name = "ks-sphere"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.path = os.path.join(ctx.work_dir, "ks-sphere.json")
        self.exported = None
        self.shape = {}

    def setup(self):
        from lglab import zoo

        built = zoo.build("ks-sphere")
        self.arrangement = built.arrangement
        self.model = built.model
        template = self.arrangement.protocol()
        masks = {
            "lg-all": (True, True, True),
            "lg-12": (True, True, False),
            "lg-13": (True, False, True),
            "lg-23": (False, True, True),
        }
        self.protocols = {name: template.with_mask(mask) for name, mask in masks.items()}
        states = len(self.model.space.states)
        if states != KS_STATES:
            raise CheckFailed(f"ks-sphere built {states} states, expected {KS_STATES}")
        self.shape = {"states": states, "n_points": self.model.metadata["n_points"]}

    def _lg(self):
        from lglab.lg import check_implication_chain, disturbance_report

        return disturbance_report(self.arrangement), check_implication_chain(self.arrangement, depth=2)

    def _check_lg(self, out):
        report, chain = out
        check_lg_identities("lg ks-sphere", report.decomposition_residual,
                            report.lg_all_three, report.d3.values())
        require(near(report.lg_pairwise, KS_LG_PAIRWISE),
                f"lg ks-sphere: lg_pairwise {report.lg_pairwise!r}")
        require(near(chain.lg_pairwise, report.lg_pairwise, IDENTITY_TOL),
                "lg ks-sphere: chain and report disagree on lg_pairwise")
        stages = tuple(bool(s) for s in chain.as_tuple())
        require(stages == LG_PINS["ks-sphere"][1], f"lg ks-sphere: chain {stages}")

    def _classify(self):
        from lglab.classify import QuantityClass, check_equilibrium_property, classify

        cls = QuantityClass.verified(self.model, "Q", ["Mz"])
        result = classify(self.model, cls)
        fixed = {m: check_equilibrium_property(self.model, cls, m).holds for m in cls.measurements}
        return result.verdict, fixed

    def _check_classify(self, out):
        verdict, fixed = out
        require(verdict == CLASSIFY_PINS["ks-sphere"], f"classify ks-sphere: verdict {verdict!r}")
        require(all(bool(v) for v in fixed.values()), f"classify ks-sphere: fixed points {fixed}")

    def _export(self):
        from lglab import schema

        doc = schema.model_to_doc(self.model, name="ks-sphere",
                                  arrangements={"lg": self.arrangement}, protocols=self.protocols)
        schema.dump_document(doc, self.path)
        return doc

    def _check_export(self, doc):
        self.exported = doc
        require(len(doc["ontic_states"]) == KS_STATES, "export ks-sphere: state count")
        require(os.path.getsize(self.path) > 0, "export ks-sphere: empty file")

    def _load(self):
        from lglab import schema

        return schema.load_model_file(self.path)

    def _check_load(self, out):
        from lglab import schema

        model, protocols, arrangements = out
        require(self.exported is not None, "load ks-sphere: no exported document to compare")
        again = schema.model_to_doc(model, name=self.exported.get("name"),
                                    arrangements=arrangements, protocols=protocols)
        require(again == self.exported, "load ks-sphere: reloaded model exports another document")
        # drop the document now, so the next batch's export does not hold two at once
        self.exported = None

    def _core(self):
        from lglab.core import is_ontically_noninvasive, post_measurement_distribution

        mz = self.model.measurement("Mz")
        return is_ontically_noninvasive(mz), post_measurement_distribution(
            self.model.preparation("up"), mz)

    def _check_core(self, out):
        (noninvasive, _), post = out
        require(not noninvasive, "core ks-sphere: Mz reported ontically noninvasive")
        total = sum(post.weights.values())
        require(near(total, 1.0), f"core ks-sphere: post-measurement mass {total!r}")

    def ops(self, traced: bool):
        ops = [
            Op("lg", "lg ks-sphere", self._lg, self._check_lg),
            Op("classify", "classify ks-sphere", self._classify, self._check_classify),
            Op("export", "export ks-sphere", self._export, self._check_export),
            Op("load", "load ks-sphere", self._load, self._check_load),
        ]
        if traced:
            ops.append(Op("core", "core ks-sphere up x Mz", self._core, self._check_core))
        return ops


# ---------------------------------------------------------------------------
# random-models


class RandomModels:
    """One ``lg`` library path per model of a seeded population of small arrangements."""

    name = "random-models"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.models = []
        self.shape = {}

    def setup(self):
        from perfbench import models

        self.models = models.population(self.ctx.seed)
        self.shape = models.shape(self.models)
        expected = models.plan_shape()
        if self.shape != expected:
            raise CheckFailed(f"population shape {self.shape} differs from the plan {expected}")

    @staticmethod
    def _lg(arrangement):
        from lglab.lg import check_implication_chain, disturbance_report

        return disturbance_report(arrangement), check_implication_chain(arrangement, depth=2)

    @staticmethod
    def _checker(label, invasive):
        def check(out):
            report, chain = out
            check_lg_identities(label, report.decomposition_residual, report.lg_all_three,
                                report.d3.values())
            require(near(chain.lg_pairwise, report.lg_pairwise, IDENTITY_TOL),
                    f"{label}: chain and report disagree on lg_pairwise")
            if not invasive:
                require(all(chain.as_tuple()), f"{label}: identity updates but chain {chain.as_tuple()}")

        return check

    def ops(self, traced: bool):
        ops = []
        for i, (arrangement, invasive) in enumerate(self.models):
            n = len(arrangement.model.space.states)
            label = f"model {i} n={n} {'invasive' if invasive else 'identity'}"
            ops.append(Op("lg", label, lambda a=arrangement: self._lg(a),
                          self._checker(label, invasive)))
        return ops


WORKLOADS = {cls.name: cls for cls in (CliZoo, KsSphere, RandomModels)}
