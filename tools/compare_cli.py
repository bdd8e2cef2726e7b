"""Compare the CLI output of two source trees, byte for byte.

Usage: python tools/compare_cli.py PARENT_TREE CHILD_TREE

Each tree is a checkout of this repository (a directory holding ``src/lglab``).
The script runs a fixed list of ``lglab`` commands, all with
``--no-timestamp``, once with each tree's ``src`` on ``PYTHONPATH``, and
compares stdout, stderr and exit code. It prints each command whose
results differ, and the streams that differ, and exits 1 if any does,
0 if none does. The zoo entries are the ones the parent's ``zoo list``
names, each exported, classified and run through ``lg`` at its default
parameters: ks-sphere at its default grid of 30 000 ontic states as well
as at ``--grid 300``. ``lg`` of an entry without an arrangement is
compared as the refusal it is. Every parametrized entry is also exported
and run through ``lg`` away from its defaults: qubit, bohm-two-path and
ks-sphere at ``--grid 300`` at each ``ANGLES`` pair, and superselected at
``--p1 0.1 --p2 0.7``, so that each builder's metadata is compared as
written. At each pair, qubit and ks-sphere also run ``lg --depth 3``:
their rotations push by position and pull by slicing at the bounds of
their runs (stretches of states sent to the states a fixed offset on)
where their targets keep the states' order, and fall back to the general
loop where they do not (ks-sphere at (2π, −2π), qubit at (3π, −π) and (−π, −π)), so
both paths are compared through deeper suffixes. Two more ks-sphere
files at ``--grid 300`` run ``lg --depth 3`` with one more preparation,
``spread``, of equal weight over two rotation stages: exported at (0.3,
2.0), where ``rot1`` has two runs, over stages 0 and 1, so that its push
straddles them; and at the defaults over stages 0 and 2, so that its push
through ``rot1`` meets stage 2, which has no row there. Every
command runs in one scratch directory, so that relative paths in
messages match; the ``--model`` commands read model files that the
parent tree exports there first. Of a superselected file they run ``run``
of one of its protocols, ``lg`` and ``classify`` of the one arrangement and
quantity class it declares, and a refusal of an undeclared name for each.
A copy of that file with ``readcopy``, a copy of ``read``, and the class
``Q = [read, readcopy]`` runs ``classify``, so that a class of two members
with eigenstate preparations is compared through every step of it. A
copy whose protocol steps leave out each ``"perform": true`` and
``"transformation": null``, the values a step without them takes, runs
``run`` of the same protocol.
Of a ks-sphere file at ``--grid 300`` they run ``lg`` and ``classify``, so
that the loader's shared response rows and the value check that decides
each distinct row once are compared through the CLI. A copy of that file
with ``Mzcopy``, a copy of ``Mz``, and the class ``Q = [Mz, Mzcopy]`` runs
``classify``, so that the equivalence check of a class of two members
pushes every preparation through ``rot1`` and ``rot2`` on a large model.
A copy of that file without ``Mz``'s ``-1`` update row, as a file that
declares its rows per outcome may lack one, runs ``run --protocol
lg-12``, whose ``+1`` flows reach the shared row while the other row is
missing, and ``lg``, which is refused with exit 2 and names state ``r1:0``'s missing ``-1`` row.
Further refusals compare ``run --marginal`` with an ambiguous axis label
and an axis index out of range, ``twoslit`` with ``--mod1-sq`` above 1 and
with ``--mod1-sq`` but no ``--phi``, and three copies of the superselected
file, each broken in one way: ``classify`` of an empty quantity class and
of a class whose members are not equivalent (a copy of ``read`` with its
response flipped, whether the parent writes its certain rows as labels or
as dicts), and ``lg`` of an arrangement with two measurements.

Only the standard library is used, so any interpreter that runs lglab
runs this.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import subprocess
import sys
import tempfile

#: (theta1, theta2) pairs beside the defaults. The last three are whole
#: multiples of pi, where rounding leaves residues of about 1e-16 on exact zeros.
ANGLES = ((0.3, 2.0), (1.0, 1.0), (-1.2, 5.5), (2 * math.pi, -2 * math.pi),
          (3 * math.pi, -math.pi), (-math.pi, -math.pi))

MODEL_FILE = "superselected.json"
SPHERE = ["ks-sphere", "--grid", "300"]
SPHERE_FILE = "ks-sphere-300.json"
SPHERE_MINUS_FILE = "ks-sphere-300-without-minus-row.json"
SPHERE_TURNED = [*SPHERE, "--theta1=0.3", "--theta2=2.0"]
SPHERE_TURNED_FILE = "ks-sphere-300-turned.json"
SPHERE_STRADDLING_FILE = "ks-sphere-300-straddling.json"
SPHERE_GAP_FILE = "ks-sphere-300-gap.json"
TWO_MEMBER_CLASS_FILE = "two-member-class.json"
SPHERE_TWO_MEMBER_FILE = "ks-sphere-300-two-member-class.json"
DEFAULT_STEPS_FILE = "superselected-default-steps.json"
EMPTY_CLASS_FILE = "empty-class.json"
INEQUIVALENT_CLASS_FILE = "inequivalent-class.json"
SHORT_ARRANGEMENT_FILE = "two-measurement-arrangement.json"


def response_row(row, outcomes) -> list:
    """A response row's probabilities in outcome order; a row written as a label is certain."""
    if isinstance(row, str):
        return [float(q == row) for q in outcomes]
    return [row.get(q, 0.0) for q in outcomes]


def broken_copies(doc: dict) -> dict:
    """Copies of the exported superselected document, each invalid in one way, by file name."""
    empty, inequivalent, short = (copy.deepcopy(doc) for _ in range(3))
    empty["quantity_classes"] = {"Q": []}
    flipped = copy.deepcopy(doc["measurements"]["read"])
    outcomes = flipped["outcomes"]
    flipped["response"] = {state: dict(zip(outcomes, reversed(response_row(row, outcomes))))
                           for state, row in flipped["response"].items()}
    inequivalent["measurements"]["flipread"] = flipped
    inequivalent["quantity_classes"] = {"Q": ["read", "flipread"]}
    short["arrangements"]["lg"]["measurements"] = ["read", "read"]
    return {EMPTY_CLASS_FILE: empty, INEQUIVALENT_CLASS_FILE: inequivalent,
            SHORT_ARRANGEMENT_FILE: short}


def two_member_class(doc: dict, member: str) -> dict:
    """A copy of an exported document with ``<member>copy``, a copy of measurement
    ``member``, and the quantity class ``Q`` of the two."""
    pair = copy.deepcopy(doc)
    pair["measurements"][member + "copy"] = copy.deepcopy(doc["measurements"][member])
    pair["quantity_classes"] = {"Q": [member, member + "copy"]}
    return pair


def default_steps(doc: dict) -> dict:
    """A copy of the exported superselected document whose protocol steps leave out each key
    that holds the value a step without it takes: ``perform`` true, ``transformation`` null."""
    short = copy.deepcopy(doc)
    for protocol in short["protocols"].values():
        for step in protocol["steps"]:
            for key, default in (("perform", True), ("transformation", None)):
                if step[key] is default:
                    del step[key]
    return short


def spread(doc: dict, stages) -> dict:
    """A copy of a ks-sphere document with one more preparation, ``spread``: equal weight
    on every state of the given rotation stages (the states labelled ``r<stage>:...``)."""
    states = [s for s in doc["ontic_states"] if s.split(":")[0] in {f"r{k}" for k in stages}]
    spread = copy.deepcopy(doc)
    spread["preparations"]["spread"] = dict.fromkeys(states, 1.0 / len(states))
    return spread


def commands(zoo: list) -> list:
    """The compared command lines, without the leading ``lglab``, for the zoo entries named."""
    out = []
    for name in zoo:
        out += [["zoo", "export", name],
                ["classify", "--zoo", name],
                ["classify", "--zoo", name, "--image-depth", "2"],
                ["lg", "--zoo", name],
                ["lg", "--zoo", name, "--depth", "3"]]
    for theta1, theta2 in ANGLES:
        angles = [f"--theta1={theta1!r}", f"--theta2={theta2!r}"]
        out += [["lg", "--zoo", "qubit", *angles],
                ["lg", "--zoo", "qubit", *angles, "--depth", "3"],
                ["lg", "--zoo", "bohm-two-path", *angles],
                ["lg", "--zoo", *SPHERE, *angles],
                ["lg", "--zoo", *SPHERE, *angles, "--depth", "3"],
                ["zoo", "export", "qubit", *angles],
                ["zoo", "export", *SPHERE, *angles],
                ["zoo", "export", "bohm-two-path", *angles]]
    out += [
        ["lg", "--zoo", "superselected", "--p1", "0.1", "--p2", "0.7", "--depth", "4"],
        ["zoo", "export", "superselected", "--p1", "0.1", "--p2", "0.7"],
        ["twoslit", "--mod1-sq", "0.3", "--phi", "2.5"],
        ["twoslit", "--sweep", "--mod-steps", "30", "--phi-steps", "40", "--format", "csv"],
        ["twoslit", "--sweep", "--mod-steps", "30", "--phi-steps", "40"],
        ["run", "--model", MODEL_FILE, "--protocol", "lg-all", "--marginal", "0,2"],
        ["run", "--model", DEFAULT_STEPS_FILE, "--protocol", "lg-all", "--marginal", "0,2"],
        ["lg", "--model", MODEL_FILE],
        ["classify", "--model", MODEL_FILE],
        ["classify", "--model", TWO_MEMBER_CLASS_FILE],
        ["lg", "--model", SPHERE_FILE],
        ["classify", "--model", SPHERE_FILE],
        ["classify", "--model", SPHERE_TWO_MEMBER_FILE],
        ["run", "--model", SPHERE_MINUS_FILE, "--protocol", "lg-12"],
        ["lg", "--model", SPHERE_STRADDLING_FILE, "--depth", "3"],
        ["lg", "--model", SPHERE_GAP_FILE, "--depth", "3"],
        ["zoo", "list"],
        # inputs refused with exit 2
        ["lg", "--zoo", "no-such-model"],
        ["lg", "--zoo", "qubit", "--depth", "1"],
        ["classify", "--zoo", "qubit", "--p1", "0.1"],
        ["twoslit", "--mod-steps", "3"],
        ["run", "--model", "no-such-file.json", "--protocol", "lg-all"],
        ["lg", "--model", MODEL_FILE, "--arrangement", "nope"],
        ["classify", "--model", MODEL_FILE, "--class", "nope"],
        ["run", "--model", MODEL_FILE, "--protocol", "nope"],
        ["run", "--model", MODEL_FILE, "--protocol", "lg-all", "--marginal", "read"],
        ["run", "--model", MODEL_FILE, "--protocol", "lg-all", "--marginal", "7"],
        ["twoslit", "--mod1-sq", "1.5", "--phi", "1"],
        ["twoslit", "--mod1-sq", "0.2"],
        ["classify", "--model", EMPTY_CLASS_FILE],
        ["classify", "--model", INEQUIVALENT_CLASS_FILE],
        ["lg", "--model", SHORT_ARRANGEMENT_FILE],
        ["lg", "--model", SPHERE_MINUS_FILE],
    ]
    return [argv + ["--no-timestamp"] for argv in out]


def run(tree: str, argv: list, cwd: str) -> tuple:
    """(exit code, stdout, stderr) of ``lglab argv`` on the tree's source."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    done = subprocess.run([sys.executable, "-m", "lglab.cli", *argv], cwd=cwd, env=env,
                          capture_output=True)
    return done.returncode, done.stdout, done.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the tree taken as the reference")
    parser.add_argument("child", help="the tree compared with it")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.child):
        if not os.path.isfile(os.path.join(tree, "src", "lglab", "cli.py")):
            parser.error(f"{tree} holds no src/lglab/cli.py")

    with tempfile.TemporaryDirectory(prefix="compare-cli-") as cwd:
        code, out, err = run(args.parent, ["zoo", "list", "--no-timestamp"], cwd)
        if code != 0:
            print(f"zoo list with the parent exited {code}: {err.decode()}")
            return 2
        listed = commands([entry["name"] for entry in json.loads(out)["results"]["models"]])
        for path, entry in ((MODEL_FILE, ["superselected"]), (SPHERE_FILE, SPHERE),
                            (SPHERE_TURNED_FILE, SPHERE_TURNED)):
            code, _, err = run(args.parent, ["zoo", "export", *entry, "--out", path,
                                             "--no-timestamp"], cwd)
            if code != 0:
                print(f"exporting {path} with the parent exited {code}: {err.decode()}")
                return 2
        with open(os.path.join(cwd, MODEL_FILE), encoding="utf-8") as handle:
            doc = json.load(handle)
        with open(os.path.join(cwd, SPHERE_FILE), encoding="utf-8") as handle:
            sphere = json.load(handle)
        with open(os.path.join(cwd, SPHERE_TURNED_FILE), encoding="utf-8") as handle:
            turned = json.load(handle)
        copies = {**broken_copies(doc), TWO_MEMBER_CLASS_FILE: two_member_class(doc, "read"),
                  SPHERE_TWO_MEMBER_FILE: two_member_class(sphere, "Mz"),
                  DEFAULT_STEPS_FILE: default_steps(doc),
                  SPHERE_STRADDLING_FILE: spread(turned, (0, 1)),
                  SPHERE_GAP_FILE: spread(sphere, (0, 2))}
        del sphere["measurements"]["Mz"]["update"]["rows"]["-1"]
        for name, broken in {**copies, SPHERE_MINUS_FILE: sphere}.items():
            with open(os.path.join(cwd, name), "w", encoding="utf-8") as handle:
                json.dump(broken, handle)
        parent = [run(args.parent, argv, cwd) for argv in listed]
        child = [run(args.child, argv, cwd) for argv in listed]

    differing = 0
    for command, before, after in zip(listed, parent, child):
        streams = [s for s, b, a in zip(("exit code", "stdout", "stderr"), before, after) if b != a]
        if streams:
            differing += 1
            print(f"differs ({', '.join(streams)}): lglab {' '.join(command)}")
    print(f"{len(listed)} commands, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
