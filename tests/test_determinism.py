"""Identical inputs give byte-identical outputs in processes with different string hashing.

Each probe runs in a fresh interpreter under its own PYTHONHASHSEED, so
that any sum or report whose order follows a set of labels shows up as
a difference between the two runs.
"""

import os
import subprocess
import sys

import lglab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lglab.__file__)))

TOTAL_VARIATION = """
import numpy as np

from lglab import Distribution, OnticStateSpace

rng = np.random.default_rng(0)
space = OnticStateSpace(tuple(f"s{i}" for i in range(40)))


def draw():
    w = rng.random(40)
    return Distribution(space, dict(zip(space.states, map(float, w / w.sum()))))


distances = [draw().total_variation(draw()) for _ in range(200)]
print(repr(distances), repr(sum(distances)))
"""

COMMANDS = """
import contextlib, io

from lglab import cli, zoo
from lglab.core import MINUS, PLUS
from lglab.lg import post_select_noninvasive

for name, _ in zoo.list_models():
    grid = ["--grid", "200"] if name == "ks-sphere" else []
    for command in (["lg"], ["classify", "--image-depth", "1"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*command, "--zoo", name, *grid, "--no-timestamp"])
        print(name, command, code, out.getvalue(), err.getvalue())
model = zoo.build("null-result-pair").model
print(post_select_noninvasive(model, ("null-plus", PLUS), ("null-minus", MINUS)))
"""


def run_under_hash_seeds(code, seeds=("0", "1")) -> list:
    """The stdout of ``code`` run in a fresh interpreter under each hash seed."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in seeds:
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs


def test_total_variation_adds_in_state_order():
    outputs = run_under_hash_seeds(TOTAL_VARIATION, seeds=("0", "1", "2"))
    assert outputs[0] == outputs[1] == outputs[2]


def test_zoo_reports_and_post_selection_records_do_not_depend_on_hashing():
    first, second = run_under_hash_seeds(COMMANDS)
    assert first == second
