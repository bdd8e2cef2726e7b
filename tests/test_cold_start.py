"""What a command loads: no numpy or scipy, and no stdlib module that lglab has no use for.

lglab depends on the standard library only. Its records are plain
classes, so importing it generates no code and loads neither
``dataclasses`` nor the ``inspect`` that ``dataclasses`` pulls in, and
``datetime`` is imported only to stamp a report. The checks run in a
fresh interpreter, because the test session itself has long since
imported all of these; there ``eval`` and ``exec`` count the source
texts they are given while lglab is imported.
"""

import json
import os
import subprocess
import sys

import pytest

import lglab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lglab.__file__)))

PROBE = """
import builtins, contextlib, io, json, sys

real = {name: getattr(builtins, name) for name in ("eval", "exec")}
generated = []  # the source texts run while lglab is imported, as a namedtuple's __new__ is


def counted(name):
    def run(source, *args):
        if isinstance(source, str):
            generated.append(name)
        return real[name](source, *args)
    return run


builtins.eval, builtins.exec = counted("eval"), counted("exec")
from lglab import cli
builtins.eval, builtins.exec = real["eval"], real["exec"]

model = sys.argv[1]
commands = (
    ["lg", "--zoo", "ks-sphere", "--grid", "200"],
    ["classify", "--zoo", "superselected"],
    ["classify", "--zoo", "ks-sphere", "--grid", "200"],
    ["zoo", "export", "ks-sphere", "--grid", "200"],
    ["twoslit", "--sweep"],
    ["zoo", "export", "superselected", "--out", model],
    ["run", "--model", model, "--protocol", "lg-all"],
)
codes = []
for command in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main([*command, "--no-timestamp"]))
loaded = sorted(name for name in sys.modules if name.split(".")[0] in ("numpy", "scipy"))
unused = sorted(name for name in ("dataclasses", "inspect", "datetime") if name in sys.modules)
print(json.dumps({"exit": codes, "loaded": loaded, "unused_stdlib": unused,
                  "generated": generated}))
"""


@pytest.fixture(scope="module")
def after(tmp_path_factory):
    """What the probe's seven --no-timestamp commands leave in ``sys.modules``."""
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    model = tmp_path_factory.mktemp("cold") / "chain.json"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(model)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_command_loads_numpy_or_scipy(after):
    assert {"exit": after["exit"], "loaded": after["loaded"]} == {"exit": [0] * 7, "loaded": []}


def test_no_command_loads_dataclasses_inspect_or_datetime(after):
    assert after["exit"] == [0] * 7
    assert after["unused_stdlib"] == []


def test_importing_lglab_generates_no_code(after):
    assert after["generated"] == []
