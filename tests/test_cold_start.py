"""No command loads numpy or scipy: lglab depends on the standard library only.

The check runs in a fresh interpreter, because the test session itself
has long since imported both.
"""

import json
import os
import subprocess
import sys

import lglab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lglab.__file__)))

PROBE = """
import contextlib, io, json, sys

from lglab import cli

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
print(json.dumps({"exit": codes, "loaded": loaded}))
"""


def test_no_command_loads_numpy_or_scipy(tmp_path):
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "chain.json")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after = json.loads(proc.stdout)
    assert after == {"exit": [0] * 7, "loaded": []}
