"""`import lglab` loads neither numpy nor scipy; only the hull solve does.

Each check runs in a fresh interpreter, because the test session itself
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

def loaded():
    return {name: name in sys.modules for name in ("numpy", "scipy.optimize")}

import lglab
after = {"import": loaded()}
from lglab import cli
for command in (["lg", "--zoo", "lgi-holds-d-nonzero"], ["classify", "--zoo", "superselected"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*command, "--no-timestamp"])
    after[command[0]] = dict(loaded(), exit=code)
print(json.dumps(after))
"""


def test_only_classify_loads_scipy():
    path = [SRC, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after = json.loads(proc.stdout)
    assert after["import"] == {"numpy": False, "scipy.optimize": False}
    assert after["lg"] == {"numpy": False, "scipy.optimize": False, "exit": 0}
    assert after["classify"] == {"numpy": True, "scipy.optimize": True, "exit": 0}
