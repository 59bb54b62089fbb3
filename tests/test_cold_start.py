"""What a fresh ``boundarylab`` process imports.

Every experiment is its own process, so what the package imports at
module scope is paid by each run, however short.  Quadrature and
root-finding (``scipy.integrate``, which brings ``scipy.optimize``) serve
only ``radial_oracle``; no command, config or run needs them.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# imports the command line and the runner, validates every bundled config, runs
# two of them, and prints the scipy modules the interpreter then holds
SCRIPT = r"""
import glob, io, json, os, sys
from contextlib import redirect_stdout
import boundarylab, boundarylab.cli, boundarylab.runner
cfg_dir, out_root = sys.argv[1:3]
with redirect_stdout(io.StringIO()):
    for path in sorted(glob.glob(os.path.join(cfg_dir, "*.json"))):
        assert boundarylab.cli.main(["validate", path]) == 0, path
    for name in ("classify_tilted", "halfcyl_model_d"):
        path = os.path.join(cfg_dir, name + ".json")
        assert boundarylab.cli.main(["run", path, "--output-root", out_root]) == 0, name
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_a_run_imports_neither_quadrature_nor_optimization(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", SCRIPT, os.path.join(ROOT, "configs"),
                          str(tmp_path)], env=env, capture_output=True, text=True,
                         check=True, timeout=300)
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert "scipy.sparse.linalg" in loaded and "scipy.linalg" in loaded
    heavy = [m for m in loaded if m.split(".")[:2] in (["scipy", "integrate"],
                                                         ["scipy", "optimize"])]
    assert heavy == []
    assert sorted(os.listdir(tmp_path)) == ["classify_tilted", "halfcyl_model_d"]
