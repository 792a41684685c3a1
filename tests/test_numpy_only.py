"""CLI commands on 1-D grids run on numpy alone, without numpy.ma; scipy loads only for
the d >= 2 W2 oracle.

Each check runs in a fresh interpreter, because the test process itself
imports scipy.
"""
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import sys
import schrobridge.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


assert not scipy_modules(), scipy_modules()
"""

COMMANDS = PRELUDE + """
import os
from schrobridge.cli import main

out = sys.argv[1]
configs = {
    "bridge": ("p0 = gaussian:0,0.5\\np1 = gaussian:0,1\\neps = 0.5\\nn_paths = 300\\n"
               "n_steps = 2\\n", ["--grid", "1,3,201", "--seed", "1"]),
    "moment": ("p1 = gaussian:0,1\\nr = 2.0\\nschedule = 1,0.5\\n", ["--grid", "1,2,21"]),
    "solve": ("mu1 = gaussian:0,0.5\\nmu2 = gaussian:0,1\\nkernel = gaussian:1\\n",
              ["--grid", "1,2,21"]),
    "control": ("p0 = gaussian:0,0.5\\np1 = gaussian:0,1\\neps = 1,0.5\\n", ["--grid", "1,2,21"]),
    "stability": ("mu1 = gaussian:0,0.5\\nmu2 = gaussian:0,1\\nfamily = kernel_perturbation\\n"
                  "index_set = 2,4\\n", ["--grid", "1,2,21", "--seed", "1"]),
}
for command, (config, flags) in configs.items():
    cfg = os.path.join(out, command + ".cfg")
    with open(cfg, "w") as fh:
        fh.write(config)
    status = main([command, "--config", cfg, "--out", os.path.join(out, command), *flags])
    assert status == 0, (command, status)
    assert not scipy_modules(), (command, scipy_modules())
    assert "numpy.ma" not in sys.modules, command
"""

ORACLE_2D = PRELUDE + """
import numpy as np
from schrobridge import DiscreteMeasure, Support, w2_distance

pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
sup = Support(points=pts, cell_volumes=np.ones(3), bounding_radius=1.0)
shifted = Support(points=pts + [0.3, 0.4], cell_volumes=np.ones(3), bounding_radius=2.0)
w = np.array([0.2, 0.3, 0.5])
d = w2_distance(DiscreteMeasure(sup, w), DiscreteMeasure(shifted, w))
assert abs(d - 0.5) < 1e-9, d
assert "scipy.optimize" in scipy_modules()
"""


def _run(script, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_commands_load_no_scipy(tmp_path):
    _run(COMMANDS, str(tmp_path))


def test_2d_w2_oracle_imports_scipy_lazily():
    _run(ORACLE_2D)
