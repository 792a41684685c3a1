"""CLI commands run on numpy alone, without scipy or numpy.ma, in one and two dimensions.

A moment run draws no random numbers, so it does not load numpy.random either.

The commands run in a fresh interpreter, because the test process itself
imports scipy. There ``sys.modules["scipy"]`` is None, so any import of
scipy or of one of its submodules raises.
"""
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

COMMANDS = """
import os
import sys

sys.modules["scipy"] = None
from schrobridge.cli import main

out = sys.argv[1]
bridge_1d = "p0 = gaussian:0,0.5\\np1 = gaussian:0,1\\neps = 0.5\\nn_paths = 300\\nn_steps = 2\\n"
bridge_2d = ("p0 = gaussian:0,0,0.5\\np1 = gaussian:0,0,1\\neps = 0.5\\nn_paths = 300\\n"
             "n_steps = 2\\n")
moment = "r = 2.0\\nschedule = 1,0.5\\n"
runs = {
    "bridge": (bridge_1d, ["--grid", "1,3,201", "--seed", "1"]),
    "moment": ("p1 = gaussian:0,1\\n" + moment, ["--grid", "1,2,21"]),
    "solve": ("mu1 = gaussian:0,0.5\\nmu2 = gaussian:0,1\\nkernel = gaussian:1\\n",
              ["--grid", "1,2,21"]),
    "control": ("p0 = gaussian:0,0.5\\np1 = gaussian:0,1\\neps = 1,0.5\\n", ["--grid", "1,2,21"]),
    "stability": ("mu1 = gaussian:0,0.5\\nmu2 = gaussian:0,1\\nfamily = kernel_perturbation\\n"
                  "index_set = 2,4\\n", ["--grid", "1,2,21", "--seed", "1"]),
    "bridge_2d": (bridge_2d, ["--grid", "2,3,15", "--seed", "1"]),
    "moment_2d": ("p1 = gaussian:0,0,1\\n" + moment, ["--grid", "2,2,11"]),
}
for name, (config, flags) in runs.items():
    cfg = os.path.join(out, name + ".cfg")
    with open(cfg, "w") as fh:
        fh.write(config)
    command = name.removesuffix("_2d")
    status = main([command, "--config", cfg, "--out", os.path.join(out, name), *flags])
    assert status == 0, (name, status)
    assert "numpy.ma" not in sys.modules, name
"""


def test_cli_commands_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", COMMANDS, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


MOMENT_ONLY = """
import os
import sys

from schrobridge.cli import main

out, p1, grid = sys.argv[1:]
cfg = os.path.join(out, "moment.cfg")
with open(cfg, "w") as fh:
    fh.write(f"p1 = {p1}\\nr = 2.0\\nschedule = 1,0.5\\n")
assert main(["moment", "--config", cfg, "--grid", grid, "--out", out]) == 0
assert "numpy.random" not in sys.modules
"""


def test_moment_run_draws_no_random_numbers(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    for p1, grid in (("gaussian:0,1", "1,2,21"), ("gaussian:0,0,1", "2,2,11")):
        proc = subprocess.run([sys.executable, "-c", MOMENT_ONLY, str(tmp_path), p1, grid],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (grid, proc.stderr)
