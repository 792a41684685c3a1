import json
import math
import os
import shutil

import numpy as np
import pytest

import schrobridge.data
from schrobridge import make_grid
from schrobridge.cli import main
from schrobridge.io import (
    dumps_json,
    fmt,
    load_density_csv,
    load_measure_csv,
    read_paths_binary,
    save_density_csv,
    save_measure_csv,
)
from conftest import gaussian_density

INSTANCES = os.path.join(os.path.dirname(schrobridge.data.__file__), "instances")


def _artifact_bytes(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _write_gaussian_density_csv(path, radius=4.0, n=61, var=1.0):
    g = make_grid(1, radius, n)
    save_density_csv(path, gaussian_density(g, var))


class TestCsvRoundTrip:
    def test_measure(self, tmp_path):
        g = make_grid(2, 1.5, 5)
        w = np.linspace(1, 2, g.n_points)
        from schrobridge import DiscreteMeasure

        mu = DiscreteMeasure(g, w / w.sum(), is_probability=True)
        path = tmp_path / "m.csv"
        save_measure_csv(path, mu)
        back = load_measure_csv(path)
        assert np.allclose(back.support.points, g.points)
        assert np.allclose(back.weights, mu.weights)
        assert back.is_probability

    def test_density(self, tmp_path):
        g = make_grid(1, 2.0, 16)
        p = gaussian_density(g, 0.5)
        path = tmp_path / "p.csv"
        save_density_csv(path, p)
        back = load_density_csv(path)
        assert np.allclose(back.values, p.values)
        assert np.allclose(back.support.cell_volumes, g.cell_volumes)

    def test_density_volume_inferred_for_uniform_1d(self, tmp_path):
        path = tmp_path / "p.csv"
        with open(path, "w") as fh:
            fh.write("x_1,density\n")
            for x in (-0.75, -0.25, 0.25, 0.75):
                fh.write(f"{x},0.5\n")
        p = load_density_csv(path)
        assert np.allclose(p.support.cell_volumes, 0.5)
        assert p.is_probability

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("x_1,weight\n0,0.5\n1\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3"):
            load_measure_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("a,b\n0,0.5\n")
        with pytest.raises(ValueError, match="x_1"):
            load_measure_csv(path)


class TestJsonFormatting:
    def test_17_digit_roundtrip(self):
        x = 1.0 / 3.0
        assert float(fmt(x)) == x
        assert fmt(0.5) == "0.5"

    def test_deterministic_serialization(self):
        payload = {"a": [0.1, 0.2, float("inf")], "b": {"c": 3}}
        assert dumps_json(payload) == dumps_json(payload)
        parsed = json.loads(dumps_json(payload))
        assert parsed["a"][2] == "inf"


class TestCliSolve:
    def _run(self, tmp_path, out_name="out"):
        cfg = tmp_path / "solve.cfg"
        with open(cfg, "w") as fh:
            fh.write(f"mu1 = {INSTANCES}/two_point_uniform.csv\n")
            fh.write(f"mu2 = {INSTANCES}/two_point_uniform.csv\n")
            fh.write(f"kernel = {INSTANCES}/kernel_2x2.csv\n")
            fh.write("tol = 1e-14\nmax_iters = 10000\n")
        out = tmp_path / out_name
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        return code, out

    def test_matches_golden_solution(self, tmp_path):
        code, out = self._run(tmp_path)
        assert code == 0
        with open(out / "solution.json") as fh:
            sol = json.load(fh)
        expected = 1.0 / math.sqrt(6.0)
        assert sol["nu1"] == pytest.approx([expected, expected], abs=1e-12)
        assert sol["nu2"] == pytest.approx([expected, expected], abs=1e-12)
        assert sol["m_index"] == 1
        assert sol["converged"] is True
        plan = np.loadtxt(out / "plan.csv", delimiter=",", skiprows=1)
        assert plan[:, 2] == pytest.approx([1 / 3, 1 / 6, 1 / 6, 1 / 3], abs=1e-12)

    def test_byte_identical_rerun(self, tmp_path):
        _, out1 = self._run(tmp_path, "out1")
        _, out2 = self._run(tmp_path, "out2")
        assert _artifact_bytes(out1) == _artifact_bytes(out2)

    def test_missing_input_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "solve.cfg"
        with open(cfg, "w") as fh:
            fh.write("mu1 = /nonexistent.csv\nmu2 = /nonexistent.csv\n")
            fh.write("kernel = gaussian:1\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_nan_weight_exits_1(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        with open(p, "w") as fh:
            fh.write("x_1,weight\n0.0,0.5\n1.0,nan\n")
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write(f"mu1 = {p}\nmu2 = {p}\nkernel = gaussian:1\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "weights must be finite" in capsys.readouterr().err

    def test_non_convergence_exits_2(self, tmp_path):
        p = tmp_path / "m.csv"
        g = make_grid(1, 3.0, 41)
        save_measure_csv(p, gaussian_density(g, 1.0).to_measure())
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write(f"mu1 = {p}\nmu2 = {p}\nkernel = gaussian:1\n")
            fh.write("eps = 0.01\ntol = 1e-14\nmax_iters = 2\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_manifest_hash_tracks_inputs(self, tmp_path):
        code, out = self._run(tmp_path)
        with open(out / "manifest.json") as fh:
            man1 = json.load(fh)
        key = f"{INSTANCES}/two_point_uniform.csv"
        assert key in man1["inputs"]
        local = tmp_path / "two_point_uniform.csv"
        shutil.copy(key, local)
        with open(local, "a") as fh:
            fh.write("\n")
        from schrobridge.io import sha256_of

        assert sha256_of(local) != man1["inputs"][key]


class TestCliGridBuiltin:
    def test_gaussian_density_on_grid_flag(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write("p0 = gaussian:0,0.5\np1 = gaussian:0,1.0\neps = 0.5\n")
        out = tmp_path / "o"
        code = main(["control", "--config", str(cfg), "--out", str(out),
                     "--grid", "1,4.0,61"])
        assert code == 0
        with open(out / "control.json") as fh:
            rep = json.load(fh)["reports"][0]
        assert rep["value"] >= 0
        assert rep["max_pairwise_gap"] <= 1e-8

    def test_builtin_without_grid_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write("p0 = gaussian:0,0.5\np1 = gaussian:0,1.0\neps = 0.5\n")
        assert main(["control", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1


class TestCliControl:
    def test_sweep_rows(self, tmp_path):
        p = tmp_path / "p.csv"
        _write_gaussian_density_csv(p, var=0.5)
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write(f"p0 = {p}\np1 = {p}\neps = 0.5,0.25\n")
        out = tmp_path / "o"
        assert main(["control", "--config", str(cfg), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "control_sweep.csv", delimiter=",", skiprows=1)
        assert rows.shape == (2, 3)
        assert np.all(rows[:, 1] >= 0)


class TestCliBridge:
    def test_requires_seed(self, tmp_path):
        p = tmp_path / "p.csv"
        _write_gaussian_density_csv(p)
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write(f"p0 = {p}\np1 = {p}\neps = 0.5\nn_paths = 50\nn_steps = 10\n")
        assert main(["bridge", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_full_paths_flag(self, tmp_path):
        p = tmp_path / "p.csv"
        _write_gaussian_density_csv(p)
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write(f"p0 = {p}\np1 = {p}\neps = 0.5\nn_paths = 40\nn_steps = 12\n")
        out = tmp_path / "o"
        code = main(["bridge", "--config", str(cfg), "--out", str(out),
                     "--seed", "7", "--full-paths"])
        assert code == 0
        paths = read_paths_binary(out / "paths.bin")
        assert paths.shape == (40, 13, 1)
        term = np.loadtxt(out / "terminal.csv", delimiter=",", skiprows=1)
        assert np.allclose(paths[:, -1, 0], term)

    def test_reproducible(self, tmp_path):
        p = tmp_path / "p.csv"
        _write_gaussian_density_csv(p)
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write(f"p0 = {p}\np1 = {p}\neps = 0.5\nn_paths = 30\nn_steps = 10\n")
        outs = []
        for name in ("o1", "o2"):
            out = tmp_path / name
            assert main(["bridge", "--config", str(cfg), "--out", str(out),
                         "--seed", "7"]) == 0
            outs.append(_artifact_bytes(out))
        assert outs[0] == outs[1]


class TestCliMoment:
    def test_short_schedule(self, tmp_path):
        p = tmp_path / "p.csv"
        _write_gaussian_density_csv(p, radius=4.0, n=81)
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write(f"p1 = {p}\nr = 4.0\nschedule = 0.5,0.25\n")
        out = tmp_path / "o"
        assert main(["moment", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "moment.json") as fh:
            result = json.load(fh)
        assert len(result["u_bar"]) == 81
        assert result["pushforward_error"] < 0.1
        diag = np.loadtxt(out / "moment_diagnostics.csv", delimiter=",", skiprows=1)
        assert diag.shape[0] == 2

    def test_exit_2_writes_completed_levels(self, tmp_path):
        # One outer step per level: eps = 8 meets tol = 0.07 in one step,
        # eps = 0.1 does not.
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write("p1 = gaussian:0,1\nr = 4.0\nschedule = 8,0.1\n"
                     "tol = 0.07\nmax_outer = 1\n")
        out = tmp_path / "o"
        assert main(["moment", "--config", str(cfg), "--grid", "1,4,41",
                     "--out", str(out)]) == 2
        assert not (out / "moment.json").exists()
        diag = np.loadtxt(out / "moment_diagnostics.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        assert diag.shape[0] == 1
        assert diag[0, 0] == 8.0


class TestCliStability:
    def test_zero_amplitude_family(self, tmp_path):
        g = make_grid(1, 2.0, 21)
        m = tmp_path / "m.csv"
        save_measure_csv(m, gaussian_density(g, 0.5).to_measure())
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write(f"mu1 = {m}\nmu2 = {m}\nkernel = gaussian:1\neps = 1.0\n")
            fh.write("family = kernel_perturbation\namplitude = 0\n")
            fh.write("index_set = 2,4\nseed = 0\n")
        out = tmp_path / "o"
        assert main(["stability", "--config", str(cfg), "--out", str(out)]) == 0
        rows = np.loadtxt(out / "stability.csv", delimiter=",", skiprows=1)
        assert np.all(rows[:, 1] <= 1e-11)
        with open(out / "stability_summary.json") as fh:
            summary = json.load(fh)
        assert summary["semiconvexity_constant"] == pytest.approx(0.5)


_GRID = ["--grid", "1,2,21"]
_BRIDGE = "p0 = gaussian:0,0.5\np1 = gaussian:0,1\neps = 0.5\nn_paths = 20\nn_steps = 2\n"


@pytest.mark.parametrize("command, config, flags, message", [
    ("solve", "mu1 = gaussian:0,-1\nmu2 = gaussian:0,1\nkernel = gaussian:1\n",
     _GRID, "variance must be finite and > 0"),
    ("solve", "mu1 = gaussian:0,0\nmu2 = gaussian:0,1\nkernel = gaussian:1\n",
     _GRID, "variance must be finite and > 0"),
    ("bridge", _BRIDGE + "bins = 0\n", _GRID + ["--seed", "1"], "bins >= 1"),
    ("bridge", _BRIDGE + "n_paths = 0\n", _GRID + ["--seed", "1"], "n_paths >= 1"),
    ("bridge", _BRIDGE + "n_steps = 1\n", _GRID + ["--seed", "1"], "n_steps >= 2"),
    ("moment", "p1 = gaussian:0,1\nr = 2.0\ntol = 0\n", _GRID, "tol > 0"),
    ("moment", "p1 = gaussian:0,1\nr = 2.0\ntol = -1\n", _GRID, "tol > 0"),
    ("solve", "mu1 = gaussian:0,1\nmu2 = gaussian:0,1\nkernel = gaussian:1\n",
     _GRID + ["--tol", "nan"], "tol > 0"),
    ("solve", "mu1 = gaussian:0,1\nmu2 = gaussian:0,1\nkernel = gaussian:1\n",
     _GRID + ["--eps", "nan"], "eps > 0"),
    ("stability", "mu1 = gaussian:0,1\nmu2 = gaussian:0,1\n"
     "family = kernel_perturbation\nindex_set = 2\nn_probes = 0\n",
     _GRID + ["--seed", "1"], "at least one probe"),
    ("stability", "mu1 = gaussian:0,1\nmu2 = gaussian:0,1\n"
     "family = kernel_perturbation\nindex_set = 2\nr_prime = nan\n",
     ["--grid", "1,2,20", "--seed", "1"], "finite r_prime > 0"),
    ("stability", "mu1 = gaussian:0,1\nmu2 = gaussian:0,1\n"
     "family = kernel_perturbation\nindex_set = 2\nr_prime = 0.01\n",
     ["--grid", "1,2,20", "--seed", "1"], "finite r_prime > 0"),
    ("stability", "mu1 = gaussian:0,1\nmu2 = gaussian:0,1\n"
     "family = kernel_perturbation\nindex_set = 2\nr_prime = 0\n",
     _GRID + ["--seed", "1"], "finite r_prime > 0"),
    ("moment", "p1 = gaussian:0,1\nr = 2.0\nschedule = 1,nan\n", _GRID,
     "schedule must be nonempty with every entry finite and > 0"),
    ("control", "p0 = gaussian:0,0.5\np1 = gaussian:0,1\neps = 1,nan\n", _GRID,
     "every eps in the list must be finite and > 0"),
    ("stability", "mu1 = gaussian:0,1\nmu2 = gaussian:0,1\n"
     "family = marginal_mollification\nindex_set = 2\nbandwidth = -0.5\n",
     _GRID + ["--seed", "1"], "bandwidth must be finite and > 0"),
    ("stability", "mu1 = gaussian:0,1\nmu2 = gaussian:0,1\n"
     "family = marginal_mollification\nindex_set = 2\nbandwidth = 0\n",
     _GRID + ["--seed", "1"], "bandwidth must be finite and > 0"),
], ids=["negative_variance", "zero_variance", "zero_bins", "n_paths_zero",
        "n_steps_one", "moment_tol_zero",
        "moment_tol_negative", "solve_tol_nan", "solve_eps_nan", "no_probes",
        "r_prime_nan", "r_prime_empty_ball", "r_prime_zero", "schedule_nan",
        "control_eps_nan", "bandwidth_negative", "bandwidth_zero"])
def test_bad_scalar_parameter_exits_1(tmp_path, capsys, monkeypatch, command, config,
                                      flags, message):
    # every case is rejected before any path is simulated
    simulated = []

    def no_simulation(*args, **kwargs):
        simulated.append(args)
        raise AssertionError("simulate ran on a rejected parameter")

    monkeypatch.setattr("schrobridge.cli.simulate", no_simulation)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                 *flags]) == 1
    assert message in capsys.readouterr().err
    assert not simulated
