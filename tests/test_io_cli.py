import json
import math
import os
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schrobridge.cli
import schrobridge.data
import schrobridge.io
import schrobridge.moment
from schrobridge import (
    Density,
    DiscreteMeasure,
    GaussianHeatKernel,
    control_value,
    make_grid,
    plan_matrix,
    simulate,
    solve_schrodinger,
)
from schrobridge.cli import main
from schrobridge.io import (
    _csv_rows,
    dumps_json,
    fmt,
    load_density_csv,
    load_measure_csv,
    write_csv,
    write_plan_csv,
    write_terminal_csv,
)
from conftest import gaussian_density, save_density_csv, save_measure_csv

INSTANCES = os.path.join(os.path.dirname(schrobridge.data.__file__), "instances")


def read_paths_binary(path):
    with open(path, "rb") as fh:
        shape = tuple(int(v) for v in fh.readline().split())
        data = np.frombuffer(fh.read(), dtype=np.float64)
    return data.reshape(shape)


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

    @pytest.mark.parametrize("bad_row, message", [
        ("1,abc", "could not convert string to float: 'abc'"),
        ("1", "expected 2 fields, got 1"),
    ], ids=["bad_field", "ragged_row"])
    def test_line_numbers_count_blank_lines(self, tmp_path, bad_row, message):
        path = tmp_path / "blank.csv"
        path.write_text(f"\nx_1,weight\n\n0,0.5\n{bad_row}\n")
        with pytest.raises(ValueError) as info:
            load_measure_csv(path)
        assert str(info.value) == f"{path}:5: {message}"

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

    @pytest.mark.parametrize("values", [
        np.array([0.1, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.7976931348623157e308]),
        np.array([math.nan, 1.0 / 3.0, math.inf, -0.0, -math.inf, 5e-324]),
        np.array([0.1, -2.5e-40, 3.0], dtype=np.float32),
    ], ids=["finite", "non_finite", "float32"])
    def test_float_array_matches_per_element_output(self, values):
        per_element = "[" + ", ".join(dumps_json(v)[:-1] for v in values.tolist()) + "]"
        assert dumps_json(values) == per_element + "\n"
        assert dumps_json({"a": values}) == '{"a": ' + per_element + "}\n"


def _rendered_lines(values):
    return b"".join(_csv_rows([np.asarray(values, dtype=float)])).decode().splitlines()


_SWITCHES = [1e16, 1e17, 9.9999999999999995e-5, 1e-4, 1e-5, 99999999999999999.0,
             1e16 - 2.0, 0.5, 2.0 ** -25, 5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308]


class TestCsvRenderer:
    """Float fields of plan.csv and terminal.csv are exactly format(v, ".17g")."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
    @example([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324])
    def test_matches_format_on_any_float(self, values):
        assert _rendered_lines(values) == [format(v, ".17g") for v in values]

    def test_powers_of_ten_their_neighbours_and_the_notation_switch(self):
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
                                 _SWITCHES, np.negative(_SWITCHES)])
        assert _rendered_lines(values) == [format(v, ".17g") for v in values.tolist()]

    def test_every_value_through_the_fallback(self, monkeypatch):
        rng = np.random.default_rng(3)
        values = np.concatenate([
            rng.standard_normal(500) * 10.0 ** rng.uniform(-330, 300, 500),
            rng.integers(0, 2 ** 64 - 1, 500, dtype=np.uint64).view(np.float64),
            [0.0, -0.0, math.nan, math.inf, -math.inf], _SWITCHES])
        fast = _rendered_lines(values)
        monkeypatch.setattr(schrobridge.io, "_TIE_MARGIN", 1.0)  # no fraction is certified
        assert _rendered_lines(values) == fast == [format(v, ".17g") for v in values.tolist()]

    def test_integer_columns_of_any_width(self):
        ints = np.array([0, 7, 10, 9999, 10000, 12345678, 100000000, 10 ** 18 + 3])
        masses = np.linspace(-1.0, 1.0, len(ints)) ** 3
        rows = b"".join(_csv_rows([ints, ints[::-1], masses])).decode().splitlines()
        assert rows == ["%d,%d,%.17g" % r for r in zip(ints, ints[::-1], masses)]

    @pytest.mark.parametrize("n_rows", [0, 3], ids=["header_only", "rows"])
    def test_write_csv_matches_per_value_output(self, tmp_path, n_rows):
        # the small artifacts' columns: floats with nan, then counts
        floats = np.array([0.125, math.nan, -1e-300, 1.0 / 3.0, math.inf])[:n_rows]
        counts = [12, 0, 10 ** 5, 3, 7][:n_rows]
        write_csv(tmp_path / "t.csv", ["a", "b", "n"], [[floats, floats[::-1], counts]])
        rows = zip(floats.tolist(), floats[::-1].tolist(), counts)
        assert (tmp_path / "t.csv").read_text() == "a,b,n\n" + "".join(
            f"{fmt(a)},{fmt(b)},{n}\n" for a, b, n in rows)

    def test_negative_integer_column_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nonnegative"):
            write_csv(tmp_path / "t.csv", ["n"], [[np.array([3, -5])]])

    def test_plan_csv_lines(self, tmp_path):
        g = make_grid(1, 4.0, 60)
        w = np.exp(-g.points[:, 0] ** 2)
        mu = DiscreteMeasure(g, w / w.sum(), is_probability=True)
        sol = solve_schrodinger(GaussianHeatKernel(source=g, target=g, t=1.0, eps=0.02), mu, mu)
        plan = plan_matrix(sol)
        assert (plan == 0).any() and (plan[plan > 0] < 2.3e-308).any()
        write_plan_csv(tmp_path / "plan.csv", sol)
        lines = (tmp_path / "plan.csv").read_text().splitlines()
        assert lines == ["i,j,mass", *("%d,%d,%.17g" % (i, j, plan[i, j])
                                       for i in range(60) for j in range(60))]

    def test_streamed_plan_csv_matches_the_plan(self, tmp_path):
        # a non-square plan on distinct grids with a zero-mass source point, and
        # 40 plan rows written in blocks of a number of rows that does not divide 40
        source, target = make_grid(1, 3.0, 40), make_grid(1, 4.0, 300)
        assert 40 % max(1, schrobridge.io._CHUNK_ROWS // 300) != 0
        w1 = np.exp(-source.points[:, 0] ** 2)
        w1[5] = 0.0
        w2 = np.exp(-(target.points[:, 0] - 0.5) ** 2 / 2.0)
        sol = solve_schrodinger(GaussianHeatKernel(source=source, target=target, t=1.0, eps=0.5),
                                DiscreteMeasure(source, w1 / w1.sum(), is_probability=True),
                                DiscreteMeasure(target, w2 / w2.sum(), is_probability=True))
        plan = plan_matrix(sol)
        assert not plan[5].any()
        write_plan_csv(tmp_path / "plan.csv", sol)
        assert (tmp_path / "plan.csv").read_bytes() == ("i,j,mass\n" + "".join(
            f"{i},{j},{format(v, '.17g')}\n" for (i, j), v in np.ndenumerate(plan))).encode()

    def test_plan_csv_working_memory_is_one_block(self, tmp_path):
        def peak(n, name):
            g = make_grid(1, 4.0, n)
            w = np.exp(-g.points[:, 0] ** 2)
            mu = DiscreteMeasure(g, w / w.sum(), is_probability=True)
            sol = solve_schrodinger(GaussianHeatKernel(source=g, target=g, t=1.0, eps=0.5), mu, mu)
            tracemalloc.start()
            try:
                write_plan_csv(tmp_path / name, sol)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(400, "first.csv")  # the renderer's lookup tables, built once per process
        small, large = peak(400, "small.csv"), peak(800, "large.csv")
        # four times the plan entries, the same working set: well under one (n, m) plan
        assert large < 1.25 * small and large < 800 * 800 * 8

    def test_two_dimensional_terminal_csv_lines(self, tmp_path):
        g = make_grid(2, 2.0, 7)
        p0 = gaussian_density(g, 0.4)
        ens = simulate(control_value(p0, gaussian_density(g, 1.0), eps=0.5).solution,
                       300, 6, seed=5)
        write_terminal_csv(tmp_path / "terminal.csv", ens)
        lines = (tmp_path / "terminal.csv").read_text().splitlines()
        assert lines == ["x_1,x_2", *(",".join(format(v, ".17g") for v in row)
                                      for row in ens.terminal.tolist())]


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

    def test_ragged_kernel_names_file_and_line(self, tmp_path, capsys):
        k = tmp_path / "k.csv"
        with open(k, "w") as fh:
            fh.write("2,1\n1\n")
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write(f"mu1 = {INSTANCES}/two_point_uniform.csv\n")
            fh.write(f"mu2 = {INSTANCES}/two_point_uniform.csv\nkernel = {k}\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "k.csv:2: expected 2 fields" in capsys.readouterr().err

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

    def test_gaussian_measure_is_the_resolved_density_as_is(self, tmp_path, monkeypatch):
        # on this 2-D grid a second normalization moves the weights
        resolved, received = [], []
        resolve, solve = schrobridge.cli._resolve_density, schrobridge.cli.solve_schrodinger

        def spy_resolve(run, key):
            resolved.append(resolve(run, key))
            return resolved[-1]

        def spy_solve(kernel, mu1, mu2, **kwargs):
            received.append(mu1)
            return solve(kernel, mu1, mu2, **kwargs)

        monkeypatch.setattr(schrobridge.cli, "_resolve_density", spy_resolve)
        monkeypatch.setattr(schrobridge.cli, "solve_schrodinger", spy_solve)
        atoms = tmp_path / "atoms.csv"
        save_measure_csv(atoms, DiscreteMeasure(make_grid(2, 1.0, 2), np.full(4, 0.25),
                                                is_probability=True))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"mu1 = gaussian:1\nmu2 = {atoms}\nkernel = gaussian:1\n")
        assert main(["solve", "--config", str(cfg), "--grid", "2,3,31",
                     "--out", str(tmp_path / "o")]) == 0
        assert len(resolved) == len(received) == 1
        assert np.array_equal(received[0].weights, resolved[0].to_measure().weights)


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

    def test_full_paths_config_in_any_case(self, tmp_path):
        p = tmp_path / "p.csv"
        _write_gaussian_density_csv(p)
        for value, written in (("TRUE", True), ("False", False)):
            cfg = tmp_path / f"{value}.cfg"
            cfg.write_text(f"p0 = {p}\np1 = {p}\neps = 0.5\nn_paths = 20\nn_steps = 4\n"
                           f"full_paths = {value}\n")
            out = tmp_path / value
            assert main(["bridge", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
            assert (out / "paths.bin").exists() == written

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

    def test_exit_2_writes_completed_levels(self, tmp_path, monkeypatch):
        # One outer step per level: eps = 8 meets tol = 0.07 in one step,
        # eps = 0.1 does not.
        solves = []
        solve = schrobridge.moment.solve_schrodinger
        monkeypatch.setattr(schrobridge.moment, "solve_schrodinger",
                            lambda *args, **kw: solves.append(solve(*args, **kw)) or solves[-1])
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
        with open(out / "moment_diagnostics.csv") as fh:
            assert fh.readline().strip().endswith(",outer_steps,inner_sweeps")
        # the completed level's one outer step, and the sweeps of its one solve
        assert diag[0, -2] == 1.0
        assert diag[0, -1] == solves[0].iterations


    @pytest.mark.parametrize("config, status, levels", [
        ("p1 = gaussian:0,1\nr = 4.0\nschedule = 1,0.5\n", 0, 2),
        ("p1 = gaussian:0,1\nr = 4.0\nschedule = 8,0.1\ntol = 0.07\nmax_outer = 1\n", 2, 1),
    ], ids=["converged", "exit_2"])
    def test_every_level_reports_its_w2_check(self, tmp_path, config, status, levels):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        out = tmp_path / "o"
        assert main(["moment", "--config", str(cfg), "--grid", "1,4,41",
                     "--out", str(out)]) == status
        with open(out / "moment_diagnostics.csv") as fh:
            header = fh.readline().strip().split(",")
            rows = [dict(zip(header, line.strip().split(","))) for line in fh]
        assert header[5:7] == ["pushforward_error", "w2_check"]
        assert len(rows) == levels
        assert all(abs(float(row["w2_check"])) <= 1e-12 for row in rows)
        if status == 0:
            with open(out / "moment.json") as fh:
                assert json.load(fh)["w2_check"] == float(rows[-1]["w2_check"])

    def test_off_centre_target_within_default_max_outer(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        with open(cfg, "w") as fh:
            fh.write("p1 = gaussian:0.05,1\nr = 4.0\nschedule = 1\n")
        out = tmp_path / "o"
        assert main(["moment", "--config", str(cfg), "--grid", "1,4,101",
                     "--out", str(out)]) == 0
        with open(out / "moment_diagnostics.csv") as fh:
            header = fh.readline().strip().split(",")
            row = dict(zip(header, fh.readline().strip().split(",")))
        assert int(row["outer_steps"]) <= 20

    def test_centred_target_on_a_wide_grid_converges(self, tmp_path):
        # r = 8 on 201 points: the residual rises on some steps on the way in
        cfg = tmp_path / "c.cfg"
        cfg.write_text("p1 = gaussian:0,1\nr = 8\nschedule = 1,0.5,0.25\n")
        assert main(["moment", "--config", str(cfg), "--grid", "1,8,201",
                     "--out", str(tmp_path / "o")]) == 0


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
    ("moment", "p1 = gaussian:0,1\nr = 2.0\nmax_outter = 3\n", _GRID,
     "moment does not read: max_outter"),
    ("moment", "p1 = gaussian:0,1\nr = 2.0\n", _GRID + ["--eps", "0.001", "--seed", "3"],
     "moment does not read: eps, seed"),
    ("moment", "p1 = gaussian:0,1\nr = 2.0\n", ["--grid", "1,3"],
     "grid: not enough values to unpack"),
    ("moment", "p1 = gaussian:x,1\nr = 2.0\n", _GRID, "p1: could not convert string to float"),
    ("bridge", _BRIDGE + "n_paths = ten\n", _GRID + ["--seed", "1"],
     "n_paths: invalid literal for int()"),
    ("solve", "mu1 = gaussian:0,1\nmu2 = gaussian:0,1\nkernel = gaussian:x\n", _GRID,
     "kernel: could not convert string to float"),
    ("moment", "p1 = gaussian:0,1\nr = 2.0\ndamping = 0.5\n", _GRID,
     "moment does not read: damping"),
    ("moment", "p1 = gaussian:0,1\nr = 0.01\nschedule = 1,0.5\n", ["--grid", "1,4,101"],
     "isolated lattice point"),
    ("bridge", _BRIDGE + "full_paths = 1\n", _GRID + ["--seed", "1"],
     "full_paths: expected true or false, got '1'"),
    ("stability", "mu1 = gaussian:0,1\nmu2 = gaussian:0,1\n"
     "family = kernel_perturbation\nindex_set = 64,32,16,8,4\n",
     _GRID + ["--seed", "1"], "index_set must be strictly increasing"),
], ids=["negative_variance", "zero_variance", "zero_bins", "n_paths_zero",
        "n_steps_one", "moment_tol_zero",
        "moment_tol_negative", "solve_tol_nan", "solve_eps_nan", "no_probes",
        "r_prime_nan", "r_prime_empty_ball", "r_prime_zero", "schedule_nan",
        "control_eps_nan", "bandwidth_negative", "bandwidth_zero", "config_typo",
        "ignored_flag", "grid_two_fields", "gaussian_mean_not_a_number", "n_paths_not_an_int",
        "kernel_time_not_a_number", "damping_not_read", "one_point_ball",
        "full_paths_not_a_bool", "index_set_descending"])
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


@pytest.mark.parametrize("command, key, text, message", [
    ("solve", "mu1", "x_1,weight\n0,0\n1,0\n", "weights have zero total mass"),
    ("solve", "mu1", "x_1,weight\n0,1.5\n1,-0.5\n", "weights must be finite and nonnegative"),
    ("solve", "mu1", "x_1,weight\n0,0.5\n0,0.5\n", "support points must be pairwise distinct"),
    ("moment", "p1", "x_1,density\n0,0\n1,0\n", "density has zero total mass"),
    ("solve", "kernel", "2,1\n1,-2\n", "kernel values must be strictly positive and finite"),
    ("solve", "kernel", "2,1,1\n1,2,1\n", "kernel matrix shape does not match supports"),
], ids=["zero_mass", "negative_weight", "duplicate_points", "zero_mass_density",
        "negative_kernel_entry", "kernel_shape"])
def test_bad_input_file_exits_1_naming_it(tmp_path, capsys, command, key, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    uniform = f"{INSTANCES}/two_point_uniform.csv"
    rest = {"mu1": f"mu2 = {uniform}\nkernel = gaussian:1\n",
            "kernel": f"mu1 = {uniform}\nmu2 = {uniform}\n",
            "p1": "r = 2.0\n"}[key]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key} = {bad}\n{rest}")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def _artifact_numbers(out_dir):
    """Every number of every artifact but the manifest, one flat array per file."""
    def flat(obj):
        if isinstance(obj, dict):
            return [x for v in obj.values() for x in flat(v)]
        if isinstance(obj, list):
            return [x for v in obj for x in flat(v)]
        return [] if obj is None else [float(obj)]

    out = {}
    for name in sorted(os.listdir(out_dir)):
        path = out_dir / name
        if name.endswith(".json") and name != "manifest.json":
            with open(path) as fh:
                out[name] = np.array(flat(json.load(fh)))
        elif name.endswith(".csv"):
            out[name] = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).ravel()
    return out


@pytest.mark.parametrize("command, config", [
    ("control", "p0 = {f}\np1 = {f}\neps = 0.5\n"),
    ("bridge", "p0 = {f}\np1 = {f}\neps = 0.5\nn_paths = 200\nn_steps = 4\nseed = 3\n"),
    ("moment", "p1 = {f}\nr = 2.0\nschedule = 1,0.5\n"),
])
def test_density_file_is_a_law_given_up_to_scale(tmp_path, command, config):
    # a 41-point N(0, 1) density on [-2, 2], saved at three total masses
    g = make_grid(1, 2.0, 41)
    p = gaussian_density(g, 1.0)
    runs = {}
    for scale in (1.0, 1.0 + 5e-11, 1.5):
        f = tmp_path / f"p_{scale!r}.csv"
        save_density_csv(f, Density(g, p.values * scale))
        cfg = tmp_path / f"{scale!r}.cfg"
        cfg.write_text(config.format(f=f))
        out = tmp_path / f"out_{scale!r}"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0, scale
        runs[scale] = _artifact_numbers(out)
    ref = runs.pop(1.0)
    assert ref
    for got in runs.values():
        assert got.keys() == ref.keys()
        for name, values in ref.items():
            np.testing.assert_allclose(got[name], values, rtol=1e-12,
                                       atol=1e-12 * np.abs(values[np.isfinite(values)]).max(),
                                       err_msg=name)
