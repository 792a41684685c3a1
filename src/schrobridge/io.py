"""CSV / JSON ingestion and artifact emission.

Measures and densities travel as CSV with a mandatory header row and
columns x_1..x_d plus weight (or density); an optional cell_volume column
carries quadrature weights (required to interpret density files on
irregular supports, inferred from uniform spacing in one dimension).
All numeric output is formatted with 17 significant digits so re-runs are
byte-identical.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .core import DenseKernel, Density, DiscreteMeasure, Support
from .solver import plan_matrix


_FLOAT_SPEC = ".17g"  # the one float format of every artifact


def fmt(x) -> str:
    """Fixed 17-significant-digit decimal form of a float."""
    return format(float(x), _FLOAT_SPEC)


def _json_value(obj):
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(bool(obj) if obj is not None else None)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return fmt(v)
    return json.dumps(obj)


def dumps_json(obj) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    return _json_value(obj) + "\n"


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                fmt(v) if isinstance(v, (float, np.floating)) else str(v)
                for v in row) + "\n")


# ---------------------------------------------------------------------------
# Measures and densities
# ---------------------------------------------------------------------------

def _parse_table(path, header=True):
    """(names, rows) of a CSV: names are the first non-blank line's fields; every line,
    bar a header, is a float row of that width. Errors name the file and the line."""
    with open(path) as fh:
        lines = [ln for ln in map(str.strip, fh) if ln]
    if not lines:
        raise ValueError(f"{path}: empty file")
    names = [h.strip() for h in lines[0].split(",")]
    rows = []
    for lineno, ln in enumerate(lines[header:], start=1 + header):
        parts = ln.split(",")
        if len(parts) != len(names):
            raise ValueError(f"{path}:{lineno}: expected {len(names)} fields, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return names, np.asarray(rows)


def _split_columns(path, header, data, value_name):
    d = 0
    while f"x_{d + 1}" in header:
        d += 1
    if d == 0:
        raise ValueError(f"{path}: no coordinate columns x_1..x_d in header")
    coords = np.stack([data[:, header.index(f"x_{k + 1}")] for k in range(d)], axis=1)
    if value_name not in header:
        raise ValueError(f"{path}: header must contain {value_name}")
    values = data[:, header.index(value_name)]
    vols = data[:, header.index("cell_volume")] if "cell_volume" in header else None
    return coords, values, vols


def _infer_volumes(path, coords, vols):
    if vols is not None:
        return vols
    if coords.shape[1] != 1:
        raise ValueError(f"{path}: cell_volume column required for dim > 1 densities")
    x = np.sort(coords[:, 0])
    if len(x) < 2:
        raise ValueError(f"{path}: cannot infer cell volume from one point")
    gaps = np.diff(x)
    if gaps.max() - gaps.min() > 1e-9 * max(1.0, gaps.max()):
        raise ValueError(f"{path}: non-uniform spacing, add a cell_volume column")
    return np.full(len(x), gaps.mean())


def _support_from(coords, vols):
    radius = float(np.linalg.norm(coords, axis=1).max())
    return Support(points=coords, cell_volumes=vols, bounding_radius=max(radius, 1e-12))


def load_measure_csv(path) -> DiscreteMeasure:
    header, data = _parse_table(path)
    coords, weights, vols = _split_columns(path, header, data, "weight")
    if vols is None:
        vols = np.ones(len(weights))
    sup = _support_from(coords, vols)
    return DiscreteMeasure(sup, weights,
                           is_probability=abs(weights.sum() - 1.0) <= 1e-12)


def load_density_csv(path) -> Density:
    header, data = _parse_table(path)
    coords, values, vols = _split_columns(path, header, data, "density")
    vols = _infer_volumes(path, coords, vols)
    sup = _support_from(coords, vols)
    mass = float(values @ vols)
    return Density(sup, values, is_probability=abs(mass - 1.0) <= 1e-10)


def load_kernel_csv(path, source: Support, target: Support) -> DenseKernel:
    _, rows = _parse_table(path, header=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        logk = np.log(rows)
    return DenseKernel(source=source, target=target, logk=logk)


# ---------------------------------------------------------------------------
# Artifact serializers
# ---------------------------------------------------------------------------

def solution_payload(sol):
    return {
        "nu1": sol.nu1.weights,
        "nu2": sol.nu2.weights,
        "u1": sol.u1,
        "u2": sol.u2,
        "m_index": 1,
        "scale_C": sol.scale_C,
        "iterations": sol.iterations,
        "final_residual": sol.final_residual,
        "converged": sol.converged,
    }


def write_plan_csv(path, sol):
    plan = plan_matrix(sol)
    # one %-template per row: "" joined by "i," gives "i,0,%.17g\ni,1,%.17g\n..."
    cells = ["", *(f"{j},%{_FLOAT_SPEC}\n" for j in range(plan.shape[1]))]
    with open(path, "w") as fh:
        fh.write("i,j,mass\n")
        for i, row in enumerate(plan):
            fh.write(f"{i},".join(cells) % tuple(row.tolist()))


def write_terminal_csv(path, ens):
    write_csv(path, [f"x_{k + 1}" for k in range(ens.dim)], ens.terminal)


def write_paths_binary(path, ens):
    """Full trajectories: one ASCII shape header line, then row-major float64."""
    if ens.paths is None:
        raise ValueError("ensemble was simulated without full path storage")
    with open(path, "wb") as fh:
        n, steps, d = ens.paths.shape
        fh.write(f"{n} {steps} {d}\n".encode())
        fh.write(np.ascontiguousarray(ens.paths, dtype=np.float64).tobytes())


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command, version, input_paths, parameters, wall_time_s):
    payload = {
        "command": command,
        "tool_version": version,
        "inputs": {str(p): sha256_of(p) for p in input_paths},
        "parameters": parameters,
        "wall_time_s": wall_time_s,
    }
    write_json(path, payload)
