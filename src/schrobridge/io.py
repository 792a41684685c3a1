"""CSV / JSON ingestion and artifact emission.

Measures and densities travel as CSV with a mandatory header row and
columns x_1..x_d plus weight (or density); an optional cell_volume column
carries quadrature weights (required to interpret density files on
irregular supports, inferred from uniform spacing in one dimension).
All numeric output is formatted with 17 significant digits so re-runs are
byte-identical.

Every CSV artifact goes through one vectorized renderer, ``_csv_rows``,
whose float fields are byte-identical to ``format(v, ".17g")``. It computes
the 17 digits in float64 arithmetic and keeps them only where an error
bound certifies them; every other value (non-finite, near a rounding tie,
or with a misestimated exponent) is formatted by ``format`` itself, so the
bytes match by construction.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math

import numpy as np

from .core import DenseKernel, Density, DiscreteMeasure, Support


_FLOAT_SPEC = ".17g"  # the one float format of every artifact


def fmt(x) -> str:
    """Fixed 17-significant-digit decimal form of a float."""
    return format(float(x), _FLOAT_SPEC)


def _json_value(obj):
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(k))}: {_json_value(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim == 1 and np.isfinite(obj).all():
            return "[" + ", ".join([format(v, _FLOAT_SPEC) for v in obj.tolist()]) + "]"
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


def write_csv(path, header, blocks):
    """CSV under ``header`` of row blocks, each a list of equal-length ``_csv_rows`` columns."""
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        for columns in blocks:
            fh.writelines(_csv_rows([np.asarray(c) for c in columns]))


# ---------------------------------------------------------------------------
# Vectorized CSV rows, byte-identical to format(v, ".17g")
# ---------------------------------------------------------------------------

_TIE_MARGIN = 1e-9  # fast digits are certified when the fraction is this far from 1/2
_CHUNK_ROWS = 4096


@functools.lru_cache(maxsize=None)
def _pow10_table():
    """Rows (hi, hi's Dekker halves, lo, b), row X + 324 for each decimal exponent
    -324 <= X <= 308 of a float: hi + lo = 10^k / 2^b in [1, 2) with k = 16 - X."""
    rows = []
    for k in range(340, -293, -1):
        if k >= 0:
            num = 10 ** k
            b = num.bit_length() - 1
            den = 1 << b
        else:
            den = 10 ** -k
            b = -den.bit_length()
            num = 1 << -b
        hi = num / den  # int / int is correctly rounded
        a = int(hi * 2 ** 52)
        split = hi * 134217729.0 - (hi * 134217729.0 - hi)
        rows.append((hi, split, hi - split, (num * 2 ** 52 - a * den) / (den * 2 ** 52), b))
    return np.array(rows).T


@functools.lru_cache(maxsize=None)
def _digit_quads():
    """The ASCII digits of 0000..9999 as little-endian uint32, in full and with
    leading zeros NUL (all but the last). Filled in place in uint8: (10000, 4)
    integer temporaries would stay in the heap of every process writing a CSV."""
    full = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        full[..., k] = np.arange(48, 58, dtype=np.uint8).reshape([-1 if i == k else 1
                                                                  for i in range(4)])
    full = full.reshape(10000, 4)
    lead = full.copy()
    for k, below in enumerate((1000, 100, 10)):
        lead[:below, k] = 0
    return full.view("<u4").ravel(), lead.view("<u4").ravel()


# Columns of the per-value characters a .17g field is gathered from: the 17
# digits, the sign, the exponent's sign and three digits, ".", "0", "e", NUL.
_SIGN, _EXP, _DOT, _ZERO, _E, _NUL = 17, 18, 22, 23, 24, 25


@functools.lru_cache(maxsize=None)
def _layouts():
    """Source columns of the 24-slot field of each layout, row 17 c + nd - 1 for
    nd significant digits and class c: X + 4 for fixed notation (-4 <= X < 17),
    21 and 22 for scientific with two and three exponent digits."""
    rows = []
    for X in (*range(-4, 17), 99, 100):
        for nd in range(1, 18):
            if X < 0:
                cols = [_ZERO, _DOT, *[_ZERO] * (-X - 1), *range(nd)]
            elif X < 17:
                cols = [*range(X + 1), *([_DOT, *range(X + 1, nd)] if nd > X + 1 else [])]
            else:
                cols = [0, *([_DOT, *range(1, nd)] if nd > 1 else []), _E, _EXP,
                        *([_EXP + 1] if X == 100 else []), _EXP + 2, _EXP + 3]
            rows.append([_SIGN, *cols, *[_NUL] * (23 - len(cols))])
    return np.array(rows)


def _float_fields(x):
    """(n, 24) uint8 fields of format(v, ".17g") for the floats x, NUL where no character.

    Digits come from float arithmetic: x = M 2^(e - 53) times a double-double
    of 10^(16 - X), X = floor(log10 |x|), through Dekker's exact product. A
    value whose 17-digit integer D misses [1e16, 1e17) or whose fraction lies
    within _TIE_MARGIN of 1/2 (the error bound is about 1e-13), and every
    non-finite value, is formatted by format() itself."""
    hi, hi1, hi2, lo, b = _pow10_table()
    with np.errstate(all="ignore"):
        ax = np.abs(x)
        zero = ax == 0  # rendered as the digits of 1 with the first one set to 0
        m, e = np.frexp(ax)
        X = np.floor(np.log10(np.where(zero, 1.0, ax)))
        known = np.isfinite(X)
        X = np.where(known, X, 0).astype(np.int64)
        t = X + 324
        M = m * 2.0 ** 53
        Mh = M * 134217729.0 - (M * 134217729.0 - M)
        Ml = M - Mh
        p = M * hi[t]
        err = ((Mh * hi1[t] - p) + Mh * hi2[t] + Ml * hi1[t]) + Ml * hi2[t]
        s = b[t].astype(np.int32) + e - 53
        rest = np.ldexp(err + M * lo[t], s)
        whole = np.floor(rest)
        frac = rest - whole
        D = np.ldexp(p, s).astype(np.int64) + whole.astype(np.int64)
    D[zero] = 10 ** 16
    ok = known & (np.abs(frac - 0.5) > _TIE_MARGIN) & (D >= 10 ** 16)
    D += frac > 0.5
    ok &= D < 10 ** 17
    D[~ok] = 10 ** 16
    lead, low = np.divmod(D, 10 ** 16)
    high, low = np.divmod(low, 10 ** 8)
    quads = np.empty((len(x), 4), np.int64)
    np.divmod(high, 10000, out=(quads[:, 0], quads[:, 1]))
    np.divmod(low, 10000, out=(quads[:, 2], quads[:, 3]))
    src = np.empty((len(x), 26), np.uint8)
    src[:, 0] = 48 + lead
    src[:, 1:17] = _digit_quads()[0][quads].view(np.uint8)
    nd = 17 - np.argmax(src[:, 16::-1] != 48, axis=1)  # significant digits
    src[zero, 0] = 48
    src[:, _SIGN] = 45 * np.signbit(x)
    aX = np.abs(X)
    src[:, _EXP:_DOT] = _digit_quads()[0][aX].view(np.uint8).reshape(-1, 4)
    src[:, _EXP] = np.where(X < 0, 45, 43)
    src[:, _DOT:] = np.frombuffer(b".0e\0", np.uint8)
    notation = np.where((X >= -4) & (X < 17), X + 4, np.where(aX < 100, 21, 22))
    cols = _layouts().take(17 * notation + nd - 1, axis=0)
    cols += 26 * np.arange(len(x))[:, None]
    fields = src.ravel().take(cols)
    for r in np.flatnonzero(~ok):
        text = format(float(x[r]), _FLOAT_SPEC).encode()
        fields[r] = 0
        fields[r, :len(text)] = np.frombuffer(text, np.uint8)
    return fields


def _int_fields(v):
    """(n, 4k) uint8 decimal digits of the nonnegative integers v, NUL for leading zeros."""
    if v.min() < 0:
        raise ValueError("integer CSV columns must be nonnegative")
    full, lead = _digit_quads()
    groups = -(-len(str(v.max())) // 4)
    words = []
    for g in reversed(range(groups)):
        above = v // 10000 ** g
        quad = above % 10000
        word = lead[quad] * ((above > 0) | (g == 0))
        if g < groups - 1:  # after a nonzero higher group every digit shows
            word = np.where(above >= 10000, full[quad], word)
        words.append(word)
    return np.stack(words, axis=1).view(np.uint8)


def _csv_rows(columns):
    """CSV rows of (at least one) equal-length columns, as bytes per chunk of rows.

    Each column is rendered by its dtype: an integer column (nonnegative, else
    ValueError) in decimal, any other as float64, byte-identical to format(v, ".17g")."""
    for a in range(0, len(columns[0]), _CHUNK_ROWS):
        fields = [_int_fields(v[a:a + _CHUNK_ROWS]) if v.dtype.kind in "iu"
                  else _float_fields(v[a:a + _CHUNK_ROWS].astype(float, copy=False))
                  for v in columns]
        rows = np.empty((len(fields[0]), sum(f.shape[1] + 1 for f in fields)), np.uint8)
        end = 0
        for f in fields:
            rows[:, end:end + f.shape[1]] = f
            end += f.shape[1] + 1
            rows[:, end - 1] = 44
        rows[:, -1] = 10
        yield rows.tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# Measures and densities
# ---------------------------------------------------------------------------

def _parse_table(path, header=True):
    """(names, rows) of a CSV: names are the first non-blank line's fields; every line,
    bar a header, is a float row of that width. Errors name the file and physical line."""
    with open(path) as fh:
        lines = [(lineno, ln) for lineno, ln in enumerate(map(str.strip, fh), start=1) if ln]
    if not lines:
        raise ValueError(f"{path}: empty file")
    names = [h.strip() for h in lines[0][1].split(",")]
    rows = []
    for lineno, ln in lines[header:]:
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


@contextlib.contextmanager
def _errors_name(path):
    """Prefix every ValueError raised inside with the file's path."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _split_columns(header, data, value_name):
    d = 0
    while f"x_{d + 1}" in header:
        d += 1
    if d == 0:
        raise ValueError("no coordinate columns x_1..x_d in header")
    coords = np.stack([data[:, header.index(f"x_{k + 1}")] for k in range(d)], axis=1)
    if value_name not in header:
        raise ValueError(f"header must contain {value_name}")
    values = data[:, header.index(value_name)]
    vols = data[:, header.index("cell_volume")] if "cell_volume" in header else None
    return coords, values, vols


def _infer_volumes(coords, vols):
    if vols is not None:
        return vols
    if coords.shape[1] != 1:
        raise ValueError("cell_volume column required for dim > 1 densities")
    x = np.sort(coords[:, 0])
    if len(x) < 2:
        raise ValueError("cannot infer cell volume from one point")
    gaps = np.diff(x)
    if gaps.max() - gaps.min() > 1e-9 * max(1.0, gaps.max()):
        raise ValueError("non-uniform spacing, add a cell_volume column")
    return np.full(len(x), gaps.mean())


def _support_from(coords, vols):
    radius = float(np.linalg.norm(coords, axis=1).max())
    return Support(points=coords, cell_volumes=vols, bounding_radius=max(radius, 1e-12))


def load_measure_csv(path) -> DiscreteMeasure:
    """Normalized measure of a weight file; every error, zero mass included, names the file."""
    header, data = _parse_table(path)
    with _errors_name(path):
        coords, weights, vols = _split_columns(header, data, "weight")
        if vols is None:
            vols = np.ones(len(weights))
        mu = DiscreteMeasure(_support_from(coords, vols), weights)
        if not mu.total_mass > 0:
            raise ValueError("weights have zero total mass")
        return mu.normalized()


def load_density_csv(path) -> Density:
    """Normalized density of a density file; every error, zero mass included, names the file."""
    header, data = _parse_table(path)
    with _errors_name(path):
        coords, values, vols = _split_columns(header, data, "density")
        vols = _infer_volumes(coords, vols)
        p = Density(_support_from(coords, vols), values)
        mass = float(values @ vols)
        if not mass > 0:
            raise ValueError("density has zero total mass")
        return Density(p.support, values / mass, is_probability=True)


def load_kernel_csv(path, source: Support, target: Support) -> DenseKernel:
    _, rows = _parse_table(path, header=False)
    with _errors_name(path):
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
    """Rows i, j, mass of ``plan_matrix(sol)``, built a block of plan rows at a time."""
    n, m = sol.mu1.support.n_points, sol.mu2.support.n_points
    step = max(1, _CHUNK_ROWS // m)
    blocks = (np.arange(a, min(a + step, n)) for a in range(0, n, step))
    write_csv(path, ["i", "j", "mass"], ((rows.repeat(m), np.tile(np.arange(m), len(rows)),
                                         np.exp(sol.log_plan(rows)).ravel()) for rows in blocks))


def write_terminal_csv(path, ens):
    write_csv(path, [f"x_{k + 1}" for k in range(ens.dim)], [ens.terminal.T])


def write_paths_binary(path, ens):
    """Full trajectories: one ASCII shape header line, then row-major float64."""
    if ens.paths is None:
        raise ValueError("ensemble was simulated without full path storage")
    with open(path, "wb") as fh:
        n, steps, d = ens.paths.shape
        fh.write(f"{n} {steps} {d}\n".encode())
        fh.write(memoryview(np.ascontiguousarray(ens.paths, dtype=np.float64)))


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, command, version, input_paths, parameters, wall_time_s):
    write_json(path, {
        "command": command,
        "tool_version": version,
        "inputs": {str(p): sha256_of(p) for p in input_paths},
        "parameters": parameters,
        "wall_time_s": wall_time_s,
    })
