"""Deterministic CSV emission and plain-text config files.

Every emitted file starts with '#'-prefixed metadata lines recording the
full parameter set (including the seed), so a run is reproducible from the
file alone. Floats are printed with 17 significant digits, which round-trips
float64 exactly.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np


def format_value(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


# rows formatted per chunk, which bounds the cell strings alive at once
CHUNK_ROWS = 256


def _format_column(arr: np.ndarray) -> list[str]:
    """format_value of every entry; a float column at once, as format_value prints each float."""
    if arr.dtype.kind == "f":
        return [f"{x:.17g}" for x in arr.astype(np.float64, copy=False).tolist()]
    return [format_value(x) for x in arr]


def render_csv(meta: dict, columns: list[tuple[str, np.ndarray]]) -> str:
    """Render metadata header plus named columns; all columns must align."""
    lengths = {len(arr) for _, arr in columns}
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: { {name: len(a) for name, a in columns} }")
    lines = [f"# {key} = {format_value(val)}" for key, val in meta.items()]
    names = [name for name, _ in columns]
    lines.append(f"# columns: {','.join(names)}")
    lines.append(",".join(names))
    n_rows = lengths.pop() if lengths else 0
    arrays = [np.asarray(arr) for _, arr in columns]
    for start in range(0, n_rows, CHUNK_ROWS):
        cells = [_format_column(arr[start:start + CHUNK_ROWS]) for arr in arrays]
        lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def write_csv(path: str | Path, meta: dict, columns: list[tuple[str, np.ndarray]]) -> Path:
    path = Path(path)
    path.write_text(render_csv(meta, columns), encoding="utf-8")
    return path


def read_csv(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read back a file written by write_csv: (metadata, column arrays)."""
    meta: dict[str, str] = {}
    names: list[str] | None = None
    rows: list[list[str]] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, val = body.partition("=")
                meta[key.strip()] = val.strip()
            continue
        if names is None:
            names = line.split(",")
            continue
        rows.append(line.split(","))
    if names is None:
        raise ValueError(f"{path}: no column header found")
    data = {
        name: np.array([float(row[i]) for row in rows]) for i, name in enumerate(names)
    }
    return meta, data


def load_config(path: str | Path) -> dict[str, str]:
    """Parse a key=value config file; '#' comments and blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out
