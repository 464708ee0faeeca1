"""Field and data file formats.

Fields travel as JSON objects
{"nx", "ny", "hx", "hy", "x0", "y0", "values": [row-major floats]}
with a CSV mirror (header ``x,y,value``, one row per node, row-major) for
plotting.  JSON is written with sorted keys so identical data produces
identical bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .field_core import Grid, ScalarField


def dump_json(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())


def field_to_dict(f: ScalarField) -> dict:
    g = f.grid
    return {
        "nx": g.nx,
        "ny": g.ny,
        "hx": g.hx,
        "hy": g.hy,
        "x0": g.x0,
        "y0": g.y0,
        "values": [float(v) for v in f.values],
    }


def field_from_dict(d: dict) -> ScalarField:
    grid = Grid(
        int(d["nx"]), int(d["ny"]), float(d["hx"]), float(d["hy"]),
        float(d.get("x0", 0.0)), float(d.get("y0", 0.0)),
    )
    return ScalarField(grid, np.asarray(d["values"], dtype=float))


def write_field_json(f: ScalarField, path) -> None:
    dump_json(field_to_dict(f), path)


def read_field_json(path) -> ScalarField:
    return field_from_dict(load_json(path))


def write_field_csv(f: ScalarField, path) -> None:
    X, Y = f.grid.coords()
    lines = ["x,y,value"]
    lines.extend(
        f"{float(x)!r},{float(y)!r},{float(v)!r}" for x, y, v in zip(X, Y, f.values)
    )
    Path(path).write_text("\n".join(lines) + "\n")


def read_field_csv(path, grid: Grid) -> ScalarField:
    rows = Path(path).read_text().strip().splitlines()[1:]
    vals = np.array([float(r.split(",")[2]) for r in rows])
    return ScalarField(grid, vals)


def write_field_list_json(fields: list[ScalarField], path) -> None:
    dump_json({"fields": [field_to_dict(f) for f in fields]}, path)


def read_field_list_json(path) -> list[ScalarField]:
    return [field_from_dict(d) for d in load_json(path)["fields"]]
