"""Field and data file formats.

The pipeline writes each field as ``<name>.npy``, numpy's own binary format:
float64, C order, shape (ny, nx), so row j holds the nodes at y0 + j hy.  The
grid is written once per output directory as ``grid.json``
{"nx", "ny", "hx", "hy", "x0", "y0"}.  Fields read as input (``--dh``,
``--hmeas``, ``--init``, ``fields`` backgrounds) stay JSON objects
{"nx", "ny", "hx", "hy", "x0", "y0", "values": [row-major floats]}.  JSON is
written with sorted keys so identical data produces identical bytes, each
float as the shortest string that reads back to it (``repr``); ``dump_json``
splices long float lists in json's own layout, so no field goes through
json's pure-Python indent encoder.  A file that lacks a key it needs is
refused with a ValueError that names the key.
"""

from __future__ import annotations

import json
import re
import reprlib
from pathlib import Path

import numpy as np

from .field_core import Grid, ScalarField


_SLOT = re.compile(r'"\\u0000(\d+)"')  # how json spells the placeholder "\0<k>"


def _json_list(items: list[str], depth: int) -> str:
    """json's indent=1 layout of a non-empty list of formatted ``items``
    whose opening bracket sits at nesting ``depth``."""
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def dump_json(obj, path) -> None:
    """Write ``json.dumps(obj, sort_keys=True, indent=1) + "\n"``, byte for byte.

    json's indent encoder is pure Python, so every non-empty list or tuple of
    finite floats is swapped for a placeholder string, json lays out the
    rest, and each placeholder is replaced by the list's reprs (what json
    writes for a finite float) in json's layout.  Lists with other items or
    a non-finite value, and a skeleton in which the placeholders cannot be
    found exactly once each, go through json unchanged.
    """
    spliced = []

    def swap(o, depth):
        if isinstance(o, dict):
            return {k: swap(v, depth + 1) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            if o and all(isinstance(x, float) for x in o):
                a = np.asarray(o, dtype=float)
                if np.isfinite(a).all():
                    spliced.append(_json_list(_reprs(a), depth))
                    return f"\0{len(spliced) - 1}"
            return [swap(v, depth + 1) for v in o]
        return o

    text = json.dumps(swap(obj, 0), sort_keys=True, indent=1)
    found = [int(k) for k in _SLOT.findall(text)]
    if sorted(found) == list(range(len(spliced))):
        text = _SLOT.sub(lambda m: spliced[int(m.group(1))], text)
    else:
        text = json.dumps(obj, sort_keys=True, indent=1)
    Path(path).write_text(text + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())


def require_key(d, key: str, what: str):
    """``d[key]``, or a ValueError naming the key when ``d`` lacks it."""
    if not isinstance(d, dict) or key not in d:
        raise ValueError(f"{what} is missing the key '{key}'")
    return d[key]


def require_list(d, key: str, what: str) -> list:
    """``d[key]`` when it is a JSON list, or a ValueError naming the key."""
    value = require_key(d, key, what)
    if not isinstance(value, list):
        raise ValueError(f"{what} key '{key}' must be a list, got {type(value).__name__}")
    return value


def is_number(value) -> bool:
    """A JSON number that ``float`` converts: an int or a float, not a bool,
    which Python counts as an int, nor an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def require_floats(d, key: str, what: str) -> np.ndarray:
    """``d[key]`` as a float array, or a ValueError naming the key when ``d``
    lacks it or it holds anything but numbers: not a string, a bool or null
    that ``float`` would convert or refuse, nor a nested list or object."""
    values = require_list(d, key, what)
    for v in values:
        if not is_number(v):
            raise ValueError(f"{what} key '{key}' must hold numbers, got {reprlib.repr(v)}")
    return np.asarray(values, dtype=float)


def grid_to_dict(g: Grid) -> dict:
    return {"nx": g.nx, "ny": g.ny, "hx": g.hx, "hy": g.hy, "x0": g.x0, "y0": g.y0}


def field_to_dict(f: ScalarField) -> dict:
    return {**grid_to_dict(f.grid), "values": f.values.tolist()}


def _reprs(a) -> list[str]:
    """``repr(float(v))`` for each entry of ``a``; for finite values, also json's."""
    return list(map(float.__repr__, np.asarray(a, dtype=float).tolist()))


def field_from_dict(d: dict) -> ScalarField:
    """The field a dict of field_to_dict describes.  Grid refuses non-integer
    counts; the spacings and origin must be numbers, the values a list of them."""
    nx, ny, hx, hy = (require_key(d, k, "field") for k in ("nx", "ny", "hx", "hy"))
    values = require_floats(d, "values", "field")
    spacing = (hx, hy, d.get("x0", 0.0), d.get("y0", 0.0))
    if not all(map(is_number, spacing)):
        raise ValueError(f"field spacings and origin must be numbers, got {spacing}")
    return ScalarField(Grid(nx, ny, *map(float, spacing)), values)


# The two text writers below are no longer called by the pipeline; they stay
# importable from here and from ``umot.pipeline`` only because perfbench's
# tracer looks both names up to wrap them.  Once its artifact-write hook
# points at the ``.npy`` writes they can go.


def write_field_json(f: ScalarField, path) -> list[str]:
    """Write ``f`` as ``dump_json(field_to_dict(f), path)`` would; return the
    value strings, which ``write_field_csv`` takes for the mirror."""
    values = _reprs(f.values)
    empty = json.dumps({**grid_to_dict(f.grid), "values": []}, sort_keys=True, indent=1)
    head, tail = empty.split('"values": []')
    Path(path).write_text(head + '"values": ' + _json_list(values, 1) + tail + "\n")
    return values


def write_field_csv(f: ScalarField, path, values: list[str]) -> None:
    """Write ``f`` as CSV (header ``x,y,value``, one node per row, row-major)
    from ``values``, the strings that ``write_field_json`` returned for ``f``."""
    nx = f.grid.nx
    xs, ys = map(_reprs, f.grid.axes())
    lines = ["x,y,value"]
    for j, y in enumerate(ys):
        lines.extend(map(f",{y},".join, zip(xs, values[j * nx:(j + 1) * nx])))
    Path(path).write_text("\n".join(lines) + "\n")


def read_field_list_json(path) -> list[ScalarField]:
    return [field_from_dict(d) for d in require_list(load_json(path), "fields", "field list")]
