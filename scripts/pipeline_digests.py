"""Print the sha256 of every artifact of fourteen fixed pipeline scenarios.

    python3 scripts/pipeline_digests.py --out DIR

Runs each scenario through ``umot.run_pipeline`` into ``DIR/<scenario>`` and
prints one ``<scenario>/<artifact> <sha256>`` line per output, in manifest
order.  Two source trees that print the same lines write byte-identical
artifacts, so ``diff`` of the two listings is a behaviour check for changes
that should not move any number.  The ``settings`` scenario sets
``margin_threshold`` away from its default, so its digests also pin that the
value reaches each certification of the refreshed sweep.  The ``explicit``
scenario reads its three traces from files.  The ``cgo_fields48`` scenario
reads a heterogeneous 48x48 background from files, so its forward solves run
on a multigrid hierarchy of two coarse levels below A_II, and its digests pin
the coarse operators to round-off.
The three ``uncertified_*`` scenarios set ``margin_threshold`` above the
margin and run with ``allow_noncertified``, one per inversion path, so they
pin that an allowed failure changes no number (it warns on stderr).
The ``defaults`` scenario is written out in full, not derived from BASE: it
leaves out every optional key (``eta``, ``noise``, ``certify``,
``inversion``, a bump's ``target``, the CGO ``M`` and ``k``), gives the
phantom as a bare list and moves the grid's origin, so its digests pin each
default and the serialization of what the input left out.
The script works inside DIR, so the file paths that ``scenario.json``
records are the same on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import umot  # noqa: E402
from umot.fileio import dump_json, field_to_dict  # noqa: E402

SQ2 = 0.5 ** 0.5
BASE = {
    "grid": {"nx": 18, "ny": 18, "hx": 1 / 17, "hy": 1 / 17},
    "eta": 1.0,
    "background": {"type": "constant", "gamma0": 1.0, "sigma0": 0.5},
    "boundary_set": {"type": "constant_bg", "dirs": [[1, 0], [0, 1], [SQ2, SQ2]]},
    "phantom": {"bumps": [
        {"center": [0.4, 0.45], "radius": 0.2, "amplitude": 0.02, "target": "gamma"},
    ]},
    "noise": {"level": 0.002, "seed": 77},
    "inversion": {"path": "linearized"},
}
NOISE_FREE = {"noise": {"level": 0.0, "seed": 77}}
CGO = {
    "background": {"type": "constant", "gamma0": 1.0, "sigma0": 0.2},
    "boundary_set": {"type": "cgo", "M": 4.0, "k": 1.0},
}
# the n-by-n heterogeneous backgrounds that _write_background_fields writes
FIELDS = {20: "fields", 48: "fields48"}


def _cgo_fields(n: int, directory: str) -> dict:
    """CGO traces on the n-by-n heterogeneous background read from ``directory``."""
    return {
        **NOISE_FREE, **CGO,
        "grid": {"nx": n, "ny": n, "hx": 1 / (n - 1), "hy": 1 / (n - 1)},
        "background": {
            "type": "fields",
            "gamma_file": f"{directory}/gamma.json",
            "sigma_file": f"{directory}/sigma.json",
        },
    }


VARIANTS = {
    "criterion9": {},
    "noise_free": NOISE_FREE,
    "constant_bg": {**NOISE_FREE, "inversion": {"path": "constant_bg"}},
    "nonlinear": {**NOISE_FREE, "inversion": {"path": "nonlinear", "kmax": 15}},
    "refreshed": {
        **NOISE_FREE, "inversion": {"path": "nonlinear", "mode": "refreshed", "kmax": 4}
    },
    "settings": {
        **NOISE_FREE,
        "certify": {"margin_threshold": 1e-5},
        "inversion": {"path": "nonlinear", "mode": "refreshed", "kmax": 4},
    },
    "cgo24": {**NOISE_FREE, **CGO, "grid": {"nx": 24, "ny": 24, "hx": 1 / 23, "hy": 1 / 23}},
    "cgo_fields20": _cgo_fields(20, FIELDS[20]),
    "cgo_fields48": _cgo_fields(48, FIELDS[48]),
    "explicit": {
        **NOISE_FREE,
        "boundary_set": {"type": "explicit", "files": [f"traces/f{j}.json" for j in range(3)]},
    },
}
UNCERTIFIED = {
    "uncertified_linearized": {"path": "linearized"},
    "uncertified_nonlinear": {"path": "nonlinear", "kmax": 4},
    "uncertified_constant_bg": {"path": "constant_bg"},
}
VARIANTS.update(
    (name, {**NOISE_FREE, "certify": {"margin_threshold": 10.0}, "inversion": inversion})
    for name, inversion in UNCERTIFIED.items()
)
SCENARIOS = {name: {**BASE, **changes} for name, changes in VARIANTS.items()}
SCENARIOS["defaults"] = {
    "grid": {"nx": 24, "ny": 24, "hx": 1 / 23, "hy": 1 / 23, "x0": -0.5, "y0": 0.25},
    "background": {"type": "constant", "gamma0": 1.0, "sigma0": 0.2},
    "boundary_set": {"type": "cgo"},
    "phantom": [{"center": [-0.1, 0.7], "radius": 0.2, "amplitude": 0.02}],
}


def _write_background_fields() -> None:
    """Heterogeneous backgrounds of the ``cgo_fields<n>`` scenarios, one per FIELDS entry."""
    for n, directory in FIELDS.items():
        grid = umot.Grid(n, n, 1 / (n - 1), 1 / (n - 1))
        Path(directory).mkdir(exist_ok=True)
        gamma = umot.ScalarField.from_function(grid, lambda x, y: 1.0 + 0.2 * np.sin(3 * x) * y)
        sigma = umot.ScalarField.from_function(grid, lambda x, y: 0.3 + 0.1 * x)
        dump_json(field_to_dict(gamma), f"{directory}/gamma.json")
        dump_json(field_to_dict(sigma), f"{directory}/sigma.json")


def _write_boundary_traces() -> None:
    """Traces exp(x.v) of the ``explicit`` scenario, one file per direction v."""
    grid = umot.Grid(18, 18, 1 / 17, 1 / 17)
    Path("traces").mkdir(exist_ok=True)
    X, Y = grid.coords()
    b = grid.boundary_indices()
    for j, (vx, vy) in enumerate([(1.0, 0.0), (0.0, 1.0), (SQ2, SQ2)]):
        dump_json({"values": np.exp(vx * X[b] + vy * Y[b]).tolist()}, f"traces/f{j}.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for the artifacts")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    _write_background_fields()
    _write_boundary_traces()
    for name, scenario in SCENARIOS.items():
        config = umot.parse_scenario(json.dumps(scenario))
        manifest = umot.run_pipeline(config, name, allow_noncertified=name in UNCERTIFIED)
        for path, digest in manifest.outputs:
            print(f"{name}/{path} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
