"""Print the sha256 of every artifact of eight fixed pipeline scenarios.

    python3 scripts/pipeline_digests.py --out DIR

Runs each scenario through ``umot.run_pipeline`` into ``DIR/<scenario>`` and
prints one ``<scenario>/<artifact> <sha256>`` line per output, in manifest
order.  Two source trees that print the same lines write byte-identical
artifacts, so ``diff`` of the two listings is a behaviour check for changes
that should not move any number.  The ``settings`` scenario sets
``grad_floor`` and ``margin_threshold`` away from their defaults, so its
digests also pin that those values reach each bundle build and certification
of the sweep.  The
script works inside DIR, so the field-file paths that ``scenario.json``
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
SCENARIOS = {
    "criterion9": {},
    "noise_free": NOISE_FREE,
    "constant_bg": {**NOISE_FREE, "inversion": {"path": "constant_bg"}},
    "nonlinear": {**NOISE_FREE, "inversion": {"path": "nonlinear", "kmax": 15}},
    "refreshed": {
        **NOISE_FREE, "inversion": {"path": "nonlinear", "mode": "refreshed", "kmax": 4}
    },
    "settings": {
        **NOISE_FREE,
        "solver": {"grad_floor": 1e-9},
        "certify": {"margin_threshold": 1e-5},
        "inversion": {"path": "nonlinear", "mode": "refreshed", "kmax": 4},
    },
    "cgo24": {**NOISE_FREE, **CGO, "grid": {"nx": 24, "ny": 24, "hx": 1 / 23, "hy": 1 / 23}},
    "cgo_fields20": {
        **NOISE_FREE, **CGO,
        "grid": {"nx": 20, "ny": 20, "hx": 1 / 19, "hy": 1 / 19},
        "background": {
            "type": "fields", "gamma_file": "fields/gamma.json", "sigma_file": "fields/sigma.json"
        },
    },
}


def _write_background_fields() -> None:
    """Heterogeneous background of the ``cgo_fields20`` scenario."""
    grid = umot.Grid(20, 20, 1 / 19, 1 / 19)
    Path("fields").mkdir(exist_ok=True)
    gamma = umot.ScalarField.from_function(grid, lambda x, y: 1.0 + 0.2 * np.sin(3 * x) * y)
    sigma = umot.ScalarField.from_function(grid, lambda x, y: 0.3 + 0.1 * x)
    dump_json(field_to_dict(gamma), "fields/gamma.json")
    dump_json(field_to_dict(sigma), "fields/sigma.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for the artifacts")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    _write_background_fields()
    for name, changes in SCENARIOS.items():
        config = umot.parse_scenario(json.dumps({**BASE, **changes}))
        manifest = umot.run_pipeline(config, name)
        for path, digest in manifest.outputs:
            print(f"{name}/{path} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
