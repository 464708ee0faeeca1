"""Scenario configuration: one JSON object, one fully determined experiment.

Unknown keys and missing required keys are rejected at every level, a seed
is mandatory whenever noise is requested, and the parsed configuration
serializes back to itself with all defaults made explicit.  Counts must be
integers, and the library constructors' range checks run at parse time, their
refusals as ScenarioError.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .ellipticity import DirectionSet, cgo_boundary_set, constant_bg_boundary_set
from .errors import ScenarioError
from .field_core import BoundaryData, Grid, ScalarField
from .fileio import field_from_dict, load_json
from .forward import CoefficientPair
from .phantom import BumpSpec, generate_phantom

_OPTIONAL_TOP_KEYS = {"eta", "phantom", "noise", "solver", "certify", "inversion"}


def _require_keys(
    d: dict, where: str, required: set = frozenset(), optional: set = frozenset()
) -> None:
    missing = required - set(d)
    if missing:
        raise ScenarioError(f"{where} is missing {sorted(missing)}")
    unknown = set(d) - required - optional
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)} in {where}")


def _is_direction(v) -> bool:
    """A finite, nonzero 2-component vector: the grid is 2-D, and every
    direction is normalized before use."""
    try:
        vec = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        return False
    return vec.shape == (2,) and bool(np.all(np.isfinite(vec)) and np.any(vec))


def _bump(b: dict) -> BumpSpec:
    _require_keys(b, "phantom bump", {"center", "radius", "amplitude"}, {"target"})
    return BumpSpec(
        tuple(b["center"]), float(b["radius"]), float(b["amplitude"]), b.get("target", "gamma")
    )


def _check_count(name: str, value, low: int) -> None:
    """An integer setting: a JSON integer (not a float or a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ScenarioError(f"{name} must be an integer of at least {low}, got {value!r}")


@dataclass(frozen=True)
class SolverConfig:
    forward_tol: float = 1e-10
    normal_tol: float = 1e-10
    grad_floor: float | None = None


@dataclass(frozen=True)
class CertifyConfig:
    xi_samples: int = 128
    margin_threshold: float = 1e-6

    def __post_init__(self):
        _check_count("xi_samples", self.xi_samples, 16)


@dataclass(frozen=True)
class NoiseConfig:
    level: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        if not self.level >= 0.0:
            raise ScenarioError(f"noise level must be nonnegative, got {self.level}")
        if self.seed is not None:
            _check_count("noise seed", self.seed, 0)
        elif self.level > 0.0:
            raise ScenarioError("a seed is mandatory when the noise level is positive")


@dataclass(frozen=True)
class InversionConfig:
    path: str = "linearized"
    mode: str = "frozen"
    tol: float = 1e-8
    kmax: int = 100

    def __post_init__(self):
        if self.path not in ("linearized", "constant_bg", "nonlinear"):
            raise ScenarioError(f"unknown inversion path '{self.path}'")
        if self.mode not in ("frozen", "refreshed"):
            raise ScenarioError(f"unknown reconstruction mode '{self.mode}'")
        _check_count("kmax", self.kmax, 0)


@dataclass(frozen=True)
class ScenarioConfig:
    grid: dict
    eta: float
    background: dict
    boundary_set: dict
    phantom: tuple = ()
    noise: NoiseConfig = NoiseConfig()
    solver: SolverConfig = SolverConfig()
    certify: CertifyConfig = CertifyConfig()
    inversion: InversionConfig = InversionConfig()

    def __post_init__(self):
        if self.boundary_set["type"] == "constant_bg" and self.background["type"] != "constant":
            raise ScenarioError("constant_bg boundary sets need a constant background")
        if self.inversion.path == "constant_bg" and self.boundary_set["type"] != "constant_bg":
            raise ScenarioError("inversion path 'constant_bg' needs a constant_bg boundary set")
        grid = self.make_grid()  # the library constructors' range checks, at parse time
        if self.background["type"] == "constant":
            self.make_background(grid)
        if self.boundary_set["type"] == "cgo":
            self.make_traces(grid, None)

    def make_grid(self) -> Grid:
        g = self.grid
        return Grid(
            g["nx"], g["ny"], float(g["hx"]), float(g["hy"]),
            float(g.get("x0", 0.0)), float(g.get("y0", 0.0)),
        )

    def make_background(self, grid: Grid) -> CoefficientPair:
        bg = self.background
        if bg["type"] == "constant":
            return CoefficientPair.constant(grid, bg["gamma0"], bg["sigma0"])
        gamma = field_from_dict(load_json(bg["gamma_file"]))
        sigma = field_from_dict(load_json(bg["sigma_file"]))
        if gamma.grid != grid or sigma.grid != grid:
            raise ScenarioError("background field files disagree with the grid")
        return CoefficientPair(gamma, sigma)

    def make_truth(self, grid: Grid, background: CoefficientPair) -> CoefficientPair:
        dg, ds = generate_phantom(grid, list(self.phantom))
        return CoefficientPair(
            ScalarField(grid, background.gamma.values + dg.values),
            ScalarField(grid, background.sigma.values + ds.values),
        )

    def make_directions(self) -> DirectionSet:
        bs = self.boundary_set
        if bs["type"] != "constant_bg":
            raise ScenarioError("the constant-background route needs a constant_bg boundary set")
        vecs = [np.asarray(v, dtype=float) for v in bs["dirs"]]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        return DirectionSet(2, tuple(vecs))

    def make_traces(self, grid: Grid, background: CoefficientPair) -> list[BoundaryData]:
        bs = self.boundary_set
        if bs["type"] == "cgo":
            return cgo_boundary_set(grid, bs.get("M", 4.0), bs.get("k", 1.0), background)
        if bs["type"] == "constant_bg":
            bg = self.background
            return constant_bg_boundary_set(
                grid, bg["gamma0"], bg["sigma0"], self.make_directions()
            )
        if bs["type"] == "explicit":
            out = []
            for f in bs["files"]:
                d = load_json(f)
                out.append(BoundaryData(grid, np.asarray(d["values"], dtype=float)))
            return out
        raise ScenarioError(f"unknown boundary set type '{bs['type']}'")

    def to_dict(self) -> dict:
        return {
            "grid": dict(self.grid),
            "eta": self.eta,
            "background": dict(self.background),
            "boundary_set": dict(self.boundary_set),
            "phantom": [
                {
                    "center": list(b.center),
                    "radius": b.radius,
                    "amplitude": b.amplitude,
                    "target": b.target,
                }
                for b in self.phantom
            ],
            "noise": {"level": self.noise.level, "seed": self.noise.seed},
            "solver": asdict(self.solver),
            "certify": asdict(self.certify),
            "inversion": asdict(self.inversion),
        }


def parse_scenario(data) -> ScenarioConfig:
    """Parse a scenario from a dict, JSON text, or file path."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError:
            data = load_json(data)
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    _require_keys(data, "scenario", {"grid", "background", "boundary_set"}, _OPTIONAL_TOP_KEYS)
    _require_keys(data["grid"], "grid", {"nx", "ny", "hx", "hy"}, {"x0", "y0"})

    bg = data["background"]
    if bg.get("type") == "constant":
        _require_keys(bg, "background", {"type", "gamma0", "sigma0"})
    elif bg.get("type") == "fields":
        _require_keys(bg, "background", {"type", "gamma_file", "sigma_file"})
    else:
        raise ScenarioError("background type must be 'constant' or 'fields'")

    bs = data["boundary_set"]
    if bs.get("type") == "cgo":
        _require_keys(bs, "boundary_set", {"type"}, {"M", "k"})
    elif bs.get("type") == "constant_bg":
        _require_keys(bs, "boundary_set", {"type"}, {"dirs"})
        dirs = bs.get("dirs")
        if not isinstance(dirs, (list, tuple)) or not all(map(_is_direction, dirs)):
            raise ScenarioError("boundary_set.dirs must list nonzero 2-component vectors")
    elif bs.get("type") == "explicit":
        _require_keys(bs, "boundary_set", {"type", "files"})
    else:
        raise ScenarioError("boundary set type must be cgo, constant_bg, or explicit")

    ph = data.get("phantom", [])
    if isinstance(ph, dict):
        _require_keys(ph, "phantom", {"bumps"})
        ph = ph["bumps"]
    noise_d = data.get("noise", {})
    _require_keys(noise_d, "noise", optional={"level", "seed"})
    solver_d = data.get("solver", {})
    _require_keys(solver_d, "solver", optional={"forward_tol", "normal_tol", "grad_floor"})
    certify_d = data.get("certify", {})
    _require_keys(certify_d, "certify", optional={"xi_samples", "margin_threshold"})
    inv_d = data.get("inversion", {})
    _require_keys(inv_d, "inversion", optional={"path", "mode", "tol", "kmax"})

    try:
        return ScenarioConfig(
            grid=dict(data["grid"]),
            eta=float(data.get("eta", 1.0)),
            background=dict(bg),
            boundary_set=dict(bs),
            phantom=tuple(map(_bump, ph)),
            noise=NoiseConfig(float(noise_d.get("level", 0.0)), noise_d.get("seed")),
            solver=SolverConfig(**solver_d),
            certify=CertifyConfig(**certify_d),
            inversion=InversionConfig(**inv_d),
        )
    except (TypeError, ValueError) as exc:  # refused by a library constructor
        raise ScenarioError(f"invalid scenario value: {exc}") from exc


def serialize_scenario(config: ScenarioConfig) -> str:
    return json.dumps(config.to_dict(), sort_keys=True, indent=1) + "\n"


def config_digest(config: ScenarioConfig) -> str:
    return hashlib.sha256(
        json.dumps(config.to_dict(), sort_keys=True).encode()
    ).hexdigest()
