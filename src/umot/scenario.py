"""Scenario configuration: one JSON object, one fully determined experiment.

Unknown keys and missing required keys are rejected at every level, a seed
is mandatory whenever noise is requested, and the parsed configuration
serializes back to itself with all defaults made explicit.  Counts must be
integers, other numbers JSON numbers, not strings, booleans or nulls.
Parsing builds the scenario's one base point, a ``ScenarioSetup``:
the grid, the background (reading a ``fields`` background's files), the
traces (reading an ``explicit`` boundary set's files) and the truth; on the
``constant_bg`` path it also builds the constant background.  So the library
constructors' refusals and a missing or malformed file are a ScenarioError
before anything is written, and the pipeline and the CLI reuse what parsing
built.  The base bundle and its certificate are made on first use.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .constant_bg import ConstantBackground
from .ellipticity import (
    DEFAULT_MARGIN_THRESHOLD,
    DirectionSet,
    EllipticityReport,
    certify_field,
    cgo_boundary_set,
    constant_bg_boundary_set,
)
from .errors import BumpTouchesBoundary, DirectionsNotCertified, ScenarioError, ZeroEta
from .field_core import BoundaryData, Grid, ScalarField
from .fileio import field_from_dict, load_json, require_key
from .forward import DEFAULT_ETA, CoefficientPair, SolutionBundle, build_bundle
from .nonlinear import ReconstructOptions
from .phantom import BumpSpec, generate_phantom

log = logging.getLogger("umot")

_OPTIONAL_TOP_KEYS = {"eta", "phantom", "noise", "certify", "inversion"}


def _object(d, where: str) -> dict:
    """``d``, or a ScenarioError when the section is not a JSON object."""
    if not isinstance(d, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    return d


def _require_keys(
    d: dict, where: str, required: set = frozenset(), optional: set = frozenset()
) -> None:
    missing = required - set(_object(d, where))
    if missing:
        raise ScenarioError(f"missing {', '.join(f'{where}.{k}' for k in sorted(missing))}")
    unknown = set(d) - required - optional
    if unknown:
        raise ScenarioError(f"unknown keys {sorted(unknown)} in {where}")


def _read_file(path, what: str, convert):
    """``convert`` of the JSON in ``path``, or a ScenarioError naming the file."""
    try:
        return convert(load_json(path))
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise ScenarioError(f"cannot read {what} '{path}': {reason}") from exc


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool, which Python counts as an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_numbers(d: dict, where: str, *keys) -> None:
    """Each of ``keys`` that ``d`` holds is a number, not a string, a bool or
    null that ``float`` would convert; ranges are checked where each is used."""
    for key in keys:
        if key in d and not _is_number(d[key]):
            raise ScenarioError(f"{where}.{key} must be a number, got {d[key]!r}")


def _is_direction(v) -> bool:
    """A finite, nonzero 2-component vector: the grid is 2-D, and every
    direction is normalized before use."""
    vector = isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v))
    return vector and bool(np.all(np.isfinite(v)) and np.any(v))


def _bump(b: dict) -> BumpSpec:
    _require_keys(b, "phantom bump", {"center", "radius", "amplitude"}, {"target"})
    if not (isinstance(b["center"], (list, tuple)) and all(map(_is_number, b["center"]))):
        raise ScenarioError(f"phantom bump center must list numbers, got {b['center']!r}")
    _check_numbers(b, "phantom bump", "radius", "amplitude")
    return BumpSpec(
        tuple(b["center"]), float(b["radius"]), float(b["amplitude"]), b.get("target", "gamma")
    )


def _check_count(name: str, value, low: int) -> None:
    """An integer setting: a JSON integer (not a float or a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ScenarioError(f"{name} must be an integer of at least {low}, got {value!r}")


def _check_real(name: str, value) -> None:
    """A real setting: a finite JSON number >= 0."""
    if not (_is_number(value) and 0.0 <= value < np.inf):
        raise ScenarioError(f"{name} must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class CertifyConfig:
    margin_threshold: float = DEFAULT_MARGIN_THRESHOLD

    def __post_init__(self):
        _check_real("margin_threshold", self.margin_threshold)


@dataclass(frozen=True)
class NoiseConfig:
    level: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        _check_real("noise level", self.level)
        if self.seed is not None:
            _check_count("noise seed", self.seed, 0)
        elif self.level > 0.0:
            raise ScenarioError("a seed is mandatory when the noise level is positive")


@dataclass(frozen=True)
class InversionConfig:
    path: str = "linearized"
    mode: str = ReconstructOptions.mode
    tol: float = ReconstructOptions.tol
    kmax: int = ReconstructOptions.kmax

    def __post_init__(self):
        if self.path not in ("linearized", "constant_bg", "nonlinear"):
            raise ScenarioError(f"unknown inversion path '{self.path}'")
        if self.mode not in ("frozen", "refreshed"):
            raise ScenarioError(f"unknown reconstruction mode '{self.mode}'")
        _check_count("kmax", self.kmax, 0)
        _check_real("inversion tol", self.tol)


@dataclass(frozen=True)
class ScenarioSetup:
    """A scenario's base point, as parsing builds it: grid, background, traces
    (at that background), truth (the background plus the phantom) and the
    scenario's ``eta`` and ``margin_threshold``; and, made on first use, the
    background bundle and its certificate.  Every reconstruction starts from
    these, so each is built once, and every later bundle is the base bundle's
    build at other coefficients.  ``umot reconstruct`` swaps in its ``--init``
    coefficients as the background with ``dataclasses.replace`` and keeps the
    scenario's traces.  The setup holds no reference to its ScenarioConfig,
    which holds the setup: a cycle between the two would keep each run's
    bundle alive until a full garbage collection.
    """

    grid: Grid
    background: CoefficientPair
    traces: list[BoundaryData]
    truth: CoefficientPair
    eta: float
    margin_threshold: float

    @cached_property
    def bundle(self) -> SolutionBundle:
        return build_bundle(self.background, self.traces, self.eta)

    @cached_property
    def certificate(self) -> EllipticityReport:
        report = certify_field(self.bundle, margin_threshold=self.margin_threshold)
        log.info("certification margin %.3e elliptic=%s", report.global_margin, report.elliptic)
        return report


@dataclass(frozen=True)
class ScenarioConfig:
    grid: dict
    eta: float
    background: dict
    boundary_set: dict
    phantom: tuple = ()
    noise: NoiseConfig = NoiseConfig()
    certify: CertifyConfig = CertifyConfig()
    inversion: InversionConfig = InversionConfig()

    def __post_init__(self):
        if not np.isfinite(self.eta):
            raise ScenarioError(f"eta must be finite, got {self.eta}")
        if self.boundary_set["type"] == "constant_bg" and self.background["type"] != "constant":
            raise ScenarioError("constant_bg boundary sets need a constant background")
        if self.inversion.path == "constant_bg" and self.boundary_set["type"] != "constant_bg":
            raise ScenarioError("inversion path 'constant_bg' needs a constant_bg boundary set")
        # built now, so that a refusal comes before anything is written
        self.setup
        if self.inversion.path == "constant_bg":
            self.constant_background

    @cached_property
    def setup(self) -> ScenarioSetup:
        """The scenario's one base point; its bundle is not built here."""
        grid = self.make_grid()
        bg = self.make_background(grid)
        return ScenarioSetup(
            grid, bg, self.make_traces(grid, bg), self.make_truth(grid, bg),
            self.eta, self.certify.margin_threshold,
        )

    @cached_property
    def constant_background(self) -> ConstantBackground:
        """Background of the constant-background route: built at parse on the
        ``constant_bg`` path, on first use (``umot constbg``) on the others."""
        bg = self.background
        return ConstantBackground(bg["gamma0"], bg["sigma0"], self.eta, self.make_directions())

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
        gamma, sigma = (
            _read_file(bg[key], f"background {key}", field_from_dict)
            for key in ("gamma_file", "sigma_file")
        )
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
            def trace(d):
                values = require_key(d, "values", "boundary file")
                return BoundaryData(grid, np.asarray(values, dtype=float))

            return [_read_file(f, "boundary file", trace) for f in bs["files"]]
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
            "certify": asdict(self.certify),
            "inversion": asdict(self.inversion),
        }


def parse_scenario(data) -> ScenarioConfig:
    """Parse a scenario from a dict or its JSON text."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    _require_keys(data, "scenario", {"grid", "background", "boundary_set"}, _OPTIONAL_TOP_KEYS)
    _require_keys(data["grid"], "grid", {"nx", "ny", "hx", "hy"}, {"x0", "y0"})
    _check_numbers(data["grid"], "grid", "hx", "hy", "x0", "y0")
    _check_numbers(data, "scenario", "eta")

    bg = _object(data["background"], "background")
    if bg.get("type") == "constant":
        _require_keys(bg, "background", {"type", "gamma0", "sigma0"})
        _check_numbers(bg, "background", "gamma0", "sigma0")
    elif bg.get("type") == "fields":
        _require_keys(bg, "background", {"type", "gamma_file", "sigma_file"})
    else:
        raise ScenarioError("background type must be 'constant' or 'fields'")

    bs = _object(data["boundary_set"], "boundary_set")
    if bs.get("type") == "cgo":
        _require_keys(bs, "boundary_set", {"type"}, {"M", "k"})
        _check_numbers(bs, "boundary_set", "M", "k")
    elif bs.get("type") == "constant_bg":
        _require_keys(bs, "boundary_set", {"type", "dirs"})
        dirs = bs["dirs"]
        if not isinstance(dirs, (list, tuple)) or not all(map(_is_direction, dirs)):
            raise ScenarioError(
                "boundary_set.dirs must list nonzero 2-component vectors of numbers"
            )
    elif bs.get("type") == "explicit":
        _require_keys(bs, "boundary_set", {"type", "files"})
        if not isinstance(bs["files"], (list, tuple)) or not bs["files"]:
            raise ScenarioError("boundary_set.files must list at least one boundary file")
    else:
        raise ScenarioError("boundary set type must be cgo, constant_bg, or explicit")

    ph = data.get("phantom", [])
    if isinstance(ph, dict):
        _require_keys(ph, "phantom", {"bumps"})
        ph = ph["bumps"]
    noise_d = data.get("noise", {})
    _require_keys(noise_d, "noise", optional={"level", "seed"})
    _check_numbers(noise_d, "noise", "level")
    certify_d = data.get("certify", {})
    _require_keys(certify_d, "certify", optional={"margin_threshold"})
    inv_d = data.get("inversion", {})
    _require_keys(inv_d, "inversion", optional={"path", "mode", "tol", "kmax"})

    try:
        return ScenarioConfig(
            grid=dict(data["grid"]),
            eta=float(data.get("eta", DEFAULT_ETA)),
            background=dict(bg),
            boundary_set=dict(bs),
            phantom=tuple(map(_bump, ph)),
            noise=NoiseConfig(float(noise_d.get("level", 0.0)), noise_d.get("seed")),
            certify=CertifyConfig(**certify_d),
            inversion=InversionConfig(**inv_d),
        )
    except (TypeError, ValueError, BumpTouchesBoundary, DirectionsNotCertified, ZeroEta) as exc:
        # refused by a library constructor
        raise ScenarioError(f"invalid scenario value: {exc}") from exc


def serialize_scenario(config: ScenarioConfig) -> str:
    return json.dumps(config.to_dict(), sort_keys=True, indent=1) + "\n"


def config_digest(config: ScenarioConfig) -> str:
    return hashlib.sha256(
        json.dumps(config.to_dict(), sort_keys=True).encode()
    ).hexdigest()
