"""Scenario configuration: one JSON object, one fully determined experiment.

Unknown keys and missing required keys are rejected at every level, and a
seed is mandatory whenever noise is requested.  Counts must be integers,
other numbers JSON numbers, not strings, booleans or nulls.  The parsed
configuration's ``to_dict`` is its canonical object, which the pipeline
writes as ``scenario.json`` and which parses back to itself, with every
default made explicit except four: the grid's ``x0``/``y0`` and a CGO set's
``M``/``k`` are written back only when the input gives them (a bare CGO set
is ``{"type": "cgo"}``); ``config_digest`` hashes it.  One function per
section checks it and builds it, and parsing builds the scenario's one base
point, a ``ScenarioSetup``: the grid, the background (reading a ``fields``
background's files), the traces (reading an ``explicit`` boundary set's
files) and the truth; on the ``constant_bg`` path it also builds the
constant background.  So the library
constructors' refusals and a missing or malformed file are a ScenarioError
before anything is written, and the pipeline and the CLI reuse what parsing
built.  The base bundle and its certificate are made on first use.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import reprlib
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
from .fileio import field_from_dict, is_number, load_json, require_floats
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


def _check_numbers(d: dict, where: str, *keys) -> None:
    """Each of ``keys`` that ``d`` holds is a number, not a string, a bool or
    null that ``float`` would convert; ranges are checked where each is used."""
    for key in keys:
        if key in d and not is_number(d[key]):
            raise ScenarioError(f"{where}.{key} must be a number, got {reprlib.repr(d[key])}")


def _is_direction(v) -> bool:
    """A finite, nonzero 2-component vector: the grid is 2-D, and every
    direction is normalized before use."""
    vector = isinstance(v, (list, tuple)) and len(v) == 2 and all(map(is_number, v))
    return vector and bool(np.all(np.isfinite(v)) and np.any(v))


def _bump(b: dict) -> BumpSpec:
    _require_keys(b, "phantom bump", {"center", "radius", "amplitude"}, {"target"})
    if not (isinstance(b["center"], (list, tuple)) and all(map(is_number, b["center"]))):
        raise ScenarioError(
            f"phantom bump center must list numbers, got {reprlib.repr(b['center'])}"
        )
    _check_numbers(b, "phantom bump", "radius", "amplitude")
    return BumpSpec(
        tuple(b["center"]), float(b["radius"]), float(b["amplitude"]), b.get("target", "gamma")
    )


def _check_count(name: str, value, low: int) -> None:
    """An integer setting: a JSON integer (not a float or a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ScenarioError(
            f"{name} must be an integer of at least {low}, got {reprlib.repr(value)}"
        )


def _check_real(name: str, value) -> None:
    """A real setting: a finite JSON number >= 0."""
    if not (is_number(value) and 0.0 <= value < np.inf):
        raise ScenarioError(f"{name} must be a finite number >= 0, got {reprlib.repr(value)}")


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
    """The inversion path, and the nonlinear sweep's ``mode``, ``tol`` and
    ``kmax`` as the ReconstructOptions that declares and checks them; the
    scenario's ``inversion`` object holds all four keys side by side."""

    path: str = "linearized"
    options: ReconstructOptions = ReconstructOptions()

    def __post_init__(self):
        if self.path not in ("linearized", "constant_bg", "nonlinear"):
            raise ScenarioError(f"unknown inversion path '{self.path}'")


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
    """A parsed scenario, as the pipeline and the CLI read it: the base point,
    the noise and inversion settings, the constant-background route and the
    canonical scenario object that ``to_dict`` returns.  ``_directions`` are
    a ``constant_bg`` boundary set's normalized directions, None for the
    other sets."""

    setup: ScenarioSetup
    noise: NoiseConfig
    inversion: InversionConfig
    _directions: DirectionSet | None
    _document: dict

    @cached_property
    def constant_background(self) -> ConstantBackground:
        """Background of the constant-background route: built at parse on the
        ``constant_bg`` path, on first use (``umot constbg``) on the others."""
        if self._directions is None:
            raise ScenarioError("the constant-background route needs a constant_bg boundary set")
        bg = self._document["background"]
        return ConstantBackground(bg["gamma0"], bg["sigma0"], self.setup.eta, self._directions)

    def to_dict(self) -> dict:
        return copy.deepcopy(self._document)


def _grid(d) -> Grid:
    _require_keys(d, "grid", {"nx", "ny", "hx", "hy"}, {"x0", "y0"})
    _check_numbers(d, "grid", "hx", "hy", "x0", "y0")
    return Grid(
        d["nx"], d["ny"], float(d["hx"]), float(d["hy"]),
        float(d.get("x0", 0.0)), float(d.get("y0", 0.0)),
    )


def _background(d, grid: Grid) -> CoefficientPair:
    kind = _object(d, "background").get("type")
    if kind == "constant":
        _require_keys(d, "background", {"type", "gamma0", "sigma0"})
        _check_numbers(d, "background", "gamma0", "sigma0")
        return CoefficientPair.constant(grid, d["gamma0"], d["sigma0"])
    if kind != "fields":
        raise ScenarioError("background type must be 'constant' or 'fields'")
    _require_keys(d, "background", {"type", "gamma_file", "sigma_file"})
    gamma, sigma = (
        _read_file(d[key], f"background {key}", field_from_dict)
        for key in ("gamma_file", "sigma_file")
    )
    if gamma.grid != grid or sigma.grid != grid:
        raise ScenarioError("background field files disagree with the grid")
    return CoefficientPair(gamma, sigma)


def _boundary_set(
    d, bg: dict, grid: Grid, background: CoefficientPair
) -> tuple[list[BoundaryData], DirectionSet | None]:
    """The traces of the ``boundary_set`` section ``d`` on the checked
    background section ``bg``, and a ``constant_bg`` set's directions."""
    kind = _object(d, "boundary_set").get("type")
    if kind == "cgo":
        _require_keys(d, "boundary_set", {"type"}, {"M", "k"})
        _check_numbers(d, "boundary_set", "M", "k")
        return cgo_boundary_set(grid, d.get("M", 4.0), d.get("k", 1.0), background), None
    if kind == "constant_bg":
        _require_keys(d, "boundary_set", {"type", "dirs"})
        if not isinstance(d["dirs"], (list, tuple)) or not all(map(_is_direction, d["dirs"])):
            raise ScenarioError(
                "boundary_set.dirs must list nonzero 2-component vectors of numbers"
            )
        if bg["type"] != "constant":
            raise ScenarioError("constant_bg boundary sets need a constant background")
        vecs = [np.asarray(v, dtype=float) for v in d["dirs"]]
        dirs = DirectionSet(2, tuple(v / np.linalg.norm(v) for v in vecs))
        return constant_bg_boundary_set(grid, bg["gamma0"], bg["sigma0"], dirs), dirs
    if kind != "explicit":
        raise ScenarioError("boundary set type must be cgo, constant_bg, or explicit")
    _require_keys(d, "boundary_set", {"type", "files"})
    if not isinstance(d["files"], (list, tuple)) or not d["files"]:
        raise ScenarioError("boundary_set.files must list at least one boundary file")

    def trace(f):
        return BoundaryData(grid, require_floats(f, "values", "boundary file"))

    return [_read_file(f, "boundary file", trace) for f in d["files"]], None


def _phantom(ph, grid: Grid, background: CoefficientPair) -> tuple[CoefficientPair, list]:
    """The truth, the background plus the ``phantom`` section's bumps, and
    the bumps written back in full."""
    if isinstance(ph, dict):
        _require_keys(ph, "phantom", {"bumps"})
        ph = ph["bumps"]
    bumps = [_bump(b) for b in ph]
    dg, ds = generate_phantom(grid, bumps)
    truth = CoefficientPair(
        ScalarField(grid, background.gamma.values + dg.values),
        ScalarField(grid, background.sigma.values + ds.values),
    )
    return truth, [asdict(b) | {"center": list(b.center)} for b in bumps]


def parse_scenario(data) -> ScenarioConfig:
    """Parse a scenario from a dict or its JSON text."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    _require_keys(data, "scenario", {"grid", "background", "boundary_set"}, _OPTIONAL_TOP_KEYS)
    _check_numbers(data, "scenario", "eta")
    eta = float(data.get("eta", DEFAULT_ETA))
    if not np.isfinite(eta):
        raise ScenarioError(f"eta must be finite, got {eta}")
    noise_d = data.get("noise", {})
    _require_keys(noise_d, "noise", optional={"level", "seed"})
    _check_numbers(noise_d, "noise", "level")
    noise = NoiseConfig(float(noise_d.get("level", 0.0)), noise_d.get("seed"))
    certify_d = data.get("certify", {})
    _require_keys(certify_d, "certify", optional={"margin_threshold"})
    threshold = certify_d.get("margin_threshold", DEFAULT_MARGIN_THRESHOLD)
    _check_real("margin_threshold", threshold)
    inv_d = data.get("inversion", {})
    _require_keys(inv_d, "inversion", optional={"path", "mode", "tol", "kmax"})

    try:
        opts = ReconstructOptions(**{k: v for k, v in inv_d.items() if k != "path"})
        inversion = InversionConfig(inv_d.get("path", InversionConfig.path), opts)
        grid = _grid(data["grid"])
        background = _background(data["background"], grid)
        traces, dirs = _boundary_set(data["boundary_set"], data["background"], grid, background)
        truth, phantom = _phantom(data.get("phantom", []), grid, background)
        config = ScenarioConfig(
            ScenarioSetup(grid, background, traces, truth, eta, threshold),
            noise,
            inversion,
            dirs,
            # a copy, so that a later change to the input moves nothing written
            copy.deepcopy({
                "grid": data["grid"],
                "eta": eta,
                "background": data["background"],
                "boundary_set": data["boundary_set"],
                "phantom": phantom,
                "noise": asdict(noise),
                "certify": {"margin_threshold": threshold},
                "inversion": {"path": inversion.path, **asdict(opts)},
            }),
        )
        if inversion.path == "constant_bg":
            config.constant_background  # built now, so that a refusal comes before any write
        return config
    except (TypeError, ValueError, BumpTouchesBoundary, DirectionsNotCertified, ZeroEta) as exc:
        # refused by a library constructor
        raise ScenarioError(f"invalid scenario value: {exc}") from exc


def config_digest(config: ScenarioConfig) -> str:
    return hashlib.sha256(
        json.dumps(config.to_dict(), sort_keys=True).encode()
    ).hexdigest()
