"""Scenario pipeline: forward -> certify -> invert, with a run manifest.

Every stage works on the scenario's one base point, the ``ScenarioSetup``
that parsing built (``ScenarioConfig.setup``), whose lazily built bundle and
certificate the certify stage gates (``EllipticityReport.require``: refuse,
or warn once with ``allow_noncertified``); the invert stage runs one of three
reconstructions on it.  Artifacts are written as each stage completes, so a
failing stage preserves everything produced before it and its error names
the stage.  The forward stage writes its fields as ``<name>.npy`` and the
grid once as ``grid.json``; the nonlinear trace is CSV.  Every JSON artifact,
``scenario.json`` and the manifest included, goes through this module's
``dump_json``.  Numeric outputs are deterministic for a fixed configuration
(and seed); the manifest lists every output file with a content digest.  The
``umot`` subcommands call the same stage functions and serializers.
"""

from __future__ import annotations

import hashlib
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .constant_bg import ConstantBackground, preprocess_data, solve_constant_bg
from .ellipticity import EllipticityReport
from .errors import Diverged, PipelineStageError, UmotError
from .field_core import ScalarField, rel_l2_error
from .fileio import dump_json, field_to_dict, grid_to_dict
# imported only so that perfbench's tracer finds the names it wraps; no stage calls them
from .fileio import write_field_csv, write_field_json  # noqa: F401
from .forward import CoefficientPair
from .linearized import assemble_system, injectivity_probe, normal_residual, solve_normal_equations
from .nonlinear import ReconstructionResult, ReconstructOptions, sweep
from .phantom import add_noise
from .scenario import NoiseConfig, ScenarioConfig, ScenarioSetup, config_digest

log = logging.getLogger("umot")


@dataclass(frozen=True)
class RunManifest:
    config_digest: str
    artifact_version: str
    created: str
    outputs: tuple

    def to_dict(self) -> dict:
        return {
            "config_digest": self.config_digest,
            "artifact_version": self.artifact_version,
            "created": self.created,
            "outputs": [{"path": p, "sha256": d} for p, d in self.outputs],
        }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Recorder:
    """Writes named artifacts into one directory and lists the files written."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list[Path] = []

    def json(self, name: str, obj) -> None:
        path = self.out_dir / name
        dump_json(obj, path)
        self.files.append(path)

    def field(self, name: str, f: ScalarField) -> None:
        """Write ``f`` as ``<name>.npy``: float64, C order, shape (ny, nx)."""
        path = self.out_dir / f"{name}.npy"
        np.save(path, f.as_matrix(), allow_pickle=False)
        self.files.append(path)

    def text(self, name: str, content: str) -> None:
        path = self.out_dir / name
        path.write_text(content)
        self.files.append(path)


@contextmanager
def _stage(name: str):
    """Report a package error raised inside the block as a failure of stage ``name``."""
    try:
        yield
    except PipelineStageError:
        raise
    except UmotError as exc:
        raise PipelineStageError(name, str(exc)) from exc


def forward_stage(setup: ScenarioSetup, noise: NoiseConfig, rec: Recorder):
    """Write the grid, u_j, noisy H_j, dH_j and the truth fields; return (H_j, dH_j)."""
    grid, truth = setup.grid, setup.truth
    bundle_truth = setup.bundle.at(truth)
    solutions, H_meas = bundle_truth.solutions, list(bundle_truth.H)
    del bundle_truth  # its solver and gradients are not kept through the writes
    if noise.level > 0.0:
        H_meas = [add_noise(h, noise.level, noise.seed + j) for j, h in enumerate(H_meas)]
    dH = [
        ScalarField(grid, hm.values - hb.values)
        for hm, hb in zip(H_meas, setup.bundle.H)
    ]
    rec.json("grid.json", grid_to_dict(grid))
    for j, (_, u) in enumerate(solutions):
        rec.field(f"u_{j}", u)
        rec.field(f"H_{j}", H_meas[j])
        rec.field(f"dH_{j}", dH[j])
    rec.field("gamma_truth", truth.gamma)
    rec.field("sigma_truth", truth.sigma)
    log.info("forward stage complete (J=%d)", setup.bundle.J)
    return H_meas, dH


def report_dict(report: EllipticityReport) -> dict:
    witness = None
    if report.witness is not None:
        node, xi = report.witness
        witness = {"node": node, "xi": [float(c) for c in xi]}
    return {
        "elliptic": report.elliptic,
        "global_margin": report.global_margin,
        "threshold": report.threshold,
        "witness": witness,
        "masked_interior_fraction": report.masked_fraction,
        "masked_interior_count": report.masked_count,
    }


def _errors(dgamma, dsigma, truth: CoefficientPair, background: CoefficientPair) -> dict:
    """Relative L2 errors of the perturbations against truth minus background."""
    grid = truth.grid
    return {
        "err_dgamma_rel": rel_l2_error(
            dgamma.values, truth.gamma.values - background.gamma.values, grid
        ),
        "err_dsigma_rel": rel_l2_error(
            dsigma.values, truth.sigma.values - background.sigma.values, grid
        ),
    }


def linearized_reconstruction(setup: ScenarioSetup, dH, truth=None) -> dict:
    """Linearized solve at the base point as a dict."""
    sys = assemble_system(setup.bundle, dH)
    v = solve_normal_equations(sys)
    out = {
        "dgamma": field_to_dict(v.dgamma),
        "dsigma": field_to_dict(v.dsigma),
        "du": [field_to_dict(u) for u in v.du],
        "normal_residual": normal_residual(sys, v),
        "injectivity_probe_rel": injectivity_probe(sys, relative=True),
    }
    if truth is not None:
        out.update(_errors(v.dgamma, v.dsigma, truth, setup.background))
    return out


def constant_bg_reconstruction(
    setup: ScenarioSetup, dH, bg: ConstantBackground, truth=None
) -> dict:
    """Constant-background fourth-order solve, dividing by the bundle's u_j, as a dict."""
    if len(dH) != len(bg.dirs):
        raise ValueError("need one data field per direction")
    data = [preprocess_data(d, u, bg) for d, (_, u) in zip(dH, setup.bundle.solutions)]
    dgamma, dsigma = solve_constant_bg(bg, data)
    out = {"dgamma": field_to_dict(dgamma), "dsigma": field_to_dict(dsigma)}
    if truth is not None:
        out.update(_errors(dgamma, dsigma, truth, setup.background))
    return out


def nonlinear_reconstruction(
    setup: ScenarioSetup, H_meas, opts: ReconstructOptions, truth=None
) -> tuple[ReconstructionResult, str | None]:
    """Sweep from the base point with ``opts``: (result, None), or (best
    iterate, message) when the sweep diverges."""
    try:
        return sweep(H_meas, setup.bundle, setup.certificate, opts, truth), None
    except Diverged as exc:
        return exc.result, str(exc)


def trace_csv(result: ReconstructionResult) -> str:
    lines = ["k,residual,step,damping"]
    lines += [
        f"{r.k},{r.residual_norm!r},{r.step_norm!r},{r.damping!r}" for r in result.history
    ]
    return "\n".join(lines) + "\n"


def nonlinear_dict(result: ReconstructionResult, diverged: str | None) -> dict:
    return {
        "converged": result.converged,
        "diverged": diverged is not None,
        "iterations": result.iterations,
        "final_residual": result.final_residual,
        "error_vs_truth": list(result.error_vs_truth) if result.error_vs_truth else None,
        "gamma": field_to_dict(result.coeffs.gamma),
        "sigma": field_to_dict(result.coeffs.sigma),
    }


def run_pipeline(
    config: ScenarioConfig, out_dir, allow_noncertified: bool = False
) -> RunManifest:
    """Execute the configured experiment end to end and write all artifacts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rec = Recorder(out)
    rec.json("scenario.json", config.to_dict())
    setup = config.setup
    truth = setup.truth

    with _stage("forward"):
        H_meas, dH = forward_stage(setup, config.noise, rec)

    with _stage("certify"):
        report = setup.certificate
        rec.json("certify.json", report_dict(report))
        report.require(allow_noncertified)

    path = config.inversion.path
    with _stage("invert"):
        if path == "nonlinear":
            opts = config.inversion.options
            result, diverged = nonlinear_reconstruction(setup, H_meas, opts, truth)
            rec.text("trace.csv", trace_csv(result))
            rec.json("reconstruction.json", nonlinear_dict(result, diverged))
            if diverged is not None:
                # the best iterate is kept as an artifact; the stage still fails
                raise PipelineStageError("invert", diverged)
        elif path == "linearized":
            rec.json("reconstruction.json", linearized_reconstruction(setup, dH, truth=truth))
        else:
            bg = config.constant_background
            rec.json("reconstruction.json", constant_bg_reconstruction(setup, dH, bg, truth))
        log.info("inversion stage complete (path=%s)", path)

    # ---- manifest
    outputs = tuple(
        (str(p.relative_to(out)), _sha256(p)) for p in sorted(rec.files)
    )
    manifest = RunManifest(
        config_digest=config_digest(config),
        artifact_version=__version__,
        created=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        outputs=outputs,
    )
    dump_json(manifest.to_dict(), out / "manifest.json")
    return manifest
