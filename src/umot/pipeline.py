"""Scenario pipeline: forward -> certify -> invert, with a run manifest.

Every stage works on one ``ScenarioSetup``, the scenario's base point, which
the certify stage gates (``EllipticityReport.require``: refuse, or warn once
with ``allow_noncertified``); the invert stage runs one of three
reconstructions on it.  Artifacts are written as each stage completes, so a
failing stage preserves everything produced before it and its error names
the stage.  Numeric outputs are deterministic for a fixed configuration (and
seed); the manifest lists every output file with a content digest.  The
``umot`` subcommands call the same stage functions and serializers.
"""

from __future__ import annotations

import hashlib
import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import __version__
from .constant_bg import preprocess_data, solve_constant_bg
from .ellipticity import EllipticityReport, certify_field
from .errors import Diverged, PipelineStageError, UmotError
from .field_core import BoundaryData, Grid, ScalarField, rel_l2_error
from .fileio import dump_json, field_to_dict, write_field_csv, write_field_json
from .forward import CoefficientPair, SolutionBundle, build_bundle
from .linearized import assemble_system, injectivity_probe, normal_residual, solve_normal_equations
from .nonlinear import ReconstructionResult, ReconstructOptions, sweep
from .phantom import add_noise
from .scenario import ScenarioConfig, config_digest, serialize_scenario

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
        jpath = self.out_dir / f"{name}.json"
        cpath = self.out_dir / f"{name}.csv"
        values = write_field_json(f, jpath)
        write_field_csv(f, cpath, values)
        self.files.extend([jpath, cpath])

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


@dataclass
class ScenarioSetup:
    """A scenario's base point: grid, background, traces and, made on first use,
    the background bundle (with the scenario's ``eta`` and ``grad_floor``) and
    its certificate (with the scenario's ``margin_threshold``).  Every
    reconstruction starts from these, so each is built once, and every later
    bundle is the base bundle's build at other coefficients.  ``umot
    reconstruct`` swaps in its ``--init`` coefficients as the background and
    keeps the scenario's traces.
    """

    config: ScenarioConfig
    grid: Grid
    background: CoefficientPair
    traces: list[BoundaryData]

    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "ScenarioSetup":
        e = config.experiment  # built when the scenario was parsed
        return cls(config, e.grid, e.background, e.traces)

    @cached_property
    def bundle(self) -> SolutionBundle:
        config = self.config
        return build_bundle(self.background, self.traces, config.eta, config.solver.grad_floor)

    @cached_property
    def certificate(self) -> EllipticityReport:
        report = certify_field(self.bundle, margin_threshold=self.config.certify.margin_threshold)
        log.info("certification margin %.3e elliptic=%s", report.global_margin, report.elliptic)
        return report


def forward_stage(setup: ScenarioSetup, rec: Recorder):
    """Write u_j, noisy H_j, dH_j and the truth fields; return (truth, H_j, dH_j)."""
    config, grid = setup.config, setup.grid
    truth = config.experiment.truth
    bundle_truth = setup.bundle.at(truth)
    H_meas = list(bundle_truth.H)
    if config.noise.level > 0.0:
        H_meas = [
            add_noise(h, config.noise.level, config.noise.seed + j)
            for j, h in enumerate(H_meas)
        ]
    dH = [
        ScalarField(grid, hm.values - hb.values)
        for hm, hb in zip(H_meas, setup.bundle.H)
    ]
    for j, (_, u) in enumerate(bundle_truth.solutions):
        rec.field(f"u_{j}", u)
        rec.field(f"H_{j}", H_meas[j])
        rec.field(f"dH_{j}", dH[j])
    rec.field("gamma_truth", truth.gamma)
    rec.field("sigma_truth", truth.sigma)
    log.info("forward stage complete (J=%d)", setup.bundle.J)
    return truth, H_meas, dH


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


def linearized_reconstruction(setup: ScenarioSetup, dH, g=None, truth=None) -> dict:
    """Linearized solve at the base point (optional normal data ``g``) as a dict."""
    sys = assemble_system(setup.bundle, dH)
    v = solve_normal_equations(sys, g=g)
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


def constant_bg_reconstruction(setup: ScenarioSetup, dH, truth=None) -> dict:
    """Constant-background fourth-order solve, dividing by the bundle's u_j, as a dict."""
    bg = setup.config.constant_background
    if len(dH) != len(bg.dirs):
        raise ValueError("need one data field per direction")
    data = [preprocess_data(d, u, bg) for d, (_, u) in zip(dH, setup.bundle.solutions)]
    dgamma, dsigma = solve_constant_bg(bg, data)
    out = {"dgamma": field_to_dict(dgamma), "dsigma": field_to_dict(dsigma)}
    if truth is not None:
        out.update(_errors(dgamma, dsigma, truth, setup.background))
    return out


def nonlinear_reconstruction(
    setup: ScenarioSetup, H_meas, truth=None
) -> tuple[ReconstructionResult, str | None]:
    """Sweep from the base point: (result, None), or (best iterate, message)
    when the sweep diverges."""
    inv = setup.config.inversion
    opts = ReconstructOptions(mode=inv.mode, tol=inv.tol, kmax=inv.kmax)
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
    rec.text("scenario.json", serialize_scenario(config))

    with _stage("forward"):
        setup = ScenarioSetup.from_config(config)
        truth, H_meas, dH = forward_stage(setup, rec)

    with _stage("certify"):
        report = setup.certificate
        rec.json("certify.json", report_dict(report))
        report.require(allow_noncertified)

    path = config.inversion.path
    with _stage("invert"):
        if path == "nonlinear":
            result, diverged = nonlinear_reconstruction(setup, H_meas, truth)
            rec.text("trace.csv", trace_csv(result))
            rec.json("reconstruction.json", nonlinear_dict(result, diverged))
            if diverged is not None:
                # the best iterate is kept as an artifact; the stage still fails
                raise PipelineStageError("invert", diverged)
        else:
            fn = linearized_reconstruction if path == "linearized" else constant_bg_reconstruction
            rec.json("reconstruction.json", fn(setup, dH, truth=truth))
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
