"""The benchmark's workloads: seeded inputs, one task each, and its gate.

A workload is built once per process from its seed (bump centres and radii,
and the heterogeneous background).  ``run()`` is the timed task and goes into
umot only through its public API, looking each function up at call time so
that the tracer's rebinding takes effect.  ``check()`` runs after the timer
stops; it computes errors with the benchmark's own numpy code, against truth
fields the benchmark planted, and returns an ``Outcome``.

Why these four: together they cover each umot layer, and each one has a
different bottleneck, so a change to one layer shows on one workload and
should leave the others unchanged.

- ``linearized-64``: the normal-matrix factorizations dominate (three per
  task, about 90% of it in ``splu``); forward and certification are small.
- ``nonlinear-64``: the same normal-solve layer used differently: factor
  once, then one more solve on that factor and forward solves in every sweep.
- ``constant-bg-128``: bypasses the linearized system; one fourth-order
  factorization plus artifact writes, through ``run_pipeline``.
- ``cgo-forward-192``: forward CG solves and certification on a
  heterogeneous background; no factorization at all.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import umot
import umot.linearized

_DIRS = ((1.0, 0.0), (0.0, 1.0), (math.sqrt(0.5), math.sqrt(0.5)))
# Nominal (centre, radius) of the planted bumps, as in the acceptance tests.
_GAMMA_BUMP = ((0.42, 0.45), 0.19)
_SIGMA_BUMP = ((0.6, 0.58), 0.18)


@dataclass(frozen=True)
class Outcome:
    """Result of a task's gate: pass or fail, the worst error, and why."""

    ok: bool
    err: float
    detail: str


def _unit_grid(n: int) -> umot.Grid:
    return umot.Grid(n, n, 1.0 / (n - 1), 1.0 / (n - 1))


def _bump(grid, center, radius, amplitude, power) -> np.ndarray:
    """amplitude * (1 - (r/R)^2)^power inside r < R, zero outside."""
    X, Y = grid.coords()
    s2 = ((X - center[0]) ** 2 + (Y - center[1]) ** 2) / radius**2
    return amplitude * np.where(s2 < 1.0, (1.0 - np.minimum(s2, 1.0)) ** power, 0.0)


def _place(rng, center, radius) -> tuple[tuple[float, float], float]:
    """Seeded bump centre and radius: the given ones, each moved a little.

    The moves are small on purpose.  How many sweeps the nonlinear iteration
    needs depends strongly on where the bumps sit (6 to 42 sweeps over bumps
    placed anywhere in the middle of the square), and the benchmark needs
    tasks whose work does not change much from seed to seed.
    """
    moved = tuple(float(c) for c in np.asarray(center) + rng.uniform(-0.05, 0.05, 2))
    return moved, float(radius + rng.uniform(-0.01, 0.01))


def _rel_l2(approx, exact) -> float:
    return float(np.linalg.norm(approx - exact) / np.linalg.norm(exact))


def _smooth_variation(grid, rng) -> np.ndarray:
    """Seeded sum of three broad Gaussians, scaled to maximum 1 on the grid."""
    X, Y = grid.coords()
    out = np.zeros(grid.n_nodes)
    for _ in range(3):
        cx, cy = rng.uniform(0.0, 1.0, size=2)
        width = rng.uniform(0.2, 0.35)
        weight = rng.uniform(0.5, 1.0)
        out += weight * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * width**2))
    return out / out.max()


def _direction_set() -> umot.DirectionSet:
    return umot.DirectionSet(2, tuple(np.asarray(v) for v in _DIRS))


class Linearized64:
    """Inverse-crime round trip on the general linearized route, 64², J = 3."""

    name = "linearized-64"

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        grid = _unit_grid(64)
        self.coeffs = umot.CoefficientPair.constant(grid, 1.0, 0.5)
        self.traces = umot.constant_bg_boundary_set(grid, 1.0, 0.5, _direction_set())
        (cg, rg), (cs, rs) = _place(rng, *_GAMMA_BUMP), _place(rng, *_SIGMA_BUMP)
        self.dgamma = _bump(grid, cg, rg, 0.03, 4)
        self.dsigma = _bump(grid, cs, rs, 0.02, 4)
        bundle = umot.build_bundle(self.coeffs, self.traces)
        self.dH, _ = umot.apply_linearized_forward(
            bundle,
            umot.ScalarField(grid, self.dgamma),
            umot.ScalarField(grid, self.dsigma),
        )

    def run(self):
        bundle = umot.build_bundle(self.coeffs, self.traces)
        report = umot.certify_field(bundle)
        system = umot.assemble_system(bundle, self.dH)
        system.certified = report.elliptic
        v = umot.solve_normal_equations(system)
        probe = umot.injectivity_probe(system, relative=True)
        umot.linearized.normal_residual(system, v)
        return v, probe

    def check(self, out) -> Outcome:
        v, probe = out
        err = max(
            _rel_l2(v.dgamma.values, self.dgamma), _rel_l2(v.dsigma.values, self.dsigma)
        )
        ok = err <= 1e-6 and probe > 1e-8
        return Outcome(ok, err, f"error {err:.3e}, probe ratio {probe:.3e}")


class Nonlinear64:
    """Frozen-mode fixed-point reconstruction, 64², 2% gamma and 1% sigma bumps."""

    name = "nonlinear-64"

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        grid = _unit_grid(64)
        self.coeffs0 = umot.CoefficientPair.constant(grid, 1.0, 0.5)
        self.traces = umot.constant_bg_boundary_set(grid, 1.0, 0.5, _direction_set())
        (cg, rg), (cs, rs) = _place(rng, *_GAMMA_BUMP), _place(rng, *_SIGMA_BUMP)
        self.gamma = 1.0 + _bump(grid, cg, rg, 0.02, 2)
        self.sigma = 0.5 + _bump(grid, cs, rs, 0.005, 2)
        self.truth = umot.CoefficientPair(
            umot.ScalarField(grid, self.gamma), umot.ScalarField(grid, self.sigma)
        )
        self.H = list(umot.build_bundle(self.truth, self.traces).H)

    def run(self):
        return umot.reconstruct(self.H, self.traces, self.coeffs0, truth=self.truth)

    def check(self, result) -> Outcome:
        err = max(
            _rel_l2(result.coeffs.gamma.values, self.gamma),
            _rel_l2(result.coeffs.sigma.values, self.sigma),
        )
        ok = result.converged and err <= 1e-3
        return Outcome(
            ok, err, f"converged {result.converged} after {result.iterations} sweeps, "
            f"error {err:.3e}",
        )


class ConstantBg128:
    """Constant-background route through run_pipeline at 128²."""

    name = "constant-bg-128"

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        n = 128
        h = 1.0 / (n - 1)
        (cg, rg), (cs, rs) = _place(rng, *_GAMMA_BUMP), _place(rng, *_SIGMA_BUMP)
        bumps = [
            {"center": list(cg), "radius": rg, "amplitude": 0.02, "target": "gamma"},
            {"center": list(cs), "radius": rs, "amplitude": 0.01, "target": "sigma"},
        ]
        self.scenario = {
            "grid": {"nx": n, "ny": n, "hx": h, "hy": h},
            "eta": 1.0,
            "background": {"type": "constant", "gamma0": 1.0, "sigma0": 0.5},
            "boundary_set": {"type": "constant_bg", "dirs": [list(v) for v in _DIRS]},
            "phantom": {"bumps": bumps},
            "noise": {"level": 0.0, "seed": seed},
            "inversion": {"path": "constant_bg"},
        }
        grid = _unit_grid(n)
        self.dgamma = _bump(grid, cg, rg, 0.02, 2)
        self.dsigma = _bump(grid, cs, rs, 0.01, 2)
        self.work_dir = work_dir
        self.first_outputs = None

    def run(self):
        out = Path(tempfile.mkdtemp(prefix="pipeline-", dir=self.work_dir))
        config = umot.parse_scenario(self.scenario)
        return out, umot.run_pipeline(config, out)

    def check(self, out) -> Outcome:
        out_dir, manifest = out
        try:
            return self._check(out_dir, manifest)
        finally:
            shutil.rmtree(out_dir)

    def _check(self, out_dir: Path, manifest) -> Outcome:
        written = {
            str(p.relative_to(out_dir))
            for p in out_dir.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        listed = dict(manifest.outputs)
        if set(listed) != written:
            return Outcome(False, math.inf, f"manifest lists {sorted(listed)}, "
                           f"directory holds {sorted(written)}")
        for path, digest in listed.items():
            if hashlib.sha256((out_dir / path).read_bytes()).hexdigest() != digest:
                return Outcome(False, math.inf, f"digest of {path} does not match")
        if self.first_outputs is None:
            self.first_outputs = manifest.outputs
        elif manifest.outputs != self.first_outputs:
            return Outcome(False, math.inf, "output digests differ from the first task")
        rec = json.loads((out_dir / "reconstruction.json").read_text())
        err = max(
            _rel_l2(np.asarray(rec["dgamma"]["values"]), self.dgamma),
            _rel_l2(np.asarray(rec["dsigma"]["values"]), self.dsigma),
        )
        return Outcome(err <= 0.05, err, f"{len(listed)} artifacts, error {err:.3e}")


class CgoForward192:
    """CGO illumination check on a heterogeneous background at 192², J = 5."""

    name = "cgo-forward-192"

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        grid = _unit_grid(192)
        gamma = 1.0 + 0.2 * _smooth_variation(grid, rng)
        sigma = 0.5 + 0.1 * _smooth_variation(grid, rng)
        self.background = umot.CoefficientPair(
            umot.ScalarField(grid, gamma), umot.ScalarField(grid, sigma)
        )
        center, radius = _place(rng, *_GAMMA_BUMP)
        self.truth = umot.CoefficientPair(
            umot.ScalarField(grid, gamma + _bump(grid, center, radius, 0.02, 2)),
            umot.ScalarField(grid, sigma),
        )
        self.traces = umot.cgo_boundary_set(grid, 4.0, 1.0, self.background)

    def run(self):
        bundle_bg = umot.build_bundle(self.background, self.traces)
        bundle_truth = umot.build_bundle(self.truth, self.traces)
        report = umot.certify_field(bundle_bg, n_xi=128)
        return bundle_bg, bundle_truth, report

    def check(self, out) -> Outcome:
        bundle_bg, bundle_truth, report = out
        err = max(
            bundle.solver.residual(u, f)
            for bundle in (bundle_bg, bundle_truth)
            for f, u in bundle.solutions
        )
        ok = report.elliptic and err <= 1e-9
        return Outcome(
            ok, err, f"elliptic {report.elliptic} (margin {report.global_margin:.3e}), "
            f"worst forward residual {err:.3e}",
        )


WORKLOADS = {w.name: w for w in (Linearized64, Nonlinear64, ConstantBg128, CgoForward192)}
