"""Nonlinear reconstruction by frozen-operator fixed-point iteration.

From a base point (gamma_0, sigma_0), each sweep solves the forward problem
at the current iterate, forms the functional residual against the measured
data, solves the linearized system for a coefficient update, and projects
back onto the admissible set (gamma bounded below, sigma nonnegative).  In
frozen mode the linearized operator is assembled and factorized once at the
base point: that is the contraction map whose quadratic remainder shrinks on
a small ball.  Refreshed mode reassembles at each iterate (a Gauss-Newton
flavored extension) and certifies each iterate's bundle, warning for one that
fails.  Every bundle of a sweep is built and certified with the settings of
its base bundle and base certificate; the caller gates the base itself.

Residuals and steps are measured in a grid-weighted L2 norm augmented with
h-scaled first differences (a first-order Sobolev proxy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ellipticity import EllipticityReport, certify_field
from .errors import Diverged, GridMismatch, InsufficientHistory
from .field_core import BoundaryData, ScalarField, gradient, l2_norm, rel_l2_error
from .fileio import is_number
from .forward import CoefficientPair, SolutionBundle, build_bundle
from .linearized import assemble_system, solve_normal_equations

# first trial step length, step halvings per sweep, the lower bound the
# projection keeps gamma above, and the relative step that ends a sweep
DAMPING = 1.0
MAX_HALVINGS = 4
GAMMA_MIN = 1e-6
STEPTOL = 1e-10


def h1_proxy_norm(fields: list[ScalarField]) -> float:
    """Grid-weighted L2 plus h-scaled first differences, stacked over fields."""
    total = 0.0
    for f in fields:
        g = f.grid
        h2 = g.hx * g.hy
        total += l2_norm(f.values, g) ** 2
        grad = gradient(f).values
        total += h2 * (l2_norm(grad[:, 0], g) ** 2 + l2_norm(grad[:, 1], g) ** 2)
    return float(np.sqrt(total))


@dataclass(frozen=True)
class ReconstructOptions:
    """How a sweep iterates: ``mode`` ("frozen" or "refreshed"), the relative
    residual ``tol`` and at most ``kmax`` sweeps; a relative step of STEPTOL
    ends it too.  Builds and certifications take their settings from the base point."""

    mode: str = "frozen"
    tol: float = 1e-8
    kmax: int = 100

    def __post_init__(self):
        if self.mode not in ("frozen", "refreshed"):
            raise ValueError(f"mode must be 'frozen' or 'refreshed', got {self.mode!r}")
        if isinstance(self.kmax, bool) or not isinstance(self.kmax, int) or self.kmax < 0:
            raise ValueError(f"kmax must be an integer of at least 0, got {self.kmax!r}")
        if not (is_number(self.tol) and 0.0 <= self.tol < np.inf):
            raise ValueError(f"tol must be a finite number >= 0, got {self.tol!r}")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    residual_norm: float
    step_norm: float
    damping: float


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of a fixed-point sweep.

    Non-converged results (kmax reached, stalled step, or the partial state
    carried by a Diverged error) report the best-residual iterate seen, not
    the last one: on noisy data the iteration is semi-convergent and the
    later iterates fit noise.
    """

    coeffs: CoefficientPair
    converged: bool
    iterations: int
    final_residual: float
    history: tuple
    error_vs_truth: tuple | None = None


def _project(coeffs: CoefficientPair, dgamma, dsigma, lam) -> CoefficientPair:
    g = np.maximum(coeffs.gamma.values + lam * dgamma.values, GAMMA_MIN)
    s = np.maximum(coeffs.sigma.values + lam * dsigma.values, 0.0)
    return CoefficientPair(ScalarField(coeffs.grid, g), ScalarField(coeffs.grid, s))


def _residual_fields(bundle: SolutionBundle, H_meas) -> list[ScalarField]:
    return [ScalarField(hm.grid, hm.values - h.values) for hm, h in zip(H_meas, bundle.H)]


def reconstruct(
    H_meas: list[ScalarField],
    f: list[BoundaryData],
    coeffs0: CoefficientPair,
    eta: float = 1.0,
    opts: ReconstructOptions | None = None,
    truth: CoefficientPair | None = None,
) -> ReconstructionResult:
    """Fixed-point reconstruction of (gamma, sigma) from measured functionals.

    Builds the base bundle at ``coeffs0`` from the traces ``f`` with the
    ``build_bundle`` defaults, certifies it with the ``certify_field``
    default margin threshold, raises NotElliptic if it fails, then runs ``sweep``.
    """
    bundle0 = build_bundle(coeffs0, f, eta)
    report = certify_field(bundle0)
    report.require()
    return sweep(H_meas, bundle0, report, opts or ReconstructOptions(), truth)


def sweep(
    H_meas: list[ScalarField],
    bundle0: SolutionBundle,
    report: EllipticityReport,
    opts: ReconstructOptions,
    truth: CoefficientPair | None = None,
) -> ReconstructionResult:
    """Fixed-point sweep from a base bundle and its certificate ``report``.

    The caller has gated the base (``report.require``); the sweep reads only
    the report's ``margin_threshold``, with which refreshed mode recertifies
    each iterate, warning for one that fails.  Every trial bundle is
    ``bundle0``'s build at new coefficients (``SolutionBundle.at``).
    Terminates on relative residual <= tol, relative step <= STEPTOL, or kmax
    sweeps.  Raises GridMismatch for functionals off the base grid, and
    Diverged (carrying the partial result) after five consecutive residual
    increases.
    """
    if len(H_meas) != bundle0.J:
        raise ValueError("need one measured functional per boundary condition")
    if any(h.grid != bundle0.grid for h in H_meas):
        raise GridMismatch("measured functional on the wrong grid")
    coeffs0 = bundle0.coeffs

    scale = h1_proxy_norm(H_meas) or 1.0
    coeff_scale = h1_proxy_norm([coeffs0.gamma, coeffs0.sigma]) or 1.0

    zero = [ScalarField(coeffs0.grid, np.zeros(coeffs0.grid.n_nodes))] * bundle0.J
    sys0 = assemble_system(bundle0, zero)

    # each iterate's residual fields and norm are formed once: the start's
    # here, every later one by the line search that accepts it
    dh = _residual_fields(bundle0, H_meas)
    residual = h1_proxy_norm(dh) / scale
    history = [IterationRecord(0, residual, 0.0, DAMPING)]
    bundle_k = bundle0
    coeffs_k = coeffs0
    best = (coeffs0, residual)
    grow_streak = 0
    k = 0

    def result(converged):
        coeffs_out, res_out = (coeffs_k, residual) if converged else best
        err = None
        if truth is not None:
            err = (
                rel_l2_error(coeffs_out.gamma.values, truth.gamma.values, truth.grid),
                rel_l2_error(coeffs_out.sigma.values, truth.sigma.values, truth.grid),
            )
        return ReconstructionResult(coeffs_out, converged, k, res_out, tuple(history), err)

    while residual > opts.tol and k < opts.kmax:
        if opts.mode == "refreshed" and k > 0:
            certify_field(bundle_k, margin_threshold=report.margin_threshold).require(allow=True)
            v = solve_normal_equations(assemble_system(bundle_k, dh))
        else:
            v = solve_normal_equations(sys0, rhs=sys0.data_rhs(dh))

        lam = DAMPING
        chosen = None
        for _ in range(MAX_HALVINGS + 1):
            trial_coeffs = _project(coeffs_k, v.dgamma, v.dsigma, lam)
            trial_bundle = bundle_k.at(trial_coeffs)
            trial_dh = _residual_fields(trial_bundle, H_meas)
            trial_res = h1_proxy_norm(trial_dh) / scale
            if chosen is None or trial_res < chosen[3]:
                chosen = (trial_coeffs, trial_bundle, trial_dh, trial_res, lam)
            if trial_res < residual:
                break
            lam *= 0.5
        grew = chosen[3] > residual
        coeffs_k, bundle_k, dh, residual, lam = chosen
        if residual < best[1]:
            best = (coeffs_k, residual)

        k += 1
        step = lam * h1_proxy_norm([v.dgamma, v.dsigma]) / coeff_scale
        history.append(IterationRecord(k, residual, step, lam))

        grow_streak = grow_streak + 1 if grew else 0
        if grow_streak >= 5:
            raise Diverged(
                f"residual grew for {grow_streak} consecutive sweeps", result(False)
            )
        if step <= STEPTOL:
            break
    return result(residual <= opts.tol)


def contraction_estimate(history) -> float:
    """Largest consecutive step ratio step(k+1)/step(k) over a recorded sweep.

    Terminal zero-step records are not steps and are dropped; pairs whose
    denominator sits below 1e-8 times the largest step are skipped (ratios
    of solver noise carry no contraction information).
    """
    steps = [r.step_norm for r in history if r.step_norm > 0.0]
    if len(steps) < 3:
        raise InsufficientHistory("need at least three recorded steps")
    top = max(steps)
    ratios = [b / a for a, b in zip(steps[:-1], steps[1:]) if a > 1e-8 * top]
    if not ratios:
        raise InsufficientHistory("all steps below the noise floor")
    return float(max(ratios))


def stability_probe(
    truth_pairs: list[CoefficientPair],
    coeffs0: CoefficientPair,
    f: list[BoundaryData],
    eta: float = 1.0,
    opts: ReconstructOptions | None = None,
    noise=None,
) -> float:
    """Slope of log(reconstruction distance) against log(data distance).

    Each truth pair generates measured functionals; the reconstruction from
    those functionals is compared with the base point, mirroring the
    two-solution stability estimate with the base run as the second solution.
    Pairs with vanishing data difference are excluded.  ``noise`` optionally
    maps a functional list to its noisy version before reconstruction.  The
    base is built and certified as in ``reconstruct``, and each truth bundle
    is the base's build at the truth coefficients; an uncertified base raises
    NotElliptic.
    """
    opts = opts or ReconstructOptions()
    base_bundle = build_bundle(coeffs0, f, eta)
    report = certify_field(base_bundle)
    report.require()
    H0 = list(base_bundle.H)
    xs, ys = [], []
    for truth in truth_pairs:
        H_meas = list(base_bundle.at(truth).H)
        if noise is not None:
            H_meas = noise(H_meas)
        data_diff = h1_proxy_norm(
            [ScalarField(h.grid, h.values - h0.values) for h, h0 in zip(H_meas, H0)]
        )
        if data_diff <= 1e-14:
            continue
        try:
            coeffs = sweep(H_meas, base_bundle, report, opts).coeffs
        except Diverged as exc:
            coeffs = exc.result.coeffs
        err = h1_proxy_norm(
            [coeffs.gamma - coeffs0.gamma, coeffs.sigma - coeffs0.sigma]
        )
        if err <= 0.0:
            continue
        xs.append(np.log(data_diff))
        ys.append(np.log(err))
    if len(xs) < 2:
        raise InsufficientHistory("need at least two usable probe points")
    return float(np.polyfit(xs, ys, 1)[0])
