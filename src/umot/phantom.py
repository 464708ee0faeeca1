"""Synthetic phantoms and measurement noise.

Phantoms are sums of compactly supported radial bumps with the quartic
profile (1 - (r/R)^2)^2, which vanishes together with its slope at the
support rim and is therefore compatible with clamped reconstructions.  A
``power`` of 4 sharpens that to three continuous derivatives for consistency
studies.  Noise is multiplicative relative Gaussian, deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BumpTouchesBoundary
from .field_core import Grid, ScalarField


@dataclass(frozen=True)
class BumpSpec:
    center: tuple
    radius: float
    amplitude: float
    target: str = "gamma"

    def __post_init__(self):
        if self.target not in ("gamma", "sigma"):
            raise ValueError("bump target must be 'gamma' or 'sigma'")
        if self.radius <= 0.0:
            raise ValueError("bump radius must be positive")


def bump_field(
    grid: Grid, center, radius: float, amplitude: float, power: int = 2
) -> ScalarField:
    """Single radial bump amplitude * (1 - (r/R)^2)^power, zero outside r = R."""
    X, Y = grid.coords()
    s2 = ((X - center[0]) ** 2 + (Y - center[1]) ** 2) / radius ** 2
    vals = amplitude * np.where(s2 < 1.0, (1.0 - np.minimum(s2, 1.0)) ** power, 0.0)
    return ScalarField(grid, vals)


def _check_inside(grid: Grid, bump: BumpSpec) -> None:
    x_lo = grid.x0 + grid.hx
    x_hi = grid.x0 + (grid.nx - 1) * grid.hx - grid.hx
    y_lo = grid.y0 + grid.hy
    y_hi = grid.y0 + (grid.ny - 1) * grid.hy - grid.hy
    cx, cy = bump.center
    if (
        cx - bump.radius < x_lo
        or cx + bump.radius > x_hi
        or cy - bump.radius < y_lo
        or cy + bump.radius > y_hi
    ):
        raise BumpTouchesBoundary(
            f"bump at {bump.center} with radius {bump.radius} reaches the boundary band"
        )


def generate_phantom(grid: Grid, bumps: list[BumpSpec]) -> tuple[ScalarField, ScalarField]:
    """Perturbation fields (dgamma, dsigma) from a list of bump specs.

    Every bump support must stay at least one cell away from the boundary so
    the perturbation carries zero value and slope there.
    """
    dg = np.zeros(grid.n_nodes)
    ds = np.zeros(grid.n_nodes)
    for bump in bumps:
        _check_inside(grid, bump)
        vals = bump_field(grid, bump.center, bump.radius, bump.amplitude).values
        if bump.target == "gamma":
            dg += vals
        else:
            ds += vals
    return ScalarField(grid, dg), ScalarField(grid, ds)


def add_noise(H: ScalarField, level: float, seed: int) -> ScalarField:
    """Multiplicative relative noise H * (1 + level * zeta), zeta iid normal."""
    if level < 0.0:
        raise ValueError("noise level must be nonnegative")
    if level == 0.0:
        return H
    rng = np.random.default_rng(seed)
    zeta = rng.standard_normal(H.grid.n_nodes)
    return ScalarField(H.grid, H.values * (1.0 + level * zeta))
