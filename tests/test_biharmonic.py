import numpy as np
import pytest

from umot import BoundaryData, Grid
from umot.biharmonic import biharmonic_lifts, clamped_biharmonic_system
from umot.field_core import rel_l2_error
from umot.solvers import SparseFactor


def test_zero_data_gives_zero():
    g = Grid.unit_square(17)
    (phi,) = biharmonic_lifts([BoundaryData.zero(g)])
    assert np.abs(phi.values).max() == 0.0


def _manufactured(n):
    # phi* = (x(1-x)y(1-y))^2 is clamped-compatible: zero value and slope on dX
    g = Grid.unit_square(n)
    X, Y = g.coords()
    Xf, Yf = X * (1 - X), Y * (1 - Y)
    Xp, Yp = 1 - 2 * X, 1 - 2 * Y
    phi_star = (Xf * Yf) ** 2
    source = 24 * Yf ** 2 + 8 * (Xp ** 2 - 2 * Xf) * (Yp ** 2 - 2 * Yf) + 24 * Xf ** 2
    M, _ = clamped_biharmonic_system(g)
    iidx = g.interior_indices()
    phi = np.zeros(g.n_nodes)
    phi[iidx] = SparseFactor(M).solve(source[iidx], 1e-8)
    return rel_l2_error(phi, phi_star, g)


def test_manufactured_clamped_solution_second_order():
    e1, e2 = _manufactured(17), _manufactured(33)
    assert e2 < 0.02
    assert np.log2(e1 / e2) >= 1.8


@pytest.mark.parametrize("nx, ny", [(33, 33), (33, 21)])
def test_normal_data_map_exact_for_biquadratic(nx, ny):
    # phi* = x(1-x)y(1-y): lap^2 phi* = 8, phi* = 0 on dX and its outward
    # normal derivative is -s(1-s) along each edge (s the tangential
    # coordinate).  Central differences are exact for it, so only a wrong
    # sign or scale in G can move the solve off phi*.
    g = Grid(nx, ny, 1 / (nx - 1), 1 / (ny - 1))
    X, Y = g.coords()
    phi_star = X * (1 - X) * Y * (1 - Y)
    b = g.boundary_indices()
    on_side = (b % nx == 0) | (b % nx == nx - 1)
    normal = -np.where(on_side, Y[b] * (1 - Y[b]), X[b] * (1 - X[b]))
    M, G = clamped_biharmonic_system(g)
    iidx = g.interior_indices()
    phi = np.zeros(g.n_nodes)
    phi[iidx] = SparseFactor(M).solve(8.0 + G @ normal, 1e-10)
    assert rel_l2_error(phi, phi_star, g) <= 1e-9


def test_unit_normal_data_interior_residual():
    g = Grid.unit_square(17)
    gdata = BoundaryData(g, np.ones(g.n_boundary))
    (phi,) = biharmonic_lifts([gdata])
    assert np.abs(phi.values).max() > 0.0
    M, G = clamped_biharmonic_system(g)
    rhs = G @ gdata.values
    scale = np.abs(rhs).max()
    r = M @ phi.values[g.interior_indices()] - rhs
    assert np.abs(r).max() < 1e-9 * scale
    # away from the boundary the stencil sees no ghost terms, so the
    # homogeneous equation holds for the solved field directly
    deep = g.depth() >= 2
    iidx = g.interior_indices()
    deep_rows = deep[iidx]
    assert np.abs((M @ phi.values[iidx])[deep_rows]).max() < 1e-9 * scale


def test_anisotropic_grid_supported():
    g = Grid(17, 21, 1 / 16, 1 / 25)
    (phi,) = biharmonic_lifts([BoundaryData(g, np.ones(g.n_boundary))])
    assert np.all(np.isfinite(phi.values))
