import numpy as np
import pytest

from umot import (
    CoefficientPair,
    DirectionSet,
    Grid,
    build_bundle,
    constant_bg_boundary_set,
)

SQ2 = np.sqrt(2.0) / 2.0


@pytest.fixture(scope="session")
def dirs3() -> DirectionSet:
    return DirectionSet(
        2, (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([SQ2, SQ2]))
    )


@pytest.fixture(scope="session")
def dirs2() -> DirectionSet:
    return DirectionSet(2, (np.array([1.0, 0.0]), np.array([0.0, 1.0])))


@pytest.fixture(scope="session")
def bundle24(dirs3):
    """Certified constant-background bundle on a 24x24 unit square."""
    g = Grid(24, 24, 1 / 23, 1 / 23)
    coeffs = CoefficientPair.constant(g, 1.0, 0.5)
    traces = constant_bg_boundary_set(g, 1.0, 0.5, dirs3)
    return build_bundle(coeffs, traces)


@pytest.fixture(scope="session")
def bundle32(dirs3):
    g = Grid(32, 32, 1 / 31, 1 / 31)
    coeffs = CoefficientPair.constant(g, 1.0, 0.5)
    traces = constant_bg_boundary_set(g, 1.0, 0.5, dirs3)
    return build_bundle(coeffs, traces)


@pytest.fixture
def cg_steps(monkeypatch) -> list[int]:
    """Steps of every ``spla.cg`` call made while the test runs, one entry per call."""
    import scipy.sparse.linalg as spla

    steps = []
    cg = spla.cg

    def counting_cg(*args, **kwargs):
        steps.append(0)

        def count(xk):
            steps[-1] += 1

        return cg(*args, callback=count, **kwargs)

    monkeypatch.setattr(spla, "cg", counting_cg)
    return steps
