"""Exception types shared across the package."""


class UmotError(Exception):
    """Base class for package-specific errors."""


class GridMismatch(UmotError):
    """Operands live on different grids."""


class NonPositiveDiffusion(UmotError):
    """Diffusion coefficient is not strictly positive."""


class NotUnitVector(UmotError):
    """A direction argument is not of unit length."""


class SolverDivergence(UmotError):
    """A linear solve stalled or missed the solve layer's residual bound."""


class AllNodesDegenerate(UmotError):
    """Every node of a bundle is degenerate; no certification possible."""


class DirectionsNotCertified(UmotError):
    """The supplied direction set failed the ellipticity criterion."""


class TooFewSolutions(UmotError):
    """Not enough boundary conditions to assemble a solvable system."""


class RankDeficient(UmotError):
    """The normal operator has a numerically vanishing smallest Ritz value."""


class ZeroAbsorption(UmotError):
    """Constant-background operators require a positive absorption level."""


class NonPositiveSolution(UmotError):
    """Data preprocessing requires a strictly positive background solution."""


class ZeroEta(UmotError):
    """The modulation constant must be nonzero."""


class NotElliptic(UmotError):
    """Reconstruction refused: base-point system failed certification."""


class Diverged(UmotError):
    """Residual grew for several consecutive iterations.

    Carries the partial reconstruction state in ``result`` so that sweeps
    probing the convergence basin can still inspect the last iterate.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class InsufficientHistory(UmotError):
    """Too few recorded iterations to estimate a contraction factor."""


class BumpTouchesBoundary(UmotError):
    """A phantom bump support reaches the domain boundary."""


class ScenarioError(UmotError):
    """A scenario configuration is malformed or incomplete."""


class PipelineStageError(UmotError):
    """A pipeline stage failed; names the stage and preserves prior outputs."""

    def __init__(self, stage, message):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
