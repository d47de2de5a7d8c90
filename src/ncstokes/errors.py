"""Exception types shared across the library.

Bad input raises ``ValueError`` or a subclass (CLI exit 3), a numerical
breakdown a ``NumericalError`` subclass (exit 2), file access ``OSError`` (4).
"""


class NonConformingMeshError(ValueError):
    """An edge is shared by more than two triangles."""


class MeshParseError(ValueError):
    """Malformed mesh file; carries the offending 1-based line number."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DegenerateElementError(ValueError):
    """A triangle's area is below the degeneracy threshold."""


class InconsistentBCError(ValueError):
    """Dirichlet data does not match the boundary dof set."""


class NumericalError(RuntimeError):
    """A solve or eigensolve broke down on well-formed input.

    An iteration that misses its tolerance says by how much: ``residual`` is
    its final residual (None where the method reports none), ``tolerance`` the
    bound it missed, in the residual's own scale, and ``iterations`` the
    refinements, CG steps or operator applications it ran. A factor breakdown
    leaves all three None.
    """

    def __init__(self, message, residual=None, tolerance=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.tolerance = tolerance
        self.iterations = iterations


class SingularSystemError(NumericalError):
    """Sparse factorization broke down or the residual contract failed."""


class IterationDivergenceError(NumericalError):
    """An iterative solve exceeded its iteration budget."""


class EigenNonConvergenceError(NumericalError):
    """The inf-sup Arnoldi eigensolve did not converge or failed its residual check."""
