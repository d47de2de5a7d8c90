"""Exception types shared across the library."""


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


class SingularSystemError(RuntimeError):
    """Sparse factorization broke down or the residual contract failed."""


class IterationDivergenceError(RuntimeError):
    """An iterative solve exceeded its iteration budget."""


class NotPositiveDefiniteError(RuntimeError):
    """A matrix handed to an SPD solve is not positive definite."""


class EigenNonConvergenceError(RuntimeError):
    """LOBPCG for the inf-sup eigenvalue did not converge."""
