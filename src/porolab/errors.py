"""Exception types shared across the package."""


class PorolabError(Exception):
    """Base class for all porolab errors."""


class InvalidSequence(PorolabError):
    """Coefficient sequence violates its construction rules (a_1 = 0, negative
    terms, or only finitely many nonzero terms)."""


class NoConvergence(PorolabError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class DomainError(PorolabError):
    """Argument outside the mathematical domain of the operation (e.g. series
    evaluation at or beyond the radius of convergence)."""


class ConfigError(PorolabError):
    """Invalid experiment configuration or malformed input file."""


class EllipticityError(PorolabError):
    """Coefficient field violates its declared ellipticity bounds."""


class InvalidWeight(PorolabError):
    """Eigenvalue weight is negative somewhere or identically zero."""


class BoundaryViolation(PorolabError):
    """A test function does not vanish on the Dirichlet boundary."""
