"""Exception types shared across the package."""


class LeafwiseError(Exception):
    """Base class for all package errors."""


class DomainError(LeafwiseError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(LeafwiseError, ValueError):
    """An input fails a structural check (asymmetry, shape mismatch, ...)."""


class SingularImmersionError(LeafwiseError, RuntimeError):
    """The immersion is degenerate (Jacobian rank < n) at a requested point."""


class PreconditionError(LeafwiseError, RuntimeError):
    """A geometric precondition of a formula is violated (non-critical
    surface, foliation not transversally harmonic, ...)."""


class SpecError(LeafwiseError, ValueError):
    """A FunctionalSpec does not match the surface it is applied to."""
