"""Exception types shared across the package."""


class FdnError(Exception):
    """Base class for all package-specific errors."""


class PoleEvaluationError(FdnError):
    """Transfer function requested at (or numerically on top of) a pole."""

    def __init__(self, z, message=None):
        self.z = z
        super().__init__(message or f"loop matrix is singular at z = {z}")


class UnstableError(FdnError):
    """Operation requires a stable system but some pole modulus is >= 1."""

    def __init__(self, poles, message=None):
        self.poles = poles
        worst = max(abs(p) for p in poles)
        super().__init__(message or f"system is unstable, max pole modulus {worst:.6g}")


class NotCertifiableError(FdnError):
    """Diagonal-similarity recovery failed; the system may still be allpass
    for particular delays, just not certifiable by this route."""

    def __init__(self, message, candidate=None):
        self.candidate = candidate
        super().__init__(message)


class CompletionError(FdnError):
    """Feedback matrix could not be completed to a certified allpass system."""


class InterleavingError(FdnError):
    """Node sets violate the strict interleaving required by the Cauchy factor."""

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class ConditioningError(FdnError):
    """A numerical fit or factorization exceeded its residual tolerance."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class SchemaError(FdnError):
    """System file is malformed: bad schema version or inconsistent shapes."""
