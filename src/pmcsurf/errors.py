"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """A geometric precondition (tangency, feasibility, ...) is violated."""


class InfeasibleParameters(DomainError):
    """Parameters the construction cannot take: a range, a profile restriction, a domain, a step.

    Carries the restriction clause that fired, for error reporting.
    """

    def __init__(self, message, clause):
        super().__init__(message)
        self.clause = clause


class VerificationError(RuntimeError):
    """A numerical certificate exceeded its tolerance."""
