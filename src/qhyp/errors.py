"""Exception hierarchy shared across the package."""


class QhypError(Exception):
    """Base class for all library errors."""


class BudgetExceededError(QhypError):
    """A truncated product or series hit ``max_terms`` before its tail criterion."""


class NonDecayingSumError(QhypError):
    """A Jackson sum or series failed to meet the tail criterion within budget."""


class NonFiniteError(QhypError):
    """A residual is NaN or infinite, as it is where a term of it is."""


class PoleError(QhypError):
    """A denominator factor vanished (division by a zero Pochhammer factor)."""


class DomainError(QhypError):
    """Evaluation requested outside the valid domain of a function."""


class DivergenceError(QhypError):
    """A series is divergent for the requested parameters/argument."""


class AnnulusError(DivergenceError):
    """A bilateral series argument lies outside its convergence annulus."""


class ZeroPolynomialError(QhypError):
    """Root extraction requested for an identically zero boundary polynomial."""


class ResonanceError(QhypError):
    """The local series recursion hit a vanishing leading factor with an
    inconsistent right-hand side."""

    def __init__(self, n: int, message: str | None = None):
        self.n = n
        super().__init__(message or f"resonance at order n={n}")


class NonRootError(QhypError):
    """The requested local exponent is not a characteristic root."""


class PreconditionError(QhypError):
    """A documented precondition of an operation was violated."""


class UnsupportedCaseError(QhypError):
    """Input falls in a case the library deliberately does not handle
    (e.g. characteristic-root gaps larger than one q-step)."""


class BalanceError(QhypError):
    """Parameter tuple violates its defining balance constraint."""


class SamplingError(RuntimeError):
    """No admissible parameters within the redraws: input, not a failed check."""
