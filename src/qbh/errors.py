"""Exception hierarchy shared by all qbh modules, and the one work limit."""

# The work limit of every exact enumeration, each in its own unit; --budget sets it.
DEFAULT_BUDGET = 1 << 22


class QbhError(Exception):
    """Base class for every error raised by this package."""


class NotPrime(QbhError):
    """Field characteristic is not a prime number."""


class ReducibleModulus(QbhError):
    """Supplied modulus polynomial is not monic irreducible of the right degree."""


class NoEmbedding(QbhError):
    """No field embedding exists (characteristic or degree mismatch)."""


class BudgetExceeded(QbhError):
    """An exact enumeration would exceed a work or size limit: ``what``
    names it and its unit, ``requested`` and ``limit`` count in that
    unit, and ``flag`` raises the limit, None for a fixed one."""

    def __init__(self, what: str, requested: int, limit: int, flag: str | None = "--budget"):
        self.what, self.requested, self.limit, self.flag = what, requested, limit, flag
        raise_it = f"; raise it with {flag}" if flag else ""
        super().__init__(f"{what}: {requested} requested, limit {limit}{raise_it}")

    def __reduce__(self):  # pickle rebuilds it from the fields, not the message
        return type(self), (self.what, self.requested, self.limit, self.flag)


class LengthMismatch(QbhError):
    """Vector or matrix dimensions are inconsistent."""


class ZeroCode(QbhError):
    """Operation requires a nonzero linear code."""


class NotBh(QbhError):
    """Matrix fails the Butson-Hadamard orthogonality criterion."""


class LabelsNotGroup(QbhError):
    """Column labels do not enumerate a full F_p vector space."""


class DegenerateForm(QbhError):
    """Bilinear form data is degenerate (singular Gram matrix or zero scalar)."""


class DimensionMismatch(QbhError):
    """Field tower degrees do not line up."""


class NotACodeword(QbhError):
    """Vector does not belong to the expected code."""


class DegenerateD(QbhError):
    """Outer code is trivial or has an identically zero coordinate."""


class DimensionBounds(QbhError):
    """Code dimensions are outside the supported range."""
