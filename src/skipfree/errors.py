"""Exception types shared across the library.

Everything derives from SkipfreeError so callers can catch library
failures with a single except clause while still being able to tell
configuration mistakes apart from numerical trouble.
"""


class SkipfreeError(Exception):
    """Base class for all library errors."""


class NonPositiveP0(SkipfreeError):
    """The probability of a zero claim must be strictly positive."""


class NotADistribution(SkipfreeError):
    """Claim probabilities are negative or do not sum to one."""


class WrongKind(SkipfreeError):
    """Operation requires a different distribution representation."""


class DomainError(SkipfreeError):
    """Argument outside the mathematical domain of the operation."""


class OutOfTable(SkipfreeError):
    """Requested index exceeds the precomputed table range."""


class NoConvergence(SkipfreeError):
    """An iterative or self-checked computation failed to stabilize."""


class Degenerate(SkipfreeError):
    """Model parameters make the requested quantity undefined (e.g. no ruin)."""


class InvalidFunctional(SkipfreeError):
    """Monte Carlo functional is incompatible with the chosen policy."""


class OverflowSignal(SkipfreeError):
    """Table entries exceeded floating-point range; retry with rescaled=True."""
