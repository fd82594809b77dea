"""Exception types shared across the package.

Every error raised on purpose derives from GausscondError so callers can
catch the library's failures without catching programming mistakes.
"""


class GausscondError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(GausscondError, ValueError):
    """Malformed input: non-finite entries, wrong shape, bad field."""


class DimError(GausscondError, ValueError):
    """Dimension mismatch between operands."""


class NotPositive(GausscondError, ValueError):
    """An operator required to be positive semidefinite is not."""


class InconsistentObservation(GausscondError):
    """An observed value lies outside the support of its distribution."""


class TooFewAccepted(GausscondError, RuntimeError):
    """Monte Carlo conditioning kept too few samples to report moments."""


class XInSubspace(GausscondError, ValueError):
    """The extension direction already lies in the subspace."""
