"""Exception types shared across the package."""


class FiqError(Exception):
    """Base class for all library errors."""


class InvalidRationalError(FiqError, ValueError):
    """A rational literal such as "3/0" could not be parsed."""


class DepthBeyondKnowledgeError(FiqError, ValueError):
    """Sampling deeper than an Unspecified-tail propensity vector allows."""


class EnumerationBoundError(FiqError, ValueError):
    """An exact enumeration would exceed the configured state bound."""
