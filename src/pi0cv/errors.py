"""Exception taxonomy shared across the package."""


class Pi0cvError(Exception):
    """Base class for all package errors."""


class InputError(Pi0cvError, ValueError):
    """Invalid user-supplied data."""


class UsageError(InputError):
    """A parameter or option the caller must change; ``pi0cv`` exits 2."""


class EmptyInput(InputError):
    pass


class TooFewValues(InputError):
    pass


class OutOfRange(InputError):
    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"p-value out of [0, 1] at position {index}: {value!r}")


class NonFinite(InputError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"non-finite p-value at position {index}")


class InvalidSample(InputError):
    """A ``PValueSample`` built against its contract."""


class InvalidRange(UsageError):
    pass


class MismatchedResolution(Pi0cvError, ValueError):
    pass


class InvalidP(Pi0cvError, ValueError):
    pass


class InvalidLambda(UsageError):
    pass


class InvalidAlpha(UsageError):
    pass


class InvalidTheta(UsageError):
    pass


class InvalidDelta(UsageError):
    pass


class InvalidMethod(UsageError):
    pass


class ConflictingFlags(UsageError):
    """Command-line options that exclude each other."""


class LengthMismatch(Pi0cvError, ValueError):
    pass


class DegenerateSelection(Pi0cvError):
    """No partition has a finite risk, so there is no estimate; ``pi0cv`` exits 4."""
