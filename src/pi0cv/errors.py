"""Exception taxonomy shared across the package."""


class Pi0cvError(Exception):
    """Base class for all package errors."""


class InputError(Pi0cvError, ValueError):
    """Invalid user-supplied data."""


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


class InvalidRange(InputError):
    pass


class MismatchedResolution(Pi0cvError, ValueError):
    pass


class InvalidP(Pi0cvError, ValueError):
    pass


class TooLargeForOracle(Pi0cvError, ValueError):
    pass


class PoleAtM(Pi0cvError, ZeroDivisionError):
    pass


class InvalidLambda(InputError):
    pass


class InvalidAlpha(InputError):
    pass


class InvalidTheta(InputError):
    pass


class InvalidDelta(InputError):
    pass


class LengthMismatch(Pi0cvError, ValueError):
    pass
