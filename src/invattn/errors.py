"""Exception types shared across the package."""


class InvariantViolation(RuntimeError):
    """A mathematical invariant the library promises was observed broken."""


class NonFiniteError(ValueError):
    """NaN or Inf where finite values are required."""


class PpmParseError(ValueError):
    """Malformed PPM input; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset
