"""Exception types shared across the simulator."""


class NanogridError(Exception):
    """Base class for all simulator errors."""


class SlackOverload(NanogridError):
    """The battery (slack unit) was asked for an implausibly large power."""


class ProfileOutOfRange(NanogridError):
    """A profile was sampled outside its time span."""


class ParseError(NanogridError):
    """Malformed input text; the message starts with its line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(NanogridError):
    """Structurally valid input that violates an invariant."""
