"""Shared exception types."""


class CapacityError(RuntimeError):
    """A certified computation would exceed its configured size/node budget."""


class CertificateError(ValueError):
    """A supplied certificate violates one of its invariants."""


class GraphParseError(ValueError):
    """Malformed graph text input; ``line`` is 1-based."""

    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line
