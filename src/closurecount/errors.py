"""Exception types shared across the package, and the quoting of input
in their messages."""

from __future__ import annotations


def excerpt(value, limit: int = 32) -> str:
    """repr of value (a str quoted, an int in decimal), cut down to its two
    ends once it is longer than `limit` characters, so that a message
    quoting outside input stays one short line."""
    try:
        text = repr(value)
    except ValueError:  # an int past the int/str digit limit
        from decimal import Decimal
        text = str(Decimal(value))
    if len(text) <= limit:
        return text
    end = limit // 2
    return f"{text[:end]}...{text[-end:]} ({len(text)} characters)"


class ClosureCountError(Exception):
    """Base class for all errors raised by this package."""


class CycleError(ClosureCountError):
    """The input relation contains a directed cycle (antisymmetry fails)."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        path = " -> ".join(str(x) for x in self.cycle)
        super().__init__(f"input relation contains a cycle: {excerpt(path)}")


class ParseError(ClosureCountError):
    """A poset file could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyPosetError(ClosureCountError):
    """An operation that needs at least one element got an empty poset."""


class EmptySetError(ClosureCountError):
    """An operation that needs a nonempty element set got an empty one."""


class TooLargeError(ClosureCountError):
    """Refused as too large: a leaf count past its state budget, an enumeration
    over more elements than its cap, or random sampling past its draw budget."""


class NoGreatestElementError(ClosureCountError):
    """The poset has no greatest element, so preclosure notions are undefined."""


class InvalidOperatorError(ClosureCountError):
    """A map is not a closure operator (extensivity, isotonicity or idempotence fails)."""


class NotIsolatedError(ClosureCountError):
    """The given element set is not an isolated suborder."""


class SameNodeError(ClosureCountError):
    """A separator query used the candidate node as an endpoint."""
