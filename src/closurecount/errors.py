"""Exception types shared across the package, the quoting of input in
their messages, and the decimal text of an int of any size."""

from __future__ import annotations


def excerpt(value, limit: int = 32) -> str:
    """repr of value (a str quoted, an int in decimal), cut down to its two
    ends once it is longer than `limit` characters, so that a message
    quoting outside input stays one short line."""
    return shorten(digits(value) if type(value) is int else repr(value), limit)


def digits(value: int, spec: str = "") -> str:
    """value in decimal, formatted by spec (say "," for thousands
    separators), however many digits it has. An int refuses to format
    past sys.get_int_max_str_digits(), a guard meant for parsing untrusted
    text; decimal.Decimal converts exactly past it. It is imported only
    then, since the import adds a few ms to every process."""
    try:
        return format(value, spec)
    except ValueError:
        from decimal import Decimal
        return format(Decimal(value), spec)


def shorten(text: str, limit: int) -> str:
    """text itself, or once it is longer than `limit` characters its two
    ends with its length appended."""
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
    """Refused as too large: a leaf count past its state budget, an
    enumeration over more elements than its cap, or random sampling past its
    draw budget."""


class NoGreatestElementError(ClosureCountError):
    """The poset has no greatest element, so preclosure notions are undefined."""


class InvalidOperatorError(ClosureCountError):
    """A map is not a closure operator (extensivity, isotonicity or idempotence fails)."""


class NotIsolatedError(ClosureCountError):
    """The given element set is not an isolated suborder."""


class SameNodeError(ClosureCountError):
    """A separator query used the candidate node as an endpoint."""
