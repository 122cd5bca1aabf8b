"""Exception types shared across the package, and the reader of the
integer `AK_*` environment knobs whose malformed values they report."""

import os


class TrihomError(Exception):
    """Base class for all package errors."""


class MalformedPairing(TrihomError):
    """A dart appears twice, is missing, is out of range, or pairs with itself."""


class NotTrivalent(TrihomError):
    """Vertex count is not a positive even integer (3 darts per vertex impossible)."""


class NotConnected(TrihomError):
    """The multigraph is not connected (only IHX intermediates may be)."""


class LoopEdge(TrihomError):
    """IHX expansion requested across a self-loop."""


class WrongSize(TrihomError):
    """A labelled graph does not match the expected number of vertices."""


class ResourceLimit(TrihomError):
    """A configurable ceiling (class count, matrix size) was exceeded."""


class BadEnvironment(TrihomError, ValueError):
    """An `AK_*` environment variable holds a value that is not an integer,
    or a negative one."""


def env_int(name: str, default: int) -> int:
    """Integer value of environment variable `name`, or `default` when unset;
    every knob is a ceiling, so a negative value is refused."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise BadEnvironment(f"{name}={raw!r} is not an integer") from None
    if value < 0:
        raise BadEnvironment(f"{name}={raw!r} must be >= 0")
    return value


class DimensionTooSmall(TrihomError):
    """Ambient dimension below 4 is outside the construction's range."""


class NoSolution(TrihomError):
    """The target row is not a rational combination of the matrix rows."""


class UnknownClass(TrihomError):
    """A graph is in no class of a table, or an id names no class of a report."""
