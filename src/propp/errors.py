"""Exception types shared across the package."""

import math


class PropPError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PropPError, ValueError):
    """An argument lies outside an operation's documented domain."""


class ResourceError(PropPError, RuntimeError):
    """A request exceeds a configured resource budget."""


class SequenceFormatError(PropPError, ValueError):
    """A sequence file or in-memory sequence violates the input contract."""


def require_int(name: str, v, minimum: int = 1) -> int:
    """Return `v` if it is an int (not a bool) >= `minimum`, else raise."""
    if isinstance(v, bool) or not isinstance(v, int) or v < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {v!r}")
    return v


def checked_log(x) -> float:
    """math.log(x), with DomainError for x <= 0 or x out of float range."""
    try:
        return math.log(x)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"cannot take log of x = {x!r}") from exc


# Half of the 8 GB desk machine the project targets.
MEMORY_BUDGET = 4 << 30


def require_fits(what: str, count: int, element_bytes: int) -> None:
    """Refuse, before building, `count` elements of ~`element_bytes` each."""
    if count * element_bytes > MEMORY_BUDGET:
        raise ResourceError(f"{what} has as many as {count} elements, past the "
                            f"budget of {MEMORY_BUDGET // element_bytes} at "
                            f"~{element_bytes} bytes each")
