"""Sequence files: one decimal integer per line, strictly ascending.

No blank lines, no signs, newline-terminated.  An empty file denotes the
empty sequence.
"""
from __future__ import annotations

from typing import IO, Iterable, Sequence

from .errors import SequenceFormatError


def validate_sequence(values: Sequence[int]) -> list[int]:
    """Check strict ascent and positivity; returns the values as a list."""
    out = []
    prev = 0
    for pos, v in enumerate(values, start=1):
        if not isinstance(v, int) or isinstance(v, bool):
            raise SequenceFormatError(f"entry {pos} is not an integer: {v!r}")
        if v < 1:
            raise SequenceFormatError(f"entry {pos} must be >= 1, got {v}")
        if v <= prev:
            raise SequenceFormatError(
                f"entries must be strictly ascending: entry {pos} is {v} after {prev}")
        out.append(v)
        prev = v
    return out


def parse_sequence(text: str, source: str = "<input>") -> list[int]:
    if text == "":
        return []
    if not text.endswith("\n"):
        raise SequenceFormatError(f"{source}: file must be newline-terminated")
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line == "" or not line.isascii() or not line.isdigit():
            raise SequenceFormatError(
                f"{source}:{lineno}: expected a bare decimal integer, got {line!r}")
        values.append(int(line))
    try:
        return validate_sequence(values)
    except SequenceFormatError as exc:
        raise SequenceFormatError(f"{source}: {exc}") from None


def read_sequence(path: str) -> list[int]:
    # non-ASCII bytes decode to U+FFFD, which parse_sequence rejects by line
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        return parse_sequence(fh.read(), source=path)


def write_sequence(values: Iterable[int], stream: IO[str]) -> None:
    for v in values:
        stream.write(f"{v}\n")
