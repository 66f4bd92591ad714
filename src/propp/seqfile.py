"""Sequence files: one decimal integer per line, strictly ascending.

No blank lines, no signs, newline-terminated.  An empty file denotes the
empty sequence.
"""
from __future__ import annotations

import io
import sys
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .errors import SequenceFormatError

# Longest integer text in files and CLI arguments: int() refuses text past the
# interpreter's limit (4300 digits by default); int(Decimal) took 42 s at 10^6.
MAX_INT_DIGITS = min(sys.get_int_max_str_digits() or 10 ** 5, 10 ** 5)


def validate_sequence(values: Sequence[int]) -> list[int]:
    """Check strict ascent and positivity; returns the values as a list.
    A 1-D int64 array is checked as a whole, and value by value only to
    name its first bad entry."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1:
        if np.all(values[:1] >= 1) and np.all(values[1:] > values[:-1]):
            return values.tolist()
        values = values.tolist()
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
        if len(line) > MAX_INT_DIGITS:
            raise SequenceFormatError(
                f"{source}:{lineno}: integer has more than {MAX_INT_DIGITS} digits")
        values.append(int(line))
    try:
        return validate_sequence(values)
    except SequenceFormatError as exc:
        raise SequenceFormatError(f"{source}: {exc}") from None


def read_sequence(path: str) -> list[int]:
    """`parse_sequence` of the file, read as ASCII with universal newlines;
    a file of lines of 1 to 18 digits is parsed as one array."""
    with open(path, "rb") as fh:
        data = fh.read()
    values = _read_array(data)
    if values is None:
        # non-ASCII bytes decode to U+FFFD, which parse_sequence rejects by line
        text = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", errors="replace").read()
        return parse_sequence(text, source=path)
    try:
        return validate_sequence(values)
    except SequenceFormatError as exc:
        raise SequenceFormatError(f"{path}: {exc}") from None


# the longest line `_read_array` parses: 18 digits stay below 2^63
_ARRAY_DIGITS = 18


def _read_array(data: bytes) -> Optional[np.ndarray]:
    """The int64 values of `data` when it holds only lines of 1 to
    _ARRAY_DIGITS ASCII digits, each ended by "\n"; else None.  The digits
    fold in one column at a time, from the longest line's first digit to
    the last, a line's missing leading digits read as 0."""
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    lengths = np.diff(ends, prepend=-1) - 1
    digits = raw - ord("0")  # a newline wraps past 9
    if (not raw.size or raw[-1] != ord("\n") or lengths.min() < 1
            or lengths.max() > _ARRAY_DIGITS or np.count_nonzero(digits > 9) != ends.size):
        return None
    values = np.zeros(ends.size, dtype=np.int64)
    for back in range(int(lengths.max()), 0, -1):
        values *= 10
        values += np.where(lengths >= back, digits[np.maximum(ends - back, 0)], 0)
    return values


# values per block of text the array path formats and writes at once: the
# 2.88M class-3 primes to 10^8 took 0.045-0.05 s in blocks of 2^16, 0.06 s in
# blocks of 2^14 or 2^18.  A digit is block - (block // 10) * 10, since numpy
# divides fast only in // by a scalar: on 2^16 uint32 values np.divmod(block,
# 10) took 190-300 us, block // 10 12-14 us
_WRITE_CHUNK = 1 << 16


def write_sequence(values: Iterable[int], stream: IO[str]) -> None:
    """Write `values` one per line.  A strictly ascending, positive int64 or
    uint32 array is formatted a block at a time; anything else value by
    value."""
    if (isinstance(values, np.ndarray) and values.dtype in (np.int64, np.uint32)
            and values.ndim == 1 and bool(np.all(values[:1] > 0))
            and bool(np.all(values[1:] > values[:-1]))):
        _write_array(values, stream)
        return
    for v in values:
        stream.write(f"{v}\n")


def _write_array(values: np.ndarray, stream: IO[str]) -> None:
    """The lines of an ascending positive int64 or uint32 array, grouped by
    digit count: each block is a (d + 1, n) matrix of ASCII digits and
    newlines, one row per digit position, transposed once to n lines."""
    # values below 10^d end at ends[d - 1].  The keys take the array's dtype,
    # or np.searchsorted would copy a uint32 array to int64; so only the
    # powers of ten that dtype holds.  Computed here, not at import, where a
    # numpy array raised the peak RSS of commands that never write
    top = len(str(np.iinfo(values.dtype).max))
    ends = np.searchsorted(values, 10 ** np.arange(1, top, dtype=values.dtype))
    ends = ends.tolist() + [len(values)]
    for digits, (lo, end) in enumerate(zip([0] + ends, ends), start=1):
        for start in range(lo, end, _WRITE_CHUNK):
            block = values[start:min(start + _WRITE_CHUNK, end)]
            text = np.empty((digits + 1, len(block)), dtype=np.uint8)
            text[digits] = ord("\n")
            for row in range(digits - 1, -1, -1):
                q = block // 10
                text[row] = block - q * 10
                block = q
            text[:digits] += ord("0")
            stream.write(text.T.copy().tobytes().decode("ascii"))
