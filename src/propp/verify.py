"""Exhaustive Property-P decision and the square-sum divisibility test.

Property P: a strictly increasing sequence a_1 < a_2 < ... where no
a_i divides a_j + a_k for any i < j < k.  The check scans index triples
in lexicographic order, so a failing sequence always reports the same
witness.  Internally each outer index i reduces the tail mod a_i and
looks for a residue pair summing to 0 or a_i, which keeps the scan at
O(n^2 log n) while deciding exactly the cubic family of triples.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .construct import enumerate_s
from .errors import ResourceError, require_int
from .primes import is_prime
from .seqfile import validate_sequence

# Largest n with C(n,3) <= 5e9 logical triples; beyond it require force=True.
DEFAULT_ELEMENT_CAP = 3108

# int64 residue arithmetic needs a_j + a_k < 2^63
_NUMPY_VALUE_CEILING = 1 << 62

APPLICABLE_VERIFIED = "applicable+verified"
APPLICABLE_VIOLATED = "applicable+violated"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a Property-P scan.

    `holds` is True exactly when `witness` is absent.  `triples_checked`
    counts the lexicographic triples decided: C(n,3) for a clean pass,
    or the rank of the witness, independent of scan internals.
    """

    holds: bool
    witness: Optional[tuple[int, int, int]]
    witness_indices: Optional[tuple[int, int, int]]
    triples_checked: int


@dataclass(frozen=True)
class Lemma1Result:
    outcome: str
    prime: Optional[int]


def _lex_rank(n: int, i: int, j: int, k: int) -> int:
    """Number of index triples up to and including (i, j, k)."""
    rank = sum(math.comb(n - 1 - t, 2) for t in range(i))
    rank += sum(n - 1 - t for t in range(i + 1, j))
    return rank + (k - j)


def _first_pair(res, ai: int) -> Optional[tuple[int, int]]:
    """Smallest (j, k), j < k, with res[j] + res[k] == 0 mod ai."""
    positions: dict[int, list[int]] = {}
    for pos, r in enumerate(res):
        positions.setdefault(int(r), []).append(pos)
    for j, r in enumerate(res):
        want = (ai - int(r)) % ai
        lst = positions.get(want)
        if lst is None:
            continue
        at = bisect_right(lst, j)
        if at < len(lst):
            return j, lst[at]
    return None


def _pair_exists(res: np.ndarray, ai: int) -> bool:
    u, c = np.unique(res, return_counts=True)
    w = (ai - u) % ai
    pos = np.searchsorted(u, w)
    pos = np.minimum(pos, len(u) - 1)
    match = u[pos] == w
    return bool(np.any(match & ((w != u) | (c > 1))))


def _scan_range(a, a_np, lo: int, hi: int) -> Optional[tuple[int, int, int]]:
    """Lexicographically first witness with outer index in [lo, hi)."""
    n = len(a)
    for i in range(lo, min(hi, n - 2)):
        ai = a[i]
        if a_np is not None:
            res = a_np[i + 1:] % ai
            if not _pair_exists(res, ai):
                continue
            found = _first_pair(res.tolist(), ai)
        else:
            res = [v % ai for v in a[i + 1:]]
            found = _first_pair(res, ai)
        if found is not None:
            j, k = found
            return i, i + 1 + j, i + 1 + k
    return None


def check_property_p(seq: Sequence[int], *, cap: int = DEFAULT_ELEMENT_CAP,
                     force: bool = False, threads: int = 1) -> Verdict:
    """Decide Property P for a strictly ascending sequence.

    Raises SequenceFormatError on malformed input and ResourceError when
    the sequence exceeds `cap` elements without `force`.
    """
    a = validate_sequence(seq)
    n = len(a)
    if n > cap and not force:
        raise ResourceError(
            f"sequence has {n} elements, cubic-cost cap is {cap}; pass force "
            "(CLI: --force) to scan anyway")
    if n < 3:
        return Verdict(True, None, None, 0)

    a_np = np.asarray(a, dtype=np.int64) if a[-1] <= _NUMPY_VALUE_CEILING else None

    witness_at: Optional[tuple[int, int, int]] = None
    if threads <= 1:
        witness_at = _scan_range(a, a_np, 0, n - 2)
    else:
        step = math.ceil((n - 2) / threads)
        blocks = [(lo, lo + step) for lo in range(0, n - 2, step)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = list(pool.map(lambda b: _scan_range(a, a_np, b[0], b[1]), blocks))
        for hit in hits:  # blocks are ordered by outer index
            if hit is not None:
                witness_at = hit
                break

    if witness_at is None:
        return Verdict(True, None, None, math.comb(n, 3))
    i, j, k = witness_at
    return Verdict(False, (a[i], a[j], a[k]), (i, j, k), _lex_rank(n, i, j, k))


# A composite cofactor of n < 10^14 has a divisor <= 10^7, so the cap
# changes no answer there; dividing up to it took 0.5 s on a 2-vCPU VM.
_TRIAL_DIVISION_CAP = 10 ** 7


def _class3_prime_divisors(n: int):
    """Prime divisors of n in the class 3 mod 4, ascending.

    Trial division stops once the cofactor is 1 or prime (Miller-Rabin,
    exact below 3.3e24); a composite cofactor with no divisor up to the cap
    raises ResourceError.
    """
    m = n
    while m % 2 == 0:
        m //= 2
    d = 3
    while m > 1 and not is_prime(m):
        d = next((t for t in range(d, _TRIAL_DIVISION_CAP + 1, 2) if m % t == 0), 0)
        if not d:
            raise ResourceError(
                f"{m} has no prime factor up to {_TRIAL_DIVISION_CAP}; "
                "factoring it is beyond the trial-division budget")
        while m % d == 0:
            m //= d
        if d % 4 == 3:
            yield d
    if m > 1 and m % 4 == 3:
        yield m


def check_lemma1(n1: int, n2: int, n3: int) -> Lemma1Result:
    """Witness test: a prime p = 3 mod 4 with p | n1 and p not dividing
    gcd(n2, n3) forces n1^2 to miss n2^2 + n3^2.

    Returns the smallest such p and the verified classification;
    `applicable+violated` would contradict the two-squares obstruction
    and is never reached.
    """
    for name, v in (("n1", n1), ("n2", n2), ("n3", n3)):
        require_int(name, v)
    g = math.gcd(n2, n3)
    for p in _class3_prime_divisors(n1):
        if g % p != 0:
            if (n2 * n2 + n3 * n3) % (n1 * n1) == 0:
                return Lemma1Result(APPLICABLE_VIOLATED, p)
            return Lemma1Result(APPLICABLE_VERIFIED, p)
    return Lemma1Result(NOT_APPLICABLE, None)


def check_union_property_p(limit: int, *, exclude_qi: bool = False,
                           threads: int = 1) -> Verdict:
    """Property P on the constructed union up to `limit`."""
    values = [e.value for e in enumerate_s(limit, exclude_qi)]
    return check_property_p(values, threads=threads)
