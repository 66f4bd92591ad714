"""Sieving and indexing of primes in the residue class 3 mod 4.

q_i denotes the i-th prime p with p % 4 == 3 (3, 7, 11, 19, ...) and
lambda(p) the {0,1} indicator of that class; p = 2 is classified as
lambda(2) = 0.  The sieve is segmented (Bays and Hudson, BIT 17 (1977))
and marks odd numbers only: each segment spans SEGMENT_SIZE consecutive
integers, so its 1 MiB mask stays in a core's L2 cache.  The results feed a
process-wide store that grows by at least doubling; a growth sieves only
the range past the old limit, so repeated callers never re-sieve it, and
writes each segment straight into arrays sized by the Rosser-Schoenfeld
bound (Illinois J. Math. 6 (1962)), then trims them to length.  Both
arrays are uint32, which holds every prime below MAX_SIEVE_LIMIT = 2^32.
On a 2-vCPU VM a cold fill of the store to 10^8 took 0.17-0.24 s and
peaked at ~67 MB, to 10^9 2.9-3.4 s and ~325 MB.
"""
from __future__ import annotations

import math
import threading
from bisect import bisect_right

import numpy as np

from .errors import DomainError, ResourceError

# integers per segment, odd and even; the mask holds the odd ones (1 MiB).
# On a 2-vCPU VM prime_segments(10**8) took 0.16-0.19 s at 2^21, against
# 0.17-0.21 s at 2^20, 0.19-0.23 s at 2^22 and 0.25-0.26 s at 2^23
SEGMENT_SIZE = 1 << 21

# Memory budget guard; ~203M primes and ~102M class-3 primes (1.2 GB as
# uint32) at the cap.
MAX_SIEVE_LIMIT = 1 << 32
_KEY_MAX = MAX_SIEVE_LIMIT - 1


def _base_primes(n: int) -> np.ndarray:
    """All primes <= n by a plain boolean sieve (n stays near sqrt(limit))."""
    mask = np.ones(max(n + 1, 2), dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _sieve_segment(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """The odd primes in [lo, hi], given the odd primes up to sqrt(hi) in
    `base`; mask entry j stands for the odd number first + 2j."""
    first = lo | 1
    mask = np.ones((hi - first) // 2 + 1, dtype=bool)
    base = base[:int(np.searchsorted(base, math.isqrt(hi), side="right"))]
    # each p crosses off from its first odd multiple >= max(p^2, first)
    start = np.maximum(base * base, -(-first // base) * base)
    start += (~start & 1) * base
    start -= first
    start //= 2
    for s, p in zip(start.tolist(), base.tolist()):
        mask[s:: p] = False
    out = np.flatnonzero(mask)
    out *= 2
    out += first
    return out


def prime_segments(limit: int, segment_size: int = SEGMENT_SIZE, start: int = 2):
    """Yield ascending arrays of the primes in [start, limit]: [2] first
    when start <= 2, then the odd ones, one array per `segment_size`
    consecutive integers from 3 (or from start, if later)."""
    if limit < 2:
        raise DomainError(f"sieve limit must be at least 2, got {limit}")
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceError(
            f"sieve limit {limit} exceeds the memory budget cap {MAX_SIEVE_LIMIT}")
    if start <= 2:
        yield np.array([2], dtype=np.int64)
    base = _base_primes(math.isqrt(limit))[1:]
    for lo in range(max(start, 3), limit + 1, segment_size):
        yield _sieve_segment(lo, min(lo + segment_size - 1, limit), base)


_cache_lock = threading.Lock()
_cached_primes = np.empty(0, dtype=np.uint32)
_cached_class3 = np.empty(0, dtype=np.uint32)
_cached_limit = 1


def _capacity(limit: int) -> int:
    """An upper bound on pi(limit): pi(x) < 1.25506 x / ln x for x > 1."""
    return int(1.25506 * limit / math.log(limit)) + 1


def store_key(v):
    """`v` (an int, or an array of ints >= 0) as keys of the store's dtype,
    clamped to 2^32 - 1.  np.searchsorted promotes the uint32 store to an
    int or int64 key's dtype, and so copies all of it, on every call.  The
    clamp keeps every count: 2^32 is a legal key at the cap, and no prime
    equals it."""
    if isinstance(v, np.ndarray):
        return np.minimum(v, _KEY_MAX).astype(np.uint32)
    return np.uint32(min(max(v, 0), _KEY_MAX))


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as a read-only ascending uint32 array (cached)."""
    global _cached_primes, _cached_class3, _cached_limit
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceError(
            f"prime request {limit} exceeds the memory budget cap {MAX_SIEVE_LIMIT}")
    if limit < 2:
        return _cached_primes[:0]
    with _cache_lock:
        if limit > _cached_limit:
            new_limit = min(max(limit, 2 * _cached_limit, 1 << 16), MAX_SIEVE_LIMIT)
            n, n3 = len(_cached_primes), len(_cached_class3)
            # untouched tails cost no memory; resize trims them in place
            primes = np.empty(_capacity(new_limit), dtype=np.uint32)
            class3 = np.empty_like(primes)
            primes[:n] = _cached_primes
            class3[:n3] = _cached_class3
            for seg in prime_segments(new_limit, start=_cached_limit + 1):
                primes[n:n + len(seg)] = seg
                n += len(seg)
                # class 3 goes straight into the store: 0.025-0.038 s over the
                # segments to 10^8, against 0.056-0.059 s by boolean indexing
                take = (seg & 3) == 3
                k = int(np.count_nonzero(take))
                np.compress(take, seg, out=class3[n3:n3 + k])
                n3 += k
                del seg, take  # alive through the next sieve, they fragment the heap
            primes.resize(n, refcheck=False)
            class3.resize(n3, refcheck=False)
            primes.flags.writeable = False
            class3.flags.writeable = False
            _cached_primes, _cached_class3, _cached_limit = primes, class3, new_limit
        cut = int(np.searchsorted(_cached_primes, store_key(limit), side="right"))
        return _cached_primes[:cut]


def sieved_limit() -> int:
    """The limit the prime store covers: reads up to it sieve nothing."""
    return _cached_limit


def class3_upto(limit: int) -> np.ndarray:
    """All primes p <= limit with p % 4 == 3, ascending, read-only."""
    primes_upto(limit)
    with _cache_lock:
        cut = int(np.searchsorted(_cached_class3, store_key(limit), side="right"))
        return _cached_class3[:cut]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin on the first k bases is exact below the k-th entry (Jaeschke,
# Math. Comp. 61 (1993); Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_EXACT_BELOW = (
    2_047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
    3_474_749_660_383, 341_550_071_728_321, 341_550_071_728_321,
    3_825_123_056_546_413_051, 3_825_123_056_546_413_051,
    3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981)
# is_prime proves primality below this bound; past it, a True is probable
IS_PRIME_EXACT_BELOW = _MR_EXACT_BELOW[-1]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24: it runs only the
    bases that n's size needs, all 13 from there on."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:bisect_right(_MR_EXACT_BELOW, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def lambda_indicator(p: int) -> int:
    """1 if the prime p lies in the class 3 mod 4, else 0 (lambda(2) = 0)."""
    if not is_prime(p):
        raise DomainError(f"lambda is only defined on primes, got {p}")
    return int(p % 4 == 3)


def nth_q(i: int) -> int:
    """q_i, extending the sieve by doubling until the i-th class-3 prime exists."""
    if i < 1:
        raise DomainError(f"q index must be at least 1, got {i}")
    if i < 8:
        bound = 64
    else:
        # q_i grows like 2 i log i; overshoot so one sieve usually suffices
        bound = int(2.4 * i * (math.log(i) + math.log(math.log(i)) + 1.0)) + 16
    arr = class3_upto(bound)
    while len(arr) < i:
        bound *= 2
        arr = class3_upto(bound)
    return int(arr[i - 1])


def q_growth_ratio(i: int) -> float:
    """q_i / (2 i log i), the deviation from the asymptotic size of q_i."""
    if i < 2:
        raise DomainError(f"growth ratio needs i >= 2 (log i vanishes at 1), got {i}")
    return nth_q(i) / (2.0 * i * math.log(i))
