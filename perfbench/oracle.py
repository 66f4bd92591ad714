"""Reference answers for the benchmark, computed without the package.

Nothing here imports `propp`.  The algorithms differ from the package's
on purpose: class-3 prime counts come from Lucy_Hedgehog's recurrence on
the weights 1 and chi_4 (no sieve to x), the layers of S from a plain
recursive product walk, and Property P from the cubic triple loop.
"""
from __future__ import annotations

import math
import random

import numpy as np


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n by a plain boolean sieve (int64)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    mask[4::2] = False
    for p in range(3, math.isqrt(n) + 1, 2):
        if mask[p]:
            mask[p * p::2 * p] = False
    return np.flatnonzero(mask).astype(np.int64)


def class3_upto(n: int) -> list[int]:
    pr = primes_upto(n)
    return [int(p) for p in pr[(pr & 3) == 3]]


class Class3Counts:
    """pi(v;4,3) for every v of the form floor(x/m), by Lucy_Hedgehog.

    Two completely multiplicative weights are summed over primes at once:
    f = 1 gives pi(v) and f = chi_4 gives sum_{p<=v} chi_4(p), so that
    pi(v;4,3) = (pi(v) - 1 - sum chi_4(p)) / 2 for v >= 2.
    """

    def __init__(self, x: int):
        if x < 1:
            raise ValueError(f"x must be positive, got {x}")
        self.x = x
        r = math.isqrt(x)
        self.r = r
        small_v = np.arange(r + 1, dtype=np.int64)
        large_v = np.zeros(r + 1, dtype=np.int64)
        large_v[1:] = x // np.arange(1, r + 1, dtype=np.int64)
        # the chi_4 partial sum over 1..v is 1 when v % 4 in (1, 2), else 0
        chi_prefix = lambda v: ((v % 4 == 1) | (v % 4 == 2)).astype(np.int64)
        lo0, hi0 = small_v - 1, large_v - 1
        lo1, hi1 = chi_prefix(small_v) - 1, chi_prefix(large_v) - 1
        lo0[0] = lo1[0] = 0
        hi0[0] = hi1[0] = 0
        for p in range(2, r + 1):
            if lo0[p] == lo0[p - 1]:
                continue
            p2 = p * p
            if p2 > x:
                break
            chi = 0 if p == 2 else (1 if p % 4 == 1 else -1)
            imax = min(r, x // p2)
            i = np.arange(1, imax + 1, dtype=np.int64)
            ip = i * p
            # x // (i p) is large-table entry i p while i p <= r, else small
            inner = ip <= r
            sub0 = np.empty(imax, dtype=np.int64)
            sub1 = np.empty(imax, dtype=np.int64)
            sub0[inner] = hi0[ip[inner]]
            sub1[inner] = hi1[ip[inner]]
            outer = x // ip[~inner]
            sub0[~inner] = lo0[outer]
            sub1[~inner] = lo1[outer]
            c0, c1 = lo0[p - 1], lo1[p - 1]
            hi0[1:imax + 1] -= sub0 - c0
            if chi:
                hi1[1:imax + 1] -= chi * (sub1 - c1)
            if p2 <= r:
                v = np.arange(r, p2 - 1, -1, dtype=np.int64)
                d0 = lo0[v // p] - c0
                lo0[v] -= d0
                if chi:
                    lo1[v] -= chi * (lo1[v // p] - c1)
        self._lo = np.where(small_v >= 2, (lo0 - 1 - lo1) // 2, 0)
        self._hi = np.where(large_v >= 2, (hi0 - 1 - hi1) // 2, 0)

    def __call__(self, v: int) -> int:
        """pi(v;4,3); v must be floor(x/m) for some m >= 1, or at most sqrt(x)."""
        if v <= self.r:
            return int(self._lo[v])
        return int(self._hi[self.x // v])


def count_products(x: int, k: int, exclude: int | None = None) -> int:
    """Squarefree n <= x with exactly k prime factors, all 3 mod 4, none
    equal to `exclude`: pi_k(x;4,3) when `exclude` is None."""
    if k < 1 or x < 1:
        return 0
    counts = Class3Counts(x)
    small = class3_upto(math.isqrt(x))

    def rec(start: int, need: int, budget: int) -> int:
        if need == 1:
            # class-3 primes in (small[start - 1], budget]
            c = counts(budget) - start
            if exclude is not None and budget >= exclude and (
                    start == 0 or exclude > small[start - 1]):
                c -= 1
            return max(c, 0)
        total = 0
        for idx in range(start, len(small)):
            p = small[idx]
            if p ** need > budget:
                break
            if p == exclude:
                continue
            total += rec(idx + 1, need - 1, budget // p)
        return total

    return rec(0, k, x)


def nth_class3(i: int) -> int:
    bound = 64
    while True:
        c3 = class3_upto(bound)
        if len(c3) >= i:
            return c3[i - 1]
        bound *= 2


def s_layer(i: int, limit: int, exclude_qi: bool = False) -> list[int]:
    """Ascending values q_i^4 nu^2 <= limit, nu a product of i distinct
    class-3 primes (not q_i when `exclude_qi`)."""
    q = nth_class3(i)
    q4 = q ** 4
    if q4 > limit:
        return []
    nu_max = math.isqrt(limit // q4)
    pool = [p for p in class3_upto(max(3, nu_max // 3 ** (i - 1) + 1))
            if not (exclude_qi and p == q)]
    out = []

    def walk(start: int, need: int, prod: int) -> None:
        if need == 0:
            out.append(q4 * prod * prod)
            return
        for idx in range(start, len(pool)):
            p = pool[idx]
            if prod * p ** need > nu_max:
                break
            walk(idx + 1, need - 1, prod * p)

    walk(0, i, 1)
    return sorted(out)


def s_union(limit: int) -> list[int]:
    """The union of all layers S_i up to `limit`, ascending."""
    out = []
    i = 1
    while True:
        layer = s_layer(i, limit)
        if not layer:
            break
        out.extend(layer)
        i += 1
    return sorted(out)


def first_witness(seq: list[int]):
    """(holds, witness values, witness indices, triples checked) by the
    cubic loop in lexicographic order."""
    n = len(seq)
    rank = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                rank += 1
                if (seq[j] + seq[k]) % seq[i] == 0:
                    return False, (seq[i], seq[j], seq[k]), (i, j, k), rank
    return True, None, None, rank


def class3_prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n that are 3 mod 4, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            if d % 4 == 3:
                out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1 and n % 4 == 3:
        out.append(n)
    return out


def envelope(x: int) -> float:
    """sqrt(x) / (sqrt(log x) (log log x)^2 (log log log x)^2)."""
    lx = math.log(x)
    l2 = math.log(lx)
    l3 = math.log(l2)
    return math.sqrt(x) / (math.sqrt(lx) * l2 ** 2 * l3 ** 2)


def planted_squares(rng: random.Random, lo: int, hi: int, size: int):
    """A sample of class-3 prime squares and one planted element.

    Returns (squares, planted).  The planted element x sits between p^2
    and 2 p^2 for a sampled p near the middle of the sample, and x + r^2
    is a multiple of p^2 for the first sampled r with r^2 > 2 p^2, so the
    set with x added fails Property P at an outer index near size/2.
    """
    pool = [p for p in class3_upto(hi) if p >= lo]
    squares = sorted(p * p for p in rng.sample(pool, size))
    members = set(squares)
    at = rng.randrange(size * 48 // 100, size * 52 // 100)
    p2 = squares[at]
    for r2 in squares[at + 1:]:
        if r2 <= 2 * p2:
            continue
        planted = p2 * (r2 // p2 + 2) - r2
        if planted not in members:
            return squares, planted
    raise ValueError("sample range too narrow to plant a violation")
