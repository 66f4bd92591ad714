"""Independent brute-force oracles for cross-validation.

Everything here is deliberately written against different algorithms
than the package: plain trial division, cubic triple loops and additive
sieve classification.  Keep it that way; these are the reference
implementations the fast paths are judged against.
"""
from __future__ import annotations

import math

import numpy as np

from propp.constants import h_eval


def trial_division_primes(limit: int) -> list[int]:
    out = []
    for n in range(2, limit + 1):
        d = 2
        is_p = True
        while d * d <= n:
            if n % d == 0:
                is_p = False
                break
            d += 1
        if is_p:
            out.append(n)
    return out


def trial_division_class3(limit: int) -> list[int]:
    return [p for p in trial_division_primes(limit) if p % 4 == 3]


def factorize(n: int) -> dict[int, int]:
    f: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            f[d] = f.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        f[n] = f.get(n, 0) + 1
    return f


def shape_layer_index(n: int, class3: list[int], exclude_qi: bool = False):
    """The layer index i if n = q_i^4 nu^2 with nu a product of exactly i
    distinct class-3 primes, else None.  `class3` must cover every prime
    factor of any tested n."""
    f = factorize(n)
    if not f or any(p % 4 != 3 for p in f):
        return None
    quads = [p for p, e in f.items() if e in (4, 6)]
    if len(quads) != 1:
        return None
    q = quads[0]
    if any(e != 2 for p, e in f.items() if p != q):
        return None
    i = sum(1 for e in f.values() if e == 2) + (1 if f[q] == 6 else 0)
    if exclude_qi and f[q] == 6:
        return None
    if i < 1 or i > len(class3) or class3[i - 1] != q:
        return None
    return i


def naive_layer(i: int, limit: int, class3: list[int], exclude_qi: bool = False):
    """Sorted (value, nu_factors) of S_i up to `limit` by a plain recursive
    walk over ascending class-3 primes, pruned once the smallest completion,
    the next prime in every free slot, passes `limit`.  `class3` must reach
    the largest factor of any nu in the layer."""
    q = class3[i - 1]
    pool = [p for p in class3 if not exclude_qi or p != q]
    out = []

    def walk(start: int, chosen: list[int]) -> None:
        if len(chosen) == i:
            out.append((q ** 4 * math.prod(chosen) ** 2, tuple(chosen)))
            return
        for idx in range(start, len(pool)):
            smallest = math.prod(chosen) * pool[idx] ** (i - len(chosen))
            if q ** 4 * smallest ** 2 > limit:
                break
            walk(idx + 1, chosen + [pool[idx]])

    walk(0, [])
    return sorted(out)


def recursive_pi_k(x: int, k: int, class3, count) -> int:
    """pi_k(x;4,3) by a depth-first walk over ascending class-3 primes in
    Python ints: a tuple of k - 1 primes with product P adds count(x // P),
    the class-3 primes <= x // P, minus those up to its largest factor.
    `class3` must list every class-3 prime <= x^(1/2) (all <= x for k = 1),
    and `count` must answer every x // P."""
    class3 = [int(p) for p in class3]

    def walk(start: int, remaining: int, budget: int) -> int:
        if remaining == 1:
            return int(count(budget)) - start
        total = 0
        for idx in range(start, len(class3)):
            p = class3[idx]
            if p ** remaining > budget:
                break
            total += walk(idx + 1, remaining - 1, budget // p)
        return total

    return walk(0, k, x)


def naive_property_p(seq: list[int]):
    """First violating triple (i, j, k) by index, or None: cubic loop."""
    n = len(seq)
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                if (seq[j] + seq[k]) % seq[i] == 0:
                    return i, j, k
    return None


def spf_table(limit: int) -> np.ndarray:
    """Smallest-prime-factor table 0..limit (0 marks 0 and 1)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for i in range(2, limit + 1):
        if spf[i] == 0:
            spf[i::i][spf[i::i] == 0] = i
    return spf


def classify_counts(x: int) -> dict[int, int]:
    """k -> #{n <= x squarefree, all p | n in class 3 mod 4, omega(n) = k}
    by additive sieve marking, no product enumeration anywhere."""
    good = np.ones(x + 1, dtype=bool)
    good[:2] = False
    squarefree = np.ones(x + 1, dtype=bool)
    omega3 = np.zeros(x + 1, dtype=np.uint8)
    is_p = np.ones(x + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, x + 1):
        if not is_p[p]:
            continue
        if p * p <= x:
            is_p[p * p:: p] = False
            squarefree[p * p:: p * p] = False
        if p % 4 == 3:
            omega3[p:: p] += 1
        else:
            good[p:: p] = False
    mask = good & squarefree
    ks = omega3[mask]
    counts = np.bincount(ks)
    return {k: int(c) for k, c in enumerate(counts) if k >= 1 and c}


def h_second_by_differences(x: float, plimit: int) -> float:
    """h''(x) by central differences of propp's h (the Euler product over
    Gamma) at steps 1e-4 and 5e-5, with one Richardson refinement: the
    oracle for the term-by-term h''.  x +- 1e-4 must lie in [0, 2]."""
    center = h_eval(x, plimit)

    def second(d):
        return (h_eval(x + d, plimit) - 2.0 * center + h_eval(x - d, plimit)) / (d * d)
    return (4.0 * second(5e-5) - second(1e-4)) / 3.0
