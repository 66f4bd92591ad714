"""Exact and asymptotic counting of squarefree k-almost-primes whose
prime factors all lie in the class 3 mod 4.

pi_k(x;4,3) counts n <= x with omega(n) = Omega(n) = k and every p | n
congruent 3 mod 4.  The exact count walks ascending tuples of k - 1
class-3 primes with product pruning and counts the last factor in one
lookup of pi(v;4,3) per tuple, where every v is some floor(x/m).  Those
lookups read the prime store when it already covers them; otherwise a
Lucy_Hedgehog table of pi(v;4,3) over all v = floor(x/m) answers them
after sieving only to sqrt(x) (Lagarias-Miller-Odlyzko, Math. Comp. 44,
1985).  The layers of the set S are counted through it as well
(`count_s_i`, and `count_s` for all of them from one table).
The asymptotic side evaluates Landau's classical term

    x (log log x)^(k-1) / ((k-1)! log x)

and the refined class-restricted expansion whose leading factor is that
term divided by 2^k, with second-order corrections driven by C(3,4) and
the curvature h'' from the analytic-constants module.  All factorials run
in log space so large k cannot overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import constants
from .errors import DomainError, ResourceError, require_int
from .primes import class3_upto, nth_q, primes_upto, sieved_limit, store_key

# One price for every class-3 count, in units of the Lucy table's work
# x^(3/4) / ln x.  On a 2-vCPU VM the table took ~115 ns a unit at x = 10^12
# (4.2 s, 106 MB) and ~130 ns at 10^13 (24.5 s, 303 MB for 1.9e8 units), so
# the budget, ~26 s of table, admits x = 10^13 and refuses 1.1e14 (1.05e9).
_WORK_BUDGET = 2 * 10 ** 8
# A call of the walk's count_from in those units: 6.4 us a node on the same
# VM (`pik --x 1e30 --k 17`, 1,866,853 nodes in 11.9 s) over ~130 ns a unit.
_NODE_WEIGHT = 49

# established admissible constant for the corollary-window lower bound
ADMISSIBLE_C = 0.802

DEFAULT_UNIFORMITY_A = 2.0

_E = math.e
_E_TO_E = math.exp(math.e)


@dataclass(frozen=True)
class CountReport:
    """Exact count next to the asymptotic terms at one grid point."""

    x: int
    k: int
    exact: int
    landau: Optional[float]
    meng_main: Optional[float]
    meng_full: Optional[float]
    ratio_exact_to_main: Optional[float]


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for an int n >= 0, exact in Python ints."""
    c = round(n ** (1 / 3))
    while c ** 3 > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


# (i, p) pairs that the batch phase of `_class3_counts` holds at once: at
# 2^13 its temporaries stay below the first phase's peak at x = 10^10
_BATCH_PAIRS = 1 << 13


def _class3_counts(x: int, primes: np.ndarray):
    """pi(v;4,3) for every v = floor(x/m) and every v <= sqrt(x), as a
    vectorised counter; `primes` must hold every prime <= sqrt(x).

    Lucy_Hedgehog's recurrence sums a completely multiplicative weight f
    over 2..v and sifts out the composites prime by prime:
    S(v) -= f(p) (S(v // p) - S(p - 1)) for every v >= p^2.  Run on the
    weights 1 and chi_4 it leaves pi(v) and sum_{p<=v} chi_4(p), and
    pi(v;4,3) = (pi(v) - 1 - sum_{p<=v} chi_4(p)) / 2 for v >= 2.

    The small entry v holds S(v) and the big entry i holds S(x // i).
    The sift runs in two phases.  Primes with p^3 <= x go one at a time
    in ascending order, each in a few array operations.  The primes
    above the cube root c = floor(x^(1/3)) then go in one batch: such a
    p changes no small entry (p^2 > sqrt(x)) and writes only the big
    entries i <= x // p^2 < p; it reads small entries and the big
    entries i p >= p > c.  So no batch prime writes an entry that
    another reads, every update sees S as the first phase left it, and
    the batch applies in any order: one gather and one
    `np.subtract.at` over all its (i, p) pairs, _BATCH_PAIRS at a time.
    """
    r = math.isqrt(x)
    small_v = np.arange(r + 1, dtype=np.int64)
    big_v = x // np.maximum(small_v, 1)  # entry i >= 1 holds v = x // i
    # S at the start: v - 1 for the weight 1; chi_4 sums to 1 over 1..v
    # when v % 4 is 1 or 2 and to 0 otherwise
    chi_sums = [np.isin(v & 3, (1, 2)).astype(np.int64) - 1 for v in (small_v, big_v)]
    sums = [(small_v - 1, big_v - 1), tuple(chi_sums)]
    # int64: batch * batch below overflows the store's uint32
    primes = primes[: int(np.searchsorted(primes, store_key(r), side="right"))].astype(np.int64)
    cut = int(np.searchsorted(primes, _icbrt(x), side="right"))
    for p in primes[:cut].tolist():
        top = min(r, x // (p * p))   # entries v = x // i >= p^2
        inner = min(top, r // p)     # i p <= r: x // (i p) is big entry i p
        outer = big_v[inner + 1: top + 1] // p  # x // (i p), by scalar division
        sift = small_v[p * p:] // p if p * p <= r else None
        chi = 0 if p == 2 else (1 if p & 3 == 1 else -1)
        for (small, big), f in zip(sums, (1, chi)):
            if not f:
                continue
            update = np.subtract if f > 0 else np.add
            before = small[p - 1]
            # every read sees S before this prime: big first, then small
            update(big[1: inner + 1], big[p: inner * p + 1: p] - before,
                   out=big[1: inner + 1])
            update(big[inner + 1: top + 1], small[outer] - before,
                   out=big[inner + 1: top + 1])
            if sift is not None:
                update(small[p * p:], small[sift] - before, out=small[p * p:])
    batch = primes[cut:]
    tops = x // (batch * batch)      # pairs (i, p) for i = 1..x // p^2
    ends = np.cumsum(tops)
    chis = 2 - (batch & 3)           # chi_4(p) = 1, 0, -1 for p % 4 = 1, 2, 3
    total = int(tops.sum())
    for start in range(0, total, _BATCH_PAIRS):
        pair = np.arange(start, min(start + _BATCH_PAIRS, total), dtype=np.int64)
        at = np.searchsorted(ends, pair, side="right")  # the pair's prime
        i = pair - ends[at] + tops[at] + 1
        p = batch[at]
        ip = i * p
        inner = np.flatnonzero(ip <= r)
        outer = np.minimum(big_v[i] // p, r)
        for (small, big), f in zip(sums, (1, chis[at])):
            # S(x // (i p)): the big entry i p while i p <= r, else small
            delta = small[outer]
            delta[inner] = big[ip[inner]]
            delta -= small[p - 1]
            delta *= f
            np.subtract.at(big, i, delta)
    (small, big), (small_chi, big_chi) = sums
    small_c3 = np.maximum((small - 1 - small_chi) // 2, 0)
    big_c3 = np.maximum((big - 1 - big_chi) // 2, 0)

    def count(v):
        v = np.asarray(v, dtype=np.int64)
        return np.where(v <= r, small_c3[np.minimum(v, r)],
                        big_c3[x // np.maximum(v, r + 1)])
    return count


def _class3_counter(x: int, k: int):
    """(class-3 primes, pi(v;4,3) for every v = floor(x/m)) for the walk of
    pi_k(x;4,3), or None once q_1...q_k > x: the store when it covers the
    largest leaf L = x // (q_1...q_{k-1}), else the cheaper within
    _WORK_BUDGET of a Lucy_Hedgehog table for x (sieving to sqrt(x)) and the
    store filled to L, a unit an integer: ~3 ns of sieve, but ~0.7 byte of
    store (70 MB at 10^8) against ~2 bytes a table unit (106 MB at 10^12)."""
    smallest: list[int] = []
    for j in range(1, k + 1):
        smallest.append(nth_q(j))
        if math.prod(smallest) > x:  # stops a huge k long before nth_q(k)
            return None
    leaves = x // math.prod(smallest[: k - 1])
    if leaves > sieved_limit():
        log_x = math.log(x)  # the table's price x^(3/4) / ln x, logged: x may pass floats
        if 0.75 * log_x - math.log(log_x) <= math.log(min(leaves, _WORK_BUDGET)):
            return class3_upto(math.isqrt(x)), _class3_counts(x, primes_upto(math.isqrt(x)))
        if leaves > _WORK_BUDGET:
            raise ResourceError(f"pi_{k}({x};4,3) needs a table or sieve past the budget")
    arr = class3_upto(leaves)
    return arr, lambda v: np.searchsorted(arr, store_key(v), side="right")


def pi_k_exact(x: int, k: int) -> int:
    """Exact pi_k(x;4,3): pruned enumeration over ascending class-3 primes.
    The last factor is counted, never enumerated: a tuple with product P
    adds pi(x // P;4,3) minus the primes up to its largest factor."""
    return _pi_k(x, k, _class3_counter(require_int("x", x), require_int("k", k)))


def _pi_k(x: int, k: int, counter) -> int:
    """pi_k(x;4,3) through `counter`, which must answer every floor(x/m);
    None, which `_class3_counter` returns once q_1...q_k > x, counts 0.
    The walk raises ResourceError once its nodes pass _WORK_BUDGET."""
    if counter is None:
        return 0
    arr, count = counter
    if k == 1:
        return int(count(x))
    n = len(arr)
    nodes = 0

    def count_from(start: int, remaining: int, budget: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes * _NODE_WEIGHT > _WORK_BUDGET:
            raise ResourceError(f"pi_{k}({x};4,3) walks past "
                                f"{_WORK_BUDGET // _NODE_WEIGHT} nodes")
        if remaining == 2:
            # every p <= sqrt(budget) at once: pi(budget // p) minus the
            # class-3 primes up to p, which number idx + 1
            stop = int(np.searchsorted(arr, store_key(math.isqrt(budget)), side="right"))
            if stop <= start:
                return 0
            below = (start + 1 + stop) * (stop - start) // 2
            return int(count(budget // arr[start:stop].astype(np.int64)).sum()) - below
        total = 0
        for idx in range(start, n):
            p = int(arr[idx])
            if p ** remaining > budget:
                break
            total += count_from(idx + 1, remaining - 1, budget // p)
        return total

    return count_from(0, k, x)


def nu_bound(i: int, limit: int) -> int:
    """Largest nu with q_i^4 * nu^2 <= limit; 0 when q_i^4 > limit."""
    return math.isqrt(limit // nth_q(i) ** 4)


def _layer(i: int, n: int, exclude_qi: bool, counter) -> int:
    """|S_i ∩ [1, limit]|, pi_i(N;4,3) for N = n = nu_bound(i, limit), through
    a `counter` that answers every floor(n/m).  With `exclude_qi` the nu
    divisible by q_i come off by inclusion-exclusion on q_i:
    sum_t (-1)^t pi_{i-t}(N / q_i^t;4,3), with pi_0 = 1."""
    q = nth_q(i)
    total, sign = 0, 1
    for k in range(i, -1, -1) if exclude_qi else (i,):
        if n < 1:
            break
        total += sign * (_pi_k(n, k, counter) if k else 1)
        sign, n = -sign, n // q
    return total


def count_s_i(i: int, limit: int, exclude_qi: bool = False) -> int:
    """|S_i ∩ [1, limit]|, counted without enumerating the layer: q_i^4 nu^2
    <= limit exactly when nu <= N = nu_bound(i, limit)."""
    require_int("set index", i)
    require_int("limit", limit)
    n = nu_bound(i, limit)
    return _layer(i, n, exclude_qi, _class3_counter(n, i))


def count_s(limit: int, exclude_qi: bool = False) -> tuple[int, dict[int, int]]:
    """(pi_1(sqrt(limit);4,3), {i: |S_i ∩ [1, limit]|}) from one counter for
    X = isqrt(limit): isqrt(limit // q_i^4) = X // q_i^2, so every budget
    of every layer's count is some floor(X/m).  Each layer's least element
    exceeds the one before it, so the layers end at the first empty one."""
    x = math.isqrt(require_int("limit", limit))
    counter = _class3_counter(x, 1)
    per_index, i = {}, 1
    while size := _layer(i, x // nth_q(i) ** 2, exclude_qi, counter):
        per_index[i], i = size, i + 1
    return _pi_k(x, 1, counter), per_index


def landau_term(x, k: int) -> float:
    """Landau's asymptotic term for integers with k distinct prime factors.

    Needs log log x > 1 (x > e^e) for k >= 2 so the powers are positive
    and meaningful; the k = 1 specialisation x / log x only needs x > e.
    """
    require_int("k", k)
    if k == 1:
        if not x > _E:
            raise DomainError(f"landau term at k=1 needs x > e, got {x}")
    elif not x > _E_TO_E:
        raise DomainError(f"landau term needs x > e^e for k >= 2, got {x}")
    lx = math.log(x)
    llx = math.log(lx)
    power = 0.0 if k == 1 else (k - 1) * math.log(llx)
    try:
        return math.exp(lx - math.log(lx) + power - math.lgamma(k))
    except OverflowError:
        return math.inf


def meng_estimate(x, k: int, mode: str = "main", *,
                  c34_limit: int = constants.DEFAULT_CONSTANT_PLIMIT,
                  h_plimit: int = constants.DEFAULT_H_PLIMIT) -> float:
    """Class-restricted expansion of pi_k(x;4,3).

    mode="main" is the leading factor (1/2^k)(x/log x)(log log x)^(k-1)/(k-1)!.
    mode="full" multiplies in the bracketed correction
    1 + (k-1) C(3,4) / log log x + 2(k-1)(k-2)/(log log x)^2 * h''(2(k-3)/(3 log log x));
    the unquantified remainder of order k^2/(log log x)^3 is dropped, see
    `meng_neglected_scale` for its magnitude.
    """
    if mode not in ("main", "full"):
        raise DomainError(f"mode must be 'main' or 'full', got {mode!r}")
    require_int("k", k)
    if k < 2:
        raise DomainError(f"expansion holds for k >= 2, got k = {k}")
    if not x > _E_TO_E:
        raise DomainError(f"expansion needs x > e^e, got {x}")
    lx = math.log(x)
    llx = math.log(lx)
    if k > DEFAULT_UNIFORMITY_A * llx:
        raise DomainError(
            f"k = {k} exceeds the uniformity bound A log log x = "
            f"{DEFAULT_UNIFORMITY_A * llx:.4f} (A = {DEFAULT_UNIFORMITY_A})")
    try:
        main = math.exp(-k * math.log(2.0) + lx - math.log(lx)
                        + (k - 1) * math.log(llx) - math.lgamma(k))
    except OverflowError:
        main = math.inf
    if mode == "main":
        return main
    c34_value = constants.c34(c34_limit).value
    correction = 1.0 + (k - 1) * c34_value / llx
    if k > 2:
        arg = 2.0 * (k - 3) / (3.0 * llx)
        correction += (2.0 * (k - 1) * (k - 2) / llx ** 2) * constants.h_second(
            arg, h_plimit, method="analytic")
    return main * correction


def meng_neglected_scale(x, k: int) -> float:
    """Magnitude k^2/(log log x)^3 of the dropped remainder term."""
    if not x > _E_TO_E:
        raise DomainError(f"needs x > e^e, got {x}")
    llx = math.log(math.log(x))
    return k * k / llx ** 3


def corollary_window(x) -> tuple[float, float]:
    """Admissible k range (log log x)/2 - 1 .. (log log x)/2 + sqrt((log log x)/2)."""
    if not x > _E_TO_E:
        raise DomainError(f"needs x > e^e, got {x}")
    half = math.log(math.log(x)) / 2.0
    return half - 1.0, half + math.sqrt(half)


def corollary_lower_bound(x, k: int) -> float:
    """Lower bound c * main-term with c = 0.802, valid on the corollary window."""
    lo, hi = corollary_window(x)
    if not lo <= k <= hi:
        raise DomainError(
            f"k = {k} outside the uniformity window [{lo:.4f}, {hi:.4f}]")
    return ADMISSIBLE_C * meng_estimate(x, k, "main")


def compare(x_grid: Sequence[int], k_set: Sequence[int],
            **meng_kwargs) -> list[CountReport]:
    """One CountReport per (x, k) pair; expansion fields are None where the
    expansion's own guards exclude the pair (k = 1, small x, k too large)."""
    reports = []
    for x in x_grid:
        for k in k_set:
            exact = pi_k_exact(x, k)
            landau = landau_term(x, k)
            try:
                main = meng_estimate(x, k, "main", **meng_kwargs)
                full = meng_estimate(x, k, "full", **meng_kwargs)
            except DomainError:
                main = full = None
            ratio = exact / main if main else None
            reports.append(CountReport(x, k, exact, landau, main, full, ratio))
    return reports
