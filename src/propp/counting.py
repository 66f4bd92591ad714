"""Exact and asymptotic counting of squarefree k-almost-primes whose
prime factors all lie in the class 3 mod 4.

pi_k(x;4,3) counts n <= x with omega(n) = Omega(n) = k and every p | n
congruent 3 mod 4.  The exact count enumerates ascending tuples of k - 1
class-3 primes level by level in arrays (`prime_tuples`) and counts the
last factor in one lookup of pi(v;4,3) a tuple, where every v is some
floor(x/m) with m odd.  Those lookups read the prime store when it
already covers them; otherwise a Lucy_Hedgehog table of pi(v;4,3) over
those v answers them after sieving only to sqrt(x) (Lagarias-Miller-
Odlyzko, Math. Comp. 44, 1985).  The layers of the set S are counted
through it as well (`count_s_i`, and `count_s` for all of them from one
table).
The asymptotic side evaluates Landau's classical term

    x (log log x)^(k-1) / ((k-1)! log x)

and the refined class-restricted expansion whose leading factor is that
term divided by 2^k, with second-order corrections driven by C(3,4) and
the curvature h'' from the analytic-constants module.  All factorials run
in log space so large k cannot overflow.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import constants
from .errors import DomainError, ResourceError, require_fits, require_int
from .primes import class3_upto, nth_q, primes_upto, sieved_limit, store_key

# One price for every class-3 count, in units of the Lucy table's work
# x^(3/4) / ln x.  On a 2-vCPU VM the table took ~47 ns a unit at x = 10^12
# (1.7 s, 70 MB) and ~53 ns at 10^13 (9.9 s, 149 MB for 1.9e8 units), so
# the budget, ~10 s of table, admits x = 10^13 and refuses 1.1e14 (1.05e9).
_WORK_BUDGET = 2 * 10 ** 8
# A tuple of `prime_tuples` in those units: 54-106 ns a tuple on the same VM over
# eight counts of 2.7e5-1.5e7 tuples (pi_3(10^13) to pi_17(10^30)); it holds
# 68-71 bytes, traced, while its level is built
_TUPLE_WEIGHT = 2
_TUPLE_BYTES = 72
# pairs (P, p) pi_k counts at once: at 2^12 the warm pi_3(10^9 + 7) traced 328 KiB
_PAIR_BLOCK = 1 << 11

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


# (i, p) pairs that the batch phase of `_class3_counts` holds at once: 2^12
# and 2^13 ran fastest at x = 10^10 and 10^11, and at 2^13 its temporaries
# add ~0.2 MiB to the table's 4 MiB traced peak at 10^10 and none at 10^11
_BATCH_PAIRS = 1 << 13


def _class3_counts(x: int, primes: np.ndarray):
    """pi(v;4,3) for every v <= sqrt(x) and every v = floor(x/m) with m
    odd, as a vectorised counter that raises ValueError for a v = x // m
    past sqrt(x) with m even; `primes` must hold every prime <= sqrt(x).

    Lucy_Hedgehog's recurrence sums a completely multiplicative weight f
    over 2..v and sifts out the composites prime by prime:
    S(v) -= f(p) (S(v // p) - S(p - 1)) for every v >= p^2.  Here S counts
    odd n >= 3 only, as A(v) for n = 1 mod 4 and B(v) for n = 3 mod 4.
    A + B and A - B are the sums of the weights chi_0 and chi_4, so an odd
    prime p = 1 mod 4 subtracts (dA, dB) = (A(v // p) - A(p - 1),
    B(v // p) - B(p - 1)) from (A(v), B(v)), a p = 3 mod 4 subtracts
    (dB, dA), and at the end B(v) = pi(v;4,3).

    Every v the walk asks for past sqrt(x) is x // m with m odd, so big
    entry k holds [A, B] at x // i for the odd i = 2k + 1 only; its
    update reads big entry i p, odd too.  S(2h) = S(2h - 1), so small
    entry j holds [A, B] at the odd v = 2j - 1.  The p consecutive odd
    v >= p^2 from p (2t + 1) on share S(v // p) = S(2t + 1), so a prime
    sifts the small side with one broadcast subtract over rows of p.

    The sift runs in two phases.  Primes with p^3 <= x go one at a time
    in ascending order, each in a few array operations.  The primes
    above the cube root c = floor(x^(1/3)) then go in one batch: such a
    p changes no small entry (p^2 > sqrt(x)) and writes only the big
    entries i <= x // p^2 < p; it reads small entries and the big
    entries i p >= p > c.  So no batch prime writes an entry that
    another reads, every update sees S as the first phase left it, and
    the batch applies in any order: gathers and one `np.subtract.at`
    over all its (i, p) pairs, _BATCH_PAIRS at a time.
    """
    def unsifted(v):  # rows A, B before any sift: the odd n >= 3 up to v by n mod 4
        return np.stack([v - 1, v + 1]) >> 2
    r = math.isqrt(x)
    small = unsifted(np.arange(-1, r + 1, 2))  # small entry j: v = 2j - 1
    small[0, 0] = 0                             # A(-1): no n at all
    big_v = x // np.arange(1, r + 1, 2)         # big entry k: v = x // (2k + 1)
    big = unsifted(big_v)
    # the odd primes <= r; int64: batch * batch below overflows the store's uint32
    primes = primes[1: int(np.searchsorted(primes, store_key(r), side="right"))].astype(np.int64)
    cut = int(np.searchsorted(primes, _icbrt(x), side="right"))
    reads, delta = np.empty_like(big_v), np.empty_like(big_v)  # reused by every prime
    for p in primes[:cut].tolist():
        h = p >> 1                       # S(p - 1) = S(p - 2) is small entry h
        top = (min(r, x // (p * p)) + 1) >> 1  # entries k < top: x // i >= p^2
        inner = (r // p + 1) >> 1        # k < inner: i p <= r, big entry k p + h
        first = (p * p + 1) >> 1         # small entry of v = p^2
        rows, rest = divmod(max(small.shape[1] - first, 0), p)
        ab = slice(None, None, -1 if p & 3 == 3 else 1)  # p = 3 mod 4: dA off B, dB off A
        # the deltas where reads and writes meet, taken before any write;
        # row t of p small entries from `first` on reads small entry h + 1 + t
        deltas = [(b[h: p * inner: p] - s[h], s[h + 1: h + rows + 2] - s[h])
                  for b, s in zip(big[ab], small[ab])]
        # k >= inner reads small entry (x // (i p) + 1) >> 1, before the small writes
        at, d = reads[: top - inner], delta[: top - inner]
        np.floor_divide(np.add(big_v[inner:top], p, out=at), 2 * p, out=at)
        for b, s in zip(big, small[ab]):
            np.take(s, at, out=d, mode="clip")  # every index is in range: "clip" skips
            d -= s[h]                           # the copy that "raise" makes of `out`
            b[inner:top] -= d
        for b, s, (d_in, d_small) in zip(big, small, deltas):
            b[:inner] -= d_in
            body = s[first: first + rows * p].reshape(rows, p)  # a view
            body -= d_small[:rows, None]
            if rest:
                s[first + rows * p:] -= d_small[rows]
    del reads, delta  # the batch needs neither: freed before the B rows are copied
    batch = primes[cut:]
    tops = (x // (batch * batch) + 1) >> 1  # pairs (k, p) for odd 2k + 1 <= x // p^2
    n = big.shape[1]
    flat = big.reshape(-1)               # A of big entry k at k, B at n + k
    for at, k in blocks(tops, _BATCH_PAIRS):  # at: the pair's prime
        p = batch[at]
        ip = (2 * k + 1) * p
        inner = np.flatnonzero(ip <= r)
        outer = np.minimum((big_v[k] + p) // (2 * p), small.shape[1] - 1)
        deltas = []
        for b, s in zip(big, small):
            # S(x // (i p)): the big entry of i p while i p <= r, else small
            d = s[outer]
            d[inner] = b[ip[inner] >> 1]
            d -= s[p >> 1]
            deltas.append(d)
        # dA goes to A for p = 1 mod 4 and to B for p = 3 mod 4, dB to the other
        swap = n * ((p >> 1) & 1)
        np.subtract.at(flat, np.concatenate([k + swap, k + n - swap]), np.concatenate(deltas))
    # copies, so the counter does not keep the A rows alive through the walk
    small_c3, big_c3 = small[1].copy(), big[1].copy()

    def count(v):
        v = np.asarray(v, dtype=np.int64)
        below = v <= r
        m = x // np.where(below, x, v)   # v = x // m past sqrt(x)
        if not (m & 1).all():
            raise ValueError(f"the pi(v;4,3) table for x = {x} holds no x // m with m even")
        return np.where(below, small_c3[(np.minimum(v, r) + 1) >> 1], big_c3[m >> 1])
    return count


def _class3_counter(x: int, k: int):
    """(class-3 primes, pi(v;4,3) for every v = floor(x/m), m odd) for
    pi_k(x;4,3), or None once q_1...q_k > x: the store when it
    covers the largest leaf L = x // (q_1...q_{k-1}), else the cheaper
    within _WORK_BUDGET of a Lucy_Hedgehog table for x (sieving to sqrt(x))
    and the store filled to L, a unit an integer: ~2-3 ns of sieve (0.2 s at
    10^8, 3 s at 10^9), but ~0.7 byte of store (67 MB at 10^8) against ~1.9
    bytes a table unit (70 MB at 10^12)."""
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
    """Exact pi_k(x;4,3), its last factor counted, never enumerated."""
    return _pi_k(x, k, _class3_counter(require_int("x", x), require_int("k", k)))


def _pi_k(x: int, k: int, counter) -> int:
    """pi_k(x;4,3) through `counter`, which must answer every floor(x/m)
    with m odd; None, which `_class3_counter` returns once q_1...q_k > x,
    counts 0.  Each pair (P, p = arr[idx]) of `prime_tuples`' level k - 1
    adds pi(x // (P p);4,3) - (idx + 1), below 0 (clipped) when p^2 P > x."""
    if counter is None:
        return 0
    arr, count = counter
    if k == 1:
        return int(count(x))
    pairs = itertools.islice(prime_tuples(arr, x, k - 1, k, _PAIR_BLOCK), k - 2, None)
    return sum(int(np.maximum(count(quot) - idx - 1, 0).sum()) for quot, idx, _ in pairs)


def blocks(counts: np.ndarray, block: int):
    """(owner, offset) for the cells (o, 0) .. (o, counts[o] - 1) of each
    owner o in turn, `block` cells at a time; a block's owners are a run."""
    ends = np.cumsum(counts)
    for start in range(0, int(ends[-1]) if len(ends) else 0, block):
        flat = np.arange(start, min(start + block, ends[-1]))
        owner = np.searchsorted(ends, flat, side="right")
        yield owner, flat - ends[owner] + counts[owner]


def prime_tuples(primes: np.ndarray, bound: int, levels: int, factors: int,
                 block: Optional[int] = None):
    """For j = 1 .. levels, the ascending j-tuples of `primes` with room for
    `factors` primes under `bound`: (bound // P for each tuple's product P,
    the index in `primes` of its largest prime p, the index of its prefix in
    level j - 1).  Room is P p^(factors - j) <= bound, or p up to 1 past the
    float root where factors > j; such a p has no room at any later level.
    Quotients are Python ints until a level's all fit int64, and None where
    j = factors, as no level follows.  With `block` the last level comes
    `block` tuples at a time.  A level is priced before it is built: at
    _TUPLE_BYTES a tuple against the memory budget (a blocked level at its
    block), and at _TUPLE_WEIGHT units against _WORK_BUDGET with the tuples
    before it and a lower bound on those after it (c children of a prefix
    with exact room make C(c, m + 1) tuples m levels on)."""
    quot, last, spent = np.array([bound], dtype=object), np.full(1, -1), 0
    for need in range(factors, factors - levels, -1):
        if quot.dtype == object and quot.max() < 1 << 63:
            quot = quot.astype(np.int64)
        logs = np.log(quot) if quot.dtype == np.int64 else np.array(
            [math.log(v) for v in quot.tolist()])  # math.log takes any int
        cap = store_key(quot if need == 1 else np.exp(logs / need) + 1)
        counts = np.maximum(np.searchsorted(primes, cap, side="right") - last - 1, 0)
        spent += (total := int(counts.sum()))
        c = b = np.maximum(counts - 1, 0).astype(np.float64)
        later = 0.0
        for m in range(1, min(need - factors + levels, int(c.max()))):
            b = np.minimum(b * (c - m) / (m + 1), _WORK_BUDGET)  # C(c, m + 1), no inf
            later += float(b.sum())
        if (price := _TUPLE_WEIGHT * (spent + later)) > _WORK_BUDGET:
            raise ResourceError(f"the {factors}-tuples of primes under {bound} are priced "
                                f"at {price:.4g} units, past the budget of {_WORK_BUDGET}")
        blocked = block and need == factors - levels + 1
        require_fits(f"level {factors - need + 1} of the {factors}-tuples under {bound}",
                     min(total, block) if blocked else total, _TUPLE_BYTES)
        del logs, cap, c, b  # priced: free them before the level is built
        if not total:
            return
        if blocked:
            parts = ((owner, last[owner] + 1 + offset) for owner, offset in blocks(counts, block))
        else:  # a whole level is its one block
            owner = np.repeat(np.arange(len(counts)), counts)
            at = np.arange(total) - np.repeat(np.cumsum(counts) - counts - last - 1, counts)
            parts = [(owner, at)]
        for owner, at in parts:
            level = (quot[owner] // primes[at] if need > 1 else None), at, owner
            yield level
        quot, last = level[:2]


def nu_bound(i: int, limit: int) -> int:
    """Largest nu with q_i^4 * nu^2 <= limit; 0 when q_i^4 > limit."""
    return math.isqrt(limit // nth_q(i) ** 4)


def _layer(i: int, n: int, exclude_qi: bool, counter) -> int:
    """|S_i ∩ [1, limit]|, pi_i(N;4,3) for N = n = nu_bound(i, limit), through
    a `counter` that answers every floor(n/m) with m odd; with `exclude_qi`,
    over the class-3 primes but q_i."""
    if n < 1 or counter is None:
        return 0
    if exclude_qi:  # the walk takes no prime past sqrt(n): copy only those
        q, (arr, count) = nth_q(i), counter
        arr = arr[: np.searchsorted(arr, store_key(math.isqrt(n)), side="right")]
        counter = arr[arr != q], lambda v: count(v) - (np.asarray(v) >= q)
    return _pi_k(n, i, counter)


def count_s_i(i: int, limit: int, exclude_qi: bool = False) -> int:
    """|S_i ∩ [1, limit]|, counted without enumerating the layer: q_i^4 nu^2
    <= limit exactly when nu <= N = nu_bound(i, limit)."""
    n = nu_bound(require_int("set index", i), require_int("limit", limit))
    return _layer(i, n, exclude_qi, _class3_counter(n, i))


def count_s(limit: int, exclude_qi: bool = False) -> tuple[int, dict[int, int]]:
    """(pi_1(sqrt(limit);4,3), {i: |S_i ∩ [1, limit]|}) from one counter for
    X = isqrt(limit): isqrt(limit // q_i^4) = X // q_i^2, so every budget
    of every layer's count is some floor(X/m) with m odd.  Each layer's
    least element exceeds the one before it, so the layers end at the
    first empty one."""
    x = math.isqrt(require_int("limit", limit))
    counter = _class3_counter(x, 1)
    per_index, i = {}, 1
    while size := _layer(i, x // nth_q(i) ** 2, exclude_qi, counter):
        per_index[i], i = size, i + 1
    return _pi_k(x, 1, counter), per_index


def _log_logs(x, needs: str = "needs x > e^e") -> tuple[float, float]:
    """(log x, log log x) for x > e^e, else DomainError(f"{needs}, got {x}")."""
    if not x > _E_TO_E:
        raise DomainError(f"{needs}, got {x}")
    lx = math.log(x)
    return lx, math.log(lx)


def _main_term(lx: float, llx: float, k: int, shift: float = 0.0) -> float:
    """exp(shift + lx - log lx + (k-1) log llx - log (k-1)!), or inf past
    float range: x (log log x)^(k-1) / ((k-1)! log x), scaled by e^shift."""
    power = (k - 1) * math.log(llx) if k > 1 else 0.0
    try:
        return math.exp(shift + lx - math.log(lx) + power - math.lgamma(k))
    except OverflowError:
        return math.inf


def landau_term(x, k: int) -> float:
    """Landau's asymptotic term for integers with k distinct prime factors.

    Needs log log x > 1 (x > e^e) for k >= 2 so the powers are positive
    and meaningful; the k = 1 specialisation x / log x only needs x > e.
    """
    if require_int("k", k) > 1:
        return _main_term(*_log_logs(x, "landau term needs x > e^e for k >= 2"), k)
    if not x > _E:
        raise DomainError(f"landau term at k=1 needs x > e, got {x}")
    lx = math.log(x)
    return _main_term(lx, math.log(lx), 1)


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
    lx, llx = _log_logs(x, "expansion needs x > e^e")
    if k > DEFAULT_UNIFORMITY_A * llx:
        raise DomainError(
            f"k = {k} exceeds the uniformity bound A log log x = "
            f"{DEFAULT_UNIFORMITY_A * llx:.4f} (A = {DEFAULT_UNIFORMITY_A})")
    main = _main_term(lx, llx, k, -k * math.log(2.0))
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
    return k * k / _log_logs(x)[1] ** 3


def corollary_window(x) -> tuple[float, float]:
    """Admissible k range (log log x)/2 - 1 .. (log log x)/2 + sqrt((log log x)/2)."""
    half = _log_logs(x)[1] / 2.0
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
