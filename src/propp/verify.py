"""Exhaustive Property-P decision and the square-sum divisibility test.

Property P: a strictly increasing sequence a_1 < a_2 < ... where no
a_i divides a_j + a_k for any i < j < k.  The check scans outer indices i
in order and reports the lexicographically first witness (i, j, k), so a
failing sequence always reports the same one.

The divisor lattice decides most outer indices of square sequences such as
S without residues.  Let a_i = r^2 where r has no prime factor = 1 mod 4.
Then r^2 divides x^2 + y^2 exactly when r divides both x and y:

* for p = 3 mod 4, -1 is not a square mod p, so p | x^2 + y^2 forces p | x
  and p | y, and by induction v_p(x^2 + y^2) = 2 min(v_p x, v_p y);
* for p = 2, x^2 + y^2 = 2 mod 4 when x, y are odd, so
  2^{2f} | x^2 + y^2 exactly when 2^f divides x and y.

So a square pair (a_j, a_k) is a witness for i exactly when r divides
both roots.  Array passes decide the lattice indices before the loop.  A
square pair is found from the divisor side: the trial division that proves
a root lattice also factors it, so each root's proper divisors are
enumerated from its primes and exponents and looked up in the sorted
roots, and a root found twice divides two others (6-7 lookups a root of S,
whose roots share no divisor: see `check_union_property_p`).  Inputs whose
roots it cannot all factor, and tiny ones, take the multiple side: each
root r's multiples c r (c >= 2) are looked up in the sorted roots (or,
when they outnumber the tail, the tail is reduced mod r).  A pair with a
non-square a_t needs a_k = m a_i - a_t, k != t, for m a_i in [a_{i+1} +
a_t, a_{n-1} + a_t], looked up in the sequence unless the m outnumber the
tail, which leaves i undecided.  The loop visits the other live indices,
the undecided and the flagged.

Every outer index is planned before the scan: skipped when no multiple
of a_i lies in [a_{i+1} + a_{i+2}, a_{n-2} + a_{n-1}], where every pair
sum lies; decided by the lattice when a_i is a square whose root is
proven free of prime factors = 1 mod 4 and its tail holds fewer
non-squares than its length has bits (past that, residues of the whole
tail cost no more); else by reducing the tail mod a_i and looking for a
residue pair summing to 0 or a_i.  Values past 2^62 take the same path
as Python ints in an object array.  The loop runs one pair routine on
the tail residues of each index it visits: it decides whether a pair
exists and, if one does, names the lexicographically first.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .construct import s_roots
from .counting import blocks
from .errors import ResourceError, require_int
from .primes import IS_PRIME_EXACT_BELOW, is_prime, primes_upto
from .seqfile import validate_sequence

# Without force, a plan may reduce at most this many tail residues: what
# 3,108 values cost when every outer index reduces its whole tail (the tails
# n-1-i, i < n-2, sum to C(n, 2) - 1); ~0.35 s of scan on a 2-vCPU VM.
_RESIDUE_BUDGET = math.comb(3108, 2) - 1
# A residue past 2^62 (object array), priced in int64 ones: on the same VM, with
# force, 2,000 random values: 708-880 ns a residue in [2^70, 2^80), 56-76 in [1e15, 1e16).
_BIG_RESIDUE_WEIGHT = 11

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
    c = math.comb
    return c(n, 3) - c(n - i, 3) + c(n - i - 1, 2) - c(n - j, 2) + (k - j)


# A composite cofactor of n < 10^14 has a divisor <= 10^7, so the cap
# changes no answer there; dividing up to it took 0.5 s on a 2-vCPU VM.
_TRIAL_DIVISION_CAP = 10 ** 7
_FACTOR_BLOCK = 1 << 16  # primes made Python ints at once: all to 10^7 traced 22.8 MiB


def _verdict(n: int, at: Optional[tuple[int, int, int]], value) -> Verdict:
    """The Verdict on n values with first witness at indices `at` (or None)."""
    if at is None:
        return Verdict(True, None, None, math.comb(n, 3))
    return Verdict(False, tuple(value(t) for t in at), at, _lex_rank(n, *at))


def _prime_factors(n: int):
    """Distinct prime factors of n >= 1, ascending, by trial division.

    Trial divisors are the stored primes up to _TRIAL_DIVISION_CAP, made
    Python ints a block at a time; they stop once the cofactor m is 1 or
    passes Miller-Rabin, which proves it prime below 3.3e24.  A composite
    cofactor with no divisor up to the cap raises ResourceError.
    """
    m = n
    if m > 1 and not is_prime(m):
        stored = primes_upto(min(_TRIAL_DIVISION_CAP, math.isqrt(m)))
        for p in itertools.chain.from_iterable(stored[s:s + _FACTOR_BLOCK].tolist()
                                               for s in range(0, len(stored), _FACTOR_BLOCK)):
            if m % p:
                continue
            yield p
            while m % p == 0:
                m //= p
            if m == 1 or is_prime(m):
                break
        else:  # a composite m has a divisor <= isqrt(m), so the cap < isqrt(m)
            raise ResourceError(
                f"{m} has no prime factor up to {_TRIAL_DIVISION_CAP}; "
                "factoring it is beyond the trial-division budget")
    if m > 1:
        yield m


# Roots of squares up to 2^62 (the int64 path) are <= 2^31, so trial
# division to isqrt(2^31) decides every one of them.
_LATTICE_TRIAL_BOUND = math.isqrt(math.isqrt(_NUMPY_VALUE_CEILING))


def _lattice_roots(roots: np.ndarray, factors: bool = False):
    """(does each ascending root provably have no prime factor = 1 mod 4;
    with `factors`, each root's distinct primes P and their exponents E as
    (n, w) rows, a prime 1 of exponent 0 padding a row, or None if a root
    is not fully factored).  Each prime p up to min(isqrt(max root),
    isqrt(2^31)) is divided out of the roots in play; a root leaves play
    once its cofactor is below p^2 (then 1 or a prime).  A cofactor past
    bound^2 counts as prime only if is_prime proves it (below 3.3e24)."""
    cof = roots.copy()
    at = np.arange(len(cof))  # positions of the roots still in play
    done = np.empty_like(cof)  # cofactors of the roots out of play
    proven = np.ones(len(cof), dtype=bool)
    two = cof & -cof
    cof //= two  # the odd part: a factor 2 never bars the lattice
    found = [(np.flatnonzero(two > 1), 2, two[two > 1])] if factors else []  # (roots, p, p^e)
    bound = min(math.isqrt(int(roots[-1])), _LATTICE_TRIAL_BOUND)
    for p in primes_upto(bound).tolist()[1:]:
        out = cof < p * p
        if out.any():
            done[at[out]] = cof[out]
            at, cof = at[~out], cof[~out]
            if not at.size:
                break
        hit = np.flatnonzero(cof % p == 0)
        if p % 4 == 1:
            proven[at[hit]] = False
        power = cof[hit] if factors else None
        divide = hit
        while divide.size:  # p^2 | r matters: divide p out to its full power
            cof[divide] //= p
            divide = divide[cof[divide] % p == 0]
        if factors and hit.size:
            found.append((at[hit], p, power // cof[hit]))
    done[at] = cof
    proven &= (done == 1) | (done % 4 != 1)
    # with factors, every cofactor past bound^2 must be a proven prime
    big = [t for t in np.flatnonzero((proven | factors) & (done > bound * bound)).tolist()
           if not (int(done[t]) < IS_PRIME_EXACT_BELOW and is_prime(int(done[t])))]
    proven[big] = False
    if not factors or big:
        return proven, None
    rest = np.flatnonzero(done > 1)
    found.append((rest, done[rest], done[rest]))
    own = np.concatenate([f[0] for f in found])
    order = np.argsort(own, kind="stable")  # each root's primes stay ascending
    own, p = own[order], np.concatenate([np.broadcast_to(f[1], len(f[0])) for f in found])[order]
    e = np.rint(np.log(np.concatenate([f[2] for f in found])[order]) / np.log(p))
    count = np.bincount(own, minlength=len(roots))
    slot = np.arange(len(own)) - (np.cumsum(count) - count)[own]
    P = np.ones((len(roots), int(count.max(initial=0))), np.int64)
    E = np.zeros(P.shape, np.int8)
    P[own, slot], E[own, slot] = p, e
    return proven, (P, E)


def _first_pair(res: np.ndarray, ai: int) -> Optional[tuple[int, int]]:
    """Smallest (j, k), j < k, with res[j] + res[k] == 0 mod ai, for
    residues in [0, ai), int64 or object.  A pair exists when some residue
    u meets its partner (ai - u) % ai among the distinct residues, itself
    only if it occurs twice.  The first j with a partner is then the first
    occurrence of a residue with one, and no occurrence of its partner
    comes before it (that partner's first would be an earlier such j)."""
    u, c = np.unique(res, return_counts=True)
    w = (ai - u) % ai
    match = u[np.minimum(np.searchsorted(u, w), len(u) - 1)] == w
    paired = u[match & ((w != u) | (c > 1))]
    if not paired.size:
        return None
    j = int(np.argmax(paired[np.minimum(np.searchsorted(paired, res), len(paired) - 1)] == res))
    return j, j + 1 + int(np.argmax(res[j + 1:] == (ai - res[j]) % ai))


# candidates looked up at once, bounding the scan's working arrays: `verify`
# on S <= 10^14 peaked at 46.6 MB with 2^16 and 56.1 MB with 2^18 (45.5 before)
_LOOKUP_BLOCK = 1 << 16
# divisors enumerated and looked up at once for the union (`_layer_factors`)
_DIVISOR_BLOCK = 1 << 12
# The lattice takes the divisor side past this many multiples walked a root.
# On a 2-vCPU VM, best of 25: S <= 10^12 (16 walked a root, 6.2 proper
# divisors) was decided in 6.0 ms so against 7.8 ms walking, and the squares
# of 4,000 class-3 primes (1.6 walked a root) in 4.6 against 3.3 ms.
_WALKS_A_ROOT = 8


def _proper_divisors(P: np.ndarray, E: np.ndarray) -> np.ndarray:
    """The proper divisors of each row's root, the product of P ** E over
    the row, in no order: column by column, the divisors so far of a row
    with p = P[., c] and e = E[., c] are joined by their multiples by p^a,
    a = 1 .. e; then each row's root itself is dropped."""
    d, own = np.ones(len(P), np.int64), np.arange(len(P))
    for p, e in zip(P.T, E.T):
        parts, owners = [d], [own]
        for a in range(1, int(e.max(initial=0)) + 1):
            keep = e[own] >= a
            own = own[keep]
            d = d[keep] * p[own]
            parts.append(d)
            owners.append(own)
        d, own = np.concatenate(parts), np.concatenate(owners)
    return d[d != np.prod(P ** E, axis=1)[own]]


def _divided_twice(roots: np.ndarray, factor_rows) -> np.ndarray:
    """The positions in the ascending int64 `roots` of those that divide two
    other roots, from `factor_rows`, blocks (P, E) of `_proper_divisors`
    rows that together factor every root once: each proper divisor of a
    root is looked up in `roots`, so a root found twice divides two others."""
    hits = [np.zeros(0, np.int64)]
    for P, E in factor_rows:
        d = np.sort(_proper_divisors(P, E))  # ascending keys search faster
        at = np.minimum(np.searchsorted(roots, d), len(roots) - 1)
        hits.append(at[roots[at] == d])
    at, count = np.unique(np.concatenate(hits), return_counts=True)
    return at[count >= 2]


def _count_hits(counts: np.ndarray, candidate, table: np.ndarray) -> np.ndarray:
    """How many of candidate(o, 0 .. counts[o] - 1) lie in the ascending
    `table`, for each owner o; one searchsorted per _LOOKUP_BLOCK candidates."""
    hits = np.zeros(len(counts), dtype=np.int64)
    for owner, offset in blocks(counts, _LOOKUP_BLOCK):
        values = candidate(owner, offset)
        found = table[np.minimum(np.searchsorted(table, values), len(table) - 1)] == values
        lo, hi = owner[0], owner[-1] + 1  # a block's owners are a run: count only there
        hits[lo:hi] += np.bincount(owner[found] - lo, minlength=hi - lo)
    return hits


def _two_multiples(roots: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Are two of roots[t + 1:] multiples of r = roots[t], for each t in `at`?
    Walks c r, 2 <= c <= max root // r, where fewer than the tail, else
    reduces the tail mod r, in blocks of rows (all at once if they fit one)."""
    r = roots[at]
    # no root before r is its multiple, so each row below counts r itself too
    if len(at) * len(roots) <= _LOOKUP_BLOCK:
        return (roots[at[0]:] % r[:, None] == 0).sum(axis=1) >= 3
    walks = np.minimum(roots[-1] // r, len(roots)).astype(np.int64) - 1  # clip, then int64
    long = walks >= len(roots) - 1 - at
    out = _count_hits(np.where(long, 0, walks), lambda o, c: (c + 2) * r[o], roots) >= 2
    red, step = np.flatnonzero(long), max(1, _LOOKUP_BLOCK // len(roots))
    for k in (red[start:start + step] for start in range(0, len(red), step)):
        out[k] = (roots[at[k[0]]:] % r[k, None] == 0).sum(axis=1) >= 3
    return out


def _non_square_pairs(a_np: np.ndarray, at: np.ndarray, ns_np: np.ndarray,
                      ns_upto: np.ndarray) -> np.ndarray:
    """For each i in `at`, each with non-squares t > i at the positions
    `ns_np`: is some a_k = m a_i - a_t, k != t, in the sequence, or do the
    m outnumber i's tail, leaving i undecided?"""
    n = len(a_np)
    per = ns_upto[-1] - ns_upto[at]
    owner = np.repeat(np.arange(len(at)), per)
    first = np.cumsum(per) - per
    t = ns_np[np.arange(len(owner)) - first[owner] + ns_upto[at][owner]]
    ai, at_ = a_np[at][owner], a_np[t]
    lo = -(-(a_np[at + 1][owner] + at_) // ai)
    # clipped to n before int64, since past 2^62 a count may not fit
    counts = np.minimum(np.maximum((a_np[-1] + at_) // ai - lo + 1, 0), n).astype(np.int64)
    undecided = np.add.reduceat(counts, first) > n - 1 - at
    counts[undecided[owner]] = 0

    def candidate(o, m):  # k = t is no pair; 0 is in no sequence
        values = (lo[o] + m) * ai[o] - at_[o]
        return np.where(values == at_[o], 0, values)
    hits = _count_hits(counts, candidate, a_np)
    return (np.bincount(owner, weights=hits, minlength=len(at)) > 0) | undecided


def _plan(a_np: np.ndarray, roots_np: np.ndarray, square: np.ndarray,
          ns_upto: np.ndarray, force: bool):
    """Masks over the outer indices i < n - 2: `live` where a multiple of
    a_i lies in [a_{i+1} + a_{i+2}, a_{n-2} + a_{n-1}], `lattice` where the
    lattice decides i; and (first, P, E), the factor rows of the roots
    from the first lattice candidate's on, when trial division completes
    them and the input is past the direct reduction.  Without `force` a
    plan past _RESIDUE_BUDGET tail residues, _BIG_RESIDUE_WEIGHT each in an
    object array, raises ResourceError."""
    head = a_np[:-2]
    live = (a_np[-2] + a_np[-1]) // head > (a_np[1:-1] + a_np[2:] - 1) // head
    tail = np.arange(len(a_np) - 1, 1, -1)  # n - 1 - i
    tail_ns = ns_upto[-1] - ns_upto[:-2]
    lattice = live & square[:-2] & (tail_ns < np.frexp(tail)[1])  # bit_length
    weight = _BIG_RESIDUE_WEIGHT if a_np.dtype == object else 1

    def refuse_past_budget() -> None:
        price = 0 if force else weight * int(tail[live & ~(lattice & (tail_ns == 0))].sum())
        if price > _RESIDUE_BUDGET:
            raise ResourceError(
                f"the scan's tail residues are priced at {price}, past the budget of "
                f"{_RESIDUE_BUDGET}; pass force (CLI: --force) to scan anyway")
    refuse_past_budget()  # every candidate taken as lattice: a lower bound
    at = np.flatnonzero(lattice)
    factors = None
    if at.size:  # a square at i has i - ns_upto[i] squares before it
        t = at - ns_upto[at]
        # the divisor side where int64 roots would walk many multiples each
        if (roots_np.dtype == np.int64 and len(at) * len(roots_np) > _LOOKUP_BLOCK
                and int(np.minimum(roots_np[-1] // roots_np[t], len(roots_np)).sum())
                > _WALKS_A_ROOT * (len(roots_np) - int(t[0]))):
            # every multiple of a candidate's root is among the roots from the first
            proven, rows = _lattice_roots(roots_np[t[0]:], factors=True)
            lattice[at] = proven[t - t[0]]
            factors = None if rows is None else (int(t[0]), *rows)
        else:
            lattice[at] = _lattice_roots(roots_np[t])[0]
        refuse_past_budget()
    return live, lattice, factors


def _scan(a: list[int], force: bool) -> Optional[tuple[int, int, int]]:
    """Lexicographically first witness (i, j, k), or None."""
    a_np = np.array(a, dtype=np.int64 if a[-1] <= _NUMPY_VALUE_CEILING else object)
    # below 2^62 the float root of a square rounds to its root
    r = (np.array([math.isqrt(v) for v in a], dtype=object) if a_np.dtype == object
         else np.rint(np.sqrt(a_np)).astype(np.int64))
    square = r * r == a_np
    roots_np = r[square]
    if roots_np.dtype == object and roots_np.size and roots_np[-1] < 1 << 63:
        roots_np = roots_np.astype(np.int64)
    ns_upto = np.cumsum(~square)  # non-squares at positions <= t
    live, lattice, factors = _plan(a_np, roots_np, square, ns_upto, force)
    # the passes decide the lattice: a lattice index stays live where they
    # find a pair or leave it undecided
    at = np.flatnonzero(lattice)
    if at.size:
        if factors is None:
            live[at] = _two_multiples(roots_np, at - ns_upto[at])
        else:
            first, P, E = factors
            step = max(1, _LOOKUP_BLOCK // int(np.prod(E + 1, axis=1, dtype=np.int64).max()))
            rows = ((P[s:s + step], E[s:s + step]) for s in range(0, len(P), step))
            live[at] = np.isin(at - ns_upto[at] - first, _divided_twice(roots_np[first:], rows))
        more = at[~live[at] & (ns_upto[at] < ns_upto[-1])] if ns_upto[-1] > ns_upto[at[0]] else []
        if len(more):  # lattice indices with a non-square after them
            live[more] = _non_square_pairs(a_np, more, np.flatnonzero(~square), ns_upto)
    for i in np.flatnonzero(live).tolist():
        found = _first_pair(a_np[i + 1:] % a[i], a[i])
        if found is not None:
            j, k = found
            return i, i + 1 + j, i + 1 + k
    return None


def check_property_p(seq: Sequence[int], *, force: bool = False) -> Verdict:
    """Decide Property P for a strictly ascending sequence.

    Raises SequenceFormatError on malformed input, and ResourceError when
    the scan's plan is past its residue budget unless `force` is given.
    """
    return decide_property_p(validate_sequence(seq), force=force)


def decide_property_p(a: list[int], *, force: bool = False) -> Verdict:
    """`check_property_p` for a list that `validate_sequence` already
    returned, such as `seqfile.read_sequence`'s; it is not checked again."""
    return _verdict(len(a), _scan(a, force) if len(a) > 2 else None, a.__getitem__)


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
    for p in _prime_factors(n1):
        if p % 4 == 3 and g % p != 0:
            if (n2 * n2 + n3 * n3) % (n1 * n1) == 0:
                return Lemma1Result(APPLICABLE_VIOLATED, p)
            return Lemma1Result(APPLICABLE_VERIFIED, p)
    return Lemma1Result(NOT_APPLICABLE, None)


# check_union_property_p holds S's ascending roots and their factor rows, 8
# bytes a root and 4 a prime of nu, and working arrays of a few thousand
# rows or divisors: traced, 10^14 peaked at 1.01 MB, 8 N + 4 F + 283 KB for
# its N roots and F primes of nu (the prime store filled before), and 10^16
# at 7.10 MB, 8 N + 4 F + 764 KB.  8 more bytes a root cover them from 10^14.
_UNION_ROOT_BYTES, _UNION_FACTOR_BYTES = 16, 4


def _layer_factors(layers):
    """`_proper_divisors` rows (P, E) for the layers (q, rows) of S, a root
    q^2 times its row's product (q of exponent 0 when q = 1), at most
    _DIVISOR_BLOCK divisors at a time."""
    for q, rows in layers:
        step = max(1, _DIVISOR_BLOCK >> (rows.shape[1] + 2))  # < 4 * 2^i divisors a row
        for s in range(0, len(rows), step):
            part = rows[s:s + step]
            has_q = part == q
            yield (np.column_stack([np.full(len(part), q), part]),
                   np.column_stack([2 * (q > 1) + has_q.any(axis=1), ~has_q]))


def check_union_property_p(limit: int, *, exclude_qi: bool = False) -> Verdict:
    """Property P on the constructed union up to `limit`, decided from the
    divisor side.  The lemma above decides a root's outer index by its
    multiples among the roots, so `_divided_twice` enumerates the proper
    divisors of every root from S's factor rows and looks them up; a root
    found twice is a witness.  A root with a prime factor = 1 mod 4 (none
    in S) takes the residue scan instead.  The roots of S form a
    divisibility antichain: a root q_i^2 nu has q_i as its only prime of
    exponent >= 2, so a root q_j^2 mu dividing it has j = i, then mu | nu,
    and both have i primes.  So on S itself the pass finds no divisor and
    answers "holds"; only planted roots reach its witness path.
    `s_roots` counts S first and raises ResourceError past the memory
    budget at _UNION_ROOT_BYTES a root and _UNION_FACTOR_BYTES a factor."""
    roots, layers = s_roots(limit, exclude_qi, _UNION_ROOT_BYTES, _UNION_FACTOR_BYTES)
    n = len(roots)
    twice = _divided_twice(roots, _layer_factors(layers)) if n > 2 else np.zeros(0, np.int64)
    odd = [q * q * np.prod(rows[m], axis=1, dtype=np.int64) for q, rows in layers
           if (m := (np.remainder(rows, 4, dtype=np.uint8) == 1).any(axis=1)
               | (q % 4 == 1)).any()]  # a byte a prime, not four
    at = None
    odd = np.searchsorted(roots, np.concatenate([np.zeros(0, np.int64)] + odd))
    for i in np.union1d(twice, odd).tolist():
        ai = int(roots[i]) ** 2
        tail = roots[i + 1:] if int(roots[-1]) ** 2 < 1 << 63 else roots[i + 1:].astype(object)
        pair = _first_pair(tail * tail % ai, ai) if len(tail) > 1 else None
        if pair is not None:
            at = (i, *(i + 1 + t for t in pair))
            break
    return _verdict(n, at, lambda t: int(roots[t]) ** 2)
