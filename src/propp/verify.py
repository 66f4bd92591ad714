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
both roots: the scan asks whether two later square roots are multiples
of r, walking r's multiples through a set of the roots or testing the
tail roots, whichever is shorter.  A pair touching a non-square a_t
needs residues: a_k = -a_t (mod a_i) with k != t, one lookup per
non-square over the tail residues.

Every outer index is planned before the scan: skipped when no multiple
of a_i lies in [a_{i+1} + a_{i+2}, a_{n-2} + a_{n-1}], where every pair
sum lies; decided by the lattice when a_i is a square whose root is
proven free of prime factors = 1 mod 4 and its tail holds fewer
non-squares than its length has bits (past that, residues of the whole
tail cost no more); else by reducing the tail mod a_i and looking for a
residue pair summing to 0 or a_i.  Values past 2^62 take the same path
as Python ints in an object array.  Whichever path finds a witness for
i, the same generic routine picks the lexicographically first pair.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, islice
from typing import Optional, Sequence

import numpy as np

from .construct import enumerate_s
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
    rank = sum(math.comb(n - 1 - t, 2) for t in range(i))
    rank += sum(n - 1 - t for t in range(i + 1, j))
    return rank + (k - j)


# A composite cofactor of n < 10^14 has a divisor <= 10^7, so the cap
# changes no answer there; dividing up to it took 0.5 s on a 2-vCPU VM.
_TRIAL_DIVISION_CAP = 10 ** 7


def _prime_factors(n: int):
    """Distinct prime factors of n >= 1, ascending, by trial division.

    Trial divisors run up to _TRIAL_DIVISION_CAP and stop once the
    cofactor m is 1 or passes Miller-Rabin, which proves it prime below
    3.3e24.  A composite cofactor with no divisor up to the cap raises
    ResourceError.
    """
    m = n
    if m % 2 == 0:
        yield 2
        m >>= (m & -m).bit_length() - 1
    d = 3
    while m > 1 and not is_prime(m):
        top = min(_TRIAL_DIVISION_CAP, math.isqrt(m))
        d = next((t for t in range(d, top + 1, 2) if m % t == 0), 0)
        if not d:
            # a composite m has a divisor <= isqrt(m), so top < isqrt(m)
            raise ResourceError(
                f"{m} has no prime factor up to {_TRIAL_DIVISION_CAP}; "
                "factoring it is beyond the trial-division budget")
        yield d
        while m % d == 0:
            m //= d
    if m > 1:
        yield m


# Roots of squares up to 2^62 (the int64 path) are <= 2^31, so trial
# division to isqrt(2^31) decides every one of them.
_LATTICE_TRIAL_BOUND = math.isqrt(math.isqrt(_NUMPY_VALUE_CEILING))


def _lattice_roots(roots: np.ndarray) -> list[bool]:
    """Does each ascending root provably have no prime factor = 1 mod 4?
    Each prime p up to min(isqrt(max root), isqrt(2^31)) is divided out of
    the roots in play; a root leaves play once its cofactor is below p^2
    (then 1 or a prime).  A cofactor past bound^2 counts only if is_prime
    proves it prime (below 3.3e24)."""
    cof = roots.copy()
    at = np.arange(len(cof))  # positions of the roots still in play
    done = np.empty_like(cof)  # cofactors of the roots out of play
    proven = np.ones(len(cof), dtype=bool)
    bound = min(math.isqrt(int(cof[-1])), _LATTICE_TRIAL_BOUND)
    for p in primes_upto(bound).tolist():
        out = cof < p * p
        if out.any():
            done[at[out]] = cof[out]
            at, cof = at[~out], cof[~out]
            if not at.size:
                break
        hit = np.flatnonzero(cof % p == 0)
        if p % 4 == 1:
            proven[at[hit]] = False
        while hit.size:  # p^2 | r matters: divide p out to its full power
            cof[hit] //= p
            hit = hit[cof[hit] % p == 0]
    done[at] = cof
    proven &= (done == 1) | (done % 4 != 1)
    for t in np.flatnonzero(proven & (done > bound * bound)).tolist():
        c = int(done[t])
        proven[t] = c < IS_PRIME_EXACT_BELOW and is_prime(c)
    return proven.tolist()


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


def _non_square_pair_exists(res: np.ndarray, ns: np.ndarray, ai: int) -> bool:
    """Is res[t] + res[k] = 0 mod ai for a non-square tail position t in
    `ns` and some k != t?  One pass over the tail per t."""
    for t in ns.tolist():
        rt = int(res[t])
        want = (ai - rt) % ai
        if np.count_nonzero(res == want) > (rt == want):
            return True
    return False


def _two_multiples(r: int, after: int, root_set: set, roots_np: np.ndarray) -> bool:
    """Are at least two of the square roots roots_np[after:] multiples of r?"""
    top = int(roots_np[-1])
    if top // r <= len(roots_np) - after:
        # c*r with c >= 2 exceeds r, so its square lies past a_i = r^2
        hits = (c for c in range(2 * r, top + 1, r) if c in root_set)
        return next(islice(hits, 1, None), None) is not None
    return int(np.count_nonzero(roots_np[after:] % r == 0)) >= 2


def _plan(a_np: np.ndarray, roots_np: np.ndarray, square: np.ndarray,
          ns_upto: np.ndarray, force: bool) -> tuple[np.ndarray, np.ndarray]:
    """Masks over the outer indices i < n - 2: `live` where a multiple of
    a_i lies in [a_{i+1} + a_{i+2}, a_{n-2} + a_{n-1}], `lattice` where the
    lattice decides i.  Without `force` a plan past _RESIDUE_BUDGET tail
    residues, _BIG_RESIDUE_WEIGHT each in an object array, raises ResourceError."""
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
    if at.size:  # a square at i has i - ns_upto[i] squares before it
        lattice[at] = _lattice_roots(roots_np[at - ns_upto[at]])
        refuse_past_budget()
    return live, lattice


def _scan(a: list[int], force: bool) -> Optional[tuple[int, int, int]]:
    """Lexicographically first witness (i, j, k), or None."""
    a_np = np.array(a, dtype=np.int64 if a[-1] <= _NUMPY_VALUE_CEILING else object)
    isqrts = [math.isqrt(v) for v in a]
    square = np.array([r * r == v for r, v in zip(isqrts, a)])
    ns_upto = np.cumsum(~square)  # non-squares at positions <= t
    roots = list(compress(isqrts, square.tolist()))
    roots_np = np.array(roots, dtype=np.int64 if roots and roots[-1] < 1 << 63 else object)
    live, lattice = _plan(a_np, roots_np, square, ns_upto, force)
    root_set = set(roots) if lattice.any() else set()
    ns_np = np.flatnonzero(~square)  # non-square positions
    for i in compress(range(len(a) - 2), live.tolist()):
        ai = a[i]
        res = None  # tail residues mod a_i, once a path needs them
        if lattice[i]:
            hit = _two_multiples(isqrts[i], i + 1 - int(ns_upto[i]), root_set, roots_np)
            if not hit and ns_upto[i] < ns_upto[-1]:
                res = a_np[i + 1:] % ai
                hit = _non_square_pair_exists(res, ns_np[ns_upto[i]:] - (i + 1), ai)
        else:
            res = a_np[i + 1:] % ai
            hit = _pair_exists(res, ai)
        if not hit:
            continue
        found = _first_pair((a_np[i + 1:] % ai if res is None else res).tolist(), ai)
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
    n = len(a)
    if n < 3:
        return Verdict(True, None, None, 0)
    witness_at = _scan(a, force)
    if witness_at is None:
        return Verdict(True, None, None, math.comb(n, 3))
    i, j, k = witness_at
    return Verdict(False, (a[i], a[j], a[k]), (i, j, k), _lex_rank(n, i, j, k))


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


def check_union_property_p(limit: int, *, exclude_qi: bool = False) -> Verdict:
    """Property P on the constructed union up to `limit`.

    Every root of S has only prime factors = 3 mod 4, so each outer index
    takes the divisor lattice or is skipped, and the scan's plan reduces no
    residue.  `enumerate_s` counts S first and, past the memory budget,
    raises ResourceError before walking.
    """
    return check_property_p([e.value for e in enumerate_s(limit, exclude_qi)])
