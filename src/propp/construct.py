"""Explicit construction of the layered Property-P set S and its baselines.

The i-th layer S_i consists of the integers q_i^4 * nu^2 where nu runs
over squarefree products of exactly i distinct primes p % 4 == 3.  By the
literal definition nu may contain q_i itself; `exclude_qi=True` selects
the coprime variant.  The q_i^4 factor acts as an indicator: it is the
only prime entering any element with valuation >= 4, which pins down the
layer an element belongs to and keeps distinct layers disjoint.

Values are plain Python integers, so elements far beyond 64 bits (the
8th layer already starts near 2e26) enumerate exactly with no overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import window_params_from_logs
from .counting import count_s, count_s_i, nu_bound, pi_k_exact, prime_tuples
from .errors import checked_log, require_fits, require_int
from .primes import class3_upto, nth_q, store_growth_bytes

# Materialised, an element of S costs ~800 bytes at most: `construct --all
# --emit json` peaked at 403 MB for the 483,065 elements below 10^16 (~770
# bytes each over the 30 MB interpreter; the plain walk alone took ~270).
S_ELEMENT_BYTES = 800


@dataclass(frozen=True)
class SetElement:
    """One member of a layer: value = q_i^4 * (prod nu_factors)^2."""

    value: int
    set_index: int
    nu_factors: tuple[int, ...]


def _smallest_nu_primes(i: int, exclude_qi: bool) -> list[int]:
    """The i smallest primes admissible in a nu of layer i, ascending."""
    # they sit among the first i+1 class-3 primes
    pool = [nth_q(j) for j in range(1, i + 2)]
    if exclude_qi:
        del pool[i - 1]  # q_i itself
    return pool[:i]


def min_element(i: int, exclude_qi: bool = False) -> int:
    """Smallest member of S_i: q_i^4 times the square of the i smallest
    admissible primes."""
    require_int("set index", i)
    nu = math.prod(_smallest_nu_primes(i, exclude_qi))
    return nth_q(i) ** 4 * nu * nu


def max_set_index(limit: int, exclude_qi: bool = False) -> int:
    """Largest i whose layer reaches below `limit`; 0 when none does."""
    require_int("limit", limit)
    i = 0
    while min_element(i + 1, exclude_qi) <= limit:
        i += 1
    return i


def enumerate_s_i(i: int, limit: int, exclude_qi: bool = False) -> list[SetElement]:
    """All elements of S_i up to `limit`, ascending by value; counted first,
    so past the memory budget ResourceError comes before the walk."""
    return _elements(i, *s_i_roots(i, limit, exclude_qi))


def s_i_roots(i: int, limit: int, exclude_qi: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(the roots q_i^2 nu of S_i up to `limit`, ascending: int64, or Python
    ints once one could pass 2^63; the (n, i) rows of nu's primes), counted
    first at S_ELEMENT_BYTES an element."""
    require_fits(f"S_{i} up to {limit}", count_s_i(i, limit, exclude_qi), S_ELEMENT_BYTES)
    rows = next(_layer_rows(i, limit, exclude_qi), np.zeros((0, i), np.uint32))
    q = nth_q(i)
    dtype = np.int64 if q * q * nu_bound(i, limit) < 1 << 63 else object
    roots = q * q * np.prod(rows, axis=1, dtype=dtype)
    order = np.argsort(roots, kind="stable")
    return roots[order], rows[order]


def _elements(i: int, roots: np.ndarray, rows: np.ndarray) -> list[SetElement]:
    return [SetElement(r * r, i, tuple(f)) for r, f in zip(roots.tolist(), rows.tolist())]


def _layer_rows(i: int, limit: int, exclude_qi: bool, block: Optional[int] = None):
    """The (n, i) uint32 rows of nu's primes for S_i up to `limit`, in
    `prime_tuples`' order, `block` rows at a time (all at once without):
    each level's primes appended to its prefixes' rows."""
    q = nth_q(i)
    nu_max = nu_bound(i, limit)
    smallest = _smallest_nu_primes(i, exclude_qi)
    if math.prod(smallest) > nu_max:
        return
    # the largest factor of any admissible nu divides out the i-1 smallest
    # admissible primes, so the sieve never needs to reach nu_max itself
    primes = class3_upto(nu_max // math.prod(smallest[:-1]))
    if exclude_qi:
        primes = primes[primes != q]
    prefix = np.zeros((1, 0), np.uint32)
    for _, last, owner in prime_tuples(primes, nu_max, i, i, block):
        rows = np.column_stack([prefix[owner], primes[last]])
        if rows.shape[1] == i:
            yield rows
        else:
            prefix = rows


# rows of a layer built at once by `s_roots`: its working arrays stay small
# beside the roots and rows it keeps
_ROW_BLOCK = 1 << 12


def s_roots(limit: int, exclude_qi: bool = False, root_bytes: int = S_ELEMENT_BYTES,
            factor_bytes: int = 0) -> tuple[np.ndarray, list]:
    """(the roots of S up to `limit`, ascending int64; (q_i, the (n, i)
    uint32 rows of nu's primes) for each layer i, so a root is q_i^2 times
    the product of a row).  Counted first, so past the memory budget at
    `root_bytes` a root and `factor_bytes` a prime of nu ResourceError
    comes before any; the price holds the prime store's growth to layer
    1's sieve bound, the largest.  A root past 2^63 needs a limit past
    2^126, where the budget refuses S long before."""
    counts = count_s(limit, exclude_qi)[1]
    total = sum(counts.values())
    price = sum(n * (root_bytes + i * factor_bytes) for i, n in counts.items())
    price += store_growth_bytes(nu_bound(1, limit))
    require_fits(f"S up to {limit}", total, -(-price // max(total, 1)))
    roots, layers, end = np.empty(total, np.int64), [], 0
    for i, n in counts.items():
        q, rows, start = nth_q(i), np.empty((n, i), np.uint32), end
        for part in _layer_rows(i, limit, exclude_qi, _ROW_BLOCK):
            rows[end - start:end - start + len(part)] = part
            roots[end:end + len(part)] = q * q * np.prod(part, axis=1, dtype=np.int64)
            end += len(part)
        if end - start != n:
            raise AssertionError(f"S_{i} up to {limit} has {end - start} roots, counted {n}")
        layers.append((q, rows))
    roots.sort()
    if np.any(roots[1:] == roots[:-1]):  # the indicator q_i^4 lets no root repeat
        raise AssertionError(f"indicator uniqueness violated: a root repeats in {roots}")
    return roots, layers


def enumerate_s(limit: int, exclude_qi: bool = False) -> list[SetElement]:
    """The union of all layers up to `limit`, ascending, duplicate-free;
    counted first, so past the memory budget ResourceError comes first."""
    layers = s_roots(limit, exclude_qi)[1]
    return sorted((e for q, rows in layers for e in _elements(
        rows.shape[1], q * q * np.prod(rows, axis=1, dtype=np.int64), rows)), key=lambda e: e.value)


def baseline_squares(limit: int) -> list[int]:
    """The classical baseline {q_i^2 <= limit}; counted first, so past the
    memory budget ResourceError comes before the list."""
    root = math.isqrt(require_int("limit", limit))
    # ~66 B a square: peak RSS 207 MB at 1e16, 579 MB at 1e17
    require_fits(f"the squares up to {limit}", pi_k_exact(root, 1), 66)
    return [int(q) ** 2 for q in class3_upto(root)]


# `baseline --kind block --x 3e7 --emit json` peaked at 489 MB for its 10^7
# elements: ~46 bytes each over the 30 MB interpreter (plain took ~38).
_BLOCK_ELEMENT_BYTES = 48


def finite_block(x: int) -> list[int]:
    """The floor(x/3)+1 consecutive integers x - floor(x/3) .. x."""
    require_int("x", x)
    require_fits(f"the block at x = {x}", x // 3 + 1, _BLOCK_ELEMENT_BYTES)
    return list(range(x - x // 3, x + 1))


def contribution_window_from_logs(log_x: float) -> tuple[int, int]:
    """Layer index range (k+2, k+l) computed from log x."""
    k, l = window_params_from_logs(log_x)
    return k + 2, k + l


def contribution_window(x) -> tuple[int, int]:
    """Layer index range (k+2, k+l) holding the main contribution at x."""
    return contribution_window_from_logs(checked_log(x))
