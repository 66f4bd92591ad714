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

from .constants import window_params_from_logs
from .counting import count_s, count_s_i, nu_bound, pi_k_exact
from .errors import checked_log, require_fits, require_int
from .primes import class3_upto, nth_q

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
    require_int("set index", i)
    require_int("limit", limit)
    require_fits(f"S_{i} up to {limit}", count_s_i(i, limit, exclude_qi), S_ELEMENT_BYTES)
    return _walk_layer(i, limit, exclude_qi)


def _walk_layer(i: int, limit: int, exclude_qi: bool) -> list[SetElement]:
    """`enumerate_s_i` once the layer is counted."""
    q = nth_q(i)
    q4 = q ** 4
    nu_max = nu_bound(i, limit)
    if nu_max == 0:
        return []
    # the largest factor of any admissible nu divides out the i-1 smallest
    # admissible primes, so the sieve never needs to reach nu_max itself
    prime_cap = nu_max // math.prod(_smallest_nu_primes(i, exclude_qi)[:-1])
    primes = [p for p in map(int, class3_upto(prime_cap))
              if not exclude_qi or p != q]
    out: list[SetElement] = []
    chosen: list[int] = []

    def walk(start: int, prod: int) -> None:
        need = i - len(chosen)
        if need == 0:
            out.append(SetElement(q4 * prod * prod, i, tuple(chosen)))
            return
        for idx in range(start, len(primes)):
            p = primes[idx]
            # smallest possible completion uses p for every remaining slot
            if prod * p ** need > nu_max:
                break
            chosen.append(p)
            walk(idx + 1, prod * p)
            chosen.pop()

    walk(0, 1)
    out.sort(key=lambda e: e.value)
    return out


def enumerate_s(limit: int, exclude_qi: bool = False) -> list[SetElement]:
    """The union of all layers up to `limit`, ascending, duplicate-free;
    counted first, so past the memory budget ResourceError comes first."""
    layers = count_s(limit, exclude_qi)[1]
    require_fits(f"S up to {limit}", sum(layers.values()), S_ELEMENT_BYTES)
    merged: list[SetElement] = []
    for i in layers:
        merged.extend(_walk_layer(i, limit, exclude_qi))
    merged.sort(key=lambda e: e.value)
    for a, b in zip(merged, merged[1:]):
        if a.value == b.value:
            raise AssertionError(
                f"indicator uniqueness violated: {a.value} in layers "
                f"{a.set_index} and {b.set_index}")
    return merged


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
