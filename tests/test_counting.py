import bisect
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import propp
from propp import DomainError, ResourceError, counting, errors
from propp.cli import main
from propp.counting import (
    _class3_counts,
    _icbrt,
    CountReport,
    compare,
    corollary_lower_bound,
    corollary_window,
    count_s,
    count_s_i,
    landau_term,
    meng_estimate,
    meng_neglected_scale,
    nu_bound,
    pi_k_exact,
)

from propp.construct import enumerate_s_i, max_set_index, min_element
from propp.primes import class3_upto, nth_q, primes_upto, sieved_limit, store_key

from _naive import classify_counts, recursive_pi_k


def test_pi_k_frozen_examples():
    assert pi_k_exact(10, 1) == 2          # {3, 7}
    assert pi_k_exact(100, 2) == 6         # {21, 33, 57, 69, 77, 93}
    assert pi_k_exact(300, 3) == 1         # {231}
    assert pi_k_exact(2, 1) == 0


def test_pi_k_matches_hand_enumeration_at_100():
    # brute force by hand-checkable trial division at tiny scale
    vals = [n for n in range(2, 101)
            if all(p % 4 == 3 for p in _factors(n))
            and len(_factors(n)) == len(set(_factors(n))) == 2]
    assert pi_k_exact(100, 2) == len(vals)
    assert vals == [21, 33, 57, 69, 77, 93]


def _factors(n):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@pytest.mark.parametrize("x", [10 ** 3, 10 ** 5, 10 ** 6])
def test_pi_k_matches_classification_sieve(x):
    expected = classify_counts(x)
    max_k = max(expected) + 1
    for k in range(1, max_k + 1):
        assert pi_k_exact(x, k) == expected.get(k, 0), (x, k)


def _counters(x):
    """The store counter and the table counter for x, as `_class3_counter` makes them."""
    store, r = class3_upto(x), math.isqrt(x)
    return [(store, lambda v: np.searchsorted(store, store_key(v), side="right")),
            (class3_upto(r), _class3_counts(x, primes_upto(r)))]


@pytest.mark.parametrize("x", [10 ** 3, 999_983, 10 ** 6, 3 * 10 ** 6 + 7, 10 ** 7])
def test_pi_k_matches_the_recursive_walk(x):
    expected = classify_counts(x) if x <= 10 ** 6 else {}
    for counter in _counters(x):
        got = [counting._pi_k(x, k, counter) for k in range(1, 9)]
        assert got == [recursive_pi_k(x, k, *counter) for k in range(1, 9)], x
        if expected:
            assert got == [expected.get(k, 0) for k in range(1, 9)], x


@pytest.mark.parametrize("x, k", [(2 ** 63, 12), (2 ** 64 + 1, 12), (10 ** 20, 13),
                                  (10 ** 24, 15), (10 ** 30, 18)])
def test_pi_k_past_int64_matches_the_recursive_walk(x, k):
    # the leaves x // (q_1...q_{k-1}) stay below 10^4: the store counts them,
    # and the first levels' quotients x // P are Python ints
    counter = counting._class3_counter(x, k)
    assert len(counter[0]) < 10 ** 3
    assert counting._pi_k(x, k, counter) == recursive_pi_k(x, k, *counter) > 0


@pytest.mark.parametrize("i, limit", [(1, 10 ** 12), (2, 10 ** 16), (3, 10 ** 20),
                                      (5, 10 ** 24), (8, 10 ** 30)])
def test_count_s_i_matches_the_recursive_walk(i, limit):
    # nu <= N has i class-3 primes, none of them q_i with exclude_qi
    q, n = nth_q(i), nu_bound(i, limit)
    for exclude_qi in (False, True):
        pool = [p for p in class3_upto(10 ** 3).tolist() if not exclude_qi or p != q]
        store = class3_upto(max(n // math.prod(pool[: i - 1]), 3))
        if exclude_qi:
            store = store[store != q]
        walk = recursive_pi_k(n, i, store, lambda v: np.searchsorted(store, store_key(v),
                                                                      side="right"))
        assert count_s_i(i, limit, exclude_qi) == walk, (i, limit, exclude_qi)


def _levels(primes, bound, levels, factors, block):
    """`prime_tuples`' levels as lists of (prime tuple, quotient), a blocked
    last level joined; the owners lead back to each tuple's primes."""
    found, prev = [], [()]
    tuples = counting.prime_tuples(primes, bound, levels, factors, block)
    for n, (quot, last, owner) in enumerate(tuples):
        quots = [None] * len(last) if quot is None else quot.tolist()
        level = [(prev[o] + (int(primes[a]),), q)
                 for q, a, o in zip(quots, last.tolist(), owner.tolist())]
        if n < levels:
            found.append(level)
        else:
            found[-1] += level
        if n < levels - 1:
            prev = [t for t, _ in level]
    return found


_SHORT = class3_upto(110)
# class-3 primes near 2^21 = (2^63)^(1/3) and near isqrt(2^63) = 3,037,000,499
_NEAR_2_63 = np.array([3, 7, 2_097_083, 2_097_091, 2_097_143, 2_097_211, 2_097_223,
                       3_037_000_303, 3_037_000_331, 3_037_000_507, 3_037_000_579],
                      dtype=np.uint32)


@pytest.mark.parametrize("primes, bounds", [
    (_SHORT, (1, 3, 10 ** 4, 3 * 10 ** 6 + 7, 10 ** 9, 10 ** 12)),
    (_SHORT[_SHORT != 7], (10 ** 4, 10 ** 9)),  # q_2 = 7 left out, as S_2's nu do
    (_NEAR_2_63, (2 ** 63 - 1, 2 ** 63))])
def test_prime_tuples_match_combinations(primes, bounds):
    plain = [int(p) for p in primes]
    for bound, factors in itertools.product(bounds, range(1, 6)):
        def room(t):  # every step s of t leaves room for factors - s more primes
            return all(math.prod(t[:s]) * t[s - 1] ** (factors - s) <= bound
                       for s in range(1, len(t) + 1))
        expected = [[t for t in itertools.combinations(plain, j) if room(t)]
                    for j in range(1, factors + 1)]
        for levels, block in itertools.product(range(1, factors + 1), (None, 2)):
            found = _levels(primes, bound, levels, factors, block)
            assert all(not expected[j] for j in range(len(found), levels))
            for j, level in enumerate(found, 1):
                assert [t for t, _ in level if room(t)] == expected[j - 1]
                # no level follows j = factors, so it has no quotients
                assert all(q == (bound // math.prod(t) if j < factors else None)
                           for t, q in level)
                # the one tuple a prefix may take past its exact room: its last
                # prime p is within 1 of the float root, and later levels drop it
                need = factors - j + 1
                for t, q in level:
                    if not room(t):
                        assert need > 1 and room(t[:-1]), t
                        assert t[-1] - 1 <= (bound // math.prod(t[:-1])) ** (1 / need)
                        assert not any(u[:j] == t for later in found[j:] for u, _ in later), t


def test_partition_identity_at_1e6():
    x = 10 ** 6
    expected = classify_counts(x)
    total_scan = sum(expected.values())
    total_enum = sum(pi_k_exact(x, k) for k in range(1, max(expected) + 2))
    assert total_enum == total_scan


def test_pi_k_monotone_in_x():
    for k in (1, 2, 3):
        counts = [pi_k_exact(x, k) for x in (10, 100, 10 ** 3, 10 ** 4, 10 ** 5)]
        assert counts == sorted(counts)


def test_pi_k_guards():
    # a table for 1e14 (9.8e8 units) and the primes up to 1e14 // 3 are
    # both past the work budget
    with pytest.raises(ResourceError):
        pi_k_exact(10 ** 14, 2)
    with pytest.raises(DomainError):
        pi_k_exact(0, 1)
    with pytest.raises(DomainError):
        pi_k_exact(100, 0)


_PINS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "pins.json")

# ru_maxrss survives fork and exec: a child started straight from the test
# process reports that process's peak, so a small launcher starts it instead
_LAUNCHER = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def _cold(code: str):
    """Run `code` in a fresh interpreter (empty prime store) and return the
    JSON value it prints last."""
    src = os.path.dirname(os.path.dirname(propp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _LAUNCHER, sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_class3_table_matches_the_store():
    for x in list(range(1, 21)) + [24, 25, 26, 10 ** 4, 999_983, 10 ** 6, 10 ** 7]:
        r = math.isqrt(x)
        # x // m for odd m <= r, then every v <= r: the table answers every
        # v <= sqrt(x) and x // m for odd m
        vs = np.array(sorted({x // m for m in range(1, r + 1, 2)} | set(range(r + 1))),
                      dtype=np.int64)
        count = _class3_counts(x, primes_upto(r))
        want = np.searchsorted(class3_upto(x), vs, side="right")
        assert count(vs).tolist() == want.tolist(), x
        assert int(count(x)) == want[-1], x
    # pi_1 through pi_k_exact on a cold store, against sympy's primes
    sympy = pytest.importorskip("sympy")
    xs = [65_537, 10 ** 5, 123_457, 999_983, 10 ** 6, 1_999_999, 2 * 10 ** 6]
    counts, limit = _cold(
        "import json\n"
        "from propp.counting import pi_k_exact\n"
        "from propp.primes import sieved_limit\n"
        f"print(json.dumps([[pi_k_exact(x, 1) for x in {xs}], sieved_limit()]))")
    assert limit < min(xs)  # the store never covered x: every count came from a table
    sympy.sieve.extend(max(xs))  # primerange then reads sympy's sieve
    class3 = [p for p in sympy.primerange(2, max(xs) + 1) if p % 4 == 3]
    assert counts == [bisect.bisect_right(class3, x) for x in xs]


def _per_prime_class3_counts(x, primes):
    """`_class3_counts` as it was before the batch phase and the odd-only
    entries: every prime p <= sqrt(x) sifts the full tables on its own, in
    ascending order, with the weights 1 and chi_4.  It answers x // m for
    every m, so it is the oracle on every entry the table covers."""
    r = math.isqrt(x)
    small_v = np.arange(r + 1, dtype=np.int64)
    big_v = x // np.maximum(small_v, 1)  # entry i >= 1 holds v = x // i
    # S at the start: v - 1 for the weight 1; chi_4 sums to 1 over 1..v
    # when v % 4 is 1 or 2 and to 0 otherwise
    chi_sums = [np.isin(v & 3, (1, 2)).astype(np.int64) - 1 for v in (small_v, big_v)]
    sums = [(small_v - 1, big_v - 1), tuple(chi_sums)]
    for p in primes[: int(np.searchsorted(primes, r, side="right"))].tolist():
        top = min(r, x // (p * p))   # entries v = x // i >= p^2
        inner = min(top, r // p)     # i p <= r: x // (i p) is big entry i p
        outer = x // np.arange((inner + 1) * p, top * p + 1, p, dtype=np.int64)
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
    (small, big), (small_chi, big_chi) = sums
    small_c3 = np.maximum((small - 1 - small_chi) // 2, 0)
    big_c3 = np.maximum((big - 1 - big_chi) // 2, 0)

    def count(v):
        v = np.asarray(v, dtype=np.int64)
        return np.where(v <= r, small_c3[np.minimum(v, r)],
                        big_c3[x // np.maximum(v, r + 1)])
    return count


def _tables(count, x):
    """Every entry of the table: v <= sqrt(x), then x // m for odd m."""
    r = math.isqrt(x)
    return count(np.arange(r + 1)), count(x // np.arange(1, r + 1, 2))


def _assert_tables_match(xs):
    primes = primes_upto(math.isqrt(max(xs)))
    for x in xs:
        got = _tables(_class3_counts(x, primes), x)
        want = _tables(_per_prime_class3_counts(x, primes), x)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), x


def test_class3_table_matches_the_per_prime_sift():
    # the batch phase starts at the first prime past floor(x^(1/3))
    cubes = [p ** 3 + d for p in (3, 101, 1009, 2153) for d in (-1, 0, 1)]
    rng = random.Random(11)
    _assert_tables_match(list(range(1, 3001)) + cubes
                         + [rng.randrange(10 ** 9, 10 ** 10) for _ in range(3)])
    assert [_icbrt(p ** 3 + d) for p in (3, 2153) for d in (-1, 0, 1)] == \
        [2, 3, 3, 2152, 2153, 2153]
    # past 2.09e6, p^3 no longer fits int64; the cut is taken in Python ints
    assert _icbrt(2 ** 63 - 1) == 2_097_151 and _icbrt(10 ** 30) == 10 ** 10


@pytest.mark.parametrize("chunk", [1, 7])
def test_class3_batch_chunk_edges(chunk, monkeypatch):
    # chunk edges fall inside one prime's pairs (i, p), odd i <= x // p^2
    monkeypatch.setattr(counting, "_BATCH_PAIRS", chunk)
    _assert_tables_match(list(range(1, 400)) + [101 ** 3 - 1, 101 ** 3, 101 ** 3 + 1,
                                                10 ** 7 + 1])


def test_class3_table_refuses_an_even_m():
    # past sqrt(x) the table holds x // m for odd m only; v past x is x // 0
    x = 10 ** 6 + 7
    count = _class3_counts(x, primes_upto(math.isqrt(x)))
    class3 = class3_upto(x)
    for v in (x, x // 3, [x // 999, 1000, 0], 1001):  # 1000 <= sqrt(x) < 1001 = x // 999
        assert count(v).tolist() == np.searchsorted(class3, v, side="right").tolist()
    for v in (x // 2, x // 998, [x, x // 4], x + 1):
        with pytest.raises(ValueError, match="m even"):
            count(v)


def test_class3_counter_holds_only_its_b_rows():
    # the counter keeps pi(v;4,3) for the small and the big entries and lets
    # the sift's two-row arrays go: 2.0x the B rows when it held views of them
    x = 10 ** 10
    r = math.isqrt(x)
    primes = primes_upto(r)
    b_rows = 8 * (len(range(-1, r + 1, 2)) + len(range(1, r + 1, 2)))
    tracemalloc.start()
    try:
        count = _class3_counts(x, primes)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * b_rows, (held, b_rows)
    assert int(count(x)) == 227_529_235  # pi(10^10;4,3)


def test_every_walk_query_is_answerable(monkeypatch):
    # past sqrt(x), pi_k_exact and count_s ask a table for x // m with m odd
    # only, and the counts match the store's
    asked = []

    def counter(x, k):
        r = math.isqrt(x)
        table = _class3_counts(x, primes_upto(r))

        def count(v):
            asked.append((x, np.array(v, dtype=np.int64, ndmin=1)))
            return table(v)
        return class3_upto(r), count
    primes_upto(10 ** 8)  # the counts before the patch come from the store
    pik = {(x, k): pi_k_exact(x, k) for x in (10 ** 3, 999_983, 10 ** 6, 3 * 10 ** 6 + 7,
                                              10 ** 8 - 1) for k in range(1, 6)}
    s = {(limit, e): count_s(limit, e) for limit in (10 ** 12, 10 ** 13 + 1, 99_999_999 ** 2)
         for e in (False, True)}
    monkeypatch.setattr(counting, "_class3_counter", counter)
    assert {key: pi_k_exact(*key) for key in pik} == pik
    assert {key: count_s(*key) for key in s} == s
    big = 0
    for x, vs in asked:
        vs = vs[vs > math.isqrt(x)]
        assert (x // (x // vs) == vs).all() and (x // vs % 2 == 1).all(), x
        big += len(vs)
    assert big > 1000


def test_pi_k_matches_bench_pins_at_1e10():
    # pins.json comes from perfbench/oracle.py, which does not use propp
    with open(_PINS, encoding="utf-8") as fh:
        pins = json.load(fh)["pik"]
    cases = [(2, 10 ** 9), (3, 10 ** 10), (3, 9_999_999_967), (4, 10 ** 10),
             (4, 9_999_999_967)]
    counts, limit = _cold(
        "import json\n"
        "from propp.counting import pi_k_exact\n"
        "from propp.primes import sieved_limit\n"
        f"print(json.dumps([[pi_k_exact(x, k) for k, x in {cases}], sieved_limit()]))")
    # the store stayed below every leaf budget (10^10 // 231 for k = 4), so
    # every count came from a table
    assert limit < 10 ** 10 // 231
    assert counts == [pins[f"{k}:{x}"] for k, x in cases]


def test_pi_k_both_paths_agree():
    xs = [10 ** 3, 10 ** 5, 999_983, 10 ** 6, 3 * 10 ** 6 + 7, 10 ** 7,
          54_321_987, 10 ** 8]
    ks = range(1, 6)
    cold, limit = _cold(
        "import json\n"
        "from propp.counting import pi_k_exact\n"
        "from propp.primes import sieved_limit\n"
        f"print(json.dumps([[pi_k_exact(x, k) for x in {xs} for k in {list(ks)}],"
        " sieved_limit()]))")
    # the store stayed small: pi_1 from x = 10^5 and pi_2 from x = 999,983 on
    # (among others) counted from tables
    assert limit < 999_983 // 3
    primes_upto(10 ** 8)
    assert sieved_limit() >= 10 ** 8
    warm = [pi_k_exact(x, k) for x in xs for k in ks]
    assert cold == warm
    for x in xs:
        if x <= 10 ** 6:
            expected = classify_counts(x)
            assert [pi_k_exact(x, k) for k in ks] == [expected.get(k, 0) for k in ks], x


def test_pi_k_memory_stays_small():
    value, peak_kb = _cold(
        "import json, resource\n"
        "from propp.counting import pi_k_exact\n"
        "v = pi_k_exact(10 ** 10, 3)\n"
        "print(json.dumps([v, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))")
    assert value == 215_734_418
    assert peak_kb < 150 * 1024  # ru_maxrss is in KiB on Linux


def test_count_s_at_1e24_stays_under_90_mb_cold():
    # one odd-only table for X = 10^12: 66 MB peak measured, 107 MB when the
    # table held every x // m and both weights' sums
    counts, peak_kb = _cold(
        "import json, resource\n"
        "from propp.counting import count_s\n"
        "baseline, per_index = count_s(10 ** 24)\n"
        "print(json.dumps([[baseline, sum(per_index.values())],"
        " resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))")
    assert counts == [18_803_987_677, 3_186_110_367]
    assert peak_kb < 90 * 1024


def test_sieve_csv_at_1e8_cold(tmp_path):
    # the class-3 store goes to the writer as an array, never as a list
    out = tmp_path / "q.csv"
    code, peak_kb = _cold(
        "import json, resource\n"
        "from propp.cli import main\n"
        f"code = main(['sieve', '--limit', '1e8', '--emit', 'csv', '--out', {str(out)!r}])\n"
        "print(json.dumps([code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))")
    with open(_PINS, encoding="utf-8") as fh:
        expected = json.load(fh)["sieve_csv"]["sha256"]
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
    assert peak_kb < 80 * 1024  # 67 MB measured, 73 MB with blocks of 2^18


def test_store_fill_at_1e8_holds_little_beyond_its_arrays():
    # a cold fill writes each segment into place: its peak RSS growth stays
    # within 1.2x the two arrays it keeps (1.13x measured on uint32 arrays,
    # 1.07x on int64 ones, 1.46x when the fill concatenated all segments and
    # filtered class 3 at full length)
    grown_kb, nbytes = _cold(
        "import json, resource\n"
        "from propp.primes import class3_upto, primes_upto\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "n = primes_upto(10 ** 8).nbytes + class3_upto(10 ** 8).nbytes\n"
        "grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before\n"
        "print(json.dumps([grown, n]))")
    assert nbytes == 4 * (5_761_455 + 2_880_950)  # uint32
    assert grown_kb * 1024 <= 1.2 * nbytes


def test_warm_walk_never_copies_the_store():
    # np.searchsorted promotes the uint32 store to an int or int64 key's
    # dtype and copies it; the walk keys it with store_key, so each query
    # allocates a few slices of primes <= sqrt(x), not the 11.5 MB store
    primes_upto(10 ** 8)
    assert class3_upto(10 ** 8).nbytes == 4 * 2_880_950
    for query, args in ((pi_k_exact, (10 ** 9 + 7, 3)), (pi_k_exact, (10 ** 9 + 7, 4)),
                        (count_s, (10 ** 16,))):
        query(*args)  # whatever a first call builds is not the walk's
        tracemalloc.start()
        try:
            query(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, (query.__name__, args, peak)


def test_warm_layers_without_q_i_copy_no_store():
    # each layer leaves q_i out of a copy of the primes up to sqrt(N), not of
    # the store up to N = 10^8 // 9 (4.9 MB for layer 1)
    with open(_PINS, encoding="utf-8") as fh:
        pin = json.load(fh)["count_s"][f"{10 ** 16}:1"]["per_index"]
    primes_upto(10 ** 8)
    count_s(10 ** 16, True)
    tracemalloc.start()
    try:
        assert count_s(10 ** 16, True)[1] == {int(i): c for i, c in pin.items()}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


@pytest.mark.parametrize("exclude_qi", [False, True])
def test_count_s_i_matches_enumeration(exclude_qi):
    spread = [1, 10, 728, 729, 10 ** 4, 10 ** 6, 3 * 10 ** 7 + 1, 10 ** 8,
              10 ** 10, 123456789012, 10 ** 12]
    for i in range(1, max_set_index(10 ** 12, exclude_qi) + 2):
        lowest = min_element(i, exclude_qi)
        for limit in spread + [lowest - 1, lowest]:
            expected = len(enumerate_s_i(i, limit, exclude_qi))
            assert count_s_i(i, limit, exclude_qi) == expected, (i, limit)
        assert count_s_i(i, lowest - 1, exclude_qi) == 0
        assert count_s_i(i, lowest, exclude_qi) == 1


@pytest.mark.parametrize("exclude_qi", [False, True])
def test_count_s_i_counts_past_the_guard(exclude_qi):
    # N = nu_bound runs from 1.4e10 to 7e14, but the leaves N // (q_1...q_{i-1})
    # stay below 2,000, so a small store counts these layers exactly
    for i, limit in ((8, 10 ** 27), (8, 10 ** 28), (9, 10 ** 33), (10, 10 ** 37),
                     (10, 10 ** 30)):
        assert count_s_i(i, limit, exclude_qi) == \
            len(enumerate_s_i(i, limit, exclude_qi)), (i, limit)
    for i, limit in ((1, 10 ** 12), (3, 10 ** 16)):
        assert count_s_i(i, limit, exclude_qi) == count_s(limit, exclude_qi)[1][i]
    with pytest.raises(ResourceError):
        count_s_i(1, 10 ** 30, exclude_qi)  # pi(1.1e14;4,3) is past the budget
    with pytest.raises(DomainError):
        count_s_i(1, -1, exclude_qi)


def test_count_s_i_past_the_guard_pins():
    # (7, 10^30) and (6, 10^27) from the store path before count_s_i took it
    # over (N = 5.4e11, 3.3e10).  S_5 up to 10^30 is counted from a table for
    # N = 1.9e12 (the store path, filled to 4.3e8, gives the same numbers):
    # its 2.6e9 elements are refused by enumerate_s_i, whose error states the
    # count, without sieving to 4.3e8
    counts, refusals, limit = _cold(
        "import json\n"
        "from propp import ResourceError\n"
        "from propp.construct import enumerate_s_i\n"
        "from propp.counting import count_s_i\n"
        "from propp.primes import sieved_limit\n"
        "counts = [count_s_i(i, limit, e) for i, limit in "
        "((7, 10 ** 30), (6, 10 ** 27)) for e in (False, True)]\n"
        "refusals = []\n"
        "for e in (False, True):\n"
        "    try:\n"
        "        enumerate_s_i(5, 10 ** 30, e)\n"
        "    except ResourceError as err:\n"
        "        refusals.append(str(err))\n"
        "print(json.dumps([counts, refusals, sieved_limit()]))")
    assert counts == [2_577_341, 1_954_193, 2_456_986, 1_846_202]
    assert [r.split(" elements")[0].rsplit(" ", 1)[1] for r in refusals] == \
        ["2601167318", "2117372845"]
    assert limit < 4.3e8


def test_count_s_past_1e20():
    # oracle-confirmed (perfbench/oracle.py): one table for X = 10^11
    baseline, per_index = count_s(10 ** 22)
    assert (baseline, sum(per_index.values())) == (2_059_034_532, 347_580_002)
    assert per_index == {1: 251_599_044, 2: 76_348_546, 3: 18_030_350,
                         4: 1_499_280, 5: 101_574, 6: 1_208}


def test_no_table_is_started_past_the_price(monkeypatch):
    tables = []

    def counted(x, primes):
        tables.append(x)
        return lambda v: np.zeros_like(np.asarray(v, dtype=np.int64))
    monkeypatch.setattr(counting, "_class3_counts", counted)
    # X = 10^13 (count-s --limit 1e26) is priced 1.9e8 units: admitted
    assert count_s(10 ** 26) == (0, {})
    before = sieved_limit()
    # X = 1.1e14 is priced 1.05e9; the primes up to X would cost more still
    for call in (lambda: count_s(121 * 10 ** 26), lambda: pi_k_exact(11 * 10 ** 13, 1),
                 lambda: pi_k_exact(10 ** 14, 2), lambda: count_s_i(1, 10 ** 30)):
        with pytest.raises(ResourceError):
            call()
    assert tables == [10 ** 13] and sieved_limit() == before


def test_walk_stops_at_the_work_budget(monkeypatch):
    primes_upto(10 ** 6)  # the store covers the leaves 10^8 // 231: no table
    x, k = 10 ** 8, 4
    assert pi_k_exact(x, k) == 507_590
    # the tuples that count enumerates, by the documented rule: p has room
    # after P while P p^need <= x, or p - 1 <= (x // P)^(1/need) for need > 1
    arr = [int(p) for p in class3_upto(x // 21)]

    def tuples(quot, start, need, levels):
        if not levels:
            return 0
        room = list(itertools.takewhile(
            lambda i: arr[i] ** need <= quot
            or need > 1 and arr[i] - 1 <= math.exp(math.log(quot) / need),
            range(start, len(arr))))
        return len(room) + sum(tuples(quot // arr[i], i + 1, need - 1, levels - 1)
                               for i in room)
    price = counting._TUPLE_WEIGHT * tuples(x, 0, k, k - 1)
    assert price == counting._TUPLE_WEIGHT * 3_532  # 13 + 162 + 3,357 pairs
    monkeypatch.setattr(counting, "_WORK_BUDGET", price)
    assert pi_k_exact(x, k) == 507_590
    counter = counting._class3_counter

    def no_lookup(*args):
        arr, count = counter(*args)
        return arr, lambda v: pytest.fail("a count was looked up past the budget")
    monkeypatch.setattr(counting, "_class3_counter", no_lookup)
    monkeypatch.setattr(counting, "_WORK_BUDGET", price - 1)
    with pytest.raises(ResourceError, match=f"priced at {price} units"):
        pi_k_exact(x, k)


def test_a_level_past_the_memory_budget_is_never_built(monkeypatch):
    x, k = 10 ** 14, 8  # levels of 8, 43, 190, 801, 4,137, 32,330 and 511,020 tuples
    expected = pi_k_exact(x, k)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 32_330 * counting._TUPLE_BYTES - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="level 6 of the 8-tuples"):
            pi_k_exact(x, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32_330 * 24, peak  # level 5 and its counts: no three arrays of level 6
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 511_020 * counting._TUPLE_BYTES)
    assert pi_k_exact(x, k) == expected


def test_a_walk_past_the_budget_is_refused_at_once():
    # pi_17(10^32): the lower bound on the tuples still to come passes the
    # budget at level 11, long before its 1.2e7-tuple level 13 is built
    src = os.path.dirname(os.path.dirname(propp.__file__))
    code = ("import json, resource, time\n"
            "from propp.cli import main\n"
            "start = time.perf_counter()\n"
            "code = main(['pik', '--x', '1e32', '--k', '17'])\n"
            "print(json.dumps([code, time.perf_counter() - start,"
            " resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))")
    proc = subprocess.run([sys.executable, "-c", _LAUNCHER, sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60, check=True)
    code, seconds, peak_kb = json.loads(proc.stdout.splitlines()[-1])
    assert code == 2 and "past the budget" in proc.stderr
    assert seconds < 2 and peak_kb < 100 * 1024, (seconds, peak_kb)


def test_count_s_matches_bench_pins():
    # pins.json comes from perfbench/oracle.py, which does not use propp
    with open(_PINS, encoding="utf-8") as fh:
        pins = json.load(fh)["count_s"]
    assert len(pins) == 8
    for key, pin in pins.items():
        limit, exclude = map(int, key.split(":"))
        baseline, per_index = count_s(limit, bool(exclude))
        assert baseline == pin["baseline_squares"], key
        assert per_index == {int(i): c for i, c in pin["per_index"].items()}, key


@pytest.mark.parametrize("exclude_qi, total", [(False, 38_285_539), (True, 37_036_603)])
def test_count_s_builds_one_table(exclude_qi, total, monkeypatch, capsys):
    # one pi(v;4,3) table for X = 10^10 answers the baseline and every layer
    tables = []

    def counted(x, primes):
        tables.append(x)
        return _class3_counts(x, primes)
    monkeypatch.setattr(counting, "_class3_counts", counted)
    argv = ["count-s", "--limit", "1e20"] + (["--exclude-qi"] if exclude_qi else [])
    assert main(argv) == 0
    assert tables == [10 ** 10]
    assert json.loads(capsys.readouterr().out)["total"] == total


@pytest.mark.parametrize("exclude_qi", [False, True])
def test_count_s_matches_count_s_i(exclude_qi):
    rng = random.Random(12)
    for _ in range(25):
        e = rng.randrange(6, 20)
        limit = rng.randrange(10 ** e, 10 ** (e + 1))
        baseline, per_index = count_s(limit, exclude_qi)
        assert baseline == pi_k_exact(math.isqrt(limit), 1), limit
        assert per_index == {i: count_s_i(i, limit, exclude_qi)
                             for i in range(1, max_set_index(limit, exclude_qi) + 1)}, limit


def test_count_s_stops_at_the_first_empty_layer():
    # S_1 starts at 3^4 * 3^2 = 729, or 3^4 * 7^2 = 3969 with nu coprime to 3
    for exclude_qi, first in ((False, 729), (True, 3969)):
        assert count_s(first - 1, exclude_qi)[1] == {}
        assert count_s(first, exclude_qi)[1] == {1: 1}


def test_count_s_i_guards():
    for i, limit in ((0, 100), (1, 0), (True, 100), (1, 10.0 ** 4)):
        with pytest.raises(DomainError):
            count_s_i(i, limit)


def test_landau_frozen_values():
    lx = math.log(10 ** 6)
    assert landau_term(10 ** 6, 2) == pytest.approx(
        10 ** 6 * math.log(lx) / lx, rel=1e-12)
    assert landau_term(10 ** 6, 1) == pytest.approx(10 ** 6 / lx, rel=1e-12)
    # closed form at the grid point log log x = 2
    x = math.exp(math.exp(2.0))
    assert landau_term(x, 2) == pytest.approx(2.0 * x / math.exp(2.0), rel=1e-12)


def test_landau_guards():
    with pytest.raises(DomainError):
        landau_term(2, 1)             # needs x > e
    with pytest.raises(DomainError):
        landau_term(10, 2)            # k >= 2 needs x > e^e
    assert landau_term(10, 1) == pytest.approx(10 / math.log(10), rel=1e-12)


def test_meng_main_equals_landau_over_2k():
    xs = [10 ** 2, 10 ** 3, 10 ** 5, 10 ** 7, 10 ** 9, 10 ** 12, 10 ** 16]
    pairs = [(x, k) for x in xs for k in (2, 3, 4, 5)
             if k <= 2 * math.log(math.log(x))]
    assert len(pairs) >= 20
    for x, k in pairs[:20]:
        main = meng_estimate(x, k, "main")
        assert main == pytest.approx(landau_term(x, k) / 2 ** k, rel=1e-12)


def test_main_terms_keep_their_bits():
    # the formulas as landau_term and meng_estimate("main") each wrote them
    # before they shared one main term: the same floats, bit for bit
    def landau(x, k):
        lx = math.log(x)
        llx = math.log(lx)
        power = 0.0 if k == 1 else (k - 1) * math.log(llx)
        try:
            return math.exp(lx - math.log(lx) + power - math.lgamma(k))
        except OverflowError:
            return math.inf

    def meng_main(x, k):
        lx = math.log(x)
        llx = math.log(lx)
        try:
            return math.exp(-k * math.log(2.0) + lx - math.log(lx)
                            + (k - 1) * math.log(llx) - math.lgamma(k))
        except OverflowError:
            return math.inf

    rng = random.Random(5)
    xs = [3, 10, 15, 16, 17.5, 10 ** 6, 10 ** 308, 10 ** 309, 10 ** 4000]
    xs += [rng.randrange(16, 10 ** rng.randint(2, 4000)) for _ in range(400)]
    xs += [10 ** rng.uniform(1.3, 300) for _ in range(100)]
    checked = 0
    for x in xs:
        for k in (1, 2, 3, 5, 8):
            if k == 1 or x > math.exp(math.e):
                assert landau_term(x, k) == landau(x, k), (x, k)
            if k > 1 and x > math.exp(math.e) and k <= 2.0 * math.log(math.log(x)):
                assert meng_estimate(x, k, "main") == meng_main(x, k), (x, k)
                checked += 1
    assert checked > 1000


def test_meng_full_identity_at_k2():
    # at k = 2 the curvature term vanishes, leaving 1 + C(3,4)/log log x
    x = 10 ** 8
    llx = math.log(math.log(x))
    main = meng_estimate(x, 2, "main", c34_limit=10 ** 6)
    full = meng_estimate(x, 2, "full", c34_limit=10 ** 6)
    from propp.constants import c34
    assert full / main == pytest.approx(1 + c34(10 ** 6).value / llx, rel=1e-14)


def test_meng_full_correction_at_k3():
    # at k = 3 the curvature argument is 0; the bracket is
    # 1 + 2 C/llx + (4/llx^2) h''(0), and h''(0) ~ -0.557 drags the
    # correction below 1 for every x with log log x < ~14 (any desk-scale
    # x included; the positive-C term only wins far beyond float range)
    from propp.constants import c34, h_second
    kwargs = dict(c34_limit=10 ** 6, h_plimit=10 ** 5)
    main = meng_estimate(10 ** 9, 3, "main", **kwargs)
    full = meng_estimate(10 ** 9, 3, "full", **kwargs)
    llx = math.log(math.log(10 ** 9))
    bracket = (1 + 2 * c34(10 ** 6).value / llx
               + 4 / llx ** 2 * h_second(0.0, 10 ** 5, "analytic"))
    assert full / main == pytest.approx(bracket, rel=1e-13)
    assert full < main


def test_meng_guards():
    with pytest.raises(DomainError):
        meng_estimate(10 ** 9, 1, "main")
    with pytest.raises(DomainError):
        meng_estimate(10, 2, "main")
    with pytest.raises(DomainError) as err:
        meng_estimate(10 ** 9, 50, "main")
    assert "uniformity" in str(err.value)
    with pytest.raises(DomainError):
        meng_estimate(10 ** 9, 2, "other")


def test_neglected_scale():
    x = 10 ** 9
    llx = math.log(math.log(x))
    assert meng_neglected_scale(x, 3) == pytest.approx(9 / llx ** 3, rel=1e-12)


def test_corollary_window_and_ratio():
    # at log log x = 8 exactly the window bounds are the integers 3 and 6
    assert (8 / 2 - 1, 8 / 2 + math.sqrt(8 / 2)) == (3.0, 6.0)
    # nearest constructible point: log log 10**1294 = 7.9995, window [3, 5]
    lo, hi = corollary_window(10 ** 1294)
    assert math.ceil(lo) == 3 and math.floor(hi) == 5
    for k in (2, 6):
        with pytest.raises(DomainError):
            corollary_lower_bound(10 ** 1294, k)
    # the 0.802 ratio, checked where the main term still fits in a double
    x = 10 ** 100  # log log x ~ 5.44, window [1.72, 4.37]
    for k in (2, 3, 4):
        ratio = corollary_lower_bound(x, k) / meng_estimate(x, k, "main")
        assert ratio == pytest.approx(0.802, rel=1e-12)
    with pytest.raises(DomainError):
        corollary_lower_bound(x, 5)
    with pytest.raises(DomainError):
        corollary_lower_bound(10, 2)


def test_corollary_lower_bound_below_exact_counts():
    # k = 2 lies in the window at every decade 1e4 .. 1e12; exact/bound
    # reads 1.26-1.31 there, so the paper's 0.802 holds with room
    for e in range(4, 13):
        x = 10 ** e
        lo, hi = corollary_window(x)
        assert lo <= 2 <= hi, e
        assert corollary_lower_bound(x, 2) <= pi_k_exact(x, 2), e


def test_compare_reports():
    reports = compare([100], [2], c34_limit=10 ** 6, h_plimit=10 ** 5)
    assert len(reports) == 1
    r = reports[0]
    assert isinstance(r, CountReport)
    assert r.exact == 6
    assert r.meng_main is not None
    assert r.ratio_exact_to_main == pytest.approx(r.exact / r.meng_main)

    reports = compare([10], [1])
    assert reports[0].exact == 2
    assert reports[0].landau == pytest.approx(10 / math.log(10), rel=1e-12)
    assert reports[0].meng_main is None and reports[0].ratio_exact_to_main is None

    assert compare([], [2]) == []
