import bisect
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from propp import DomainError, ResourceError, primes
from propp.primes import (
    class3_upto,
    lambda_indicator,
    nth_q,
    prime_segments,
    primes_upto,
    q_growth_ratio,
)

from _naive import trial_division_class3, trial_division_primes


def test_sieve_small_values():
    assert class3_upto(20).tolist() == [3, 7, 11, 19]
    assert primes_upto(2).tolist() == [2]
    assert class3_upto(2).tolist() == []
    assert primes_upto(1).tolist() == [] and class3_upto(1).tolist() == []


def test_sieve_100_matches_trial_division():
    got = class3_upto(100).tolist()
    assert got == trial_division_class3(100)
    assert len(got) == 13
    assert got[-1] == 83


def test_sieve_matches_trial_division_to_1e4():
    assert primes_upto(10 ** 4).tolist() == trial_division_primes(10 ** 4)
    assert class3_upto(10 ** 4).tolist() == trial_division_class3(10 ** 4)


def test_class3_is_order_preserving_filter():
    expected = [p for p in primes_upto(5000).tolist() if p % 4 == 3]
    assert class3_upto(5000).tolist() == expected


def test_sieve_prefix_property():
    for upto in (primes_upto, class3_upto):
        small = upto(1000).tolist()
        big = upto(10 ** 5).tolist()
        assert big[: len(small)] == small


def test_segment_size_does_not_change_output():
    for limit, size in ((10 ** 5, 997), (10 ** 6, 1 << 16)):
        a = np.concatenate(list(prime_segments(limit, segment_size=1 << 22)))
        b = np.concatenate(list(prime_segments(limit, segment_size=size)))
        assert np.array_equal(a, b), limit
    # against trial division: every limit to 600, and p^2 - 1, p^2, p^2 + 1
    # for base primes p, where p first crosses off.  Segments of 1-3
    # integers cost ~10 us each, so past 600 they run only for p < 50
    naive = trial_division_primes(100 ** 2 + 1)
    limits = list(range(2, 601))
    limits += [p * p + d for p in naive if p < 100 for d in (-1, 0, 1)]
    for limit in limits:
        expected = naive[:bisect.bisect_right(naive, limit)]
        assert primes_upto(limit).tolist() == expected, limit
        assert class3_upto(limit).tolist() == [p for p in expected if p % 4 == 3]
        for size in (1, 2, 3, 997, 1 << 16):
            if size > 3 or limit < 50 ** 2:
                got = np.concatenate(list(prime_segments(limit, segment_size=size)))
                assert got.tolist() == expected, (limit, size)


def test_store_grows_by_sieving_only_the_new_range(monkeypatch):
    expected = np.concatenate(list(prime_segments(10 ** 6)))
    for name in ("_cached_primes", "_cached_class3"):
        monkeypatch.setattr(primes, name, getattr(primes, name)[:0])
    monkeypatch.setattr(primes, "_cached_limit", 1)
    sieve, ranges = primes.prime_segments, []

    def recording(limit, *args, **kwargs):
        ranges.append((kwargs.get("start"), limit))
        return sieve(limit, *args, **kwargs)

    monkeypatch.setattr(primes, "prime_segments", recording)
    for limit in (10 ** 3, 10 ** 5, 10 ** 6):
        assert primes_upto(limit).tolist() == \
            expected[:np.searchsorted(expected, limit, side="right")].tolist()
        # each growth appends its class-3 members in place, behind the old ones
        p = primes_upto(limit)
        assert np.array_equal(class3_upto(limit), p[(p & 3) == 3]), limit
    assert ranges == [(2, 1 << 16), ((1 << 16) + 1, 1 << 17), ((1 << 17) + 1, 10 ** 6)]
    assert np.array_equal(primes_upto(10 ** 6), expected)
    assert np.array_equal(class3_upto(10 ** 6), expected[(expected & 3) == 3])


def test_threaded_sieve_identical(monkeypatch):
    # four threads fill an empty prime store at once; each read must equal
    # the serial sieve. The store comes back whole when the test ends.
    expected = np.concatenate(list(prime_segments(10 ** 6)))
    for name in ("_cached_primes", "_cached_class3"):
        monkeypatch.setattr(primes, name, getattr(primes, name)[:0])
    monkeypatch.setattr(primes, "_cached_limit", 1)
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(lambda _: (primes_upto(10 ** 6), class3_upto(10 ** 6)),
                            range(4)))
    for all_primes, class3 in got:
        assert np.array_equal(all_primes, expected)
        assert np.array_equal(class3, expected[(expected & 3) == 3])


def test_store_capacity_bounds_pi():
    # the Rosser-Schoenfeld allocation holds pi(x) at every x it may meet
    naive = np.array(trial_division_primes(10 ** 5))
    xs = np.arange(2, 10 ** 5 + 1)
    caps = np.array([primes._capacity(int(x)) for x in xs])
    assert (caps >= np.searchsorted(naive, xs, side="right")).all()
    sympy = pytest.importorskip("sympy")
    for x in (10 ** 6, 10 ** 7, 10 ** 8, 10 ** 9, 1 << 31, 1 << 32):
        assert primes._capacity(x) >= int(sympy.primepi(x)), x


def test_store_grows_across_many_segments(monkeypatch):
    # an emptied store grows 10^6 -> 10^7 -> 3e7, over many segments and
    # two reallocations; the arrays are trimmed, not views of a larger one
    expected = np.concatenate(list(prime_segments(3 * 10 ** 7, segment_size=1 << 16)))
    for name in ("_cached_primes", "_cached_class3"):
        monkeypatch.setattr(primes, name, getattr(primes, name)[:0])
    monkeypatch.setattr(primes, "_cached_limit", 1)
    for limit in (10 ** 6, 10 ** 7, 3 * 10 ** 7):
        primes_upto(limit)
        for arr in (primes._cached_primes, primes._cached_class3):
            assert arr.base is None and arr.flags.owndata and not arr.flags.writeable
    assert primes.sieved_limit() == 3 * 10 ** 7
    assert np.array_equal(primes._cached_primes, expected)
    assert np.array_equal(primes_upto(3 * 10 ** 7), expected)
    assert np.array_equal(class3_upto(3 * 10 ** 7), expected[(expected & 3) == 3])


def test_store_is_uint32_and_its_keys_clamp():
    assert primes_upto(100).dtype == np.uint32 and class3_upto(100).dtype == np.uint32
    cap = primes.MAX_SIEVE_LIMIT
    # 2^32 is a legal limit at the cap: its key clamps to 2^32 - 1, never wraps to 0
    assert primes.store_key(cap) == cap - 1 and primes.store_key(10 ** 30) == cap - 1
    assert primes.store_key(-3) == 0 and primes.store_key(7).dtype == np.uint32
    keys = primes.store_key(np.array([1, 7, cap - 1, cap], dtype=np.int64))
    assert keys.dtype == np.uint32 and keys.tolist() == [1, 7, cap - 1, cap - 1]
    near_cap = np.array([3, 4_294_967_291], dtype=np.uint32)  # the last prime < 2^32
    assert np.searchsorted(near_cap, keys, side="right").tolist() == [0, 1, 2, 2]


def test_sieve_guards():
    with pytest.raises(DomainError):
        next(prime_segments(1))
    with pytest.raises(ResourceError):
        primes_upto(primes.MAX_SIEVE_LIMIT * 2)
    with pytest.raises(ResourceError):
        class3_upto(primes.MAX_SIEVE_LIMIT + 1)


def test_qindex_and_table_lambda():
    assert [nth_q(i) for i in range(1, 5)] == [3, 7, 11, 19]
    with pytest.raises(DomainError):
        nth_q(0)
    assert lambda_indicator(7) == 1
    assert lambda_indicator(5) == 0
    with pytest.raises(DomainError):
        lambda_indicator(9)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(10 ** 4) if primes.is_prime(n)] == \
        trial_division_primes(10 ** 4)
    rng = np.random.default_rng(8)
    cases = [int(rng.integers(1, 2 ** 62)) >> int(rng.integers(0, 60))
             for _ in range(3000)]
    cases += [int(rng.integers(1, 2 ** 62)) << 20 | 1 for _ in range(300)]
    # each bound of the base schedule and its neighbours; a strong
    # pseudoprime to the 12 bases 2..37 sits at 3.2e23
    for bound in primes._MR_EXACT_BELOW[:-1]:
        cases += range(bound - 2, bound + 3)
    assert not primes.is_prime(318_665_857_834_031_151_167_461)
    for n in cases:
        assert primes.is_prime(n) == sympy.isprime(n), n


def test_lambda_indicator():
    assert lambda_indicator(7) == 1
    assert lambda_indicator(5) == 0
    assert lambda_indicator(2) == 0
    with pytest.raises(DomainError):
        lambda_indicator(15)
    with pytest.raises(DomainError):
        lambda_indicator(1)


def test_nth_q_small():
    assert nth_q(1) == 3
    assert nth_q(4) == 19
    assert nth_q(10) == 67
    with pytest.raises(DomainError):
        nth_q(0)


def test_nth_q_matches_trial_division():
    expected = trial_division_class3(10 ** 5)
    assert class3_upto(10 ** 5).tolist() == expected
    for i in (1, 2, 17, 100, 1000, len(expected)):
        assert nth_q(i) == expected[i - 1]
        assert nth_q(i) % 4 == 3


def test_nth_q_auto_extends():
    # far beyond any default table; just has to terminate and be class 3
    q = nth_q(20000)
    assert q % 4 == 3
    arr = class3_upto(q)
    assert int(arr[19999]) == q


def test_q_growth_ratio_examples():
    assert q_growth_ratio(10) == pytest.approx(67 / (20 * math.log(10)), rel=1e-12)
    assert q_growth_ratio(2) == pytest.approx(7 / (4 * math.log(2)), rel=1e-12)
    with pytest.raises(DomainError):
        q_growth_ratio(1)


def test_q_growth_ratio_at_1e5_in_derived_band():
    assert 0.8 < q_growth_ratio(10 ** 5) < 1.3


def test_q_growth_band_up_to_1e6():
    n = 10 ** 6
    q_n = nth_q(n)
    arr = class3_upto(q_n)[:n].astype(np.float64)
    i = np.arange(1, n + 1, dtype=np.float64)
    ratios = arr[99:] / (2.0 * i[99:] * np.log(i[99:]))
    assert 0.5 < float(ratios.min()) and float(ratios.max()) < 1.5
