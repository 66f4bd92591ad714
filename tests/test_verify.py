import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from propp import DomainError, ResourceError, SequenceFormatError, verify
from propp.cli import main as cli_main
from propp.construct import enumerate_s, enumerate_s_i, s_roots
from propp.counting import count_s
from propp.primes import IS_PRIME_EXACT_BELOW, class3_upto, is_prime, primes_upto
from propp.verify import (
    APPLICABLE_VERIFIED,
    NOT_APPLICABLE,
    _first_pair,
    _lattice_roots,
    check_lemma1,
    check_property_p,
    check_union_property_p,
)

from _naive import factorize, naive_property_p


def test_frozen_examples():
    assert check_property_p([6, 7, 8, 9]).holds
    v = check_property_p([1, 2, 3])
    assert not v.holds and v.witness == (1, 2, 3)
    assert check_property_p([9, 49, 121, 361]).holds
    v = check_property_p([2, 4, 6])
    assert not v.holds and v.witness == (2, 4, 6)


def test_short_sequences_hold_vacuously():
    for seq in ([], [5], [5, 9]):
        v = check_property_p(seq)
        assert v.holds and v.triples_checked == 0


def test_triples_checked_counts():
    v = check_property_p([6, 7, 8, 9])
    assert v.triples_checked == math.comb(4, 3)
    # witness (2,4,6) at indices (0,1,2) is the first triple scanned
    assert check_property_p([2, 4, 6]).triples_checked == 1
    # witness 4 | 5 + 7 sits at lexicographic rank 2, after (4,5,6)
    v = check_property_p([4, 5, 6, 7, 9])
    assert v.witness_indices == naive_property_p([4, 5, 6, 7, 9]) == (0, 1, 3)
    assert v.triples_checked == 2


def test_oracle_agreement_randomized():
    rng = random.Random(42)
    for _ in range(10_000):
        length = rng.randint(3, 30)
        seq = sorted(rng.sample(range(1, 10 ** 4 + 1), length))
        verdict = check_property_p(seq)
        expected = naive_property_p(seq)
        if expected is None:
            assert verdict.holds, seq
        else:
            i, j, k = expected
            assert not verdict.holds
            assert verdict.witness_indices == (i, j, k), seq
            assert verdict.witness == (seq[i], seq[j], seq[k])
            a, b, c = verdict.witness
            assert (b + c) % a == 0


def test_large_value_path_matches_oracle():
    rng = random.Random(7)
    base = 1 << 100
    for _ in range(50):
        seq = sorted(rng.sample(range(base, base + 10 ** 6), 12))
        verdict = check_property_p(seq)
        expected = naive_property_p(seq)
        assert verdict.holds == (expected is None)
        if expected is not None:
            assert verdict.witness_indices == expected


def test_threaded_scan_deterministic(tmp_path):
    rng = random.Random(3)
    for n in range(25):
        seq = sorted(rng.sample(range(1, 3000), 40))
        path = tmp_path / f"seq{n}.txt"
        path.write_text("".join(f"{v}\n" for v in seq))
        outputs = []
        for threads in ("1", "8"):
            out = tmp_path / f"out{n}.t{threads}"
            code = cli_main(["verify", "--input", str(path), "--threads", threads,
                             "--out", str(out)])
            outputs.append((code, out.read_bytes()))
        assert outputs[0] == outputs[1]


def test_cap_and_force():
    # [1, 2, 3] and 3,997 random values: the plan prices 7,114,215 residues
    violating = [1, 2, 3] + sorted(random.Random(17).sample(range(10 ** 6, 10 ** 9), 3997))
    with pytest.raises(ResourceError):
        check_property_p(violating)
    v = check_property_p(violating, force=True)
    assert not v.holds and v.witness == (1, 2, 3)
    # a shifted consecutive block of the same size holds (block argument:
    # any pair sum lies strictly between 2 a_i and 3 a_i)
    holding = list(range(10 ** 6, 10 ** 6 + 3200))
    v = check_property_p(holding, force=True)
    assert v.holds and v.triples_checked == math.comb(3200, 3)


def _generic_values(n, start=10 ** 6, big=10 ** 15):
    """n - 2 consecutive non-squares from `start`, then two values near `big`
    whose sum the last of them divides: no outer index is skipped or takes
    the lattice, so the plan prices every tail, C(n, 2) - 1 residues."""
    head = [v for v in range(start, start + 2 * n) if math.isqrt(v) ** 2 != v][:n - 2]
    assert (-2 * big) % head[-1]
    return head + [big, big + (-2 * big) % head[-1]]


def test_residue_budget_boundary():
    check_property_p(_generic_values(3108))
    with pytest.raises(ResourceError, match=str(math.comb(3109, 2) - 1)):
        check_property_p(_generic_values(3109))
    assert not check_property_p(_generic_values(3109), force=True).holds


def test_big_integer_residue_budget_boundary(tmp_path):
    # a residue past 2^62 is priced 11 int64 ones:
    # 11 (C(937, 2) - 1) <= C(3108, 2) - 1 < 11 (C(938, 2) - 1)
    runs = check_property_p(_generic_values(937, 1 << 70, 1 << 80))
    assert runs.witness_indices == (934, 935, 936) and runs.triples_checked == 136670820
    refused = _generic_values(938, 1 << 70, 1 << 80)
    with pytest.raises(ResourceError, match=str(11 * (math.comb(938, 2) - 1))):
        check_property_p(refused)
    path = tmp_path / "big.txt"
    path.write_text("".join(f"{v}\n" for v in refused))
    assert cli_main(["verify", "--input", str(path)]) == 2
    forced = check_property_p(refused, force=True)
    assert forced.witness_indices == (935, 936, 937) and forced.triples_checked == 137109336


def test_plan_refuses_before_classifying_roots(monkeypatch):
    # 2,638 big squares, then 5 non-squares above them: every live index has
    # a non-square in its tail, so the plan passes the budget whatever the
    # lattice would decide, and no root is factored before the refusal
    rng = random.Random(16)
    squares = sorted({rng.randrange(1 << 70, 1 << 80) ** 2 for _ in range(2638)})
    seq = squares + [(1 << 160) + 2 * t + 1 for t in range(5)]
    assert len(seq) == 2643 and all(math.isqrt(v) ** 2 != v for v in seq[-5:])

    def not_called(roots):
        raise AssertionError("roots classified before the plan was priced")
    monkeypatch.setattr(verify, "_lattice_roots", not_called)
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="priced at"):
        check_property_p(seq)
    assert time.perf_counter() - start < 0.5


def test_inputs_priced_below_the_budget_run_without_force(tmp_path, capsys):
    s_path = tmp_path / "s.txt"
    assert cli_main(["construct", "--all", "--limit", "1e12", "--out", str(s_path)]) == 0
    squares = [int(q) ** 2 for q in class3_upto(10 ** 5)[:4000]]
    block = range(10 ** 6, 10 ** 6 + 30001)
    for name, values in (("squares", squares), ("block", block)):
        (tmp_path / f"{name}.txt").write_text("".join(f"{v}\n" for v in values))
    for name, n in (("s", 6620), ("squares", 4000), ("block", 30001)):
        start = time.perf_counter()
        assert cli_main(["verify", "--input", str(tmp_path / f"{name}.txt")]) == 0, name
        assert time.perf_counter() - start < 1.0, name
        assert f'"elements": {n}' in capsys.readouterr().out


def test_big_integer_residues_take_the_array_path(monkeypatch):
    dtypes = []
    first_pair = verify._first_pair
    monkeypatch.setattr("propp.verify._first_pair",
                        lambda res, ai: dtypes.append(res.dtype) or first_pair(res, ai))
    rng = random.Random(15)
    outcomes = set()
    for t in range(80):
        seq = {rng.randrange(1 << 62, 1 << 90) for _ in range(rng.randint(3, 40))}
        if t % 2:  # plant a_i | a_j + a_k
            ai = rng.choice(sorted(seq))
            aj = rng.randrange(ai + 1, 1 << 90)
            seq |= {aj, (2 * aj // ai + rng.randint(2, 9)) * ai - aj}
        if t % 3 == 0:  # squares among the non-squares
            seq |= {rng.randrange(1 << 31, 1 << 45) ** 2 for _ in range(rng.randint(1, 20))}
        seq = sorted(seq)
        assert seq[-1] > 1 << 62
        outcomes.add(_assert_scan_matches(seq))
    assert outcomes == {True, False} and np.dtype(object) in dtypes


def test_format_errors():
    with pytest.raises(SequenceFormatError):
        check_property_p([3, 3, 5])
    with pytest.raises(SequenceFormatError):
        check_property_p([5, 3])
    with pytest.raises(SequenceFormatError):
        check_property_p([0, 1, 2])


def test_lemma1_examples():
    r = check_lemma1(3, 1, 1)
    assert r.outcome == APPLICABLE_VERIFIED and r.prime == 3
    r = check_lemma1(21, 7, 14)
    assert r.outcome == APPLICABLE_VERIFIED and r.prime == 3
    r = check_lemma1(25, 3, 4)
    assert r.outcome == NOT_APPLICABLE and r.prime is None
    # all class-3 divisors of n1 divide the gcd: not applicable
    r = check_lemma1(9, 3, 6)
    assert r.outcome == NOT_APPLICABLE


def test_lemma1_reports_smallest_prime():
    # 7 and 3 both divide n1 = 21; 3 divides the gcd, 7 does not
    r = check_lemma1(21, 6, 9)
    assert r.outcome == APPLICABLE_VERIFIED and r.prime == 7


def test_lemma1_walks_the_prime_store_in_blocks():
    # both stop within the first primes; the whole store to 10^7 as one
    # list of Python ints traced 22.8 MiB
    primes_upto(10 ** 7)
    tracemalloc.start()
    try:
        first = check_lemma1(10_000_019 * 300_000_000_091, 1, 2)
        second = check_lemma1(7 * 10_000_019 * 10_000_079, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (first.prime, second.prime) == (11, 7)
    assert peak < 8 * 1024 * 1024, peak


def test_lemma1_guards():
    with pytest.raises(DomainError):
        check_lemma1(0, 1, 1)
    with pytest.raises(DomainError):
        check_lemma1(3, 1, 0)


def test_union_holds_small():
    assert check_union_property_p(10 ** 4).holds
    assert check_union_property_p(728).holds
    assert check_union_property_p(10 ** 6, exclude_qi=True).holds


C3 = [int(p) for p in class3_upto(2000)]
C1 = [int(p) for p in primes_upto(300) if p % 4 == 1]


def _generic_scan(seq):
    """The per-outer-index residue scan for every i (the lattice's fallback
    alone): the lexicographically first witness, or None."""
    dtype = np.int64 if seq[-1] < 1 << 62 else object
    for i in range(len(seq) - 2):
        found = _first_pair(np.array([v % seq[i] for v in seq[i + 1:]], dtype=dtype), seq[i])
        if found is not None:
            return i, i + 1 + found[0], i + 1 + found[1]
    return None


def _brute_first_pair(res, ai):
    return next(((j, k) for j in range(len(res)) for k in range(j + 1, len(res))
                 if (res[j] + res[k]) % ai == 0), None)


def test_first_pair_matches_brute_force():
    rng = random.Random(23)
    outcomes = set()
    for t in range(3000):
        big = t % 3 == 0
        ai = rng.choice([1, 2, rng.randrange(1, 40), rng.randrange(1, 10 ** 9)])
        if big:
            ai = rng.choice([1, 2, rng.randrange(1 << 64, 1 << 90)])
        n = rng.choice([2, 2, 3, rng.randint(2, 60)])
        pool = [rng.randrange(ai) for _ in range(rng.randint(1, 8))]
        if t % 4 == 0 and ai % 2 == 0:  # 2r = 0 mod ai: a residue pairs only with itself
            pool.append(ai // 2)
        if t % 5 == 0:
            pool.append(0)
        res = [rng.choice(pool) if rng.random() < 0.7 else rng.randrange(ai) for _ in range(n)]
        expected = _brute_first_pair(res, ai)
        arr = np.array(res, dtype=object if big else np.int64)
        assert _first_pair(arr, ai) == expected, (res, ai)
        outcomes.add(expected is None)
    assert outcomes == {True, False}
    for res, ai, pair in (([0, 0], 5, (0, 1)), ([3, 1, 3], 6, (0, 2)), ([3, 1], 6, None),
                          ([1, 2, 0, 0], 3, (0, 1)), ([0, 1, 0], 2, (0, 2)), ([0, 0, 0], 1, (0, 1))):
        assert _first_pair(np.array(res), ai) == pair == _brute_first_pair(res, ai)


def test_lex_rank_is_the_position_among_combinations():
    for n in range(3, 14):
        for rank, (i, j, k) in enumerate(itertools.combinations(range(n), 3), 1):
            assert verify._lex_rank(n, i, j, k) == rank, (n, i, j, k)


def _assert_scan_matches(seq, naive=True):
    expected = _generic_scan(seq)
    if naive:
        assert naive_property_p(seq) == expected, seq
    verdict = check_property_p(seq, force=True)
    if expected is None:
        assert verdict.holds and verdict.triples_checked == math.comb(len(seq), 3), seq
    else:
        assert verdict.witness_indices == expected, seq
        assert verdict.witness == tuple(seq[t] for t in expected)
    return verdict.holds


def _class3_root(rng, most=3):
    """2^e times up to `most` class-3 primes: a root the lattice decides."""
    r = 1 << rng.randint(0, 3) if rng.random() < 0.3 else 1
    for _ in range(rng.randint(1, most)):
        r *= rng.choice(C3[:60])
    return r


def _squares(roots):
    return sorted({r * r for r in roots})


def _plant_shared_multiple(rng, roots):
    """Add two multiples of one root, so r_i | r_j and r_i | r_k."""
    r = rng.choice(sorted(roots))
    return roots | {r * _class3_root(rng, 2), r * rng.randint(2, 60)}


def _plant_sum_of_squares(rng, roots):
    """Add r = p c with p = a^2 + b^2 = 1 mod 4 and two roots x, y, neither
    a multiple of r, with r^2 | x^2 + y^2: (a^2 - b^2)^2 + (2ab)^2 = p^2."""
    p = rng.choice(C1)
    a, b = next((a, b) for a in range(1, p) for b in range(1, a)
                if a * a + b * b == p)
    c = _class3_root(rng, 1)
    m = next(m for m in itertools.count(p + 1 + rng.randint(0, 50)) if m % p)
    return roots | {p * c, (a * a - b * b) * c * m, 2 * a * b * c * m}


def _add_non_squares(rng, seq, count):
    out = set(seq)
    while len(out) < len(seq) + count:
        v = rng.randint(2, 2 * seq[-1])
        if math.isqrt(v) ** 2 != v:
            out.add(v)
    return sorted(out)


def test_lattice_matches_oracles_on_square_sequences():
    rng = random.Random(11)
    outcomes = set()
    for t in range(600):
        roots = {_class3_root(rng) for _ in range(rng.randint(3, 30))}
        if t % 3 == 0:
            roots = _plant_shared_multiple(rng, roots)
        if t % 5 == 1:  # roots with a prime factor = 1 mod 4
            roots = {r * rng.choice(C1) if rng.random() < 0.4 else r for r in roots}
        if t % 5 == 4:  # a witness that shares no multiple, among primes
            roots = _plant_sum_of_squares(rng, set(rng.sample(C3[100:], 20)))
        if t % 7 == 2:  # powers of 2
            roots |= {1 << e for e in rng.sample(range(1, 30), 4)}
        if t % 11 == 3:
            roots.add(1)
        outcomes.add(_assert_scan_matches(_squares(roots)))
    assert outcomes == {True, False}


def test_lattice_matches_oracles_on_s_samples():
    rng = random.Random(12)
    s = [e.value for e in enumerate_s(10 ** 12)]
    outcomes = set()
    for t in range(60):
        seq = sorted(rng.sample(s, rng.randint(20, 300)))
        if t % 2:
            roots = _plant_shared_multiple(rng, {math.isqrt(v) for v in seq})
            seq = _squares(roots)
        outcomes.add(_assert_scan_matches(seq, naive=len(seq) <= 40))
    assert outcomes == {True, False}


def test_lattice_matches_oracles_with_non_squares():
    rng = random.Random(13)
    outcomes = set()
    for t in range(400):
        roots = {_class3_root(rng) for _ in range(rng.randint(3, 30))}
        if t % 3 == 0:
            roots = _plant_shared_multiple(rng, roots)
        seq = _add_non_squares(rng, _squares(roots), 1 if t % 2 else rng.randint(2, 12))
        if t % 9 == 4:
            seq = [1] + [v for v in seq if v > 1]
        outcomes.add(_assert_scan_matches(seq))
    # large S samples with one or a few non-squares: the one-pass-per-
    # non-square lookup and the sorted fallback both run
    s = [e.value for e in enumerate_s(10 ** 10)]
    for count in (1, 2, 12):
        for _ in range(10):
            seq = _add_non_squares(rng, sorted(rng.sample(s, 300)), count)
            outcomes.add(_assert_scan_matches(seq, naive=False))
    assert outcomes == {True, False}


def test_lattice_matches_oracles_beyond_int64(monkeypatch):
    rng = random.Random(14)
    scale = 7 ** 20  # a class-3 factor keeps every root in the lattice
    outcomes = set()
    for t in range(200):
        roots = {_class3_root(rng) * scale for _ in range(rng.randint(3, 25))}
        if t % 3 == 0:
            roots = _plant_shared_multiple(rng, roots)
        if t % 4 == 1:
            roots = {r * rng.choice(C1) if rng.random() < 0.3 else r for r in roots}
        if t % 4 == 3:
            roots = {r * scale for r in _plant_sum_of_squares(rng, set())} | roots
        seq = _squares(roots)
        assert seq[0] > 1 << 62
        if t % 5 == 2:
            seq = _add_non_squares(rng, seq, rng.randint(1, 3))
        outcomes.add(_assert_scan_matches(seq))
    assert outcomes == {True, False}
    # a root m = p1 p2 past 3.3e24, p1 = 1 mod 4, where is_prime is only a
    # probable-prime test: were a strong pseudoprime m taken as prime, m^2
    # would miss the witness x^2 + y^2 = p2^2 (1 + s^2), s^2 = -1 mod p1^2
    p1 = next(p for p in itertools.count(2 * 10 ** 12 + 1, 4) if is_prime(p))
    p2 = next(p for p in itertools.count(2 * 10 ** 12 + 3, 4) if is_prime(p))
    m = p1 * p2
    assert m % 4 == 3 and m > IS_PRIME_EXACT_BELOW
    c = next(c for c in itertools.count(2) if pow(c, (p1 - 1) // 2, p1) == p1 - 1)
    s = pow(c, (p1 - 1) // 4, p1)
    s = (s - (s * s + 1) * pow(2 * s, -1, p1 * p1)) % (p1 * p1)  # Hensel lift
    seq = _squares({m, p2 * (1 + p1 * p1), p2 * (s + p1 * p1)})
    assert not _assert_scan_matches(seq)
    monkeypatch.setattr("propp.verify.is_prime", lambda v: v == m or is_prime(v))
    assert not _assert_scan_matches(seq)


def _plant_non_square_pair(rng, seq):
    """Add a_k = m a_i - a_t for a square a_i and a non-square a_t above it."""
    squares = [v for v in seq if math.isqrt(v) ** 2 == v]
    ai = rng.choice(squares[:max(1, len(squares) // 2)])
    at = next(v for v in itertools.count(ai + rng.randint(1, 3 * ai)) if math.isqrt(v) ** 2 != v)
    m = (2 * at) // ai + rng.randint(1, 4)
    return sorted(set(seq) | {at, m * ai - at})


def _mixed_sequences(rng, count):
    """Class-3 squares with a few non-squares, planted square pairs and
    non-square pairs, and now and then a far non-square that makes a
    lattice index's walk longer than its tail.  Odd draws take their roots
    from one octave of primes, where walks are short."""
    band = [p for p in C3 if 1000 < p < 2000]
    for t in range(count):
        if t % 2:
            roots = set(rng.sample(band, rng.randint(3, 25)))
        else:
            roots = {_class3_root(rng) for _ in range(rng.randint(3, 20))}
        if t % 4 == 0:
            roots = _plant_shared_multiple(rng, roots)
        seq = _squares(roots)
        if t % 4 == 1:
            seq = _plant_non_square_pair(rng, seq)
        seq = _add_non_squares(rng, seq, rng.randint(0, 2))
        if t % 3 == 2:  # = 2 mod 4, so no square
            seq.append(seq[-1] * 10 ** 6 + 2)
        yield seq


def _walk_outnumbers_tail(seq, i):
    """Do the m with m a_i in [a_{i+1} + a_t, a_{n-1} + a_t], over the
    non-squares a_t, t > i, outnumber i's tail?"""
    walk = 0
    for v in seq[i + 1:]:
        if math.isqrt(v) ** 2 != v:
            lo = -(-(seq[i + 1] + v) // seq[i])  # the ceiling
            walk += max(0, (seq[-1] + v) // seq[i] - lo + 1)
    return walk > len(seq) - 1 - i


def test_array_passes_match_the_cubic_loop(monkeypatch):
    seen = []
    passes = verify._non_square_pairs

    def record(a_np, at, *args):
        flagged = passes(a_np, at, *args)
        a = a_np.tolist()
        seen.extend((bool(f), _walk_outnumbers_tail(a, i)) for f, i in zip(flagged, at.tolist()))
        return flagged
    monkeypatch.setattr("propp.verify._non_square_pairs", record)
    rng = random.Random(21)
    scale = 7 ** 40  # a class-3 square: squares stay squares and roots stay in the lattice
    for shift in (1, scale):
        seen.clear()
        outcomes = set()
        for seq in _mixed_sequences(rng, 300):
            expected = naive_property_p(seq)
            verdict = check_property_p([v * shift for v in seq], force=True)
            assert verdict.witness_indices == expected, seq
            outcomes.add(verdict.holds)
        assert outcomes == {True, False}
        # the lookup found a non-square pair, and a long walk left an index undecided
        assert (True, False) in seen and (True, True) in seen
        assert (False, True) not in seen


def test_lookups_split_into_blocks(monkeypatch):
    # blocks of 16 cells: the walk and the reduction each span several blocks
    monkeypatch.setattr("propp.verify._LOOKUP_BLOCK", 16)
    walked = []
    count_hits = verify._count_hits
    monkeypatch.setattr("propp.verify._count_hits",
                        lambda counts, *a: walked.append(int(counts.sum())) or count_hits(counts, *a))
    rng = random.Random(22)
    for shift in (1, 7 ** 40):  # int64 roots, then Python ints past 2^63
        walked.clear()
        for seq in _mixed_sequences(rng, 200):
            verdict = check_property_p([v * shift for v in seq], force=True)
            assert verdict.witness_indices == naive_property_p(seq), seq
        assert max(walked) > 16


def _factor_row(root):
    """(q, [row]) with root = q^2 prod(row): q its prime of exponent 2 or 3,
    or 1 for a squarefree root; the other primes appear once."""
    f = factorize(root)
    q = next((p for p, e in f.items() if e > 1), 1)
    row = sorted(p for p, e in f.items() if p != q or e == 3)
    assert q * q * math.prod(row) == root
    return q, np.array([row], dtype=np.uint32)


def _planted_s(limit, planted):
    """S's roots and factor rows up to `limit` with the `planted` roots added."""
    roots, layers = s_roots(limit)
    new = sorted(set(planted) - set(roots.tolist()))
    return (np.array(sorted(roots.tolist() + new), dtype=np.int64),
            layers + [_factor_row(r) for r in new])


def _union_verdict_matches_the_scan(limit, monkeypatch=None, planted=()):
    roots, layers = _planted_s(limit, planted)
    if planted:
        monkeypatch.setattr("propp.verify.s_roots", lambda *args: (roots, layers))
    values = [int(r) ** 2 for r in roots]
    verdict = check_union_property_p(limit)
    assert verdict == check_property_p(values, force=True)
    return verdict, values


def test_union_matches_the_scan_on_s():
    for limit in (10 ** 12, 10 ** 14):
        assert _union_verdict_matches_the_scan(limit)[0].holds


def test_union_finds_a_planted_root(monkeypatch):
    # 21 divides the roots 63 (layer 1) and 7^2 * 3 * 11 (layer 2); r = 3 * 7
    # * 19 * 23 is planted with 2r and 5r, which no root of S divides: each
    # root has a square factor q_i^2, and r, 2r and 5r are squarefree; so is
    # big = 1000003 r, whose tail's squares are past 2^63 (among S <= 10^8,
    # as the generic scan of Python ints is slow)
    r = 3 * 7 * 19 * 23
    big = 1000003 * r
    assert is_prime(1000003) and (5 * big) ** 2 >= 1 << 63
    for limit, planted in ((10 ** 12, (21,)), (10 ** 12, (r, 2 * r, 5 * r)),
                           (10 ** 8, (big, 2 * big, 5 * big))):
        verdict, values = _union_verdict_matches_the_scan(limit, monkeypatch, planted)
        assert not verdict.holds and verdict.witness_indices == _generic_scan(values)
        assert values[verdict.witness_indices[0]] == planted[0] ** 2


def test_union_scans_a_planted_root_with_a_1_mod_4_factor(monkeypatch):
    # 55 = 5 * 11 divides neither 99 nor 132, yet 55^2 | 99^2 + 132^2 =
    # 165^2: 3^2 + 4^2 = 5^2.  No root divides two others, so only the
    # residue scan of the root with the factor 5 = 1 mod 4 finds it
    divided = []
    passes = verify._divided_twice
    monkeypatch.setattr("propp.verify._divided_twice",
                        lambda *a: divided.append(passes(*a)) or divided[-1])
    verdict, values = _union_verdict_matches_the_scan(10 ** 12, monkeypatch, (55, 99, 132))
    assert not verdict.holds and verdict.witness == (55 ** 2, 99 ** 2, 132 ** 2)
    assert verdict.witness_indices == _generic_scan(values)
    assert divided[0].size == 0  # the union's pass; the scan's come after


def test_roots_of_s_form_a_divisibility_antichain():
    roots = s_roots(10 ** 10)[0].tolist()
    assert len(roots) > 500
    assert not [(a, b) for t, a in enumerate(roots) for b in roots[t + 1:] if b % a == 0]


def test_divisor_pass_matches_the_multiple_walk_on_s():
    rng = random.Random(24)
    for limit, plant in ((10 ** 16, 0), (10 ** 12, 40)):
        base = s_roots(limit)[0].tolist()
        # multiples of some roots: a root found twice is then a violation
        planted = [r * c for r in rng.sample(base, plant)
                   for c in [c for c in (2, 3, 7, 11, 19) if r % c][:2]]
        roots, layers = _planted_s(limit, planted)
        twice = verify._divided_twice(roots, verify._layer_factors(layers))
        walk = verify._two_multiples(roots, np.arange(len(roots) - 2))
        assert twice.tolist() == np.flatnonzero(walk).tolist()
        assert (twice.size > 0) == (plant > 0)


def _verify_files():
    """The four shapes of the `verify` benchmark: S <= 10^12, 4,000 squares
    of class-3 primes, those with a non-square planted in their middle, and
    S_7 past 2^62."""
    rng = random.Random(25)
    s = s_roots(10 ** 12)[0]
    pool = [int(p) for p in class3_upto(10 ** 6) if p >= 200_000]
    squares = sorted(p * p for p in rng.sample(pool, 4000))
    p2, r2 = squares[2000], next(v for v in squares[2001:] if v > 2 * squares[2000])
    planted = sorted(squares + [p2 * (r2 // p2 + 2) - r2])
    s7 = [e.value for e in enumerate_s_i(7, 60 * 10 ** 24)]
    return [(s * s).tolist(), squares, planted, s7]


def test_verify_files_decide_the_lattice_on_either_side(monkeypatch):
    passes = []
    divided = verify._divided_twice

    def compare(roots, rows):
        twice = divided(roots, rows)
        walk = verify._two_multiples(roots, np.arange(len(roots) - 2))
        assert twice.tolist() == np.flatnonzero(walk).tolist()
        passes.append(len(roots))
        return twice
    monkeypatch.setattr("propp.verify._divided_twice", compare)
    for values, holds in zip(_verify_files(), (True, True, False, True)):
        verdict = check_property_p(values, force=True)
        assert verdict.holds == holds
        for walks in (0, 1 << 60):  # the divisor side wherever it can, then never
            monkeypatch.setattr("propp.verify._WALKS_A_ROOT", walks)
            assert check_property_p(values, force=True) == verdict
        monkeypatch.undo()
        monkeypatch.setattr("propp.verify._divided_twice", compare)
    # by default only S, with 16 multiples walked a root, takes the divisor
    # side; with no walk to beat, every file does (S_7's roots pass 2^31)
    assert passes == [6620, 6620, 4000, 4000, 2599]


def test_union_refuses_past_the_budget_before_enumerating(monkeypatch):
    def not_called(*args):
        raise AssertionError("a layer was enumerated past the budget")
    monkeypatch.setattr("propp.construct.layer_roots", not_called)
    monkeypatch.setattr("propp.construct._layer_rows", not_called)
    # S up to 10^22 has 347,580,002 roots and 464,899,424 primes of nu:
    # 16 bytes a root and 4 a prime price them at 6.91 GiB
    with pytest.raises(ResourceError, match="347580002"):
        check_union_property_p(10 ** 22)


def test_union_peak_stays_under_its_price():
    limit = 10 ** 14
    check_union_property_p(limit)  # the prime store, filled before tracing
    layers = count_s(limit)[1]
    price = sum(n * (verify._UNION_ROOT_BYTES + i * verify._UNION_FACTOR_BYTES)
                for i, n in layers.items())
    tracemalloc.start()
    try:
        check_union_property_p(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < price, (peak, price)


def test_roots_past_the_trial_budget_fall_back():
    # products of two class-3 primes near 46k are the costliest roots to
    # classify: trial division runs on up to their smaller factor
    rng = random.Random(15)
    big = [int(p) for p in class3_upto(46340) if p > 40000]
    for _ in range(20):
        roots = {rng.choice(big) * rng.choice(big) for _ in range(12)}
        if rng.random() < 0.5:
            roots = _plant_shared_multiple(rng, roots)
        _assert_scan_matches(_squares(roots))


def _factored_oracle(f, bound):
    """Trial division up to `bound` leaves 1 or a single prime that
    Miller-Rabin proves (below 3.3e24)."""
    left = [p for p, e in f.items() for _ in range(e) if p > bound]
    return len(left) <= 1 and all(p < IS_PRIME_EXACT_BELOW for p in left)


def _assert_lattice_roots(factored):
    rows = sorted({math.prod(p ** e for p, e in f.items()): f for f in factored}.items())
    roots = [r for r, _ in rows]
    arr = np.array(roots, dtype=np.int64 if roots[-1] < 1 << 63 else object)
    bound = min(math.isqrt(roots[-1]), math.isqrt(1 << 31))
    proven, factors = _lattice_roots(arr, factors=arr.dtype == np.int64)
    assert proven.tolist() == [all(p % 4 != 1 for p in f) and _factored_oracle(f, bound)
                               for _, f in rows], rows
    assert _lattice_roots(arr)[0].tolist() == proven.tolist()
    if arr.dtype == np.int64:  # the rows, when every root is factored
        complete = all(_factored_oracle(f, bound) for _, f in rows)
        assert (factors is not None) == complete, rows
        if complete:
            P, E = factors
            assert [{p: e for p, e in zip(P[t].tolist(), E[t].tolist()) if e}
                    for t in range(len(rows))] == [f for _, f in rows]


def test_lattice_roots_match_factorisations():
    rng = random.Random(16)
    small = [1, 2, 1 << 20, 9, 25, 63, 75, 441, 507, 3 ** 7 * 7 ** 3]
    small += [rng.randrange(1, 10 ** 7) for _ in range(400)]
    _assert_lattice_roots([factorize(r) for r in small])
    _assert_lattice_roots([{}])

    def prime(n):
        return factorize(n) == {n: 1}

    # past 2^31 the trial division stops at 46340; primes just below its
    # square are decided by it, primes just above by Miller-Rabin
    cap = math.isqrt(1 << 31)
    below = [next(p for p in range(cap * cap, 0, -1) if p % 4 == c and prime(p))
             for c in (1, 3)]
    above = [next(p for p in itertools.count(cap * cap + 1) if p % 4 == c and prime(p))
             for c in (1, 3)]
    p1, p2 = [p for p in range(cap + 1, cap + 100) if prime(p)][:2]
    base = [{}, {2: 62}, {5: 2}, {3: 2}, {3: 2, 7: 1}, {13: 2, 3: 1}, {7: 4, 11: 2},
            {p1: 1, p2: 1}, {p1: 2}, {(1 << 61) - 1: 1}]  # 2^61 - 1 is prime
    base += [{p: 1} for p in below + above] + [{3: 1, p: 1} for p in above]
    _assert_lattice_roots(base)  # int64, max root 2^62
    big = (1 << 89) - 1  # prime, = 3 mod 4 and past 3.3e24: only probable
    _assert_lattice_roots(base + [{big: 1}, {3: 1, big: 1}])  # object array
    _assert_lattice_roots([{**f, 3: f.get(3, 0) + 40} for f in base])  # all >= 2^63


def test_union_frontier_1e14():
    t0 = time.monotonic()
    v = check_union_property_p(10 ** 14)
    elapsed = time.monotonic() - t0
    assert v.holds and v.triples_checked == math.comb(55769, 3)
    assert elapsed < 60.0, elapsed
