import io
import math
import tracemalloc

import numpy as np
import pytest

from propp import DomainError, ResourceError, SequenceFormatError, primes, seqfile
from propp.construct import (
    baseline_squares,
    contribution_window,
    contribution_window_from_logs,
    enumerate_s,
    enumerate_s_i,
    finite_block,
    max_set_index,
    min_element,
    s_i_roots,
    s_roots,
)
from propp.counting import count_s, count_s_i
from propp.primes import nth_q
from propp.seqfile import parse_sequence, read_sequence, write_sequence

from _naive import naive_layer, shape_layer_index, trial_division_class3


def test_enumerate_s_i_frozen_examples():
    assert [e.value for e in enumerate_s_i(1, 10 ** 4)] == [729, 3969, 9801]
    assert [e.value for e in enumerate_s_i(2, 2 * 10 ** 6)] == [1058841]
    assert enumerate_s_i(1, 700) == []


def test_enumerate_s_i_metadata():
    elems = enumerate_s_i(2, 10 ** 8)
    for e in elems:
        assert e.set_index == 2
        assert len(e.nu_factors) == 2
        assert len(set(e.nu_factors)) == 2
        assert all(p % 4 == 3 for p in e.nu_factors)
        assert list(e.nu_factors) == sorted(e.nu_factors)
        assert e.value == 7 ** 4 * math.prod(e.nu_factors) ** 2


_CLASS3 = trial_division_class3(12000)


@pytest.mark.parametrize("exclude_qi", [False, True])
@pytest.mark.parametrize("i, limit", [(1, 10 ** 10), (2, 10 ** 12), (3, 10 ** 14),
                                      (4, 10 ** 16), (4, 3 * 10 ** 12)])
def test_layer_roots_match_a_recursive_walk(i, limit, exclude_qi):
    roots, rows = s_i_roots(i, limit, exclude_qi)
    expected = naive_layer(i, limit, _CLASS3, exclude_qi)
    assert roots.dtype == np.int64 and rows.shape == (len(expected), i)
    assert [(r * r, tuple(f)) for r, f in zip(roots.tolist(), rows.tolist())] == expected
    assert len(roots) == count_s_i(i, limit, exclude_qi)
    assert [(e.value, e.nu_factors) for e in enumerate_s_i(i, limit, exclude_qi)] == expected


@pytest.mark.parametrize("exclude_qi", [False, True])
def test_layer_roots_past_int64_are_python_ints(exclude_qi):
    # q_13^2 nu passes 2^63 from the layer's least element on
    limit = min_element(13, exclude_qi) * 100
    roots, rows = s_i_roots(13, limit, exclude_qi)
    expected = naive_layer(13, limit, _CLASS3, exclude_qi)
    assert roots.dtype == object and len(expected) > 20
    assert [(r * r, tuple(f)) for r, f in zip(roots.tolist(), rows.tolist())] == expected
    assert len(roots) == count_s_i(13, limit, exclude_qi)


def test_layer_roots_below_the_least_element_are_empty():
    for i in (1, 2, 5):
        roots, rows = s_i_roots(i, min_element(i) - 1)
        assert roots.shape == (0,) and rows.shape == (0, i)
        assert len(s_i_roots(i, min_element(i))[0]) == 1


def test_s_roots_are_the_union_of_the_layers():
    for limit, exclude_qi in ((10 ** 12, False), (10 ** 14, True), (700, False)):
        roots, layers = s_roots(limit, exclude_qi)
        values = [e.value for e in enumerate_s(limit, exclude_qi)]
        assert [r * r for r in roots.tolist()] == values
        counts = count_s(limit, exclude_qi)[1]
        assert len(roots) == sum(counts.values()) and len(layers) == len(counts)
        for i, (q, rows) in enumerate(layers, start=1):  # each layer's rows, in any order
            layer, layer_rows = s_i_roots(i, limit, exclude_qi)
            assert q == nth_q(i) and rows.dtype == np.uint32
            assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, layer_rows.tolist()))
            assert sorted((q * q * rows.astype(np.int64).prod(axis=1)).tolist()) == layer.tolist()


def test_s_roots_price_the_store_growth(monkeypatch):
    # S up to 10^14 fills the class-3 store to its first layer's sieve
    # bound, 10^7 // 9: under a budget that holds its roots and rows but
    # not half that growth, an emptied store refuses the limit before it
    # sieves, and a store already filled that far admits it
    limit, top = 10 ** 14, math.isqrt(10 ** 14 // 81)
    counts = count_s(limit)[1]
    held = sum(n * (16 + 4 * i) for i, n in counts.items())
    for name in ("_cached_primes", "_cached_class3"):
        monkeypatch.setattr(primes, name, getattr(primes, name)[:0])
    monkeypatch.setattr(primes, "_cached_limit", 1)
    monkeypatch.setattr("propp.errors.MEMORY_BUDGET", held + 4 * primes._capacity(top))
    with pytest.raises(ResourceError, match=str(sum(counts.values()))):
        s_roots(limit, False, 16, 4)
    assert primes.sieved_limit() < top
    primes.class3_upto(top)
    assert len(s_roots(limit, False, 16, 4)[0]) == sum(counts.values())


def test_enumerate_s_small():
    assert [e.value for e in enumerate_s(10 ** 3)] == [729]
    assert [e.value for e in enumerate_s(10 ** 6)] == \
        [e.value for e in enumerate_s_i(1, 10 ** 6)]


def test_enumerate_s_matches_brute_force_scan():
    # every element of some layer is divisible by a fourth power q^4 <= limit,
    # so scanning those multiples and trial-factoring each candidate is a
    # complete independent oracle
    limit = 10 ** 7
    class3 = trial_division_class3(4000)
    candidates = set()
    for q in class3:
        q4 = q ** 4
        if q4 > limit:
            break
        candidates.update(range(q4, limit + 1, q4))
    expected = sorted(n for n in candidates
                      if shape_layer_index(n, class3) is not None)
    got = [e.value for e in enumerate_s(limit)]
    assert got == expected


def test_enumerate_s_brute_force_exclude_variant():
    limit = 10 ** 5
    class3 = trial_division_class3(400)
    expected = [n for n in range(1, limit + 1) if n % 81 == 0
                if shape_layer_index(n, class3, exclude_qi=True) is not None]
    got = [e.value for e in enumerate_s(limit, exclude_qi=True)]
    assert got == expected
    assert 729 not in got
    assert got[0] == 81 * 49


def test_unique_membership_and_counting_consistency():
    limit = 10 ** 8
    elems = enumerate_s(limit)
    values = [e.value for e in elems]
    assert values == sorted(set(values))
    total = sum(len(enumerate_s_i(i, limit)) for i in range(1, max_set_index(limit) + 1))
    assert len(elems) == total
    # exactly one class-3 prime attains valuation >= 4 in each element
    for e in elems:
        quads = []
        for q in trial_division_class3(1200):
            v = 0
            n = e.value
            while n % q == 0:
                v += 1
                n //= q
            if v >= 4:
                quads.append((q, v))
        assert len(quads) == 1
        q, v = quads[0]
        assert v == (6 if q in e.nu_factors else 4)


def test_max_set_index():
    assert max_set_index(728) == 0
    assert max_set_index(10 ** 6) == 1
    assert max_set_index(1058841) == 2
    assert max_set_index(1058840) == 1


def test_min_element_values():
    assert min_element(1) == 729
    assert min_element(2) == 1058841
    assert min_element(1, exclude_qi=True) == 81 * 49
    # the 8th layer already exceeds 64-bit range
    assert min_element(8) > 2 ** 64


def test_baseline_squares():
    assert baseline_squares(150) == [9, 49, 121]
    assert baseline_squares(8) == []
    assert baseline_squares(361) == [9, 49, 121, 361]


def test_builders_refuse_past_the_memory_budget(monkeypatch):
    # each list is a few MB: refused under a 1 MB budget before it is built
    monkeypatch.setattr("propp.errors.MEMORY_BUDGET", 1 << 20)
    for build, args in ((enumerate_s, (10 ** 12,)), (enumerate_s_i, (1, 10 ** 12)),
                        (baseline_squares, (10 ** 16,))):
        with pytest.raises(ResourceError):
            build(*args)
    assert len(enumerate_s(10 ** 8)) == 107  # a list under the budget is built


def test_finite_block():
    assert finite_block(9) == [6, 7, 8, 9]
    assert finite_block(1) == [1]
    assert finite_block(10) == [7, 8, 9, 10]
    for x in (1, 2, 3, 17, 100, 999):
        block = finite_block(x)
        assert len(block) == x // 3 + 1
        assert block[-1] == x


def test_contribution_window_from_logs():
    # oracle: direct evaluation of k = floor(y), l = floor(sqrt(y)) at
    # y = log(log(x)/2)/2, on points safely off the floor boundaries
    def expected(log_x):
        y = math.log(log_x / 2.0) / 2.0
        k, l = math.floor(y), math.floor(math.sqrt(y))
        return k + 2, k + l

    for target_y in (4.00001, 4.5, 6.25, 9.00001, 10.7):
        log_x = 2.0 * math.exp(2.0 * target_y)
        assert contribution_window_from_logs(log_x) == expected(log_x)
    assert contribution_window_from_logs(2.0 * math.exp(9.0000002)) == (6, 6)
    assert contribution_window_from_logs(2.0 * math.exp(18.0000002)) == (11, 12)


def test_contribution_window_bigint():
    # 10**2590 sits just above the y = 4 threshold
    assert contribution_window(10 ** 2590) == (6, 6)
    assert contribution_window(10 ** 7039) == (6, 6)


def test_contribution_window_guards():
    with pytest.raises(DomainError):
        contribution_window(10 ** 100)  # y ~ 2.37: l = 1, window empty
    with pytest.raises(DomainError) as err:
        contribution_window(100)
    assert "log" in str(err.value)
    with pytest.raises(DomainError):
        contribution_window_from_logs(2.0 * math.exp(7.9))


def test_domain_guards():
    for bad in (0, -3, 2.5):
        with pytest.raises(DomainError):
            enumerate_s_i(1, bad)
        with pytest.raises(DomainError):
            enumerate_s(bad)
    with pytest.raises(DomainError):
        enumerate_s_i(0, 100)
    with pytest.raises(DomainError):
        finite_block(0)


def test_sequence_file_roundtrip(tmp_path):
    values = [e.value for e in enumerate_s(10 ** 6)]
    buf = io.StringIO()
    write_sequence(values, buf)
    text = buf.getvalue()
    assert text.endswith("\n")
    assert parse_sequence(text) == values
    path = tmp_path / "seq.txt"
    path.write_text(text)
    assert read_sequence(str(path)) == values


def _written(values) -> str:
    buf = io.StringIO()
    write_sequence(values, buf)
    return buf.getvalue()


class _Recording:
    def __init__(self):
        self.texts = []

    def write(self, text):
        self.texts.append(text)


def test_array_writer_matches_the_value_loop(monkeypatch):
    blocks = []
    array_path = seqfile._write_array
    monkeypatch.setattr(seqfile, "_write_array",
                        lambda values, stream: blocks.append(len(values))
                        or array_path(values, stream))
    edges = {1, 2 ** 63 - 1} | {10 ** d + e for d in range(1, 19) for e in (-1, 0)}
    chunk = seqfile._WRITE_CHUNK
    arrays = [sorted(edges), [], [5], [10 ** 18]]
    arrays += [range(1, n + 1) for n in (chunk - 1, chunk, chunk + 1)]
    arrays += [range(10 ** 6 - chunk, 10 ** 6 + 2), range(97, 97 + 3 * chunk, 3)]
    for values in arrays:
        values = list(values)
        assert _written(np.array(values, dtype=np.int64)) == \
            "".join(f"{v}\n" for v in values), values[:3]
    # uint32 groups by the powers of ten it holds, 10^9 the last
    top = 2 ** 32 - 1
    arrays32 = [sorted({1, top} | {10 ** d + e for d in range(1, 10) for e in (-1, 0)}),
                [999_999_999, 1_000_000_000, top], [1_000_000_000], [top],
                range(top - chunk, top + 1, 7)]
    for values in arrays32:
        values = list(values)
        assert _written(np.array(values, dtype=np.uint32)) == \
            "".join(f"{v}\n" for v in values), values[:3]
    # one digit group of chunk - 1, chunk and chunk + 1 values: the last
    # splits into a full block and a one-value block
    for dtype, first in ((np.int64, 10 ** 12), (np.uint32, top - chunk)):
        for n in (chunk - 1, chunk, chunk + 1):
            values, stream = range(first, first + n), _Recording()
            write_sequence(np.array(values, dtype=dtype), stream)
            assert "".join(stream.texts) == "".join(f"{v}\n" for v in values)
            assert [t.count("\n") for t in stream.texts] == \
                [min(n, chunk)] + [1] * (n > chunk), (dtype, n)
    assert len(blocks) == len(arrays) + len(arrays32) + 6
    blocks.clear()
    # the rest goes value by value, to the same bytes
    fallbacks = [np.array([5, 3, 9], dtype=np.int64), np.array([4, 4], dtype=np.int64),
                 np.array([0, 1, 2], dtype=np.int64), np.array([-7, 2], dtype=np.int64),
                 np.array([3, 7, 11], dtype=np.int32), np.array([3, 7], dtype=np.uint64),
                 [3, 10 ** 19, 2 ** 64 + 1, 10 ** 40],
                 np.array([3, 10 ** 30], dtype=object)]
    for values in fallbacks:
        assert _written(values) == "".join(f"{v}\n" for v in values)
    assert _written(v * v for v in range(1, 50)) == \
        "".join(f"{v * v}\n" for v in range(1, 50))
    assert blocks == []


class _Discard:
    def write(self, text):
        pass


def test_array_writer_formats_uint32_without_an_int64_copy():
    # 16 MB of uint32 values past 10^9: an int64 copy of the array alone
    # would take 32 MB; the writer's blocks of 2^16 values took 4.0 MiB
    # (9.25 MiB in blocks of 2^18 split by np.divmod)
    values = np.arange(2 ** 32 - 2 ** 22, 2 ** 32, dtype=np.uint32)
    tracemalloc.start()
    try:
        write_sequence(values, _Discard())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes // 3


def test_sequence_file_format_errors():
    with pytest.raises(SequenceFormatError):
        parse_sequence("3\n2\n")
    with pytest.raises(SequenceFormatError):
        parse_sequence("3\n\n5\n")
    with pytest.raises(SequenceFormatError):
        parse_sequence("3\n5")
    with pytest.raises(SequenceFormatError):
        parse_sequence("0\n")
    with pytest.raises(SequenceFormatError):
        parse_sequence("-2\n")
    with pytest.raises(SequenceFormatError):
        parse_sequence(" 3\n")
    assert parse_sequence("") == []


def _read_by_line(path):
    """read_sequence's per-line path: the values, or the error message."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        text = fh.read()
    try:
        return parse_sequence(text, source=str(path))
    except SequenceFormatError as exc:
        return str(exc)


def test_array_reader_matches_the_line_parser(tmp_path, monkeypatch):
    # arrays, of which a zero, a repeat and a descent fail the array check
    arrays = [b"1\n", b"7\n12\n", b"0007\n8\n", b"".join(b"%d\n" % v for v in range(1, 3000, 7)),
              b"%d\n%d\n" % (10 ** 17, 10 ** 18 - 1), b"5\n" + b"9" * 18 + b"\n",
              b"3\n" + b"0" * 17 + b"4\n", b"0\n5\n", b"5\n3\n", b"5\n5\n",
              b"5\n" + b"0" * 17 + b"4\n"]
    per_line = [b"", b"3\r\n5\r\n", b"3\r5\r", b"3\n\n5\n", b"\n", b"3\n\xc3\xa9\n",
                b"3\n" + b"1" * 19 + b"\n", b"%d\n%d\n" % (10 ** 17 + 3, 10 ** 19),
                b"3\n5", b"-2\n", b" 3\n", b"3 \n", b"+4\n", b"1\n" + b"9" * 5000 + b"\n"]
    seen = []
    read_array = seqfile._read_array
    monkeypatch.setattr(seqfile, "_read_array", lambda data: seen.append(
        read_array(data) is not None) or read_array(data))
    for t, data in enumerate(arrays + per_line):
        path = tmp_path / f"seq{t}.txt"
        path.write_bytes(data)
        try:
            got = read_sequence(str(path))
        except SequenceFormatError as exc:
            got = str(exc)
        assert got == _read_by_line(path), data
    assert seen == [True] * len(arrays) + [False] * len(per_line)


def test_validate_sequence_checks_an_int64_array_whole():
    assert seqfile.validate_sequence(np.array([1, 5, 9], dtype=np.int64)) == [1, 5, 9]
    for bad in ([0, 5], [5, 3], [4, 4], [1, 2, 7, 6]):
        with pytest.raises(SequenceFormatError) as by_list:
            seqfile.validate_sequence(bad)
        with pytest.raises(SequenceFormatError) as by_array:
            seqfile.validate_sequence(np.array(bad, dtype=np.int64))
        assert str(by_array.value) == str(by_list.value)
