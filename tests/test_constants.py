import math
import tracemalloc

import numpy as np
import pytest

from _naive import trial_division_primes
from test_counting import _cold
from propp import DomainError, constants, primes
from propp.constants import (
    BOUND_WINDOW,
    EULER_GAMMA,
    ConstantEstimate,
    bounds_report,
    c34,
    corollary_constant,
    digamma,
    envelope,
    euler_product,
    gamma_triple,
    h_eval,
    h_second,
    h_second_factor,
    lambda_p2_sum,
    mertens_m34,
    prime_log_sum,
    theorem_terms,
    theorem_terms_from_logs,
    trigamma,
)


def _grid(lo, hi, n=11):
    return [lo + (hi - lo) * t / (n - 1) for t in range(n)]


# ---------------------------------------------------------------- gamma

def test_gamma_classical_values():
    t = gamma_triple(0.0)
    assert t.gamma == 1.0
    assert t.gamma1 == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert t.gamma2 == pytest.approx(EULER_GAMMA ** 2 + math.pi ** 2 / 6, abs=1e-12)
    assert t.gamma2 == pytest.approx(1.97811, abs=1e-5)
    assert math.gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)


def test_gamma_recurrence_identity():
    for x in (0.1, 0.5, 1.1655, 1.5):
        lhs = math.gamma(x + 1)
        assert abs(lhs - x * math.gamma(x)) / lhs < 1e-10


def test_digamma_trigamma_known_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert digamma(2.0) == pytest.approx(1 - EULER_GAMMA, abs=1e-12)
    assert digamma(1.5) == pytest.approx(2 - EULER_GAMMA - 2 * math.log(2), abs=1e-12)
    assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-12)
    assert trigamma(0.5) == pytest.approx(math.pi ** 2 / 2, abs=1e-12)
    assert trigamma(1.5) == pytest.approx(math.pi ** 2 / 2 - 4, abs=1e-12)


def test_gamma_derivatives_match_finite_differences():
    # independent oracle: central differences of math.gamma itself
    for x in _grid(*BOUND_WINDOW, n=5) + [0.5, 1.0, 1.9]:
        t = gamma_triple(x)
        z = x / 2 + 1
        d1 = 1e-5
        fd1 = (math.gamma(z + d1) - math.gamma(z - d1)) / (2 * d1)
        assert abs(t.gamma1 - fd1) / abs(fd1) < 1e-6
        d2 = 1e-4  # wider step keeps the second-difference cancellation benign
        fd2 = (math.gamma(z + d2) - 2 * math.gamma(z) + math.gamma(z - d2)) / d2 ** 2
        assert abs(t.gamma2 - fd2) / abs(fd2) < 1e-6


def test_gamma_triple_guard():
    with pytest.raises(DomainError):
        gamma_triple(-0.1)
    with pytest.raises(DomainError):
        gamma_triple(4.5)


# ------------------------------------------------------- prime constants

def test_mertens_estimate_contract():
    est = mertens_m34(10 ** 3)
    assert isinstance(est, ConstantEstimate)
    assert est.truncation == 10 ** 3
    assert math.isfinite(est.value)
    with pytest.raises(DomainError):
        mertens_m34(999)


def test_mertens_decade_stability_small():
    a = mertens_m34(10 ** 6).value
    b = mertens_m34(10 ** 7).value
    assert abs(a - b) < 0.005
    # both already sit inside the widened published band
    assert 0.0432 < a < 0.0533
    assert 0.0432 < b < 0.0533


def test_c34_identity_and_oscillation_report():
    m = mertens_m34(10 ** 7).value
    c = c34(10 ** 7)
    assert abs(c.value - 2 * m) < 0.01
    assert c.value > 0.0864
    values = [c34(10 ** d).value for d in (6, 7)]
    spread = max(values) - min(values)
    assert math.isfinite(spread)  # reported, monotonicity deliberately not asserted


def test_lambda_p2_bounds_and_monotonicity():
    est = lambda_p2_sum(10 ** 4)
    assert est.value < 0.1485
    assert est.upper_bound < 0.1486
    bigger = lambda_p2_sum(10 ** 5)
    assert bigger.value > est.value
    with pytest.raises(DomainError):
        lambda_p2_sum(10 ** 3)


def test_prime_log_sum_properties():
    plimit = 10 ** 6
    v0 = prime_log_sum(0.0, plimit)
    assert abs(v0 - (-EULER_GAMMA / 2 + 0.04825)) < 0.01
    grid = _grid(*BOUND_WINDOW)
    vals = [prime_log_sum(x, plimit) for x in grid]
    assert all(-0.2905 < v < -0.2403 for v in vals)
    # decreasing in x, term by term
    samples = [prime_log_sum(x, plimit) for x in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(a > b for a, b in zip(samples, samples[1:]))
    with pytest.raises(DomainError):
        prime_log_sum(1.5, plimit)
    with pytest.raises(DomainError):
        prime_log_sum(0.5, 10 ** 3)


@pytest.fixture(scope="module")
def naive_primes():
    return trial_division_primes(10 ** 5)


def _reference_sums(ps, x):
    """Per-prime reference: each prime's terms combined first, then fsum."""
    def lam(p):
        return 1.0 if p % 4 == 3 else 0.0
    return {
        "m34": math.fsum(lam(p) / p for p in ps),
        "c34": EULER_GAMMA + math.fsum(math.log1p(-1.0 / p) + 2.0 * lam(p) / p
                                       for p in ps),
        "lp2": math.fsum(lam(p) / (p * p) for p in ps),
        "t": math.fsum(0.5 * math.log1p(-1.0 / p) + lam(p) / (p + x) for p in ps),
        "s2": math.fsum(lam(p) / (p + x) ** 2 for p in ps),
        "log_product": math.fsum((x / 2.0) * math.log1p(-1.0 / p)
                                 + math.log1p(x * lam(p) / p) for p in ps),
    }


@pytest.mark.parametrize("limit", [10 ** 4, 10 ** 5])
def test_prime_sums_match_a_per_prime_reference(naive_primes, limit):
    ps = [p for p in naive_primes if p <= limit]
    ref = _reference_sums(ps, 0.0)
    close = dict(rel=1e-12, abs=0.0)
    assert mertens_m34(limit).value == pytest.approx(
        ref["m34"] - 0.5 * math.log(math.log(limit)), **close)
    assert c34(limit).value == pytest.approx(ref["c34"], **close)
    assert lambda_p2_sum(limit).value == pytest.approx(ref["lp2"], **close)
    for x in (0.0, 1.0 / 3.0, 1.0, 2.0):
        ref = _reference_sums(ps, x)
        if x <= 1.0:
            assert prime_log_sum(x, limit) == pytest.approx(ref["t"], **close)
        assert euler_product(x, limit) == pytest.approx(
            math.exp(ref["log_product"]), **close)
        g = gamma_triple(x)
        f = (ref["t"] ** 2 / g.gamma - g.gamma2 / (4.0 * g.gamma ** 2)
             - ref["s2"] / g.gamma - g.gamma1 * ref["t"] / g.gamma ** 2
             + g.gamma1 ** 2 / (2.0 * g.gamma ** 3))
        assert h_second_factor(x, limit) == pytest.approx(f, **close)


def test_truncated_sums_do_not_move_when_the_store_grows(monkeypatch):
    # start from an empty store and memo, so the first sum sieves only to 1e5
    for name in ("_cached_primes", "_cached_class3"):
        monkeypatch.setattr(primes, name, getattr(primes, name)[:0])
    monkeypatch.setattr(primes, "_cached_limit", 1)
    constants._truncation_sums.cache_clear()
    before = mertens_m34(10 ** 5).value
    primes.primes_upto(10 ** 7)
    assert primes._cached_limit >= 10 ** 7
    constants._truncation_sums.cache_clear()
    assert mertens_m34(10 ** 5).value == before


_LEAF = constants._LEAF


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 127, 128, 129,
                               _LEAF - 1, _LEAF, _LEAF + 1, 3 * _LEAF + 5])
def test_tree_sums_equal_np_sum_bit_for_bit(n):
    # a numpy whose pairwise split differs fails here, not in the output bits
    values = np.random.default_rng(n).standard_normal(n) * 1e3
    sums = constants._tree_sums(values, [lambda v, out: v,
                                         lambda v, out: np.divide(1.0, v, out=out)])
    assert sums == [float(np.sum(values)), float(np.sum(1.0 / values))]


# 10^7: 664,579 primes, a tree of several leaves
@pytest.mark.parametrize("plimit", [10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7])
def test_one_buffer_sums_equal_the_per_point_expressions(plimit):
    p, q = primes.primes_upto(plimit), primes.class3_upto(plimit)
    xs = _grid(*BOUND_WINDOW) + [0.0, 1.0, 2.0]
    rows = constants._class3_sums(xs, plimit, "recip", "recip_sq", "log1p")
    for x, (recip, recip_sq, log1p) in zip(xs, rows):
        # reference: a fresh per-point expression with its own temporaries
        assert recip == np.sum(1.0 / (q + x))
        assert recip_sq == np.sum(1.0 / np.square(q + x, dtype=np.float64))
        assert log1p == np.sum(np.log1p(x / q))
    constants._truncation_sums.cache_clear()
    log_sum, class3_sum = constants._truncation_sums(plimit)
    assert log_sum == np.sum(np.log1p(-1.0 / p))
    assert class3_sum == np.sum(1.0 / q)
    # the scalar functions are one-point grids: bit for bit the grid entries
    sums = constants._prime_log_sums(xs, plimit)
    fs, products = zip(*constants._h_family(xs, plimit))
    for x, (recip, recip_sq, _), s, prod, f in zip(xs, rows, sums, products, fs):
        assert s == 0.5 * log_sum + recip
        if x <= 1.0:
            assert prime_log_sum(x, plimit) == s
        assert euler_product(x, plimit) == prod
        assert h_eval(x, plimit) == prod / math.gamma(x / 2.0 + 1.0)
        assert h_second_factor(x, plimit) == f
        assert h_second(x, plimit) == f * prod
    assert lambda_p2_sum(plimit).value == rows[xs.index(0.0)][1]


def test_bounds_report_reads_the_class3_store_once_per_truncation_and_grid(
        monkeypatch):
    reads = []

    def counted_class3_upto(limit):
        reads.append(limit)
        return primes.class3_upto(limit)

    monkeypatch.setattr(constants, "class3_upto", counted_class3_upto)
    constants._truncation_sums.cache_clear()
    bounds_report(10 ** 6, 10 ** 5)
    # 10^6: the truncation sums and the prime-log-sum grid.  10^5: the
    # truncation sums (the decade drift) and one h-family pass for the grid
    # and h''(1/3), which the corollary constant reuses.  10^4: lambda/p^2.
    assert sorted(reads) == [10 ** 4] + [10 ** 5] * 2 + [10 ** 6] * 2
    reads.clear()
    constants.h_second(1 / 3, 10 ** 5)  # the truncation sums are memoised
    assert reads == [10 ** 5]


def test_bounds_report_makes_no_prime_length_float_array():
    # any float64 array over the 664,579 primes up to 10^7 is 5.3 MB; the
    # leaves of the prime sums take 1 MiB (5.4 MB when they were one buffer)
    primes.primes_upto(10 ** 7)
    constants._truncation_sums.cache_clear()
    tracemalloc.start()
    try:
        bounds_report(10 ** 7, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024, peak


# -------------------------------------------------------------- h family

def test_h_at_zero_is_exactly_one():
    assert h_eval(0.0, 10 ** 4) == 1.0
    assert euler_product(0.0, 10 ** 4) == 1.0


def test_product_bound_on_window():
    for x in _grid(*BOUND_WINDOW):
        p = euler_product(x, 10 ** 5)
        assert 0.0 < p < 0.9238
        h = h_eval(x, 10 ** 5)
        assert 0.0 < h < 0.9238 / gamma_triple(x).gamma * (1 + 1e-9)


def test_h_truncation_stability():
    a = h_eval(1 / 3, 10 ** 5)
    b = h_eval(1 / 3, 10 ** 6)
    assert abs(a - b) < 1e-3


def test_h_second_analytic_vs_numeric():
    for x in _grid(*BOUND_WINDOW, n=5):
        ana = h_second(x, 10 ** 5, "analytic")
        num = h_second(x, 10 ** 5, "numeric")
        assert abs(ana - num) < 1e-3, x


def test_h_second_factor_bound():
    for x in _grid(*BOUND_WINDOW):
        assert h_second_factor(x, 10 ** 5) >= -0.5315


def test_h_second_bound_at_one_third():
    assert h_second(1 / 3, 10 ** 5, "analytic") > -0.492


def test_h_family_guards():
    with pytest.raises(DomainError):
        h_eval(-0.1, 10 ** 4)
    with pytest.raises(DomainError):
        h_eval(2.5, 10 ** 4)
    with pytest.raises(DomainError):
        h_second(0.5, 10 ** 3, "analytic")
    with pytest.raises(DomainError):
        h_second(0.5, 10 ** 4, "midpoint")
    with pytest.raises(DomainError):
        h_second(0.0, 10 ** 4, "numeric")  # needs an interior point


def test_corollary_constant():
    value = corollary_constant(1 / 3, c34_limit=10 ** 6, h_plimit=10 ** 5)
    assert value >= 0.802
    # worst-case arithmetic from the published brackets alone
    assert 1 + 0.0964 / 2 - 0.492 / 2 == pytest.approx(0.8022, abs=1e-4)
    with pytest.raises(DomainError):
        corollary_constant(0.5)


# ------------------------------------------------------------- envelope

def test_envelope_value_and_guards():
    assert envelope(10 ** 6) == pytest.approx(41.8694295935, rel=1e-9)
    with pytest.raises(DomainError) as e1:
        envelope(1)
    assert "log x" in str(e1.value)
    with pytest.raises(DomainError) as e2:
        envelope(2)
    assert "log log x" in str(e2.value)
    with pytest.raises(DomainError) as e3:
        envelope(15)  # just below e^e
    assert "log log log x" in str(e3.value)


def test_envelope_increasing_on_grid():
    xs = [10 ** 6, 10 ** 7, 10 ** 8, 10 ** 10, 10 ** 12, 10 ** 15]
    vals = [envelope(x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# -------------------------------------------------------- theorem terms

def test_bracket_bounds():
    for log_x in (6.0e3, 1.0e4, 1.0e6, 1.0e9):
        terms = theorem_terms_from_logs(log_x, 2)
        assert 1 / math.e <= terms.bracket <= 1.0
        for j in range(2, terms.l + 1):
            assert theorem_terms_from_logs(log_x, j).bracket >= 1 / math.e


def test_bracket_tends_to_one_at_j2():
    b_small = theorem_terms_from_logs(1.0e4, 2).bracket
    b_large = theorem_terms_from_logs(1.0e12, 2).bracket
    assert b_small < b_large < 1.0


def test_theorem_terms_bigint_x():
    terms = theorem_terms(10 ** 2590, 2)
    assert terms.k == 4 and terms.l == 2
    assert math.isfinite(terms.f1_log) and math.isfinite(terms.f2_lower_log)
    for bad_j in (1, 3, True, 2.0):  # l == 2 here
        with pytest.raises(DomainError):
            theorem_terms(10 ** 2590, bad_j)


def test_f1_dominates_envelope_shape():
    # F1 >= const * sqrt(x)/(log x (log_2 x)^2 (log_3 x)^2) in log space
    consts = []
    for log_x in (6.0e3, 1.0e4, 1.0e5, 1.0e7, 1.0e10):
        terms = theorem_terms_from_logs(log_x, 2)
        l2 = math.log(log_x)
        l3 = math.log(l2)
        ref_log = 0.5 * log_x - math.log(log_x) - 2 * math.log(l2) - 2 * math.log(l3)
        consts.append(terms.f1_log - ref_log)
    assert all(math.isfinite(c) for c in consts)
    assert min(consts) > 0  # the recorded constant is at least 1 on this grid
    print(f"\nrecorded F1/envelope-shape log-constant on grid: {min(consts):.4f}")


def test_theorem_terms_guards():
    with pytest.raises(DomainError):
        theorem_terms_from_logs(1.0e4, 1)
    with pytest.raises(DomainError):
        theorem_terms_from_logs(1.0e4, 5)  # l = 2 there
    with pytest.raises(DomainError):
        theorem_terms(100, 2)


# ------------------------------------------------------------ the suite

def test_bounds_report_small_truncations():
    checks = bounds_report(constant_plimit=10 ** 6, h_plimit=10 ** 5)
    names = {c.name for c in checks}
    assert {"m34_band", "c34_equals_2m34", "lambda_p2_partial", "gamma_bracket",
            "prime_log_sum_band", "product_upper", "f_lower", "h_second_lower",
            "corollary_constant", "one_over_e_bracket"} <= names
    failing = [c for c in checks if not c.passed]
    assert failing == []


# ru_maxrss is in KiB.  At the defaults the store holds ~35 MB of uint32
# primes and the prime sums ~1 MiB of leaves: 70-74 MB measured, against
# 108-112 MB with one prime-length float buffer per call
_COLD_PEAK = (
    "import contextlib, io, json, resource\n"
    "from propp.cli import main\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    "    code = main({argv!r})\n"
    "print(json.dumps([code, json.loads(out.getvalue())['all_passed'],\n"
    "                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))")


@pytest.mark.parametrize("argv", [["bounds", "--emit", "json"], ["constants"]])
def test_default_truncations_peak_under_90_mb_cold(argv):
    code, all_passed, peak_kib = _cold(_COLD_PEAK.format(argv=argv))
    assert code == 0 and all_passed is True
    assert peak_kib < 90 * 1024


def test_bounds_peak_under_90_mb_cold():
    code, peak_kib = _cold(
        "import contextlib, io, json, resource\n"
        "from propp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['bounds'])\n"
        "print(json.dumps([code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))")
    assert code == 0
    assert peak_kib < 90 * 1024
