"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""
import math
import random
import time

import pytest

from propp import (
    baseline_squares,
    check_lemma1,
    check_property_p,
    check_union_property_p,
    class3_upto,
    enumerate_s,
)
from propp.cli import main as cli_main
from propp.constants import (
    bounds_report,
    c34,
    corollary_constant,
    euler_product,
    gamma_triple,
    h_eval,
    h_second,
    h_second_factor,
    lambda_p2_sum,
    mertens_m34,
    theorem_terms,
    theorem_terms_from_logs,
)
from propp.construct import finite_block
from propp.counting import landau_term, meng_estimate, pi_k_exact
from propp.verify import APPLICABLE_VERIFIED

from _naive import classify_counts, h_second_by_differences


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


GRID_11 = [99 / 300 + (2 / 300) * t / 10 for t in range(11)]


def test_criterion_01_property_p_on_construction():
    elapsed_big = None
    for limit in (10 ** 3, 10 ** 4, 10 ** 6, 10 ** 8):
        t0 = time.monotonic()
        verdict = check_union_property_p(limit)
        dt = time.monotonic() - t0
        assert verdict.holds and verdict.witness is None, limit
        if limit == 10 ** 8:
            elapsed_big = dt
    report(1, elapsed_big < 60.0,
           f"union holds on all four limits, 1e8 run took {elapsed_big:.2f}s (< 60s)")


def test_criterion_02_lemma1_stress():
    rng = random.Random(20260809)
    qs = [int(p) for p in class3_upto(300)]
    t0 = time.monotonic()
    violations = 0
    for _ in range(100_000):
        p = rng.choice(qs)
        n1 = p * rng.randint(1, 10 ** 6 // p)
        n2 = rng.randint(1, 10 ** 6)
        while n2 % p == 0:
            n2 = rng.randint(1, 10 ** 6)
        n3 = rng.randint(1, 10 ** 6)
        if check_lemma1(n1, n2, n3).outcome != APPLICABLE_VERIFIED:
            violations += 1
    dt = time.monotonic() - t0
    report(2, violations == 0 and dt < 10.0,
           f"1e5 applicable triples, {violations} violations, {dt:.2f}s (< 10s)")


def test_criterion_03_baselines():
    t0 = time.monotonic()
    squares_ok = check_property_p(baseline_squares(10 ** 6)).holds
    blocks_ok = all(check_property_p(finite_block(x)).holds
                    for x in range(1, 1001))
    dt = time.monotonic() - t0
    report(3, squares_ok and blocks_ok and dt < 300.0,
           f"squares<=1e6 and all blocks x<=1000 hold, {dt:.1f}s (< 5min)")


def test_criterion_04_exact_counting_oracle():
    ok = pi_k_exact(100, 2) == 6 and pi_k_exact(300, 3) == 1
    mismatches = 0
    for x in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        expected = classify_counts(x)
        for k in range(1, max(expected) + 2):
            if pi_k_exact(x, k) != expected.get(k, 0):
                mismatches += 1
    report(4, ok and mismatches == 0,
           "enumeration matches the naive classification scan up to 1e6, "
           "frozen values 6 and 1 confirmed")


def test_criterion_05_main_term_identity():
    xs = [10 ** 2, 10 ** 3, 10 ** 4, 10 ** 6, 10 ** 8, 10 ** 10, 10 ** 13]
    pairs = [(x, k) for x in xs for k in (2, 3, 4, 5, 6)
             if k <= 2 * math.log(math.log(x))]
    assert len(pairs) >= 20
    worst = max(abs(meng_estimate(x, k, "main") / (landau_term(x, k) / 2 ** k) - 1)
                for x, k in pairs[:20])
    report(5, worst < 1e-12,
           f"main term equals landau/2^k on a 20-point grid, worst rel err {worst:.2e}")


def test_criterion_06_desk_scale_ratio_band():
    worst_time = 0.0
    ratios = {}
    for x in (10 ** 7, 10 ** 8, 10 ** 9):
        for k in (2, 3):
            t0 = time.monotonic()
            exact = pi_k_exact(x, k)
            dt = time.monotonic() - t0
            if x == 10 ** 9:
                worst_time = max(worst_time, dt)
            ratios[(x, k)] = exact / meng_estimate(x, k, "main")
    in_band = all(0.3 <= r <= 3.0 for r in ratios.values())
    shown = ", ".join(f"(1e{int(math.log10(x))},k={k})={r:.3f}"
                      for (x, k), r in ratios.items())
    report(6, in_band and worst_time < 300.0,
           f"ratios {shown}; slowest 1e9 run {worst_time:.1f}s (< 5min)")


def test_criterion_07_mertens_band_and_drift():
    m8 = mertens_m34(10 ** 8).value
    m7 = mertens_m34(10 ** 7).value
    lo, hi = 0.0482 - 0.005, 0.0483 + 0.005
    drift = abs(m7 - m8)
    report(7, lo < m8 < hi and drift < 0.005,
           f"M(3,4) estimate {m8:.6f} in ({lo:.4f}, {hi:.4f}), drift {drift:.2e} < 5e-3")


def test_criterion_08_c34_identity():
    gap = abs(c34(10 ** 8).value - 2 * mertens_m34(10 ** 8).value)
    report(8, gap < 0.01, f"|C(3,4) - 2 M(3,4)| = {gap:.2e} < 0.01 at 1e8")


def test_criterion_09_lambda_p2():
    est = lambda_p2_sum(10 ** 4)
    report(9, est.value < 0.1485 and est.upper_bound < 0.1486,
           f"partial {est.value:.6f} < 0.1485, rigorous {est.upper_bound:.6f} < 0.1486")


def test_criterion_10_gamma_brackets():
    triples = [gamma_triple(x) for x in GRID_11]
    in_brackets = (
        all(0.9271 <= t.gamma <= 0.9283 for t in triples)
        and all(-0.3104 <= t.gamma1 <= -0.3058 for t in triples)
        and all(1.3209 <= t.gamma2 <= 1.3302 for t in triples))
    recurrence_ok = all(
        abs(math.gamma(x + 1) - x * math.gamma(x)) / math.gamma(x + 1) < 1e-10
        for x in (0.1, 0.5, 1.1655, 1.5))
    half_integer_ok = abs(math.gamma(1.5) - math.sqrt(math.pi) / 2) < 1e-10
    report(10, in_brackets and recurrence_ok and half_integer_ok,
           "Gamma, Gamma', Gamma'' inside the published brackets on the 11-point "
           "grid; recurrence and half-integer identities hold to 1e-10")


def test_criterion_11_h_family():
    exact_one = h_eval(0.0, 10 ** 4) == 1.0
    products = [euler_product(x, 10 ** 6) for x in GRID_11]
    fs = [h_second_factor(x, 10 ** 6) for x in GRID_11]
    h2 = h_second(1 / 3, 10 ** 6)
    gap = abs(h2 - h_second_by_differences(1 / 3, 10 ** 6))
    ok = (exact_one and max(products) < 0.9238 and min(fs) >= -0.5315
          and h2 > -0.492 and gap < 1e-3)
    report(11, ok,
           f"h(0)=1 exact, product <= {max(products):.4f} < 0.9238, "
           f"f >= {min(fs):.4f} >= -0.5315, h''(1/3) = {h2:.4f} > -0.492, "
           f"analytic/numeric gap {gap:.2e} < 1e-3")


def test_criterion_12_corollary_constant():
    value = corollary_constant(1 / 3)
    report(12, value >= 0.802, f"corollary constant {value:.4f} >= 0.802")


def test_criterion_13_bracket_lower_bound():
    brackets = []
    for log_x in (6.0e3, 1.0e4, 1.0e5, 1.0e6, 1.0e8, 1.0e10):
        l = theorem_terms_from_logs(log_x, 2).l
        brackets.extend(theorem_terms_from_logs(log_x, j).bracket
                        for j in range(2, l + 1))
    for x in (10 ** 2590, 10 ** 7039, 10 ** 100000):
        terms = theorem_terms(x, 2)
        brackets.extend(theorem_terms(x, j).bracket
                        for j in range(2, terms.l + 1))
    worst = min(brackets)
    report(13, worst >= 1 / math.e,
           f"bracket >= 1/e for all admissible j across the grid, min {worst:.4f}")


def _run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = cli_main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_criterion_14_thread_determinism(tmp_path):
    seq_path = tmp_path / "s1e6.txt"
    seq_path.write_text("".join(f"{e.value}\n" for e in enumerate_s(10 ** 6)))
    commands = {
        "sieve": ["sieve", "--limit", "1000000", "--emit", "csv"],
        "construct": ["construct", "--all", "--limit", "100000000",
                      "--emit", "json"],
        "verify": ["verify", "--input", str(seq_path)],
        "pik": ["pik", "--x", "10000000", "--k", "2", "--mode", "all",
                "--plimit", "1000000", "--h-plimit", "100000"],
        "compare": ["compare", "--x-grid", "1000,100000", "--k-set", "2,3",
                    "--plimit", "1000000", "--h-plimit", "100000"],
        "count-s": ["count-s", "--limit", "1000000"],
        "constants": ["constants", "--plimit", "1000000",
                      "--h-plimit", "100000"],
        "bounds": ["bounds", "--plimit", "1000000", "--h-plimit", "100000",
                   "--emit", "json"],
    }
    diffs = []
    for name, argv in commands.items():
        code1, bytes1 = _run_to_file(tmp_path, name + ".t1", argv + ["--threads", "1"])
        code8, bytes8 = _run_to_file(tmp_path, name + ".t8", argv + ["--threads", "8"])
        if code1 != code8 or bytes1 != bytes8:
            diffs.append(name)
    report(14, not diffs,
           f"{len(commands)} commands byte-identical with --threads 1 and 8"
           + (f"; diffs: {diffs}" if diffs else ""))
