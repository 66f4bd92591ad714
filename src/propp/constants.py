"""Numerical reproduction of the analytic constants and inequalities
behind the counting argument.

Everything here is a truncated prime sum or product, a Gamma-function
bracket, or a combination of the two.  Two families of quantities:

* Mertens-type constants over the class 3 mod 4:
      sum_{p<=x} lambda(p)/p = (log log x)/2 + M(3,4) + O(1/log x)
      C(3,4) = gamma + sum_p (log(1 - 1/p) + 2 lambda(p)/p) = 2 M(3,4)
  lambda is the class-3 prime array q itself, never a mask.  Every sum
  follows np.sum's own pairwise split of the uint32 store down to leaves
  of 2^16 primes, cast once each into a reused float64 row, and np.sums
  there each term of the call: log(1-1/p) for L = sum over all primes,
  1/q for R, or every point and kind of an x grid.  So no prime-length
  float array is made, and the bits are np.sum's over a fresh per-point
  expression: each term takes the same IEEE steps (the store's uint32 ->
  float64 is exact), and np.sum splits a contiguous float64 array at
  points fixed by its length alone (`_tree_sums`).  Only the floats L and
  R are memoised: a kept array would pin ~23 MB per 10^8 of truncation for
  the process's life.  The series recombine them (C(3,4) = gamma + L + 2R)
  at float error ~1e-15.

* The Gamma-normalised Euler product
      h(x) = (1/Gamma(x/2+1)) prod_p (1 - 1/p)^(x/2) (1 + x lambda(p)/p)
  together with its second derivative h'' = f(x) * prod(...), where f
  collects five Gamma/prime-sum terms.  One class-3 pass per h-family
  call gives f and the product at every x it asks for (`_h_family`).
  h'' enters the second-order correction of the class-restricted
  k-almost-prime expansion and is bounded below on the window
  [99/300, 101/300].

Published bounds re-checked here as executable assertions are kept as
module constants next to their truncation allowances.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, checked_log, require_int
from .primes import class3_upto, primes_upto

EULER_GAMMA = 0.5772156649015329

DEFAULT_CONSTANT_PLIMIT = 10 ** 8
DEFAULT_H_PLIMIT = 10 ** 6

# published interval for M(3,4) and the truncation allowance we add on top
M34_INTERVAL = (0.0482, 0.0483)
M34_TRUNCATION_ALLOWANCE = 0.005
C34_IDENTITY_TOLERANCE = 0.01
C34_LOWER_BOUND = 0.0964 - C34_IDENTITY_TOLERANCE

LAMBDA_P2_PARTIAL_BOUND = 0.1485   # partial sum at 10^4
LAMBDA_P2_RIGOROUS_BOUND = 0.1486  # partial sum plus integral tail

GAMMA_BRACKET = (0.9271, 0.9283)
GAMMA1_BRACKET = (-0.3104, -0.3058)
GAMMA2_BRACKET = (1.3209, 1.3302)

PRIME_LOG_SUM_BRACKET = (-0.2905, -0.2403)
PRODUCT_UPPER_BOUND = 0.9238
F_LOWER_BOUND = -0.5315
H_SECOND_LOWER_BOUND = -0.492
COROLLARY_CONSTANT_BOUND = 0.802
BRACKET_LOWER_BOUND = 1.0 / math.e

# h'' is bounded on this window; the expansion's argument 2(k-3)/(3 log log x)
# lands here for k near (log log x)/2
BOUND_WINDOW = (99.0 / 300.0, 101.0 / 300.0)


@dataclass(frozen=True)
class ConstantEstimate:
    """A truncated-sum estimate with its provenance."""

    name: str
    value: float
    truncation: int
    error_note: str
    upper_bound: Optional[float] = None


@dataclass(frozen=True)
class GammaTriple:
    """Gamma and its first two derivatives evaluated at x/2 + 1."""

    x: float
    gamma: float
    gamma1: float
    gamma2: float


@dataclass(frozen=True)
class TheoremTerms:
    """Log-domain factors of the per-layer counting bound at (x, j).

    Admissible x start near e^(2 e^8), far beyond double range, so F1 and
    the F2 lower bound are reported as natural logs.  `bracket` is the
    order-one factor (1 + 2(j-1)/log_2 sqrt(x))^(1-j), bounded below by 1/e.
    """

    k: int
    l: int
    j: int
    f1_log: float
    f2_lower_log: float
    bracket: float


@dataclass(frozen=True)
class BoundCheck:
    name: str
    value: float
    requirement: str
    passed: bool


# ---------------------------------------------------------------------------
# digamma / trigamma: recurrence into z >= 10, then Bernoulli asymptotics.
# Good to ~1e-13 there, which the derivative brackets need; math.gamma
# supplies Gamma itself.

def digamma(z: float) -> float:
    if z <= 0:
        raise DomainError(f"digamma implemented for z > 0, got {z}")
    acc = 0.0
    while z < 10.0:
        acc -= 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    ser = w * (1 / 12 - w * (1 / 120 - w * (1 / 252 - w * (1 / 240 - w * (
        1 / 132 - w * (691 / 32760 - w / 12))))))
    return acc + math.log(z) - 0.5 / z - ser


def trigamma(z: float) -> float:
    if z <= 0:
        raise DomainError(f"trigamma implemented for z > 0, got {z}")
    acc = 0.0
    while z < 10.0:
        acc += 1.0 / (z * z)
        z += 1.0
    w = 1.0 / (z * z)
    ser = (1.0 + 0.5 / z + w * (1 / 6 - w * (1 / 30 - w * (1 / 42 - w * (
        1 / 30 - w * (5 / 66 - w * (691 / 2730 - w * 7 / 6))))))) / z
    return acc + ser


def gamma_triple(x: float) -> GammaTriple:
    """Gamma, Gamma', Gamma'' at x/2 + 1 via the digamma identities
    Gamma' = Gamma psi and Gamma'' = Gamma (psi^2 + psi')."""
    if not 0.0 <= x <= 4.0:
        raise DomainError(f"gamma triple evaluated on [0, 4], got {x}")
    z = x / 2.0 + 1.0
    g = math.gamma(z)
    psi = digamma(z)
    return GammaTriple(x, g, g * psi, g * (psi * psi + trigamma(z)))


# ---------------------------------------------------------------------------
# truncated prime sums

# Elements a leaf of `_tree_sums` casts and sums at once.  On a 2-vCPU VM
# the 11-point 1/(q+x) grid at 10^8 (2.9M class-3 primes) took 0.054-0.057 s
# at 2^16, 0.06-0.07 s at 2^15, 2^17 and 2^18, 0.08 s at 2^14, 0.14-0.16 s
# at 2^12 and 0.07-0.10 s at 2^20, against 0.08-0.10 s in one full-length
# buffer; the two rows of 2^16 float64 take 1 MiB.
_LEAF = 1 << 16


def _tree_sums(values: np.ndarray, terms,
               bufs: Optional[np.ndarray] = None) -> list[float]:
    """For each term(v, out) in terms, which writes its terms for the
    float64 values v into out and returns it, np.sum of those terms over all
    of `values`, bit for bit: n values split at n//2 - (n//2) % 8 as np.sum's
    pairwise recursion splits them, down to leaves of at most _LEAF values,
    each cast once into a reused row of `bufs` (Higham, SIAM J. Sci. Comput.
    14, 1993)."""
    n = len(values)
    if bufs is None:
        bufs = np.empty((2, min(n, _LEAF)))
    if n <= _LEAF:
        v = bufs[0, :n]
        v[...] = values
        return [float(np.sum(term(v, bufs[1, :n]))) for term in terms]
    half = n // 2 - (n // 2) % 8
    return [a + b for a, b in zip(_tree_sums(values[:half], terms, bufs),
                                  _tree_sums(values[half:], terms, bufs))]


@functools.cache
def _truncation_sums(plimit: int) -> tuple[float, float]:
    """(L, R) = (sum_{p<=T} log(1-1/p), sum_{q<=T} 1/q) at T = plimit.  Two
    floats cannot go stale: the store only grows, and each sum reads only
    the primes <= T."""
    [log_sum] = _tree_sums(primes_upto(plimit), [
        lambda p, out: np.log1p(np.divide(-1.0, p, out=out), out=out)])
    [(class3_sum,)] = _class3_sums([0.0], plimit, "recip")
    return log_sum, class3_sum


def _class3_term(x: float, kind: str):
    """The term(q, out) of `_tree_sums` for one x and kind of `_class3_sums`."""
    def term(q, out):
        if kind == "log1p":
            return np.log1p(np.divide(x, q, out=out), out=out)
        np.add(q, x, out=out)
        if kind == "recip_sq":
            np.square(out, out=out)
        return np.divide(1.0, out, out=out)
    return term


def _class3_sums(xs, plimit: int, *kinds: str) -> list[tuple[float, ...]]:
    """For each x in xs, the sums over the class-3 primes q <= plimit that
    `kinds` names, in order: "log1p" log(1 + x/q), "recip" 1/(q+x) or
    "recip_sq" 1/(q+x)^2.  One store read, one tree of leaves for them all."""
    sums = iter(_tree_sums(class3_upto(plimit),
                           [_class3_term(x, kind) for x in xs for kind in kinds]))
    return [tuple(next(sums) for _ in kinds) for _ in xs]


def mertens_m34(limit: int) -> ConstantEstimate:
    """sum_{p<=limit} lambda(p)/p - (log log limit)/2, an estimate of M(3,4)."""
    require_int("M(3,4) truncation limit", limit, 10 ** 3)
    value = _truncation_sums(limit)[1] - 0.5 * math.log(math.log(limit))
    return ConstantEstimate(
        name="M(3,4)", value=value, truncation=limit,
        error_note="class-balance drift beyond the truncation estimated below "
                   "5e-3 for limits >= 1e6; published interval (0.0482, 0.0483)")


def c34(limit: int) -> ConstantEstimate:
    """gamma + sum_{p<=limit} (log(1-1/p) + 2 lambda(p)/p), an estimate of
    C(3,4) = 2 M(3,4).  Conditionally convergent; taken as gamma + L + 2R
    from the memoised sums, which cancel from magnitudes near 3.5 to ~0.1
    at a float cost of ~1e-15."""
    require_int("C(3,4) truncation limit", limit, 10 ** 3)
    log_sum, class3_sum = _truncation_sums(limit)
    return ConstantEstimate(
        name="C(3,4)", value=EULER_GAMMA + log_sum + 2.0 * class3_sum,
        truncation=limit,
        error_note="partial sums oscillate with the prime race; tail below "
                   "1e-2 at limits >= 1e6 by the Mertens product identity")


def lambda_p2_sum(limit: int) -> ConstantEstimate:
    """sum_{p<=limit} lambda(p)/p^2 plus the rigorous integral tail 1/limit."""
    require_int("lambda/p^2 truncation limit", limit, 10 ** 4)
    [(value,)] = _class3_sums([0.0], limit, "recip_sq")
    return ConstantEstimate(
        name="sum lambda(p)/p^2", value=value, truncation=limit,
        error_note="positive terms, increasing in the truncation; upper_bound "
                   "adds the integral tail 1/limit and is rigorous",
        upper_bound=value + 1.0 / limit)


def _prime_log_sums(xs, plimit: int) -> list[float]:
    half_log_sum = 0.5 * _truncation_sums(plimit)[0]
    return [half_log_sum + r for (r,) in _class3_sums(xs, plimit, "recip")]


def prime_log_sum(x: float, plimit: int) -> float:
    """sum_p ((1/2) log(1-1/p) + lambda(p)/(p+x)), truncated.

    This is the logarithmic derivative of the Euler product in h; at
    x = 0 it equals -gamma/2 + M(3,4) up to the truncation tail.
    Conditionally convergent, taken as L/2 + sum_q 1/(q+x).
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"prime log sum evaluated on [0, 1], got {x}")
    require_int("prime log sum truncation limit", plimit, 10 ** 4)
    return _prime_log_sums([x], plimit)[0]


# h and its derivatives; the expansion feeds arguments up to 2A/3, so the
# evaluation window is [0, 2] rather than the bound window alone.
_H_DOMAIN = (0.0, 2.0)


def _check_h_domain(x: float) -> None:
    if not _H_DOMAIN[0] <= x <= _H_DOMAIN[1]:
        raise DomainError(f"h family evaluated on {_H_DOMAIN}, got {x}")


def _h_family(xs, plimit: int) -> list[tuple[float, float]]:
    """(f(x), euler_product(x)) for each x in xs, from one class-3 pass."""
    log_sum = _truncation_sums(plimit)[0]
    family = []
    for x, (r, s2, s) in zip(xs, _class3_sums(xs, plimit, "recip", "recip_sq", "log1p")):
        t = 0.5 * log_sum + r
        g = gamma_triple(x)
        family.append((t * t / g.gamma - g.gamma2 / (4.0 * g.gamma ** 2) - s2 / g.gamma
                       - g.gamma1 * t / g.gamma ** 2 + g.gamma1 ** 2 / (2.0 * g.gamma ** 3),
                       math.exp((x / 2.0) * log_sum + s)))
    return family


def euler_product(x: float, plimit: int) -> float:
    """prod_{p<=plimit} (1-1/p)^(x/2) (1 + x lambda(p)/p), log-accumulated.

    Logged as (x/2) L + sum_q log(1 + x/q); bounded above by
    exp(x(-gamma/2 + M(3,4))) < 0.9238 on the bound window.
    """
    _check_h_domain(x)
    require_int("euler product truncation limit", plimit, 10 ** 4)
    return _h_family([x], plimit)[0][1]


def h_eval(x: float, plimit: int) -> float:
    """h(x): the Euler product divided by Gamma(x/2 + 1).  h(0) = 1 exactly."""
    _check_h_domain(x)
    require_int("h truncation limit", plimit, 10 ** 4)
    return _h_family([x], plimit)[0][1] / math.gamma(x / 2.0 + 1.0)


def h_second_factor(x: float, plimit: int) -> float:
    """f(x), the factor with h''(x) = f(x) * euler_product(x).

    Writing T for the prime log sum, S2 for sum lambda(p)/(p+x)^2 and
    G, G1, G2 for the Gamma triple at x/2+1:

        f = T^2/G - G2/(4 G^2) - S2/G - G1 T/G^2 + G1^2/(2 G^3)
    """
    _check_h_domain(x)
    require_int("h'' truncation limit", plimit, 10 ** 4)
    return _h_family([x], plimit)[0][0]


_FD_STEP = 1e-4


def h_second(x: float, plimit: int, method: str = "analytic") -> float:
    """h''(x), either term-by-term (analytic) or by central differences of
    h with step 1e-4 and one Richardson refinement (numeric)."""
    _check_h_domain(x)
    require_int("h'' truncation limit", plimit, 10 ** 4)
    if method == "analytic":
        [(f, product)] = _h_family([x], plimit)
        return f * product
    if method == "numeric":
        if not _H_DOMAIN[0] + _FD_STEP <= x <= _H_DOMAIN[1] - _FD_STEP:
            raise DomainError(f"numeric h'' needs an interior point, got {x}")
        steps = (_FD_STEP, _FD_STEP / 2.0)
        points = [x] + [x + d for step in steps for d in (step, -step)]
        center, *sides = [e / math.gamma(t / 2.0 + 1.0)
                          for t, (_, e) in zip(points, _h_family(points, plimit))]
        coarse, fine = ((hi - 2.0 * center + lo) / (step * step)
                        for step, hi, lo in zip(steps, sides[::2], sides[1::2]))
        return (4.0 * fine - coarse) / 3.0
    raise DomainError(f"method must be 'analytic' or 'numeric', got {method!r}")


def corollary_constant(arg: float, *,
                       c34_limit: int = DEFAULT_CONSTANT_PLIMIT,
                       h_plimit: int = DEFAULT_H_PLIMIT) -> float:
    """1 + C(3,4)/2 + h''(arg)/2, the main-term coefficient that must stay
    at or above 0.802 on the bound window."""
    if not BOUND_WINDOW[0] <= arg <= BOUND_WINDOW[1]:
        raise DomainError(f"corollary constant evaluated on {BOUND_WINDOW}, got {arg}")
    return (1.0 + c34(c34_limit).value / 2.0
            + h_second(arg, h_plimit, "analytic") / 2.0)


# ---------------------------------------------------------------------------
# the headline envelope and the per-layer bound factors

def envelope(x) -> float:
    """sqrt(x) / (sqrt(log x) (log log x)^2 (log log log x)^2).

    Defined once the third iterated log is positive, i.e. x > e^e; the
    error message names the first iterated log that fails.
    """
    lx = checked_log(x)
    if lx <= 0.0:
        raise DomainError("envelope needs log x > 0 (x > 1)")
    l2 = math.log(lx)
    if l2 <= 0.0:
        raise DomainError("envelope needs log log x > 0 (x > e)")
    l3 = math.log(l2)
    if l3 <= 0.0:
        raise DomainError("envelope needs log log log x > 0 (x > e^e)")
    log_value = 0.5 * lx - 0.5 * l2 - 2.0 * l3 - 2.0 * math.log(l3)
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def window_params_from_logs(log_x: float) -> tuple[int, int]:
    """(k, l) of the contributing range, from the natural log of x.

    k = floor(log_2(sqrt x) / 2) and l = floor(sqrt(log_2(sqrt x) / 2)),
    where log_2 is the twice-iterated logarithm.  Both must reach 2 for
    the window to contain anything; this needs log_2(sqrt x) >= 8, i.e.
    x >= e^(2 e^8), so admissible x never fit in a double.  Integer x of
    a few thousand digits work fine (math.log takes big ints), and this
    log-domain entry point covers the rest.
    """
    if not math.isfinite(log_x) or log_x <= 2.0:
        raise DomainError(
            f"window needs log log sqrt(x) defined, i.e. log x > 2; got log x = {log_x}")
    half_llsx = math.log(log_x / 2.0) / 2.0
    k = math.floor(half_llsx)
    l = math.floor(math.sqrt(half_llsx))
    if k < 2 or l < 2:
        raise DomainError(
            "window requires (log_2 sqrt(x))/2 >= 4 so that k >= 2 and l >= 2; "
            f"got {half_llsx:.4f}")
    return k, l


def theorem_terms_from_logs(log_x: float, j: int) -> TheoremTerms:
    """Per-layer bound factors at layer k+j, from the natural log of x.

    F1 is the prime-counting factor sqrt(y)/log sqrt(y) at
    y = x/(16 (k+j)^4 log^4(k+j)); F2's lower bound is
    (sqrt(log x)/sqrt(log log x)) e^(j-2) (L/(L+2(j-1)))^(L/2+j-1)
    with L = log_2 sqrt(x).  Both are returned as natural logs.
    """
    k, l = window_params_from_logs(log_x)
    if require_int("j", j, 2) > l:
        raise DomainError(f"j must be at most l = {l}, got {j}")
    big_l = math.log(log_x / 2.0)
    m = k + j
    log_y = log_x - math.log(16.0) - 4.0 * math.log(m) - 4.0 * math.log(math.log(m))
    f1_log = 0.5 * log_y - math.log(0.5 * log_y)
    bracket = (1.0 + 2.0 * (j - 1) / big_l) ** (1 - j)
    f2_lower_log = (0.5 * (math.log(log_x) - math.log(math.log(log_x)))
                    + (j - 2)
                    + (big_l / 2.0 + j - 1) * math.log(big_l / (big_l + 2.0 * (j - 1))))
    return TheoremTerms(k=k, l=l, j=j, f1_log=f1_log,
                        f2_lower_log=f2_lower_log, bracket=bracket)


def theorem_terms(x, j: int) -> TheoremTerms:
    """Per-layer bound factors at (x, j); x may be an arbitrary-size int."""
    return theorem_terms_from_logs(checked_log(x), j)


# ---------------------------------------------------------------------------
# the full inequality suite

_GRID_POINTS = 11

# log x grid for the 1/e bracket check, spanning window parameters y ~ 4..10
BRACKET_LOG_X_GRID = (6.0e3, 1.0e4, 1.0e5, 1.0e6, 1.0e8, 1.0e10)


def _window_grid() -> list[float]:
    lo, hi = BOUND_WINDOW
    return [lo + (hi - lo) * t / (_GRID_POINTS - 1) for t in range(_GRID_POINTS)]


def bounds_report(constant_plimit: int = DEFAULT_CONSTANT_PLIMIT,
                  h_plimit: int = DEFAULT_H_PLIMIT) -> list[BoundCheck]:
    """Re-check every published inequality as an executable assertion;
    one sieve to the larger truncation first, so no sum below re-sieves."""
    require_int("constant truncation limit", constant_plimit, 10 ** 4)
    require_int("h truncation limit", h_plimit, 10 ** 4)
    primes_upto(max(constant_plimit, h_plimit))
    checks: list[BoundCheck] = []
    grid = _window_grid()

    def add(name: str, value: float, requirement: str, passed: bool) -> None:
        checks.append(BoundCheck(name, value, requirement, passed))

    m_lo = M34_INTERVAL[0] - M34_TRUNCATION_ALLOWANCE
    m_hi = M34_INTERVAL[1] + M34_TRUNCATION_ALLOWANCE
    m_est = mertens_m34(constant_plimit)
    add("m34_band", m_est.value,
        f"within ({m_lo:.4f}, {m_hi:.4f})", m_lo < m_est.value < m_hi)

    m_prev = mertens_m34(constant_plimit // 10)
    drift = abs(m_prev.value - m_est.value)
    add("m34_decade_drift", drift, "< 0.005", drift < M34_TRUNCATION_ALLOWANCE)

    c_est = c34(constant_plimit)
    identity_gap = abs(c_est.value - 2.0 * m_est.value)
    add("c34_equals_2m34", identity_gap, "< 0.01",
        identity_gap < C34_IDENTITY_TOLERANCE)
    add("c34_lower", c_est.value, f"> {C34_LOWER_BOUND}",
        c_est.value > C34_LOWER_BOUND)

    lp2 = lambda_p2_sum(10 ** 4)
    add("lambda_p2_partial", lp2.value, f"< {LAMBDA_P2_PARTIAL_BOUND}",
        lp2.value < LAMBDA_P2_PARTIAL_BOUND)
    add("lambda_p2_rigorous", lp2.upper_bound, f"< {LAMBDA_P2_RIGOROUS_BOUND}",
        lp2.upper_bound < LAMBDA_P2_RIGOROUS_BOUND)

    triples = [gamma_triple(x) for x in grid]
    for label, values, bracket in (
            ("gamma_bracket", [t.gamma for t in triples], GAMMA_BRACKET),
            ("gamma1_bracket", [t.gamma1 for t in triples], GAMMA1_BRACKET),
            ("gamma2_bracket", [t.gamma2 for t in triples], GAMMA2_BRACKET)):
        lo, hi = min(values), max(values)
        add(label, lo, f"[{lo:.6f}, {hi:.6f}] within [{bracket[0]}, {bracket[1]}]",
            bracket[0] <= lo and hi <= bracket[1])

    sums = _prime_log_sums(grid, constant_plimit)
    add("prime_log_sum_band", min(sums),
        f"grid within ({PRIME_LOG_SUM_BRACKET[0]}, {PRIME_LOG_SUM_BRACKET[1]})",
        all(PRIME_LOG_SUM_BRACKET[0] < s < PRIME_LOG_SUM_BRACKET[1] for s in sums))

    *family, (f_third, product_third) = _h_family(grid + [1.0 / 3.0], h_plimit)
    fs, products = zip(*family)
    add("product_upper", max(products), f"< {PRODUCT_UPPER_BOUND}",
        max(products) < PRODUCT_UPPER_BOUND)
    add("f_lower", min(fs), f">= {F_LOWER_BOUND}", min(fs) >= F_LOWER_BOUND)

    h2 = f_third * product_third  # h_second(1/3, h_plimit, "analytic")
    add("h_second_lower", h2, f"> {H_SECOND_LOWER_BOUND}",
        h2 > H_SECOND_LOWER_BOUND)

    cc = 1.0 + c_est.value / 2.0 + h2 / 2.0  # corollary_constant(1/3), from h2
    add("corollary_constant", cc, f">= {COROLLARY_CONSTANT_BOUND}",
        cc >= COROLLARY_CONSTANT_BOUND)

    brackets = []
    for log_x in BRACKET_LOG_X_GRID:
        _, l = window_params_from_logs(log_x)
        brackets.extend(
            theorem_terms_from_logs(log_x, j).bracket for j in range(2, l + 1))
    add("one_over_e_bracket", min(brackets), ">= 1/e",
        min(brackets) >= BRACKET_LOWER_BOUND)

    return checks
