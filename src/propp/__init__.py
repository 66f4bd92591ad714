"""Property-P sequences from primes in the class 3 mod 4: explicit
construction, exhaustive verification, exact k-almost-prime counting and
reproduction of the analytic constants behind the counting bound."""

from .constants import (
    ConstantEstimate,
    GammaTriple,
    TheoremTerms,
    c34,
    corollary_constant,
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
)
from .construct import (
    SetElement,
    baseline_squares,
    contribution_window,
    contribution_window_from_logs,
    enumerate_s,
    enumerate_s_i,
    finite_block,
    max_set_index,
    min_element,
)
from .counting import (
    CountReport,
    compare,
    corollary_lower_bound,
    count_s,
    count_s_i,
    landau_term,
    meng_estimate,
    pi_k_exact,
)
from .errors import DomainError, PropPError, ResourceError, SequenceFormatError
from .primes import (
    class3_upto,
    lambda_indicator,
    nth_q,
    primes_upto,
    q_growth_ratio,
)
from .verify import (
    Lemma1Result,
    Verdict,
    check_lemma1,
    check_property_p,
    check_union_property_p,
)

__all__ = [name for name in dir() if not name.startswith("_")]
