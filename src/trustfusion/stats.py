"""Numerically careful binomial primitives.

``log_pow`` serves the decision rules. ``binom_pmf`` and ``binom_cdf`` serve
only the exact referees of ``tests/oracles.py`` and the benchmark's counters
in ``bench/run.py``; no decision rule calls them.

All likelihood products over the robot network are accumulated in natural-log
space (a product of N probabilities near 0.01 underflows double precision long
before N reaches realistic network sizes), so the helpers here are built
around log-domain evaluation with explicit handling of the degenerate
probabilities 0 and 1.
"""

from __future__ import annotations

import math

__all__ = ["NEG_INF", "log_pow", "binom_pmf", "binom_cdf"]

NEG_INF = float("-inf")

# Largest n for which C(n, x) and p^x (1-p)^(n-x) are both representable as
# finite doubles, letting us use the exact integer binomial coefficient.
_EXACT_COMB_MAX_N = 1000


def log_pow(p: float, k: float) -> float:
    """Return ``k * ln(p)`` with the convention that 0**0 == 1.

    A zero exponent contributes exactly 0.0 to a log-sum even when ``p`` is 0,
    which is required so that degenerate reporting probabilities (adversary
    parameters of exactly 0 or 1) evaluate without NaN.
    """
    if k == 0:
        return 0.0
    if p <= 0.0:
        return NEG_INF
    return k * math.log(p)


def binom_pmf(x: int, p: float, n: int) -> float:
    """Probability of exactly ``x`` successes among ``n`` Bernoulli(p) draws.

    Exact integer binomial coefficients are used while they fit in a double
    (n <= 1000); beyond that the coefficient is evaluated through ``lgamma``
    so that n up to ~1e4 cannot overflow.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability {p!r} outside [0, 1]")
    if n < 0:
        raise ValueError(f"trial count {n!r} is negative")
    if x < 0 or x > n:
        raise ValueError(f"success count {x!r} outside 0..{n}")
    if p == 0.0:
        return 1.0 if x == 0 else 0.0
    if p == 1.0:
        return 1.0 if x == n else 0.0
    log_core = x * math.log(p) + (n - x) * math.log1p(-p)
    if n <= _EXACT_COMB_MAX_N:
        return float(math.comb(n, x)) * math.exp(log_core)
    log_comb = math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
    return math.exp(log_comb + log_core)


def binom_cdf(x: int, p: float, n: int) -> float:
    """Probability of at most ``x`` successes among ``n`` Bernoulli(p) draws.

    Any integer ``x`` is accepted: values below 0 give 0.0 and values at or
    above ``n`` give exactly 1.0. The tail is a direct forward summation of
    the pmf (n stays at desk scale here), which keeps the result monotone in
    ``x`` and exact at the endpoints.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability {p!r} outside [0, 1]")
    if n < 0:
        raise ValueError(f"trial count {n!r} is negative")
    if x < 0:
        return 0.0
    if x >= n:
        return 1.0
    total = 0.0
    for i in range(x + 1):
        total += binom_pmf(i, p, n)
    return min(total, 1.0)
