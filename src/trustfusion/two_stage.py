"""Two-stage decision pipeline with minimax threshold selection.

Stage one classifies each robot as trusted or not from its trust score via a
likelihood ratio threshold (with a randomized tie-break). Stage two fuses the
measurements of trusted robots with the standard weighted log-likelihood rule.
The thresholds are chosen offline to minimize the exact worst-case error
probability against an adversary that makes every trusted malicious robot
report the wrong bit, which is the error-maximizing strategy whenever the
legitimate sensors are better than coin flips.

Under that attack the error depends only on how many legitimate and
malicious robots are trusted. ``conditional_errors`` tabulates the false-alarm
and missed-detection probability of every such count pair once, each as a
lower binomial sum; a threshold pair only sets the binomial laws of the two
counts. The minimax scan evaluates its whole grid in one pass, building the
pmf rows of a block of points at a time and taking each point's error as one
sum over its own fixed-length row of table cells, so a point's value does not
depend on the grid around it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress

import numpy as np

from .models import (
    _MAX_ROBOTS,
    DecisionOutcome,
    LegitimateSensorModel,
    Trial,
    TrustModel,
    ValidationError,
    ratio_set,
)
from .stats import binom_cdf, binom_pmf  # noqa: F401  -- bench/run.py counts binom_cdf here

__all__ = [
    "TwoStageConfig",
    "ThresholdChoice",
    "fusion_weights",
    "trust_probabilities",
    "accepts_h1",
    "decide_hypothesis",
    "conditional_errors",
    "worst_case_malicious_count",
    "worst_case_error",
    "worst_case_error_by_counts",
    "tie_break_grid",
    "optimize_thresholds",
    "classify_trust",
    "run_two_stage",
]


# Smallest tie-break grid step: bounds the grid of ceil(1/delta_p)+1 points
# before any scan builds it.
_MIN_DELTA_P = 1e-4

# Most cells of the ``pmf_l * pmf_m * cost`` products that one step of the
# minimax scan holds at once (a point whose table is larger takes a step alone).
_BLOCK_CELLS = 1 << 13


@dataclass(frozen=True)
class TwoStageConfig:
    """Offline parameters of the two-stage pipeline.

    ``m_bar`` is the assumed upper bound on the malicious proportion,
    ``delta_p`` the step of the tie-break probability grid, and ``gamma_ts``
    the fusion threshold (log prior ratio).
    """

    m_bar: float
    delta_p: float
    gamma_ts: float

    def __post_init__(self) -> None:
        # m_bar == 1 is allowed so sweeps can hand the pipeline an
        # all-malicious proportion bound; every formula stays valid there.
        if not 0.0 <= self.m_bar <= 1.0:
            raise ValidationError(f"m_bar={self.m_bar!r} outside [0, 1]")
        if not _MIN_DELTA_P <= self.delta_p <= 1.0:
            raise ValidationError(f"delta_p={self.delta_p!r} outside [{_MIN_DELTA_P}, 1]")


@dataclass(frozen=True)
class ThresholdChoice:
    """Optimizer output: trust threshold, tie probability, achieved bound."""

    gamma_t: float
    p_t: float
    worst_case_pe: float


def fusion_weights(sensors: LegitimateSensorModel) -> tuple:
    """Log-likelihood weights (w1, w0) of a positive / negative report.

    Both are strictly positive because the sensor error rates are below 0.5.
    """
    w1 = math.log((1.0 - sensors.p_md_l) / sensors.p_fa_l)
    w0 = math.log((1.0 - sensors.p_fa_l) / sensors.p_md_l)
    return w1, w0


def trust_probabilities(model: TrustModel, gamma_t: float, p_t: float) -> tuple:
    """Probability of trusting a legitimate / malicious robot.

    A robot is trusted when its score's likelihood ratio strictly exceeds
    ``gamma_t``, and with probability ``p_t`` when it ties. Ties are decided
    by comparing the cached per-symbol ratios, so a threshold taken from
    ``ratio_set`` matches exactly. Both sums are clamped to 1.0: a valid
    pmf may sum to one ulp above it (0.33 + 0.56 + 0.11 does).
    """
    p_trust_l = 0.0
    p_trust_m = 0.0
    for ratio, ql, qm in zip(model.ratios, model.pmf_legit, model.pmf_malicious):
        if ratio > gamma_t:
            p_trust_l += ql
            p_trust_m += qm
        elif ratio == gamma_t:
            p_trust_l += p_t * ql
            p_trust_m += p_t * qm
    return min(p_trust_l, 1.0), min(p_trust_m, 1.0)


def accepts_h1(ones: int, trusted: int, gamma_ts: float, w1: float, w0: float) -> bool:
    """Fusion predicate: does a trusted set with ``ones`` positive reports
    out of ``trusted`` members decide for the event hypothesis?

    The fused statistic ``ones*w1 - (trusted-ones)*w0`` is compared against
    ``gamma_ts`` in the rearranged form below. The rearrangement avoids the
    catastrophic +/- cancellation of the naive running sum, so ties (which
    carry real probability mass, e.g. equal counts under symmetric sensors
    and even priors) are detected exactly and identically everywhere this
    predicate is used.
    """
    return ones * (w0 + w1) >= gamma_ts + trusted * w0


def decide_hypothesis(y, t_hat, sensors: LegitimateSensorModel, gamma_ts: float):
    """Standard fused decision over the robots marked trusted in ``t_hat``.

    The robots are the trailing axis: one row of reports gives one 0/1
    decision, a ``(T, n)`` stack gives ``(T,)`` decisions, and ``t_hat`` may
    be one row shared by every trial.
    """
    w1, w0 = fusion_weights(sensors)
    trusted = np.asarray(t_hat) == 1
    ones = np.logical_and(y, trusted).sum(axis=-1)
    return accepts_h1(ones, trusted.sum(axis=-1), gamma_ts, w1, w0).astype(np.int8)


def conditional_errors(n_legit: int, n_malicious: int, gamma_ts: float,
                       sensors: LegitimateSensorModel) -> tuple:
    """False-alarm and missed-detection tables over the trusted composition.

    Returns ``(fa, md)``, two ``(n_legit+1, n_malicious+1)`` arrays: cell
    ``[k_l, k_m]`` is the error probability when ``k_l`` legitimate and
    ``k_m`` malicious robots are trusted and every trusted malicious robot
    reports the wrong bit.

    ``o[t]``, the fewest positive reports among ``t`` trusted robots that
    ``accepts_h1`` accepts (``n+1`` if none), comes from the predicate itself
    on one ``(n+1, n+1)`` array, so the tables agree with the simulated
    decisions at every integer boundary. The predicate is nondecreasing in
    the count, so a false alarm is at most ``t - o[t]`` correct 0s among the
    ``k_l`` legitimate reports and a miss at most ``o[t] - 1`` correct 1s:
    both lower binomial sums, never ``1 - cdf``. More than ``_MAX_ROBOTS``
    robots raise :class:`ValidationError` before any table is built.
    """
    n = n_legit + n_malicious
    if n > _MAX_ROBOTS:
        raise ValidationError(f"robot count {n!r} must be at most {_MAX_ROBOTS}")
    w1, w0 = fusion_weights(sensors)
    counts = np.arange(n + 1)
    accepts = accepts_h1(counts[:, None], counts[None, :], gamma_ts, w1, w0)
    o = np.where(accepts.any(axis=0), accepts.argmax(axis=0), n + 1).tolist()
    q_fa, q_md = 1.0 - sensors.p_fa_l, 1.0 - sensors.p_md_l
    fa = np.empty((n_legit + 1, n_malicious + 1))
    md = np.empty_like(fa)
    for k_l in range(n_legit + 1):
        ts = range(k_l, k_l + n_malicious + 1)
        fa[k_l] = _lower_sums(q_fa, k_l, [t - o[t] for t in ts])
        md[k_l] = _lower_sums(q_md, k_l, [o[t] - 1 for t in ts])
    return fa, md


def _lower_sums(p: float, n: int, xs) -> list:
    """``binom_cdf(x, p, n)`` for every ``x`` in ``xs``, from one running sum
    of the pmf: the same additions in the same order, so the same floats."""
    partial = list(accumulate(binom_pmf(i, p, n) for i in range(n)))
    return [0.0 if x < 0 else 1.0 if x >= n else min(partial[x], 1.0) for x in xs]


def _pmf_rows(probs, coef) -> np.ndarray:
    """``(len(probs), n+1)`` Binomial(n, p) pmf rows, one per ``p`` in
    ``probs``, by :func:`binom_pmf`'s formula: the exact coefficient
    ``coef[k]`` times ``exp(k*log(p) + (n-k)*log1p(-p))``. Rows of ``p`` = 0
    and 1 are exact one-hots.
    """
    n = len(coef) - 1
    k = np.arange(n + 1.0)
    rows = np.zeros((len(probs), n + 1))
    inner = [i for i, p in enumerate(probs) if 0.0 < p < 1.0]
    log_p = np.array([math.log(probs[i]) for i in inner])[:, None]
    log_q = np.array([math.log1p(-probs[i]) for i in inner])[:, None]
    rows[inner] = coef * np.exp(k * log_p + (n - k) * log_q)
    rows[[i for i, p in enumerate(probs) if p == 0.0], 0] = 1.0
    rows[[i for i, p in enumerate(probs) if p == 1.0], n] = 1.0
    return rows


def _mixture_errors(model: TrustModel, cost, points) -> list:
    """Mean of ``cost[k_l, k_m]`` under the binomial trusted counts that each
    threshold pair ``(gamma_t, p_t)`` of ``points`` implies.

    Points are taken in blocks of at most ``_BLOCK_CELLS`` cells (one point
    if its table is larger), so memory stays bounded whatever the grid. A
    point's value is one ``np.sum`` over its own row of the
    ``pmf_l[k_l] * pmf_m[k_m] * cost[k_l, k_m]`` cells, a row of fixed length
    for a given ``cost``, with no BLAS contraction. Every step is elementwise
    or confined to that row, so a point's value is bit-identical whichever
    other points share its call or its block.
    """
    # conditional_errors caps the counts at _MAX_ROBOTS, so every
    # coefficient is a finite double
    coef_l, coef_m = (np.array([float(math.comb(n - 1, k)) for k in range(n)])
                      for n in cost.shape)
    probs = [trust_probabilities(model, gamma_t, p_t) for gamma_t, p_t in points]
    step = max(1, _BLOCK_CELLS // cost.size)
    errors = []
    for start in range(0, len(probs), step):
        block = probs[start:start + step]
        pmf_l = _pmf_rows([p_l for p_l, _ in block], coef_l)
        pmf_m = _pmf_rows([p_m for _, p_m in block], coef_m)
        cells = pmf_l[:, :, None] * pmf_m[:, None, :] * cost
        errors.extend(cells.reshape(len(block), -1).sum(axis=1).tolist())
    return errors


def worst_case_malicious_count(m_bar: float, n: int) -> int:
    """Malicious count implied by the proportion bound, rounded up.

    Rounding up preserves the worst-case guarantee when ``m_bar * n`` is not
    integral; the small epsilon keeps counts that are integral up to float
    noise (e.g. ``(1/3)*3``) from being bumped to the next integer.
    """
    return max(0, math.ceil(m_bar * n - 1e-9))


def worst_case_error_by_counts(model: TrustModel, sensors: LegitimateSensorModel,
                               gamma_ts: float, prior_h0: float, prior_h1: float,
                               n_legit: int, n_malicious: int,
                               gamma_t: float, p_t: float) -> float:
    """Exact error probability under the worst-case attack for fixed counts.

    Marginalizes over how many legitimate and malicious robots pass the
    trust stage (both binomial), with every trusted malicious robot
    reporting the wrong bit deterministically. The value is the one
    :func:`optimize_thresholds` computes for the same point, bit for bit.
    """
    fa, md = conditional_errors(n_legit, n_malicious, gamma_ts, sensors)
    return _mixture_errors(model, prior_h0 * fa + prior_h1 * md, [(gamma_t, p_t)])[0]


def worst_case_error(model: TrustModel, sensors: LegitimateSensorModel,
                     config: TwoStageConfig, n: int,
                     gamma_t: float, p_t: float,
                     prior_h0: float, prior_h1: float) -> float:
    """Worst-case error of the pipeline at the given thresholds."""
    n_malicious = worst_case_malicious_count(config.m_bar, n)
    return worst_case_error_by_counts(model, sensors, config.gamma_ts, prior_h0, prior_h1,
                                      n - n_malicious, n_malicious, gamma_t, p_t)


def tie_break_grid(delta_p: float) -> list:
    """Grid {0, 1/m, 2/m, ..., 1} with step 1/m <= delta_p.

    Built from exact integer fractions rather than multiples of ``delta_p``
    so that refining the step yields a strict superset of every coarser grid
    (e.g. the 0.05 grid contains the 0.1 grid bit-for-bit), which makes the
    optimized error provably nonincreasing as the grid is refined.
    """
    m = max(1, math.ceil(1.0 / delta_p - 1e-9))
    return [i / m for i in range(m + 1)]


@lru_cache(maxsize=128)
def optimize_thresholds(model: TrustModel, sensors: LegitimateSensorModel,
                        config: TwoStageConfig, n: int,
                        prior_h0: float, prior_h1: float) -> ThresholdChoice:
    """Exhaustive minimax scan over the finite threshold grid.

    The trust threshold only needs to range over the per-symbol likelihood
    ratios; the tie probability ranges over the ``delta_p`` grid. The cost
    table ``prior_h0*fa + prior_h1*md`` is built once per call. Each point's
    error is one sum over its own fixed-length row of cells, with no BLAS
    contraction, so it is bit-identical to ``worst_case_error_by_counts``'s
    and to its value in any other grid; a refined grid never does worse.

    Points are ordered by ascending ``gamma_t``, then ``p_t``, and the first
    strict minimum wins, so ties keep the first point;
    duplicates such as ``(r_{j-1}, 0)`` and ``(r_j, 1)`` have bit-identical
    trust probabilities and resolve to the earlier one.
    """
    n_malicious = worst_case_malicious_count(config.m_bar, n)
    fa, md = conditional_errors(n - n_malicious, n_malicious, config.gamma_ts, sensors)
    cost = prior_h0 * fa + prior_h1 * md
    grid = tie_break_grid(config.delta_p)
    points = [(gamma_t, p_t) for gamma_t in ratio_set(model) for p_t in grid]
    errors = _mixture_errors(model, cost, points)
    best = min(range(len(points)), key=errors.__getitem__)
    return ThresholdChoice(*points[best], worst_case_pe=errors[best])


def classify_trust(model: TrustModel, gamma_t: float, p_t: float, a_idx, rng):
    """Trust decisions (0/1, ``int8``) from the scores' alphabet positions.

    Strictly above the threshold trusts, strictly below distrusts, and an
    exact tie trusts with probability ``p_t``. Robots are the trailing axis
    of ``a_idx``; the ties of all of it take one draw each from ``rng`` in C
    order (trial, then robot), and no draw is made elsewhere.
    """
    ratios = np.asarray(model.ratios)
    a_idx = np.asarray(a_idx)
    tie = (ratios == gamma_t)[a_idx]
    t_hat = (ratios > gamma_t)[a_idx]
    t_hat[tie] = rng.random(np.count_nonzero(tie)) < p_t
    return t_hat.view(np.int8)


def run_two_stage(trial: Trial, thresholds: ThresholdChoice, model: TrustModel,
                  sensors: LegitimateSensorModel, gamma_ts: float, rng) -> DecisionOutcome:
    """Classify trust from the scores, then fuse the trusted measurements.

    The one-row case of :func:`classify_trust` and :func:`decide_hypothesis`,
    with the same tie draws and decision, counted in plain ints. The ``s_n``
    diagnostic is the fused statistic ``ones*(w0+w1) - trusted*w0`` of those
    counts.
    """
    a_idx = model.symbol_positions(trial.a)
    t_hat = tuple(classify_trust(model, thresholds.gamma_t, thresholds.p_t, a_idx,
                                 rng).tolist())
    ones = sum(compress(trial.y, t_hat))
    trusted = sum(t_hat)
    w1, w0 = fusion_weights(sensors)
    return DecisionOutcome(
        hypothesis=1 if accepts_h1(ones, trusted, gamma_ts, w1, w0) else 0,
        t_hat=t_hat,
        diagnostics={
            "s_n": ones * (w0 + w1) - trusted * w0,
            "trusted": float(trusted),
        },
    )
