"""Generalized likelihood ratio decision with joint adversary estimation.

The decision compares, for each hypothesis, the best achievable joint
likelihood of the observed measurements and trust scores over every robot
labeling and every malicious reporting rate. The best rate for a labeling is
its fraction of wrong reports among the robots labeled malicious, so a
branch maximum depends only on two counts: ``k_w`` malicious labels among
the reports that contradict the branch and ``k_r`` among those that agree.
Sorted gain prefix sums give every count pair's best labeling, one
``O(N^2)`` table locates the maximum, and the few rates attaining it are
re-evaluated robot by robot to keep the tie rules and summation order.

A full exponential enumeration over labelings is included as a verification
oracle for small networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (
    DecisionOutcome,
    LegitimateSensorModel,
    Trial,
    TrustModel,
    ValidationError,
    log_prior_ratio,
)
from .stats import NEG_INF, log_pow

__all__ = [
    "CandidateSet",
    "InnerMaxResult",
    "candidate_set",
    "inner_max",
    "mle_adversary_param",
    "aglrt_decide",
    "brute_force_glrt",
    "BRUTE_FORCE_MAX_N",
]

BRUTE_FORCE_MAX_N = 16


@dataclass(frozen=True)
class CandidateSet:
    """Sorted, deduplicated candidate values for the adversary rate."""

    values: tuple

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class InnerMaxResult:
    """Best labeling and its joint log-likelihood at one candidate rate."""

    log_likelihood: float
    t_hat: tuple


def candidate_set(n: int) -> CandidateSet:
    """All reduced fractions Tn/Td with 0 <= Tn <= Td and 1 <= Td <= n.

    Division is correctly rounded, so equal fractions such as 2/4 and 1/2
    give the same float, while distinct ones differ by at least 1/n^2 and
    stay distinct and in order.
    """
    if n < 1:
        raise ValidationError(f"robot count {n!r} must be >= 1")
    return CandidateSet(values=tuple(sorted(
        {tn / td for td in range(1, n + 1) for tn in range(td + 1)})))


def _branch_tables(a, y, branch: int, trust: TrustModel,
                   sensors: LegitimateSensorModel) -> tuple:
    """Per-robot constants reused across all candidate rates.

    Returns ``(log_cl, log_pa0, wrong)`` where ``log_cl[i]`` is the log joint
    weight of calling robot i legitimate, ``log_pa0[i]`` the log trust-score
    weight of calling it malicious, and ``wrong[i]`` marks a report that
    contradicts the branch hypothesis (the exponent of the adversary rate).
    """
    p_miss = sensors.p_md_l if branch == 1 else sensors.p_fa_l
    log_hit = math.log1p(-p_miss)
    log_miss = math.log(p_miss)
    log_legit = trust.log_pmf_legit
    log_mal = trust.log_pmf_malicious
    log_cl, log_pa0, wrong = [], [], []
    for a_i, y_i in zip(a, y):
        j = trust.symbol_index(a_i)
        log_cl.append(log_legit[j] + (log_hit if y_i == branch else log_miss))
        log_pa0.append(log_mal[j])
        wrong.append(y_i != branch)
    return log_cl, log_pa0, wrong


def _best_labeling(p_m: float, log_cl, log_pa0, wrong) -> InnerMaxResult:
    """Per-robot comparison solving the labeling maximization at a fixed rate.

    Each robot independently contributes the larger of its legitimate and
    malicious log-weights; ties label the robot legitimate.
    """
    log_p = math.log(p_m) if p_m > 0.0 else NEG_INF
    log_1p = math.log1p(-p_m) if p_m < 1.0 else NEG_INF
    total = 0.0
    t_hat = []
    for cl, pa0, w in zip(log_cl, log_pa0, wrong):
        cm = pa0 + (log_p if w else log_1p)
        if cl >= cm:
            t_hat.append(1)
            total += cl
        else:
            t_hat.append(0)
            total += cm
    return InnerMaxResult(log_likelihood=total, t_hat=tuple(t_hat))


def inner_max(p_m: float, a, y, branch: int, trust: TrustModel,
              sensors: LegitimateSensorModel) -> InnerMaxResult:
    """Best labeling and log-likelihood for one candidate adversary rate.

    ``branch`` selects the hypothesis side: 1 evaluates the event branch
    (the rate acts as the adversary's missed-detection probability), 0 the
    null branch (the rate acts as its false-alarm probability).
    """
    if not 0.0 <= p_m <= 1.0:
        raise ValidationError(f"adversary rate {p_m!r} outside [0, 1]")
    if branch not in (0, 1):
        raise ValidationError(f"branch {branch!r} must be 0 or 1")
    log_cl, log_pa0, wrong = _branch_tables(a, y, branch, trust, sensors)
    return _best_labeling(p_m, log_cl, log_pa0, wrong)


def mle_adversary_param(t, y, branch: int) -> float:
    """Maximum-likelihood adversary rate for a fixed labeling.

    The maximizer is the empirical fraction of branch-contradicting reports
    among the robots labeled malicious; with no malicious robots any value
    is optimal and 0.0 is returned as the canonical choice.
    """
    wrong = 0
    total = 0
    for t_i, y_i in zip(t, y):
        if t_i == 0:
            total += 1
            wrong += 1 if y_i != branch else 0
    if total == 0:
        return 0.0
    return wrong / total


def _prefix_sums(gains):
    """0 followed by the running sums of ``gains`` in descending order."""
    return np.concatenate(([0.0], np.cumsum(np.sort(gains)[::-1])))


def _branch_max(a, y, branch: int, trust: TrustModel,
                sensors: LegitimateSensorModel) -> tuple:
    """Branch maximum ``(value, rate, t_hat)``; ties keep the smallest rate.

    The count table only selects the rates ``k_w / (k_w + k_r)`` whose value
    is within rounding of the maximum (the empty labeling gives 0.0). Each
    is re-evaluated per robot in ascending order, so the result is the one
    a scan over every candidate rate would keep.
    """
    log_cl, log_pa0, wrong = _branch_tables(a, y, branch, trust, sensors)
    gains = np.subtract(log_pa0, log_cl)
    is_wrong = np.array(wrong, dtype=bool)
    s_w = _prefix_sums(gains[is_wrong])
    s_r = _prefix_sums(gains[~is_wrong])
    counts = np.arange(len(gains) + 1, dtype=float)
    xlogx = counts * np.log(np.maximum(counts, 1.0))
    k_w = np.arange(len(s_w))[:, None]
    k_r = np.arange(len(s_r))[None, :]
    table = (s_w[:, None] + xlogx[k_w]) + (s_r[None, :] + xlogx[k_r]) - xlogx[k_w + k_r]
    top = table.max()
    rows, cols = np.nonzero(table >= top - 1e-9 * (1.0 + abs(top)))
    rates = sorted({w / (w + r) if w + r else 0.0
                    for w, r in zip(rows.tolist(), cols.tolist())})
    best = (NEG_INF, 0.0, None)
    for p_m in rates:
        result = _best_labeling(p_m, log_cl, log_pa0, wrong)
        if result.log_likelihood > best[0]:
            best = (result.log_likelihood, p_m, result.t_hat)
    return best


def _outcome(num: tuple, den: tuple, prior_h0: float, prior_h1: float) -> DecisionOutcome:
    """Compare the branch maxima ``(value, rate, t_hat)`` against the priors.

    An exact tie goes to the null hypothesis. The outcome carries the
    winning branch's labeling and adversary-rate estimate; when the winning
    labeling marks every robot legitimate the rate is unconstrained and the
    canonical 0.0 is reported with a diagnostic flag.
    """
    log_num, log_den = num[0], den[0]
    threshold = log_prior_ratio(prior_h0, prior_h1)
    log_ratio = log_num - log_den
    hypothesis = 1 if log_ratio > threshold else 0
    _, estimate, t_hat = num if hypothesis == 1 else den
    unconstrained = all(t_i == 1 for t_i in t_hat)
    return DecisionOutcome(
        hypothesis=hypothesis,
        t_hat=t_hat,
        adversary_estimate=0.0 if unconstrained else estimate,
        diagnostics={
            "log_num": log_num,
            "log_den": log_den,
            "log_ratio": log_ratio,
            "adversary_estimate_arbitrary": 1.0 if unconstrained else 0.0,
        },
    )


def aglrt_decide(trial: Trial, trust: TrustModel, sensors: LegitimateSensorModel,
                 prior_h0: float, prior_h1: float) -> DecisionOutcome:
    """Full decision: maximize both branches over labelings and rates and
    compare the log-likelihood ratio against the log prior ratio."""
    num = _branch_max(trial.a, trial.y, 1, trust, sensors)
    den = _branch_max(trial.a, trial.y, 0, trust, sensors)
    return _outcome(num, den, prior_h0, prior_h1)


def brute_force_glrt(trial: Trial, trust: TrustModel, sensors: LegitimateSensorModel,
                     prior_h0: float, prior_h1: float) -> DecisionOutcome:
    """Exponential oracle: enumerate every labeling, solve the rate exactly.

    Must agree with :func:`aglrt_decide` in decision and branch maxima; kept
    for verification, hence the hard cap on network size.
    """
    n = trial.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValidationError(
            f"brute force refuses n={n} > {BRUTE_FORCE_MAX_N} (exponential cost)"
        )
    branch_best = []
    for branch in (1, 0):
        log_cl, log_pa0, wrong = _branch_tables(trial.a, trial.y, branch, trust, sensors)
        best = (NEG_INF, 0.0, None)
        for mask in range(1 << n):
            t = tuple((mask >> i) & 1 for i in range(n))
            total = 0.0
            n_mal = n_wrong = 0
            for i in range(n):
                if t[i] == 1:
                    total += log_cl[i]
                else:
                    total += log_pa0[i]
                    n_mal += 1
                    n_wrong += 1 if wrong[i] else 0
            rate = n_wrong / n_mal if n_mal else 0.0
            total += log_pow(rate, n_wrong) + log_pow(1.0 - rate, n_mal - n_wrong)
            if total > best[0]:
                best = (total, rate, t)
        branch_best.append(best)
    return _outcome(*branch_best, prior_h0, prior_h1)
