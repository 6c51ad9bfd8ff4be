"""Generalized likelihood ratio decision with joint adversary estimation.

The decision compares, for each hypothesis, the best achievable joint
likelihood of the observed measurements and trust scores over every robot
labeling and every malicious reporting rate. A robot enters only through
its code ``2*j + y`` (score position ``j``, report ``y``), and robots with
the same code carry the same weights, so a branch maximum depends only on
the per-code count vector. At the optimal rate the best labeling takes whole
codes in the order of their gain from the malicious label, so each branch is
searched over at most ``(|A|+1)^2`` labelings (9 for binary trust) whatever
the number of robots. That order depends on the model ``(trust, sensors)``
alone: each model's decision plan (per-code constants and ranked codes) is
built once and memoised, and a call only counts its row and filters the
plan by the codes present. A decision is the same for every order of the
robots, and a log-likelihood ratio within a small tie band of the prior
threshold goes to the null hypothesis. A stream of trials is decided by
:func:`aglrt_hypotheses` once per distinct count vector.

A full exponential enumeration over labelings is included as a verification
oracle for small networks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .models import (
    _BLOCK,
    _MAX_ROBOTS,
    DecisionOutcome,
    LegitimateSensorModel,
    Trial,
    TrustModel,
    ValidationError,
    log_prior_ratio,
)
from .stats import NEG_INF, log_pow

__all__ = [
    "candidate_set",
    "aglrt_decide",
    "brute_force_glrt",
    "BRUTE_FORCE_MAX_N",
]

BRUTE_FORCE_MAX_N = 16


def candidate_set(n: int) -> tuple:
    """All reduced fractions Tn/Td with 0 <= Tn <= Td and 1 <= Td <= n,
    sorted and deduplicated: the candidate values of the adversary rate.

    Division is correctly rounded, so equal fractions such as 2/4 and 1/2
    give the same float, while distinct ones differ by at least 1/n^2 and
    stay distinct and in order.
    """
    if n < 1:
        raise ValidationError(f"robot count {n!r} must be >= 1")
    return tuple(sorted({tn / td for td in range(1, n + 1) for tn in range(td + 1)}))


@lru_cache(maxsize=128)
def _code_constants(trust: TrustModel, sensors: LegitimateSensorModel) -> tuple:
    """The decision plan of one model: per-code constants of both branches,
    indexed by code ``2*j + y``, and each branch's code groups.

    Entry ``b`` is ``(log_cl, log_pa0, wrong, groups)`` for branch ``b``:
    ``log_cl[c]`` is the log joint weight of calling a robot with code ``c``
    legitimate, ``log_pa0[c]`` the log trust-score weight of calling it
    malicious, and ``wrong[c]`` marks a report that contradicts the branch
    hypothesis (the exponent of the adversary rate). ``groups`` holds, for
    the contradicting codes and then the agreeing ones, ``(codes, ranked)``:
    the group's codes in code order, and its codes of positive gain
    ``log_pa0 - log_cl`` stable-sorted by ``log_cl - log_pa0``. The ranking
    depends on the model alone, so it is built once per model.
    """
    log_pa0 = tuple(log_mal for log_mal in trust.log_pmf_malicious for _ in (0, 1))
    tables = []
    for branch, p_miss in ((0, sensors.p_fa_l), (1, sensors.p_md_l)):
        log_hit = math.log1p(-p_miss)
        log_miss = math.log(p_miss)
        by_report = (log_hit, log_miss) if branch == 0 else (log_miss, log_hit)
        log_cl = tuple(log_legit + r for log_legit in trust.log_pmf_legit for r in by_report)
        wrong = tuple(y != branch for y in (0, 1)) * len(trust.alphabet)
        groups = []
        for w in (True, False):
            codes = tuple(c for c in range(len(wrong)) if wrong[c] == w)
            ranked = tuple(sorted((c for c in codes if log_pa0[c] > log_cl[c]),
                                  key=lambda c: log_cl[c] - log_pa0[c]))
            groups.append((codes, ranked))
        tables.append((log_cl, log_pa0, wrong, tuple(groups)))
    return tuple(tables)


def _row_codes(trial: Trial, trust: TrustModel) -> list:
    """Code ``2*j + y`` of every robot, in row order."""
    return [2 * j + y for j, y in zip(trust.symbol_positions(trial.a), trial.y)]


def _xlogx(k: int) -> float:
    """``k * log(k)``, 0.0 at ``k = 0``."""
    return k * math.log(k) if k else 0.0


def _class_maxima(counts: list, plan: tuple) -> tuple:
    """Both branch maxima ``(value, rate, legit)`` of the per-code count
    vector ``counts`` under the :func:`_code_constants` plan ``plan``,
    branch 0 first; ``legit[c]`` is 1 when the robots with code ``c`` are
    labeled legitimate, else 0.

    At a fixed rate ``p`` every robot of a code takes the same label: a code
    whose report contradicts the branch is labeled malicious when its gain
    ``log_pa0 - log_cl`` exceeds ``-log(p)``, one whose report agrees when
    its gain exceeds ``-log(1 - p)``. Both bounds are nonnegative, so the
    maximum is among the labelings that take the top ``i`` contradicting
    and the top ``j`` agreeing codes of positive gain, each at its
    maximum-likelihood rate ``kw / km`` (``kw`` contradicting robots among
    the ``km`` labeled malicious). The plan ranks each group once per model;
    a stable sort restricted to the codes present gives the same order as
    sorting those codes alone. A labeling's value is the sum of its
    contradicting codes' terms (``count * log_pa0`` or ``count * log_cl``)
    in code order, plus that of its agreeing codes', plus ``xlogx(kw) +
    xlogx(km - kw) - xlogx(km)``: it depends only on the counts. Among equal
    values the smallest rate, then the fewest malicious robots, wins, so a
    robot on a tie is labeled legitimate. More than ``_MAX_ROBOTS`` robots
    raise :class:`ValidationError` before any search.
    """
    n = sum(counts)
    if n > _MAX_ROBOTS:
        raise ValidationError(f"robot count {n!r} must be at most {_MAX_ROBOTS}")
    maxima = []
    for log_cl, log_pa0, _, plan_groups in plan:
        # per group, contradicting then agreeing: (terms, robots, xlogx of
        # the robots, codes) of labeling its top `level` codes malicious
        groups = []
        for codes, ranking in plan_groups:
            group = [c for c in codes if counts[c]]
            ranked = [c for c in ranking if counts[c]]
            levels = []
            k = 0
            for level in range(len(ranked) + 1):
                taken = ranked[:level]
                if level:
                    k += counts[taken[-1]]
                total = 0.0
                for c in group:
                    total += counts[c] * (log_pa0[c] if c in taken else log_cl[c])
                levels.append((total, k, _xlogx(k), taken))
            groups.append(levels)
        best, rate, malicious, taken = NEG_INF, 0.0, 0, []
        for value_w, kw, xlogx_w, taken_w in groups[0]:
            for value_r, kr, xlogx_r, taken_r in groups[1]:
                km = kw + kr
                total = value_w + value_r + xlogx_w + xlogx_r - _xlogx(km)
                if total >= best:
                    p_m = kw / km if km else 0.0
                    if total > best or (p_m, km) < (rate, malicious):
                        best, rate, malicious, taken = total, p_m, km, taken_w + taken_r
        maxima.append((best, rate, [int(c not in taken) for c in range(len(counts))]))
    return tuple(maxima)


def _decides_h1(log_num: float, log_den: float, threshold: float) -> bool:
    """Whether the log-likelihood ratio clears ``threshold`` beyond the tie
    band ``1e-9 * (1 + |log_num| + |log_den|)``."""
    return log_num - log_den - threshold > 1e-9 * (1.0 + abs(log_num) + abs(log_den))


def _outcome(num: tuple, den: tuple, prior_h0: float, prior_h1: float,
             codes=None) -> DecisionOutcome:
    """Compare the branch maxima ``(value, rate, labeling)`` against the priors.

    A log-likelihood ratio within the tie band of :func:`_decides_h1` (a few
    ulps of rounding, or an exact tie) goes to the null hypothesis. The
    outcome carries the winning branch's labeling as ``t_hat`` (mapped
    through the row's ``codes`` when the labeling is per code) and its
    adversary-rate estimate; when the winning labeling marks every robot
    legitimate the rate is unconstrained and the canonical 0.0 is reported
    with a diagnostic flag.
    """
    log_num, log_den = num[0], den[0]
    hypothesis = int(_decides_h1(log_num, log_den, log_prior_ratio(prior_h0, prior_h1)))
    _, estimate, t_hat = num if hypothesis == 1 else den
    if codes is not None:
        t_hat = tuple(map(t_hat.__getitem__, codes))
    unconstrained = 0 not in t_hat
    return DecisionOutcome(
        hypothesis=hypothesis,
        t_hat=t_hat,
        adversary_estimate=0.0 if unconstrained else estimate,
        diagnostics={
            "log_num": log_num,
            "log_den": log_den,
            "log_ratio": log_num - log_den,
            "adversary_estimate_arbitrary": 1.0 if unconstrained else 0.0,
        },
    )


def aglrt_decide(trial: Trial, trust: TrustModel, sensors: LegitimateSensorModel,
                 prior_h0: float, prior_h1: float) -> DecisionOutcome:
    """Full decision: maximize both branches over labelings and rates and
    compare the log-likelihood ratio against the log prior ratio.

    The row is mapped once to its per-code counts, so the outcome is the
    same for every order of the robots, up to ``t_hat``, which follows the
    row.
    """
    codes = _row_codes(trial, trust)
    plan = _code_constants(trust, sensors)
    counts = [0] * len(plan[0][0])
    for c in codes:
        counts[c] += 1
    den, num = _class_maxima(counts, plan)
    return _outcome(num, den, prior_h0, prior_h1, codes)


def aglrt_hypotheses(y, a_idx, trust: TrustModel, sensors: LegitimateSensorModel,
                     prior_h0: float, prior_h1: float) -> np.ndarray:
    """``(T,)`` ``int8`` hypotheses of the reports ``y`` and score positions
    ``a_idx``, both ``(T, n)`` with one trial per row.

    A row enters only through its per-code counts, so each distinct count
    vector is decided once and its hypothesis copied to every row with the
    same counts: the hypotheses are one :func:`aglrt_decide` per row.
    Classes are keyed by the bytes of each ``_BLOCK`` slice's count rows.
    """
    plan = _code_constants(trust, sensors)
    threshold = log_prior_ratio(prior_h0, prior_h1)
    width = 2 * len(trust.alphabet)
    classes = {}  # count vector bytes -> hypothesis
    hypotheses = np.empty(len(y), dtype=np.int8)
    for start in range(0, len(y), _BLOCK):
        rows = slice(start, start + _BLOCK)
        codes = 2 * a_idx[rows].astype(np.intp) + y[rows]
        offset = codes + width * np.arange(len(codes))[:, None]
        counts = np.bincount(offset.ravel(), minlength=width * len(codes))
        keys = counts.view(np.dtype((np.void, width * counts.itemsize))).tolist()
        vectors = counts.reshape(-1, width)
        for row, key in enumerate(keys):
            if key not in classes:
                den, num = _class_maxima(vectors[row].tolist(), plan)
                classes[key] = _decides_h1(num[0], den[0], threshold)
        hypotheses[rows] = [classes[key] for key in keys]
    return hypotheses


def brute_force_glrt(trial: Trial, trust: TrustModel, sensors: LegitimateSensorModel,
                     prior_h0: float, prior_h1: float) -> DecisionOutcome:
    """Exponential oracle: enumerate every labeling, solve the rate exactly.

    Row ``m`` of a ``(2^n, n)`` mask array labels robot ``i`` legitimate iff
    bit ``i`` of ``m`` is set; a row's value adds the robots' terms one robot
    at a time, then its contradicting reports' term at their maximum-likelihood
    rate, and the first strict maximum wins. Must agree with :func:`aglrt_decide`
    in decision and branch maxima; kept for verification, hence the hard cap.
    """
    n = trial.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValidationError(
            f"brute force refuses n={n} > {BRUTE_FORCE_MAX_N} (exponential cost)"
        )
    codes = _row_codes(trial, trust)
    legit = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    malicious = n - legit.sum(axis=1)
    # [kw, km]: kw contradicting reports among km malicious robots at rate kw / km
    rate_term = np.zeros((n + 1, n + 1))
    for km in range(1, n + 1):
        for kw in range(km + 1):
            rate_term[kw, km] = log_pow(kw / km, kw) + log_pow(1.0 - kw / km, km - kw)
    branch_best = []
    for log_cl, log_pa0, wrong, _ in reversed(_code_constants(trust, sensors)):  # H1, then H0
        total = np.zeros(len(legit))
        for i, c in enumerate(codes):
            total += np.where(legit[:, i], log_cl[c], log_pa0[c])
        contradicting = (~legit & np.array([wrong[c] for c in codes], dtype=bool)).sum(axis=1)
        total += rate_term[contradicting, malicious]
        best = int(np.argmax(total))
        kw, km = int(contradicting[best]), int(malicious[best])
        branch_best.append((float(total[best]), kw / km if km else 0.0,
                            tuple(legit[best].astype(int).tolist())))
    return _outcome(*branch_best, prior_h0, prior_h1)
