"""Generalized likelihood ratio decision with joint adversary estimation.

The decision compares, for each hypothesis, the best achievable joint
likelihood of the observed measurements and trust scores over every robot
labeling and every malicious reporting rate. The best rate for a labeling is
its fraction of wrong reports among the robots labeled malicious, so a
branch maximum depends only on how many robots are labeled malicious among
the ``n0`` robots reporting 0 and among the ``n1`` reporting 1.

A robot enters only through its code ``2*j + y`` (score position ``j``,
report ``y``): every robot with the same code has the same weights, so the
per-robot constants of both branches come from one small per-code table and
each group's sorted gains from per-code gains repeated by their counts. One
``(2, n0+1, n1+1)`` table of count pairs locates both branch maxima at once.
The few rates within rounding of a maximum are re-evaluated by labeling each
code and summing the chosen values over the robots in row order, which is
the order a robot-by-robot scan would sum them in: a branch value is a sum
of ``n`` logs, so its last bits, and with them the ties between rates and
between the two branches, depend on that order. A stream of trials is
decided by :func:`aglrt_hypotheses` on the same core, once per count vector.

A full exponential enumeration over labelings is included as a verification
oracle for small networks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, chain

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


def _code_constants(trust: TrustModel, sensors: LegitimateSensorModel) -> tuple:
    """Per-code constants of both branches, indexed by code ``2*j + y``.

    Entry ``b`` is ``(log_cl, log_pa0, wrong)`` for branch ``b``:
    ``log_cl[c]`` is the log joint weight of calling a robot with code ``c``
    legitimate, ``log_pa0[c]`` the log trust-score weight of calling it
    malicious, and ``wrong[c]`` marks a report that contradicts the branch
    hypothesis (the exponent of the adversary rate).
    """
    log_pa0 = [log_mal for log_mal in trust.log_pmf_malicious for _ in (0, 1)]
    tables = []
    for branch, p_miss in ((0, sensors.p_fa_l), (1, sensors.p_md_l)):
        log_hit = math.log1p(-p_miss)
        log_miss = math.log(p_miss)
        by_report = (log_hit, log_miss) if branch == 0 else (log_miss, log_hit)
        log_cl = [log_legit + r for log_legit in trust.log_pmf_legit for r in by_report]
        wrong = [y != branch for y in (0, 1)] * len(trust.alphabet)
        tables.append((log_cl, log_pa0, wrong))
    return tuple(tables)


def _row_codes(trial: Trial, trust: TrustModel) -> list:
    """Code ``2*j + y`` of every robot, in row order."""
    return [2 * j + y for j, y in zip(trust.symbol_positions(trial.a), trial.y)]


@lru_cache(maxsize=4)
def _count_grids(n: int) -> np.ndarray:
    """Read-only ``(2, n+1, n+1)`` grids over count pairs ``(k0, k1)``.

    Grid 0 holds ``xlogx[k0 + k1]`` with ``xlogx[k] = k*log(k)`` (0 at
    ``k = 0``), so its row 0 is ``xlogx`` itself; grid 1 holds the rate
    ``k0 / (k0 + k1)``, 0.0 at ``(0, 0)``. Only cells with ``k0 + k1 <= n``
    are read; the others repeat ``xlogx[n]``.
    """
    counts = np.arange(n + 1, dtype=float)
    xlogx = counts * np.log(np.maximum(counts, 1.0))
    k = np.arange(n + 1, dtype=np.int32)
    total = np.add.outer(k, k)
    grids = np.empty((2, n + 1, n + 1))
    np.take(xlogx, np.minimum(total, n), out=grids[0])
    np.divide(k[:, None], np.maximum(total, 1, out=total), out=grids[1])
    grids.flags.writeable = False
    return grids


def _prefix_sums(gains, counts):
    """0 followed by the running sums of ``gains``, each repeated by its
    count, largest first: the floats of summing the per-robot gains in
    descending order one by one, since equal gains sum alike in any order."""
    repeated = [0.0]
    for gain, count in sorted(zip(gains, counts), reverse=True):
        repeated += [gain] * count
    return accumulate(repeated)


def _branch_maxima(codes: list, constants: tuple) -> tuple:
    """Both branch maxima ``(value, rate, t_hat)`` of the row with robot codes
    ``codes`` under the :func:`_code_constants` table ``constants``, branch 0
    first.

    Cell ``(k0, k1)`` of the count table labels ``k0`` of the robots
    reporting 0 and ``k1`` of those reporting 1 malicious, each group's
    largest gains first. It only selects the rates whose value is within
    rounding of the branch maximum (the empty labeling gives 0.0): rate
    ``k0 / (k0 + k1)`` in branch 1 and ``k1 / (k0 + k1)`` in branch 0. Each
    is re-evaluated in ascending order and only a strictly larger value
    replaces the best, so ties keep the smallest rate and the result is the
    one a scan over every candidate rate would keep. Within a rate a tie
    labels the robot legitimate. More than ``_MAX_ROBOTS`` robots raise
    :class:`ValidationError` before any table is built.
    """
    n = len(codes)
    if n > _MAX_ROBOTS:
        raise ValidationError(f"robot count {n!r} must be at most {_MAX_ROBOTS}")
    width = len(constants[0][0])
    counts = [0] * width
    for c in codes:
        counts[c] += 1
    n0 = sum(counts[0::2])
    n1 = n - n0
    # branch 0's then branch 1's sorted gain sums over the robots reporting
    # 0, then the same over those reporting 1
    sums = chain.from_iterable(
        _prefix_sums([log_pa0[c] - log_cl[c] for c in range(y, width, 2)], counts[y::2])
        for y in (0, 1) for log_cl, log_pa0, _ in constants)
    flat = np.fromiter(sums, float, 2 * n + 4)
    grids = _count_grids(n)
    xlogx, rate = grids[0, 0], grids[1]
    low = flat[:2 * n0 + 2].reshape(2, n0 + 1) + xlogx[:n0 + 1]
    high = flat[2 * n0 + 2:].reshape(2, n1 + 1) + xlogx[:n1 + 1]
    # branch 0's contradicting reports are the 1s, so its cells are the
    # transpose of a (contradicting, agreeing) layout, exactly, since
    # (A + B) - X == (B + A) - X
    table = low[:, :, None] + high[:, None, :]
    table -= grids[0, :n0 + 1, :n1 + 1]
    maxima = []
    for branch, top in enumerate(table.max(axis=(1, 2)).tolist()):
        log_cl, log_pa0, wrong = constants[branch]
        cell_rates = rate[:n0 + 1, :n1 + 1] if branch else rate[:n1 + 1, :n0 + 1].T
        rates = cell_rates[table[branch] >= top - 1e-9 * (1.0 + abs(top))].tolist()
        best = (NEG_INF, 0.0, None)
        for p_m in sorted(set(rates)):
            log_p = math.log(p_m) if p_m > 0.0 else NEG_INF
            log_1p = math.log1p(-p_m) if p_m < 1.0 else NEG_INF
            values = [max(cl, pa0 + (log_p if w else log_1p))
                      for cl, pa0, w in zip(log_cl, log_pa0, wrong)]
            total = 0.0
            for c in codes:
                total += values[c]
            if total > best[0]:
                best = (total, p_m, values)
        total, p_m, values = best
        labels = [1 if v == cl else 0 for v, cl in zip(values, log_cl)]
        maxima.append((total, p_m, tuple(map(labels.__getitem__, codes))))
    return tuple(maxima)


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
    unconstrained = 0 not in t_hat
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
    compare the log-likelihood ratio against the log prior ratio.

    The row is mapped once to (score, report) codes; both branches share
    one per-code constant table and one stacked count table, and the
    re-evaluated branch values are summed over the robots in row order, so
    the outcome is bit for bit that of a robot-by-robot evaluation. Only
    the count-pair grids of :func:`_count_grids` are kept between calls.
    """
    den, num = _branch_maxima(_row_codes(trial, trust), _code_constants(trust, sensors))
    return _outcome(num, den, prior_h0, prior_h1)


def aglrt_hypotheses(y, a_idx, trust: TrustModel, sensors: LegitimateSensorModel,
                     prior_h0: float, prior_h1: float) -> np.ndarray:
    """``(T,)`` ``int8`` hypotheses of the reports ``y`` and score positions
    ``a_idx``, both ``(T, n)`` with one trial per row.

    A row enters only through its per-code counts, up to the rounding of
    summing its robots in row order (about n ulps of a branch value). So the
    first row of each distinct count vector is decided and its hypothesis
    copied to the rest of its class, except that a class whose ``log_ratio``
    lies within ``1e-9 * (1 + |log_num| + |log_den|)`` of the prior threshold
    is a tie that robot order can break: each of its rows is decided on its
    own. The hypotheses are bit for bit one :func:`aglrt_decide` per row.
    Classes are keyed by the bytes of each ``_BLOCK`` slice's count rows.
    """
    constants = _code_constants(trust, sensors)
    threshold = log_prior_ratio(prior_h0, prior_h1)
    width = 2 * len(trust.alphabet)

    def hypothesis(codes: list, tie) -> int:
        # ``tie`` for a ratio within the band, unless it is None
        den, num = _branch_maxima(codes, constants)
        log_num, log_den = num[0], den[0]
        log_ratio = log_num - log_den
        if (tie is not None and abs(log_ratio - threshold)
                <= 1e-9 * (1.0 + abs(log_num) + abs(log_den))):
            return tie
        return 1 if log_ratio > threshold else 0

    classes = {}  # count vector bytes -> hypothesis, or -1 for a tie
    hypotheses = np.empty(len(y), dtype=np.int8)
    for start in range(0, len(y), _BLOCK):
        rows = slice(start, start + _BLOCK)
        codes = 2 * a_idx[rows].astype(np.intp) + y[rows]
        offset = codes + width * np.arange(len(codes))[:, None]
        counts = np.bincount(offset.ravel(), minlength=width * len(codes))
        keys = counts.view(np.dtype((np.void, width * counts.itemsize))).tolist()
        for row, key in enumerate(keys):
            if key not in classes:
                classes[key] = hypothesis(codes[row].tolist(), -1)
        hypotheses[rows] = [classes[key] for key in keys]
        for row in np.flatnonzero(hypotheses[rows] < 0).tolist():
            hypotheses[start + row] = hypothesis(codes[row].tolist(), None)
    return hypotheses


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
    codes = _row_codes(trial, trust)
    constants = _code_constants(trust, sensors)
    branch_best = []
    for branch in (1, 0):
        log_cl, log_pa0, wrong = ([column[c] for c in codes]
                                  for column in constants[branch])
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
