"""Independent brute-force oracles used to validate the closed-form math.

Everything here recomputes probabilities from first principles by exhaustive
enumeration over measurement and trust-classification outcomes (or over their
counts, where the rule under study only sees counts), sharing as little code
as possible with the implementation paths under test.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass
from itertools import product

import numpy as np

from trustfusion.aglrt import _xlogx, aglrt_decide, candidate_set
from trustfusion.models import _MAX_ROBOTS, DecisionOutcome, Trial, ValidationError
from trustfusion.stats import NEG_INF, binom_pmf
from trustfusion.two_stage import decide_hypothesis, trust_probabilities


def fused_decision(ones: int, trusted: int, gamma_ts: float,
                   w1: float, w0: float) -> int:
    """Reference fused decision, written out independently.

    Same algebraic rearrangement as the implementation (the inequality is
    multiplied out so integer-tie cases are exact): decide 1 iff
    ones*w1 - (trusted-ones)*w0 >= gamma_ts.
    """
    return 1 if ones * (w0 + w1) >= gamma_ts + trusted * w0 else 0


def per_robot_trust_prob(pmf, ratios, gamma_t: float, p_t: float) -> float:
    """Probability one robot with score pmf ``pmf`` passes the trust stage."""
    prob = 0.0
    for q, ratio in zip(pmf, ratios):
        if ratio > gamma_t:
            prob += q
        elif ratio == gamma_t:
            prob += p_t * q
    return prob


def exact_two_stage_error(trust, sensors, gamma_ts: float,
                          prior_h0: float, prior_h1: float,
                          gamma_t: float, p_t: float, truth,
                          p_fa_m: float, p_md_m: float) -> float:
    """Exact pipeline error by enumerating all (y, t_hat) pairs.

    Valid for any adversary reporting rates, not just the worst case. The
    ``(2^n, n)`` array of every 0/1 row serves as both the reports and the
    trust decisions, and :func:`fused_decision`'s inequality is applied to
    the ``(2^n, 2^n)`` matrix of trusted positive reports at once: 4^n
    cells (32 KB per matrix at n = 6), so keep n small.
    """
    w1 = math.log((1 - sensors.p_md_l) / sensors.p_fa_l)
    w0 = math.log((1 - sensors.p_fa_l) / sensors.p_md_l)
    rows = np.array(list(product((0, 1), repeat=len(truth))), dtype=np.int64)
    trust_prob = [per_robot_trust_prob(trust.pmf_legit if t == 1 else trust.pmf_malicious,
                                       trust.ratios, gamma_t, p_t) for t in truth]
    pt = np.prod(np.where(rows == 1, trust_prob, np.subtract(1, trust_prob)), axis=1)
    # [y row, t_hat row]: whether the fused decision is 1
    decides_1 = (rows @ rows.T) * (w0 + w1) >= gamma_ts + rows.sum(axis=1) * w0
    error = 0.0
    for xi, prior, p_l, p_m in ((0, prior_h0, sensors.p_fa_l, p_fa_m),
                                (1, prior_h1, 1 - sensors.p_md_l, 1 - p_md_m)):
        p_one = [p_l if t == 1 else p_m for t in truth]
        py = np.prod(np.where(rows == 1, p_one, np.subtract(1, p_one)), axis=1)
        error += prior * (py[:, None] * pt * (decides_1 != xi)).sum()
    return float(error)


def exact_fixed_trust_error(sensors, gamma_ts: float,
                            prior_h0: float, prior_h1: float,
                            included) -> float:
    """Exact error of the standard fused rule over a fixed robot subset.

    All included robots are legitimate; enumeration over their measurements
    only (2^k terms).
    """
    k = sum(included)
    w1 = math.log((1 - sensors.p_md_l) / sensors.p_fa_l)
    w0 = math.log((1 - sensors.p_fa_l) / sensors.p_md_l)
    error = 0.0
    for xi, prior in ((0, prior_h0), (1, prior_h1)):
        p1 = sensors.p_fa_l if xi == 0 else 1 - sensors.p_md_l
        wrong = 0.0
        for ones in range(k + 1):
            if fused_decision(ones, k, gamma_ts, w1, w0) != xi:
                wrong += math.comb(k, ones) * p1 ** ones * (1 - p1) ** (k - ones)
        error += prior * wrong
    return error


def glrt_branch_max_by_enumeration(trial, trust, sensors, branch: int,
                                   grid_steps: int = 2000) -> float:
    """Branch maximum by enumerating labelings x a dense rate grid.

    Cross-checks both the candidate-set scan and the closed-form inner rate
    maximizer; the grid makes it an independent (if slightly loose) route.
    Rows of a ``(2^n, n)`` 0/1 array are the labelings (1 = legitimate) and
    columns of the value matrix the grid rates; a rate that gives a labeled
    report probability 0 scores -inf.
    """
    p_miss = sensors.p_md_l if branch == 1 else sensors.p_fa_l
    log_hit, log_miss = math.log(1 - p_miss), math.log(p_miss)
    labels = np.array(list(product((0, 1), repeat=trial.n)), dtype=bool)
    base = np.zeros(len(labels))
    for i, (a_i, y_i) in enumerate(zip(trial.a, trial.y)):
        j = trust.symbol_index(a_i)
        legit = trust.log_pmf_legit[j] + (log_hit if y_i == branch else log_miss)
        base += np.where(labels[:, i], legit, trust.log_pmf_malicious[j])
    n_wrong = (~labels & (np.array(trial.y) != branch)).sum(axis=1)[:, None]
    n_right = (~labels).sum(axis=1)[:, None] - n_wrong
    rates = [i / grid_steps for i in range(grid_steps + 1)]
    log_p = np.array([math.log(r) if r > 0 else -math.inf for r in rates])
    log_q = np.array([math.log(1 - r) if r < 1 else -math.inf for r in rates])
    with np.errstate(invalid="ignore"):  # 0 * -inf: no such robots, no term
        value = (base[:, None] + np.where(n_wrong > 0, n_wrong * log_p, 0.0)
                 + np.where(n_right > 0, n_right * log_q, 0.0))
    return float(value.max())


@dataclass(frozen=True)
class InnerMaxResult:
    """Best labeling and its joint log-likelihood at one candidate rate."""

    log_likelihood: float
    t_hat: tuple


def _branch_tables(a, y, branch: int, trust, sensors) -> tuple:
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
    malicious log-weights; ties label the robot legitimate. The weights are
    summed robot by robot in row order.
    """
    log_p = math.log(p_m) if p_m > 0.0 else -math.inf
    log_1p = math.log1p(-p_m) if p_m < 1.0 else -math.inf
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


def inner_max(p_m: float, a, y, branch: int, trust, sensors) -> InnerMaxResult:
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


def candidate_scan_branch_max(trial, trust, sensors, branch: int) -> tuple:
    """Branch maximum ``(value, rate, t_hat)`` by scanning every candidate rate.

    Evaluates the best labeling at each reduced fraction with denominator at
    most n, in ascending order, and keeps the first strict maximum, so ties
    keep the smallest rate. This is the rate-by-rate search the GLRT used
    before its count-domain kernel; O(N^3), so keep n small. It sums the
    robots one by one in row order, while ``aglrt_decide`` sums per code, so
    the two branch values agree to rounding, not bit for bit.
    """
    best = (-math.inf, 0.0, None)
    for rate in candidate_set(trial.n):
        result = inner_max(rate, trial.a, trial.y, branch, trust, sensors)
        if result.log_likelihood > best[0]:
            best = (result.log_likelihood, rate, result.t_hat)
    return best


def candidate_scan_decide(trial, trust, sensors,
                          prior_h0: float, prior_h1: float) -> DecisionOutcome:
    """GLRT decision built from the candidate scan, written out in full."""
    log_num, rate_num, t_num = candidate_scan_branch_max(trial, trust, sensors, 1)
    log_den, rate_den, t_den = candidate_scan_branch_max(trial, trust, sensors, 0)
    log_ratio = log_num - log_den
    hypothesis = 1 if log_ratio > math.log(prior_h0) - math.log(prior_h1) else 0
    t_hat, estimate = (t_num, rate_num) if hypothesis == 1 else (t_den, rate_den)
    arbitrary = all(t_i == 1 for t_i in t_hat)
    return DecisionOutcome(
        hypothesis=hypothesis,
        t_hat=t_hat,
        adversary_estimate=0.0 if arbitrary else estimate,
        diagnostics={
            "log_num": log_num,
            "log_den": log_den,
            "log_ratio": log_ratio,
            "adversary_estimate_arbitrary": 1.0 if arbitrary else 0.0,
        },
    )


def sorting_class_maxima(counts: list, constants: tuple) -> tuple:
    """Both branch maxima ``(value, rate, legit)`` of the per-code count
    vector ``counts`` under the table ``constants``, branch 0 first;
    ``legit[c]`` is 1 when the robots with code ``c`` are labeled legitimate,
    else 0. ``constants`` holds each branch's ``(log_cl, log_pa0, wrong)``,
    the first three fields of ``aglrt._code_constants``.

    This is the count-domain A-GLRT core as it was before each model's code
    ranking was memoised: it sorts the codes present on every call.

    At a fixed rate ``p`` every robot of a code takes the same label: a code
    whose report contradicts the branch is labeled malicious when its gain
    ``log_pa0 - log_cl`` exceeds ``-log(p)``, one whose report agrees when
    its gain exceeds ``-log(1 - p)``. Both bounds are nonnegative, so the
    maximum is among the labelings that take the top ``i`` contradicting
    and the top ``j`` agreeing codes of positive gain, each at its
    maximum-likelihood rate ``kw / km`` (``kw`` contradicting robots among
    the ``km`` labeled malicious). A labeling's value is the sum of its
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
    present = [c for c, k in enumerate(counts) if k]
    maxima = []
    for log_cl, log_pa0, wrong in constants:
        # per group, contradicting then agreeing: (terms, robots, xlogx of
        # the robots, codes) of labeling its top `level` codes malicious
        groups = []
        for w in (True, False):
            group = [c for c in present if wrong[c] == w]
            ranked = sorted((c for c in group if log_pa0[c] > log_cl[c]),
                            key=lambda c: log_cl[c] - log_pa0[c])
            levels = []
            for level in range(len(ranked) + 1):
                taken = ranked[:level]
                total = 0.0
                for c in group:
                    total += counts[c] * (log_pa0[c] if c in taken else log_cl[c])
                k = sum(counts[c] for c in taken)
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


# --- count-domain referees -------------------------------------------------
#
# The rules below see robots only through counts (how many members of each
# type report a one, how many of each type pass the trust stage, how many
# robots show each (score, report) pair), so they stay exact at network sizes
# where the 4^n and 2^n enumerations above are out of reach. Each one is
# cross-checked against those enumerations in test_oracles.py. The reputation
# replay at the end is sequential and has no closed form, so it replays a
# trial stream instead and is pinned by a hand-worked example there.


def _binom_pmf(k: int, n: int, p: float) -> float:
    return math.comb(n, k) * p ** k * (1 - p) ** (n - k)


def _report_one_probs(sensors, p_fa_m: float, p_md_m: float, xi: int) -> tuple:
    """Probability that a legitimate / malicious robot reports a one."""
    if xi == 0:
        return sensors.p_fa_l, p_fa_m
    return 1 - sensors.p_md_l, 1 - p_md_m


def exact_fixed_subset_error(sensors, gamma_ts: float,
                             prior_h0: float, prior_h1: float,
                             n_legit: int, n_malicious: int,
                             p_fa_m: float, p_md_m: float) -> float:
    """Exact error of the fused rule over a fixed set of fused robots.

    The set holds ``n_legit`` legitimate members and ``n_malicious``
    malicious ones reporting a one with probability ``p_fa_m`` (no event) or
    ``1 - p_md_m`` (event). The rule only sees how many members report a
    one, so the two binomial counts are enumerated.
    """
    w1 = math.log((1 - sensors.p_md_l) / sensors.p_fa_l)
    w0 = math.log((1 - sensors.p_fa_l) / sensors.p_md_l)
    fused = n_legit + n_malicious
    error = 0.0
    for xi, prior in ((0, prior_h0), (1, prior_h1)):
        p_l, p_m = _report_one_probs(sensors, p_fa_m, p_md_m, xi)
        for s_l in range(n_legit + 1):
            for s_m in range(n_malicious + 1):
                if fused_decision(s_l + s_m, fused, gamma_ts, w1, w0) != xi:
                    error += (prior * _binom_pmf(s_l, n_legit, p_l)
                              * _binom_pmf(s_m, n_malicious, p_m))
    return error


def exact_two_stage_error_by_counts(trust, sensors, gamma_ts: float,
                                    prior_h0: float, prior_h1: float,
                                    gamma_t: float, p_t: float,
                                    n_legit: int, n_malicious: int,
                                    p_fa_m: float, p_md_m: float) -> float:
    """Exact pipeline error at fixed thresholds, by trusted-member counts.

    Each robot passes the trust stage independently, so the numbers of
    trusted legitimate and trusted malicious robots are binomial; given
    them, the error is that of the fused rule over a fixed subset. Valid
    for any adversary reporting rates.
    """
    tau_l = per_robot_trust_prob(trust.pmf_legit, trust.ratios, gamma_t, p_t)
    tau_m = per_robot_trust_prob(trust.pmf_malicious, trust.ratios, gamma_t, p_t)
    error = 0.0
    for k_l in range(n_legit + 1):
        for k_m in range(n_malicious + 1):
            weight = _binom_pmf(k_l, n_legit, tau_l) * _binom_pmf(k_m, n_malicious, tau_m)
            if weight:
                error += weight * exact_fixed_subset_error(
                    sensors, gamma_ts, prior_h0, prior_h1, k_l, k_m, p_fa_m, p_md_m)
    return error


def per_point_mixture_error(model, cost, gamma_t: float, p_t: float) -> float:
    """The minimax scan's value at one threshold pair, one point at a time:
    the mean of ``cost[k_l, k_m]`` under the binomial trusted counts, with
    each pmf cell from one :func:`binom_pmf` call and one ``math.fsum`` (the
    exactly rounded sum) over the cells."""
    p_trust_l, p_trust_m = trust_probabilities(model, gamma_t, p_t)
    n_legit, n_malicious = cost.shape[0] - 1, cost.shape[1] - 1
    pmf_l = np.array([binom_pmf(k, p_trust_l, n_legit) for k in range(n_legit + 1)])
    pmf_m = np.array([binom_pmf(k, p_trust_m, n_malicious) for k in range(n_malicious + 1)])
    return math.fsum((np.outer(pmf_l, pmf_m) * cost).ravel().tolist())


def _compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial_pmf(counts, probs) -> float:
    value = float(math.factorial(sum(counts)))
    for c, p in zip(counts, probs):
        value *= p ** c / math.factorial(c)
    return value


def exact_exchangeable_error(decide, trust, sensors,
                             prior_h0: float, prior_h1: float,
                             n_legit: int, n_malicious: int,
                             p_fa_m: float, p_md_m: float) -> float:
    """Exact error of a decider that ignores which robot sent what.

    ``decide(a, y)`` returns the hypothesis for score and report vectors. A
    decider that treats robots alike sees a trial only through how many
    robots show each (score, report) pair, so it is called once per class
    of such counts, on one representative, and each class is weighted by
    its probability: the sum over splits between the legitimate and the
    malicious robots of two multinomial probabilities.
    """
    pairs = [(sym, y) for sym in trust.alphabet for y in (0, 1)]
    n = n_legit + n_malicious
    decisions = {}
    for counts in _compositions(n, len(pairs)):
        a = [sym for (sym, _), c in zip(pairs, counts) for _ in range(c)]
        y = [y for (_, y), c in zip(pairs, counts) for _ in range(c)]
        decisions[counts] = decide(tuple(a), tuple(y))
    error = 0.0
    for xi, prior in ((0, prior_h0), (1, prior_h1)):
        p_l, p_m = _report_one_probs(sensors, p_fa_m, p_md_m, xi)
        probs_l = [q * (p_l if y else 1 - p_l)
                   for q in trust.pmf_legit for y in (0, 1)]
        probs_m = [q * (p_m if y else 1 - p_m)
                   for q in trust.pmf_malicious for y in (0, 1)]
        for c_l in _compositions(n_legit, len(pairs)):
            weight_l = _multinomial_pmf(c_l, probs_l)
            for c_m in _compositions(n_malicious, len(pairs)):
                counts = tuple(x + z for x, z in zip(c_l, c_m))
                if decisions[counts] != xi:
                    error += prior * weight_l * _multinomial_pmf(c_m, probs_m)
    return error


def reputation_replay_errors(trials, n: int, window: int, threshold: float,
                             sensors, gamma_ts: float) -> int:
    """Error count of the reputation rule replayed over ``(xi, y)`` trials.

    Written out from the rule's documentation: every robot keeps its last
    ``window`` marks of disagreement with the decider's own past decisions;
    a robot with at least ``threshold`` marks is left out of the next
    decision, which fuses the reports of the others; then every robot,
    left out or not, is marked by whether its report disagreed with that
    decision.
    """
    w1 = math.log((1 - sensors.p_md_l) / sensors.p_fa_l)
    w0 = math.log((1 - sensors.p_fa_l) / sensors.p_md_l)
    marks = [deque(maxlen=window) for _ in range(n)]
    errors = 0
    for xi, reports in trials:
        included = [sum(m) < threshold for m in marks]
        ones = sum(y for y, inc in zip(reports, included) if inc)
        decision = fused_decision(ones, sum(included), gamma_ts, w1, w0)
        errors += decision != xi
        for m, y in zip(marks, reports):
            m.append(1 if y != decision else 0)
    return errors


def per_trial_reputation_decide(y, sensors, gamma_ts: float, window: int,
                                threshold: float):
    """The reputation rule as one fused-rule call per trial.

    A ``window``-row ring of 0/1 marks, summed over the rows before every
    decision; row ``t % window`` holds the marks of trial ``t``. A window
    longer than the stream never wraps, so the ring has at most ``T`` rows.
    """
    y = np.asarray(y)
    marks = np.zeros((min(window, len(y)), y.shape[1]), dtype=np.int8)
    hypotheses = np.empty(len(y), dtype=np.int8)
    for t, y_t in enumerate(y):
        hypotheses[t] = decide_hypothesis(y_t, marks.sum(axis=0) < threshold, sensors,
                                          gamma_ts)
        marks[t % window] = y_t != hypotheses[t]
    return hypotheses


def per_row_aglrt_hypotheses(scenario, stream):
    """aglrt's hypotheses with one :func:`aglrt_decide` call per row."""
    xi, y, a_idx = stream
    symbols = scenario.trust.alphabet
    return np.array([
        aglrt_decide(Trial(xi=x, y=tuple(y_row), a=tuple(symbols[j] for j in a_row),
                           truth=scenario.truth),
                     scenario.trust, scenario.sensors, scenario.prior_h0,
                     scenario.prior_h1).hypothesis
        for x, y_row, a_row in zip(xi.tolist(), y.tolist(), a_idx.tolist())
    ], dtype=np.int8)


def repr_stream_digest(scenario, stream) -> str:
    """SHA-256 over ``repr((xi, y, a)).encode()`` of every row in order, with
    ``y`` and ``a`` tuples of plain Python values and ``a`` in alphabet
    symbols."""
    xi, y, a_idx = stream
    symbols = scenario.trust.alphabet
    h = hashlib.sha256()
    for x, y_row, a_row in zip(xi.tolist(), y.tolist(), a_idx.tolist()):
        h.update(repr((x, tuple(y_row), tuple(symbols[j] for j in a_row))).encode())
    return h.hexdigest()


def per_trial_reference_sample(scenario, rng) -> tuple:
    """One trial ``(xi, y, a)`` drawn robot by robot, as documented.

    The trial takes ``3n + 1`` uniforms: the event, then every robot's raw
    error, then every flip, then every score. A legitimate robot is wrong
    when its raw uniform falls below its error rate under the event; a
    malicious one when exactly one of its raw error (at the attack's raw
    rate) and its flip happens. A score is the first symbol whose running
    pmf sum exceeds its uniform, else the last symbol.
    """
    n = scenario.n
    u_xi, u_raw, u_flip, u_score = rng.random(), rng.random(n), rng.random(n), rng.random(n)
    xi = 1 if u_xi < scenario.prior_h1 else 0
    sensors, attack, trust = scenario.sensors, scenario.attack, scenario.trust
    y, a = [], []
    for i, legit in enumerate(scenario.truth):
        if legit:
            wrong = u_raw[i] < (sensors.p_md_l if xi else sensors.p_fa_l)
        else:
            wrong = ((u_raw[i] < (attack.p_md_m_raw if xi else attack.p_fa_m_raw))
                     != (u_flip[i] < attack.p_f))
        y.append(xi ^ int(wrong))
        acc = 0.0
        symbol = trust.alphabet[-1]
        for candidate, q in zip(trust.alphabet,
                                trust.pmf_legit if legit else trust.pmf_malicious):
            acc += q
            if u_score[i] < acc:
                symbol = candidate
                break
        a.append(symbol)
    return xi, tuple(y), tuple(a)

