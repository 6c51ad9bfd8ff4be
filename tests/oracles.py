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
from itertools import product

import numpy as np

from trustfusion.aglrt import aglrt_decide, candidate_set, inner_max
from trustfusion.models import DecisionOutcome, Trial
from trustfusion.two_stage import decide_hypothesis


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

    Valid for any adversary reporting rates, not just the worst case; cost
    is 4^n so keep n small.
    """
    n = len(truth)
    w1 = math.log((1 - sensors.p_md_l) / sensors.p_fa_l)
    w0 = math.log((1 - sensors.p_fa_l) / sensors.p_md_l)
    trust_prob = [
        per_robot_trust_prob(
            trust.pmf_legit if t == 1 else trust.pmf_malicious,
            trust.ratios, gamma_t, p_t)
        for t in truth
    ]
    error = 0.0
    for xi, prior in ((0, prior_h0), (1, prior_h1)):
        p_one = [
            (sensors.p_fa_l if xi == 0 else 1 - sensors.p_md_l) if t == 1
            else (p_fa_m if xi == 0 else 1 - p_md_m)
            for t in truth
        ]
        p_wrong_decision = 0.0
        for y in product((0, 1), repeat=n):
            py = 1.0
            for yi, p1 in zip(y, p_one):
                py *= p1 if yi == 1 else 1 - p1
            if py == 0.0:
                continue
            for t_hat in product((0, 1), repeat=n):
                pt = 1.0
                for th, q in zip(t_hat, trust_prob):
                    pt *= q if th == 1 else 1 - q
                if pt == 0.0:
                    continue
                trusted = sum(t_hat)
                ones = sum(yi for yi, th in zip(y, t_hat) if th == 1)
                if fused_decision(ones, trusted, gamma_ts, w1, w0) != xi:
                    p_wrong_decision += py * pt
        error += prior * p_wrong_decision
    return error


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
    """
    n = trial.n
    if branch == 1:
        log_hit = math.log(1 - sensors.p_md_l)
        log_miss = math.log(sensors.p_md_l)
    else:
        log_hit = math.log(1 - sensors.p_fa_l)
        log_miss = math.log(sensors.p_fa_l)
    best = -math.inf
    rates = [i / grid_steps for i in range(grid_steps + 1)]
    for labels in product((0, 1), repeat=n):
        base = 0.0
        n_mal = n_wrong = 0
        for t_i, a_i, y_i in zip(labels, trial.a, trial.y):
            j = trust.symbol_index(a_i)
            if t_i == 1:
                base += trust.log_pmf_legit[j]
                base += log_hit if y_i == branch else log_miss
            else:
                base += trust.log_pmf_malicious[j]
                n_mal += 1
                n_wrong += y_i != branch
        if n_mal == 0:
            best = max(best, base)
            continue
        for rate in rates:
            if n_wrong > 0 and rate == 0.0:
                continue
            if n_mal - n_wrong > 0 and rate == 1.0:
                continue
            value = base
            if n_wrong:
                value += n_wrong * math.log(rate)
            if n_mal - n_wrong:
                value += (n_mal - n_wrong) * math.log(1 - rate)
            best = max(best, value)
    return best


def candidate_scan_branch_max(trial, trust, sensors, branch: int) -> tuple:
    """Branch maximum ``(value, rate, t_hat)`` by scanning every candidate rate.

    Evaluates the best labeling at each reduced fraction with denominator at
    most n, in ascending order, and keeps the first strict maximum, so ties
    keep the smallest rate. This is the rate-by-rate search the GLRT used
    before its count-domain kernel; O(N^3), so keep n small. It calls
    ``inner_max`` on purpose: exact equality needs the same per-robot sums.
    """
    best = (-math.inf, 0.0, None)
    for rate in candidate_set(trial.n).values:
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

