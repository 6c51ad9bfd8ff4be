"""Built-in verification suites runnable from the command line.

Two families of checks, both usable from tests with their full-strength
parameters:

* polynomial-time GLRT decisions must agree exactly with the exponential
  brute-force oracle (decision identical, branch maxima within tolerance);
* the closed-form worst-case error of the two-stage pipeline must match a
  Monte Carlo simulation of the worst-case attack within binomial noise.
"""

from __future__ import annotations

import math

import numpy as np

from .aglrt import aglrt_decide, brute_force_glrt
from .models import LegitimateSensorModel, MaliciousStrategy, Scenario, Trial, TrustModel
from .simulator import sample_trials, substream
from .two_stage import (
    TwoStageConfig,
    classify_trust,
    decide_hypothesis,
    optimize_thresholds,
    worst_case_error,
    worst_case_malicious_count,
)

__all__ = [
    "random_trust_model",
    "random_instance",
    "oracle_equivalence",
    "closed_form_vs_monte_carlo",
    "run_selftest",
]


def random_trust_model(rng: np.random.Generator, alphabet_size: int = 0) -> TrustModel:
    """Random informative trust model with strictly positive pmfs."""
    size = alphabet_size or int(rng.integers(2, 5))
    while True:
        legit = rng.random(size) + 0.05
        malicious = rng.random(size) + 0.05
        legit = legit / legit.sum()
        malicious = malicious / malicious.sum()
        if np.max(np.abs(legit - malicious)) > 1e-3:
            return TrustModel(
                alphabet=tuple(range(size)),
                pmf_legit=tuple(float(q) for q in legit),
                pmf_malicious=tuple(float(q) for q in malicious),
            )


def random_instance(rng: np.random.Generator, n: int) -> tuple:
    """Random decision problem: (trial, trust, sensors, prior_h0, prior_h1)."""
    trust = random_trust_model(rng)
    sensors = LegitimateSensorModel(
        p_fa_l=float(rng.uniform(0.01, 0.49)),
        p_md_l=float(rng.uniform(0.01, 0.49)),
    )
    prior_h0 = float(rng.uniform(0.05, 0.95))
    y = tuple(int(b) for b in rng.integers(0, 2, size=n))
    a = tuple(int(s) for s in rng.integers(0, len(trust.alphabet), size=n))
    trial = Trial(xi=0, y=y, a=a, truth=(1,) * n)
    return trial, trust, sensors, prior_h0, 1.0 - prior_h0


def oracle_equivalence(n_values=range(1, 9), instances_per_n: int = 1000,
                       seed: int = 20426, tol: float = 1e-9) -> tuple:
    """Compare the class-space GLRT decision against brute force.

    Returns ``(ok, messages)``; a message is emitted per network size plus
    one per mismatch (decision differs, or branch maxima differ beyond
    ``tol``).
    """
    rng = np.random.default_rng(seed)
    messages = []
    ok = True
    for n in n_values:
        mismatches = 0
        worst_gap = 0.0
        for _ in range(instances_per_n):
            trial, trust, sensors, p0, p1 = random_instance(rng, n)
            fast = aglrt_decide(trial, trust, sensors, p0, p1)
            slow = brute_force_glrt(trial, trust, sensors, p0, p1)
            gap = max(
                abs(fast.diagnostics["log_num"] - slow.diagnostics["log_num"]),
                abs(fast.diagnostics["log_den"] - slow.diagnostics["log_den"]),
            )
            worst_gap = max(worst_gap, gap)
            if fast.hypothesis != slow.hypothesis or gap > tol:
                mismatches += 1
        if mismatches:
            ok = False
            messages.append(
                f"n={n}: {mismatches}/{instances_per_n} mismatches vs brute force"
            )
        else:
            messages.append(
                f"n={n}: {instances_per_n} instances agree "
                f"(max branch gap {worst_gap:.2e})"
            )
    return ok, messages


def _random_worst_case_setup(rng: np.random.Generator) -> tuple:
    """Random scenario under the worst-case attack plus its pipeline config."""
    n = int(rng.integers(2, 13))
    trust = random_trust_model(rng, alphabet_size=2)
    sensors = LegitimateSensorModel(
        p_fa_l=float(rng.uniform(0.02, 0.45)),
        p_md_l=float(rng.uniform(0.02, 0.45)),
    )
    prior_h0 = float(rng.uniform(0.2, 0.8))
    m_bar = float(rng.uniform(0.0, 0.7))
    n_mal = worst_case_malicious_count(m_bar, n)
    truth = tuple([0] * n_mal + [1] * (n - n_mal))
    scenario = Scenario(
        n=n,
        truth=truth,
        prior_h0=prior_h0,
        prior_h1=1.0 - prior_h0,
        sensors=sensors,
        attack=MaliciousStrategy(p_fa_m_raw=0.0, p_md_m_raw=0.0, p_f=1.0),
        trust=trust,
    )
    config = TwoStageConfig(m_bar=m_bar, delta_p=0.05, gamma_ts=scenario.gamma_ts)
    return scenario, config


def closed_form_vs_monte_carlo(n_configs: int = 5, trials: int = 100_000,
                               seed: int = 7071, n_sigma: float = 3.0) -> tuple:
    """Check the closed-form worst-case error against simulation.

    For each random configuration the pipeline runs at its optimized
    thresholds over ``trials`` simulated worst-case-attack trials; the
    empirical error must sit within ``n_sigma`` binomial standard deviations
    of the closed-form value.
    """
    rng = np.random.default_rng(seed)
    messages = []
    ok = True
    for idx in range(n_configs):
        scenario, config = _random_worst_case_setup(rng)
        thresholds = optimize_thresholds(
            scenario.trust, scenario.sensors, config, scenario.n,
            scenario.prior_h0, scenario.prior_h1,
        )
        predicted = worst_case_error(
            scenario.trust, scenario.sensors, config, scenario.n,
            thresholds.gamma_t, thresholds.p_t,
            scenario.prior_h0, scenario.prior_h1,
        )
        xi, y, a_idx = sample_trials(scenario, substream(seed + idx, 0), trials)
        t_hat = classify_trust(scenario.trust, thresholds.gamma_t, thresholds.p_t,
                               a_idx, substream(seed + idx, 1))
        hypotheses = decide_hypothesis(y, t_hat, scenario.sensors, config.gamma_ts)
        empirical = np.count_nonzero(hypotheses != xi) / trials
        sigma = math.sqrt(max(predicted * (1.0 - predicted), 1e-12) / trials)
        gap = abs(empirical - predicted)
        line = (
            f"config {idx}: n={scenario.n} m_bar={config.m_bar:.3f} "
            f"closed-form {predicted:.5f} empirical {empirical:.5f} "
            f"gap {gap:.5f} ({gap / sigma:.2f} sigma)"
        )
        if gap > n_sigma * sigma:
            ok = False
            line += "  <-- OUT OF TOLERANCE"
        messages.append(line)
    return ok, messages


def run_selftest(fast: bool = True) -> tuple:
    """Run both suites (reduced sizes by default) and collect a report."""
    if fast:
        eq_ok, eq_msgs = oracle_equivalence(n_values=range(1, 7), instances_per_n=200)
        mc_ok, mc_msgs = closed_form_vs_monte_carlo(n_configs=3, trials=20_000)
    else:
        eq_ok, eq_msgs = oracle_equivalence()
        mc_ok, mc_msgs = closed_form_vs_monte_carlo()
    lines = ["brute-force equivalence:"]
    lines += [f"  {m}" for m in eq_msgs]
    lines.append("closed-form vs Monte Carlo:")
    lines += [f"  {m}" for m in mc_msgs]
    return eq_ok and mc_ok, lines
