"""The count-domain referees agree with the exhaustive enumerations.

The count-domain rules in oracles.py serve as references at network sizes the
4^n and 2^n enumerations cannot reach, so they are first checked against
those enumerations on small networks with random parameters.
"""

import math

import numpy as np
import pytest

from oracles import (
    exact_exchangeable_error,
    exact_fixed_subset_error,
    exact_fixed_trust_error,
    exact_two_stage_error,
    exact_two_stage_error_by_counts,
    fused_decision,
    reputation_replay_errors,
)
from trustfusion.models import LegitimateSensorModel, TrustModel


def random_model(rng):
    ql = float(rng.uniform(0.55, 0.95))
    qm = float(rng.uniform(0.05, 0.45))
    trust = TrustModel(alphabet=(0, 1), pmf_legit=(1 - ql, ql),
                       pmf_malicious=(1 - qm, qm))
    sensors = LegitimateSensorModel(float(rng.uniform(0.05, 0.45)),
                                    float(rng.uniform(0.05, 0.45)))
    prior_h0 = float(rng.uniform(0.2, 0.8))
    return trust, sensors, prior_h0, math.log(prior_h0 / (1 - prior_h0))


def test_fixed_subset_matches_enumerations():
    rng = np.random.default_rng(2718)
    for _ in range(20):
        trust, sensors, prior_h0, gamma_ts = random_model(rng)
        n = int(rng.integers(1, 7))
        n_mal = int(rng.integers(0, n + 1))
        p_fa_m, p_md_m = (float(p) for p in rng.uniform(0.0, 1.0, 2))
        args = (sensors, gamma_ts, prior_h0, 1 - prior_h0)
        # a trust threshold below every ratio trusts everyone
        everyone = min(trust.ratios) - 1.0
        truth = tuple([0] * n_mal + [1] * (n - n_mal))
        enumerated = exact_two_stage_error(trust, sensors, gamma_ts, prior_h0,
                                           1 - prior_h0, everyone, 0.0, truth,
                                           p_fa_m, p_md_m)
        counted = exact_fixed_subset_error(*args, n - n_mal, n_mal, p_fa_m, p_md_m)
        assert counted == pytest.approx(enumerated, abs=1e-12)
        legit_only = exact_fixed_subset_error(*args, n, 0, p_fa_m, p_md_m)
        assert legit_only == pytest.approx(
            exact_fixed_trust_error(*args, (1,) * n), abs=1e-12)


def test_two_stage_by_counts_matches_enumeration():
    rng = np.random.default_rng(1414)
    for _ in range(20):
        trust, sensors, prior_h0, gamma_ts = random_model(rng)
        n = int(rng.integers(1, 7))
        n_mal = int(rng.integers(0, n + 1))
        gamma_t = trust.ratios[int(rng.integers(0, 2))]
        p_t = float(rng.choice([0.0, 0.35, 1.0]))
        p_fa_m, p_md_m = (float(p) for p in rng.uniform(0.0, 1.0, 2))
        truth = tuple([0] * n_mal + [1] * (n - n_mal))
        enumerated = exact_two_stage_error(trust, sensors, gamma_ts, prior_h0,
                                           1 - prior_h0, gamma_t, p_t, truth,
                                           p_fa_m, p_md_m)
        counted = exact_two_stage_error_by_counts(
            trust, sensors, gamma_ts, prior_h0, 1 - prior_h0, gamma_t, p_t,
            n - n_mal, n_mal, p_fa_m, p_md_m)
        assert counted == pytest.approx(enumerated, abs=1e-12)


def test_exchangeable_classes_match_enumeration():
    # a deterministic two-stage rule sees only (score, report) pairs, so the
    # class sum must reproduce the 4^n enumeration of the same rule
    rng = np.random.default_rng(1732)
    for _ in range(12):
        trust, sensors, prior_h0, gamma_ts = random_model(rng)
        n = int(rng.integers(1, 6))
        n_mal = int(rng.integers(0, n + 1))
        gamma_t = trust.ratios[int(rng.integers(0, 2))]
        p_t = float(rng.choice([0.0, 1.0]))
        p_fa_m, p_md_m = (float(p) for p in rng.uniform(0.0, 1.0, 2))
        w1 = math.log((1 - sensors.p_md_l) / sensors.p_fa_l)
        w0 = math.log((1 - sensors.p_fa_l) / sensors.p_md_l)

        def decide(a, y):
            trusted = [y_i for a_i, y_i in zip(a, y)
                       if trust.ratios[trust.symbol_index(a_i)] > gamma_t
                       or (trust.ratios[trust.symbol_index(a_i)] == gamma_t
                           and p_t == 1.0)]
            return fused_decision(sum(trusted), len(trusted), gamma_ts, w1, w0)

        truth = tuple([0] * n_mal + [1] * (n - n_mal))
        enumerated = exact_two_stage_error(trust, sensors, gamma_ts, prior_h0,
                                           1 - prior_h0, gamma_t, p_t, truth,
                                           p_fa_m, p_md_m)
        by_classes = exact_exchangeable_error(decide, trust, sensors, prior_h0,
                                              1 - prior_h0, n - n_mal, n_mal,
                                              p_fa_m, p_md_m)
        assert by_classes == pytest.approx(enumerated, abs=1e-12)


def test_reputation_replay_excludes_on_disagreement():
    # symmetric sensors, even priors: the fused rule decides 1 iff at least
    # half of the included robots report 1; window 2, threshold 1.5 means
    # two recent disagreements exclude a robot
    sensors = LegitimateSensorModel(0.15, 0.15)
    stream = [
        (0, (0, 0, 1)),  # decides 0; robot 2 disagrees
        (0, (0, 0, 1)),  # decides 0; robot 2 now excluded
        (1, (1, 0, 0)),  # robots 0, 1 tie at one each: decides 1, correct
        (1, (0, 0, 1)),  # robots 0, 1 report 0: decides 0, the only error
    ]
    assert reputation_replay_errors(stream, 3, 2, 1.5, sensors, 0.0) == 1
    # a threshold above the window never excludes: the third trial is then
    # a 1-of-3 error as well
    assert reputation_replay_errors(stream, 3, 2, 2.5, sensors, 0.0) == 2
