"""Two-stage pipeline: hand examples, enumeration cross-checks, properties."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    exact_fixed_trust_error,
    exact_two_stage_error,
    exact_two_stage_error_by_counts,
    per_point_mixture_error,
)
from trustfusion import two_stage
from trustfusion.cli import build_config, preset_config
from trustfusion.models import (
    _MAX_ROBOTS,
    LegitimateSensorModel,
    MaliciousStrategy,
    Scenario,
    TrustModel,
    ValidationError,
)
from trustfusion.simulator import sample_trial, substream
from trustfusion.stats import binom_cdf
from trustfusion.two_stage import (
    ThresholdChoice,
    TwoStageConfig,
    accepts_h1,
    classify_trust,
    conditional_errors,
    decide_hypothesis,
    fusion_weights,
    optimize_thresholds,
    run_two_stage,
    tie_break_grid,
    trust_probabilities,
    worst_case_error,
    worst_case_error_by_counts,
    worst_case_malicious_count,
)
from trustfusion.models import ratio_set

BINARY_TRUST = TrustModel(alphabet=(0, 1), pmf_legit=(0.2, 0.8),
                          pmf_malicious=(0.8, 0.2))
SYMMETRIC_SENSORS = LegitimateSensorModel(0.15, 0.15)
TABLE_SENSORS = LegitimateSensorModel(0.08, 0.21)


def random_binary_trust(rng):
    while True:
        ql = float(rng.uniform(0.05, 0.95))
        qm = float(rng.uniform(0.05, 0.95))
        if abs(ql - qm) > 0.02:
            return TrustModel(alphabet=(0, 1), pmf_legit=(1 - ql, ql),
                              pmf_malicious=(1 - qm, qm))


def random_trust(rng, size):
    while True:
        ql = rng.uniform(0.05, 1.0, size)
        qm = rng.uniform(0.05, 1.0, size)
        ql, qm = ql / ql.sum(), qm / qm.sum()
        if np.abs(ql - qm).max() > 0.02:
            return TrustModel(alphabet=tuple(range(size)),
                              pmf_legit=tuple(float(q) for q in ql),
                              pmf_malicious=tuple(float(q) for q in qm))


def exact_binom_sum(n, p, successes):
    """Exact Binomial(n, p) mass of ``successes``, with ``p`` taken as the
    exact value of its double."""
    p = Fraction(p)
    return sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i) for i in successes)


class TestFusionWeights:
    def test_symmetric(self):
        w1, w0 = fusion_weights(SYMMETRIC_SENSORS)
        assert w1 == pytest.approx(math.log(0.85 / 0.15))
        assert w1 == w0

    def test_asymmetric(self):
        w1, w0 = fusion_weights(TABLE_SENSORS)
        assert w1 == pytest.approx(math.log(0.79 / 0.08))
        assert w0 == pytest.approx(math.log(0.92 / 0.21))

    def test_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sensors = LegitimateSensorModel(float(rng.uniform(0.01, 0.49)),
                                            float(rng.uniform(0.01, 0.49)))
            w1, w0 = fusion_weights(sensors)
            assert w1 > 0 and w0 > 0


class TestTrustProbabilities:
    def test_between_ratios(self):
        assert trust_probabilities(BINARY_TRUST, 1.0, 0.7) == pytest.approx((0.8, 0.2))

    def test_tie_mass_is_split_exactly(self):
        # 0.8/0.2 == 4.0 exactly, so the equality branch must fire
        p_l, p_m = trust_probabilities(BINARY_TRUST, 4.0, 0.5)
        assert p_l == pytest.approx(0.4)
        assert p_m == pytest.approx(0.1)

    def test_above_max_ratio_trusts_nothing(self):
        assert trust_probabilities(BINARY_TRUST, 5.0, 0.0) == (0.0, 0.0)

    def test_threshold_from_ratio_set_ties_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            model = random_binary_trust(rng)
            for gamma_t in ratio_set(model):
                p_l0, _ = trust_probabilities(model, gamma_t, 0.0)
                p_l1, _ = trust_probabilities(model, gamma_t, 1.0)
                # tie mass of the thresholded symbol appears only at p_t=1
                assert p_l1 > p_l0


class TestConditionalErrors:
    # cell [k_l, k_m] of the (fa, md) tables for symmetric sensors

    def test_fa_threshold_already_crossed(self):
        fa, _ = conditional_errors(0, 3, 0.0, SYMMETRIC_SENSORS)
        assert fa.shape == (1, 4)
        assert fa[0, 3] == 1.0

    def test_fa_nothing_trusted_positive_threshold(self):
        fa, _ = conditional_errors(0, 0, 0.5, SYMMETRIC_SENSORS)
        assert fa[0, 0] == 0.0

    def test_fa_two_legit(self):
        fa, _ = conditional_errors(2, 0, 0.0, SYMMETRIC_SENSORS)
        assert fa[2, 0] == pytest.approx(1 - 0.85 ** 2, abs=1e-12)  # = 0.2775

    def test_md_nothing_trusted_nonpositive_threshold(self):
        _, md = conditional_errors(0, 0, 0.0, SYMMETRIC_SENSORS)
        assert md[0, 0] == 0.0

    def test_md_all_malicious_trusted(self):
        _, md = conditional_errors(0, 4, 0.0, SYMMETRIC_SENSORS)
        assert md[0, 4] == 1.0

    def test_md_two_legit(self):
        _, md = conditional_errors(2, 0, 0.0, SYMMETRIC_SENSORS)
        assert md.shape == (3, 1)
        assert md[2, 0] == pytest.approx(0.15 ** 2, abs=1e-12)  # = 0.0225

    def test_fa_far_upper_tail_is_exact(self):
        # 50 or more false alarms among 100 trusted robots at p_fa = 0.05;
        # formed as 1 - cdf this cancels to exactly 0.0
        fa, _ = conditional_errors(100, 0, 0.0, LegitimateSensorModel(0.05, 0.05))
        exact = exact_binom_sum(100, 0.05, range(50, 101))
        assert float(exact) == pytest.approx(7.2693e-38, rel=1e-4)
        assert fa[100, 0] == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n_legit,n_malicious,gamma_ts,p_fa,p_md", [
        (7, 5, 0.0, 0.15, 0.15),
        (12, 3, 0.7, 0.08, 0.21),
        (4, 9, -2.5, 0.3, 0.1),
        (30, 20, 4.0, 0.05, 0.4),
        (1, 6, 0.0, 0.2, 0.2),
        (6, 2, 1.0, 0.1, 0.3),
    ])
    def test_tables_equal_per_cell_binom_cdf(self, n_legit, n_malicious, gamma_ts,
                                             p_fa, p_md):
        # the running-sum tables must be the per-cell lower sums bit for bit,
        # also where the count leaves 0..k_l - 1 and binom_cdf's own rules apply
        sensors = LegitimateSensorModel(p_fa, p_md)
        fa, md = conditional_errors(n_legit, n_malicious, gamma_ts, sensors)
        w1, w0 = fusion_weights(sensors)
        n = n_legit + n_malicious
        expected_fa = np.empty_like(fa)
        expected_md = np.empty_like(md)
        counts = []
        for k_l in range(n_legit + 1):
            for k_m in range(n_malicious + 1):
                t = k_l + k_m
                o = next((c for c in range(n + 1)
                          if accepts_h1(c, t, gamma_ts, w1, w0)), n + 1)
                expected_fa[k_l, k_m] = binom_cdf(t - o, 1 - p_fa, k_l)
                expected_md[k_l, k_m] = binom_cdf(o - 1, 1 - p_md, k_l)
                counts += [(t - o, k_l), (o - 1, k_l)]
        assert np.array_equal(fa, expected_fa)
        assert np.array_equal(md, expected_md)
        assert any(x < 0 for x, _ in counts)
        assert any(x >= k_l > 0 for x, k_l in counts)


class TestDecideHypothesis:
    def test_two_of_three_positive(self):
        assert decide_hypothesis((1, 1, 0), (1, 1, 1), SYMMETRIC_SENSORS, 0.0) == 1

    def test_empty_trusted_set_tie(self):
        assert decide_hypothesis((1, 0), (0, 0), SYMMETRIC_SENSORS, 0.0) == 1

    def test_all_zero_reports(self):
        assert decide_hypothesis((0, 0, 0), (1, 1, 1), SYMMETRIC_SENSORS, 0.0) == 0


class TestClassifyTrust:
    # BINARY_TRUST's symbols are their own alphabet positions
    def test_above_threshold(self):
        rng = np.random.default_rng(0)
        assert classify_trust(BINARY_TRUST, 1.0, 0.0, (1,), rng).tolist() == [1]

    def test_below_threshold(self):
        rng = np.random.default_rng(0)
        assert classify_trust(BINARY_TRUST, 1.0, 0.0, (0,), rng).tolist() == [0]

    def test_tie_with_certain_acceptance(self):
        rng = np.random.default_rng(0)
        assert classify_trust(BINARY_TRUST, 4.0, 1.0, (1,), rng).tolist() == [1]

    def test_batched_ties_equal_per_row_calls(self):
        # one draw per tie in trial-then-robot order, however the rows are
        # grouped; the fused decisions agree row by row as well
        trust = TrustModel(alphabet=("lo", "mid", "hi"), pmf_legit=(0.2, 0.3, 0.5),
                           pmf_malicious=(0.5, 0.3, 0.2))
        rng = np.random.default_rng(21)
        a_idx = rng.integers(0, 3, size=(300, 7))
        y = rng.integers(0, 2, size=(300, 7))
        batched = classify_trust(trust, 1.0, 0.37, a_idx, substream(4, 1))
        tie_rng = substream(4, 1)
        rows = [classify_trust(trust, 1.0, 0.37, row, tie_rng) for row in a_idx]
        assert np.array_equal(batched, np.stack(rows))
        assert 0 < batched[a_idx == 1].mean() < 1
        assert np.array_equal(
            decide_hypothesis(y, batched, SYMMETRIC_SENSORS, 0.2),
            [decide_hypothesis(y_t, t_t, SYMMETRIC_SENSORS, 0.2)
             for y_t, t_t in zip(y, rows)])

    def test_marginal_rates_match_formula(self):
        # 1e5 draws per symbol, trust rate within 3 binomial sigmas
        rng = np.random.default_rng(123)
        draws = 100_000
        gamma_t, p_t = 4.0, 0.3
        expected_l, expected_m = trust_probabilities(BINARY_TRUST, gamma_t, p_t)
        symbol_rng = np.random.default_rng(99)
        for pmf, expected in ((BINARY_TRUST.pmf_legit, expected_l),
                              (BINARY_TRUST.pmf_malicious, expected_m)):
            a_idx = symbol_rng.choice(len(BINARY_TRUST.alphabet), size=draws, p=pmf)
            t_hat = classify_trust(BINARY_TRUST, gamma_t, p_t, a_idx, rng)
            rate = t_hat.sum() / draws
            sigma = math.sqrt(expected * (1 - expected) / draws)
            assert abs(rate - expected) <= 3 * sigma + 1e-9


class TestWorstCaseError:
    def test_matches_enumeration_at_worst_case(self):
        # closed-form binomial marginalization vs exhaustive (y, t_hat) sum
        # over 2- to 4-symbol alphabets, with no, some and only malicious robots
        rng = np.random.default_rng(17)
        for _ in range(12):
            n = int(rng.integers(1, 7))
            model = random_trust(rng, int(rng.integers(2, 5)))
            sensors = LegitimateSensorModel(float(rng.uniform(0.05, 0.45)),
                                            float(rng.uniform(0.05, 0.45)))
            prior_h0 = float(rng.uniform(0.2, 0.8))
            gamma_ts = math.log(prior_h0 / (1 - prior_h0))
            ratios = ratio_set(model)
            gamma_t = ratios[int(rng.integers(0, len(ratios)))]
            p_t = float(rng.choice([0.0, 0.3, 1.0]))
            for n_mal in sorted({0, int(rng.integers(0, n + 1)), n}):
                closed = worst_case_error_by_counts(
                    model, sensors, gamma_ts, prior_h0, 1 - prior_h0,
                    n - n_mal, n_mal, gamma_t, p_t)
                truth = tuple([0] * n_mal + [1] * (n - n_mal))
                enumerated = exact_two_stage_error(
                    model, sensors, gamma_ts, prior_h0, 1 - prior_h0,
                    gamma_t, p_t, truth, 1.0, 1.0)
                assert closed == pytest.approx(enumerated, abs=1e-10)

    def test_no_adversary_bound_equals_standard_fusion(self):
        # with a zero malicious bound and everything trusted, the closed form
        # reduces to the plain fused rule over all robots
        n = 5
        config = TwoStageConfig(m_bar=0.0, delta_p=0.01, gamma_ts=0.0)
        gamma_t = min(ratio_set(BINARY_TRUST)) - 1.0
        closed = worst_case_error(BINARY_TRUST, SYMMETRIC_SENSORS, config, n,
                                  gamma_t, 0.0, 0.5, 0.5)
        expected = exact_fixed_trust_error(SYMMETRIC_SENSORS, 0.0, 0.5, 0.5,
                                           (1,) * n)
        assert closed == pytest.approx(expected, abs=1e-12)

    def test_no_adversary_monte_carlo(self):
        # simulated error of the trust-everyone pipeline, one million trials
        n = 5
        config = TwoStageConfig(m_bar=0.0, delta_p=0.01, gamma_ts=0.0)
        gamma_t = min(ratio_set(BINARY_TRUST)) - 1.0
        closed = worst_case_error(BINARY_TRUST, SYMMETRIC_SENSORS, config, n,
                                  gamma_t, 0.0, 0.5, 0.5)
        rng = np.random.default_rng(2024)
        trials = 1_000_000
        w1, w0 = fusion_weights(SYMMETRIC_SENSORS)
        xi = rng.random(trials) < 0.5
        p_one = np.where(xi[:, None], 0.85, 0.15)
        ones = (rng.random((trials, n)) < p_one).sum(axis=1)
        decide = ones * (w0 + w1) >= 0.0 + n * w0
        errors = (decide != xi).mean()
        sigma = math.sqrt(closed * (1 - closed) / trials)
        assert abs(errors - closed) <= 3 * sigma

    def test_zero_trust_corner_error_is_prior_floor(self):
        config = TwoStageConfig(m_bar=0.5, delta_p=0.01,
                                gamma_ts=math.log(0.7 / 0.3))
        gamma_t = max(ratio_set(BINARY_TRUST)) + 1.0
        value = worst_case_error(BINARY_TRUST, SYMMETRIC_SENSORS, config, 6,
                                 gamma_t, 0.0, 0.7, 0.3)
        assert value == pytest.approx(0.3, abs=1e-12)

    def test_always_a_probability(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            model = random_binary_trust(rng)
            sensors = LegitimateSensorModel(float(rng.uniform(0.01, 0.49)),
                                            float(rng.uniform(0.01, 0.49)))
            prior_h0 = float(rng.uniform(0.05, 0.95))
            config = TwoStageConfig(m_bar=float(rng.uniform(0, 1)), delta_p=0.1,
                                    gamma_ts=math.log(prior_h0 / (1 - prior_h0)))
            value = worst_case_error(model, sensors, config, int(rng.integers(1, 15)),
                                     float(rng.uniform(0, 5)), float(rng.uniform(0, 1)),
                                     prior_h0, 1 - prior_h0)
            assert 0.0 <= value <= 1.0

    def test_nondecreasing_in_malicious_count(self):
        # informative-sensor regime; see the counterexample test below for
        # why near-uninformative sensors are excluded
        rng = np.random.default_rng(43)
        for _ in range(6):
            n = 8
            model = random_binary_trust(rng)
            sensors = LegitimateSensorModel(float(rng.uniform(0.02, 0.25)),
                                            float(rng.uniform(0.02, 0.25)))
            prior_h0 = float(rng.uniform(0.3, 0.7))
            gamma_ts = math.log(prior_h0 / (1 - prior_h0))
            gamma_t = ratio_set(model)[0]
            p_t = 0.4
            values = [
                worst_case_error_by_counts(model, sensors, gamma_ts, prior_h0,
                                           1 - prior_h0, n - k, k, gamma_t, p_t)
                for k in range(n + 1)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_monotonicity_counterexample_at_extreme_noise(self):
        # Pins a verified fact: with near-uninformative sensors the error is
        # NOT monotone in the malicious count at fixed thresholds. Replacing
        # the last (very noisy, often trusted) legitimate robot with a rarely
        # trusted malicious one lowers the error here. Both the closed form
        # and exhaustive enumeration agree on these values, so monotonicity
        # may only be relied on for informative sensors.
        model = TrustModel(alphabet=(0, 1), pmf_legit=(1 - 0.834, 0.834),
                           pmf_malicious=(1 - 0.102, 0.102))
        sensors = LegitimateSensorModel(0.405, 0.357)
        prior_h0 = 0.367
        gamma_ts = math.log(prior_h0 / (1 - prior_h0))
        gamma_t = model.ratios[0]
        n = 4
        values = [
            worst_case_error_by_counts(model, sensors, gamma_ts, prior_h0,
                                       1 - prior_h0, n - k, k, gamma_t, 0.0)
            for k in range(n + 1)
        ]
        enumerated = [
            exact_two_stage_error(model, sensors, gamma_ts, prior_h0,
                                  1 - prior_h0, gamma_t, 0.0,
                                  tuple([0] * k + [1] * (n - k)), 1.0, 1.0)
            for k in range(n + 1)
        ]
        for closed, enum in zip(values, enumerated):
            assert closed == pytest.approx(enum, abs=1e-12)
        assert values[4] < values[3] - 0.01


class TestMaliciousCount:
    def test_rounds_up(self):
        assert worst_case_malicious_count(0.5, 11) == 6
        assert worst_case_malicious_count(0.0, 10) == 0
        assert worst_case_malicious_count(1.0, 7) == 7

    def test_integral_products_stay_exact(self):
        assert worst_case_malicious_count(1 / 3, 3) == 1
        assert worst_case_malicious_count(6 / 11, 11) == 6
        assert worst_case_malicious_count(0.3, 10) == 3


class TestTwoStageConfig:
    def test_grid_step_is_bounded_below(self):
        assert TwoStageConfig(m_bar=0.5, delta_p=1e-4, gamma_ts=0.0).delta_p == 1e-4
        with pytest.raises(ValidationError, match="delta_p"):
            TwoStageConfig(m_bar=0.5, delta_p=9.9e-5, gamma_ts=0.0)


class TestTieBreakGrid:
    def test_endpoints_and_size(self):
        grid = tie_break_grid(0.01)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert len(grid) == 101

    def test_refinement_nests_exactly(self):
        coarse = set(tie_break_grid(0.2))
        for step in (0.1, 0.05, 0.01):
            fine = set(tie_break_grid(step))
            assert coarse <= fine
            coarse = fine


class TestOptimizeThresholds:
    def test_returns_grid_minimum(self):
        config = TwoStageConfig(m_bar=0.4, delta_p=0.2, gamma_ts=0.0)
        choice = optimize_thresholds(BINARY_TRUST, SYMMETRIC_SENSORS, config, 6,
                                     0.5, 0.5)
        scan = min(
            worst_case_error(BINARY_TRUST, SYMMETRIC_SENSORS, config, 6, g, p,
                             0.5, 0.5)
            for g in ratio_set(BINARY_TRUST)
            for p in tie_break_grid(0.2)
        )
        assert choice.worst_case_pe == scan

    def test_noninformative_trust_drives_to_prior_floor(self):
        # nearly useless scores and a malicious majority: ignoring everyone
        # (error = smaller prior) is the best achievable bound
        model = TrustModel(alphabet=(0, 1), pmf_legit=(0.49, 0.51),
                           pmf_malicious=(0.51, 0.49))
        config = TwoStageConfig(m_bar=0.8, delta_p=0.05,
                                gamma_ts=math.log(0.6 / 0.4))
        choice = optimize_thresholds(model, SYMMETRIC_SENSORS, config, 10, 0.6, 0.4)
        corner = worst_case_error(model, SYMMETRIC_SENSORS, config, 10,
                                  max(ratio_set(model)) + 1, 0.0, 0.6, 0.4)
        assert corner == pytest.approx(0.4, abs=1e-12)
        assert choice.worst_case_pe <= corner + 1e-15

    def test_zero_bound_recovers_standard_fusion(self):
        config = TwoStageConfig(m_bar=0.0, delta_p=0.1, gamma_ts=0.0)
        choice = optimize_thresholds(BINARY_TRUST, SYMMETRIC_SENSORS, config, 5,
                                     0.5, 0.5)
        expected = exact_fixed_trust_error(SYMMETRIC_SENSORS, 0.0, 0.5, 0.5,
                                           (1,) * 5)
        assert choice.worst_case_pe == pytest.approx(expected, abs=1e-12)

    def test_robot_count_capped_before_allocating(self):
        config = TwoStageConfig(m_bar=0.4, delta_p=0.1, gamma_ts=0.0)
        with pytest.raises(ValidationError, match="at most"):
            optimize_thresholds(BINARY_TRUST, SYMMETRIC_SENSORS, config,
                                _MAX_ROBOTS + 1, 0.5, 0.5)
        with pytest.raises(ValidationError, match="at most"):
            worst_case_error_by_counts(BINARY_TRUST, SYMMETRIC_SENSORS, 0.0, 0.5, 0.5,
                                       _MAX_ROBOTS, 1, 0.25, 0.5)

    def test_choice_minimizes_count_referee(self):
        # the count-domain oracle, evaluated at every grid point, is never
        # lower than at the chosen point (and agrees with the certified bound)
        rng = np.random.default_rng(61)
        for _ in range(12):
            model = random_trust(rng, int(rng.integers(2, 5)))
            sensors = LegitimateSensorModel(float(rng.uniform(0.05, 0.45)),
                                            float(rng.uniform(0.05, 0.45)))
            prior_h0 = float(rng.uniform(0.2, 0.8))
            gamma_ts = math.log(prior_h0 / (1 - prior_h0))
            n = int(rng.integers(1, 9))
            m_bar = float(rng.choice([0.0, float(rng.uniform(0, 1)), 1.0]))
            n_mal = worst_case_malicious_count(m_bar, n)
            config = TwoStageConfig(m_bar=m_bar, delta_p=0.1, gamma_ts=gamma_ts)
            choice = optimize_thresholds(model, sensors, config, n, prior_h0, 1 - prior_h0)

            def referee(gamma_t, p_t):
                return exact_two_stage_error_by_counts(
                    model, sensors, gamma_ts, prior_h0, 1 - prior_h0,
                    gamma_t, p_t, n - n_mal, n_mal, 1.0, 1.0)

            best = min(referee(g, p) for g in ratio_set(model) for p in tie_break_grid(0.1))
            chosen = referee(choice.gamma_t, choice.p_t)
            assert chosen == pytest.approx(best, abs=1e-12)
            assert choice.worst_case_pe == pytest.approx(chosen, abs=1e-12)

    def test_preset_choices_are_pinned(self):
        pinned = {
            "numerical-study": ([(0.25, 1.0), (0.25, 0.82)] + [(0.25, 0.0)] * 6
                                + [(4.0, 0.0)] * 3),
            "hardware-replica": [(0.1985798531712601, 0.0)],
        }
        for preset, expected in pinned.items():
            config = build_config(preset_config(preset))
            sc = config.scenario
            chosen = [
                optimize_thresholds(sc.trust, sc.sensors, replace(config.two_stage, m_bar=m),
                                    sc.n, sc.prior_h0, sc.prior_h1)
                for m in config.sweep or (config.two_stage.m_bar,)
            ]
            assert [(c.gamma_t, c.p_t) for c in chosen] == expected, preset

    def test_trust_everyone_bound_is_exact_at_n40(self):
        # no malicious bound at N=40: everyone is trusted and the bound is the
        # plain fused error, >= 20 false alarms or <= 19 detections of 40
        config = TwoStageConfig(m_bar=0.0, delta_p=0.01, gamma_ts=0.0)
        choice = optimize_thresholds(BINARY_TRUST, SYMMETRIC_SENSORS, config, 40,
                                     0.5, 0.5)
        exact = (exact_binom_sum(40, 0.15, range(20, 41))
                 + exact_binom_sum(40, 1 - Fraction(0.15), range(20))) / 2
        assert (choice.gamma_t, choice.p_t) == (0.25, 1.0)
        assert float(exact) == 1.239592259455071e-07
        assert choice.worst_case_pe == pytest.approx(float(exact), rel=1e-12, abs=0.0)

    def test_grid_refinement_never_hurts(self):
        config_for = lambda dp: TwoStageConfig(m_bar=0.5, delta_p=dp,
                                               gamma_ts=math.log(0.55 / 0.45))
        values = [
            optimize_thresholds(BINARY_TRUST, TABLE_SENSORS, config_for(dp), 9,
                                0.55, 0.45).worst_case_pe
            for dp in (0.2, 0.1, 0.05, 0.01)
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))


def scan_instance(model, sensors, n, m_bar, prior_h0):
    """The worst-case cost table of one scan and its fusion threshold, the
    log prior ratio."""
    gamma_ts = math.log(prior_h0 / (1 - prior_h0))
    n_mal = worst_case_malicious_count(m_bar, n)
    fa, md = conditional_errors(n - n_mal, n_mal, gamma_ts, sensors)
    return prior_h0 * fa + (1 - prior_h0) * md, gamma_ts


class TestMixtureErrors:
    """The batched scan against the per-point referee, and its independence
    of the batch and block a point is computed in."""

    def _check_against_referee(self, model, sensors, n, m_bar, prior_h0, delta_p):
        cost, gamma_ts = scan_instance(model, sensors, n, m_bar, prior_h0)
        ratios = ratio_set(model)
        grid = tie_break_grid(delta_p)
        # thresholds below and above every ratio trust everyone / no one
        thresholds = [min(ratios) - 1.0, *ratios, max(ratios) + 1.0]
        points = [(g, p) for g in thresholds for p in grid]
        batched = two_stage._mixture_errors(model, cost, points)
        for (g, p), value in zip(points, batched):
            expected = per_point_mixture_error(model, cost, g, p)
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-300), (n, g, p)
        # the scan keeps the referee's first strict minimum over the grid
        scan = [(g, p) for g in ratios for p in grid]
        referee = [per_point_mixture_error(model, cost, g, p) for g, p in scan]
        config = TwoStageConfig(m_bar=m_bar, delta_p=delta_p, gamma_ts=gamma_ts)
        choice = optimize_thresholds(model, sensors, config, n, prior_h0, 1 - prior_h0)
        assert (choice.gamma_t, choice.p_t) == scan[referee.index(min(referee))]

    def test_every_point_matches_per_point_referee(self):
        rng = np.random.default_rng(1313)
        trust_all = 0
        for _ in range(30):
            model = random_trust(rng, int(rng.integers(2, 5)))
            sensors = LegitimateSensorModel(float(rng.uniform(0.05, 0.45)),
                                            float(rng.uniform(0.05, 0.45)))
            m_bar = float(rng.choice([0.0, float(rng.uniform(0, 1)), 1.0]))
            self._check_against_referee(model, sensors, int(rng.integers(1, 61)), m_bar,
                                        float(rng.uniform(0.2, 0.8)), 0.1)
            trust_all += trust_probabilities(model, min(model.ratios) - 1.0, 0.0) == (1.0, 1.0)
        # the exact one-hot rows of p = 1 are exercised, not only p = 0's
        assert trust_all

    def test_largest_network_matches_per_point_referee(self):
        rng = np.random.default_rng(1000)
        # a malicious majority keeps conditional_errors' O(n_legit^2) tails cheap
        self._check_against_referee(random_trust(rng, 3), TABLE_SENSORS, _MAX_ROBOTS,
                                    0.8, 0.55, 0.5)

    @pytest.mark.parametrize("n, m_bar, blocks", [(40, 0.5, "several"),
                                                  (300, 0.8, "one per point"),
                                                  (9, 1.0, "one")])
    def test_value_is_independent_of_batch_and_block(self, n, m_bar, blocks):
        cost, gamma_ts = scan_instance(BINARY_TRUST, TABLE_SENSORS, n, m_bar, 0.55)
        fine = [(g, p) for g in ratio_set(BINARY_TRUST) for p in tie_break_grid(0.01)]
        coarse = [(g, p) for g in ratio_set(BINARY_TRUST) for p in tie_break_grid(0.1)]
        cells = len(fine) * cost.size
        assert {"several": cost.size < two_stage._BLOCK_CELLS < cells,
                "one per point": two_stage._BLOCK_CELLS < cost.size,
                "one": cells <= two_stage._BLOCK_CELLS}[blocks]
        by_point = dict(zip(fine, two_stage._mixture_errors(BINARY_TRUST, cost, fine)))
        reversed_order = two_stage._mixture_errors(BINARY_TRUST, cost, fine[::-1])
        assert reversed_order == [by_point[point] for point in fine[::-1]]
        coarse_values = two_stage._mixture_errors(BINARY_TRUST, cost, coarse)
        assert coarse_values == [by_point[point] for point in coarse]
        for point in fine:
            assert two_stage._mixture_errors(BINARY_TRUST, cost, [point]) == [by_point[point]]
        # the public one-point evaluation goes through the same helper
        n_mal = worst_case_malicious_count(m_bar, n)
        for g, p in coarse:
            alone = worst_case_error_by_counts(BINARY_TRUST, TABLE_SENSORS, gamma_ts, 0.55,
                                               1 - 0.55, n - n_mal, n_mal, g, p)
            assert alone == by_point[g, p]


class TestRunTwoStage:
    def _scenario(self, truth, trust=BINARY_TRUST):
        return Scenario(
            n=len(truth), truth=truth, prior_h0=0.5, prior_h1=0.5,
            sensors=SYMMETRIC_SENSORS,
            attack=MaliciousStrategy(0.0, 0.0, 1.0),
            trust=trust,
        )

    def test_deterministic_given_seed(self):
        scenario = self._scenario((1, 0, 1, 1, 0))
        config = TwoStageConfig(m_bar=0.4, delta_p=0.1, gamma_ts=0.0)
        thresholds = optimize_thresholds(scenario.trust, scenario.sensors,
                                         config, scenario.n, 0.5, 0.5)
        outcomes = []
        for _ in range(2):
            trial_rng = substream(77, 0)
            tie_rng = substream(77, 1)
            run = []
            for _ in range(200):
                trial = sample_trial(scenario, trial_rng)
                out = run_two_stage(trial, thresholds, scenario.trust,
                                    scenario.sensors, 0.0, tie_rng)
                run.append((out.hypothesis, out.t_hat))
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]

    def test_no_adversary_bound_matches_oblivious_decisions(self):
        # a zero malicious bound makes the optimizer trust everyone, so the
        # pipeline must reproduce the all-robot fused decision trial by trial
        from trustfusion.baselines import oblivious_decide

        scenario = self._scenario((1,) * 6)
        config = TwoStageConfig(m_bar=0.0, delta_p=0.1, gamma_ts=0.0)
        thresholds = optimize_thresholds(scenario.trust, scenario.sensors,
                                         config, scenario.n, 0.5, 0.5)
        trial_rng = substream(5, 0)
        tie_rng = substream(5, 1)
        for _ in range(300):
            trial = sample_trial(scenario, trial_rng)
            ours = run_two_stage(trial, thresholds, scenario.trust,
                                 scenario.sensors, 0.0, tie_rng)
            reference = oblivious_decide([trial.y], scenario.sensors, 0.0)
            assert [ours.hypothesis] == reference.tolist()
            assert ours.t_hat == (1,) * scenario.n

    def test_near_perfect_scores_recover_oracle_decisions(self):
        # with almost noiseless trust scores and the true malicious fraction
        # as the bound, the pipeline classifies exactly and must reproduce
        # the clairvoyant decision on every exactly-classified trial
        from trustfusion.baselines import oracle_decide

        sharp = TrustModel(alphabet=(0, 1), pmf_legit=(0.001, 0.999),
                           pmf_malicious=(0.999, 0.001))
        scenario = self._scenario((1, 1, 1, 0, 0), trust=sharp)
        config = TwoStageConfig(m_bar=0.4, delta_p=0.1, gamma_ts=0.0)
        thresholds = optimize_thresholds(sharp, scenario.sensors, config,
                                         scenario.n, 0.5, 0.5)
        trial_rng = substream(13, 0)
        tie_rng = substream(13, 1)
        exact = 0
        trials = 500
        for _ in range(trials):
            trial = sample_trial(scenario, trial_rng)
            ours = run_two_stage(trial, thresholds, sharp, scenario.sensors,
                                 0.0, tie_rng)
            if ours.t_hat == trial.truth:
                exact += 1
                reference = oracle_decide([trial.y], trial.truth, scenario.sensors, 0.0)
                assert [ours.hypothesis] == reference.tolist()
        assert exact >= 0.98 * trials

    def test_outcome_carries_diagnostics(self):
        scenario = self._scenario((1, 0, 1))
        thresholds = ThresholdChoice(gamma_t=1.0, p_t=0.0, worst_case_pe=0.5)
        trial = sample_trial(scenario, substream(1, 0))
        out = run_two_stage(trial, thresholds, scenario.trust, scenario.sensors,
                            0.0, substream(1, 1))
        assert "s_n" in out.diagnostics and "trusted" in out.diagnostics

    def test_one_row_equals_classify_then_decide(self):
        # scores tie gamma_t with p_t strictly inside (0, 1), so the tie
        # generator is drawn from; symmetric sensors and gamma_ts = 0 make
        # equal counts a fusion tie
        trust = TrustModel(alphabet=("lo", "mid", "hi"), pmf_legit=(0.2, 0.3, 0.5),
                           pmf_malicious=(0.5, 0.3, 0.2))
        gamma_t = trust.ratios[1]
        for sensors, gamma_ts in ((SYMMETRIC_SENSORS, 0.0), (TABLE_SENSORS, 0.4)):
            scenario = replace(self._scenario((1, 0, 1, 1, 0, 0, 1), trust=trust),
                               sensors=sensors)
            w1, w0 = fusion_weights(sensors)
            trial_rng = substream(31, 0)
            tie_rng = substream(31, 1)
            draws = 0
            for p_t in (0.37, 0.5, 0.91):
                thresholds = ThresholdChoice(gamma_t=gamma_t, p_t=p_t, worst_case_pe=0.5)
                for _ in range(100):
                    trial = sample_trial(scenario, trial_rng)
                    ref_rng = np.random.default_rng()
                    ref_rng.bit_generator.state = tie_rng.bit_generator.state
                    out = run_two_stage(trial, thresholds, trust, sensors, gamma_ts,
                                        tie_rng)
                    a_idx = [trust.symbol_index(a) for a in trial.a]
                    t_hat = classify_trust(trust, gamma_t, p_t, a_idx, ref_rng)
                    hypothesis = decide_hypothesis(trial.y, t_hat, sensors, gamma_ts)
                    ones = int(np.sum(np.array(trial.y)[t_hat == 1]))
                    trusted = int(t_hat.sum())
                    assert out.hypothesis == int(hypothesis)
                    assert out.t_hat == tuple(t_hat.tolist())
                    assert out.diagnostics["s_n"] == ones * (w0 + w1) - trusted * w0
                    assert out.diagnostics["trusted"] == float(trusted)
                    assert tie_rng.bit_generator.state == ref_rng.bit_generator.state
                    draws += trial.a.count("mid")
            assert draws > 0
