"""Reference deciders: semantics of the reputation window, oracle bounds."""


import pytest

import numpy as np

from oracles import per_trial_reputation_decide
from trustfusion.baselines import oblivious_decide, oracle_decide, reputation_decide
from trustfusion.models import (
    _BLOCK,
    LegitimateSensorModel,
    MaliciousStrategy,
    Scenario,
    TrustModel,
    ValidationError,
)
from trustfusion.simulator import sample_trials, substream

SENSORS = LegitimateSensorModel(0.15, 0.15)
TRUST = TrustModel(alphabet=(0, 1), pmf_legit=(0.2, 0.8), pmf_malicious=(0.8, 0.2))


def reputation(rows, window, threshold, gamma_ts=0.0):
    return reputation_decide(np.array(rows), SENSORS, gamma_ts, window,
                             threshold).tolist()


class TestOracle:
    def test_no_malicious_matches_oblivious(self):
        scenario = Scenario(truth=(1,) * 6, prior_h0=0.5, prior_h1=0.5,
                            sensors=SENSORS, attack=MaliciousStrategy(0, 0, 1),
                            trust=TRUST)
        _, y, _ = sample_trials(scenario, substream(3, 0), 200)
        assert np.array_equal(oracle_decide(y, scenario.truth, SENSORS, 0.0),
                              oblivious_decide(y, SENSORS, 0.0))

    def test_all_malicious_negative_threshold_always_event(self):
        assert oracle_decide([(0, 0, 0)], (0, 0, 0), SENSORS, -0.5).tolist() == [1]

    def test_uses_only_legitimate_reports(self):
        # malicious robots all report 1; the three legitimate zeros win
        assert oracle_decide([(1, 1, 0, 0, 0)], (0, 0, 1, 1, 1), SENSORS,
                             0.0).tolist() == [0]

    @pytest.mark.parametrize("truth", [(1,), (1, 1, 1, 1), (1,) * 6, ()])
    def test_mis_sized_truth_refused(self, truth):
        # a one-element truth would broadcast over all five robots while
        # counting one of them as trusted
        y = np.array([(1, 0, 1, 1, 0)] * 6)
        with pytest.raises(ValidationError, match="does not match"):
            oracle_decide(y, truth, SENSORS, 0.0)

    @pytest.mark.parametrize("truth", [(1, 2, 1, 1, 1), (1, 1, -1, 1, 1),
                                       (1, 1, 1, 0.5, 1)])
    def test_non_binary_truth_refused(self, truth):
        # a 2 is neither trusted nor distrusted: it would silently drop robot 1
        with pytest.raises(ValidationError, match="0 or 1"):
            oracle_decide(np.ones((3, 5), dtype=np.int8), truth, SENSORS, 0.0)


class TestOblivious:
    def test_all_positive_reports(self):
        assert oblivious_decide([(1, 1, 1)], SENSORS, 0.0).tolist() == [1]

    def test_fusion_beats_single_sensor_without_adversaries(self):
        scenario = Scenario(truth=(1,) * 9, prior_h0=0.5, prior_h1=0.5,
                            sensors=SENSORS, attack=MaliciousStrategy(0, 0, 1),
                            trust=TRUST)
        trials = 20_000
        xi, y, _ = sample_trials(scenario, substream(8, 0), trials)
        errors = np.count_nonzero(oblivious_decide(y, SENSORS, 0.0) != xi)
        single_sensor_error = 0.15
        assert errors / trials < single_sensor_error


class TestReputation:
    # SENSORS are symmetric, so with gamma_ts 0 the fused rule decides 1 iff
    # at least half of the included robots report 1 (an empty set decides 1)

    def test_first_decision_includes_everyone(self):
        for bits in range(16):
            row = [(bits >> i) & 1 for i in range(4)]
            assert reputation([row], window=5, threshold=2.5) == \
                oblivious_decide([row], SENSORS, 0.0).tolist()

    def test_window_one_excludes_last_disagreer(self):
        # robot 2 disagrees with the first decision and is left out of the
        # second, whose 1-of-2 tie then decides 1 (all three: 1 of 3 -> 0);
        # robots 1 and 2 disagree with that and robot 0 decides the third
        # alone; everyone agrees there, so all three fuse the fourth
        rows = [(1, 1, 0), (1, 0, 0), (1, 1, 1), (1, 0, 0)]
        assert reputation(rows, window=1, threshold=0.5) == [1, 1, 1, 0]

    def test_excluded_robot_keeps_accumulating(self):
        # robot 2 disagrees once, then agrees twice while excluded; after the
        # window of 2 the disagreement rolls off and its 0 decides the last
        # trial (excluded, the 1-of-2 tie of robots 0 and 1 would decide 1)
        rows = [(1, 1, 0), (1, 1, 1), (1, 1, 1), (1, 0, 0)]
        assert reputation(rows, window=2, threshold=0.5) == [1, 1, 1, 0]
        # one agreement is not enough: the disagreement is still in the window
        assert reputation(rows[:2] + rows[3:], window=2, threshold=0.5) == [1, 1, 1]
        # disagreeing again while excluded keeps it out of the last trial
        assert reputation([(1, 1, 0), (1, 1, 0), (1, 0, 0)], window=1,
                          threshold=0.5) == [1, 1, 1]

    def test_all_agreement_keeps_exclusion_empty(self):
        # nobody was ever excluded, so the last trial is 1 of 3 -> 0
        rows = [(1, 1, 1)] * 10 + [(1, 0, 0)]
        assert reputation(rows, window=5, threshold=2.5) == [1] * 10 + [0]

    def test_threshold_semantics_integer_counts(self):
        # threshold 2.5 over window 5: robot 2 keeps disagreeing; after two
        # disagreements it still decides the probe trial (1 of 3 -> 0), after
        # three it is excluded (1 of 2 -> 1)
        assert reputation([(1, 1, 0)] * 2 + [(1, 0, 0)], window=5,
                          threshold=2.5) == [1, 1, 0]
        assert reputation([(1, 1, 0)] * 3 + [(1, 0, 0)], window=5,
                          threshold=2.5) == [1, 1, 1, 1]
        # an integer threshold excludes at exactly that many marks
        assert reputation([(1, 1, 0)] * 2 + [(1, 0, 0)], window=5,
                          threshold=2.0) == [1, 1, 1]

    def test_deterministic_given_stream(self):
        scenario = Scenario(truth=(1, 1, 1, 0, 0), prior_h0=0.5, prior_h1=0.5,
                            sensors=SENSORS, attack=MaliciousStrategy(0, 0, 0.99),
                            trust=TRUST)
        runs = [reputation_decide(sample_trials(scenario, substream(99, 0), 100)[1],
                                  SENSORS, 0.0, 5, 2.5) for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])

    @pytest.mark.parametrize("seed", range(13))
    def test_equals_per_trial_rule(self, seed):
        # random streams and sensors; windows 1-9 and 16, with negative,
        # integer and fractional thresholds; a single robot, robot counts
        # around machine-word widths, the 1000-robot cap, and windows longer
        # than the stream. Windows 127-129, 255 and 256 run on a 300-row
        # stream: at 128 the count field widens from 8 to 16 bits.
        rng = np.random.default_rng(seed)
        n = ({0: 1, 8: 63, 9: 64, 10: 65, 11: 200, 12: 1000}.get(seed)
             or int(rng.integers(2, 14)))
        trials = int(rng.integers(1, 400))
        y = (rng.random((trials, n)) < rng.uniform(0.2, 0.8, n)).astype(np.int8)
        sensors = LegitimateSensorModel(float(rng.uniform(0.05, 0.45)),
                                        float(rng.uniform(0.05, 0.45)))
        gamma_ts = float(rng.normal(0.0, 1.0))
        longer = (rng.random((300, n)) < rng.uniform(0.2, 0.8, n)).astype(np.int8)
        for stream, windows in ((y, (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, trials + 3, 10**8)),
                                (longer, (127, 128, 129, 255, 256))):
            for window in windows:
                for threshold in {-1.0, 0.0, 0.5, float(window // 2), window - 0.5}:
                    assert np.array_equal(
                        reputation_decide(stream, sensors, gamma_ts, window, threshold),
                        per_trial_reputation_decide(stream, sensors, gamma_ts, window,
                                                    threshold),
                    ), (window, threshold)

    def test_long_stream_crosses_slices(self):
        rng = np.random.default_rng(11)
        y = (rng.random((2 * _BLOCK + 37, 7)) < 0.5).astype(np.int8)
        for window, threshold in ((1, 0.5), (5, 2.5), (4, 2.0)):
            assert np.array_equal(reputation_decide(y, SENSORS, 0.0, window, threshold),
                                  per_trial_reputation_decide(y, SENSORS, 0.0, window,
                                                              threshold))

    def test_huge_window_equals_one_past_the_stream(self):
        # a window longer than the stream never drops a mark, whatever its
        # length; the counters are sized from the stream, not the window
        rng = np.random.default_rng(12)
        y = (rng.random((2 * _BLOCK + 37, 9)) < 0.5).astype(np.int8)
        for threshold in (0.5, 2.5, 40.0, 1000.0):
            assert np.array_equal(
                reputation_decide(y, SENSORS, 0.0, 10**8, threshold),
                reputation_decide(y, SENSORS, 0.0, len(y) + 1, threshold),
            ), threshold

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValidationError):
            reputation_decide(np.zeros((1, 2), dtype=np.int8), SENSORS, 0.0, 3, 3.0)


class TestOracleIsLowerBound:
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5])
    def test_oracle_error_at_most_others(self, fraction):
        # paired comparison over the built-in simulation-study scenario
        from trustfusion.cli import build_config, preset_config
        from trustfusion.simulator import place_malicious, run_experiment
        from dataclasses import replace

        raw = preset_config("numerical-study")
        raw["trials"] = 10_000
        config = build_config(raw)
        n_mal = round(fraction * config.scenario.n)
        scenario = place_malicious(config.scenario, n_mal, config.seed)
        config = replace(config, scenario=scenario,
                         two_stage=replace(config.two_stage, m_bar=fraction),
                         sweep=None)
        result = run_experiment(config)
        oracle_rate = result.stats["oracle"].error_rate
        for name, stats in result.stats.items():
            assert oracle_rate <= stats.error_rate + 1e-12, name
