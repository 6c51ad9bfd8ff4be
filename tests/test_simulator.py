"""Trial generation statistics, stream pairing, reproducibility, sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest

import trustfusion.aglrt as aglrt
from oracles import (
    per_row_aglrt_hypotheses,
    per_trial_reference_sample,
    repr_stream_digest,
)
from trustfusion.cli import build_config, preset_config
from trustfusion.models import (
    LegitimateSensorModel,
    MaliciousStrategy,
    Scenario,
    TrustModel,
    ValidationError,
    effective_malicious_probs,
    log_prior_ratio,
)
from trustfusion.simulator import (
    _BLOCK,
    ExperimentConfig,
    _decide,
    _stream_digest,
    parse_method,
    place_malicious,
    run_experiment,
    sample_trial,
    sample_trials,
    substream,
    sweep_malicious_fraction,
)
from trustfusion.two_stage import TwoStageConfig

TRUST = TrustModel(alphabet=(0, 1), pmf_legit=(0.2, 0.8), pmf_malicious=(0.8, 0.2))


def make_scenario(truth, p_f=0.99, raw=0.0, prior_h1=0.5):
    return Scenario(
        n=len(truth), truth=tuple(truth), prior_h0=1 - prior_h1, prior_h1=prior_h1,
        sensors=LegitimateSensorModel(0.15, 0.15),
        attack=MaliciousStrategy(raw, raw, p_f),
        trust=TRUST,
    )


def make_config(scenario, methods=("oracle",), trials=100, seed=7, sweep=None,
                m_bar=0.0):
    return ExperimentConfig(
        scenario=scenario,
        two_stage=TwoStageConfig(m_bar=m_bar, delta_p=0.05,
                                 gamma_ts=scenario.gamma_ts),
        trials=trials, seed=seed, methods=tuple(methods), sweep=sweep,
    )


class TestSampleTrial:
    def test_lengths_and_types(self):
        scenario = make_scenario((1, 0, 1))
        trial = sample_trial(scenario, substream(1, 0))
        assert trial.n == 3
        assert trial.truth == scenario.truth
        assert all(b in (0, 1) for b in trial.y)
        assert all(s in TRUST.alphabet for s in trial.a)

    def test_flipless_malicious_matches_legit_statistics(self):
        # raw rates equal to the legitimate ones and no flipping: measurement
        # marginals must coincide within binomial noise
        scenario = make_scenario((1, 0), p_f=0.0, raw=0.15)
        xi, y, _ = sample_trials(scenario, substream(2, 0), 100_000)
        h1 = np.count_nonzero(xi)
        ones = y[xi == 1].sum(axis=0)
        for robot in range(2):
            rate = ones[robot] / h1
            sigma = math.sqrt(0.85 * 0.15 / h1)
            assert abs(rate - 0.85) <= 3 * sigma

    def test_malicious_marginal_matches_effective_probs(self):
        scenario = make_scenario((1, 0), p_f=0.8, raw=0.1)
        p_fa_m, p_md_m = effective_malicious_probs(scenario.attack)
        xi, y, _ = sample_trials(scenario, substream(3, 0), 100_000)
        # xi -> [n_trials, ones of robot 1]
        count = {h: [np.count_nonzero(xi == h), y[xi == h, 1].sum()] for h in (0, 1)}
        rate_fa = count[0][1] / count[0][0]
        sigma = math.sqrt(p_fa_m * (1 - p_fa_m) / count[0][0])
        assert abs(rate_fa - p_fa_m) <= 3 * sigma
        rate_one_h1 = count[1][1] / count[1][0]
        sigma = math.sqrt(p_md_m * (1 - p_md_m) / count[1][0])
        assert abs((1 - rate_one_h1) - p_md_m) <= 3 * sigma

    def test_score_marginals_match_pmf(self):
        scenario = make_scenario((1, 0))
        draws = 100_000
        _, _, a_idx = sample_trials(scenario, substream(4, 0), draws)
        ones = np.asarray(TRUST.alphabet)[a_idx].sum(axis=0)
        for robot, expected in ((0, 0.8), (1, 0.2)):
            sigma = math.sqrt(expected * (1 - expected) / draws)
            assert abs(ones[robot] / draws - expected) <= 3 * sigma

    def test_scores_independent_of_measurements(self):
        scenario = make_scenario((1, 1))
        draws = 100_000
        _, y, a_idx = sample_trials(scenario, substream(5, 0), draws)
        corr = np.corrcoef(y[:, 0], np.asarray(TRUST.alphabet)[a_idx[:, 0]])[0, 1]
        assert abs(corr) <= 3 / math.sqrt(draws)


class _NearOne:
    """Generator stand-in whose uniforms all lie in the top 1e-9 of [0, 1]."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size=None):
        return 1.0 - self._rng.random(size) * 1e-9


class TestSampleTrials:
    # scores from a three-symbol string alphabet, a float alphabet and, at
    # near-one uniforms, pmfs whose running sums end below 1 (the `last`
    # clamp) and one ulp above it
    CASES = {
        "strings": (TrustModel(alphabet=("lo", "mid", "hi"), pmf_legit=(0.2, 0.3, 0.5),
                               pmf_malicious=(0.6, 0.3, 0.1)), (1, 0, 1, 1, 0), False),
        "floats-n1": (TrustModel(alphabet=(0.5, 2.0), pmf_legit=(0.3, 0.7),
                                 pmf_malicious=(0.7, 0.3)), (0,), False),
        "short-pmf": (TrustModel(alphabet=("a", "b", "c"),
                                 pmf_legit=(0.5, 0.3, 0.2 - 5e-10),
                                 pmf_malicious=(0.2, 0.3, 0.5 - 5e-10)), (1, 0, 0), True),
        "one-ulp-over": (TrustModel(alphabet=("lo", "mid", "hi"),
                                    pmf_legit=(0.2, 0.3, 0.5000000000000002),
                                    pmf_malicious=(0.5, 0.3, 0.2000000000000001)),
                         (1, 0, 1, 0), True),
    }

    @classmethod
    def _scenario(cls, name):
        trust, truth, _ = cls.CASES[name]
        return replace(make_scenario(truth, p_f=0.7, raw=0.2, prior_h1=0.4), trust=trust)

    def _rng(self, name, seed):
        near_one = self.CASES[name][2]
        return _NearOne(seed) if near_one else substream(seed, 0)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rows_equal_stacked_single_draws(self, name):
        # more trials than one generator block holds, and not a multiple
        scenario = self._scenario(name)
        count = 2 * _BLOCK + 37
        xi, y, a_idx = sample_trials(scenario, self._rng(name, 9), count)
        assert xi.dtype == y.dtype == np.int8 and y.shape == a_idx.shape == (count,
                                                                            scenario.n)
        twin = self._rng(name, 9)
        stacked = [sample_trial(scenario, twin) for _ in range(count)]
        symbols = scenario.trust.alphabet
        assert xi.tolist() == [t.xi for t in stacked]
        assert [tuple(r) for r in y.tolist()] == [t.y for t in stacked]
        assert [tuple(symbols[j] for j in r) for r in a_idx.tolist()] == \
            [t.a for t in stacked]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_draws_follow_the_per_robot_reference(self, name):
        scenario = self._scenario(name)
        rng, ref_rng = self._rng(name, 3), self._rng(name, 3)
        xi, y, a_idx = sample_trials(scenario, rng, 300)
        expected = [per_trial_reference_sample(scenario, ref_rng) for _ in range(300)]
        symbols = scenario.trust.alphabet
        rows = [(x, tuple(y_r), tuple(symbols[j] for j in a_r))
                for x, y_r, a_r in zip(xi.tolist(), y.tolist(), a_idx.tolist())]
        assert rows == expected
        # the two generators stay aligned
        assert rng.random() == ref_rng.random()


class TestSamplerMemo:
    """The sampler's memoised arrays leave every draw as it was."""

    @staticmethod
    def _scenario(name):
        if name == "one-ulp-over":
            return TestSampleTrials._scenario(name)
        if name == "replica":
            raw = preset_config("hardware-replica")
        else:
            raw = preset_config("numerical-study")
            del raw["sweep"]
            raw.update(n=48, n_malicious=29, m_bar=0.6)
        return build_config(raw).scenario

    @pytest.mark.parametrize("name", ["replica", "live-n48"])
    def test_one_row_draws_equal_block_draws(self, name):
        scenario = self._scenario(name)
        symbols = scenario.trust.alphabet
        xi, y, a_idx = sample_trials(scenario, substream(6, 0), 1)
        trial = sample_trial(scenario, substream(6, 0))
        assert (trial.xi, trial.y, trial.a) == (
            int(xi[0]), tuple(y[0].tolist()), tuple(symbols[j] for j in a_idx[0].tolist()))
        one_rows, block_rng = substream(8, 0), substream(8, 0)
        stacked = [sample_trials(scenario, one_rows, 1) for _ in range(50)]
        block = sample_trials(scenario, block_rng, 50)
        for part, rows in zip(block, zip(*stacked)):
            assert np.array_equal(part, np.concatenate(rows))
        assert one_rows.random() == block_rng.random()

    @pytest.mark.parametrize("name", ["replica", "live-n48", "one-ulp-over"])
    def test_memoised_arrays_are_read_only(self, name):
        scenario = self._scenario(name)
        cum_legit, cum_malicious = scenario.trust.cumulative_pmfs
        assert np.array_equal(cum_legit, np.cumsum(scenario.trust.pmf_legit))
        assert np.array_equal(cum_malicious, np.cumsum(scenario.trust.pmf_malicious))
        assert scenario.legit_mask.tolist() == [bool(t) for t in scenario.truth]
        if name == "one-ulp-over":
            assert cum_legit[-1] == cum_malicious[-1] == 1.0 + 2.0**-52
        for array in (cum_legit, cum_malicious, scenario.legit_mask):
            with pytest.raises(ValueError):
                array[0] = 0


class TestStreamDigest:
    """The padded byte-template digest equals the ``repr`` walk it replaces."""

    ALPHABETS = {
        "bits": (0, 1),
        "ints": (-3, 10, 200),
        "floats": (0.25, 1e-07),
        "strings": ("L", "MID", "it's", "\u00e9"),
        # alphabet positions up to 249, held in a uint8 a_idx
        "250-symbols": tuple(range(-125, 125)),
        # symbol widths 1 to 42 bytes, and U+00FF encodes as C3 BF, next to
        # the 0xFF pad; at n = 40 a row is ~1.9 kB, so 127 rows span
        # several chunks
        "mixed-widths": (0, "\u00ff", "x" * 40, 1e-300),
    }

    @pytest.mark.parametrize("count", [1, 127, 2 * _BLOCK + 37])
    @pytest.mark.parametrize("n", [1, 2, 40])
    @pytest.mark.parametrize("name", sorted(ALPHABETS))
    def test_equals_repr_walk(self, name, n, count):
        alphabet = self.ALPHABETS[name]
        size = len(alphabet)
        ramp = np.arange(1, size + 1)
        trust = TrustModel(alphabet=alphabet, pmf_legit=(1 / size,) * size,
                           pmf_malicious=tuple(ramp / ramp.sum()))
        truth = tuple(int(i % 3 > 0) for i in range(n))
        scenario = replace(make_scenario(truth, p_f=0.7, raw=0.2), trust=trust)
        stream = sample_trials(scenario, substream(count, n), count)
        stream[2][-1] = size - 1
        assert _stream_digest(scenario, stream) == repr_stream_digest(scenario, stream)


def _tie_band_rows(scenario, stream) -> np.ndarray:
    """Mask of the rows whose aglrt log-likelihood ratio lies within the tie
    band of the prior threshold."""
    constants = aglrt._code_constants(scenario.trust, scenario.sensors)
    threshold = log_prior_ratio(scenario.prior_h0, scenario.prior_h1)
    vectors, inverse = np.unique(_count_vectors(scenario, stream), axis=0,
                                 return_inverse=True)
    ties = []
    for counts in vectors.tolist():
        den, num = aglrt._class_maxima(counts, constants)
        ties.append(abs(num[0] - den[0] - threshold)
                    <= 1e-9 * (1.0 + abs(num[0]) + abs(den[0])))
    return np.array(ties)[inverse.ravel()]


def _count_vectors(scenario, stream) -> np.ndarray:
    """``(T, 2|A|)`` per-code robot counts of every row."""
    _, y, a_idx = stream
    codes = 2 * a_idx.astype(np.intp) + y
    return np.stack([np.count_nonzero(codes == c, axis=1)
                     for c in range(2 * len(scenario.trust.alphabet))], axis=1)


class TestAglrtCountClasses:
    """``_decide("aglrt", ...)`` decides each distinct count vector once, and
    equals one call per row."""

    def _check(self, scenario, count, seed, monkeypatch):
        stream = sample_trials(scenario, substream(seed, 0), count)
        calls = []
        core = aglrt._class_maxima
        with monkeypatch.context() as patch:
            patch.setattr(aglrt, "_class_maxima",
                          lambda counts, constants: (calls.append(tuple(counts))
                                                     or core(counts, constants)))
            hypotheses = _decide("aglrt", make_config(scenario, ("aglrt",), trials=count),
                                 0, stream)
        assert hypotheses.dtype == np.int8
        assert np.array_equal(hypotheses, per_row_aglrt_hypotheses(scenario, stream))
        vectors = {tuple(v) for v in _count_vectors(scenario, stream).tolist()}
        assert sorted(calls) == sorted(vectors)
        return stream, hypotheses, len(calls)

    def test_tie_classes_decided_null_once(self, monkeypatch):
        # symmetric sensors, mirrored binary trust and even priors: many count
        # vectors sit exactly on the threshold, and classes span three slices
        scenario = make_scenario((1, 0, 1, 1, 0, 1, 0, 1, 1, 0), p_f=0.5, raw=0.15)
        stream, hypotheses, _ = self._check(scenario, 2 * _BLOCK + 37, 5, monkeypatch)
        ties = _tie_band_rows(scenario, stream)
        assert ties.any()
        assert not hypotheses[ties].any()

    @pytest.mark.parametrize("seed", range(6))
    def test_random_alphabets(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 5))
        alphabet = (tuple("abcd"[:size]) if seed % 2
                    else tuple(float(v) for v in rng.permutation(10)[:size]))
        trust = TrustModel(alphabet=alphabet,
                           pmf_legit=tuple(rng.dirichlet(np.ones(size))),
                           pmf_malicious=tuple(rng.dirichlet(np.ones(size))))
        n = int(rng.integers(1, 9)) if seed else 1
        truth = tuple(int(v) for v in rng.integers(0, 2, n))
        scenario = replace(make_scenario(truth, p_f=float(rng.uniform(0.5, 1.0)),
                                         raw=float(rng.uniform(0.0, 0.3)),
                                         prior_h1=float(rng.uniform(0.2, 0.8))),
                           trust=trust)
        self._check(scenario, 2 * _BLOCK + 37, seed, monkeypatch)

    def test_single_robot(self, monkeypatch):
        scenario = make_scenario((0,), prior_h1=0.3)
        _, _, calls = self._check(scenario, 500, 2, monkeypatch)
        assert calls == 4


class TestRunExperiment:
    def test_oracle_equals_oblivious_without_malicious(self):
        scenario = make_scenario((1,) * 5)
        result = run_experiment(make_config(scenario, ("oracle", "oblivious"),
                                            trials=500))
        assert result.stats["oracle"] == result.stats["oblivious"]

    def test_counting_identity(self):
        scenario = make_scenario((1, 1, 0, 0, 1))
        result = run_experiment(make_config(scenario, ("2sa", "aglrt", "oracle"),
                                            trials=400, m_bar=0.4))
        for stats in result.stats.values():
            assert stats.errors == stats.fa_count + stats.md_count
            assert stats.n_h0 + stats.n_h1 == stats.trials
            weighted = (stats.fa_rate * stats.n_h0 + stats.md_rate * stats.n_h1)
            assert weighted == pytest.approx(stats.errors)

    def test_seed_reproducibility(self):
        scenario = make_scenario((1, 0, 1))
        config = make_config(scenario, ("2sa", "oracle"), trials=300, m_bar=0.4)
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.stream_digest == b.stream_digest
        assert a.stats == b.stats

    def test_method_subsets_share_the_stream(self):
        scenario = make_scenario((1, 0, 1))
        full = run_experiment(make_config(scenario, ("oracle", "oblivious"),
                                          trials=200))
        only = run_experiment(make_config(scenario, ("oblivious",), trials=200))
        assert full.stream_digest == only.stream_digest
        assert full.stats["oblivious"] == only.stats["oblivious"]

    def test_different_points_use_different_streams(self):
        scenario = make_scenario((1, 0, 1))
        config = make_config(scenario, ("oracle",), trials=50)
        assert (run_experiment(config, point_index=0).stream_digest
                != run_experiment(config, point_index=1).stream_digest)

    def test_unknown_method_rejected(self):
        scenario = make_scenario((1, 0))
        with pytest.raises(ValidationError):
            make_config(scenario, ("magic",))

    def test_fusion_threshold_must_match_priors(self):
        # the minimax scan and the fusion rule would use different thresholds
        config = make_config(make_scenario((1, 0, 1), prior_h1=0.3), ("2sa",))
        with pytest.raises(ValidationError, match="gamma_ts"):
            replace(config, two_stage=replace(config.two_stage, gamma_ts=0.0))


class TestMethodParsing:
    def test_known_names(self):
        assert parse_method("2sa") == ("2sa", None)
        assert parse_method("baseline1") == ("baseline", (1, 0.5))
        assert parse_method("baseline5") == ("baseline", (5, 2.5))

    def test_generic_baseline(self):
        assert parse_method("baseline(3,1.5)") == ("baseline", (3, 1.5))

    def test_rejects_unknown(self):
        with pytest.raises(ValidationError):
            parse_method("baseline(x)")


class TestPlacement:
    def test_count_and_determinism(self):
        scenario = make_scenario((1,) * 10)
        placed = place_malicious(scenario, 4, seed=3)
        assert placed.n_malicious == 4
        assert placed == place_malicious(scenario, 4, seed=3)

    def test_different_seed_different_layout(self):
        scenario = make_scenario((1,) * 10)
        layouts = {place_malicious(scenario, 4, seed=s).truth for s in range(8)}
        assert len(layouts) > 1

    def test_count_bounds(self):
        scenario = make_scenario((1,) * 4)
        with pytest.raises(ValidationError):
            place_malicious(scenario, 5, seed=0)

    def test_methods_exchangeable_across_robots(self):
        # one seeded permutation of the robot columns of the stream and of the
        # truth vector moves no decision; 2sa is left out, its tie draws
        # follow robot order. The symmetric stream puts aglrt rows in its
        # tie band.
        replica = build_config(dict(preset_config("hardware-replica"), trials=2000))
        symmetric = make_config(
            make_scenario((1, 0, 1, 1, 0, 1, 0, 1, 1, 0), p_f=0.5, raw=0.15),
            trials=2000, seed=replica.seed)
        for config in (replica, symmetric):
            scenario = config.scenario
            stream = sample_trials(scenario, substream(config.seed, 0), config.trials)
            xi, y, a_idx = stream
            order = np.random.default_rng(99).permutation(scenario.n)
            permuted = replace(config, scenario=replace(
                scenario, truth=tuple(np.array(scenario.truth)[order].tolist())))
            permuted_stream = (xi, y[:, order], a_idx[:, order])
            for name in ("oracle", "oblivious", "baseline1", "baseline5", "aglrt"):
                hypotheses = _decide(name, config, 0, stream)
                moved = np.flatnonzero(hypotheses != _decide(name, permuted, 0,
                                                             permuted_stream))
                assert moved.size == 0, name
        # the last stream is the symmetric one
        assert _tie_band_rows(symmetric.scenario, stream).any()


class TestSweep:
    def test_fraction_grid(self):
        scenario = make_scenario((1,) * 6)
        config = make_config(scenario, ("oracle", "oblivious"), trials=60,
                             sweep=(0.0, 0.5, 1.0))
        results = sweep_malicious_fraction(config)
        assert [r.malicious_fraction for r in results] == [0.0, 0.5, 1.0]

    def test_fraction_zero_and_one_truths(self):
        scenario = make_scenario((1,) * 6)
        config = make_config(scenario, ("oracle",), trials=10, sweep=(0.0, 1.0))
        results = sweep_malicious_fraction(config)
        assert results[0].malicious_fraction == 0.0
        assert results[1].malicious_fraction == 1.0

    def test_resilient_methods_dominate_at_malicious_majority(self):
        scenario = make_scenario((1,) * 10)
        config = make_config(scenario,
                             ("2sa", "aglrt", "oblivious", "baseline5"),
                             trials=300, seed=11, sweep=(0.6, 0.8))
        for result in sweep_malicious_fraction(config):
            resilient = max(result.stats["2sa"].error_rate,
                            result.stats["aglrt"].error_rate)
            fragile = min(result.stats["oblivious"].error_rate,
                          result.stats["baseline5"].error_rate)
            assert resilient < fragile

    @pytest.mark.parametrize("field, value", [
        ("sweep", (0.5, 0.0, 0.5)),
        ("sweep", (0.0, -0.0)),
        ("methods", ("oracle", "2sa", "oracle")),
    ])
    def test_duplicates_rejected(self, field, value):
        # a repeated fraction or method would key two CSV rows alike
        config = make_config(make_scenario((1,) * 4), ("oracle",), trials=5,
                             sweep=(0.0, 1.0))
        with pytest.raises(ValidationError, match="duplicate"):
            replace(config, **{field: value})

    def test_sweep_requires_fractions(self):
        scenario = make_scenario((1,) * 4)
        with pytest.raises(ValidationError):
            sweep_malicious_fraction(make_config(scenario, ("oracle",), trials=5))
