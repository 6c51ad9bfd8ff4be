"""GLRT decider: hand examples, brute-force agreement, structural properties."""

import math

import numpy as np
import pytest

from oracles import (
    _compositions,
    candidate_scan_branch_max,
    candidate_scan_decide,
    glrt_branch_max_by_enumeration,
    inner_max,
    mle_adversary_param,
    sorting_class_maxima,
)
from trustfusion.aglrt import (
    BRUTE_FORCE_MAX_N,
    _class_maxima,
    _code_constants,
    _decides_h1,
    aglrt_decide,
    aglrt_hypotheses,
    brute_force_glrt,
    candidate_set,
)
from trustfusion.models import (
    _MAX_ROBOTS,
    LegitimateSensorModel,
    Trial,
    TrustModel,
    ValidationError,
    log_prior_ratio,
)
from trustfusion.cli import preset_config
from trustfusion.selfcheck import oracle_equivalence, random_instance, random_trust_model
from trustfusion.stats import log_pow

BINARY_TRUST = TrustModel(alphabet=(0, 1), pmf_legit=(0.2, 0.8),
                          pmf_malicious=(0.8, 0.2))
SENSORS_15 = LegitimateSensorModel(0.15, 0.15)
# symbol 0 is uninformative: it has the same mass under both types
UNINFORMATIVE_TRUST = TrustModel(alphabet=(0, 1, 2), pmf_legit=(0.5, 0.3, 0.2),
                                 pmf_malicious=(0.5, 0.2, 0.3))


def make_trial(y, a):
    return Trial(xi=0, y=tuple(y), a=tuple(a), truth=(1,) * len(y))


class TestCandidateSet:
    def test_single_robot(self):
        assert candidate_set(1) == (0.0, 1.0)

    def test_two_robots(self):
        assert candidate_set(2) == (0.0, 0.5, 1.0)

    def test_contains_endpoints_sorted_dedup(self):
        values = candidate_set(12)
        assert values[0] == 0.0 and values[-1] == 1.0
        assert list(values) == sorted(set(values))

    def test_size_bound(self):
        for n in (1, 2, 5, 10, 37):
            assert len(candidate_set(n)) <= n * n + 1

    def test_zero_robots_rejected(self):
        with pytest.raises(ValidationError):
            candidate_set(0)

    def test_reduced_fractions_deduplicate(self):
        # 1/2, 2/4, 3/6 ... collapse; the raw enumeration is much larger
        values = candidate_set(6)
        assert values.count(0.5) == 1


class TestInnerMax:
    def test_single_robot_example(self):
        result = inner_max(0.0, (1,), (1,), 1, BINARY_TRUST, SENSORS_15)
        assert result.t_hat == (1,)
        assert result.log_likelihood == pytest.approx(math.log(0.8 * 0.85))

    def test_tie_labels_legitimate(self):
        # symbol 0 has identical mass under both types, and the rate is set
        # equal to the sensor's missed-detection rate, so both labels carry
        # exactly the same weight for a positive report
        model = TrustModel(alphabet=(0, 1, 2), pmf_legit=(0.5, 0.3, 0.2),
                           pmf_malicious=(0.5, 0.2, 0.3))
        sensors = LegitimateSensorModel(0.1, 0.25)
        result = inner_max(0.25, (1, 1), (0, 0), 1, model, sensors)
        assert result.t_hat == (1, 1)

    def test_dominates_every_fixed_labeling(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            trial, trust, sensors, _, _ = random_instance(rng, n)
            p_m = float(rng.choice(candidate_set(n)))
            best = inner_max(p_m, trial.a, trial.y, 1, trust, sensors)
            for mask in range(1 << n):
                t = tuple((mask >> i) & 1 for i in range(n))
                value = _fixed_labeling_loglik(t, p_m, trial, trust, sensors, 1)
                assert best.log_likelihood >= value - 1e-9

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(ValidationError):
            inner_max(1.5, (1,), (1,), 1, BINARY_TRUST, SENSORS_15)


def _fixed_labeling_loglik(t, p_m, trial, trust, sensors, branch):
    total = 0.0
    for t_i, a_i, y_i in zip(t, trial.a, trial.y):
        j = trust.symbol_index(a_i)
        if t_i == 1:
            total += trust.log_pmf_legit[j]
            if branch == 1:
                total += math.log(1 - sensors.p_md_l if y_i == 1 else sensors.p_md_l)
            else:
                total += math.log(sensors.p_fa_l if y_i == 1 else 1 - sensors.p_fa_l)
        else:
            total += trust.log_pmf_malicious[j]
            wrong = y_i != branch
            total += log_pow(p_m, 1) if wrong else log_pow(1 - p_m, 1)
    return total


class TestMleAdversaryParam:
    def test_half_wrong(self):
        assert mle_adversary_param((0, 0, 1), (0, 1, 1), 1) == pytest.approx(0.5)

    def test_all_malicious_all_missed(self):
        assert mle_adversary_param((0, 0, 0), (0, 0, 0), 1) == 1.0

    def test_no_malicious_canonical_zero(self):
        assert mle_adversary_param((1, 1), (0, 1), 1) == 0.0

    def test_null_branch_counts_positives(self):
        assert mle_adversary_param((0, 0, 1), (0, 1, 1), 0) == pytest.approx(0.5)

    def test_grid_search_confirms_maximizer(self):
        # likelihood of the malicious group at the closed-form rate beats a
        # 1e-4 grid over [0, 1]
        rng = np.random.default_rng(77)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            t = tuple(int(b) for b in rng.integers(0, 2, n))
            y = tuple(int(b) for b in rng.integers(0, 2, n))
            if all(t_i == 1 for t_i in t):
                continue
            wrong = sum(1 for t_i, y_i in zip(t, y) if t_i == 0 and y_i == 0)
            total = sum(1 for t_i in t if t_i == 0)
            best = mle_adversary_param(t, y, 1)

            def loglik(p):
                return log_pow(p, wrong) + log_pow(1 - p, total - wrong)

            at_best = loglik(best)
            for i in range(10_001):
                assert at_best >= loglik(i / 10_000) - 1e-12


class TestAglrtDecide:
    def test_single_robot_hand_example(self):
        # event branch best 0.8*0.85 = 0.68; null branch best is the robot
        # labeled malicious with certain false alarms, weight 0.2
        trial = make_trial((1,), (1,))
        out = aglrt_decide(trial, BINARY_TRUST, SENSORS_15, 0.5, 0.5)
        assert out.hypothesis == 1
        assert out.diagnostics["log_num"] == pytest.approx(math.log(0.68))
        assert out.diagnostics["log_den"] == pytest.approx(math.log(0.2))

    def test_unanimous_positive_with_clean_scores(self):
        trial = make_trial((1, 1, 1, 1), (1, 1, 1, 1))
        out = aglrt_decide(trial, BINARY_TRUST, SENSORS_15, 0.5, 0.5)
        slow = brute_force_glrt(trial, BINARY_TRUST, SENSORS_15, 0.5, 0.5)
        assert out.hypothesis == 1 and slow.hypothesis == 1

    def test_exact_threshold_tie_goes_to_null(self):
        # one robot whose score is uninformative and whose report is explained
        # identically by both branches: the ratio is exactly 1 and must fall
        # back to the null hypothesis under even priors
        model = TrustModel(alphabet=(0, 1, 2), pmf_legit=(0.5, 0.3, 0.2),
                           pmf_malicious=(0.5, 0.2, 0.3))
        trial = make_trial((1,), (0,))
        out = aglrt_decide(trial, model, SENSORS_15, 0.5, 0.5)
        assert out.diagnostics["log_ratio"] == 0.0
        assert out.hypothesis == 0

    def test_rounding_broken_tie_goes_to_null(self):
        # the two branch maxima agree to 59 digits, but their float sums
        # differ in the last bit: the ratio is inside the tie band
        trial = make_trial((0,) + (1,) * 7, (0,) * 7 + (1,))
        sensors = LegitimateSensorModel(0.25, 0.25)
        out = aglrt_decide(trial, BINARY_TRUST, sensors, 0.5, 0.5)
        assert 0.0 < abs(out.diagnostics["log_ratio"]) <= 1e-14
        assert out.hypothesis == 0
        assert brute_force_glrt(trial, BINARY_TRUST, sensors, 0.5, 0.5).hypothesis == 0

    def test_unknown_symbol_rejected(self):
        trial = make_trial((1, 0, 1), (1, 5, 0))
        with pytest.raises(ValidationError, match="5 not in trust alphabet"):
            aglrt_decide(trial, BINARY_TRUST, SENSORS_15, 0.5, 0.5)
        with pytest.raises(ValidationError, match="5 not in trust alphabet"):
            brute_force_glrt(trial, BINARY_TRUST, SENSORS_15, 0.5, 0.5)

    def test_robot_count_capped_before_allocating(self):
        n = _MAX_ROBOTS + 1
        with pytest.raises(ValidationError, match="at most"):
            aglrt_decide(make_trial((1,) * n, (1,) * n), BINARY_TRUST, SENSORS_15,
                         0.5, 0.5)
        with pytest.raises(ValidationError, match="at most"):
            aglrt_hypotheses(np.ones((1, n), dtype=np.int8), np.ones((1, n), dtype=np.uint8),
                             BINARY_TRUST, SENSORS_15, 0.5, 0.5)

    def test_robot_count_at_the_cap_is_decided(self):
        # a row of exactly _MAX_ROBOTS robots lies within the cap
        rng = np.random.default_rng(11)
        y, a = rng.integers(0, 2, (2, _MAX_ROBOTS), dtype=np.int8)
        out = aglrt_decide(make_trial(y.tolist(), a.tolist()), BINARY_TRUST, SENSORS_15,
                           0.5, 0.5)
        constants = tuple(branch[:3] for branch in _code_constants(BINARY_TRUST, SENSORS_15))
        den, num = sorting_class_maxima(np.bincount(2 * a + y, minlength=4).tolist(),
                                        constants)
        assert (out.diagnostics["log_den"], out.diagnostics["log_num"]) == (den[0], num[0])
        assert len(out.t_hat) == _MAX_ROBOTS
        assert aglrt_hypotheses(y[None], a[None].astype(np.uint8), BINARY_TRUST,
                                SENSORS_15, 0.5, 0.5).tolist() == [out.hypothesis]

    @pytest.mark.parametrize("log_num, log_den", [
        (-1000.0, -1.0), (-1.0, -1000.0), (-2.5e5, -3.0), (-7.0, -4.0e6), (-0.5, -0.25),
    ])
    def test_tie_band_width(self, log_num, log_den):
        # the ratio clears the threshold only beyond
        # 1e-9 * (1 + |log_num| + |log_den|), whichever term is the larger
        band = 1e-9 * (1.0 + abs(log_num) + abs(log_den))
        for scale, decides in ((1.0 - 1e-3, False), (1.0 + 1e-3, True)):
            threshold = log_num - log_den - scale * band
            assert _decides_h1(log_num, log_den, threshold) is decides

    @pytest.mark.parametrize("priors", [(0.5, 0.9), (0.9, 0.9), (0.1, 0.1)])
    def test_priors_not_summing_to_one_refused(self, priors):
        # (0.5, 0.9) would decide against log(0.5/0.9) as if it were a prior ratio
        trial = make_trial((1, 0, 1), (1, 1, 0))
        for decide in (aglrt_decide, brute_force_glrt):
            with pytest.raises(ValidationError, match="priors sum to"):
                decide(trial, BINARY_TRUST, SENSORS_15, *priors)
        with pytest.raises(ValidationError, match="priors sum to"):
            aglrt_hypotheses(np.ones((2, 3), dtype=np.int8), np.ones((2, 3), dtype=np.uint8),
                             BINARY_TRUST, SENSORS_15, *priors)

    def test_all_legit_labeling_flags_arbitrary_estimate(self):
        trial = make_trial((1, 1, 1), (1, 1, 1))
        out = aglrt_decide(trial, BINARY_TRUST, SENSORS_15, 0.5, 0.5)
        assert out.diagnostics["adversary_estimate_arbitrary"] == 1.0
        assert out.adversary_estimate == 0.0

    def test_agrees_with_brute_force(self):
        ok, messages = oracle_equivalence(n_values=range(1, 6), instances_per_n=200,
                                          seed=5150)
        assert ok, "\n".join(messages)

    def test_branch_maxima_match_dense_grid_enumeration(self):
        rng = np.random.default_rng(808)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            trial, trust, sensors, p0, p1 = random_instance(rng, n)
            out = aglrt_decide(trial, trust, sensors, p0, p1)
            for branch, key in ((1, "log_num"), (0, "log_den")):
                reference = glrt_branch_max_by_enumeration(trial, trust, sensors,
                                                           branch)
                # the dense grid only lower-bounds the exact maximum
                assert out.diagnostics[key] >= reference - 1e-9
                assert out.diagnostics[key] <= reference + 1e-3


    def test_count_domain_search_equals_candidate_scan(self):
        # branch values within the tie band of the candidate scan's, the same
        # decision outside the band and the null hypothesis inside it: random
        # instances, some at the live-loop sizes, plus models built so that
        # labels and rates tie (mirrored or uninformative scores, symmetric
        # sensors, sensor rates that are candidate fractions, even priors)
        rng = np.random.default_rng(2718)
        instances = [random_instance(rng, int(rng.integers(1, 31)))
                     for _ in range(120)]
        instances += [random_instance(rng, n) for n in (40, 48, 64) for _ in range(3)]
        for trust in (BINARY_TRUST, UNINFORMATIVE_TRUST):
            for rates in ((0.15, 0.15), (0.25, 0.25), (0.1, 0.25), (0.2, 0.2)):
                for n in range(1, 25):
                    for _ in range(4 if n <= 12 else 2):
                        y = tuple(int(b) for b in rng.integers(0, 2, n))
                        a = tuple(int(s) for s in rng.integers(0, len(trust.alphabet), n))
                        instances.append((make_trial(y, a), trust,
                                          LegitimateSensorModel(*rates), 0.5, 0.5))
        ties = 0
        for trial, trust, sensors, p0, p1 in instances:
            out = aglrt_decide(trial, trust, sensors, p0, p1)
            ref = {key: candidate_scan_branch_max(trial, trust, sensors, branch)[0]
                   for branch, key in ((1, "log_num"), (0, "log_den"))}
            for key, value in ref.items():
                assert abs(out.diagnostics[key] - value) <= 1e-9 * (1.0 + abs(value))
            if _in_tie_band(ref, p0, p1):
                ties += 1
                assert out.hypothesis == 0
            else:
                assert out.hypothesis == candidate_scan_decide(trial, trust, sensors,
                                                               p0, p1).hypothesis
        assert ties > 0

    def test_robot_order_never_moves_the_decision(self):
        # random rows at n <= 12 over 2-4 symbols, half of them on models
        # built to tie; a permutation of the robots permutes t_hat and leaves
        # every other output bit for bit the same
        rng = np.random.default_rng(1618)
        ties = 0
        for index in range(400):
            n = int(rng.integers(1, 13))
            if index % 2:
                trust = (BINARY_TRUST, UNINFORMATIVE_TRUST)[index % 4 // 2]
                sensors, p0 = LegitimateSensorModel(0.15, 0.15), 0.5
            else:
                trust = random_trust_model(rng)
                sensors = LegitimateSensorModel(*rng.uniform(0.01, 0.49, 2))
                p0 = float(rng.uniform(0.05, 0.95))
            y = rng.integers(0, 2, n).tolist()
            a = rng.integers(0, len(trust.alphabet), n).tolist()
            order = rng.permutation(n).tolist()
            out = aglrt_decide(make_trial(y, a), trust, sensors, p0, 1 - p0)
            moved = aglrt_decide(make_trial([y[i] for i in order], [a[i] for i in order]),
                                 trust, sensors, p0, 1 - p0)
            assert ({key: value.hex() for key, value in moved.diagnostics.items()}
                    == {key: value.hex() for key, value in out.diagnostics.items()})
            assert moved.hypothesis == out.hypothesis
            assert moved.adversary_estimate.hex() == out.adversary_estimate.hex()
            assert moved.t_hat == tuple(out.t_hat[i] for i in order)
            ties += _in_tie_band(out.diagnostics, p0, 1 - p0)
        assert ties > 0


def _in_tie_band(diagnostics, prior_h0, prior_h1) -> bool:
    log_num, log_den = diagnostics["log_num"], diagnostics["log_den"]
    return (abs(log_num - log_den - log_prior_ratio(prior_h0, prior_h1))
            <= 1e-9 * (1.0 + abs(log_num) + abs(log_den)))


def _maxima_bits(maxima) -> list:
    return [(value.hex(), rate.hex(), list(legit)) for value, rate, legit in maxima]


class TestModelPlan:
    """The core on each model's memoised plan equals the referee that sorts
    the codes present on every call, bit for bit: value, rate and labeling."""

    @staticmethod
    def _check(trust, sensors, vectors) -> int:
        plan = _code_constants(trust, sensors)
        constants = tuple(branch[:3] for branch in plan)
        for counts in vectors:
            assert (_maxima_bits(_class_maxima(counts, plan))
                    == _maxima_bits(sorting_class_maxima(counts, constants))), counts
        return len(vectors)

    @pytest.mark.parametrize("preset, n, vectors", [
        ("hardware-replica", 11, 364),
        ("numerical-study", 10, 286),
        ("numerical-study", 48, 20_825),  # the live-loop model
    ])
    def test_every_count_vector_of_the_preset_models(self, preset, n, vectors):
        raw = preset_config(preset)
        trust = TrustModel(alphabet=tuple(raw["trust_alphabet"]),
                           pmf_legit=tuple(raw["trust_pmf_legit"]),
                           pmf_malicious=tuple(raw["trust_pmf_malicious"]))
        sensors = LegitimateSensorModel(raw["p_fa_l"], raw["p_md_l"])
        every = [list(counts) for counts in _compositions(n, 2 * len(trust.alphabet))]
        assert self._check(trust, sensors, every) == vectors

    def test_random_models_with_tied_gains(self):
        # 2-4 symbols; every other model gives two symbols the same masses,
        # so their codes tie in gain and keep code order in the ranking
        rng = np.random.default_rng(4096)
        tied_models = 0
        for index in range(240):
            if index % 2:
                trust = random_trust_model(rng)
            else:
                size = int(rng.integers(3, 5))
                while True:
                    legit, malicious = rng.random(size) + 0.05, rng.random(size) + 0.05
                    legit[1], malicious[1] = legit[0], malicious[0]
                    legit, malicious = legit / legit.sum(), malicious / malicious.sum()
                    if np.max(np.abs(legit - malicious)) > 1e-3:
                        break
                trust = TrustModel(alphabet=tuple(range(size)),
                                   pmf_legit=tuple(legit.tolist()),
                                   pmf_malicious=tuple(malicious.tolist()))
            if index % 3:
                sensors = LegitimateSensorModel(*rng.uniform(0.01, 0.49, 2))
            else:
                sensors = SENSORS_15
            plan = _code_constants(trust, sensors)
            gains = [[log_cl[c] - log_pa0[c] for c in ranked]
                     for log_cl, log_pa0, _, groups in plan for _, ranked in groups]
            tied_models += any(len(set(g)) < len(g) for g in gains)
            width = 2 * len(trust.alphabet)
            vectors = [rng.multinomial(int(rng.integers(1, 61)),
                                       rng.dirichlet(np.full(width, 0.5))).tolist()
                       for _ in range(50)]
            self._check(trust, sensors, vectors)
        assert tied_models >= 100

    def test_alternating_models_decide_as_fresh_calls(self):
        # calls that alternate between two sensor models, and between two
        # equal but distinct trust models (the second spells the alphabet in
        # floats, and shares the first one's plans), against calls each made
        # right after the memo is cleared
        rng = np.random.default_rng(77)
        twin = TrustModel(alphabet=(0.0, 1.0), pmf_legit=(0.2, 0.8),
                          pmf_malicious=(0.8, 0.2))
        assert twin == BINARY_TRUST and twin is not BINARY_TRUST
        models = [(BINARY_TRUST, SENSORS_15), (BINARY_TRUST, LegitimateSensorModel(0.05, 0.3)),
                  (twin, SENSORS_15), (twin, LegitimateSensorModel(0.3, 0.05))]
        calls = [(make_trial(rng.integers(0, 2, n).tolist(), rng.integers(0, 2, n).tolist()),
                  trust, sensors, 0.4, 0.6)
                 for n in rng.integers(1, 49, 40) for trust, sensors in models]
        fresh = []
        for args in calls:
            _code_constants.cache_clear()
            fresh.append(aglrt_decide(*args))
        _code_constants.cache_clear()
        assert [aglrt_decide(*args) for args in calls] == fresh
        assert _code_constants.cache_info().misses == 3


class TestBruteForce:
    def test_refuses_large_networks(self):
        n = BRUTE_FORCE_MAX_N + 1
        trial = make_trial((1,) * n, (1,) * n)
        with pytest.raises(ValidationError):
            brute_force_glrt(trial, BINARY_TRUST, SENSORS_15, 0.5, 0.5)

    def test_single_robot_decision(self):
        trial = make_trial((1,), (1,))
        out = brute_force_glrt(trial, BINARY_TRUST, SENSORS_15, 0.5, 0.5)
        assert out.hypothesis == 1

    def test_all_ones_labeling_reports_zero_rate(self):
        trial = make_trial((1, 1), (1, 1))
        out = brute_force_glrt(trial, BINARY_TRUST, SENSORS_15, 0.5, 0.5)
        assert out.adversary_estimate == 0.0

    def test_agrees_with_aglrt_up_to_the_cap(self):
        # n = 12..16, where no other test runs the oracle: random 2-4 symbol
        # models, and models built to tie (mirrored binary trust, symmetric
        # sensors, even priors); the same decision outside the tie band, the
        # null hypothesis inside it, and branch values within 1e-9
        rng = np.random.default_rng(1216)
        instances = [random_instance(rng, n) for n in range(12, BRUTE_FORCE_MAX_N + 1)
                     for _ in range(5)]
        for n in range(12, BRUTE_FORCE_MAX_N + 1):
            for index in range(5):
                y, a = rng.integers(0, 2, n).tolist(), rng.integers(0, 2, n).tolist()
                if index < 3 and n % 2 == 0:
                    # each symbol as often with report 0 as with 1: the branches
                    # mirror each other, an exact tie up to rounding
                    y, a = [0, 1] * (n // 2), [s for s in a[:n // 2] for _ in (0, 1)]
                order = rng.permutation(n).tolist()
                trial = make_trial([y[i] for i in order], [a[i] for i in order])
                instances.append((trial, BINARY_TRUST, SENSORS_15, 0.5, 0.5))
        ties = 0
        for trial, trust, sensors, p0, p1 in instances:
            fast = aglrt_decide(trial, trust, sensors, p0, p1)
            slow = brute_force_glrt(trial, trust, sensors, p0, p1)
            for key in ("log_num", "log_den"):
                assert abs(fast.diagnostics[key] - slow.diagnostics[key]) <= 1e-9
            if _in_tie_band(slow.diagnostics, p0, p1):
                ties += 1
                assert fast.hypothesis == slow.hypothesis == 0
            else:
                assert fast.hypothesis == slow.hypothesis
        assert ties > 0


class TestEquivalentThresholdRule:
    def test_labeling_matches_per_robot_ratio_threshold(self):
        # labeling by weight comparison == trust ratio vs measurement-dependent
        # threshold, for every robot and every interior candidate rate
        rng = np.random.default_rng(404)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            trial, trust, sensors, _, _ = random_instance(rng, n)
            for p_m in candidate_set(n):
                if p_m in (0.0, 1.0):
                    continue
                result = inner_max(p_m, trial.a, trial.y, 1, trust, sensors)
                for i in range(n):
                    j = trust.symbol_index(trial.a[i])
                    lr = trust.pmf_legit[j] / trust.pmf_malicious[j]
                    if trial.y[i] == 1:
                        threshold = (1 - p_m) / (1 - sensors.p_md_l)
                    else:
                        threshold = p_m / sensors.p_md_l
                    expected = 1 if lr >= threshold else 0
                    assert result.t_hat[i] == expected

    def test_dominant_scores_override_measurements(self):
        # near-perfect scores: the labeling is pure score thresholding for
        # every interior rate, whatever the measurements say
        model = TrustModel(alphabet=(0, 1), pmf_legit=(0.001, 0.999),
                           pmf_malicious=(0.999, 0.001))
        sensors = LegitimateSensorModel(0.15, 0.15)
        rng = np.random.default_rng(11)
        n = 8
        y = tuple(int(b) for b in rng.integers(0, 2, n))
        a = tuple(int(b) for b in rng.integers(0, 2, n))
        for p_m in candidate_set(n):
            if p_m in (0.0, 1.0):
                continue
            for branch in (0, 1):
                result = inner_max(p_m, a, y, branch, model, sensors)
                assert result.t_hat == a
