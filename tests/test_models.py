"""Value-type invariants and derived-quantity checks."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from trustfusion.models import (
    LegitimateSensorModel,
    MaliciousStrategy,
    Scenario,
    Trial,
    TrustModel,
    ValidationError,
    effective_malicious_probs,
    log_prior_ratio,
    ratio_set,
)


BINARY_TRUST = TrustModel(alphabet=(0, 1), pmf_legit=(0.2, 0.8),
                          pmf_malicious=(0.8, 0.2))


def make_scenario(**overrides):
    base = dict(
        truth=(1, 0, 1),
        prior_h0=0.5,
        prior_h1=0.5,
        sensors=LegitimateSensorModel(0.1, 0.2),
        attack=MaliciousStrategy(0.0, 0.0, 0.99),
        trust=BINARY_TRUST,
    )
    base.update(overrides)
    return Scenario(**base)


class TestEffectiveMaliciousProbs:
    def test_no_flip_keeps_raw(self):
        p_fa, _ = effective_malicious_probs(MaliciousStrategy(0.1, 0.3, 0.0))
        assert p_fa == pytest.approx(0.1)

    def test_certain_flip_complements(self):
        p_fa, p_md = effective_malicious_probs(MaliciousStrategy(0.1, 0.3, 1.0))
        assert p_fa == pytest.approx(0.9)
        assert p_md == pytest.approx(0.7)

    def test_half_flip_is_half(self):
        p_fa, p_md = effective_malicious_probs(MaliciousStrategy(0.2, 0.4, 0.5))
        assert p_fa == pytest.approx(0.5)
        assert p_md == pytest.approx(0.5)

    def test_affine_in_flip_probability(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            raw = float(rng.uniform(0, 0.49))
            strat = lambda pf: MaliciousStrategy(raw, raw, pf)
            a = effective_malicious_probs(strat(0.0))[0]
            b = effective_malicious_probs(strat(1.0))[0]
            pf = float(rng.uniform(0, 1))
            mid = effective_malicious_probs(strat(pf))[0]
            assert mid == pytest.approx((1 - pf) * a + pf * b, abs=1e-12)
            assert a == pytest.approx(raw)


class TestTrustLikelihoodRatio:
    def test_informative_symbol(self):
        assert BINARY_TRUST.ratios[BINARY_TRUST.symbol_index(1)] == pytest.approx(4.0)

    def test_complement_symbol(self):
        assert (BINARY_TRUST.ratios[BINARY_TRUST.symbol_index(0)]
                == pytest.approx((1 - 0.8) / (1 - 0.2)))

    def test_unknown_symbol_rejected(self):
        with pytest.raises(ValidationError):
            BINARY_TRUST.ratios[BINARY_TRUST.symbol_index(2)]

    def test_symbol_positions_match_symbol_index(self):
        model = TrustModel(alphabet=("lo", 7, None), pmf_legit=(0.2, 0.3, 0.5),
                           pmf_malicious=(0.5, 0.3, 0.2))
        symbols = (None, "lo", 7, 7, None)
        assert model.symbol_positions(symbols) == [model.symbol_index(a) for a in symbols]
        assert model.symbol_positions(()) == []
        with pytest.raises(ValidationError, match="'hi' not in trust alphabet"):
            model.symbol_positions(("lo", "hi", 7))

    def test_identical_pmfs_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            TrustModel(alphabet=(0, 1), pmf_legit=(0.5, 0.5), pmf_malicious=(0.5, 0.5))

    def test_ratio_times_denominator_recovers_numerator(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            size = int(rng.integers(2, 5))
            ql = rng.random(size) + 0.05
            qm = rng.random(size) + 0.05
            model = TrustModel(
                alphabet=tuple(range(size)),
                pmf_legit=tuple(float(x) for x in ql / ql.sum()),
                pmf_malicious=tuple(float(x) for x in qm / qm.sum()),
            )
            for j, sym in enumerate(model.alphabet):
                product = model.ratios[model.symbol_index(sym)] * model.pmf_malicious[j]
                assert product == pytest.approx(model.pmf_legit[j], rel=1e-12)


class TestRatioSet:
    def test_binary_model(self):
        assert ratio_set(BINARY_TRUST) == pytest.approx([0.25, 4.0])

    def test_three_symbols(self):
        model = TrustModel(alphabet=(0, 1, 2), pmf_legit=(0.5, 0.3, 0.2),
                           pmf_malicious=(0.2, 0.3, 0.5))
        assert ratio_set(model) == pytest.approx([0.4, 1.0, 2.5])

    def test_size_bounded_by_alphabet(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            size = int(rng.integers(2, 6))
            ql = rng.random(size) + 0.05
            qm = rng.random(size) + 0.05
            model = TrustModel(
                alphabet=tuple(range(size)),
                pmf_legit=tuple(float(x) for x in ql / ql.sum()),
                pmf_malicious=tuple(float(x) for x in qm / qm.sum()),
            )
            assert len(ratio_set(model)) <= size


class TestConstructionInvariants:
    def test_pmf_not_summing_rejected(self):
        with pytest.raises(ValidationError):
            TrustModel(alphabet=(0, 1), pmf_legit=(0.5, 0.6), pmf_malicious=(0.8, 0.2))

    def test_nan_pmf_entry_rejected(self):
        with pytest.raises(ValidationError, match="NaN"):
            TrustModel(alphabet=(0, 1), pmf_legit=(float("nan"), 0.8),
                       pmf_malicious=(0.8, 0.2))

    def test_zero_mass_symbol_rejected(self):
        with pytest.raises(ValidationError):
            TrustModel(alphabet=(0, 1), pmf_legit=(0.0, 1.0), pmf_malicious=(0.8, 0.2))

    def test_sensor_rates_must_be_below_half(self):
        with pytest.raises(ValidationError):
            LegitimateSensorModel(0.5, 0.1)
        with pytest.raises(ValidationError):
            LegitimateSensorModel(0.1, 0.0)

    @pytest.mark.parametrize("rate", [1e-310, 5e-324])
    @pytest.mark.parametrize("name", ["p_fa_l", "p_md_l"])
    def test_subnormal_sensor_rates_refused(self, name, rate):
        # below the smallest normal double a fusion weight overflows to inf
        with pytest.raises(ValidationError, match=name):
            LegitimateSensorModel(**{"p_fa_l": 0.1, "p_md_l": 0.1, name: rate})

    def test_smallest_normal_sensor_rate_accepted(self):
        tiny = sys.float_info.min
        assert LegitimateSensorModel(tiny, tiny).p_fa_l == tiny

    def test_raw_malicious_rates_below_half(self):
        with pytest.raises(ValidationError):
            MaliciousStrategy(0.5, 0.1, 0.5)
        MaliciousStrategy(0.0, 0.0, 1.0)  # boundary flip probability is fine

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            make_scenario(prior_h0=0.6, prior_h1=0.5)

    def test_empty_truth_rejected_and_n_is_its_length(self):
        with pytest.raises(ValidationError, match="empty"):
            make_scenario(truth=())
        for truth in ((1,), (1, 0), (0, 1, 1, 0, 1)):
            assert make_scenario(truth=truth).n == len(truth)

    def test_truth_bits_checked(self):
        with pytest.raises(ValidationError):
            make_scenario(truth=(1, 2, 0))

    def test_trial_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Trial(xi=0, y=(0, 1), a=(0,), truth=(1, 1))

    def test_scenario_counts(self):
        scenario = make_scenario()
        assert scenario.n_malicious == 1
        assert scenario.malicious_fraction == pytest.approx(1 / 3)


def test_log_prior_ratio():
    assert log_prior_ratio(0.5, 0.5) == 0.0
    assert log_prior_ratio(0.6432, 0.3568) == pytest.approx(math.log(0.6432 / 0.3568))
    with pytest.raises(ValidationError):
        log_prior_ratio(1.0, 0.0)
    # each prior inside (0, 1) is not enough: they must sum to 1
    for priors in ((0.5, 0.9), (0.9, 0.9), (0.2, 0.2), (0.5, 0.5 + 1e-9)):
        with pytest.raises(ValidationError, match="priors sum to"):
            log_prior_ratio(*priors)
    assert log_prior_ratio(0.3, 1 - 0.3) == math.log(0.3) - math.log(0.7)


def test_readme_library_use_block_runs(capsys):
    # the README's "Library use" block is the documented public API
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    two_stage, glrt, estimate = capsys.readouterr().out.split()
    assert two_stage in ("0", "1") and glrt in ("0", "1")
    assert 0.0 <= float(estimate) <= 1.0


def test_readme_api_section_names_every_export_once():
    import re

    import trustfusion

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^- `(\w+)", section, flags=re.M)
    assert sorted(names) == sorted(trustfusion.__all__)
    assert len(names) == len(set(names))
    assert "worst_case_error" not in dir(trustfusion)
    assert "candidate_set" not in dir(trustfusion)
