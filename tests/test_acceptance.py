"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion (criterion 7's five table point-checks and its ordering clause are
parametrized so each prints its own line).
"""

import hashlib
import math
import time
from itertools import product

import numpy as np
import pytest

from oracles import (
    candidate_scan_decide,
    exact_exchangeable_error,
    exact_fixed_subset_error,
    exact_fixed_trust_error,
    exact_two_stage_error,
    exact_two_stage_error_by_counts,
    reputation_replay_errors,
)
from trustfusion.aglrt import aglrt_decide, brute_force_glrt, candidate_set
from trustfusion.cli import build_config, emit_csv, emit_plot, main, preset_config
from trustfusion.models import LegitimateSensorModel, Trial, TrustModel, ratio_set
from trustfusion.selfcheck import (
    closed_form_vs_monte_carlo,
    oracle_equivalence,
    random_instance,
)
from trustfusion.simulator import (
    run_experiment,
    sample_trials,
    substream,
    sweep_malicious_fraction,
)
from trustfusion.two_stage import (
    TwoStageConfig,
    optimize_thresholds,
    worst_case_error,
    worst_case_error_by_counts,
)


# --- criterion 1: scan vs brute force, N in 1..8, 1000 instances each -------

def test_criterion_1_brute_force_equivalence():
    start = time.perf_counter()
    ok, messages = oracle_equivalence(n_values=range(1, 9), instances_per_n=1000,
                                      tol=1e-9)
    elapsed = time.perf_counter() - start
    assert ok, "\n".join(messages)
    assert elapsed < 120, f"took {elapsed:.0f}s, budget is 120s"


# --- criterion 2: closed form vs Monte Carlo at 3 sigma, 1e5 trials ---------

def test_criterion_2_closed_form_vs_monte_carlo():
    start = time.perf_counter()
    ok, messages = closed_form_vs_monte_carlo(n_configs=5, trials=100_000,
                                              n_sigma=3.0)
    elapsed = time.perf_counter() - start
    assert ok, "\n".join(messages)
    assert elapsed < 120, f"took {elapsed:.0f}s, budget is 120s"


# --- criterion 3: worst-case attack sits at the (1,1) corner ----------------

def test_criterion_3_error_maximized_at_wrong_report_corner():
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    rng = np.random.default_rng(314)
    cases = 0
    for n in (2, 4, 6):
        for _ in range(3):
            ql = float(rng.uniform(0.55, 0.95))
            qm = float(rng.uniform(0.05, 0.45))
            trust = TrustModel(alphabet=(0, 1), pmf_legit=(1 - ql, ql),
                               pmf_malicious=(1 - qm, qm))
            sensors = LegitimateSensorModel(float(rng.uniform(0.05, 0.45)),
                                            float(rng.uniform(0.05, 0.45)))
            prior_h0 = float(rng.uniform(0.25, 0.75))
            gamma_ts = math.log(prior_h0 / (1 - prior_h0))
            n_mal = int(rng.integers(1, n + 1))
            truth = tuple([0] * n_mal + [1] * (n - n_mal))
            for gamma_t in ratio_set(trust):
                for p_t in (0.0, 0.5, 1.0):
                    corner = exact_two_stage_error(
                        trust, sensors, gamma_ts, prior_h0, 1 - prior_h0,
                        gamma_t, p_t, truth, 1.0, 1.0)
                    for p_fa_m, p_md_m in product(grid, grid):
                        value = exact_two_stage_error(
                            trust, sensors, gamma_ts, prior_h0, 1 - prior_h0,
                            gamma_t, p_t, truth, p_fa_m, p_md_m)
                        assert corner >= value - 1e-12, (
                            f"corner {corner} < grid value {value} at "
                            f"({p_fa_m}, {p_md_m}), n={n}"
                        )
                    cases += 1
    assert cases >= 50


# --- criterion 4: worst-case error nondecreasing in malicious count ---------

def test_criterion_4_monotone_in_malicious_count():
    """Monotonicity in the malicious count at fixed thresholds.

    Sensor error rates are drawn from the informative regime (at most 0.25,
    which covers every configuration this artifact ships) because the
    property provably fails for near-uninformative sensors; see
    test_two_stage.py::test_monotonicity_counterexample_at_extreme_noise for
    the pinned counterexample.
    """
    rng = np.random.default_rng(159)
    for n in (4, 7, 10):
        for _ in range(4):
            ql = float(rng.uniform(0.55, 0.95))
            qm = float(rng.uniform(0.05, 0.45))
            trust = TrustModel(alphabet=(0, 1), pmf_legit=(1 - ql, ql),
                               pmf_malicious=(1 - qm, qm))
            sensors = LegitimateSensorModel(float(rng.uniform(0.02, 0.25)),
                                            float(rng.uniform(0.02, 0.25)))
            prior_h0 = float(rng.uniform(0.25, 0.75))
            gamma_ts = math.log(prior_h0 / (1 - prior_h0))
            gamma_t = ratio_set(trust)[int(rng.integers(0, 2))]
            p_t = float(rng.choice([0.0, 0.25, 0.6, 1.0]))
            values = [
                worst_case_error_by_counts(trust, sensors, gamma_ts, prior_h0,
                                           1 - prior_h0, n - k, k, gamma_t, p_t)
                for k in range(n + 1)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), values


# --- criterion 5: grid refinement and the prior floor -----------------------

def test_criterion_5_grid_refinement_and_prior_floor():
    rng = np.random.default_rng(265)
    for _ in range(6):
        ql = float(rng.uniform(0.55, 0.95))
        qm = float(rng.uniform(0.05, 0.45))
        trust = TrustModel(alphabet=(0, 1), pmf_legit=(1 - ql, ql),
                           pmf_malicious=(1 - qm, qm))
        sensors = LegitimateSensorModel(float(rng.uniform(0.05, 0.45)),
                                        float(rng.uniform(0.05, 0.45)))
        prior_h0 = float(rng.uniform(0.25, 0.75))
        prior_h1 = 1 - prior_h0
        n = int(rng.integers(4, 12))
        m_bar = float(rng.uniform(0.1, 0.9))
        gamma_ts = math.log(prior_h0 / prior_h1)
        minima = []
        for delta_p in (0.2, 0.1, 0.05, 0.01):
            config = TwoStageConfig(m_bar=m_bar, delta_p=delta_p, gamma_ts=gamma_ts)
            choice = optimize_thresholds(trust, sensors, config, n,
                                         prior_h0, prior_h1)
            minima.append(choice.worst_case_pe)
        assert all(b <= a for a, b in zip(minima, minima[1:])), minima
        assert minima[-1] <= min(prior_h0, prior_h1) + 1e-12


# --- criterion 6: candidate-set size and near-cubic scaling -----------------

def test_criterion_6_candidate_bound_and_runtime_scaling():
    for n in range(1, 201):
        assert len(candidate_set(n)) <= n * n + 1
    rng = np.random.default_rng(63)
    timings = {}
    for n in (40, 80):
        trial, trust, sensors, p0, p1 = random_instance(rng, n)
        aglrt_decide(trial, trust, sensors, p0, p1)  # warm caches
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            aglrt_decide(trial, trust, sensors, p0, p1)
            best = min(best, time.perf_counter() - start)
        timings[n] = best
    ratio = timings[80] / timings[40]
    assert ratio <= 10.0, f"time(80)/time(40) = {ratio:.1f}"


# --- criterion 7: hardware-replica run against its model's exact errors ----

# Percent errors of a physical deployment. The 2sa and aglrt figures are the
# ones the paper's abstract reports for its Sybil-attack hardware experiment;
# the other three have no source in the repository. Nor does the repository
# hold the physical system's parameters, so these figures are context for
# failure messages, not references: the checks below hold the simulated run
# to the exact error rates of the model the preset specifies.
TABLE_PERCENT_ERRORS = {
    "2sa": 30.5,
    "aglrt": 29.0,
    "oracle": 19.5,
    "oblivious": 52.0,
    "baseline5": 49.1,
}


def _four_sigma(rate: float, trials: int) -> float:
    return 4.0 * math.sqrt(rate * (1.0 - rate) / trials)


@pytest.fixture(scope="module")
def replica_config():
    raw = preset_config("hardware-replica")
    assert raw["trials"] >= 20_000
    return build_config(raw)


@pytest.fixture(scope="module")
def replica_result(replica_config):
    start = time.perf_counter()
    result = run_experiment(replica_config)
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"took {elapsed:.0f}s, budget is 300s"
    return result


@pytest.fixture(scope="module")
def replica_thresholds(replica_config):
    scenario = replica_config.scenario
    return optimize_thresholds(scenario.trust, scenario.sensors,
                               replica_config.two_stage, scenario.n,
                               scenario.prior_h0, scenario.prior_h1)


def _model_reference(config, thresholds, aglrt_hypothesis, baselines) -> dict:
    """Each method's exact error rate under the model of ``config``'s
    scenario at point 0, with the tolerance the run is held to.

    Computed by the referees in oracles.py, never taken from run output:
    ``aglrt_hypothesis(a, y)`` decides one representative of every
    exchangeable (score, report) class. The tolerance is 4 binomial standard
    deviations at the run's trial count. The reputation ``baselines``
    (name -> (window, exclusion threshold)) decide sequentially and have no
    closed form: each reference is the rule replayed over the run's own
    trial stream, which has no sampling noise, so the error counts must
    match exactly.
    """
    scenario = config.scenario
    n_malicious = scenario.n_malicious
    n_legit = scenario.n - n_malicious
    attack = scenario.attack
    # a malicious report is wrong when exactly one of the raw error and the
    # flip happens
    p_fa_m = attack.p_f * (1 - attack.p_fa_m_raw) + (1 - attack.p_f) * attack.p_fa_m_raw
    p_md_m = attack.p_f * (1 - attack.p_md_m_raw) + (1 - attack.p_f) * attack.p_md_m_raw
    model = (scenario.sensors, scenario.gamma_ts, scenario.prior_h0,
             scenario.prior_h1)
    counts = (n_legit, n_malicious, p_fa_m, p_md_m)
    exact = {
        "oracle": exact_fixed_trust_error(*model, scenario.truth),
        "oblivious": exact_fixed_subset_error(*model, *counts),
        "2sa": exact_two_stage_error_by_counts(
            scenario.trust, *model, thresholds.gamma_t, thresholds.p_t, *counts),
        "aglrt": exact_exchangeable_error(
            aglrt_hypothesis, scenario.trust, scenario.sensors,
            scenario.prior_h0, scenario.prior_h1, *counts),
    }
    trials = config.trials
    reference = {name: (rate, _four_sigma(rate, trials))
                 for name, rate in exact.items()}
    # run_experiment draws point 0's trials from substream 0 of the seed
    xi, y, _ = sample_trials(scenario, substream(config.seed, 0), trials)
    for name, (window, threshold) in baselines.items():
        replayed = reputation_replay_errors(zip(xi.tolist(), y.tolist()), scenario.n,
                                            window, threshold, scenario.sensors,
                                            scenario.gamma_ts)
        reference[name] = (replayed / trials, 0.0)
    return reference


@pytest.fixture(scope="module")
def replica_reference(replica_config, replica_thresholds):
    """The replica model's exact error rates, aglrt's by brute_force_glrt;
    baseline5 as documented: window 5, exclusion threshold 2.5."""
    scenario = replica_config.scenario

    def brute_force_hypothesis(a, y):
        # the decider never reads xi or truth
        trial = Trial(xi=0, y=y, a=a, truth=(1,) * len(y))
        return brute_force_glrt(trial, scenario.trust, scenario.sensors,
                                scenario.prior_h0, scenario.prior_h1).hypothesis

    return _model_reference(replica_config, replica_thresholds, brute_force_hypothesis,
                            {"baseline5": (5, 2.5)})


@pytest.mark.parametrize("method", sorted(TABLE_PERCENT_ERRORS))
def test_criterion_7_replica_percent_error(replica_result, replica_reference,
                                           replica_thresholds, method):
    """Hold each method's replica error to its model's exact error rate.

    The preset models the hardware deployment with independent one-shot
    measurements, exact parameter knowledge and a fixed-rate attack. The
    percentages in TABLE_PERCENT_ERRORS come from a physical system whose
    parameters the repository does not hold, so no correct simulation of
    this preset has to match them: the model's exact errors are far lower
    for oracle, 2sa and aglrt and far higher for oblivious and baseline5. What
    the program does promise is the exact error of the model it simulates,
    so each case checks the run against that, within 4 binomial standard
    deviations (exactly, for the replayed baseline5). The 2sa case also
    checks the paper's minimax guarantee: the simulated error may not
    exceed the certified worst-case bound by more than 4 sigma.
    """
    trials = replica_result.trials
    actual = replica_result.stats[method].error_rate
    exact, tolerance = replica_reference[method]
    assert abs(actual - exact) <= tolerance, (
        f"{method}: simulated {100 * actual:.3f}% vs the model's exact "
        f"{100 * exact:.3f}% (tolerance {100 * tolerance:.3f} pp at {trials} "
        f"trials; the physical deployment measured "
        f"{TABLE_PERCENT_ERRORS[method]:.1f}%)"
    )
    if method == "2sa":
        bound = replica_thresholds.worst_case_pe
        assert actual <= bound + _four_sigma(bound, trials), (
            f"2sa: simulated {100 * actual:.3f}% exceeds the certified "
            f"worst-case bound {100 * bound:.3f}% by more than 4 sigma"
        )


def test_criterion_7_replica_ordering(replica_result):
    rates = {name: stats.error_rate for name, stats in replica_result.stats.items()}
    assert rates["oracle"] < rates["aglrt"]
    assert rates["aglrt"] <= rates["2sa"]
    assert rates["2sa"] < rates["baseline5"]
    assert rates["2sa"] < rates["oblivious"]


# --- criterion 8: numerical-study sweep point checks ------------------------

@pytest.fixture(scope="module")
def study_results():
    raw = preset_config("numerical-study")
    assert raw["trials"] == 1000
    start = time.perf_counter()
    results = sweep_malicious_fraction(build_config(raw))
    elapsed = time.perf_counter() - start
    assert elapsed < 180, f"took {elapsed:.0f}s, budget is 180s"
    return {round(r.malicious_fraction, 2): r for r in results}


def test_criterion_8_majority_point_separation(study_results):
    stats = study_results[0.6].stats
    resilient = {name: 100 * stats[name].error_rate for name in ("2sa", "aglrt")}
    fragile = {name: 100 * stats[name].error_rate
               for name in ("oblivious", "baseline1", "baseline5")}
    for r_name, r_err in resilient.items():
        for f_name, f_err in fragile.items():
            assert r_err <= f_err - 10.0, (
                f"{r_name} ({r_err:.1f}%) not 10 pp better than "
                f"{f_name} ({f_err:.1f}%)"
            )


@pytest.fixture(scope="module")
def study_reference():
    """The numerical-study model's exact error rates at fraction 0.0, where
    no robot is malicious; aglrt's by the candidate scan, baseline1 and
    baseline5 replayed."""
    config = build_config(preset_config("numerical-study"))
    scenario = config.scenario
    assert scenario.n_malicious == 0 and config.sweep[0] == 0.0
    thresholds = optimize_thresholds(scenario.trust, scenario.sensors, config.two_stage,
                                     scenario.n, scenario.prior_h0, scenario.prior_h1)

    def scan_hypothesis(a, y):
        trial = Trial(xi=0, y=y, a=a, truth=(1,) * len(y))
        return candidate_scan_decide(trial, scenario.trust, scenario.sensors,
                                     scenario.prior_h0, scenario.prior_h1).hypothesis

    return _model_reference(config, thresholds, scan_hypothesis,
                            {"baseline1": (1, 0.5), "baseline5": (5, 2.5)})


def test_criterion_8_no_adversary_agreement(study_results, study_reference):
    """Without an adversary the methods with a closed-form model error agree
    within 3 pp, and every method's run matches its model.

    The spread is taken over the model's exact error rates, not over one
    run's counts: at 1000 trials a single binomial standard deviation of
    aglrt's rate is about 0.6 pp. Each run is held to its exact rate within
    4 standard deviations (the reputation baselines to their replay), as
    criterion 7 holds the replica.
    """
    stats = study_results[0.0].stats
    for name, (exact, tolerance) in study_reference.items():
        actual = stats[name].error_rate
        assert abs(actual - exact) <= tolerance, (
            f"{name}: simulated {100 * actual:.3f}% vs the model's exact "
            f"{100 * exact:.3f}% (tolerance {100 * tolerance:.3f} pp)"
        )
    model = [study_reference[name][0] for name in ("2sa", "aglrt", "oracle", "oblivious")]
    spread = 100 * (max(model) - min(model))
    assert spread <= 3.0, f"exact spread at fraction 0.0 is {spread:.2f} pp"


# --- criterion 9: byte-identical reproduction -------------------------------

def test_criterion_9_reproduce_determinism(tmp_path, capsys):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["reproduce", "numerical-study", "--out", str(out),
                     "--seed", "42"])
        assert code == 0
        outputs.append(out)
    capsys.readouterr()
    csv_pair = [(p / "numerical-study.csv").read_bytes() for p in outputs]
    svg_pair = [(p / "numerical-study.svg").read_bytes() for p in outputs]
    assert csv_pair[0] == csv_pair[1]
    assert svg_pair[0] == svg_pair[1]


# Outputs at seed 42. The hardware-replica ones are as the per-trial
# implementation wrote them; the numerical-study ones moved once, when aglrt
# began deciding every ratio in its tie band as the null hypothesis (2,450 ->
# 2,447 aglrt errors over 11,000 trials). Rewrites of the sampler or of a
# decider must reproduce them byte for byte.
PINNED_SHA256 = {
    "hardware-replica stream_digest":
        "a5e6f4fb38fc025d6fbffffc680060118091f1e936c3ae65f697626cd4512cfa",
    "hardware-replica.csv":
        "babb8bc202e2e170fc41af2cd3871f7acff12a49fc32de8f5372e6a8c3c0fe9f",
    "numerical-study.csv":
        "08ebd7f1b9854ff01094f2d5f478bd0fab07b74c59c12b6a64d5fed266dc8286",
    "numerical-study.svg":
        "359feda260ad00de72bc80115cf6cfbbc30d8d44a81c3d84921913a3ed16919b",
}


def test_criterion_9_outputs_pinned(tmp_path, replica_result, study_results):
    # both fixtures run their preset unchanged (seed 42), as reproduce does
    assert replica_result.seed == 42
    emit_csv([replica_result], tmp_path / "hardware-replica.csv")
    study = list(study_results.values())
    emit_csv(study, tmp_path / "numerical-study.csv")
    emit_plot(study, tmp_path / "numerical-study.svg")
    actual = {"hardware-replica stream_digest": replica_result.stream_digest}
    for name in PINNED_SHA256:
        if name.endswith((".csv", ".svg")):
            actual[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert actual == PINNED_SHA256

