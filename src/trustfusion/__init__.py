"""Trust-aware resilient hypothesis testing for adversarial robot networks.

A fusion center receives one-shot binary measurements plus stochastic trust
scores from a network that may contain a malicious majority. This package
provides two resilient deciders (a minimax two-stage pipeline and a
generalized likelihood ratio test with joint adversary estimation), the
usual reference baselines, exact worst-case error computation, and a
seeded experiment harness with a CLI.
"""

__version__ = "0.1.0"

from .models import (
    DecisionOutcome,
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
from .two_stage import (
    ThresholdChoice,
    TwoStageConfig,
    classify_trust,
    decide_hypothesis,
    fusion_weights,
    optimize_thresholds,
    run_two_stage,
    trust_probabilities,
)
from .aglrt import aglrt_decide, brute_force_glrt
from .baselines import oblivious_decide, oracle_decide, reputation_decide
from .simulator import (
    ExperimentConfig,
    ExperimentResult,
    MethodStats,
    run_experiment,
    sample_trial,
    sample_trials,
    sweep_malicious_fraction,
)

__all__ = [
    "__version__",
    "DecisionOutcome",
    "LegitimateSensorModel",
    "MaliciousStrategy",
    "Scenario",
    "Trial",
    "TrustModel",
    "ValidationError",
    "effective_malicious_probs",
    "log_prior_ratio",
    "ratio_set",
    "ThresholdChoice",
    "TwoStageConfig",
    "classify_trust",
    "decide_hypothesis",
    "fusion_weights",
    "optimize_thresholds",
    "run_two_stage",
    "trust_probabilities",
    "aglrt_decide",
    "brute_force_glrt",
    "oblivious_decide",
    "oracle_decide",
    "reputation_decide",
    "ExperimentConfig",
    "ExperimentResult",
    "MethodStats",
    "run_experiment",
    "sample_trial",
    "sample_trials",
    "sweep_malicious_fraction",
]
