"""Trial generation and experiment execution.

One root seed is split into named, independent substreams (trial generation,
trust tie-breaking, malicious-index placement), so every method sees exactly
the same trial stream and adding or removing a method never perturbs the
data. Experiments are therefore paired comparisons and byte-reproducible for
a fixed seed.
"""

from __future__ import annotations

import hashlib
import re
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .aglrt import aglrt_decide
from .baselines import oblivious_decide, oracle_decide, reputation_decide
from .models import _BLOCK, Scenario, Trial, ValidationError, log_prior_ratio
from .two_stage import (
    TwoStageConfig,
    classify_trust,
    decide_hypothesis,
    optimize_thresholds,
    run_two_stage,  # noqa: F401  -- unused here; bench/run.py traces this name
    worst_case_malicious_count,
)

__all__ = [
    "ExperimentConfig",
    "MethodStats",
    "ExperimentResult",
    "KNOWN_METHODS",
    "parse_method",
    "substream",
    "place_malicious",
    "sample_trials",
    "sample_trial",
    "run_experiment",
    "sweep_malicious_fraction",
]

# Spawn-key tags of the named substreams hanging off the root seed.
_STREAM_TRIALS = 0
_STREAM_TIES = 1
_STREAM_PLACEMENT = 2

_BASELINE_ALIASES = {"baseline1": (1, 0.5), "baseline5": (5, 2.5)}
_BASELINE_PATTERN = re.compile(r"^baseline\((\d+),([0-9.]+)\)$")
# Longest reputation history window accepted: no run the CLI admits is longer
# (it caps trials * n at 10**8), so a longer window would never drop a mark.
_MAX_WINDOW = 10**8

KNOWN_METHODS = ("2sa", "aglrt", "oracle", "oblivious", "baseline1", "baseline5")


def parse_method(name: str) -> tuple:
    """Resolve a method name to ``(kind, params)``.

    Accepts the fixed names plus ``baseline(T,eta)`` for arbitrary
    reputation parameters, with ``1 <= T <= 10**8`` and ``eta < T``.
    """
    if name in ("2sa", "aglrt", "oracle", "oblivious"):
        return name, None
    if name in _BASELINE_ALIASES:
        return "baseline", _BASELINE_ALIASES[name]
    match = _BASELINE_PATTERN.match(name)
    if not match:
        raise ValidationError(
            f"unknown method {name!r}; expected one of {KNOWN_METHODS} or 'baseline(T,eta)'"
        )
    window = int(match.group(1))
    try:
        threshold = float(match.group(2))
    except ValueError:
        raise ValidationError(
            f"method {name!r}: eta {match.group(2)!r} is not a number"
        ) from None
    if not 1 <= window <= _MAX_WINDOW:
        raise ValidationError(
            f"method {name!r}: history window T must lie in 1..{_MAX_WINDOW}"
        )
    if not threshold < window:
        raise ValidationError(f"method {name!r}: eta must be below the window T")
    return "baseline", (window, threshold)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to run one experiment or sweep."""

    scenario: Scenario
    two_stage: TwoStageConfig
    trials: int
    seed: int
    methods: tuple
    sweep: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValidationError(f"trial count {self.trials!r} must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed {self.seed!r} must be nonnegative")
        if not self.methods:
            raise ValidationError("no methods selected")
        for name in self.methods:
            parse_method(name)
        if self.sweep is not None:
            if len(self.sweep) == 0:
                raise ValidationError("sweep list is empty")
            if any(not 0.0 <= f <= 1.0 for f in self.sweep):
                raise ValidationError("sweep fractions must lie in [0, 1]")


@dataclass(frozen=True)
class MethodStats:
    """Aggregated per-method counts and rates for one experiment.

    ``mean_latency_s`` is the method's wall time over the whole point (one
    batch call; for ``2sa`` it includes the threshold optimization) divided
    by the trial count. It is informational and excluded from equality: two
    runs with the same seed produce identical counts but not identical
    timings.
    """

    trials: int
    n_h0: int
    n_h1: int
    errors: int
    fa_count: int
    md_count: int
    mean_latency_s: float = field(compare=False)

    @property
    def error_rate(self) -> float:
        return self.errors / self.trials

    @property
    def fa_rate(self) -> float:
        return self.fa_count / self.n_h0 if self.n_h0 else float("nan")

    @property
    def md_rate(self) -> float:
        return self.md_count / self.n_h1 if self.n_h1 else float("nan")


@dataclass(frozen=True)
class ExperimentResult:
    """Per-method statistics for one sweep point (or standalone run)."""

    malicious_fraction: float
    seed: int
    trials: int
    stats: dict
    stream_digest: str


def substream(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Independent generator for one named purpose under the root seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                        spawn_key=(stream, index)))


def sample_trials(scenario: Scenario, rng: np.random.Generator, count: int) -> tuple:
    """Draw ``count`` trials as arrays ``(xi, y, a_idx)``.

    ``xi`` is the ``(count,)`` event bits and ``y`` the ``(count, n)``
    reported measurements, both ``int8``; ``a_idx`` is the ``(count, n)``
    trust scores as positions in the scenario's alphabet, in the smallest
    unsigned integer type that holds them. Malicious robots measure with their raw
    error rates and then invert the bit with the flip probability; trust
    scores are drawn from the pmf of the robot's true type, independent of
    everything else.

    Each trial consumes ``3n + 1`` uniforms in a fixed order (event, raw
    errors, flips, scores), whatever the truth vector contains, so the
    stream stays aligned and ``count`` trials drawn at once equal ``count``
    draws of one; at most ``_BLOCK`` trials' uniforms are held at once. A
    score is the first symbol whose running pmf sum exceeds its uniform, and
    the last symbol if none does.
    """
    n = scenario.n
    sensors, attack, trust = scenario.sensors, scenario.attack, scenario.trust
    legit = np.array(scenario.truth, dtype=bool)
    cum_legit = np.cumsum(trust.pmf_legit)
    cum_malicious = np.cumsum(trust.pmf_malicious)
    last = len(trust.alphabet) - 1
    xi = np.empty(count, dtype=np.int8)
    y = np.empty((count, n), dtype=np.int8)
    a_idx = np.empty((count, n), dtype=np.min_scalar_type(last))
    for start in range(0, count, _BLOCK):
        u = rng.random((min(_BLOCK, count - start), 3 * n + 1))
        rows = slice(start, start + len(u))
        h1 = u[:, :1] < scenario.prior_h1
        u_raw, u_flip, u_score = u[:, 1:n + 1], u[:, n + 1:2 * n + 1], u[:, 2 * n + 1:]
        wrong_legit = u_raw < np.where(h1, sensors.p_md_l, sensors.p_fa_l)
        wrong_malicious = ((u_raw < np.where(h1, attack.p_md_m_raw, attack.p_fa_m_raw))
                           != (u_flip < attack.p_f))
        xi[rows] = h1[:, 0]
        y[rows] = h1 ^ np.where(legit, wrong_legit, wrong_malicious)
        a_idx[rows] = np.minimum(np.where(legit,
                                          np.searchsorted(cum_legit, u_score, "right"),
                                          np.searchsorted(cum_malicious, u_score, "right")),
                                 last)
    return xi, y, a_idx


def sample_trial(scenario: Scenario, rng: np.random.Generator) -> Trial:
    """Draw one trial: the one-row case of :func:`sample_trials`."""
    xi, y, a_idx = sample_trials(scenario, rng, 1)
    symbols = scenario.trust.alphabet
    return Trial(xi=int(xi[0]), y=tuple(y[0].tolist()),
                 a=tuple([symbols[j] for j in a_idx[0].tolist()]),
                 truth=tuple(scenario.truth))


# Rows whose token ids are gathered into bytes at once in _stream_digest.
_DIGEST_ROWS = 128


def _stream_digest(scenario: Scenario, stream: tuple) -> str:
    """SHA-256 over the concatenated ``repr`` of every trial, in stream order.

    A trial's bytes are ``repr((xi, y, a)).encode()`` with ``xi`` an int,
    ``y`` the tuple of reported bits and ``a`` the tuple of alphabet symbols
    (criterion 9 and ``bench/expected.json`` pin the resulting digests). They are assembled
    from a token table instead of formatted per row: every row is the same
    sequence of separator, bit and symbol tokens, so a ``(rows, 4n + 3)``
    array of token ids is filled from ``xi``, ``y`` and ``a_idx`` and the
    tokens' bytes are gathered with one ``np.repeat`` per chunk of rows.
    """
    xi, y, a_idx = stream
    n = scenario.n
    # ids 0-6 are fixed tokens, a symbol's id is 7 + its alphabet position;
    # a one-element tuple's repr has a trailing comma
    close_y, close_a = ("), (", "))") if n > 1 else (",), (", ",))")
    tokens = [b"(", b"0", b"1", b", (", b", ", close_y.encode(), close_a.encode()]
    tokens += [repr(symbol).encode() for symbol in scenario.trust.alphabet]
    table = np.frombuffer(b"".join(tokens), dtype=np.uint8)
    lengths = np.array([len(token) for token in tokens], dtype=np.int32)
    offsets = np.cumsum(lengths, dtype=np.int32) - lengths
    template = np.full(4 * n + 3, 4, dtype=np.int32)
    template[[0, 2, 2 * n + 2, 4 * n + 2]] = 0, 3, 5, 6
    h = hashlib.sha256()
    for start in range(0, len(xi), _DIGEST_ROWS):
        rows = slice(start, start + _DIGEST_ROWS)
        ids = np.tile(template, (len(xi[rows]), 1))
        ids[:, 1] = xi[rows] + 1
        ids[:, 3:2 * n + 2:2] = y[rows] + 1
        ids[:, 2 * n + 3:4 * n + 2:2] = a_idx[rows].astype(np.int32) + 7
        ids = ids.ravel()
        spans = lengths[ids]
        ends = np.cumsum(spans, dtype=np.int32)
        gather = np.repeat(offsets[ids] - (ends - spans), spans)
        gather += np.arange(len(gather), dtype=np.int32)
        h.update(table[gather].tobytes())
    return h.hexdigest()


def _aglrt_by_count_class(scenario: Scenario, stream: tuple):
    """aglrt's hypotheses, decided once per (score, report) count class.

    The A-GLRT statistic sees a trial only through how many robots share
    each (score, report) pair, up to the rounding of summing the robots in
    row order; every summed term is a log-probability <= 0, so reordering a
    row moves each branch value by about n ulps of it at most. So the first
    row with each distinct count vector is decided by :func:`aglrt_decide`
    and its hypothesis is copied to every other row with that vector. A
    class whose ``log_ratio`` lies within ``1e-9 * (1 + |log_num| +
    |log_den|)`` of the prior threshold is tied, and rounding decides it
    differently in different orders: each of its rows is decided on its
    own, so the hypotheses are bit for bit the row-by-row ones.

    Classes are keyed by row bytes: each ``_BLOCK`` slice's count vectors
    are viewed as one ``np.void`` item per row, and every row is looked up
    in one dict of the classes seen so far.
    """
    xi, y, a_idx = stream
    trust = scenario.trust
    symbols = trust.alphabet
    width = 2 * len(symbols)
    threshold = log_prior_ratio(scenario.prior_h0, scenario.prior_h1)

    def decide_row(t: int):
        trial = Trial(xi=int(xi[t]), y=tuple(y[t].tolist()),
                      a=tuple([symbols[j] for j in a_idx[t].tolist()]),
                      truth=scenario.truth)
        return aglrt_decide(trial, trust, scenario.sensors,
                            scenario.prior_h0, scenario.prior_h1)

    def class_hypothesis(t: int) -> int:
        outcome = decide_row(t)
        d = outcome.diagnostics
        band = 1e-9 * (1.0 + abs(d["log_num"]) + abs(d["log_den"]))
        return -1 if abs(d["log_ratio"] - threshold) <= band else outcome.hypothesis

    classes = {}  # count vector bytes -> hypothesis, or -1 for a tie
    hypotheses = np.empty(len(xi), dtype=np.int8)
    for start in range(0, len(xi), _BLOCK):
        rows = slice(start, start + _BLOCK)
        codes = 2 * a_idx[rows].astype(np.intp) + y[rows]
        codes += width * np.arange(len(codes))[:, None]
        counts = np.bincount(codes.ravel(), minlength=width * len(codes))
        keys = counts.view(np.dtype((np.void, width * counts.itemsize))).tolist()
        for row, key in enumerate(keys):
            if key not in classes:
                classes[key] = class_hypothesis(start + row)
        hypotheses[rows] = [classes[key] for key in keys]
        for row in np.flatnonzero(hypotheses[rows] < 0).tolist():
            hypotheses[start + row] = decide_row(start + row).hypothesis
    return hypotheses


def _decide(name: str, config: ExperimentConfig, point_index: int, stream: tuple):
    """One method's hypotheses over a point's whole ``(xi, y, a_idx)`` stream.

    The two-stage tie-breaks draw from their own substream, so the trial
    stream itself is never touched.
    """
    scenario = config.scenario
    gamma_ts = scenario.gamma_ts
    _, y, a_idx = stream
    kind, params = parse_method(name)
    if kind == "2sa":
        thresholds = optimize_thresholds(
            scenario.trust, scenario.sensors, config.two_stage, scenario.n,
            scenario.prior_h0, scenario.prior_h1,
        )
        tie_rng = substream(config.seed, _STREAM_TIES, point_index)
        t_hat = classify_trust(scenario.trust, thresholds.gamma_t, thresholds.p_t,
                               a_idx, tie_rng)
        return decide_hypothesis(y, t_hat, scenario.sensors, gamma_ts)
    if kind == "aglrt":
        return _aglrt_by_count_class(scenario, stream)
    if kind == "oracle":
        return oracle_decide(y, scenario.truth, scenario.sensors, gamma_ts)
    if kind == "oblivious":
        return oblivious_decide(y, scenario.sensors, gamma_ts)
    window, threshold = params
    return reputation_decide(y, scenario.sensors, gamma_ts, window, threshold)


def run_experiment(config: ExperimentConfig, point_index: int = 0) -> ExperimentResult:
    """Run every configured method over one shared trial stream.

    The stream is drawn once as arrays and every method decides all of it
    (paired comparison); per-method wall time, two-stage threshold
    optimization included, is averaged into the result.
    """
    scenario = config.scenario
    rng = substream(config.seed, _STREAM_TRIALS, point_index)
    stream = sample_trials(scenario, rng, config.trials)
    xi = stream[0]
    h1 = xi == 1
    n_h1 = int(np.count_nonzero(h1))
    stats = {}
    for name in config.methods:
        start = time.perf_counter()
        wrong = _decide(name, config, point_index, stream) != xi
        elapsed = time.perf_counter() - start
        fa_count = int(np.count_nonzero(wrong & ~h1))
        md_count = int(np.count_nonzero(wrong & h1))
        stats[name] = MethodStats(
            trials=config.trials, n_h0=config.trials - n_h1, n_h1=n_h1,
            errors=fa_count + md_count, fa_count=fa_count, md_count=md_count,
            mean_latency_s=elapsed / config.trials,
        )
    return ExperimentResult(
        malicious_fraction=scenario.malicious_fraction,
        seed=config.seed,
        trials=config.trials,
        stats=stats,
        stream_digest=_stream_digest(scenario, stream),
    )


def place_malicious(scenario: Scenario, count: int, seed: int,
                    index: int = 0) -> Scenario:
    """Scenario with ``count`` malicious robots at seeded-shuffled indices.

    The decision rules are exchangeable across robot indices, so shuffling
    the placement guards against accidental position dependence without
    affecting statistics. ``aglrt`` is exchangeable only outside its tie
    band: a trial whose log-likelihood ratio is within rounding of the
    prior threshold can be decided either way depending on robot order.
    """
    if not 0 <= count <= scenario.n:
        raise ValidationError(f"malicious count {count!r} outside 0..{scenario.n}")
    rng = substream(seed, _STREAM_PLACEMENT, index)
    order = rng.permutation(scenario.n)
    truth = [1] * scenario.n
    for i in order[:count]:
        truth[i] = 0
    return replace(scenario, truth=tuple(truth))


def _scenario_at_fraction(config: ExperimentConfig, fraction: float,
                          point_index: int) -> Scenario:
    n_mal = worst_case_malicious_count(fraction, config.scenario.n)
    return place_malicious(config.scenario, n_mal, config.seed, point_index)


def sweep_malicious_fraction(config: ExperimentConfig) -> list:
    """Run one experiment per configured malicious fraction.

    Each point rebuilds the truth vector for its fraction and hands the
    two-stage optimizer that same fraction as its proportion bound.
    """
    if config.sweep is None:
        raise ValidationError("config has no sweep fractions")
    results = []
    for j, fraction in enumerate(config.sweep):
        point_scenario = _scenario_at_fraction(config, fraction, j)
        point_config = replace(
            config,
            scenario=point_scenario,
            two_stage=replace(config.two_stage, m_bar=fraction),
            sweep=None,
        )
        result = run_experiment(point_config, point_index=j)
        results.append(replace(result, malicious_fraction=fraction))
    return results
