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
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .aglrt import (
    aglrt_decide,  # noqa: F401  -- unused here; bench/run.py traces this name
    aglrt_hypotheses,
)
from .baselines import oblivious_decide, oracle_decide, reputation_decide
from .models import _BLOCK, Scenario, Trial, ValidationError
from .two_stage import (
    ThresholdChoice,
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
        if len(set(self.methods)) < len(self.methods):
            raise ValidationError(f"duplicate methods in {list(self.methods)!r}")
        if self.sweep is not None:
            if len(self.sweep) == 0:
                raise ValidationError("sweep list is empty")
            if any(not 0.0 <= f <= 1.0 for f in self.sweep):
                raise ValidationError("sweep fractions must lie in [0, 1]")
            if len(set(self.sweep)) < len(self.sweep):
                raise ValidationError(f"duplicate sweep fractions in {list(self.sweep)!r}")


@dataclass(frozen=True)
class MethodStats:
    """One method's counts over a point's trials; the totals and the rates
    are derived from them."""

    n_h0: int
    n_h1: int
    fa_count: int
    md_count: int

    @property
    def trials(self) -> int:
        return self.n_h0 + self.n_h1

    @property
    def errors(self) -> int:
        return self.fa_count + self.md_count

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
    """Per-method statistics for one sweep point (or standalone run), and the
    thresholds ``2sa`` decided it with (``None`` when ``2sa`` did not run)."""

    malicious_fraction: float
    seed: int
    stats: dict
    stream_digest: str
    thresholds: Optional[ThresholdChoice]


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

    Every robot is drawn by one rule from its column of
    :attr:`Scenario.sampler_columns`: a report is wrong when its raw uniform
    is below its rate under the event, exclusive-or its flip uniform is below
    its flip rate (0.0 for a legitimate robot, which never flips). A score's
    position counts the ``|A| - 1`` bins (the running sums but the last) at
    or below its uniform; the sums never decrease, so that count is the
    first symbol whose sum exceeds the uniform, capped at the last.
    """
    n = scenario.n
    columns = scenario.sampler_columns
    wrong_h0, wrong_h1, flip, bins = columns[0], columns[1], columns[2], columns[3:]
    xi = np.empty(count, dtype=np.int8)
    y = np.empty((count, n), dtype=np.int8)
    a_idx = np.empty((count, n), dtype=np.min_scalar_type(len(bins)))
    for start in range(0, count, _BLOCK):
        u = rng.random((min(_BLOCK, count - start), 3 * n + 1))
        rows = slice(start, start + len(u))
        h1 = u[:, :1] < scenario.prior_h1
        u_raw, u_flip, u_score = u[:, 1:n + 1], u[:, n + 1:2 * n + 1], u[:, 2 * n + 1:]
        xi[rows] = h1[:, 0]
        y[rows] = h1 ^ ((u_raw < np.where(h1, wrong_h1, wrong_h0)) != (u_flip < flip))
        scores = a_idx[rows]
        np.greater_equal(u_score, bins[0], out=scores)
        for edge in bins[1:]:
            scores += u_score >= edge
    return xi, y, a_idx


def sample_trial(scenario: Scenario, rng: np.random.Generator) -> Trial:
    """Draw one trial: the one-row case of :func:`sample_trials`."""
    xi, y, a_idx = sample_trials(scenario, rng, 1)
    symbols = scenario.trust.alphabet
    return Trial(xi=int(xi[0]), y=tuple(y[0].tolist()),
                 a=tuple([symbols[j] for j in a_idx[0].tolist()]),
                 truth=tuple(scenario.truth))


# Bytes of digest rows formatted at once in _stream_digest.
_DIGEST_BYTES = 1 << 16
# Pads the symbol cells in _stream_digest; UTF-8 text never contains it.
_PAD = b"\xff"


def _stream_digest(scenario: Scenario, stream: tuple) -> str:
    """SHA-256 over the concatenated ``repr`` of every trial, in stream order.

    A trial's bytes are ``repr((xi, y, a)).encode()``, with ``y`` and ``a``
    tuples of bits and symbols; criterion 9 and ``bench/expected.json`` pin
    the digests. A chunk of rows is one fixed-width byte array: the head
    ``(0, (0, ..., 0), (`` with ``xi`` and ``y`` added into its digit slots,
    one cell per robot (its symbol's bytes and ``", "``, left-padded with
    ``_PAD`` to the widest symbol's) and the closing bytes over the last
    separator. A byte column of the cells that is the same for every symbol
    is written once; each other one is gathered from ``a_idx``. Pads occur,
    and are dropped, only when some symbol is narrower than the widest.
    """
    xi, y, a_idx = stream
    n = scenario.n
    # a one-element tuple's repr has a trailing comma
    comma = "," if n == 1 else ""
    head = f"(0, ({', '.join('0' * n)}{comma}), (".encode()
    close = np.frombuffer(f"{comma}))".encode(), dtype=np.uint8)
    symbols = [repr(symbol).encode() + b", " for symbol in scenario.trust.alphabet]
    width = max(map(len, symbols))
    padded = any(len(s) < width for s in symbols)
    cells = np.frombuffer(b"".join(s.rjust(width, _PAD) for s in symbols),
                          dtype=np.uint8).reshape(len(symbols), width)
    cells_end = len(head) + n * width
    row_width = cells_end - 2 + len(close)
    chunk = np.empty((max(1, min(len(xi), _DIGEST_BYTES // row_width)), row_width),
                     dtype=np.uint8)
    chunk[:, :len(head)] = np.frombuffer(head, dtype=np.uint8)
    gathered = []
    for k, column in enumerate(cells.T):
        slots = chunk[:, len(head) + k:cells_end:width]
        if (column == column[0]).all():
            slots[:] = column[0]
        else:
            gathered.append((slots, column))
    chunk[:, cells_end - 2:] = close
    h = hashlib.sha256()
    for start in range(0, len(xi), len(chunk)):
        part = slice(start, start + len(chunk))
        rows = chunk[:len(xi[part])]
        rows[:, 1] = xi[part] + ord("0")
        rows[:, 5:3 * n + 5:3] = y[part] + ord("0")
        for slots, column in gathered:
            slots[:len(rows)] = column[a_idx[part]]
        h.update(rows.tobytes().translate(None, _PAD) if padded else rows)
    return h.hexdigest()


def _decide(name: str, config: ExperimentConfig, point_index: int,
            stream: tuple, thresholds: Optional[ThresholdChoice]) -> np.ndarray:
    """One method's hypotheses over a point's whole ``(xi, y, a_idx)`` stream;
    ``2sa`` classifies at ``thresholds``, which every other method ignores.

    The two-stage tie-breaks draw from their own substream, so the trial
    stream itself is never touched.
    """
    scenario = config.scenario
    gamma_ts = scenario.gamma_ts
    _, y, a_idx = stream
    kind, params = parse_method(name)
    if kind == "2sa":
        tie_rng = substream(config.seed, _STREAM_TIES, point_index)
        t_hat = classify_trust(scenario.trust, thresholds.gamma_t, thresholds.p_t,
                               a_idx, tie_rng)
        return decide_hypothesis(y, t_hat, scenario.sensors, gamma_ts)
    if kind == "aglrt":
        return aglrt_hypotheses(y, a_idx, scenario.trust, scenario.sensors,
                                scenario.prior_h0, scenario.prior_h1)
    if kind == "oracle":
        return oracle_decide(y, scenario.truth, scenario.sensors, gamma_ts)
    if kind == "oblivious":
        return oblivious_decide(y, scenario.sensors, gamma_ts)
    window, threshold = params
    return reputation_decide(y, scenario.sensors, gamma_ts, window, threshold)


def run_experiment(config: ExperimentConfig, point_index: int = 0) -> ExperimentResult:
    """Run every configured method over one shared trial stream.

    ``2sa``'s thresholds are scanned once, before the stream is drawn. The
    stream is drawn once as arrays and every method decides all of it
    (paired comparison).
    """
    scenario = config.scenario
    thresholds = None
    if "2sa" in config.methods:
        thresholds = optimize_thresholds(
            scenario.trust, scenario.sensors, config.two_stage, scenario.n,
            scenario.prior_h0, scenario.prior_h1,
        )
    rng = substream(config.seed, _STREAM_TRIALS, point_index)
    stream = sample_trials(scenario, rng, config.trials)
    xi = stream[0]
    h1 = xi == 1
    n_h1 = int(np.count_nonzero(h1))
    stats = {}
    for name in config.methods:
        wrong = _decide(name, config, point_index, stream, thresholds) != xi
        stats[name] = MethodStats(
            n_h0=config.trials - n_h1, n_h1=n_h1,
            fa_count=int(np.count_nonzero(wrong & ~h1)),
            md_count=int(np.count_nonzero(wrong & h1)),
        )
    return ExperimentResult(
        malicious_fraction=scenario.malicious_fraction,
        seed=config.seed,
        stats=stats,
        stream_digest=_stream_digest(scenario, stream),
        thresholds=thresholds,
    )


def place_malicious(scenario: Scenario, count: int, seed: int,
                    index: int = 0) -> Scenario:
    """Scenario with ``count`` malicious robots at seeded-shuffled indices.

    The decision rules are exchangeable across robot indices, so shuffling
    the placement guards against accidental position dependence without
    affecting statistics.
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
