"""Shared value types: trust-score models, sensor noise, scenarios, trials.

Everything here is an immutable value object validated at construction, so
instances can be shared freely across threads and used as cache keys.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

__all__ = [
    "ValidationError",
    "TrustModel",
    "LegitimateSensorModel",
    "MaliciousStrategy",
    "Scenario",
    "Trial",
    "DecisionOutcome",
    "effective_malicious_probs",
    "ratio_set",
    "log_prior_ratio",
]

_PMF_SUM_TOL = 1e-9
_PRIOR_SUM_TOL = 1e-12

# Rows handled at once wherever a ``(T, n)`` trial stream is drawn or walked,
# so a pass holds one block's intermediates whatever T is.
_BLOCK = 1024

# Largest robot count accepted: the largest N at which aglrt_decide has been
# timed. The CLI checks it before sizing a run and the minimax scan before
# building its O(N^2) tables; the A-GLRT, whose work is linear in N, checks
# it before its class search.
_MAX_ROBOTS = 1000


class ValidationError(ValueError):
    """A value object violates one of its declared invariants."""


@dataclass(frozen=True)
class TrustModel:
    """Finite-alphabet conditional distribution of one-shot trust scores.

    ``pmf_legit[j]`` is the probability that a legitimate sender emits
    ``alphabet[j]``, and ``pmf_malicious[j]`` the same for a malicious
    sender. Both pmfs must put strictly positive mass on every symbol and
    must differ somewhere, otherwise the score carries no information.

    Per-symbol likelihood ratios are computed once and reused everywhere, so
    threshold ties downstream are detected by exact float equality of values
    that originate from the same computation.
    """

    alphabet: tuple
    pmf_legit: tuple
    pmf_malicious: tuple

    def __post_init__(self) -> None:
        if len(self.alphabet) == 0:
            raise ValidationError("trust alphabet is empty")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValidationError("trust alphabet has duplicate symbols")
        for name, pmf in (("pmf_legit", self.pmf_legit),
                          ("pmf_malicious", self.pmf_malicious)):
            if len(pmf) != len(self.alphabet):
                raise ValidationError(f"{name} length != alphabet length")
            if not all(0.0 <= q <= 1.0 for q in pmf):
                raise ValidationError(f"{name} has entries outside [0, 1] or NaN")
            if abs(sum(pmf) - 1.0) > _PMF_SUM_TOL:
                raise ValidationError(f"{name} does not sum to 1: {sum(pmf)!r}")
        for sym, ql, qm in zip(self.alphabet, self.pmf_legit, self.pmf_malicious):
            if ql * qm == 0.0 or ql * qm == 1.0:
                raise ValidationError(
                    f"symbol {sym!r} is degenerate: pmf product {ql * qm!r} "
                    "must lie strictly inside (0, 1)"
                )
        if all(ql == qm for ql, qm in zip(self.pmf_legit, self.pmf_malicious)):
            raise ValidationError("trust pmfs are identical: scores carry no information")

    @cached_property
    def _index(self) -> dict:
        return {sym: j for j, sym in enumerate(self.alphabet)}

    @cached_property
    def ratios(self) -> tuple:
        """Per-symbol likelihood ratio p(a|legit) / p(a|malicious)."""
        return tuple(ql / qm for ql, qm in zip(self.pmf_legit, self.pmf_malicious))

    @cached_property
    def log_pmf_legit(self) -> tuple:
        return tuple(math.log(q) for q in self.pmf_legit)

    @cached_property
    def log_pmf_malicious(self) -> tuple:
        return tuple(math.log(q) for q in self.pmf_malicious)

    def symbol_index(self, a) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise ValidationError(f"symbol {a!r} not in trust alphabet") from None

    def symbol_positions(self, symbols) -> list:
        """Alphabet positions of ``symbols``, as :meth:`symbol_index` gives
        them, in one pass; an unknown symbol raises the same error."""
        try:
            return list(map(self._index.__getitem__, symbols))
        except KeyError:
            return [self.symbol_index(a) for a in symbols]


@dataclass(frozen=True)
class LegitimateSensorModel:
    """False-alarm / missed-detection rates of one legitimate sensor, each in
    ``[sys.float_info.min, 0.5)`` so that both fusion weights are finite."""

    p_fa_l: float
    p_md_l: float

    def __post_init__(self) -> None:
        for name, p in (("p_fa_l", self.p_fa_l), ("p_md_l", self.p_md_l)):
            if not sys.float_info.min <= p < 0.5:
                raise ValidationError(f"{name}={p!r} outside [{sys.float_info.min!r}, 0.5)")


@dataclass(frozen=True)
class MaliciousStrategy:
    """Reporting behavior of malicious robots.

    A malicious robot first measures with its own raw false-alarm and
    missed-detection rates, then inverts the bit with probability ``p_f``
    before reporting.
    """

    p_fa_m_raw: float
    p_md_m_raw: float
    p_f: float

    def __post_init__(self) -> None:
        for name, p in (("p_fa_m_raw", self.p_fa_m_raw), ("p_md_m_raw", self.p_md_m_raw)):
            if not 0.0 <= p < 0.5:
                raise ValidationError(f"{name}={p!r} outside [0, 0.5)")
        if not 0.0 <= self.p_f <= 1.0:
            raise ValidationError(f"p_f={self.p_f!r} outside [0, 1]")


@dataclass(frozen=True)
class Scenario:
    """One fully specified network: ground truth (1 legitimate, 0 malicious;
    its length is the robot count ``n``), priors and models."""

    truth: tuple
    prior_h0: float
    prior_h1: float
    sensors: LegitimateSensorModel
    attack: MaliciousStrategy
    trust: TrustModel

    def __post_init__(self) -> None:
        if not self.truth:
            raise ValidationError("truth vector is empty")
        if any(t not in (0, 1) for t in self.truth):
            raise ValidationError("truth vector entries must be 0 or 1")
        for name, p in (("prior_h0", self.prior_h0), ("prior_h1", self.prior_h1)):
            if not 0.0 < p < 1.0:
                raise ValidationError(f"{name}={p!r} outside the open interval (0, 1)")
        _check_prior_sum(self.prior_h0, self.prior_h1)

    @cached_property
    def sampler_columns(self) -> np.ndarray:
        """Read-only ``(|A| + 2, n)`` table of each robot's sampling rates,
        taken from its own type: row 0 its wrong-report rate under H0, row 1
        under H1 (a malicious robot's raw rates), row 2 its flip rate (0.0 for
        a legitimate robot, which never flips) and rows 3 on the first
        ``|A| - 1`` running sums of its type's pmf, in alphabet order."""
        sensors, attack, trust = self.sensors, self.attack, self.trust
        # row t holds the rates of a robot whose truth value is t
        by_type = np.array([
            [attack.p_fa_m_raw, attack.p_md_m_raw, attack.p_f,
             *np.cumsum(trust.pmf_malicious)[:-1]],
            [sensors.p_fa_l, sensors.p_md_l, 0.0, *np.cumsum(trust.pmf_legit)[:-1]],
        ])
        return _read_only(np.take(by_type.T, self.truth, axis=1))

    @property
    def n(self) -> int:
        return len(self.truth)

    @property
    def n_malicious(self) -> int:
        return self.n - sum(self.truth)

    @property
    def malicious_fraction(self) -> float:
        return self.n_malicious / self.n

    @property
    def gamma_ts(self) -> float:
        """Log prior ratio used as the fusion threshold."""
        return log_prior_ratio(self.prior_h0, self.prior_h1)


@dataclass(frozen=True)
class Trial:
    """One-shot realization seen by the fusion center (plus ground truth)."""

    xi: int
    y: tuple
    a: tuple
    truth: tuple

    def __post_init__(self) -> None:
        if self.xi not in (0, 1):
            raise ValidationError(f"event bit {self.xi!r} must be 0 or 1")
        if not (len(self.y) == len(self.a) == len(self.truth)):
            raise ValidationError("measurement, score and truth vectors differ in length")
        if any(b not in (0, 1) for b in self.y):
            raise ValidationError("measurements must be 0/1 bits")

    @property
    def n(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class DecisionOutcome:
    """Result of one decision: hypothesis plus per-method extras.

    ``t_hat`` is the estimated trust vector when the method produces one,
    ``adversary_estimate`` the estimated malicious reporting rate (GLRT
    only), and ``diagnostics`` a map of named scalars such as the fused
    log-likelihood statistic.
    """

    hypothesis: int
    t_hat: Optional[tuple] = None
    adversary_estimate: Optional[float] = None
    diagnostics: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.hypothesis not in (0, 1):
            raise ValidationError(f"hypothesis {self.hypothesis!r} must be 0 or 1")


def effective_malicious_probs(strategy: MaliciousStrategy) -> tuple:
    """Reporting rates of a malicious robot after the random bit flip.

    Returns ``(p_fa_m, p_md_m)``: each is the raw rate mixed with its
    complement according to the flip probability.
    """
    pf = strategy.p_f
    p_fa = (1.0 - pf) * strategy.p_fa_m_raw + pf * (1.0 - strategy.p_fa_m_raw)
    p_md = (1.0 - pf) * strategy.p_md_m_raw + pf * (1.0 - strategy.p_md_m_raw)
    return p_fa, p_md


def ratio_set(model: TrustModel) -> list:
    """Sorted, deduplicated per-symbol likelihood ratios.

    This finite set is sufficient as the search space for the trust
    threshold: moving the threshold between two consecutive ratios never
    changes which symbols clear it.
    """
    return sorted(set(model.ratios))


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only so that a memoised copy cannot be changed."""
    array.flags.writeable = False
    return array


def _check_prior_sum(prior_h0: float, prior_h1: float) -> None:
    """Refuse priors that do not sum to 1 within ``_PRIOR_SUM_TOL``."""
    if not abs(prior_h0 + prior_h1 - 1.0) <= _PRIOR_SUM_TOL:
        raise ValidationError(f"priors sum to {prior_h0 + prior_h1!r}, expected 1")


def log_prior_ratio(prior_h0: float, prior_h1: float) -> float:
    """ln(prior_h0 / prior_h1), the fusion decision threshold.

    Both priors must lie strictly inside (0, 1) and sum to 1 within
    ``_PRIOR_SUM_TOL``, else :class:`ValidationError`.
    """
    if not (0.0 < prior_h0 < 1.0 and 0.0 < prior_h1 < 1.0):
        raise ValidationError("priors must lie strictly inside (0, 1)")
    _check_prior_sum(prior_h0, prior_h1)
    return math.log(prior_h0) - math.log(prior_h1)
