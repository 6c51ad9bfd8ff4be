"""Reference deciders: clairvoyant oracle, oblivious fusion, reputation.

All three reuse the standard fused decision rule; they differ only in which
robots they include. The reputation decider keeps a rolling per-robot history
of agreement with its own past decisions and drops robots that disagreed too
often, which is the classic data-driven defense that assumes an honest
majority.

Each decider takes a ``(T, n)`` stack of reports, one trial per row, and
returns the ``(T,)`` hypotheses.
"""

from __future__ import annotations

import numpy as np

from .models import LegitimateSensorModel, ValidationError
from .two_stage import decide_hypothesis

__all__ = [
    "oracle_decide",
    "oblivious_decide",
    "reputation_decide",
]


def oracle_decide(y, truth, sensors: LegitimateSensorModel, gamma_ts: float):
    """Clairvoyant reference: fuses legitimate robots only (truth known)."""
    return decide_hypothesis(y, truth, sensors, gamma_ts)


def oblivious_decide(y, sensors: LegitimateSensorModel, gamma_ts: float):
    """Trusts every robot."""
    return decide_hypothesis(y, np.ones(np.shape(y)[-1], dtype=np.int8), sensors,
                             gamma_ts)


def reputation_decide(y, sensors: LegitimateSensorModel, gamma_ts: float,
                      window: int, threshold: float):
    """Reputation-filtered decisions, one trial after another.

    Every robot keeps 0/1 marks of disagreement with the decider's own past
    decisions, at most ``window`` of them. A robot with at least
    ``threshold`` marks inside the window is excluded from the next
    decision and re-admitted once its count drops back below the threshold.
    After each decision every robot, excluded or not, is marked by whether
    its report disagreed with it.
    """
    if window < 1:
        raise ValidationError(f"history window {window!r} must be >= 1")
    if not threshold < window:
        raise ValidationError(
            f"exclusion threshold {threshold!r} must be below the window size {window!r}"
        )
    y = np.asarray(y)
    # row t % window holds the marks of trial t until trial t + window
    marks = np.zeros((window, y.shape[1]), dtype=np.int8)
    hypotheses = np.empty(len(y), dtype=np.int8)
    for t, y_t in enumerate(y):
        hypotheses[t] = decide_hypothesis(y_t, marks.sum(axis=0) < threshold, sensors,
                                          gamma_ts)
        marks[t % window] = y_t != hypotheses[t]
    return hypotheses
