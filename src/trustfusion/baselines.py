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

from collections import deque

import numpy as np

from .models import _BLOCK, LegitimateSensorModel, ValidationError
from .two_stage import accepts_h1, decide_hypothesis, fusion_weights

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

    The fused rule is one ``(n+1)^2`` table of :func:`accepts_h1` over
    (ones, trusted) counts, and each robot's mark count is a running total
    over the mark rows of the last ``min(window, t)`` trials; the reports
    are read one ``_BLOCK`` slice at a time.
    """
    if window < 1:
        raise ValidationError(f"history window {window!r} must be >= 1")
    if not threshold < window:
        raise ValidationError(
            f"exclusion threshold {threshold!r} must be below the window size {window!r}"
        )
    y = np.asarray(y)
    trials, n = y.shape
    w1, w0 = fusion_weights(sensors)
    k = np.arange(n + 1)
    # accepts[ones][trusted]
    accepts = accepts_h1(k[:, None], k[None, :], gamma_ts, w1, w0).astype(int).tolist()
    history = deque()
    marked = [0] * n
    hypotheses = np.empty(trials, dtype=np.int8)
    for start in range(0, trials, _BLOCK):
        block = []
        for row in y[start:start + _BLOCK].tolist():
            ones = trusted = 0
            for count, report in zip(marked, row):
                if count < threshold:
                    trusted += 1
                    ones += report
            decision = accepts[ones][trusted]
            marks = bytes([report != decision for report in row])
            history.append(marks)
            if len(history) > window:
                expired = history.popleft()
                marked = [c + m - e for c, m, e in zip(marked, marks, expired)]
            else:
                marked = [c + m for c, m in zip(marked, marks)]
            block.append(decision)
        hypotheses[start:start + len(block)] = block
    return hypotheses
