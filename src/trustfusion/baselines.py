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

import math
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
    (ones, trusted) counts. Report and mark rows are bitmasks with bit ``i``
    for robot ``i``, and the mark counts live in bit planes: plane ``j`` is
    the mask of robots whose count plus a common bias has bit ``j`` set. A
    trial's marks go in with a ripple carry and the marks leaving the window
    come out with a ripple borrow. A count never exceeds ``min(window, T)``,
    so ``b = min(window, T).bit_length()`` planes hold it, and with the bias
    ``2^b - ceil(threshold)`` the robots at or over the threshold are
    exactly the mask of one more, top plane. The reports are read one
    ``_BLOCK`` slice at a time.
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
    everyone = (1 << n) - 1
    # Counts are whole, so count >= threshold iff count >= limit. A count
    # never exceeds top, and when the window outlasts the stream no count
    # reaches T before the last decision, so capping the limit at T changes
    # no decision.
    top = min(window, trials)
    width = top.bit_length()
    limit = min(math.ceil(max(threshold, 0)), top)
    # planes[j] is the mask of robots with bit j set in count + bias; the
    # biased count lies in [bias, 2^width + top - limit], so it reaches the
    # top plane exactly when count >= limit
    bias = (1 << width) - limit
    planes = [everyone if bias >> j & 1 else 0 for j in range(width + 1)]
    history = deque()
    hypotheses = np.empty(trials, dtype=np.int8)
    for start in range(0, trials, _BLOCK):
        block = []
        for row in np.packbits(y[start:start + _BLOCK], axis=1, bitorder="little"):
            row = int.from_bytes(row, "little")
            included = everyone ^ planes[width]
            decision = accepts[(row & included).bit_count()][included.bit_count()]
            marks = row ^ everyone if decision else row
            if len(history) == window:
                borrow, j = history.popleft(), 0
                while borrow:
                    planes[j] ^= borrow
                    borrow &= planes[j]
                    j += 1
            history.append(marks)
            carry, j = marks, 0
            while carry:
                planes[j] ^= carry
                carry &= ~planes[j]
                j += 1
            block.append(decision)
        hypotheses[start:start + len(block)] = block
    return hypotheses
