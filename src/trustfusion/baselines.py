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
from .two_stage import _fewest_accepted, decide_hypothesis

__all__ = [
    "oracle_decide",
    "oblivious_decide",
    "reputation_decide",
]


def oracle_decide(y, truth, sensors: LegitimateSensorModel, gamma_ts: float):
    """Clairvoyant reference: fuses legitimate robots only (truth known).

    ``truth`` holds one 0/1 entry per robot; any other entry raises
    :class:`ValidationError`.
    """
    if not np.isin(truth, (0, 1)).all():
        raise ValidationError(f"truth vector entries must be 0 or 1, got {truth!r}")
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

    The fused rule decides for the event iff ``ones >= o[trusted]``. The mark
    counts are one packed int with robot ``i``'s count in the ``f``-bit field
    at bit ``i*f``, ``f`` the width of the smallest unsigned type holding
    ``2*min(window, T)``. Each field starts at ``2^(f-1) - ceil(threshold)``
    and a count never exceeds ``min(window, T)``, so no field spills into the
    next and a field's top bit is set iff its count reached the threshold.
    Cast to that type, a row of reports is already a packed int in this
    layout, so a trial's marks go in with one add and the marks leaving the
    window come out with one subtract.
    """
    if window < 1:
        raise ValidationError(f"history window {window!r} must be >= 1")
    if not threshold < window:
        raise ValidationError(
            f"exclusion threshold {threshold!r} must be below the window size {window!r}"
        )
    y = np.asarray(y)
    trials, n = y.shape
    fewest = _fewest_accepted(n, gamma_ts, sensors)
    # Counts are whole, so count >= threshold iff count >= limit. A count
    # never exceeds top, and when the window outlasts the stream no count
    # reaches T before the last decision, so capping the limit at T changes
    # no decision.
    top = min(window, trials)
    limit = min(math.ceil(max(threshold, 0)), top)
    field = np.min_scalar_type(2 * top).newbyteorder("<")
    shift = 8 * field.itemsize - 1
    everyone = int.from_bytes(np.ones(n, field).tobytes(), "little")
    counts = everyone * ((1 << shift) - limit)
    history = deque()
    hypotheses = np.empty(trials, dtype=np.int8)
    stride = n * field.itemsize
    for start in range(0, trials, _BLOCK):
        rows = y[start:start + _BLOCK]
        packed = rows.astype(field).tobytes()
        block = []
        offset = 0
        for _ in range(len(rows)):
            row = int.from_bytes(packed[offset:offset + stride], "little")
            offset += stride
            included = everyone ^ (counts >> shift & everyone)
            decision = (row & included).bit_count() >= fewest[included.bit_count()]
            marks = row ^ everyone if decision else row
            if len(history) == window:
                counts -= history.popleft()
            history.append(marks)
            counts += marks
            block.append(decision)
        hypotheses[start:start + len(block)] = block
    return hypotheses
