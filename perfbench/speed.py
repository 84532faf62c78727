"""Machine-speed calibration.

On a shared machine the speed of one core drifts by a third or more over
tens of seconds as neighbours come and go, which is longer than a run. To
keep that drift out of the figures, a fixed calibration routine runs right
before and after every measured step, and the step's wall time is scaled
to reference seconds:

    reference_s = wall_s * CAL_REF_S / mean(calibration before, after)

The routine touches nothing of emoqueue, so a change to the program moves
the reference seconds exactly as it moves the wall seconds; only the
machine's drift cancels. Raw wall seconds are reported beside them.
"""

from __future__ import annotations

import json
import time

import numpy as np

# One calibration round on the machine the first baseline was measured on
# (2-vCPU Xeon, Python 3.11.7, numpy 2.4.6), rounded. It only sets the scale.
CAL_REF_S = 0.02
# Rounds per calibration: the mean of five tracked the drift better than one
# round or the best of several in a two-minute trial.
CAL_ROUNDS = 5


def _calibration_round() -> None:
    # the interpreter work emoqueue does most: dict and str churn, float
    # arithmetic, numpy scalar writes, list sorting and JSON encoding
    counts: dict[str, int] = {}
    acc = 0.0
    for i in range(30000):
        key = str(i % 977)
        counts[key] = counts.get(key, 0) + 1
        acc += (i * 0.5) ** 0.5
    json.dumps(counts)
    arr = np.zeros(64)
    for i in range(20000):
        arr[i & 63] += 0.5
    sorted([(i * 7919) % 1000 for i in range(20000)])


def calibrate() -> float:
    """Mean seconds of one calibration round, over a few rounds run now."""
    start = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        _calibration_round()
    return (time.perf_counter() - start) / CAL_ROUNDS


class Speed:
    """Calibrates between measured steps and scales each step's wall time."""

    def __init__(self) -> None:
        self.start()

    def start(self) -> None:
        """Calibrate now, right before a run of contiguous steps."""
        self._last = calibrate()

    def factor(self) -> float:
        """Reference seconds per wall second for the step that just ended."""
        before, self._last = self._last, calibrate()
        return CAL_REF_S / (0.5 * (before + self._last))
