"""A fixed calibration kernel that measures how fast the machine runs right now.

On a shared virtual machine the speed of one core drifts by 20-30% from one
minute to the next, and process CPU time drifts with it, so raw wall times
of the same code disagree between runs.  The benchmark runs this kernel
between timed calls and scales each call's wall time by REFERENCE_S over
the mean kernel time just before and just after it: the time the call
would take at the speed at which the kernel takes REFERENCE_S seconds.
Over five runs of one seed this cut the spread of the median ROMP time from
15% to 4%.  The kernel uses numpy only, never dictsel, so no change to
dictsel moves it; its mix of interpreter work, small matrix-vector
products and small QR factorizations is the mix dictsel's selectors run.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median time of one kernel call on the reference machine (see README.md).
REFERENCE_S = 0.090

_RNG = np.random.default_rng(20180906)
_A = _RNG.standard_normal((64, 128))
_A /= np.linalg.norm(_A, axis=0)
_Y = _RNG.standard_normal((64, 400))
_POINTS, _STEPS = 400, 5


def kernel_seconds() -> float:
    """Time one fixed run of orthogonal matching pursuit written in plain numpy."""
    start = perf_counter()
    for t in range(_POINTS):
        y = _Y[:, t]
        r = y
        support: list[int] = []
        for _ in range(_STEPS):
            corr = np.abs(_A.T @ r)
            corr[support] = 0.0
            support.append(int(np.argmax(corr)))
            q, _ = np.linalg.qr(_A[:, support])
            r = y - q @ (q.T @ y)
    return perf_counter() - start


class Clock:
    """Times calls one by one, each bracketed by two kernel runs.

    ``unit`` records each call's wall time and its scaled time: the wall
    time times REFERENCE_S over the mean of the kernel times just before and
    after the call.  ``take`` hands over the records since the last take.
    """

    def __init__(self):
        self.kernel_times = [kernel_seconds()]
        self._units: dict[str, tuple[float, float]] = {}

    def unit(self, label: str, fn):
        start = perf_counter()
        result = fn()
        wall = perf_counter() - start
        self.kernel_times.append(kernel_seconds())
        speed = 0.5 * (self.kernel_times[-2] + self.kernel_times[-1])
        self._units[label] = (wall, wall * REFERENCE_S / speed)
        return result

    def take(self) -> dict[str, tuple[float, float]]:
        units, self._units = self._units, {}
        return units
