"""Calibrated timing.

The virtual CPUs this benchmark was sized on change speed by up to 2.6x
within a minute, driven by load outside the machine, so raw wall times of
one call do not repeat from run to run.  ``calibrate()`` times a fixed
kernel of exact ``Fraction`` arithmetic, interpreter work like that of the
learners and the simplex.  A call's wall time times ``CAL_REF_S`` over the
calibration time measured next to it is its duration in reference seconds:
seconds on a machine where the kernel takes ``CAL_REF_S``.  Raw wall times
are recorded beside every calibrated figure.
"""

import time
from fractions import Fraction

CAL_REF_S = 0.010


def calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 2600):
        total += Fraction(k % 13 + 1, k % 97 + 1)
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` in reference seconds, given the calibrations around it."""
    return seconds * CAL_REF_S / ((before + after) / 2.0)
