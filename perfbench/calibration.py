"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the speed of a core changes while the benchmark
runs: on a shared 2-vCPU KVM guest (Xeon, OpenBLAS 0.3.31), the same command took
up to a third longer for stretches of several seconds to minutes, so raw
times of one run differed from the next by 15-30% even as minima over many
repeats. ``calibrate`` times a fixed mix of the work the pipeline does
(interpreted Python, small numpy calls, a BLAS product and natural cubic
splines) that does not depend on the program under test. The benchmark times
it between every two commands and scales its times by ``REFERENCE_S`` over
the median of the run's calibrations, which gives seconds at a fixed machine
speed.
"""
from __future__ import annotations

import time

import numpy as np
from scipy.interpolate import CubicSpline

# Calibration time the scaled seconds refer to; about its duration on an
# uncontended core of that guest.
REFERENCE_S = 0.015

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((150, 150))
_SERIES = _rng.standard_normal(2048)
_KNOTS = np.sort(_rng.uniform(0.0, 2047.0, 60))
_VALUES = _rng.standard_normal(60)
_GRID = np.arange(2048.0)


def calibrate():
    """Seconds taken by one round of the fixed calibration work."""
    began = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    for _ in range(8):
        _MATRIX @ _MATRIX
    for _ in range(20):
        CubicSpline(_KNOTS, _VALUES, bc_type="natural")(_GRID)
    for _ in range(200):
        np.diff(_SERIES[:200]).sum()
    return time.perf_counter() - began
