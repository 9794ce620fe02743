"""A fixed calibration kernel that measures how fast the machine is right now.

On a shared host the speed of one CPU drifts by 30-50% within tens of
seconds, and every op of a workload slows or speeds up with it. The kernel
below runs no diracsim code: a fixed mix of small LAPACK calls, numpy
arithmetic and interpreter work, like the program's own inner loops. The
benchmark times it before the first op and after every op, and reports op
times in reference seconds:

    reference seconds = wall seconds * REFERENCE_S / kernel seconds

where the kernel seconds of an op are the median of the six kernel runs
nearest to it, three on either side. The speed changes from one op to the
next, so the kernel must run close to each op; the median keeps one
interrupted kernel run from skewing an op.

A reference second is a wall second on a machine where the kernel takes
REFERENCE_S. The kernel does not depend on the program, so an op that gets
10% slower gets 10% longer in reference seconds; what the scaling removes is
the machine's drift between and within runs.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

# Median kernel time on the 2-vCPU x86-64 (2.0 GHz) virtual machine where the
# benchmark was defined, in a quiet period. It only fixes the scale.
REFERENCE_S = 0.010
ITERATIONS = 300
# Kernel runs on either side of an op whose median scales it.
NEIGHBOURS = 3

_A = np.eye(6) * 4.0 + np.arange(36.0).reshape(6, 6) / 36.0
_B = np.arange(6.0)


def kernel_s() -> float:
    """Wall seconds of one fixed piece of work."""

    start = perf_counter()
    acc = 0.0
    for i in range(ITERATIONS):
        lu = scipy.linalg.lu_factor(_A)
        y = scipy.linalg.lu_solve(lu, _B + i)
        acc += float(y @ y) + len(f"{acc:.3f}")
    return perf_counter() - start


def median_kernel_s(repeats: int) -> float:
    kernel_s()  # the first call pays for lazy imports inside scipy
    return statistics.median(kernel_s() for _ in range(repeats))


def to_reference(seconds: float, kernel_seconds: float) -> float:
    return seconds * REFERENCE_S / kernel_seconds


def reference_times(wall: list[float], kernel: list[float]) -> list[float]:
    """Scale op wall times, given that kernel[i] ran just before op i and kernel[i+1] just after it."""

    if len(kernel) != len(wall) + 1:
        raise ValueError("need one kernel run before the first op and one after each op")
    return [
        to_reference(w, statistics.median(kernel[max(0, i + 1 - NEIGHBOURS) : i + 1 + NEIGHBOURS]))
        for i, w in enumerate(wall)
    ]
