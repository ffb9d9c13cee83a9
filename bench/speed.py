"""Machine-speed calibration for the bounded timing metrics.

The machine the benchmark was built on, a 2-vCPU VM that shares its host,
changes speed by up to ±30% in phases of 40-60 s. A 20 s run sees one
phase, so a raw wall time spread by 0.29 (IQR over median) across
20 s windows of identical work. A fixed kernel of small numpy ops and Python
dispatch, the same mix as the program's per-sample work but none of its
code, is timed next to every operation; at the level of 20 s windows its
time tracked the operations' with correlation 0.90, and scaling by it
halved that spread. Program changes do not touch the kernel, so they show
in full in the corrected figures.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the reference machine in a quiet phase (2-vCPU Xeon,
# numpy 2.4.6, one BLAS thread). Corrected times read as seconds there.
REF_CALIBRATION_S = 0.12
ITERATIONS = 2000

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(17, 64))
_W1 = _rng.normal(size=(64, 128)) * 0.1
_W2 = _rng.normal(size=(128, 64)) * 0.1


def calibrate() -> float:
    """Seconds for ITERATIONS rounds of a fixed small forward/backward mix."""
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        h = np.tanh(_X @ _W1)
        y = h @ _W2
        z = y - y.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
        g = (p @ _W2.T) * (1.0 - h * h)
        float((_X.T @ g).sum())
    return time.perf_counter() - start


def at_reference_speed(op_times: list[float], calibrations: list[float]) -> list[float]:
    """Each operation's wall time scaled by REF_CALIBRATION_S over the mean
    of the calibrations taken just before and just after it."""
    if len(calibrations) != len(op_times) + 1:
        raise ValueError("need one calibration before each operation and one after the last")
    return [
        t * REF_CALIBRATION_S / ((calibrations[i] + calibrations[i + 1]) / 2.0)
        for i, t in enumerate(op_times)
    ]
