"""The reference kernel that tracks the speed of the host.

The benchmark runs on shared virtual machines whose speed drifts by up to
about 40 % over minutes, with every kind of work slowing or speeding up
together. A run's timings are therefore scaled to a fixed host speed: the
fixed kernel below is timed before and after each block of work, and each
sample taken in the block is multiplied by ``REFERENCE_S`` over the mean of
the two kernel times. The kernel uses numpy and plain Python only, never
the package under test, so a change to the package cannot move it.

It mixes the three kinds of work the package does: an interpreted loop
(the RANSAC and voting loops), many small numpy calls (the 3x3 rigid fits
and LRF estimates) and whole-array numpy work (the n x n kernels).
"""

from __future__ import annotations

import time

import numpy as np

# Nominal time of one kernel call. Scaled samples read as if the kernel
# took this long; on the machine the baseline was measured on, it takes
# 13-22 ms depending on the host's state.
REFERENCE_S = 0.020

_rng = np.random.default_rng(0)
_cloud = _rng.random((400, 3))
_points = _rng.random((1000, 3))
_values = _rng.random(200_000)


def _interpreted() -> int:
    total = 0
    for i in range(30_000):
        total += i * i
    return total


def _small_calls() -> None:
    for _ in range(300):
        sample = _points[[3, 70, 500]]
        centred = sample - sample.mean(axis=0)
        np.linalg.svd(centred.T @ centred)


def _whole_array() -> None:
    distances = np.sqrt(((_cloud[:, None, :] - _cloud[None, :, :]) ** 2).sum(-1))
    distances.sum()
    np.sort(_values)


def reference_seconds() -> float:
    """Wall time of one call of the reference kernel."""
    start = time.perf_counter()
    _interpreted()
    _small_calls()
    _whole_array()
    return time.perf_counter() - start
