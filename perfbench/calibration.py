"""A fixed reference workload that measures how fast the host runs right now.

On a shared host the speed of a process swings by up to a factor of two
within minutes (other tenants, clock changes), and every timing of a run
moves with it. Each phase of a run times this reference first. The
end-to-end timings are divided by the median reference time of the run, so
they read in reference units (``ref``), which move much less with such swings.
The reference uses numpy and Python only, never rumorgraph, so no change to
the program moves it. Its parts mirror where the workloads spend time:
Python dispatch of small-array operations, BLAS matrix products, and
streaming through memory.
"""

from __future__ import annotations

import time

import numpy as np

_GEN = np.random.default_rng(0)
_SMALL = _GEN.random((16, 16))
_MATRIX = _GEN.random((384, 384)) / 384.0
_STREAM = np.ones(1_000_000)


def reference_seconds() -> float:
    """Wall time of one run of the reference workload (about 0.04 s on 2 cores)."""
    start = time.perf_counter()
    acc = _SMALL
    for _ in range(1500):
        acc = np.tanh(acc @ _SMALL + 0.5)
    product = _MATRIX
    for _ in range(12):
        product = product @ _MATRIX
    for _ in range(16):
        np.multiply(_STREAM, 1.0, out=_STREAM)
    float(acc.sum() + product.sum() + _STREAM.sum())
    return time.perf_counter() - start
