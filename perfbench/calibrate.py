"""Host speed probe: a fixed job timed next to every pipeline run.

A shared host's speed drifts by a fifth or more over minutes, and the drift
slows compiled and interpreted code alike.  ``reference_work`` is a fixed
job with the kinds of work a densitopo run does: a 128 MB distance block
with a partial sort (the brute-force kNN scan's block size), cache-resident
blocks, and per-item interpreted arithmetic (like the per-point fits).  It
calls no densitopo code, so a change to the program cannot move it.

run.py times it just before and just after every child it starts, and
rescales the child's times by ``REFERENCE_S`` over the mean of those two
probe times.  The reported times are then seconds on a host where the probe
takes ``REFERENCE_S``, and a slowdown of the whole host during a run
cancels out.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.spatial.distance import cdist

# fixed; near the probe's median time on the 2-vCPU x86_64 host of baseline.json
REFERENCE_S = 0.25

_rng = np.random.default_rng(20180228)
_LARGE = _rng.random((10000, 2))  # a 16M-double distance block, as the kNN scan uses
_SMALL = _rng.random((1500, 2))   # cache-resident blocks


def reference_work() -> float:
    """Run the fixed job once; returns its wall time in seconds."""
    start = time.perf_counter()
    for points, rows, blocks, k in ((_LARGE, (1 << 24) // 10000, 1, 512),
                                    (_SMALL, 250, 2, 64)):
        for s in range(0, blocks * rows, rows):
            block = cdist(points[s:s + rows], points)
            part = np.argpartition(block, k, axis=1)[:, :k]
            np.sort(np.take_along_axis(block, part, axis=1), axis=1)
    acc: dict[int, float] = {}
    for i in range(1, 75001):
        key = i % 97
        acc[key] = acc.get(key, 0.0) + math.log(i) * 0.5 / (1.0 + key)
    return time.perf_counter() - start
