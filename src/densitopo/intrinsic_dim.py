"""Intrinsic dimension estimation from two-nearest-neighbor distance ratios.

The ratio mu = r2/r1 of the distances to the second and first neighbor is
Pareto-distributed with exponent equal to the intrinsic dimension when the
density is locally constant, which gives a likelihood estimate that needs
no binning and no free parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateDataError
from .neighbors import NeighborGraph

DISCARD_FRACTION = 0.1


@dataclass(frozen=True)
class IdEstimate:
    d_hat: float
    n_used: int


def twonn_estimate(graph: NeighborGraph) -> IdEstimate:
    """Estimate the intrinsic dimension from first/second neighbor distances.

    Points whose first neighbor distance is zero (duplicates) are skipped.
    The largest ``DISCARD_FRACTION`` of the log-ratios is discarded to damp
    tail noise; the estimate is the censored-sample maximum-likelihood rate
    of the remaining exponential log-ratios, which stays consistent under
    the discard (the plain mean over a truncated sample would not be).

    Returns:
        IdEstimate with d_hat > 0 and the number of retained points.
    """
    if graph.k_max < 2:
        raise DataError("two-NN estimation needs k_max >= 2 neighbors per point")

    r1 = graph.neighbor_dists[:, 0]
    r2 = graph.neighbor_dists[:, 1]
    usable = r1 > 0.0
    if not usable.any():
        raise DegenerateDataError("every point has a coincident nearest neighbor")

    log_mu = np.sort(np.log(r2[usable] / r1[usable]))
    n_kept = log_mu.size
    n_drop = int(math.floor(DISCARD_FRACTION * n_kept))
    n_used = n_kept - n_drop

    # censored-sample MLE: discarded values enter only through the cutoff
    cutoff = log_mu[n_used - 1]
    total = float(log_mu[:n_used].sum() + n_drop * cutoff)
    if total <= 0.0:
        raise DegenerateDataError(
            "sum of log neighbor ratios is zero; distances carry no dimension signal")
    return IdEstimate(d_hat=n_used / total, n_used=n_used)
