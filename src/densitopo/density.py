"""Adaptive k-nearest-neighbor density estimation with per-point error bars.

For each point the neighborhood is grown shell by shell while a
likelihood-ratio test accepts that the point and its current k-th neighbor
see the same density; the log density is then a maximum-likelihood fit of
a log-linear density ansatz over the accepted shells, whose intercept
corrects the leading bias of the plain k/V estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateDataError
from .neighbors import NeighborGraph

# chi-square(1) quantile at p = 1e-6: neighborhood growth stops once the
# same-density hypothesis is rejected at that level
LRT_THRESHOLD = 23.928
# smallest neighborhood the scan ever selects
DEFAULT_K_MIN = 4
ANSATZ_CHOICES = ("volume", "index")

# Newton fit: gradient norm that counts as converged, and the iteration
# limit before falling back to k/V
_NR_TOL = 1e-8
_NR_MAX_ITER = 100
_MAX_STEP_HALVINGS = 30
# array entries (points x k_hat) per lockstep fit block: bounds the fit's
# working arrays however many points share one k_hat
_BLOCK_ENTRIES = 1 << 16


def unit_ball_volume(d: float) -> float:
    """Volume of the unit ball in (possibly fractional) dimension d."""
    if d <= 0:
        raise ConfigError(f"dimension must be positive, got {d}")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def log_density_error(k) -> np.ndarray | float:
    """Closed-form error bar of the fitted log density at neighborhood size k.

    Valid for k >= 2; decreases monotonically with k.
    """
    arr = np.asarray(k, dtype=np.float64)
    out = np.sqrt((4.0 * arr + 2.0) / ((arr - 1.0) * arr))
    return float(out) if np.isscalar(k) else out


@dataclass
class DensityEstimate:
    """Per-point density output (struct of arrays, index = point id)."""

    k_hat: np.ndarray
    log_rho: np.ndarray
    err: np.ndarray
    r_khat: np.ndarray
    slope: np.ndarray
    fallback: np.ndarray

    @property
    def n_points(self) -> int:
        return self.k_hat.shape[0]


def knn_mle(k: int, volume: float) -> float:
    """Log density maximizing the fixed-k shell likelihood: log(k / V)."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if volume <= 0.0:
        raise DegenerateDataError(
            f"cumulative volume is {volume}; all {k} neighbors coincide with the point")
    return math.log(k) - math.log(volume)


def _lrt_kernel(k, v_i, v_j):
    """Likelihood-ratio statistic comparing separate vs shared density.

    Twice the gap between the two points' individually maximized shell
    log-likelihoods and the shared-density maximum.  Vectorized over
    volumes; degenerate (zero) volumes map to +inf so neighborhood growth
    stops there.
    """
    k = np.asarray(k, dtype=np.float64)
    v_i = np.asarray(v_i, dtype=np.float64)
    v_j = np.asarray(v_j, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        sep_i = k * (np.log(k) - np.log(v_i)) - k
        sep_j = k * (np.log(k) - np.log(v_j)) - k
        shared = 2.0 * k * (np.log(2.0 * k) - np.log(v_i + v_j)) - 2.0 * k
        stat = 2.0 * (sep_i + sep_j - shared)
    stat = np.where(v_i == v_j, 0.0, np.maximum(stat, 0.0))
    stat = np.where((v_i <= 0) | (v_j <= 0), np.inf, stat)
    return stat


def _effective_cap(graph: NeighborGraph) -> int:
    """Largest neighborhood the scan may select: min(max(k_min, n // 4), k_max)."""
    cap = min(max(DEFAULT_K_MIN, graph.n_points // 4), graph.k_max)
    if cap < DEFAULT_K_MIN:
        raise ConfigError(
            f"graph provides only {graph.k_max} neighbors but k_min is {DEFAULT_K_MIN}")
    return cap


def _adaptive_k_all(d: float, graph: NeighborGraph) -> np.ndarray:
    """Largest k per point whose same-density test stays below the threshold.

    Scans k = k_min..cap and stops at a point's first rejection; if even
    k_min is rejected the answer is still k_min, and with no rejection it
    is the cap.  Each step tests only the points not yet rejected.
    """
    omega = unit_ball_volume(d)
    cap = _effective_cap(graph)
    k_hat = np.full(graph.n_points, cap, dtype=np.int64)
    growing = np.arange(graph.n_points)
    for k in range(DEFAULT_K_MIN, cap + 1):
        radii = graph.neighbor_dists[:, k - 1]
        v_i = omega * np.power(radii[growing], d)
        v_j = omega * np.power(radii[graph.neighbor_ids[growing, k - 1]], d)
        rejected = _lrt_kernel(float(k), v_i, v_j) > LRT_THRESHOLD
        k_hat[growing[rejected]] = max(DEFAULT_K_MIN, k - 1)
        growing = growing[~rejected]
        if not growing.size:
            break
    return k_hat


def _libm(func, *arrays: np.ndarray) -> np.ndarray:
    """Apply a scalar `math` function elementwise.

    numpy's SIMD log and hypot kernels can differ from the C library's in
    the last bit; the fit's start point and stopping test use the C
    library's, the values the golden outputs were made with.
    """
    return np.fromiter(map(func, *(arr.tolist() for arr in arrays)),
                       dtype=np.float64, count=arrays[0].size)


def _objective(b: np.ndarray, a: np.ndarray, x: np.ndarray,
               v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shell log-likelihood per row at rates exp(b + a * x), and the shell
    terms v * exp(b + a * x) it subtracts."""
    t = b[:, None] + a[:, None] * x
    w = v * np.exp(t)
    return t.sum(axis=1) - w.sum(axis=1), w


@np.errstate(over="ignore", invalid="ignore")
def _fit_block(ids: np.ndarray, k: int, d: float, ansatz: str,
               graph: NeighborGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fit log rho with a linear density drift over k shells, for many points.

    Per point, maximizes the shell likelihood of rate exp(b + a * x_l) by
    Newton iteration from (log(k / V), 0), halving steps that lower the
    objective.  The intercept b is the bias-corrected log density at the
    point; a is the drift slope in the chosen regressor.  All points run in
    lockstep, each halving its own steps and leaving once it is decided.
    Every row sum reduces an exact-length row, in the order of a 1-D sum
    over that point's shells, so each point's result is what a fit of that
    point alone gives.

    Returns:
        (log_rho, slope, fallback) per point: fallback is True where the
        solver did not converge or the curvature degenerated, in which case
        the plain k/V estimate is returned with zero slope.
    """
    cum = unit_ball_volume(d) * np.power(graph.neighbor_dists[ids, :k], d)
    vol = cum[:, -1]
    if (vol <= 0.0).any():
        i = int(ids[np.argmax(vol <= 0.0)])
        raise DegenerateDataError(f"point {i}: all {k} nearest neighbors coincide with it")
    v = np.maximum(np.diff(cum, axis=1, prepend=0.0), 0.0)
    if ansatz == "volume":
        x = cum
    else:
        x = np.tile(np.arange(1.0, k + 1.0), (ids.size, 1))
    x_sum = x.sum(axis=1)
    log_rho = math.log(k) - _libm(math.log, vol)
    slope = np.zeros(ids.size)
    fallback = np.ones(ids.size, dtype=bool)

    # state of the points still iterating; rows maps it to the block
    rows = np.arange(ids.size)
    b, a = log_rho.copy(), slope.copy()
    current, w = _objective(b, a, x, v)
    for _ in range(_NR_MAX_ITER):
        wx = w * x
        w_sum, wx_sum, wxx_sum = w.sum(axis=1), wx.sum(axis=1), (wx * x).sum(axis=1)
        g_b = k - w_sum
        g_a = x_sum - wx_sum
        finite = np.isfinite(w_sum + wx_sum + wxx_sum)
        converged = finite & (_libm(math.hypot, g_b, g_a) <= _NR_TOL)
        done = rows[converged]
        log_rho[done], slope[done], fallback[done] = b[converged], a[converged], False
        h_bb, h_ba, h_aa = -w_sum, -wx_sum, -wxx_sum
        det = h_bb * h_aa - h_ba * h_ba
        # curvature not negative definite: no trustworthy Newton step
        go = finite & ~converged & (h_bb < 0.0) & (det > 0.0)
        step_b = -(h_aa * g_b - h_ba * g_a)[go] / det[go]
        step_a = -(h_bb * g_a - h_ba * g_b)[go] / det[go]
        if not go.all():
            rows, b, a, current, w, x, v, x_sum = (
                arr[go] for arr in (rows, b, a, current, w, x, v, x_sum))

        tb, ta = b + step_b, a + step_a
        cand, cand_w = _objective(tb, ta, x, v)
        pending = np.arange(rows.size)
        for halving in range(_MAX_STEP_HALVINGS):
            cur = current[pending]
            ok = np.isfinite(cand) & (cand >= cur - 1e-15 * (1.0 + np.abs(cur)))
            hit = pending[ok]
            b[hit], a[hit], current[hit], w[hit] = tb[ok], ta[ok], cand[ok], cand_w[ok]
            pending = pending[~ok]
            if not pending.size or halving == _MAX_STEP_HALVINGS - 1:
                break
            step_b[pending] *= 0.5
            step_a[pending] *= 0.5
            tb, ta = b[pending] + step_b[pending], a[pending] + step_a[pending]
            cand, cand_w = _objective(tb, ta, x[pending], v[pending])
        if pending.size:
            # no step accepted: the point stays where its gradient test just
            # failed, so the final stationarity test fails too -> fallback
            keep = np.ones(rows.size, dtype=bool)
            keep[pending] = False
            rows, b, a, current, w, x, v, x_sum = (
                arr[keep] for arr in (rows, b, a, current, w, x, v, x_sum))
        if not rows.size:
            break
    # iteration limit reached: accept only points already stationary
    g_b = k - w.sum(axis=1)
    g_a = x_sum - (w * x).sum(axis=1)
    ok = np.isfinite(g_b) & np.isfinite(g_a) & (_libm(math.hypot, g_b, g_a) <= _NR_TOL)
    log_rho[rows[ok]], slope[rows[ok]], fallback[rows[ok]] = b[ok], a[ok], False
    return log_rho, slope, fallback


def estimate_density(graph: NeighborGraph, d: float,
                     ansatz: str = "volume") -> DensityEstimate:
    """Adaptive density estimate for every point of the graph.

    Neighborhood sizes come from the same-density scan; each point then
    gets the drift-corrected likelihood fit, falling back to log(k/V)
    where the fit degenerates.  The fits run in blocks of points with the
    same k_hat.  Points whose selected neighborhood has zero volume are
    retried at the smallest k with positive volume and flagged; if no such
    k exists the data is degenerate.

    Args:
        d: intrinsic dimension used for shell volumes (> 0, may be fractional).
        ansatz: regressor of the log-linear density model, one of
            "volume" (cumulative shell volume) or "index" (shell number).
    """
    if not (d > 0 and math.isfinite(d)):
        raise ConfigError(f"intrinsic dimension must be positive, got {d}")
    try:
        unit_ball_volume(d)
    except OverflowError:
        raise ConfigError(f"intrinsic dimension {d} is too large: its unit-ball "
                          "volume is beyond floating point") from None
    if ansatz not in ANSATZ_CHOICES:
        raise ConfigError(f"ansatz must be one of {ANSATZ_CHOICES}, got {ansatz!r}")
    n = graph.n_points
    cap = _effective_cap(graph)
    k_hat = _adaptive_k_all(d, graph)
    log_rho = np.empty(n, dtype=np.float64)
    slope = np.zeros(n, dtype=np.float64)
    fallback = np.ones(n, dtype=bool)

    coincident = graph.neighbor_dists[np.arange(n), k_hat - 1] <= 0.0
    for i in np.nonzero(coincident)[0]:
        # all selected neighbors coincide with the point; widen until the
        # ball has positive volume
        grown = np.nonzero(graph.neighbor_dists[i, DEFAULT_K_MIN - 1:cap] > 0.0)[0]
        if not grown.size:
            raise DegenerateDataError(
                f"point {i}: more than {cap} exact duplicates; "
                "density is unbounded there")
        k = DEFAULT_K_MIN + int(grown[0])
        k_hat[i] = k
        vol = unit_ball_volume(d) * graph.neighbor_dists[i, k - 1] ** d
        log_rho[i] = knn_mle(k, float(vol))

    fit = np.nonzero(~coincident)[0]
    fit = fit[np.argsort(k_hat[fit], kind="stable")]
    ks, starts = np.unique(k_hat[fit], return_index=True)
    ends = np.append(starts[1:], fit.size)
    for k, start, end in zip(ks.tolist(), starts.tolist(), ends.tolist()):
        block = max(1, _BLOCK_ENTRIES // k)
        for lo in range(start, end, block):
            ids = fit[lo:min(lo + block, end)]
            log_rho[ids], slope[ids], fallback[ids] = _fit_block(ids, k, d, ansatz, graph)

    err = log_density_error(k_hat.astype(np.float64))
    r_khat = graph.neighbor_dists[np.arange(n), k_hat - 1]
    if not np.isfinite(log_rho).all():
        bad = int(np.nonzero(~np.isfinite(log_rho))[0][0])
        raise DegenerateDataError(f"non-finite log density at point {bad}")
    return DensityEstimate(k_hat=k_hat, log_rho=log_rho, err=err,
                           r_khat=r_khat.astype(np.float64), slope=slope,
                           fallback=fallback)
