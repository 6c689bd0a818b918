"""Adaptive k-nearest-neighbor density estimation with per-point error bars.

For each point the neighborhood is grown shell by shell while a
likelihood-ratio test accepts that the point and its current k-th neighbor
see the same density; the log density is then a maximum-likelihood fit,
over the accepted shells, of a density log-linear in cumulative shell
volume, whose intercept corrects the leading bias of the plain k/V estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blocks
from ._blocks import Scratch, fill_parts, row_blocks, take
from .errors import ConfigError, DegenerateDataError
from .neighbors import NeighborGraph

# chi-square(1) quantile at p = 1e-6: neighborhood growth stops once the
# same-density hypothesis is rejected at that level
LRT_THRESHOLD = 23.928
# smallest neighborhood the scan ever selects
DEFAULT_K_MIN = 4

# Newton fit: gradient norm that counts as converged, and the iteration
# limit before falling back to k/V
_NR_TOL = 1e-8
_NR_MAX_ITER = 100
_MAX_STEP_HALVINGS = 30


def unit_ball_volume(d: float) -> float:
    """Volume of the unit ball in (possibly fractional) dimension d.

    The one check of an intrinsic dimension: positive, finite, and small
    enough that this volume is a float.
    """
    if not (d > 0 and math.isfinite(d)):
        raise ConfigError(f"intrinsic dimension must be positive, got {d}")
    try:
        return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    except OverflowError:
        raise ConfigError(f"intrinsic dimension {d} is too large: its unit-ball "
                          "volume is beyond floating point") from None


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
    fallback: np.ndarray

    @property
    def n_points(self) -> int:
        return self.k_hat.shape[0]


def _lrt_kernel(k, v_i, v_j, scratch: Scratch | None = None):
    """Likelihood-ratio statistic comparing separate vs shared density.

    Twice the gap between the two points' individually maximized shell
    log-likelihoods and the shared-density maximum.  Vectorized over
    volumes; degenerate (zero) volumes map to +inf so neighborhood growth
    stops there.  The statistic and its temporaries are views of
    ``scratch`` when one is given.
    """
    k = np.asarray(k, dtype=np.float64)
    v_i = np.asarray(v_i, dtype=np.float64)
    v_j = np.asarray(v_j, dtype=np.float64)
    scratch = scratch or Scratch()
    shape = np.broadcast_shapes(k.shape, v_i.shape, v_j.shape)
    stat, sep_j, shared = (scratch.take(name, shape) for name in ("stat", "sep_j", "shared"))
    with np.errstate(divide="ignore", invalid="ignore"):
        # k * (log k - log v) - k per point, and 2k * (log 2k - log(v_i + v_j)) - 2k
        for v, sep in ((v_i, stat), (v_j, sep_j)):
            np.log(v, out=sep)
            np.subtract(np.log(k), sep, out=sep)
            np.multiply(k, sep, out=sep)
            np.subtract(sep, k, out=sep)
        np.add(v_i, v_j, out=shared)
        np.log(shared, out=shared)
        np.subtract(np.log(2.0 * k), shared, out=shared)
        np.multiply(2.0 * k, shared, out=shared)
        np.subtract(shared, 2.0 * k, out=shared)
        stat += sep_j
        stat -= shared
        np.multiply(2.0, stat, out=stat)
    np.maximum(stat, 0.0, out=stat)
    np.copyto(stat, 0.0, where=np.equal(v_i, v_j, out=scratch.take("equal", shape, bool)))
    low = np.less_equal(v_i, 0, out=scratch.take("low", shape, bool))
    low |= np.less_equal(v_j, 0, out=scratch.take("equal", shape, bool))
    np.copyto(stat, np.inf, where=low)
    return stat


def _effective_cap(graph: NeighborGraph) -> int:
    """Largest neighborhood the scan may select: min(max(k_min, n // 4), k_max)."""
    cap = min(max(DEFAULT_K_MIN, graph.n_points // 4), graph.k_max)
    if cap < DEFAULT_K_MIN:
        raise ConfigError(
            f"graph provides only {graph.k_max} neighbors but k_min is {DEFAULT_K_MIN}")
    return cap


@np.errstate(over="ignore")
def _adaptive_k_all(graph: NeighborGraph, ids: np.ndarray, d: float, omega: float,
                    cap: int) -> np.ndarray:
    """Largest k per point of ``ids`` whose same-density test stays below
    the threshold.

    Scans k = k_min..cap and stops at a point's first rejection; if even
    k_min is rejected the answer is still k_min, and with no rejection it
    is the cap.  Each step tests the points not yet rejected at a chunk of
    consecutive k, in arrays reused from step to step, and each point takes
    its first rejection in the chunk.  The tests past it are wasted, but
    the step's 55 or so numpy calls are paid once per chunk, not once per
    k.  A chunk holds as many k as keep the step within ``BLOCK_ENTRIES``
    entries (one at least), and no more than the scan has passed, so a
    point that stops early wastes no more tests than it made: at k_hat
    near 12 (1.5k points in 20-D) the scan took 1.7 ms, against 3.9 ms
    with chunks of the budget alone and 3.1 ms one k at a time.  A volume
    that overflows is rejected later, by the plain estimate's check.
    """
    k_hat = np.full(graph.n_points, cap, dtype=np.int64)
    rows = ids  # the points not yet rejected
    scratch = Scratch()
    k = DEFAULT_K_MIN
    while k <= cap and rows.size:
        width = min(max(1, _blocks.BLOCK_ENTRIES // rows.size), cap + 1 - k,
                    k + 1 - DEFAULT_K_MIN)
        # one line per k: every elementwise loop runs along the points, and
        # a k broadcasts down its line
        shape = (width, rows.size)
        cols = np.arange(k - 1, k - 1 + width)[:, None]
        # column c of row i of the C-contiguous tables is entry i * k_max + c
        at = scratch.take("at", shape, np.intp)
        np.multiply(rows, graph.k_max, out=at[0])
        at[1:] = at[0]
        at += cols
        j = take(graph.neighbor_ids, at, scratch.take("j", shape, graph.neighbor_ids.dtype))
        v_i = take(graph.neighbor_dists, at, scratch.take("v_i", shape))
        np.multiply(j, graph.k_max, out=at, dtype=np.intp)
        at += cols
        v_j = take(graph.neighbor_dists, at, scratch.take("v_j", shape))
        for v in (v_i, v_j):
            np.power(v, d, out=v)
            np.multiply(omega, v, out=v)
        rejected = np.greater(_lrt_kernel(cols + 1.0, v_i, v_j, scratch), LRT_THRESHOLD,
                              out=scratch.take("rejected", shape, bool))
        stop = rejected.any(axis=0)
        if stop.any():
            hit = np.flatnonzero(stop)
            # a point's first rejection in the chunk is where it stops
            first = rejected[:, hit].argmax(axis=0)
            k_hat[rows[hit]] = np.maximum(k - 1 + first, DEFAULT_K_MIN)
            rows = rows[~stop]
        k += width
    return k_hat[ids]


def _libm(func, *arrays: np.ndarray) -> np.ndarray:
    """Apply a scalar `math` function elementwise.

    numpy's SIMD log, hypot and power kernels can differ from the C
    library's in the last bit; the plain estimate, the retry's volumes and
    the fit's stopping test use the C library's, the values the golden
    outputs were made with.
    """
    return np.fromiter(map(func, *(arr.tolist() for arr in arrays)),
                       dtype=np.float64, count=arrays[0].size)


def _plain_log_rho(ids: np.ndarray, k: int | np.ndarray, vol: np.ndarray,
                   d: float) -> np.ndarray:
    """The plain estimate log(k / V) of points whose k-th neighbor is not
    at distance 0.

    Their balls have a positive radius, so a volume of 0 or inf is
    omega * r**d leaving floating point: d is too large for the data.
    """
    bad = (vol == 0.0) | np.isinf(vol)
    if bad.any():
        at = int(np.argmax(bad))
        raise ConfigError(f"intrinsic dimension {d} is too large for point {ids[at]}: "
                          f"its ball of positive radius has volume {vol[at]}")
    return _libm(math.log, np.atleast_1d(k)) - _libm(math.log, vol)


def _row_sums(k: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Row sums of terms, shaped (..., rows, width), over each row's first
    k entries, k sorted: each run of equal k sums exact-length rows in
    numpy's pairwise order, as a 1-D sum over one point's shells would."""
    cut = [0, *(np.flatnonzero(np.diff(k)) + 1).tolist(), k.size]
    out = np.empty(terms.shape[:-1])
    for s, e in zip(cut[:-1], cut[1:]):
        out[..., s:e] = terms[..., s:e, :k[s]].sum(axis=-1)
    return out


def _loglik(b: np.ndarray, a: np.ndarray, x: np.ndarray, v: np.ndarray, k: np.ndarray,
            terms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shell log-likelihood per row at rates exp(b + a * x) over its k shells,
    the shell terms v * exp(b + a * x) it subtracts, and their row sums.

    The exponents and shell terms are written into ``terms``, shaped
    (2, *x.shape); the shell terms returned are ``terms[1]``."""
    t, w = terms
    np.multiply(a[:, None], x, out=t)
    t += b[:, None]
    np.exp(t, out=w)
    w *= v
    t_sum, w_sum = _row_sums(k, terms)
    return t_sum - w_sum, w, w_sum


@np.errstate(over="ignore", invalid="ignore")
def _fit_rows(ids: np.ndarray, k: np.ndarray, d: float, omega: float,
              graph: NeighborGraph, scratch: Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Fit log rho with a linear density drift over each point's k shells.

    Per point, maximizes the shell likelihood of rate exp(b + a * x_l), x_l
    the volume of the ball out to shell l, by Newton iteration from
    (log(k / V), 0), halving steps that lower the objective.  The intercept
    b is the bias-corrected log density at the point.  The points, sorted
    by k, run in lockstep, each halving its own steps and leaving once it
    is decided.  Elementwise steps run on rows padded to the largest k with
    the graph's later shells; row sums read only each point's k shells, so
    it gets what a fit of it alone gives.

    Every points x shells array is a view of ``scratch``: the ball volumes x,
    shell volumes v and shell terms w of the points still iterating move
    between two halves of the buffers ``x``, ``v`` and ``w`` as points
    leave, ``wx`` holds each iteration's products and then its candidate
    terms, and ``halving`` the rows and terms of the steps halved, so an
    iteration allocates no block-sized array.

    Returns:
        (log_rho, fallback) per point: fallback is True where the solver
        did not converge or the curvature degenerated, in which case the
        plain k/V estimate is returned.
    """
    shape = (ids.size, int(k[-1]))
    half = math.prod(shape) * 8  # bytes: the second half of x, v and w starts here
    x = scratch.take("x", shape)
    x[...] = graph.neighbor_dists[ids, :shape[1]]
    np.power(x, d, out=x)
    x *= omega
    log_rho = _plain_log_rho(ids, k, x[np.arange(ids.size), k - 1], d)
    v = scratch.take("v", shape)
    v[:, 0] = x[:, 0]
    np.subtract(x[:, 1:], x[:, :-1], out=v[:, 1:])
    np.maximum(v, 0.0, out=v)
    x_sum = _row_sums(k, x)
    fallback = np.ones(ids.size, dtype=bool)

    # state of the points still iterating; rows maps it to the block
    rows = np.arange(ids.size)
    b, a = log_rho.copy(), np.zeros(ids.size)
    # the exponents take the first half of w, the terms the second
    current, w, w_sum = _loglik(b, a, x, v, k, scratch.take("w", (2, *shape)))
    moves = 0  # times the state moved to the other halves
    pending = []  # rows whose last step found no ascent
    for it in range(_NR_MAX_ITER + 1):
        wx = scratch.take("wx", (2, *w.shape))
        np.multiply(w, x, out=wx[0])
        np.multiply(wx[0], x, out=wx[1])
        wx_sum, wxx_sum = _row_sums(k, wx)
        g_b = k - w_sum
        g_a = x_sum - wx_sum
        finite = np.isfinite(w_sum + wx_sum + wxx_sum)
        converged = finite & (_libm(math.hypot, g_b, g_a) <= _NR_TOL)
        done = rows[converged]
        log_rho[done], fallback[done] = b[converged], False
        h_bb, h_ba, h_aa = -w_sum, -wx_sum, -wxx_sum
        det = h_bb * h_aa - h_ba * h_ba
        # the rest leave when the iteration limit is reached, when their
        # last step found no ascent, or when the curvature is not negative
        # definite: no trustworthy Newton step
        go = finite & ~converged & (h_bb < 0.0) & (det > 0.0)
        go[pending] = False
        n_go = np.count_nonzero(go)
        if it == _NR_MAX_ITER or not n_go:
            break
        step_b = -(h_aa * g_b - h_ba * g_a)[go] / det[go]
        step_a = -(h_bb * g_a - h_ba * g_b)[go] / det[go]
        if n_go < rows.size:
            rows, k, b, a, current, w_sum, x_sum = (
                arr[go] for arr in (rows, k, b, a, current, w_sum, x_sum))
            moves += 1
            kept = np.flatnonzero(go)
            x, v, w = (take(arr, kept, scratch.take(name, (n_go, shape[1]), offset=at), 0)
                       for name, arr, at in (("x", x, moves % 2 * half),
                                             ("v", v, moves % 2 * half),
                                             ("w", w, (moves + 1) % 2 * half)))

        tb, ta = b + step_b, a + step_a
        # the products are summed: their buffer takes the candidate terms
        terms = scratch.take("wx", (2, *x.shape))
        cand, cand_w, cand_sum = _loglik(tb, ta, x, v, k, terms)
        pending = np.arange(rows.size)
        for halving in range(_MAX_STEP_HALVINGS):
            cur = current[pending]
            ok = np.isfinite(cand) & (cand >= cur - 1e-15 * (1.0 + np.abs(cur)))
            hit = pending[ok]
            b[hit], a[hit], current[hit] = tb[ok], ta[ok], cand[ok]
            # the exponents are spent: their rows take the accepted terms
            w[hit] = take(cand_w, np.flatnonzero(ok), terms[0, :hit.size], 0)
            w_sum[hit] = cand_sum[ok]
            pending = pending[~ok]
            if not pending.size or halving == _MAX_STEP_HALVINGS - 1:
                break
            step_b[pending] *= 0.5
            step_a[pending] *= 0.5
            tb, ta = b[pending] + step_b[pending], a[pending] + step_a[pending]
            xv, terms = scratch.take("halving", (2, 2, pending.size, shape[1]))
            cand, cand_w, cand_sum = _loglik(tb, ta, take(x, pending, xv[0], 0),
                                             take(v, pending, xv[1], 0), k[pending], terms)
    return log_rho, fallback


def _estimate_rows(graph: NeighborGraph, ids: np.ndarray, d: float, omega: float,
                   cap: int, k_hat: np.ndarray, log_rho: np.ndarray,
                   r_khat: np.ndarray, fallback: np.ndarray) -> None:
    """Estimate the points ``ids``, as :func:`estimate_density` describes,
    into their entries of the four arrays; ``err`` follows from k_hat.

    A point's result does not depend on the other points in ``ids``: the
    scan tests each row alone, and a fit block's row sums read only each
    row's own shells.
    """
    k = _adaptive_k_all(graph, ids, d, omega, cap)
    r = graph.neighbor_dists[ids, k - 1]
    k_hat[ids], r_khat[ids], fallback[ids] = k, r, True
    coincident = r <= 0.0
    retry = ids[coincident]
    for s, e in row_blocks(retry.size, cap):
        # all selected neighbors coincide with the point; widen until the
        # ball has positive volume
        block = retry[s:e]
        positive = graph.neighbor_dists[block, DEFAULT_K_MIN - 1:cap] > 0.0
        grown = positive.argmax(axis=1)
        unbounded = ~positive[np.arange(block.size), grown]
        if unbounded.any():
            raise DegenerateDataError(
                f"point {block[np.argmax(unbounded)]}: more than {cap} exact duplicates; "
                "density is unbounded there")
        grown += DEFAULT_K_MIN
        r_khat[block] = graph.neighbor_dists[block, grown - 1]
        vol = omega * _libm(math.pow, r_khat[block], np.broadcast_to(d, block.shape))
        k_hat[block], log_rho[block] = grown, _plain_log_rho(block, grown, vol, d)

    order = np.argsort(k[~coincident], kind="stable")
    fit, ks = ids[~coincident][order], k[~coincident][order]
    scratch = Scratch()  # the fits' working arrays, reused from block to block
    # padded entries (points x the block's largest k_hat) per lockstep fit
    # block, whose largest k_hat is at most twice its smallest
    budget = _blocks.BLOCK_ENTRIES
    lo = 0
    while lo < fit.size:
        # the rows up to twice the first one's k_hat that fit the budget
        hi = min(lo + budget // ks[lo], np.searchsorted(ks, 2 * ks[lo], "right"))
        hi = lo + max(1, np.count_nonzero(np.arange(1, hi - lo + 1) * ks[lo:hi] <= budget))
        block = fit[lo:hi]
        log_rho[block], fallback[block] = _fit_rows(block, ks[lo:hi], d, omega, graph,
                                                    scratch)
        lo = hi


def estimate_density(graph: NeighborGraph, d: float) -> DensityEstimate:
    """Adaptive density estimate for every point of the graph.

    Neighborhood sizes come from the same-density scan; each point then
    gets the likelihood fit of a density log-linear in cumulative shell
    volume, falling back to log(k/V) where the fit degenerates.  The fits
    run in blocks of points sorted by k_hat, each row padded to its block's
    largest k_hat.  Points whose selected neighborhood has zero volume are
    retried at the smallest k with positive volume, given log(k/V) and
    flagged; if no such k exists the data is degenerate.

    Each point's estimate reads only its own row of the graph, so the
    points are the items of :func:`_blocks.fill_parts`, in as many parts as
    the n x cap entries of work allow, cap being the largest neighborhood
    the scan may select; the bytes, and any error, are those of a one-CPU
    run.

    Args:
        d: intrinsic dimension used for shell volumes (> 0, may be fractional).
    """
    omega = unit_ball_volume(d)
    n = graph.n_points
    cap = _effective_cap(graph)

    k_hat, log_rho, r_khat, fallback = fill_parts(
        n * cap, n, [((n,), np.int64), ((n,), np.float64), ((n,), np.float64), ((n,), bool)],
        lambda mine, *out: _estimate_rows(graph, mine, d, omega, cap, *out))

    err = log_density_error(k_hat.astype(np.float64))
    if not np.isfinite(log_rho).all():
        bad = int(np.nonzero(~np.isfinite(log_rho))[0][0])
        raise DegenerateDataError(f"non-finite log density at point {bad}")
    return DensityEstimate(k_hat=k_hat, log_rho=log_rho, err=err, r_khat=r_khat,
                           fallback=fallback)
