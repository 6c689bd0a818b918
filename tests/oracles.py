"""Independent reference implementations used to freeze expected test values.

Every oracle here is deliberately naive and structurally different from the
production code path it checks: plain loops, full sorts, bisection, and
arbitrary-precision arithmetic instead of vectorized or closed-form routines.
"""

from __future__ import annotations

import json
import math

import numpy as np
from mpmath import mp

from densitopo import density
from densitopo.density import (_MAX_STEP_HALVINGS, DensityEstimate, _effective_cap,
                               _lrt_kernel, log_density_error, unit_ball_volume)
from densitopo.errors import ConfigError, DataError, DegenerateDataError
from densitopo.clustering import SaddleInfo, SaddleTable
from densitopo.topography import ClusterSummary, Topography
from densitopo.neighbors import NeighborGraph, PairwiseDistances


# ---------------------------------------------------------------------------
# geometry / kNN

def brute_knn(coords: np.ndarray, k_max: int, metric: str = "euclidean"):
    """All-pairs kNN by full stable sort, ties by ascending id.

    Coordinate terms are summed one by one in coordinate order (then square
    rooted for euclidean), the arithmetic the graph's distances promise.
    """
    n = coords.shape[0]
    ids = np.empty((n, k_max), dtype=np.int64)
    dists = np.empty((n, k_max), dtype=np.float64)
    for i in range(n):
        row = []
        for j in range(n):
            if j == i:
                continue
            d = 0.0
            for diff in coords[i] - coords[j]:
                d += diff * diff if metric == "euclidean" else abs(diff)
            if metric == "euclidean":
                d = math.sqrt(d)
            row.append((float(d), j))
        row.sort()
        ids[i] = [j for _, j in row[:k_max]]
        dists[i] = [d for d, _ in row[:k_max]]
    return ids, dists


def export_knn_file(graph: NeighborGraph, path, metric: str = "euclidean") -> None:
    """Write a NeighborGraph in the kNN TSV format (round-trips exactly)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# metric={metric}\n")
        for i in range(graph.n_points):
            for nid, dist in zip(graph.neighbor_ids[i], graph.neighbor_dists[i]):
                fh.write(f"{i}\t{int(nid)}\t{float(dist)!r}\n")


def naive_delta_parent(g: np.ndarray, dmat: np.ndarray):
    """O(n^2) scan: nearest strictly-higher-g point, ties by ascending id.

    Parentless points (no strictly higher g anywhere) get the distance to
    their farthest point as delta.
    """
    n = g.shape[0]
    delta = np.empty(n)
    parent = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        best_d, best_j = math.inf, -1
        for j in range(n):
            if g[j] > g[i] and (dmat[i, j] < best_d):
                best_d, best_j = dmat[i, j], j
        if best_j >= 0:
            delta[i] = best_d
            parent[i] = best_j
    for i in np.nonzero(parent < 0)[0]:
        delta[i] = dmat[i].max()
    return delta, parent


def naive_single_linkage(dist: np.ndarray):
    """Textbook agglomerative single linkage on a finite distance matrix.

    Returns the sorted list of merge heights and the partition (as a set of
    frozensets) recorded just after each merge.
    """
    n = dist.shape[0]
    clusters = [frozenset([i]) for i in range(n)]
    heights = []
    partitions = []
    while len(clusters) > 1:
        best = (math.inf, None, None)
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = min(dist[i, j] for i in clusters[a] for j in clusters[b])
                if d < best[0]:
                    best = (d, a, b)
        d, a, b = best
        merged = clusters[a] | clusters[b]
        clusters = [c for idx, c in enumerate(clusters) if idx not in (a, b)]
        clusters.append(merged)
        heights.append(d)
        partitions.append(frozenset(clusters))
    return heights, partitions


# ---------------------------------------------------------------------------
# numeric inversions and maximizations

def chi2_quantile_1dof(p_tail: float) -> float:
    """Inverse survival of chi^2 with 1 dof via bisection on erf.

    P(X > x) = 1 - erf(sqrt(x/2)) for X ~ chi^2(1).
    """
    target = 1.0 - p_tail
    lo, hi = 0.0, 200.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erf(math.sqrt(mid / 2.0)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def golden_max(f, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Golden-section maximizer of a unimodal function."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * (1.0 + abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def compass_max2d(f, x0: float, y0: float, step: float = 0.5,
                  tol: float = 1e-9, max_iter: int = 200000):
    """Deterministic compass (pattern) search maximizing f(x, y)."""
    x, y = x0, y0
    fx = f(x, y)
    it = 0
    while step > tol and it < max_iter:
        it += 1
        moved = False
        for dx, dy in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step),
                       (step, step), (step, -step), (-step, step), (-step, -step)):
            cand = f(x + dx, y + dy)
            if cand > fx:
                x, y, fx = x + dx, y + dy, cand
                moved = True
                break
        if not moved:
            step *= 0.5
    return x, y, fx


# ---------------------------------------------------------------------------
# arbitrary-precision statistics

def mp_lrt(k: int, vi: float, vj: float, n_splits: int = 3) -> float:
    """Two-sample constant-density LRT statistic from the raw likelihoods.

    Splits each cumulative volume into random positive shells and evaluates
    D = 2[L_i(rho_i*) + L_j(rho_j*) - L_i(rho_bar) - L_j(rho_bar)] directly;
    the result must not depend on the split.
    """
    rng = np.random.default_rng(12345)
    with mp.workdps(60):
        values = []
        for _ in range(n_splits):
            out = []
            for v_total in (vi, vj):
                w = rng.random(k) + 0.1
                # normalize in extended precision so the shells sum to the
                # cumulative volume exactly
                total = mp.fsum(mp.mpf(x) for x in w)
                shells = [mp.mpf(x) * mp.mpf(v_total) / total for x in w]
                out.append(shells)
            shells_i, shells_j = out

            def loglik(shells, rho):
                return mp.fsum(mp.log(rho) + mp.log(v) - rho * v for v in shells)

            rho_i = mp.mpf(k) / mp.mpf(vi)
            rho_j = mp.mpf(k) / mp.mpf(vj)
            rho_bar = mp.mpf(2 * k) / (mp.mpf(vi) + mp.mpf(vj))
            d_stat = 2 * (loglik(shells_i, rho_i) + loglik(shells_j, rho_j)
                          - loglik(shells_i, rho_bar) - loglik(shells_j, rho_bar))
            values.append(d_stat)
        spread = max(values) - min(values)
        assert spread < mp.mpf(10) ** -40, "oracle must be split-independent"
        return float(values[0])


def mp_entropy(counts) -> mp.mpf:
    total = mp.mpf(int(sum(counts)))
    acc = mp.mpf(0)
    for c in counts:
        if c:
            p = mp.mpf(int(c)) / total
            acc -= p * mp.log(p)
    return acc


def mp_nmi(pred, truth) -> float:
    """NMI with sqrt normalization and natural logs at 60 digits."""
    pred = [int(x) for x in pred]
    truth = [int(x) for x in truth]
    pair_counts: dict[tuple[int, int], int] = {}
    row: dict[int, int] = {}
    col: dict[int, int] = {}
    for a, b in zip(truth, pred):
        pair_counts[(a, b)] = pair_counts.get((a, b), 0) + 1
        row[a] = row.get(a, 0) + 1
        col[b] = col.get(b, 0) + 1
    with mp.workdps(60):
        n = mp.mpf(len(pred))
        mi = mp.mpf(0)
        for (a, b), c in pair_counts.items():
            p = mp.mpf(c) / n
            mi += p * mp.log(mp.mpf(c) * n / (mp.mpf(row[a]) * mp.mpf(col[b])))
        h_t = mp_entropy(row.values())
        h_p = mp_entropy(col.values())
        if h_t == 0 and h_p == 0:
            return 1.0
        if h_t == 0 or h_p == 0:
            return 0.0
        val = mi / mp.sqrt(h_t * h_p)
        return float(max(mp.mpf(0), min(mp.mpf(1), val)))


def naive_purity(pred, truth) -> dict[int, float]:
    per: dict[int, dict[int, int]] = {}
    for p, t in zip(pred, truth):
        per.setdefault(int(p), {}).setdefault(int(t), 0)
        per[int(p)][int(t)] += 1
    out = {}
    for p, table in per.items():
        best = max(table.values())
        out[p] = best / sum(table.values())
    return out


def naive_majority(pred, truth) -> dict[int, int]:
    per: dict[int, dict[int, int]] = {}
    for p, t in zip(pred, truth):
        per.setdefault(int(p), {}).setdefault(int(t), 0)
        per[int(p)][int(t)] += 1
    out = {}
    for p, table in per.items():
        best = max(table.values())
        out[p] = min(t for t, c in table.items() if c == best)
    return out


def naive_confusion(pred, truth, majority):
    """Confusion counts over the union vocabulary of truth and mapped labels."""
    mapped = [majority[int(p)] for p in pred]
    labels = sorted(set(int(t) for t in truth) | set(mapped))
    index = {lab: i for i, lab in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, m in zip(truth, mapped):
        matrix[index[int(t)], index[m]] += 1
    return matrix, np.asarray(labels, dtype=np.int64)


# ---------------------------------------------------------------------------
# per-point density estimator: the reference the batched estimator matches
# bit for bit.  The estimator's constants are read from the density module at
# call time, so a test that patches one changes both sides alike.

def shell_volumes(i: int, k: int, d: float, graph: NeighborGraph) -> np.ndarray:
    """Volumes of the k spherical shells between consecutive neighbors of i.

    Shell l covers the gap between neighbor l-1 and neighbor l (neighbor 0
    meaning the point itself), so the volumes sum to omega * r_k**d.
    Duplicate neighbors yield zero-volume shells, which the likelihood
    tolerates.
    """
    if not 1 <= k <= graph.k_max:
        raise ConfigError(f"k must be in [1, {graph.k_max}], got {k}")
    radii = graph.neighbor_dists[i, :k]
    cum = unit_ball_volume(d) * np.power(radii, d)
    prev = np.concatenate(([0.0], cum[:-1]))
    return np.maximum(cum - prev, 0.0)


def knn_mle(k: int, volume: float) -> float:
    """Log density maximizing the fixed-k shell likelihood: log(k / V)."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if volume <= 0.0:
        raise DegenerateDataError(
            f"cumulative volume is {volume}; all {k} neighbors coincide with the point")
    return math.log(k) - math.log(volume)


def cumulative_volume(i: int, k: int, d: float, graph: NeighborGraph) -> float:
    """Volume of the ball through the k-th neighbor of i: omega * r_k**d."""
    return float(unit_ball_volume(d) * graph.neighbor_dists[i, k - 1] ** d)


def lrt_statistic(i: int, k: int, d: float, graph: NeighborGraph) -> float:
    """Same-density test statistic between point i and its k-th neighbor."""
    if not 1 <= k <= graph.k_max:
        raise ConfigError(f"k must be in [1, {graph.k_max}], got {k}")
    j = int(graph.neighbor_ids[i, k - 1])
    v_i = cumulative_volume(i, k, d, graph)
    v_j = cumulative_volume(j, k, d, graph)
    return float(_lrt_kernel(k, v_i, v_j))


def adaptive_k(i: int, d: float, graph: NeighborGraph) -> int:
    """Largest k whose same-density test stays below the threshold.

    Scans k = k_min..cap and stops at the first rejection; if even k_min is
    rejected the answer is still k_min, and with no rejection it is the cap.
    """
    k_min = density.DEFAULT_K_MIN
    cap = _effective_cap(graph)
    for k in range(k_min, cap + 1):
        if lrt_statistic(i, k, d, graph) > density.LRT_THRESHOLD:
            return max(k_min, k - 1)
    return cap


@np.errstate(over="ignore")
def scan_per_k(graph: NeighborGraph, ids: np.ndarray, d: float, cap: int) -> np.ndarray:
    """:func:`adaptive_k` of every point of ``ids``, one k at a time.

    Each step tests every point not yet rejected at one k, with the same
    array operations as the estimator's scan, so the two agree bit for bit
    where the statistic sits at the threshold; only the chunking over k
    differs.
    """
    k_min = density.DEFAULT_K_MIN
    omega = unit_ball_volume(d)
    k_hat = np.full(ids.size, cap, dtype=np.int64)
    growing = np.arange(ids.size)
    for k in range(k_min, cap + 1):
        rows = ids[growing]
        j = graph.neighbor_ids[rows, k - 1]
        v_i = omega * np.power(graph.neighbor_dists[rows, k - 1], d)
        v_j = omega * np.power(graph.neighbor_dists[j, k - 1], d)
        rejected = _lrt_kernel(float(k), v_i, v_j) > density.LRT_THRESHOLD
        k_hat[growing[rejected]] = max(k_min, k - 1)
        growing = growing[~rejected]
        if not growing.size:
            break
    return k_hat


def _model_value(b: float, a: float, x: np.ndarray, v: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        t = b + a * x
        val = t.sum() - (v * np.exp(t)).sum()
    return float(val)


def fit_linear_corrected(i: int, k_hat: int, d: float,
                         graph: NeighborGraph) -> tuple[float, float, float, bool]:
    """Fit log rho with a linear density drift over the accepted shells.

    Maximizes the shell likelihood of rate exp(b + a * x_l), x_l the volume
    of the ball out to shell l, by Newton iteration from (log(k_hat / V), 0),
    halving steps that lower the objective.  The intercept b is the
    bias-corrected log density at the point; a is the drift slope in
    volume.

    Returns:
        (log_rho, slope, err, fallback): fallback is True when the solver
        did not converge or the curvature degenerated, in which case the
        plain k/V estimate is returned with zero slope.
    """
    radii = graph.neighbor_dists[i, :k_hat]
    x = unit_ball_volume(d) * np.power(radii, d)
    prev = np.concatenate(([0.0], x[:-1]))
    v = np.maximum(x - prev, 0.0)
    vol = float(x[-1])
    err = float(log_density_error(float(k_hat)))
    if vol <= 0.0:
        raise DegenerateDataError(
            f"point {i}: all {k_hat} nearest neighbors coincide with it")
    b = math.log(k_hat) - math.log(vol)
    a = 0.0
    x_sum = float(x.sum())
    tol = density._NR_TOL

    current = _model_value(b, a, x, v)
    for _ in range(density._NR_MAX_ITER):
        with np.errstate(over="ignore", invalid="ignore"):
            w = v * np.exp(b + a * x)
            w_sum = float(w.sum())
            wx_sum = float((w * x).sum())
            wxx_sum = float((w * x * x).sum())
        if not math.isfinite(w_sum + wx_sum + wxx_sum):
            return math.log(k_hat) - math.log(vol), 0.0, err, True
        g_b = k_hat - w_sum
        g_a = x_sum - wx_sum
        if math.hypot(g_b, g_a) <= tol:
            return b, a, err, False
        h_bb, h_ba, h_aa = -w_sum, -wx_sum, -wxx_sum
        det = h_bb * h_aa - h_ba * h_ba
        if not (h_bb < 0.0 and det > 0.0):
            # curvature not negative definite: no trustworthy Newton step
            return math.log(k_hat) - math.log(vol), 0.0, err, True
        step_b = -(h_aa * g_b - h_ba * g_a) / det
        step_a = -(h_bb * g_a - h_ba * g_b) / det
        accepted = False
        for _ in range(_MAX_STEP_HALVINGS):
            cand = _model_value(b + step_b, a + step_a, x, v)
            if math.isfinite(cand) and cand >= current - 1e-15 * (1.0 + abs(current)):
                b, a, current = b + step_b, a + step_a, cand
                accepted = True
                break
            step_b *= 0.5
            step_a *= 0.5
        if not accepted:
            break
    # loop exhausted: accept only if already stationary
    with np.errstate(over="ignore", invalid="ignore"):
        w = v * np.exp(b + a * x)
        g_b = k_hat - float(w.sum())
        g_a = x_sum - float((w * x).sum())
    if math.isfinite(g_b) and math.isfinite(g_a) and math.hypot(g_b, g_a) <= tol:
        return b, a, err, False
    return math.log(k_hat) - math.log(vol), 0.0, err, True


def per_point_density(graph: NeighborGraph, d: float) -> DensityEstimate:
    """The adaptive estimator one point at a time: scan, fit, duplicate retry."""
    n = graph.n_points
    cap = _effective_cap(graph)
    k_hat = np.empty(n, dtype=np.int64)
    log_rho, err = np.empty(n), np.empty(n)
    fallback = np.zeros(n, dtype=bool)
    for i in range(n):
        k = adaptive_k(i, d, graph)
        if graph.neighbor_dists[i, k - 1] <= 0.0:
            grown = [kk for kk in range(density.DEFAULT_K_MIN, cap + 1)
                     if graph.neighbor_dists[i, kk - 1] > 0.0]
            if not grown:
                raise DegenerateDataError(f"point {i}: more than {cap} exact duplicates")
            k = grown[0]
            vol = cumulative_volume(i, k, d, graph)
            log_rho[i], fallback[i] = knn_mle(k, vol), True
            err[i] = float(log_density_error(float(k)))
        else:
            log_rho[i], _, err[i], fallback[i] = fit_linear_corrected(i, k, d, graph)
        k_hat[i] = k
    r_khat = graph.neighbor_dists[np.arange(n), k_hat - 1]
    return DensityEstimate(k_hat=k_hat, log_rho=log_rho, err=err, r_khat=r_khat,
                           fallback=fallback)


# ---------------------------------------------------------------------------
# synthetic neighbor structures

def graph_from_radii(radii: np.ndarray) -> NeighborGraph:
    """Build a NeighborGraph with prescribed per-point neighbor distances.

    Neighbor ids are synthetic (cyclic offsets), which downstream density
    code never inspects beyond the id of the k-th neighbor.
    """
    radii = np.asarray(radii, dtype=np.float64)
    n, k_max = radii.shape
    ids = np.empty((n, k_max), dtype=np.int64)
    for i in range(n):
        ids[i] = [(i + 1 + l) % n for l in range(k_max)]
    return NeighborGraph(neighbor_ids=ids, neighbor_dists=radii)


def radii_constant_density(n_points: int, k_max: int, rho: float, d: float,
                           omega: float) -> np.ndarray:
    """Radii for exactly constant density: V_l = l / rho for every point."""
    ls = np.arange(1, k_max + 1, dtype=np.float64)
    r = (ls / (rho * omega)) ** (1.0 / d)
    return np.tile(r, (n_points, 1))


def radii_two_step(k_max: int, rho_in: float, rho_out: float, k_break: int,
                   d: float, omega: float) -> np.ndarray:
    """Radii whose shell volumes follow a sharp density step at k_break."""
    shells = np.empty(k_max)
    shells[:k_break] = 1.0 / rho_in
    shells[k_break:] = 1.0 / rho_out
    cum = np.cumsum(shells)
    return (cum / omega) ** (1.0 / d)


def naive_saddles(labels: np.ndarray, g: np.ndarray, log_rho: np.ndarray,
                  r_khat: np.ndarray, dmat: np.ndarray):
    """O(n^2) border and saddle finder.

    Point i borders cluster c' when its nearest c'-labeled point j (ties by
    ascending id) is within i's adaptive radius and i is the nearest point
    of its own cluster to j; the saddle of each pair is the border point of
    maximal g (ties by ascending id), reported as (log_rho, border_point).
    """
    n = labels.shape[0]
    best: dict[tuple[int, int], tuple[tuple[float, int], int]] = {}
    for i in range(n):
        mine = int(labels[i])
        for other in sorted(set(labels.tolist()) - {mine}):
            members = np.nonzero(labels == other)[0]
            j = int(members[int(dmat[i][members].argmin())])
            if dmat[i, j] > r_khat[i]:
                continue
            own = np.nonzero(labels == mine)[0]
            nearest_back = int(own[int(dmat[j][own].argmin())])
            if nearest_back != i:
                continue
            key = (min(mine, other), max(mine, other))
            cand = ((float(g[i]), -i), i)
            if key not in best or cand[0] > best[key][0]:
                best[key] = cand
    return {key: (float(log_rho[i]), i) for key, ((_, _), i) in best.items()}


def argsort_matrix_knn(matrix: np.ndarray, k_max: int):
    """kNN of a distance matrix by a full stable sort of every row.

    Self is excluded; ties keep ascending id because the sort is stable.
    """
    work = np.asarray(matrix, dtype=np.float64).copy()
    np.fill_diagonal(work, np.inf)
    order = np.argsort(work, axis=1, kind="stable")[:, :k_max]
    return order, np.take_along_axis(work, order, axis=1)


def naive_putative_centers(g: np.ndarray, delta: np.ndarray, r_khat: np.ndarray,
                           k_hat: np.ndarray, neighbor_ids: np.ndarray) -> list[int]:
    """Density-peak centers by a loop over every point's adaptive neighbors.

    A point is a center when delta exceeds its adaptive radius and no point
    having it among its first k_hat neighbors has strictly higher g; sorted
    by decreasing g, ties by id.  May be empty.
    """
    n, k_max = neighbor_ids.shape
    vetoed = [False] * n
    for i in range(n):
        for col in range(min(int(k_hat[i]), k_max)):
            j = int(neighbor_ids[i, col])
            if g[i] > g[j]:
                vetoed[j] = True
    cand = [i for i in range(n) if delta[i] > r_khat[i] and not vetoed[i]]
    return sorted(cand, key=lambda i: (-float(g[i]), i))


# ---------------------------------------------------------------------------
# border and saddle search: the per-pair loop the vectorised search replaced

_CHUNK = 2048


def _nearest_in_cluster_is(j: int, i: int, cluster: int, labels: np.ndarray,
                           graph: NeighborGraph, pairwise: PairwiseDistances) -> bool:
    """True when i is the nearest point of `cluster` to j (ties by id)."""
    row_labels = labels[graph.neighbor_ids[j]]
    hits = np.nonzero(row_labels == cluster)[0]
    if hits.size:
        return int(graph.neighbor_ids[j, hits[0]]) == i
    members = np.nonzero(labels == cluster)[0]
    dd = pairwise.row(j)[members]
    best = int(dd.argmin())
    return int(members[best]) == i


def loop_borders_saddles(labels: np.ndarray, graph: NeighborGraph,
                         g: np.ndarray, estimate: DensityEstimate,
                         pairwise: PairwiseDistances) -> SaddleTable:
    """Border and saddle search, one (point, neighbor column) pair at a time."""
    n = graph.n_points
    best: dict[tuple[int, int], SaddleInfo] = {}
    best_g: dict[tuple[int, int], tuple[float, int]] = {}

    for s in range(0, n, _CHUNK):
        e = min(n, s + _CHUNK)
        ids = graph.neighbor_ids[s:e]
        dists = graph.neighbor_dists[s:e]
        within = dists <= estimate.r_khat[s:e, None]
        foreign = labels[ids] != labels[s:e, None]
        rows, cols = np.nonzero(within & foreign)
        seen: set[tuple[int, int]] = set()
        for r, c in zip(rows.tolist(), cols.tolist()):
            i = s + r
            j = int(ids[r, c])
            other = int(labels[j])
            if (i, other) in seen:
                continue  # only the nearest foreign point of each cluster counts
            seen.add((i, other))
            mine = int(labels[i])
            if not _nearest_in_cluster_is(j, i, mine, labels, graph, pairwise):
                continue
            key = (min(mine, other), max(mine, other))
            cand = (float(g[i]), -i)
            if key not in best_g or cand > best_g[key]:
                best_g[key] = cand
                best[key] = SaddleInfo(log_rho=float(estimate.log_rho[i]),
                                       err=float(estimate.err[i]),
                                       border_point=i)
    return SaddleTable(entries=best)


def sorting_merge_clusters(labels: np.ndarray, centers: list[int], saddles: SaddleTable,
                           estimate: DensityEstimate, g: np.ndarray, z: float):
    """Peak-vs-saddle merging for centres in any order, comparing peaks by g.

    Each pair is ordered (lower peak, higher peak) by (g, -centre id); the
    survivors are sorted by decreasing peak g and every absorbed cluster is
    followed to its survivor through a dict.  Returns (labels, centers,
    saddles, merge_log, old_to_new) with old_to_new mapping each removed
    centre to its surviving centre.
    """
    merged_into = {}
    sad = dict(saddles.entries)
    merge_log: list[dict] = []

    def lower_peak(a: int, b: int) -> tuple[int, int]:
        ga, gb = g[centers[a]], g[centers[b]]
        return (a, b) if (ga, -centers[a]) < (gb, -centers[b]) else (b, a)

    def resolve(c: int) -> int:
        while c in merged_into:
            c = merged_into[c]
        return c

    fired = True
    while fired:
        fired = False
        for (a, b), info in sorted(sad.items(), key=lambda kv: (-kv[1].log_rho, kv[0])):
            low, high = lower_peak(a, b)
            peak, peak_err = estimate.log_rho[centers[low]], estimate.err[centers[low]]
            if (peak - info.log_rho) < z * (peak_err + info.err):
                merge_log.append({
                    "removed_center": int(centers[low]),
                    "surviving_center": int(centers[high]),
                    "saddle_log_rho": float(info.log_rho),
                    "saddle_err": float(info.err),
                    "border_point": int(info.border_point),
                })
                del sad[(a, b)]
                for key in [k for k in sad if low in k]:
                    moved = sad.pop(key)
                    third = key[0] if key[1] == low else key[1]
                    nk = (min(high, third), max(high, third))
                    kept = sad.get(nk)
                    if kept is None or (moved.log_rho, -moved.border_point) > \
                            (kept.log_rho, -kept.border_point):
                        sad[nk] = moved
                merged_into[low] = high
                fired = True
                break

    alive = [c for c in range(len(centers)) if c not in merged_into]
    alive.sort(key=lambda c: (-g[centers[c]], centers[c]))
    new_label = {c: r for r, c in enumerate(alive)}
    remap = np.array([new_label[resolve(c)] for c in range(len(centers))], dtype=np.int64)
    sad_out = SaddleTable(entries={
        (min(new_label[a], new_label[b]), max(new_label[a], new_label[b])): info
        for (a, b), info in sad.items()})
    old_to_new = {centers[c]: centers[resolve(c)] for c in merged_into}
    return remap[labels], [centers[c] for c in alive], sad_out, merge_log, old_to_new


# ---------------------------------------------------------------------------
# topography: reading back what topography_to_json wrote

def topography_from_json(text: str) -> Topography:
    """Rebuild a Topography from its JSON serialization.

    The saddle matrix is not stored in the file; it is rebuilt entry by
    entry from the peaks and the saddle list.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"invalid topography JSON: {exc}") from None
    clusters = [ClusterSummary(label=c["id"], center=c["center"],
                               peak_log_rho=c["peak_log_rho"],
                               peak_err=c["peak_err"],
                               population=c["population"])
                for c in doc["clusters"]]
    entries = {(s["a"], s["b"]): SaddleInfo(log_rho=s["log_rho"], err=s["err"],
                                            border_point=s["border_point"])
               for s in doc["saddles"]}
    k = len(clusters)
    dist = np.array([[np.inf if v is None else v for v in row]
                     for row in doc["distances"]], dtype=np.float64).reshape(k, k)
    sm = np.full((k, k), np.nan)
    for a in range(k):
        sm[a, a] = clusters[a].peak_log_rho
    for (a, b), info in entries.items():
        sm[a, b] = info.log_rho
        sm[b, a] = info.log_rho
    return Topography(clusters=clusters, saddle_matrix=sm, cluster_dist=dist,
                      saddles=SaddleTable(entries=entries))
