"""Density-peak detection, point assignment, saddle analysis, and merging.

Peaks are local maxima of the error-adjusted log density g; every other
point follows its nearest higher-g parent, which partitions the sample
into one tree per peak.  Contacting clusters are then merged whenever the
density gap between a peak and the connecting saddle is not significant
against the combined error bars, and members below their cluster's
highest saddle density are flagged as halo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .density import DensityEstimate
from .errors import ConfigError, DegenerateDataError, InternalInvariantError
from .neighbors import NeighborGraph, PairwiseDistances, _row_blocks, _Scratch, _take

# neighbor-table entries (rows x k_max) per block: each pass over the graph
# holds a few bytes of temporaries per entry of one block, not of the table.
# A pass's scratch is freed when the pass returns, below the arrays it made,
# so it stays resident as free heap: at 2^16 entries a uniform2d run peaked
# 1.5 MB higher than at 2^15, in the same time.
_BLOCK_ENTRIES = 1 << 15


def _check_z(z: float) -> None:
    """Reject a merge threshold z that is negative or NaN."""
    if not (z >= 0.0):
        raise ConfigError(f"z must be >= 0, got {z}")


class SaddleInfo(NamedTuple):
    log_rho: float
    err: float
    border_point: int


@dataclass
class SaddleTable:
    """Sparse symmetric table of saddle densities between cluster pairs.

    Keys are ordered pairs (a, b) with a < b of final cluster labels.
    """

    entries: dict[tuple[int, int], SaddleInfo] = field(default_factory=dict)


@dataclass
class PeakAssignment:
    """Full per-point clustering state (index = point id)."""

    g: np.ndarray
    delta: np.ndarray
    parent: np.ndarray
    labels: np.ndarray
    is_center: np.ndarray
    is_halo: np.ndarray
    centers: list[int]

    @property
    def n_clusters(self) -> int:
        return len(self.centers)


@dataclass
class ClusterResult:
    assignment: PeakAssignment
    saddles: SaddleTable
    merge_log: list[dict]
    putative_centers: list[int]


def _row_ids(graph: NeighborGraph, rows, scratch: _Scratch) -> np.ndarray:
    """Neighbor ids of the rows ``rows`` as intp, the index type numpy
    gathers by, in the scratch buffer ``"ids"``.

    Gathering by the graph's int32 ids casts them on every call, which made
    the clustering passes a quarter slower.
    """
    table = graph.neighbor_ids[rows]
    ids = scratch.take("ids", table.shape, np.intp)
    ids[...] = table
    return ids


def _gather(values: np.ndarray, ids: np.ndarray, scratch: _Scratch, name: str) -> np.ndarray:
    """``values[ids]`` in the scratch buffer ``name``."""
    return _take(values, ids, scratch.take(name, ids.shape, values.dtype))


def compute_g(estimate: DensityEstimate) -> np.ndarray:
    """Error-adjusted log density used for all peak comparisons."""
    return estimate.log_rho + estimate.err


def compute_delta_parent(g: np.ndarray, graph: NeighborGraph,
                         pairwise: PairwiseDistances) -> tuple[np.ndarray, np.ndarray]:
    """Distance to and id of the nearest strictly-higher-g point.

    Ties in distance break toward the smaller id.  Points with no higher-g
    point (the global maximum, or every member of a tied top plateau) get
    parent -1 and delta set to the distance to their farthest point, the
    decision-graph convention that keeps them maximally eligible.

    The neighbor list resolves most points; a point falls back to an exact
    scan over all points when no listed neighbor has higher g or when the
    in-list candidate ties the list horizon, where an unseen equally-near
    point with smaller id could exist.
    """
    n, k_max = graph.n_points, graph.k_max
    delta = np.full(n, np.nan)
    parent = np.full(n, -1, dtype=np.int64)
    need_scan: list[int] = []

    scratch = _Scratch()
    for s, e in _row_blocks(n, k_max, _BLOCK_ENTRIES):
        ids = _row_ids(graph, slice(s, e), scratch)
        dists = graph.neighbor_dists[s:e]
        higher = np.greater(_gather(g, ids, scratch, "g"), g[s:e, None],
                            out=scratch.take("higher", ids.shape, bool))
        has = higher.any(axis=1)
        pos = higher.argmax(axis=1)
        rows = np.arange(e - s)
        cand_d = dists[rows, pos]
        horizon = dists[:, k_max - 1]
        safe = has & (cand_d < horizon)
        idx = np.nonzero(safe)[0]
        delta[s + idx] = cand_d[idx]
        parent[s + idx] = ids[idx, pos[idx]]
        need_scan.extend((s + np.nonzero(~safe)[0]).tolist())

    for i in need_scan:
        mask = g > g[i]
        if not mask.any():
            continue  # parentless; filled below
        cand = np.nonzero(mask)[0]
        dd = pairwise.row(i)[cand]
        best = int(dd.argmin())  # first occurrence = smallest id among ties
        delta[i] = dd[best]
        parent[i] = cand[best]

    for i in np.nonzero(parent < 0)[0]:
        delta[i] = float(pairwise.row(i).max())
    return delta, parent


def detect_putative_centers(g: np.ndarray, delta: np.ndarray,
                            estimate: DensityEstimate,
                            graph: NeighborGraph) -> list[int]:
    """Points that are peaks of g over their own adaptive neighborhood.

    A center must have its nearest higher-g point strictly beyond its
    adaptive radius and must not sit inside the adaptive neighborhood of
    any higher-g point.  Returned sorted by decreasing g (ties by id).
    """
    n = graph.n_points
    eligible = delta > estimate.r_khat
    vetoed = np.zeros(n, dtype=bool)
    k_hat = estimate.k_hat
    scratch = _Scratch()
    for s, e in _row_blocks(n, graph.k_max, _BLOCK_ENTRIES):
        ids = _row_ids(graph, slice(s, e), scratch)
        dominated = np.less(_gather(g, ids, scratch, "g"), g[s:e, None],
                            out=scratch.take("dominated", ids.shape, bool))
        dominated &= np.arange(ids.shape[1])[None, :] < k_hat[s:e, None]
        vetoed[ids[dominated]] = True

    cand = np.nonzero(eligible & ~vetoed)[0]
    if cand.size == 0:
        raise DegenerateDataError(
            "no density peak found: the g landscape has no local maximum "
            "that survives the neighborhood veto")
    order = np.argsort(-g[cand], kind="stable")
    return [int(c) for c in cand[order]]


def assign_points(g: np.ndarray, parent: np.ndarray,
                  centers: list[int]) -> np.ndarray:
    """Give every point the label of its parent chain's center.

    Visits points in decreasing g so each parent is labeled before its
    children; a still-unlabeled parent indicates a broken parent forest.
    """
    n = g.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    for rank, c in enumerate(centers):
        labels[c] = rank
    order = np.argsort(-g, kind="stable")
    for i in order:
        if labels[i] >= 0:
            continue
        p = parent[i]
        if p < 0 or labels[p] < 0:
            raise InternalInvariantError(
                f"point {i} has no labeled parent at assignment time")
        labels[i] = labels[p]
    return labels


def find_borders_saddles(labels: np.ndarray, graph: NeighborGraph,
                         g: np.ndarray, estimate: DensityEstimate,
                         pairwise: PairwiseDistances) -> SaddleTable:
    """Locate the border point of maximal g between every contacting pair.

    Point i of cluster c borders cluster c' when its nearest c'-labeled
    point j lies within i's adaptive radius and i is in turn the nearest
    c-labeled point to j (ties by id).  The saddle of (c, c') is the border
    point with the highest g from either side, ties to the smaller id; its
    log density and error are stored.

    The back-check reads j's neighbor list; only when that list holds no
    c-labeled point is j's exact distance row scanned.
    """
    n = graph.n_points
    n_labels = np.int64(labels.max()) + 1
    border: list[np.ndarray] = []
    pair_key: list[np.ndarray] = []

    scratch = _Scratch()
    for s, e in _row_blocks(n, graph.k_max, _BLOCK_ENTRIES):
        ids = _row_ids(graph, slice(s, e), scratch)
        within = np.less_equal(graph.neighbor_dists[s:e], estimate.r_khat[s:e, None],
                               out=scratch.take("within", ids.shape, bool))
        within &= np.not_equal(_gather(labels, ids, scratch, "labels"), labels[s:e, None],
                               out=scratch.take("foreign", ids.shape, bool))
        rows, cols = np.nonzero(within)  # (row, column) order
        # only the nearest foreign point of each cluster counts
        _, first = np.unique(rows * n_labels + labels[ids[rows, cols]],
                             return_index=True)
        i = s + rows[first]
        j = ids[rows[first], cols[first]]
        mine = labels[i]

        ok = np.empty(i.size, dtype=bool)
        # the block's ids and labels are spent: the back-check reuses their buffers
        for b, c in _row_blocks(i.size, graph.k_max, _BLOCK_ENTRIES):
            jb, mb = j[b:c], mine[b:c]
            hit = np.equal(_gather(labels, _row_ids(graph, jb, scratch), scratch, "labels"),
                           mb[:, None], out=scratch.take("hit", (jb.size, graph.k_max), bool))
            pos = hit.argmax(axis=1)
            ok[b:c] = graph.neighbor_ids[jb, pos] == i[b:c]
            for r in np.nonzero(~hit[np.arange(jb.size), pos])[0]:
                # no member of i's cluster inside j's stored list
                members = np.nonzero(labels == mb[r])[0]
                nearest = members[int(pairwise.row(int(jb[r]))[members].argmin())]
                ok[b + r] = nearest == i[b + r]

        i, mine, other = i[ok], mine[ok], labels[j[ok]]
        border.append(i)
        pair_key.append(np.minimum(mine, other) * n_labels + np.maximum(mine, other))

    border_pts = np.concatenate(border)
    keys = np.concatenate(pair_key)
    # per cluster pair, the border point of largest g, ties to the smaller id
    order = np.lexsort((border_pts, -g[border_pts], keys))
    keys, border_pts = keys[order], border_pts[order]
    head = np.ones(keys.size, dtype=bool)
    head[1:] = keys[1:] != keys[:-1]
    entries = {
        (int(k // n_labels), int(k % n_labels)): SaddleInfo(
            log_rho=float(estimate.log_rho[i]), err=float(estimate.err[i]),
            border_point=int(i))
        for k, i in zip(keys[head].tolist(), border_pts[head].tolist())}
    return SaddleTable(entries=entries)


def merge_clusters(labels: np.ndarray, centers: list[int], saddles: SaddleTable,
                   estimate: DensityEstimate, z: float
                   ) -> tuple[np.ndarray, list[int], SaddleTable, list[dict], np.ndarray]:
    """Merge statistically indistinguishable peaks into their neighbors.

    Labels are peak ranks: ``centers`` runs by decreasing peak g, as
    :func:`detect_putative_centers` returns it, so for a saddle key (a, b)
    with a < b, b is the lower peak and the one under test.  Contacting
    pairs are visited by decreasing saddle density; b is absorbed into a
    when its peak does not rise above the saddle by more than z times the
    combined error bars.  After a merge the absorbed cluster's saddles
    transfer to the survivor, keeping the denser saddle on conflict, and
    the scan restarts until no pair merges.

    Returns:
        (labels, centers, saddles, merge_log, final): labels renumbered
        0..K-1 in peak order, and final[c] the new label of putative
        cluster c.
    """
    into = np.arange(len(centers))
    sad = dict(saddles.entries)
    merge_log: list[dict] = []

    while True:
        order = sorted(sad.items(), key=lambda kv: (-kv[1].log_rho, kv[0]))
        for (high, low), info in order:
            peak, peak_err = estimate.log_rho[centers[low]], estimate.err[centers[low]]
            if (peak - info.log_rho) < z * (peak_err + info.err):
                break
        else:
            break
        merge_log.append({
            "removed_center": int(centers[low]),
            "surviving_center": int(centers[high]),
            "saddle_log_rho": float(info.log_rho),
            "saddle_err": float(info.err),
            "border_point": int(info.border_point),
        })
        del sad[(high, low)]
        for key in [k for k in sad if low in k]:
            moved = sad.pop(key)
            third = key[0] if key[1] == low else key[1]
            nk = (min(high, third), max(high, third))
            kept = sad.get(nk)
            if kept is None or (moved.log_rho, -moved.border_point) > \
                    (kept.log_rho, -kept.border_point):
                sad[nk] = moved
        into[low] = high

    # a cluster is only absorbed into a smaller label: one pass resolves chains
    for c in range(into.size):
        into[c] = into[into[c]]
    alive = into == np.arange(into.size)
    new = np.cumsum(alive) - 1
    final = new[into]
    sad_out = SaddleTable(entries={(int(new[a]), int(new[b])): info
                                   for (a, b), info in sad.items()})
    return (final[labels], [centers[c] for c in np.flatnonzero(alive)], sad_out,
            merge_log, final)


def flag_halo(labels: np.ndarray, saddles: SaddleTable,
              estimate: DensityEstimate) -> np.ndarray:
    """Mark members strictly below their cluster's highest saddle density.

    Clusters without any saddle keep no halo.
    """
    n_clusters = int(labels.max()) + 1 if labels.size else 0
    thresholds = np.full(n_clusters, -np.inf)
    for (a, b), info in saddles.entries.items():
        for c in (a, b):
            thresholds[c] = max(thresholds[c], info.log_rho)
    return estimate.log_rho < thresholds[labels]


def cluster_points(graph: NeighborGraph, estimate: DensityEstimate,
                   pairwise: PairwiseDistances, z: float = 1.0) -> ClusterResult:
    """Full clustering chain from a density estimate to merged, halo-flagged clusters.

    z is the significance threshold of the peak-vs-saddle test: larger z
    merges more aggressively, z = 0 keeps every density peak that stands
    above its saddles at all.
    """
    _check_z(z)
    g = compute_g(estimate)
    delta, parent = compute_delta_parent(g, graph, pairwise)
    putative = detect_putative_centers(g, delta, estimate, graph)
    labels = assign_points(g, parent, putative)
    saddles = find_borders_saddles(labels, graph, g, estimate, pairwise)
    labels, centers, saddles, merge_log, final = merge_clusters(
        labels, putative, saddles, estimate, z)
    parent[putative] = np.asarray(centers)[final]
    parent[centers] = -1

    is_center = np.zeros(graph.n_points, dtype=bool)
    is_center[centers] = True
    assignment = PeakAssignment(g=g, delta=delta, parent=parent, labels=labels,
                                is_center=is_center,
                                is_halo=flag_halo(labels, saddles, estimate),
                                centers=centers)
    return ClusterResult(assignment=assignment, saddles=saddles,
                         merge_log=merge_log, putative_centers=putative)
