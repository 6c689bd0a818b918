"""Point ingestion and exact nearest-neighbor graph construction.

All downstream estimators consume a :class:`NeighborGraph`: per point, the
ids and distances of its ``k_max`` nearest neighbors sorted by increasing
distance, with ties broken by ascending point id so that rebuilding the
graph from identical input bytes yields identical output bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _blocks
from ._blocks import Scratch, fill_parts, row_blocks, take, take_rows
from .errors import ConfigError, DataError

DEFAULT_K_MAX = 512

METRICS = ("euclidean", "manhattan")

def _id_dtype(n: int) -> type:
    """Neighbor id dtype for n points: int32 while every id fits in it."""
    return np.int32 if n < 2**31 else np.int64


@dataclass(frozen=True)
class PointSet:
    """A point cloud with dense integer ids 0..n-1 (row order)."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        if coords.ndim != 2:
            raise DataError(f"coordinates must be a 2-D array, got shape {coords.shape}")
        if coords.shape[0] < 2:
            raise DataError(f"need at least 2 points, got {coords.shape[0]}")
        if coords.shape[1] < 1:
            raise DataError("need at least 1 coordinate column")
        bad = ~np.isfinite(coords)
        if bad.any():
            row = int(np.nonzero(bad.any(axis=1))[0][0])
            raise DataError(f"non-finite coordinate at row {row}")
        object.__setattr__(self, "coords", coords)

    @property
    def n_points(self) -> int:
        return self.coords.shape[0]


@dataclass(frozen=True)
class NeighborGraph:
    """Per-point sorted neighbor lists (self excluded).

    ``neighbor_ids[i, l]`` is the (l+1)-th nearest neighbor of point i and
    ``neighbor_dists[i, l]`` its distance; rows are sorted by (distance, id).
    Ids are stored as int32 below 2**31 points, else as int64.
    """

    neighbor_ids: np.ndarray
    neighbor_dists: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.neighbor_ids)
        if ids.dtype.kind not in "iu" and not (np.floor(ids) == ids).all():
            raise DataError("neighbor ids must be whole numbers")  # NaN too; inf is out of range
        dists = np.asarray(self.neighbor_dists, dtype=np.float64)
        if ids.ndim != 2 or ids.shape != dists.shape:
            raise DataError("neighbor id and distance arrays must share a 2-D shape")
        n, k_max = ids.shape
        if n < 2 or k_max < 1 or k_max > n - 1:
            raise DataError(f"invalid neighbor graph shape ({n}, {k_max})")
        # ids are range-checked in the caller's dtype: the cast below would wrap
        for s, e in row_blocks(n, k_max):
            block_ids, block_dists = ids[s:e], dists[s:e]
            if not np.isfinite(block_dists).all():
                raise DataError("non-finite neighbor distance")
            if (block_dists < 0).any():
                raise DataError("negative neighbor distance")
            if (block_dists[:, 1:] < block_dists[:, :-1]).any():
                raise DataError("neighbor distances must be non-decreasing per point")
            if (block_ids < 0).any() or (block_ids >= n).any():
                raise DataError("neighbor id out of range")
            if (block_ids == np.arange(s, e)[:, None]).any():
                raise DataError("a point may not list itself as a neighbor")
        # C order: the passes over the graph gather by flat index, in place
        object.__setattr__(self, "neighbor_ids", ids.astype(_id_dtype(n), order="C",
                                                           copy=False))
        object.__setattr__(self, "neighbor_dists", np.ascontiguousarray(dists))

    @property
    def n_points(self) -> int:
        return self.neighbor_ids.shape[0]

    @property
    def k_max(self) -> int:
        return self.neighbor_ids.shape[1]


class PairwiseDistances:
    """Exact distance rows on demand, from coordinates or a full matrix.

    Needed by stages that may have to measure the distance between an
    arbitrary pair, which truncated kNN lists cannot provide.
    """

    def __init__(self, coords: np.ndarray | None = None,
                 matrix: np.ndarray | None = None, metric: str = "euclidean"):
        if (coords is None) == (matrix is None):
            raise ConfigError("provide exactly one of coordinates or a distance matrix")
        if coords is not None and metric not in METRICS:
            raise ConfigError(f"unknown metric {metric!r}")
        self._coords = None if coords is None else np.asarray(coords, dtype=np.float64)
        self._matrix = None if matrix is None else np.asarray(matrix, dtype=np.float64)
        self._metric = metric

    def row(self, i: int) -> np.ndarray:
        """Distances from point i to every point (self included, = 0)."""
        if self._matrix is not None:
            return self._matrix[i]
        return _distances(self._coords[i:i + 1], self._coords, self._metric, Scratch())[0]


def _distances(a: np.ndarray, b: np.ndarray, metric: str, scratch: Scratch) -> np.ndarray:
    """Distances from each row of ``a`` to each row of ``b``, as cdist computes them.

    The terms are added in coordinate order, one column at a time, and the
    euclidean sum is then square-rooted: that is cdist's arithmetic, so the
    result equals ``scipy.spatial.distance.cdist`` bit for bit at any block
    shape.  An expansion |a|^2 + |b|^2 - 2ab through BLAS does not.  The
    result is the scratch buffer ``"d"``; ``"term"`` holds each column's terms.
    """
    d = scratch.take("d", (a.shape[0], b.shape[0]))
    term = scratch.take("term", d.shape) if a.shape[1] > 1 else None
    for j in range(a.shape[1]):
        out = term if j else d
        np.subtract(a[:, j, None], b[None, :, j], out=out)
        if metric == "euclidean":
            np.multiply(out, out, out=out)
        else:
            np.abs(out, out=out)
        if j:
            d += term
    if metric == "euclidean":
        np.sqrt(d, out=d)
    return d


def _exact_knn_rows(block: np.ndarray, k_max: int,
                    scratch: Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Select the k_max nearest per row of a distance block, exactly.

    Ties are broken by ascending candidate index.  Argpartition selects
    and only the selection is sorted (64 rows of 6,000 at 512: 1.7 against
    5.8 ms for sorting whole rows).  The sort is numpy's default, which
    orders equal distances arbitrarily but is about four times faster than
    a stable one (0.084 against 0.31 s on 10k rows of 512).  Rows without a
    tie among the selected distances or at the selection boundary come out
    the same either way; the others are selected again, all together:
    every distance below the k_max-th, then the lowest indices at it,
    stably sorted.

    The ids, the distances and the tie count's mask are views of the
    scratch buffer ``"term"``, whose column terms :func:`_distances` has
    spent; only the sort indices are fresh.  The selected distances are
    sorted in place: a row without ties has one sorted order, and a row
    with ties is selected again.  ``block`` must not be a view of that
    buffer.
    """
    shape = (block.shape[0], k_max)
    size = math.prod(shape) * 8
    mask = scratch.take("term", block.shape, bool, 2 * size)  # last, so the buffer grows once
    ids, dists = scratch.take("term", shape, np.intp), scratch.take("term", shape, offset=size)
    whole = np.argpartition(block, k_max - 1, axis=1)
    take_rows(block, whole[:, :k_max], ids, dists)
    order = np.argsort(dists, axis=1)
    # order indexes the first k_max columns, which ``whole`` holds in place
    take_rows(whole, order, order, ids)
    dists.sort(axis=1)
    kth = dists[:, -1:]
    tied = (dists[:, 1:] == dists[:, :-1]).any(axis=1)
    tied |= np.less_equal(block, kth, out=mask).sum(axis=1) > k_max
    rows = np.flatnonzero(tied)
    if rows.size:
        sub, kth = block[rows], kth[rows]
        keep = sub < kth
        at = sub == kth
        keep |= at & (np.cumsum(at, axis=1) <= k_max - keep.sum(axis=1, keepdims=True))
        sel = np.nonzero(keep)[1].reshape(rows.size, k_max)
        sel_d = take_rows(sub, sel)
        order = np.argsort(sel_d, axis=1, kind="stable")
        ids[rows], dists[rows] = take_rows(sel, order), take_rows(sel_d, order)
    return ids, dists


def _knn_among(rows: np.ndarray, cand: np.ndarray, distance_rows,
               ids: np.ndarray, dists: np.ndarray, scratch: Scratch) -> None:
    """Write the exact kNN of ``rows`` among the points ``cand`` into ``ids`` and ``dists``.

    ``cand`` is ascending and holds every row; ``distance_rows(part, cand,
    scratch)`` returns the distances from the points ``part`` to ``cand`` in
    a buffer of ``scratch`` that this step may overwrite.  The rows go in
    blocks of at most ``WORKER_ENTRIES`` entries, the size of one worker's
    scratch; each row's own point is set to +inf, and
    :func:`_exact_knn_rows` selects by (distance, id): candidates in
    ascending id order make its column order the id order.
    """
    k_max = ids.shape[1]
    for s, e in row_blocks(rows.size, cand.size, _blocks.WORKER_ENTRIES):
        part = rows[s:e]
        d = distance_rows(part, cand, scratch)
        d[np.arange(part.size), np.searchsorted(cand, part)] = np.inf  # exclude self
        col, dists[part] = _exact_knn_rows(d, k_max, scratch)
        # in place: each position's column is read before its id is written
        ids[part] = take(cand, col, col)
        # views of the scratch: held into the next block, they would keep
        # the buffers a wider block replaces alive beside their successors
        del d, col


def _knn_parts(work: int, items, layout, select) -> tuple[np.ndarray, ...]:
    """Arrays of ``layout`` from ``select(items[i], *arrays, scratch)`` per item, each
    writing only its own entries: a part runs its items with one :class:`Scratch`,
    as many parts as ``work`` (distances read) allows (:func:`fill_parts`)."""
    def fill(mine: np.ndarray, *out: np.ndarray) -> None:
        scratch = Scratch()
        for i in mine.tolist():
            select(items[i], *out, scratch)

    return fill_parts(work, len(items), layout, fill)


# Points per kd leaf: of 16 to 128, 64 was fastest on 10k 2-D, 20k 3-D and
# 20k 4-D mixtures at k_max 512.  Smaller leaves pay more per-leaf work,
# larger ones more candidates per row.
_LEAF_SIZE = 64
# The relative gap by which a row's k_max-th distance must clear its leaf's
# candidate radius.  Box and point distances are each rounded, by far less.
_TREE_RTOL = 1e-9


def _kd_leaves(coords: np.ndarray) -> list[np.ndarray]:
    """Point ids cut into leaves of at most ``_LEAF_SIZE`` by median splits.

    Each split halves a node on the axis of its widest extent.
    """
    leaves, stack = [], [np.arange(coords.shape[0])]
    while stack:
        node = stack.pop()
        if node.size <= _LEAF_SIZE:
            leaves.append(np.sort(node))
            continue
        values = coords[node]
        axis = int(np.argmax(values.max(axis=0) - values.min(axis=0)))
        half = node.size // 2
        split = np.argpartition(values[:, axis], half)
        stack.append(node[split[half:]])
        stack.append(node[split[:half]])
    return leaves


def _tree_knn(coords: np.ndarray, k_max: int,
              metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN from kd leaves, identical to full distance rows.

    The points are cut into kd leaves (:func:`_kd_leaves`).  For each leaf,
    a row's (k_max + 1)-th distance into the nearest leaves by box distance
    bounds its k_max-th distance, and the largest bound of the leaf's rows
    is its radius.  Every point within that radius lies in a leaf whose box
    is within it, so those leaves' points, in ascending id order, are the
    candidates, and :func:`_knn_among` selects among them by the same
    (distance, id) rule as over full rows: ties, lattices and duplicate
    points need nothing more.  Distances come from :func:`_distances`,
    cdist's arithmetic.  A row whose k_max-th distance does not clear the
    radius by ``_TREE_RTOL`` (a radius of 0: k_max + 1 coincident points)
    is selected again over all points, by the same step in the same worker.
    The bounds, then the selections, run in forked parts, each pass cut by
    the distances it reads, which the bounds count for the selection (:func:`_knn_parts`).

    The bounding leaves hold 2 (k_max + 1) points.  On a 50k 3-D mixture,
    bounding leaves holding k_max + 1 points gave radii 1.67 times the
    leaf's largest k_max-th distance and 8,376 candidates per row; twice
    that gave 1.09 times and 6,013 (5,437 at the exact radius).
    """
    n = coords.shape[0]
    leaves = _kd_leaves(coords)
    sizes = np.array([leaf.size for leaf in leaves])
    lo = np.array([coords[leaf].min(axis=0) for leaf in leaves])
    hi = np.array([coords[leaf].max(axis=0) for leaf in leaves])
    columns = np.ascontiguousarray(coords.T)
    everyone = np.arange(n)

    def near(leaf: int) -> np.ndarray:  # box distances from leaf ``leaf`` to each leaf
        gap = np.maximum(np.maximum(lo - hi[leaf], lo[leaf] - hi), 0.0)
        return np.sqrt((gap * gap).sum(axis=1)) if metric == "euclidean" else gap.sum(axis=1)

    def candidates(chosen: np.ndarray) -> np.ndarray:
        return np.sort(np.concatenate([leaves[m] for m in chosen]))

    def distance_rows(part: np.ndarray, cand: np.ndarray, scratch: Scratch) -> np.ndarray:
        return _distances(coords[part], np.take(columns, cand, axis=1).T, metric, scratch)

    # the bounding leaves, None if every leaf: with or without self among
    # them, a row's (k_max + 1)-th distance there bounds its k_max-th
    firsts = []
    for leaf in range(len(leaves)):
        by_near = np.argsort(near(leaf))
        first = by_near[:np.searchsorted(np.cumsum(sizes[by_near]), 2 * (k_max + 1)) + 1]
        firsts.append(first if first.size < len(leaves) else None)

    def bound_leaf(leaf: int, radii: np.ndarray, reads: np.ndarray, scratch: Scratch) -> None:
        rows, first = leaves[leaf], firsts[leaf]
        bound = np.full(rows.size, np.inf)
        if first is not None:
            cand = candidates(first)
            for s, e in row_blocks(rows.size, cand.size, _blocks.WORKER_ENTRIES):
                block = distance_rows(rows[s:e], cand, scratch)
                block.partition(k_max, axis=1)  # each row's (k_max + 1)-th distance
                bound[s:e] = block[:, k_max]
        radii[leaf] = bound.max() * (1.0 + 2.0 * _TREE_RTOL)
        reads[leaf] = rows.size * sizes[near(leaf) <= radii[leaf]].sum()

    def leaf_block(leaf: int, ids: np.ndarray, dists: np.ndarray, scratch: Scratch) -> None:
        rows, radius = leaves[leaf], radii[leaf]
        cand = candidates(np.flatnonzero(near(leaf) <= radius))
        _knn_among(rows, cand, distance_rows, ids, dists, scratch)
        if cand.size < n:
            redo = rows[~(dists[rows, -1] < radius * (1.0 - _TREE_RTOL))]
            _knn_among(redo, everyone, distance_rows, ids, dists, scratch)

    n_leaves = len(leaves)
    radii, reads = _knn_parts(
        sum(leaves[i].size * sizes[f].sum() for i, f in enumerate(firsts) if f is not None),
        range(n_leaves), [((n_leaves,), np.float64), ((n_leaves,), np.int64)], bound_leaf)
    return _knn_parts(int(reads.sum()), range(n_leaves), [((n, k_max), _id_dtype(n)),
                                                         ((n, k_max), np.float64)], leaf_block)


def _checked_k_max(k_max: int | None, n: int) -> int:
    """k_max, by default min(n - 1, DEFAULT_K_MAX); it must lie in [1, n - 1]."""
    if k_max is None:
        return min(n - 1, DEFAULT_K_MAX)
    if not 1 <= k_max <= n - 1:
        raise ConfigError(f"k_max must be in [1, n-1] = [1, {n - 1}], got {k_max}")
    return k_max


def build_neighbor_graph(points: PointSet, k_max: int | None = None,
                         metric: str = "euclidean") -> NeighborGraph:
    """Compute the exact kNN graph of a point set.

    Candidates come from kd leaves (:func:`_tree_knn`) in any dimension.
    The result equals selection over full distance rows: distances carry
    cdist's arithmetic and ties are broken by ascending id.  Points near a
    low-dimensional manifold prune most leaves: on 2 CPUs, 12k points of a
    3-D mixture embedded in 20-D take 1.1 s at k_max 100, against 2.6 s
    for full cdist rows with scipy's import.  Full-rank data in many
    dimensions prunes few, and there cdist's kernel is faster: 12k uniform
    20-D points take 4.1 against 2.4 s.

    Args:
        points: input point cloud.
        k_max: neighbors per point, in [1, n - 1]; default min(n - 1, DEFAULT_K_MAX).
        metric: "euclidean" or "manhattan".

    Returns:
        NeighborGraph with rows sorted by (distance, ascending id).
    """
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}; choose euclidean or manhattan")
    n = points.n_points
    k_max = _checked_k_max(k_max, n)
    ids, dists = _tree_knn(points.coords, k_max, metric)
    return NeighborGraph(ids, dists)


def ingest_distance_matrix(matrix: np.ndarray, k_max: int | None = None) -> NeighborGraph:
    """Build a NeighborGraph from a full pairwise distance matrix.

    The matrix must be square, non-negative, zero on the diagonal, and
    symmetric within 1e-9; asymmetry beyond that is rejected naming the
    worst entry pair.  Contiguous row blocks run on every usable CPU as the
    kd leaves do (:func:`_knn_parts`), and each is selected among every
    point by the step that selects a kd leaf's rows in
    :func:`build_neighbor_graph` (:func:`_knn_among`), with the same k_max
    default.  Checks and selection read the matrix in row blocks, so
    neither allocates a matrix-sized temporary.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DataError(f"distance matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if n < 2:
        raise DataError("distance matrix needs at least 2 points")
    worst, pair = 0.0, (0, 0)
    for s, e in row_blocks(n, n):
        rows = m[s:e]
        if not np.isfinite(rows).all():
            raise DataError("non-finite entry in distance matrix")
        if (rows < 0).any():
            raise DataError("negative entry in distance matrix")
        # the first largest gap in row order lies above the diagonal
        gap = np.abs(rows[:, s:] - m[s:, s:e].T)
        at = int(gap.argmax())
        if gap.flat[at] > worst:
            worst = float(gap.flat[at])
            pair = (s + at // gap.shape[1], s + at % gap.shape[1])
    if np.abs(np.diagonal(m)).max() > 1e-9:
        raise DataError("distance matrix diagonal must be zero")
    if worst > 1e-9:
        i, j = pair
        raise DataError(
            f"distance matrix asymmetric: |d[{i},{j}] - d[{j},{i}]| = {worst:g} > 1e-9")
    k_max = _checked_k_max(k_max, n)
    everyone = np.arange(n)

    def matrix_rows(part: np.ndarray, _, scratch: Scratch) -> np.ndarray:
        # every point is a candidate, so a row of the matrix is its distance
        # row; a block's rows are consecutive, a slice of m in any memory order
        d = scratch.take("d", (part.size, n))
        d[...] = m[part[0]:part[-1] + 1]
        return d

    blocks = [everyone[s:e] for s, e in row_blocks(n, n, _blocks.WORKER_ENTRIES)]
    return NeighborGraph(*_knn_parts(
        n * n, blocks, [((n, k_max), _id_dtype(n)), ((n, k_max), np.float64)],
        lambda rows, *out: _knn_among(rows, everyone, matrix_rows, *out)))
