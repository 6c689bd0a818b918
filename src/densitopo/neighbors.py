"""Point ingestion and exact nearest-neighbor graph construction.

All downstream estimators consume a :class:`NeighborGraph`: per point, the
ids and distances of its ``k_max`` nearest neighbors sorted by increasing
distance, with ties broken by ascending point id so that rebuilding the
graph from identical input bytes yields identical output bytes.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import ConfigError, DataError

DEFAULT_K_MAX = 512

# public metric name -> scipy metric name
_METRICS = {"euclidean": "euclidean", "manhattan": "cityblock"}

# Entries of an n x k_max or n x n table that a check reads at once; its
# temporaries take a few bytes per entry, so no check allocates a copy of
# the table.
_SCAN_BUDGET = 1 << 18


def _id_dtype(n: int) -> type:
    """Neighbor id dtype for n points: int32 while every id fits in it."""
    return np.int32 if n < 2**31 else np.int64


def _row_blocks(n_rows: int, row_width: int, budget: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of contiguous row blocks of at most ``budget`` entries.

    A block holds at least one row, however wide.
    """
    step = max(1, budget // row_width)
    return [(s, min(n_rows, s + step)) for s in range(0, n_rows, step)]


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

    @property
    def embedding_dim(self) -> int:
        return self.coords.shape[1]


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
        if ids.dtype.kind not in "iu":
            ids = ids.astype(np.int64)
        dists = np.asarray(self.neighbor_dists, dtype=np.float64)
        if ids.ndim != 2 or ids.shape != dists.shape:
            raise DataError("neighbor id and distance arrays must share a 2-D shape")
        n, k_max = ids.shape
        if n < 2 or k_max < 1 or k_max > n - 1:
            raise DataError(f"invalid neighbor graph shape ({n}, {k_max})")
        # ids are range-checked in the caller's dtype: the cast below would wrap
        for s, e in _row_blocks(n, k_max, _SCAN_BUDGET):
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
        object.__setattr__(self, "neighbor_ids", ids.astype(_id_dtype(n), copy=False))
        object.__setattr__(self, "neighbor_dists", dists)

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
        if coords is not None and metric not in _METRICS:
            raise ConfigError(f"unknown metric {metric!r}")
        self._coords = None if coords is None else np.asarray(coords, dtype=np.float64)
        self._matrix = None if matrix is None else np.asarray(matrix, dtype=np.float64)
        self._metric = _METRICS.get(metric, metric)

    def row(self, i: int) -> np.ndarray:
        """Distances from point i to every point (self included, = 0)."""
        if self._matrix is not None:
            return self._matrix[i]
        return cdist(self._coords[i:i + 1], self._coords, metric=self._metric)[0]


def _exact_knn_rows(block: np.ndarray, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Select the k_max nearest per row of a distance block, exactly.

    Ties are broken by ascending candidate index.  When k_max is at least
    two thirds of the row, one stable sort of each row is the cheaper way:
    on 350 rows of a 1,500-point matrix it took 46 against 66 ms at k_max
    1,499, as long at 1,000, and longer at 900 and below.  Otherwise
    argpartition selects; it does not respect the tie rule at the selection
    boundary, so rows where the boundary distance is shared re-select from
    the full tied candidate set.
    """
    if 3 * k_max >= 2 * block.shape[1]:
        ids = np.argsort(block, axis=1, kind="stable")[:, :k_max]
        return ids, np.take_along_axis(block, ids, axis=1)
    kth = k_max - 1
    # a copy, so that the full-width index array is freed at once
    part = np.argpartition(block, kth, axis=1)[:, :k_max].copy()
    part.sort(axis=1)  # ascending ids: the stable sort below breaks ties by id
    part_d = np.take_along_axis(block, part, axis=1)
    thr = part_d.max(axis=1)
    for r in np.flatnonzero((block <= thr[:, None]).sum(axis=1) > k_max):
        cand = np.flatnonzero(block[r] <= thr[r])
        part[r] = cand[np.argsort(block[r, cand], kind="stable")[:k_max]]
        part_d[r] = block[r, part[r]]
    ids = np.take_along_axis(part, np.argsort(part_d, axis=1, kind="stable"), axis=1)
    del part, part_d
    return ids, np.take_along_axis(block, ids, axis=1)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Scratch held by all row blocks in flight together: tree candidates, and
# doubles of distance rows.  Each worker gets an equal share, so the total
# does not grow with the CPU count.  Large tree blocks left freed scratch in
# the workers' malloc arenas: at 1M candidates a 20k-point 3-D build peaked
# 45 MB higher on two CPUs than at 128K, and was no faster.  Distance rows
# fared the same: 12k 20-D points at k_max 100 took 1.50 s at 1M doubles
# against 1.80 s at 16M.
_TREE_BUDGET = 1 << 17
_BRUTE_BUDGET = 1 << 20


def _map_row_blocks(fn, n_rows: int, row_width: int, budget: int) -> list:
    """Return ``[fn(s, e) ...]`` over contiguous row blocks, in block order.

    The blocks run on a thread pool with one worker per usable CPU; the
    numpy and scipy kernels they call release the GIL.  A block holds about
    ``budget / workers`` scratch entries (``row_width`` per row), so the
    blocks in flight together stay within ``budget``.  With one CPU, or a
    single block, they run in the calling thread in row order: scratch
    freed in a worker thread stays in that thread's malloc arena and raises
    the peak of later stages.  If a block raises, the blocks not yet started
    are cancelled and the exception propagates once the running ones have
    finished.
    """
    workers = _usable_cpus()
    blocks = _row_blocks(n_rows, row_width, budget // workers)
    workers = min(workers, len(blocks))
    if workers == 1:
        return [fn(s, e) for s, e in blocks]
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="densitopo-knn")
    try:
        futures = [pool.submit(fn, s, e) for s, e in blocks]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _select_knn(distance_rows, n_rows: int, n: int,
                k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN of ``n_rows`` rows of an n-point distance table, by row blocks.

    ``distance_rows(s, e)`` returns rows s..e-1 of the table as a fresh
    array, with each row's own point set to +inf.
    """
    ids = np.empty((n_rows, k_max), dtype=_id_dtype(n))
    dists = np.empty((n_rows, k_max), dtype=np.float64)

    def block(s: int, e: int) -> None:
        ids[s:e], dists[s:e] = _exact_knn_rows(distance_rows(s, e), k_max)

    _map_row_blocks(block, n_rows, n, _BRUTE_BUDGET)
    return ids, dists


def _brute_knn(coords: np.ndarray, k_max: int, metric: str,
               rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN of ``rows`` (default: every point) from full distance rows."""
    n = coords.shape[0]
    rows = np.arange(n) if rows is None else rows

    def distance_rows(s: int, e: int) -> np.ndarray:
        part = rows[s:e]
        d = cdist(coords[part], coords, metric=_METRICS[metric])
        d[np.arange(part.size), part] = np.inf  # exclude self
        return d

    return _select_knn(distance_rows, rows.size, n, k_max)


# The tree sums coordinates in its own order and prunes on rounded bounds,
# so its distances may differ from cdist's by a few ulps; this relative
# gap is far above that.
_TREE_RTOL = 1e-9


def _tree_knn(coords: np.ndarray, k_max: int,
              metric: str) -> tuple[np.ndarray, np.ndarray]:
    """Exact kNN via a k-d tree, identical to :func:`_brute_knn`.

    The tree returns self, the k_max candidates and one beyond the horizon.
    Distances are recomputed with cdist's arithmetic (terms summed in
    coordinate order, then sqrt), so they are bit-identical.  A row is kept
    only if self comes first, the candidates are in (distance, id) order, and
    the candidate beyond the horizon is farther than the k_max-th by more
    than the tree's rounding; any other row (ties at the horizon, duplicate
    points) is recomputed by brute force once every block is done.
    """
    n = coords.shape[0]
    width = min(k_max + 2, n)  # k_max = n - 1 leaves nothing beyond the horizon
    tree = cKDTree(coords)
    columns = np.ascontiguousarray(coords.T)
    ids = np.empty((n, k_max), dtype=_id_dtype(n))
    dists = np.empty((n, k_max), dtype=np.float64)

    def block(s: int, e: int) -> np.ndarray:
        rows = np.arange(s, e)
        _, cand = tree.query(coords[s:e], k=width, p=2 if metric == "euclidean" else 1)
        d = np.zeros(cand.shape)
        for col in columns:
            term = col[cand] - col[s:e, None]
            d += term * term if metric == "euclidean" else np.abs(term)
        if metric == "euclidean":
            np.sqrt(d, out=d)
        kd, kid = d[:, 1:k_max + 1], cand[:, 1:k_max + 1]
        ok = cand[:, 0] == rows
        ok &= ((kd[:, 1:] > kd[:, :-1])
               | ((kd[:, 1:] == kd[:, :-1]) & (kid[:, 1:] > kid[:, :-1]))).all(axis=1)
        if width == k_max + 2:
            ok &= d[:, -1] - d[:, -2] > _TREE_RTOL * d[:, -1]
        ids[s:e] = kid
        dists[s:e] = kd
        return rows[~ok]

    redo = np.concatenate(_map_row_blocks(block, n, width, _TREE_BUDGET))
    if redo.size:
        ids[redo], dists[redo] = _brute_knn(coords, k_max, metric, redo)
    return ids, dists


def _use_tree(n: int, k_max: int, dim: int) -> bool:
    """Whether the k-d tree beats full distance rows.

    Brute force costs O(n) per point whatever k_max is; the tree's cost grows
    with k_max and, steeply, with the dimension.  Timed on Gaussian mixtures
    and uniform cubes (CHANGES.md), the tree won in all 71 measured cases
    with dim <= 4 and n >= 4 * dim * (k_max + 2), by 1.2x or more; on
    uniform data with dim >= 5 it lost in some cases even at
    n >= 12 * (k_max + 2).

    Exact lattices are a known loss: on a 70 x 70 grid with k_max = 60 every
    row ties at the horizon, so the tree query is paid and then every row is
    redone by brute force.  On two CPUs (median of 9) the tree path took
    0.168 s euclidean and 0.123 s manhattan against 0.134 s and 0.105 s for
    brute force.  The loss is accepted: no tie pre-check is made.
    """
    return dim <= 4 and n >= 4 * dim * (k_max + 2)


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

    Candidates come from a k-d tree when it is faster (low embedding
    dimension, k_max small next to n) and from full distance rows otherwise.
    Both paths return the same bytes: distances carry cdist's arithmetic and
    ties are broken by ascending id.

    Args:
        points: input point cloud.
        k_max: neighbors per point, in [1, n - 1]; default min(n - 1, DEFAULT_K_MAX).
        metric: "euclidean" or "manhattan".

    Returns:
        NeighborGraph with rows sorted by (distance, ascending id).
    """
    if metric not in _METRICS:
        raise ConfigError(f"unknown metric {metric!r}; choose euclidean or manhattan")
    n = points.n_points
    k_max = _checked_k_max(k_max, n)
    knn = _tree_knn if _use_tree(n, k_max, points.embedding_dim) else _brute_knn
    ids, dists = knn(points.coords, k_max, metric)
    return NeighborGraph(ids, dists)


def ingest_distance_matrix(matrix: np.ndarray, k_max: int | None = None) -> NeighborGraph:
    """Build a NeighborGraph from a full pairwise distance matrix.

    The matrix must be square, non-negative, zero on the diagonal, and
    symmetric within 1e-9; asymmetry beyond that is rejected naming the
    worst entry pair.  Rows are selected by the same (distance, ascending
    id) rule and row-block driver as :func:`build_neighbor_graph`, with the
    same k_max default.  Checks and selection read the matrix in row blocks,
    so neither allocates a matrix-sized temporary.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DataError(f"distance matrix must be square, got shape {m.shape}")
    n = m.shape[0]
    if n < 2:
        raise DataError("distance matrix needs at least 2 points")
    worst, pair = 0.0, (0, 0)
    for s, e in _row_blocks(n, n, _SCAN_BUDGET):
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

    def distance_rows(s: int, e: int) -> np.ndarray:
        d = m[s:e].copy()
        d[np.arange(e - s), np.arange(s, e)] = np.inf  # exclude self
        return d

    return NeighborGraph(*_select_knn(distance_rows, n, n, k_max))

