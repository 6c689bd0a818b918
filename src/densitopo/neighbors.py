"""Point ingestion and exact nearest-neighbor graph construction.

All downstream estimators consume a :class:`NeighborGraph`: per point, the
ids and distances of its ``k_max`` nearest neighbors sorted by increasing
distance, with ties broken by ascending point id so that rebuilding the
graph from identical input bytes yields identical output bytes.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

DEFAULT_K_MAX = 512

_METRICS = ("euclidean", "manhattan")

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


class _Scratch:
    """Working arrays reused by every block one worker runs in one call.

    ``take(name, shape, dtype, offset)`` returns a C-contiguous view that
    starts ``offset`` bytes into the byte buffer called ``name`` and holds
    whatever an earlier block left there; the buffer is replaced by a larger
    one when a wider block asks for more.  Views of one name share its
    bytes, so arrays whose lives do not overlap can share a buffer.  Fresh
    block-sized temporaries are handed back to the kernel by malloc between
    blocks and faulted in again for the next one; reused buffers are faulted
    in once.  A caller makes one per worker for the length of one call, and
    the buffers are freed with it: kept any longer, they would raise the
    peak of later stages.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64,
             offset: int = 0) -> np.ndarray:
        dtype = np.dtype(dtype)
        end = offset + math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < end:
            buf = self._buffers[name] = None  # freed before its successor is made
            buf = self._buffers[name] = self._allocate(name, end)
        return buf[offset:end].view(dtype).reshape(shape)

    def _allocate(self, name: str, nbytes: int) -> np.ndarray:
        return np.empty(nbytes, dtype=np.uint8)


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
        if ids.dtype.kind not in "iu" and not (np.floor(ids) == ids).all():
            raise DataError("neighbor ids must be whole numbers")  # NaN too; inf is out of range
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
        if coords is not None and metric not in _METRICS:
            raise ConfigError(f"unknown metric {metric!r}")
        self._coords = None if coords is None else np.asarray(coords, dtype=np.float64)
        self._matrix = None if matrix is None else np.asarray(matrix, dtype=np.float64)
        self._metric = metric

    def row(self, i: int) -> np.ndarray:
        """Distances from point i to every point (self included, = 0)."""
        if self._matrix is not None:
            return self._matrix[i]
        return _distances(self._coords[i:i + 1], self._coords, self._metric, _Scratch())[0]


def _distances(a: np.ndarray, b: np.ndarray, metric: str, scratch: _Scratch) -> np.ndarray:
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


def _take(table: np.ndarray, index: np.ndarray, out: np.ndarray | None,
          axis: int | None = None) -> np.ndarray:
    """``np.take(table, index, axis)``, written into ``out`` when given.

    The indices are in range: mode "clip" only keeps numpy from writing
    through a copy of ``out``, as it does in mode "raise".  ``table`` is
    C-contiguous, or numpy copies all of it first.
    """
    return np.take(table, index, axis=axis, out=out, mode="clip")


def _take_rows(table: np.ndarray, cols: np.ndarray, flat: np.ndarray | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
    """``table[r, cols[r]]`` per row r, as take_along_axis but by flat index.

    The flat index is written into ``flat`` when given, shaped as ``cols``
    (``cols`` itself will do), and ``table`` is C-contiguous, or numpy
    would copy it.  On a 24 x 4,000 block at 512 columns it took 31 against
    76 us.
    """
    flat = np.add(cols, (np.arange(cols.shape[0]) * table.shape[1])[:, None], out=flat)
    return _take(table, flat, out)


def _exact_knn_rows(block: np.ndarray, k_max: int,
                    scratch: _Scratch) -> tuple[np.ndarray, np.ndarray]:
    """Select the k_max nearest per row of a distance block, exactly.

    Ties are broken by ascending candidate index.  When k_max is at least
    two thirds of the row, sorting whole rows is the cheaper way (350 rows
    of 1,500 at k_max 1,000: 8.3 against 19.0 ms); otherwise argpartition
    selects and the selection is sorted (64 rows of 6,000 at 512: 1.7
    against 5.8 ms).  Both use numpy's
    default sort, which orders equal distances arbitrarily but is about
    four times faster than a stable one (0.084 against 0.31 s on 10k rows
    of 512).  Rows without a tie among the selected distances or at the
    selection boundary come out the same either way; the others are
    selected again, all together: every distance below the k_max-th, then
    the lowest indices at it, stably sorted.

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
    if 3 * k_max >= 2 * block.shape[1]:
        order = np.argsort(block, axis=1)[:, :k_max]
        _take_rows(block, order, ids, dists)
        ids = order
    else:
        whole = np.argpartition(block, k_max - 1, axis=1)
        _take_rows(block, whole[:, :k_max], ids, dists)
        order = np.argsort(dists, axis=1)
        # order indexes the first k_max columns, which ``whole`` holds in place
        _take_rows(whole, order, order, ids)
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
        sel_d = _take_rows(sub, sel)
        order = np.argsort(sel_d, axis=1, kind="stable")
        ids[rows], dists[rows] = _take_rows(sel, order), _take_rows(sel_d, order)
    return ids, dists


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Distance entries held by all blocks in flight together: the rows of a
# kd leaf's bounds, and of :func:`_knn_among` against a leaf's candidates
# or every point.  Each worker gets an equal share, so the total does not
# grow with the CPU count.  A worker's scratch is reused from block to block
# and stays resident until the call returns, so the budget sets the stage's
# peak: on 2 CPUs a 20k-point 3-D mixture builds in about 1.05 s at 2^18,
# 2^19 and 2^20 entries and peaks at 165, 170 and 185 MiB (1.38 s and 173
# MiB at 2^20 with fresh scratch per block).
_BLOCK_BUDGET = 1 << 18


def _map_blocks(fn, blocks: list[tuple]) -> list:
    """Return ``[fn(scratch, *b) for b in blocks]``, in block order.

    The blocks run on a thread pool with one worker per usable CPU; the
    numpy kernels they call release the GIL.  With one CPU, or a
    single block, they run in the calling thread in order: scratch freed in
    a worker thread stays in that thread's malloc arena and raises the peak
    of later stages.  Each worker passes its blocks one :class:`_Scratch`,
    freed when the call returns, so no result may be a view of it.  If a
    block raises, the blocks not yet started are cancelled and the exception
    propagates once the running ones have finished.
    """
    workers = min(_usable_cpus(), len(blocks))
    if workers <= 1:
        scratch = _Scratch()
        return [fn(scratch, *b) for b in blocks]
    by_thread: dict[int, _Scratch] = {}

    def run(*b):
        ident = threading.get_ident()
        if ident not in by_thread:
            by_thread[ident] = _Scratch()
        return fn(by_thread[ident], *b)

    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="densitopo-knn")
    try:
        futures = [pool.submit(run, *b) for b in blocks]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _knn_among(rows: np.ndarray, cand: np.ndarray, distance_rows,
               ids: np.ndarray, dists: np.ndarray, scratch: _Scratch) -> None:
    """Write the exact kNN of ``rows`` among the points ``cand`` into ``ids`` and ``dists``.

    ``cand`` is ascending and holds every row; ``distance_rows(part, cand,
    scratch)`` returns the distances from the points ``part`` to ``cand`` in
    a buffer of ``scratch`` that this step may overwrite.  The rows go in
    blocks of at most one worker's share of ``_BLOCK_BUDGET`` entries, each
    row's own point is set to +inf, and :func:`_exact_knn_rows` selects by
    (distance, id): candidates in ascending id order make its column order
    the id order.
    """
    k_max = ids.shape[1]
    for s, e in _row_blocks(rows.size, cand.size, _BLOCK_BUDGET // _usable_cpus()):
        part = rows[s:e]
        d = distance_rows(part, cand, scratch)
        d[np.arange(part.size), np.searchsorted(cand, part)] = np.inf  # exclude self
        col, dists[part] = _exact_knn_rows(d, k_max, scratch)
        # in place: each position's column is read before its id is written
        ids[part] = _take(cand, col, col)
        # views of the scratch: held into the next block, they would keep
        # the buffers a wider block replaces alive beside their successors
        del d, col


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
    ids = np.empty((n, k_max), dtype=_id_dtype(n))
    dists = np.empty((n, k_max), dtype=np.float64)
    share = _BLOCK_BUDGET // _usable_cpus()

    def candidates(chosen: np.ndarray) -> np.ndarray:
        return np.sort(np.concatenate([leaves[m] for m in chosen]))

    def distance_rows(part: np.ndarray, cand: np.ndarray, scratch: _Scratch) -> np.ndarray:
        return _distances(coords[part], np.take(columns, cand, axis=1).T, metric, scratch)

    def kth_distances(part: np.ndarray, cand: np.ndarray, scratch: _Scratch) -> np.ndarray:
        """The (k_max + 1)-th distance of each of ``part`` among ``cand``."""
        block = distance_rows(part, cand, scratch)
        block.partition(k_max, axis=1)
        return block[:, k_max]

    def leaf_block(scratch: _Scratch, leaf: int) -> None:
        rows = leaves[leaf]
        gap = np.maximum(np.maximum(lo - hi[leaf], lo[leaf] - hi), 0.0)
        near = np.sqrt((gap * gap).sum(axis=1)) if metric == "euclidean" else gap.sum(axis=1)
        # self may or may not be among the bounding leaves: either way each
        # row's (k_max + 1)-th distance there is at least its k_max-th
        by_near = np.argsort(near)
        first = by_near[:np.searchsorted(np.cumsum(sizes[by_near]), 2 * (k_max + 1)) + 1]
        bound = np.full(rows.size, np.inf)
        if first.size < len(leaves):
            cand = candidates(first)
            for s, e in _row_blocks(rows.size, cand.size, share):
                bound[s:e] = kth_distances(rows[s:e], cand, scratch)
        radius = bound.max() * (1.0 + 2.0 * _TREE_RTOL)
        cand = candidates(np.flatnonzero(near <= radius))
        _knn_among(rows, cand, distance_rows, ids, dists, scratch)
        if cand.size < n:
            redo = rows[~(dists[rows, -1] < radius * (1.0 - _TREE_RTOL))]
            _knn_among(redo, everyone, distance_rows, ids, dists, scratch)

    _map_blocks(leaf_block, [(m,) for m in range(len(leaves))])
    return ids, dists


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
    if metric not in _METRICS:
        raise ConfigError(f"unknown metric {metric!r}; choose euclidean or manhattan")
    n = points.n_points
    k_max = _checked_k_max(k_max, n)
    ids, dists = _tree_knn(points.coords, k_max, metric)
    return NeighborGraph(ids, dists)


def ingest_distance_matrix(matrix: np.ndarray, k_max: int | None = None) -> NeighborGraph:
    """Build a NeighborGraph from a full pairwise distance matrix.

    The matrix must be square, non-negative, zero on the diagonal, and
    symmetric within 1e-9; asymmetry beyond that is rejected naming the
    worst entry pair.  Contiguous row blocks go to the thread pool, and
    each is selected among every point by the step that selects a kd leaf's
    rows in :func:`build_neighbor_graph` (:func:`_knn_among`), with the same
    k_max default.  Checks and selection read the matrix in row blocks, so
    neither allocates a matrix-sized temporary.
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
    everyone = np.arange(n)
    ids = np.empty((n, k_max), dtype=_id_dtype(n))
    dists = np.empty((n, k_max), dtype=np.float64)

    def matrix_rows(part: np.ndarray, _, scratch: _Scratch) -> np.ndarray:
        # every point is a candidate, so a row of the matrix is its distance
        # row; a block's rows are consecutive, a slice of m in any memory order
        d = scratch.take("d", (part.size, n))
        d[...] = m[part[0]:part[-1] + 1]
        return d

    _map_blocks(lambda scratch, s, e: _knn_among(everyone[s:e], everyone, matrix_rows,
                                                 ids, dists, scratch),
                _row_blocks(n, n, _BLOCK_BUDGET // _usable_cpus()))
    return NeighborGraph(ids, dists)

