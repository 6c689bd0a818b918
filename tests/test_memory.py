"""Peak memory of the passes over a whole neighbor table or distance matrix,
of reading a kNN, point or matrix file, and the life of the block scratch.

numpy reports its array buffers to tracemalloc, so a traced peak counts every
temporary a stage allocates, in any thread, but not in a forked process.  Each
pass test shrinks the block budget, so a pass whose scratch follows the size of
the table rather than of its block shows as a peak far above the bound.  The
scratch tests check that each worker's buffers are made once per call, not
once per block, that none outlives the call, and that nothing a block left in
them reaches a result.
"""

import itertools
import math
import mmap
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from densitopo import (PairwiseDistances, PointSet, build_neighbor_graph, cluster_points,
                       estimate_density, ingest_distance_matrix, ingest_knn_file,
                       synth_gmm, write_points_tsv)
from densitopo import DegenerateDataError, _blocks, clustering, density, neighbors, tsv
from forking import FORKS, count_forks, pretend_cpus
from oracles import export_knn_file, graph_from_radii, radii_constant_density
from test_neighbors import KNN_CASES


def _traced_peak(fn, *args, **kwargs):
    """Return (peak traced bytes above those held at the call, fn's result)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - start, result


def _peak_above_graph(monkeypatch, cpus, build):
    """The traced peak of ``build()`` on ``cpus`` pretend CPUs, above the
    bytes of its graph that tracemalloc sees."""
    pretend_cpus(monkeypatch, cpus)
    peak, graph = _traced_peak(build)
    return peak - _arrays_bytes(graph.neighbor_ids, graph.neighbor_dists), graph


def _matrix_ingest(monkeypatch, k_max):
    n = 1500
    coords = np.random.default_rng(0).random((n, 2))
    matrix = cdist(coords, coords)
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", 8 * n)
    monkeypatch.setattr(_blocks, "WORKER_ENTRIES", 4 * n)
    return matrix, lambda: ingest_distance_matrix(matrix, k_max=k_max)


def _kd_leaf_knn(monkeypatch):
    # leaves of 2,048 points hold about 4,000 candidates each: unblocked,
    # one leaf's distances alone would take 64 MB
    coords, _ = synth_gmm(k=3, n=5000, dim=2, separation=8, seed=1)
    monkeypatch.setattr(neighbors, "_LEAF_SIZE", 2048)
    monkeypatch.setattr(_blocks, "WORKER_ENTRIES", 4 * coords.shape[0])
    return lambda: build_neighbor_graph(PointSet(coords), k_max=200)


# one usable CPU in the two bounds below: the whole pass and its graph are
# in this process, where tracemalloc sees them

@pytest.mark.parametrize("k_max", [None, 1499], ids=["partition", "full_sort"])
def test_matrix_ingest_peaks_below_a_quarter_matrix_above_the_graph(k_max, monkeypatch):
    matrix, ingest = _matrix_ingest(monkeypatch, k_max)
    peak, _ = _peak_above_graph(monkeypatch, 1, ingest)
    assert peak < matrix.nbytes / 4


def test_kd_leaf_knn_peak_follows_its_blocks_not_its_leaves(monkeypatch):
    peak, graph = _peak_above_graph(monkeypatch, 1, _kd_leaf_knn(monkeypatch))
    assert peak < (graph.neighbor_ids.nbytes + graph.neighbor_dists.nbytes) / 4


@pytest.mark.skipif(not FORKS, reason="the kNN passes fork only before Python 3.12")
@pytest.mark.parametrize("stage", ["matrix_ingest", "kd_leaf_knn"])
def test_knn_caller_holds_one_workers_scratch(stage, monkeypatch):
    # two CPUs: the caller runs one part with one scratch, and the other
    # part runs in a forked process, which tracemalloc does not see.  Both
    # workers' scratch in this process would near double the one-CPU peak.
    build = (_matrix_ingest(monkeypatch, None)[1] if stage == "matrix_ingest"
             else _kd_leaf_knn(monkeypatch))
    # the checks of the matrix and the graph in blocks of one row, so the
    # peak is the kNN pass's
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", 1)
    for cpus in (1, 2):  # warm: first-call caches, and the imports of a forked pass
        _peak_above_graph(monkeypatch, cpus, build)
    one_cpu, _ = _peak_above_graph(monkeypatch, 1, build)
    two_cpus, graph = _peak_above_graph(monkeypatch, 2, build)
    assert two_cpus < 1.25 * one_cpu
    assert _arrays_bytes(graph.neighbor_ids, graph.neighbor_dists) == 0  # a shared mapping


def _density_graph():
    coords, _ = synth_gmm(k=3, n=5000, dim=2, separation=8, seed=1)
    return build_neighbor_graph(PointSet(coords), k_max=400)


def _density_peak(monkeypatch, graph):
    # a budget of four rows at k_max: the scan's chunks of k and the fits'
    # working arrays must follow their blocks, not the n x k_max table
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", 4 * graph.k_max)
    peak, estimate = _traced_peak(estimate_density, graph, 2.0)
    assert estimate.k_hat.max() == graph.k_max
    # below one byte per entry of the n x k_max table
    assert peak < graph.n_points * graph.k_max


def test_density_peak_follows_its_blocks_not_the_table(monkeypatch):
    # one usable CPU: every point is estimated in this process, where
    # tracemalloc sees all the work
    pretend_cpus(monkeypatch, 1)
    forks = count_forks(monkeypatch)
    _density_peak(monkeypatch, _density_graph())
    assert forks == []


@pytest.mark.skipif(not FORKS, reason="the density estimate forks only before Python 3.12")
def test_forked_density_peak_of_the_caller_follows_its_blocks(monkeypatch):
    # two CPUs: the caller estimates half the points and a forked process,
    # which tracemalloc does not see, the other half into a shared mapping.
    # The graph is built first, since its kNN forks too.
    graph = _density_graph()
    pretend_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    _density_peak(monkeypatch, graph)
    assert len(forks) == 1


def test_clustering_peak_follows_its_blocks_not_the_table(monkeypatch):
    coords, _ = synth_gmm(k=3, n=5000, dim=2, separation=8, seed=1)
    points = PointSet(coords)
    graph = build_neighbor_graph(points, k_max=400)
    estimate = estimate_density(graph, 2.0)
    pairwise = PairwiseDistances(coords=points.coords)
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", 4 * graph.k_max)
    peak, result = _traced_peak(cluster_points, graph, estimate, pairwise)
    assert result.assignment.n_clusters >= 1
    # below one byte per entry of the n x k_max table
    assert peak < graph.n_points * graph.k_max


def test_knn_file_reader_peak_follows_the_row_values(tmp_path):
    coords, _ = synth_gmm(k=3, n=2000, dim=2, separation=8, seed=1)
    graph = build_neighbor_graph(PointSet(coords), k_max=50)
    path = tmp_path / "graph.knn"
    export_knn_file(graph, path)
    peak, read = _traced_peak(ingest_knn_file, path)
    np.testing.assert_array_equal(read.neighbor_ids, graph.neighbor_ids)
    np.testing.assert_array_equal(read.neighbor_dists, graph.neighbor_dists)
    # a row holds 24 bytes of values and 8 of its line number, viewed in
    # place; the graph's int32 ids take 4 more.  A Python list per row costs
    # near 300, and a copy of each column 32 more.
    assert peak < 48 * graph.n_points * graph.k_max


def _matrix_600():
    coords = np.random.default_rng(0).random((600, 2))
    return cdist(coords, coords)


def test_finiteness_check_builds_no_table_mask():
    matrix = _matrix_600()
    peak, finite = _traced_peak(tsv._all_finite, matrix)
    assert finite and peak < matrix.size / 64  # an isfinite mask takes matrix.size


@pytest.mark.skipif(not FORKS, reason="the point and matrix readers fork only before Python 3.12")
def test_forked_matrix_read_peak_follows_its_chunks(tmp_path, monkeypatch):
    # the forked parse writes its chunks straight into a shared mapping,
    # which tracemalloc does not see, and the worker's part is parsed in
    # another process; a table-sized temporary of the caller would show
    matrix = _matrix_600()
    path = tmp_path / "m.tsv"
    write_points_tsv(matrix, path)
    monkeypatch.setattr(tsv, "_CHUNK_BYTES", 1 << 16)
    pretend_cpus(monkeypatch, 2)
    peak, read = _traced_peak(tsv.read_distance_matrix_tsv, path)
    assert read.tobytes() == np.loadtxt(path, ndmin=2).tobytes()
    assert peak < 8 * tsv._CHUNK_BYTES < matrix.nbytes / 4


def test_one_cpu_matrix_read_peaks_at_the_table_and_a_few_chunks(tmp_path, monkeypatch):
    # on one CPU the table is an array of the caller's, filled chunk by
    # chunk: 3.9 chunks above it here, where one np.loadtxt call of the
    # whole file peaked 13.7 chunks above it
    matrix = _matrix_600()
    path = tmp_path / "m.tsv"
    write_points_tsv(matrix, path)
    monkeypatch.setattr(tsv, "_CHUNK_BYTES", 1 << 16)
    pretend_cpus(monkeypatch, 1)
    peak, read = _traced_peak(tsv.read_distance_matrix_tsv, path)
    assert read.tobytes() == np.loadtxt(path, ndmin=2).tobytes()
    assert peak < matrix.nbytes + 8 * tsv._CHUNK_BYTES


# ---------------------------------------------------------------------------
# block scratch: one set of buffers per worker and call


def _arrays_bytes(*arrays) -> int:
    """Bytes of the arrays that tracemalloc sees: not those whose memory is
    a shared mapping, as a forked estimate's are."""
    def owner(arr):
        while isinstance(arr, np.ndarray) and arr.base is not None:
            arr = arr.base
        return arr.obj if isinstance(arr, memoryview) else arr

    return sum(arr.nbytes for arr in arrays if not isinstance(owner(arr), mmap.mmap))


def _held_after(fn, *args):
    """Return (traced bytes still held once fn returns, above those held at
    the call; fn's result)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    return held, result


# Python objects a stage leaves besides its result's arrays (the result's
# own objects, caches numpy and the interpreter fill): far below one block's
# scratch, which is at least 300 KB in every stage here
_SLACK = 64 << 10


@pytest.mark.parametrize("cpus", [1, 2])
def test_no_scratch_outlives_its_stage(cpus, monkeypatch):
    # with one CPU the kNN blocks run in the calling thread, so a buffer kept
    # there (a module global, a thread-local) would still be held here
    pretend_cpus(monkeypatch, cpus)
    coords, _ = synth_gmm(k=3, n=3000, dim=2, separation=8, seed=1)
    points = PointSet(coords)
    pairwise = PairwiseDistances(coords=points.coords)
    graph = build_neighbor_graph(points, k_max=100)  # warm: imports, first-call caches
    estimate = estimate_density(graph, 2.0)
    cluster_points(graph, estimate, pairwise)

    held, graph = _held_after(build_neighbor_graph, points, 100)
    assert held - _arrays_bytes(graph.neighbor_ids, graph.neighbor_dists) < _SLACK
    held, estimate = _held_after(estimate_density, graph, 2.0)
    assert held - _arrays_bytes(estimate.k_hat, estimate.log_rho, estimate.err,
                                estimate.r_khat, estimate.fallback) < _SLACK
    held, result = _held_after(cluster_points, graph, estimate, pairwise)
    a = result.assignment
    assert held - _arrays_bytes(a.g, a.delta, a.parent, a.labels, a.is_center,
                                a.is_halo) < _SLACK


def _record_allocations(monkeypatch) -> list[tuple[int, str, int]]:
    """Spy on the scratch: (scratch serial, buffer name, bytes) per allocation."""
    allocations = []
    serials = itertools.count()
    init, allocate = _blocks.Scratch.__init__, _blocks.Scratch._allocate

    def numbered(self):
        init(self)
        self.serial = next(serials)

    def spy(self, name, nbytes):
        allocations.append((self.serial, name, nbytes))
        return allocate(self, name, nbytes)

    monkeypatch.setattr(_blocks.Scratch, "__init__", numbered)
    monkeypatch.setattr(_blocks.Scratch, "_allocate", spy)
    return allocations


def _count_calls(monkeypatch, owner, attr) -> itertools.count:
    calls = itertools.count()
    fn = getattr(owner, attr)

    def counted(*args):
        next(calls)
        return fn(*args)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def _assert_per_worker(allocations, blocks: int, scratches: int) -> None:
    """At most ``scratches`` workspaces, and per buffer of each one a first
    allocation and then only grows, far fewer than the blocks."""
    assert blocks >= 10
    assert len({serial for serial, _, _ in allocations}) <= scratches
    sizes: dict[tuple[int, str], list[int]] = {}
    for serial, name, nbytes in allocations:
        sizes.setdefault((serial, name), []).append(nbytes)
    assert all(a < b for seq in sizes.values() for a, b in zip(seq, seq[1:]))
    assert len(allocations) < blocks


@pytest.mark.parametrize("cpus", [1, 2])
def test_scratch_follows_workers_not_blocks(cpus, monkeypatch):
    coords, _ = synth_gmm(k=3, n=2000, dim=2, separation=8, seed=1)
    points = PointSet(coords)
    pretend_cpus(monkeypatch, cpus)
    # kNN blocks of 40 rows of every point: full-row blocks are cut, and
    # leaves of varying candidate counts make the buffers grow
    monkeypatch.setattr(_blocks, "WORKER_ENTRIES", 40 * coords.shape[0])
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", 8 * 100)

    allocations = _record_allocations(monkeypatch)
    blocks = _count_calls(monkeypatch, neighbors, "_distances")
    graph = build_neighbor_graph(points, k_max=100)
    # one workspace for the kd bounds, freed before the selection makes its;
    # a forked part's are made in its own process
    _assert_per_worker(allocations, next(blocks), 2)

    allocations.clear()
    blocks = _count_calls(monkeypatch, density, "_fit_rows")
    estimate = estimate_density(graph, 2.0)
    # one workspace for the scan over k, freed before the fits make theirs
    _assert_per_worker(allocations, next(blocks), 2)

    allocations.clear()
    blocks = _count_calls(monkeypatch, clustering, "_row_ids")
    cluster_points(graph, estimate, PairwiseDistances(coords=points.coords))
    # one workspace for each pass over the table: delta, centers, saddles;
    # each exact distance row the passes ask for is made in a workspace of its own
    passes = [a for a in allocations if a[1] not in ("d", "term")]
    _assert_per_worker(passes, next(blocks), 3)


# ---------------------------------------------------------------------------
# poisoned scratch: every view starts as NaN or inf, and the bytes out hold


def _poison(monkeypatch, fill: float) -> None:
    """Fill every buffer and every view the scratch hands out with the bytes
    of ``fill``, read as whatever dtype the view has."""
    pattern = np.frombuffer(np.float64(fill).tobytes(), dtype=np.uint8)
    take = _blocks.Scratch.take

    def poisoned(self, *args, **kwargs):
        view = take(self, *args, **kwargs)
        raw = view.reshape(-1).view(np.uint8)
        raw[:] = np.resize(pattern, raw.size)
        return view

    monkeypatch.setattr(_blocks.Scratch, "take", poisoned)


def _tiny_blocks(monkeypatch, n: int, k_max: int) -> None:
    # two CPUs, kNN blocks of three rows of every point, kd leaves of at
    # most 8 points, and serial blocks of 3 rows at k_max: graph checks and
    # clustering passes of 3 rows, fit blocks of 3 * k_max padded entries
    pretend_cpus(monkeypatch, 2)
    monkeypatch.setattr(_blocks, "WORKER_ENTRIES", 3 * n)
    monkeypatch.setattr(neighbors, "_LEAF_SIZE", 8)
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", 3 * k_max)


def _estimate_bytes(graph, d):
    try:
        est = estimate_density(graph, d)
    except DegenerateDataError as exc:
        return str(exc), None
    return [getattr(est, f).tobytes() for f in
            ("k_hat", "log_rho", "err", "r_khat", "fallback")], est


def _pipeline_bytes(coords, k_max):
    """The bytes of the graph, the density estimate and the clusters."""
    graph = build_neighbor_graph(PointSet(coords), k_max=k_max)
    out = [graph.neighbor_ids.tobytes(), graph.neighbor_dists.tobytes()]
    est_bytes, est = _estimate_bytes(graph, 2.0)
    out.append(est_bytes)
    if est is not None:
        result = cluster_points(graph, est, PairwiseDistances(coords=coords))
        a = result.assignment
        out += [arr.tobytes() for arr in (a.g, a.delta, a.parent, a.labels,
                                          a.is_center, a.is_halo)]
        out += [a.centers, result.putative_centers, result.merge_log,
                result.saddles.entries]
    return out


def _overflow_in_padding():
    # test_density's row whose padded shells overflow exp beside rows of 8
    radii = radii_constant_density(32, 8, rho=1.0, d=2.0, omega=math.pi)
    radii[0, :4] = np.sqrt(np.cumsum([1.0, 0.8, 0.6, 0.4]) / math.pi)
    radii[0, 4:] = 1e100 * np.arange(1.0, 5.0)
    return graph_from_radii(radii)


def _random_cloud(seed, n, dim, decimals):
    # test_density's random clouds: rounding makes duplicate points common
    coords = np.round(np.random.default_rng(seed).normal(size=(n, dim)), decimals)
    return build_neighbor_graph(PointSet(coords), min(n - 1, 24))


DENSITY_CASES = {
    "overflow_in_padding": _overflow_in_padding,
    "cloud_1d_integers": lambda: _random_cloud(3, 41, 1, 0),
    "cloud_2d_tenths": lambda: _random_cloud(4, 60, 2, 1),
    "cloud_3d": lambda: _random_cloud(5, 53, 3, 6),
}


@pytest.mark.parametrize("blocks", ["tiny", "default"])
@pytest.mark.parametrize("fill", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("case", sorted(KNN_CASES))
def test_poisoned_scratch_leaves_pipeline_bytes(case, fill, blocks, monkeypatch):
    coords, k_max = KNN_CASES[case]()
    want = _pipeline_bytes(coords, k_max)
    _poison(monkeypatch, fill)
    if blocks == "tiny":
        _tiny_blocks(monkeypatch, coords.shape[0], k_max)
    assert _pipeline_bytes(coords, k_max) == want


@pytest.mark.parametrize("blocks", ["tiny", "default"])
@pytest.mark.parametrize("fill", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("case", sorted(DENSITY_CASES))
def test_poisoned_scratch_leaves_density_bytes(case, fill, blocks, monkeypatch):
    graph = DENSITY_CASES[case]()
    want = _estimate_bytes(graph, 2.0)[0]
    _poison(monkeypatch, fill)
    if blocks == "tiny":
        _tiny_blocks(monkeypatch, graph.n_points, graph.k_max)
    assert _estimate_bytes(graph, 2.0)[0] == want
