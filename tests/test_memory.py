"""Peak memory of the passes over a whole neighbor table or distance matrix,
and of reading a kNN file.

numpy reports its array buffers to tracemalloc, so a traced peak counts every
temporary a stage allocates, in any thread.  Each pass test shrinks the block
budget, so a pass whose scratch follows the size of the table rather than of
its block shows as a peak far above the bound.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from densitopo import (PairwiseDistances, PointSet, build_neighbor_graph, cluster_points,
                       estimate_density, ingest_distance_matrix, ingest_knn_file,
                       synth_gmm)
from densitopo import clustering, density, neighbors
from oracles import export_knn_file


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


@pytest.mark.parametrize("k_max", [None, 1499], ids=["partition", "full_sort"])
def test_matrix_ingest_peaks_below_a_quarter_matrix_above_the_graph(k_max, monkeypatch):
    n = 1500
    coords = np.random.default_rng(0).random((n, 2))
    matrix = cdist(coords, coords)
    monkeypatch.setattr(neighbors, "_SCAN_BUDGET", 8 * n)
    monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", 8 * n)
    peak, graph = _traced_peak(ingest_distance_matrix, matrix, k_max=k_max)
    graph_bytes = graph.neighbor_ids.nbytes + graph.neighbor_dists.nbytes
    assert peak - graph_bytes < matrix.nbytes / 4


def test_kd_leaf_knn_peak_follows_its_blocks_not_its_leaves(monkeypatch):
    # leaves of 2,048 points hold about 4,000 candidates each: unblocked,
    # one leaf's distances alone would take 64 MB
    coords, _ = synth_gmm(k=3, n=5000, dim=2, separation=8, seed=1)
    monkeypatch.setattr(neighbors, "_LEAF_SIZE", 2048)
    monkeypatch.setattr(neighbors, "_BLOCK_BUDGET", 8 * coords.shape[0])
    peak, graph = _traced_peak(build_neighbor_graph, PointSet(coords), k_max=200)
    graph_bytes = graph.neighbor_ids.nbytes + graph.neighbor_dists.nbytes
    assert peak - graph_bytes < graph_bytes / 4


def test_density_peak_follows_its_blocks_not_the_table(monkeypatch):
    # a budget of four rows at k_max: the fits' working arrays must follow
    # their padded blocks, not the n x k_max table
    coords, _ = synth_gmm(k=3, n=5000, dim=2, separation=8, seed=1)
    graph = build_neighbor_graph(PointSet(coords), k_max=400)
    monkeypatch.setattr(density, "_BLOCK_ENTRIES", 4 * graph.k_max)
    peak, estimate = _traced_peak(estimate_density, graph, 2.0)
    assert estimate.k_hat.max() == graph.k_max
    # below one byte per entry of the n x k_max table
    assert peak < graph.n_points * graph.k_max


def test_clustering_peak_follows_its_blocks_not_the_table(monkeypatch):
    coords, _ = synth_gmm(k=3, n=5000, dim=2, separation=8, seed=1)
    points = PointSet(coords)
    graph = build_neighbor_graph(points, k_max=400)
    estimate = estimate_density(graph, 2.0)
    pairwise = PairwiseDistances(coords=points.coords)
    monkeypatch.setattr(clustering, "_BLOCK_ENTRIES", 4 * graph.k_max)
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
