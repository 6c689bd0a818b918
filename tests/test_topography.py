"""Tests for the cluster topography: matrices, dendrogram, network, layout."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import cdist, squareform

from densitopo import (
    DataError,
    DensityEstimate,
    PairwiseDistances,
    PeakAssignment,
    PointSet,
    SaddleInfo,
    SaddleTable,
    build_neighbor_graph,
    build_topography,
    cluster_points,
    dendrogram_newick,
    estimate_density,
    mds_layout,
    network_dot,
    single_linkage,
    synth_gmm,
    topography_to_json,
)
from oracles import naive_single_linkage, topography_from_json


def _make_topography(peaks, pops, saddles):
    """Topography from per-cluster peak log densities and saddle entries."""
    k = len(peaks)
    labels = np.repeat(np.arange(k), pops)
    n = labels.size
    centers = [int(np.nonzero(labels == c)[0][0]) for c in range(k)]
    log_rho = np.full(n, min(peaks) - 2.0)
    for c, p in zip(centers, peaks):
        log_rho[c] = p
    err = np.full(n, 0.1)
    est = DensityEstimate(k_hat=np.full(n, 4), log_rho=log_rho, err=err,
                          r_khat=np.ones(n), fallback=np.zeros(n, dtype=bool))
    is_center = np.zeros(n, dtype=bool)
    is_center[centers] = True
    assignment = PeakAssignment(g=log_rho + err, delta=np.ones(n),
                                parent=np.full(n, -1, dtype=np.int64),
                                labels=labels, is_center=is_center,
                                is_halo=np.zeros(n, dtype=bool), centers=centers)
    table = SaddleTable(entries={
        (min(a, b), max(a, b)): SaddleInfo(log_rho=v, err=0.05,
                                           border_point=int(n - 1))
        for (a, b), v in saddles.items()})
    return build_topography(assignment, table, est)


def _pairwise_layout_dists(coords):
    return cdist(coords, coords)


# ---------------------------------------------------------------------------
# cluster distances


def test_drop_distance_direct_formula():
    # peaks at log rho 5 and 4, saddle at 2: drop = 5 - 2 = 3
    topo = _make_topography([5.0, 4.0], [3, 3], {(0, 1): 2.0})
    assert topo.cluster_dist[0, 1] == 3.0
    assert topo.cluster_dist[1, 0] == 3.0
    np.testing.assert_array_equal(np.diag(topo.cluster_dist), [0.0, 0.0])


def test_drop_distance_saddle_at_lower_peak():
    # saddle as dense as the lower peak: drop = peak gap
    topo = _make_topography([5.0, 3.0], [3, 3], {(0, 1): 3.0})
    assert topo.cluster_dist[0, 1] == 2.0


def test_matrices_symmetric_and_marked():
    topo = _make_topography([6.0, 5.0, 4.0], [4, 3, 2],
                            {(0, 1): 2.0, (1, 2): 1.0})
    sm, dist = topo.saddle_matrix, topo.cluster_dist
    assert np.array_equal(sm, sm.T, equal_nan=True)
    np.testing.assert_array_equal(dist, dist.T)
    np.testing.assert_array_equal(np.diag(sm), [6.0, 5.0, 4.0])
    # absent pairs: NaN in the saddle matrix, +inf in the distances
    assert math.isnan(sm[0, 2]) and math.isinf(dist[0, 2])
    assert sm[0, 1] == 2.0 and sm[1, 2] == 1.0
    assert dist[0, 1] == 4.0 and dist[1, 2] == 4.0


def test_populations_and_centers_recorded():
    topo = _make_topography([2.0, 1.0], [5, 2], {})
    assert [c.population for c in topo.clusters] == [5, 2]
    assert [c.label for c in topo.clusters] == [0, 1]
    assert topo.clusters[0].peak_log_rho == 2.0
    assert topo.n_clusters == 2


# ---------------------------------------------------------------------------
# single linkage


def test_single_cluster_dendrogram():
    topo = _make_topography([1.5], [4], {})
    den = single_linkage(topo)
    assert den.n_leaves == 1
    assert den.children == [] and den.merge_heights == []
    assert den.leaf_order == [0] and den.leaf_width == [1.0]
    assert den.sentinel_height is None
    assert den.branch_height == [1.5]
    assert dendrogram_newick(den) == "0;"


def test_three_cluster_hand_linkage():
    # drop distances d(0,1)=1, d(0,2)=5, d(1,2)=4: merge {0,1} at 1, then
    # with 2 at 4
    topo = _make_topography([9.0, 8.0, 7.0], [2, 2, 2],
                            {(0, 1): 8.0, (0, 2): 4.0, (1, 2): 4.0})
    assert topo.cluster_dist[0, 1] == 1.0
    assert topo.cluster_dist[0, 2] == 5.0
    assert topo.cluster_dist[1, 2] == 4.0
    den = single_linkage(topo)
    assert tuple(sorted(den.children[0])) == (0, 1)
    assert den.merge_heights == [1.0, 4.0]
    assert den.is_sentinel == [False, False]
    assert den.sentinel_height is None
    assert dendrogram_newick(den) == "((0:1.0,1:1.0):3.0,2:4.0);"


def _production_partitions(children, k):
    comps = {i: frozenset([i]) for i in range(k)}
    alive = set(range(k))
    parts = []
    for t, (a, b) in enumerate(children):
        comps[k + t] = comps[a] | comps[b]
        alive -= {a, b}
        alive.add(k + t)
        parts.append(frozenset(comps[x] for x in alive))
    return parts


@pytest.mark.parametrize("seed", range(4))
def test_linkage_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    k = 8
    pts = rng.uniform(size=(k, 3))
    dist = cdist(pts, pts)
    peaks = np.arange(k, 0.0, -1.0)
    saddles = {(a, b): max(peaks[a], peaks[b]) - dist[a, b]
               for a in range(k) for b in range(a + 1, k)}
    topo = _make_topography(list(peaks), [2] * k, saddles)
    np.testing.assert_allclose(topo.cluster_dist, dist, atol=1e-12)
    den = single_linkage(topo)
    exp_heights, exp_parts = naive_single_linkage(topo.cluster_dist)
    assert den.merge_heights == exp_heights
    assert _production_partitions(den.children, k) == exp_parts
    # single-linkage heights are monotone root-ward
    assert den.merge_heights == sorted(den.merge_heights)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_linkage_matches_scipy(data):
    # few distinct peak and saddle values make tied heights common; missing
    # saddles leave parts that join at the sentinel
    k = data.draw(st.integers(min_value=2, max_value=12))
    peaks = data.draw(st.lists(st.sampled_from([3.0, 4.0, 5.0, 5.5]),
                               min_size=k, max_size=k))
    saddles = {}
    for a in range(k):
        for b in range(a + 1, k):
            v = data.draw(st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0])))
            if v is not None:
                saddles[(a, b)] = v
    topo = _make_topography(peaks, [2] * k, saddles)
    den = single_linkage(topo)
    closed = topo.cluster_dist.copy()
    if den.sentinel_height is not None:
        closed[np.isinf(closed)] = den.sentinel_height
    z = linkage(squareform(closed, checks=False), method="single")
    assert den.children == [(int(a), int(b)) for a, b, _, _ in z]
    assert den.merge_heights == [float(h) for h in z[:, 2]]
    assert (den.sentinel_height is None) == bool(np.isfinite(topo.cluster_dist).all())


def test_disconnected_parts_join_at_sentinel():
    topo = _make_topography([5.0, 4.0, 3.0], [2, 2, 2], {(0, 1): 3.0})
    den = single_linkage(topo)
    assert den.sentinel_height == pytest.approx(1.05 * 2.0)
    assert den.merge_heights == [2.0, den.sentinel_height]
    assert den.is_sentinel == [False, True]
    sent = 1.05 * 2.0
    expected = f"((0:{2.0!r},1:{2.0!r}):{sent - 2.0!r},2:{sent!r});"
    assert dendrogram_newick(den) == expected


def test_fully_disconnected_uses_unit_sentinel():
    topo = _make_topography([3.0, 2.0, 1.0], [2, 2, 2], {})
    den = single_linkage(topo)
    assert den.sentinel_height == 1.0
    assert den.merge_heights == [1.0, 1.0]
    assert den.is_sentinel == [True, True]


def test_zero_drop_contact_still_gets_positive_sentinel():
    # contacting pair at drop 0 plus an isolated cluster: the sentinel must
    # stay positive
    topo = _make_topography([5.0, 5.0, 1.0], [2, 2, 2], {(0, 1): 5.0})
    assert topo.cluster_dist[0, 1] == 0.0
    den = single_linkage(topo)
    assert den.merge_heights == [0.0, 1.0]
    assert den.sentinel_height == 1.0


def test_leaf_layout_proportional_to_population():
    topo = _make_topography([9.0, 8.0, 7.0, 6.0], [10, 20, 30, 40],
                            {(0, 1): 7.0, (1, 2): 6.5, (2, 3): 5.0})
    den = single_linkage(topo)
    assert sorted(den.leaf_order) == [0, 1, 2, 3]
    assert den.leaf_order[0] == 0
    assert sum(den.leaf_width) == pytest.approx(1.0)
    np.testing.assert_allclose(
        [den.leaf_width[leaf] for leaf in den.leaf_order],
        [topo.clusters[leaf].population / 100 for leaf in den.leaf_order])
    # x positions are the centers of consecutive population bands
    cursor = 0.0
    for leaf in den.leaf_order:
        w = den.leaf_width[leaf]
        assert den.leaf_x[leaf] == pytest.approx(cursor + w / 2.0)
        cursor += w
    assert den.branch_height == [9.0, 8.0, 7.0, 6.0]


# ---------------------------------------------------------------------------
# network export


def _dot_graph(dot):
    """Attributes of each node id and each (a, b) edge of a network.dot text."""
    nodes, edges = {}, {}
    for line in dot.splitlines()[2:-1]:
        head, _, attrs = line.strip().rstrip("];").partition(" [")
        values = dict(item.split("=", 1) for item in attrs.split(" "))
        if " -- " in head:
            edges[tuple(map(int, head.split(" -- ")))] = values
        else:
            nodes[int(head)] = values
    return nodes, edges


def test_two_contacting_clusters_network():
    topo = _make_topography([5.0, 4.0], [6, 3], {(0, 1): 2.0})
    nodes, edges = _dot_graph(network_dot(topo))
    assert list(nodes) == [0, 1]
    # node width is 2 * sqrt(population / largest population)
    assert [nodes[i]["width"] for i in (0, 1)] == [
        "2.0", repr(round(2.0 * math.sqrt(0.5), 4))]
    assert list(edges) == [(0, 1)]
    assert edges[(0, 1)]["saddle_log_rho"] == '"2.0"'
    # a single edge has a degenerate saddle range: use the maximum width
    assert edges[(0, 1)]["penwidth"] == "5.0"


def test_isolated_cluster_has_degree_zero():
    topo = _make_topography([5.0, 4.0, 3.0], [2, 2, 2], {(0, 1): 2.0})
    nodes, edges = _dot_graph(network_dot(topo))
    assert 2 not in {c for edge in edges for c in edge}
    assert set(nodes) == {0, 1, 2}


def test_edge_set_equals_saddle_pairs():
    saddles = {(0, 1): 3.0, (1, 2): 2.0, (0, 3): 1.0}
    topo = _make_topography([9.0, 8.0, 7.0, 6.0], [2, 2, 2, 2], saddles)
    _, edges = _dot_graph(network_dot(topo))
    assert set(edges) == set(saddles)
    # widths scale linearly from 0.5 (sparsest) to 5.0 (densest saddle)
    widths = {pair: float(attrs["penwidth"]) for pair, attrs in edges.items()}
    assert widths[(0, 3)] == 0.5
    assert widths[(0, 1)] == 5.0
    assert widths[(1, 2)] == pytest.approx(0.5 + 4.5 * 0.5)


def test_dot_rendering_structure():
    topo = _make_topography([5.0, 4.0], [8, 2], {(0, 1): 2.0})
    dot = network_dot(topo)
    lines = dot.splitlines()
    assert lines[0] == "graph topography {"
    assert lines[-1] == "}"
    assert dot.endswith("}\n")
    # node width is 2 * sqrt(population share)
    assert "0 [width=2.0" in dot
    assert f"1 [width={round(2.0 * math.sqrt(0.25), 4)!r}" in dot
    assert "0 -- 1 [penwidth=5.0" in dot
    assert "pos=" not in dot
    layout = mds_layout(topo)
    dot_pos = network_dot(topo, layout=layout)
    assert 'pos="' in dot_pos and dot_pos.count("!\"") == 2


# ---------------------------------------------------------------------------
# layout


def test_mds_two_clusters_at_distance_four():
    topo = _make_topography([6.0, 5.0], [2, 2], {(0, 1): 2.0})
    coords = mds_layout(topo)
    assert coords.shape == (2, 2)
    assert np.linalg.norm(coords[0] - coords[1]) == pytest.approx(4.0, abs=1e-9)
    assert coords[0, 0] >= 0.0
    assert coords[1, 1] >= 0.0


def test_mds_equilateral_triangle():
    topo = _make_topography([6.0, 6.0, 6.0], [2, 2, 2],
                            {(0, 1): 4.0, (0, 2): 4.0, (1, 2): 4.0})
    coords = mds_layout(topo)
    d = _pairwise_layout_dists(coords)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert d[a, b] == pytest.approx(2.0, abs=1e-6)


def test_mds_single_cluster_skipped():
    topo = _make_topography([6.0], [4], {})
    assert mds_layout(topo) is None


def test_mds_deterministic():
    topo = _make_topography([6.0, 5.0, 4.0], [2, 2, 2],
                            {(0, 1): 3.0, (1, 2): 2.0})
    a, b = mds_layout(topo), mds_layout(topo)
    np.testing.assert_array_equal(a, b)


def test_mds_beats_random_embedding_oracle():
    rng = np.random.default_rng(21)
    pts = rng.uniform(size=(6, 3))
    dist = cdist(pts, pts)
    peaks = np.arange(6, 0.0, -1.0) + 10.0
    saddles = {(a, b): max(peaks[a], peaks[b]) - dist[a, b]
               for a in range(6) for b in range(a + 1, 6)}
    topo = _make_topography(list(peaks), [2] * 6, saddles)
    coords = mds_layout(topo)
    iu = np.triu_indices(6, 1)

    def stress(xy):
        return float(np.sqrt(
            ((_pairwise_layout_dists(xy)[iu] - dist[iu]) ** 2).sum()))

    ours = stress(coords)
    best_random = min(
        stress(rng.uniform(0.0, dist.max(), size=(6, 2))) for _ in range(100))
    assert ours <= best_random


def test_mds_imputes_sentinel_for_missing_contact():
    topo = _make_topography([6.0, 5.0, 4.0], [2, 2, 2],
                            {(0, 1): 5.0, (1, 2): 3.0})
    # drops: d(0,1)=1, d(1,2)=2, d(0,2) imputed at 1.05 * 2
    coords = mds_layout(topo)
    d = _pairwise_layout_dists(coords)
    assert d[0, 2] == pytest.approx(2.1, abs=0.5)
    assert d[0, 1] < d[0, 2]


# ---------------------------------------------------------------------------
# JSON round trip


def test_topography_json_round_trip_bit_exact():
    topo = _make_topography([5.0, 4.0, 1.0 / 3.0], [4, 3, 2],
                            {(0, 1): 2.0, (1, 2): 0.1 + 0.2})
    text = topo_text = topography_to_json(topo)
    back = topography_from_json(text)
    assert back.clusters == topo.clusters
    assert back.saddles.entries == topo.saddles.entries
    np.testing.assert_array_equal(back.cluster_dist, topo.cluster_dist)
    assert np.array_equal(back.saddle_matrix, topo.saddle_matrix, equal_nan=True)
    assert topography_to_json(back) == topo_text


def test_topography_json_null_marks_no_contact():
    topo = _make_topography([5.0, 4.0, 3.0], [2, 2, 2], {(0, 1): 2.0})
    doc = json.loads(topography_to_json(topo))
    assert doc["distances"][0][2] is None
    assert doc["distances"][2][0] is None
    assert doc["distances"][0][1] == 3.0
    back = topography_from_json(topography_to_json(topo))
    assert math.isinf(back.cluster_dist[0, 2])


def test_topography_json_includes_dendrogram_and_layout():
    topo = _make_topography([5.0, 4.0], [2, 2], {(0, 1): 2.0})
    den = single_linkage(topo)
    layout = mds_layout(topo)
    doc = json.loads(topography_to_json(topo, dendrogram=den, layout=layout))
    assert doc["dendrogram"]["n_leaves"] == 2
    assert doc["dendrogram"]["merge_heights"] == [3.0]
    assert len(doc["mds"]) == 2


def test_topography_json_rejects_garbage():
    with pytest.raises(DataError):
        topography_from_json("{not json")


# ---------------------------------------------------------------------------
# production topography from a clustered sample


@pytest.fixture(scope="module")
def clustered_topo():
    coords, _ = synth_gmm(k=4, n=1600, dim=2, separation=8.0, seed=2)
    points = PointSet(coords)
    graph = build_neighbor_graph(points, 64)
    pairwise = PairwiseDistances(coords=points.coords)
    est = estimate_density(graph, 2.0)
    result = cluster_points(graph, est, pairwise, z=1.5)
    return build_topography(result.assignment, result.saddles, est), result


def test_production_matrix_invariants(clustered_topo):
    topo, result = clustered_topo
    k = topo.n_clusters
    assert k == 4
    sm, dist = topo.saddle_matrix, topo.cluster_dist
    assert np.array_equal(sm, sm.T, equal_nan=True)
    np.testing.assert_array_equal(dist, dist.T)
    for a in range(k):
        for b in range(k):
            if a == b:
                continue
            contact = (min(a, b), max(a, b)) in topo.saddles.entries
            assert math.isnan(sm[a, b]) == (not contact)
            assert math.isinf(dist[a, b]) == (not contact)
            if contact:
                # merged survivors always rise above their saddles
                assert sm[a, a] >= sm[a, b]
                assert dist[a, b] >= 0.0
    pops = np.bincount(result.assignment.labels, minlength=k)
    assert [c.population for c in topo.clusters] == pops.tolist()


def test_production_dendrogram_and_outputs(clustered_topo):
    topo, _ = clustered_topo
    den = single_linkage(topo)
    assert den.merge_heights == sorted(den.merge_heights)
    newick = dendrogram_newick(den)
    assert newick.endswith(";")
    assert newick.count(",") == topo.n_clusters - 1
    _, edges = _dot_graph(network_dot(topo))
    assert set(edges) == set(topo.saddles.entries)
    coords = mds_layout(topo)
    assert coords.shape == (topo.n_clusters, 2)
    text = topography_to_json(topo, dendrogram=den, layout=coords)
    back = topography_from_json(text)
    assert topography_to_json(back) == topography_to_json(topo)
