"""Tests for peak detection, assignment, saddles, merging, and halo flags."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from densitopo import (
    ConfigError,
    DegenerateDataError,
    DensityEstimate,
    InternalInvariantError,
    PairwiseDistances,
    PointSet,
    SaddleInfo,
    SaddleTable,
    build_neighbor_graph,
    cluster_points,
    estimate_density,
    synth_gmm,
    synth_uniform,
    twonn_estimate,
)
from densitopo import _blocks
from densitopo.clustering import (assign_points, compute_delta_parent, compute_g,
                                  detect_putative_centers, find_borders_saddles,
                                  flag_halo, merge_clusters)
from forking import FORKS, count_forks, pretend_cpus
from oracles import (loop_borders_saddles, naive_delta_parent, naive_putative_centers,
                     naive_saddles, sorting_merge_clusters)


def _toy_estimate(log_rho, err=None, r_khat=None, k_hat=None) -> DensityEstimate:
    log_rho = np.asarray(log_rho, dtype=np.float64)
    n = log_rho.shape[0]
    err = np.full(n, 0.1) if err is None else np.asarray(err, dtype=np.float64)
    r_khat = np.ones(n) if r_khat is None else np.asarray(r_khat, dtype=np.float64)
    k_hat = np.full(n, 4) if k_hat is None else np.asarray(k_hat, dtype=np.int64)
    return DensityEstimate(k_hat=k_hat, log_rho=log_rho, err=err, r_khat=r_khat,
                           fallback=np.zeros(n, dtype=bool))


def _setup(coords, k_max):
    points = PointSet(np.asarray(coords, dtype=np.float64))
    graph = build_neighbor_graph(points, k_max)
    pairwise = PairwiseDistances(coords=points.coords)
    return points, graph, pairwise


def _full_estimate(coords, k_max, d=2.0):
    _, graph, pairwise = _setup(coords, k_max)
    return graph, pairwise, estimate_density(graph, d)


# ---------------------------------------------------------------------------
# error-adjusted height g


def test_compute_g_is_exact_sum():
    est = _toy_estimate([1.0, -2.0], err=[0.5, 0.25])
    np.testing.assert_array_equal(compute_g(est), [1.5, -1.75])


def test_compute_g_uniform_error_preserves_order():
    rng = np.random.default_rng(1)
    log_rho = rng.normal(size=50)
    est = _toy_estimate(log_rho, err=np.full(50, 0.3))
    np.testing.assert_array_equal(np.argsort(compute_g(est)), np.argsort(log_rho))


def test_compute_g_error_can_reorder_peaks():
    est = _toy_estimate([2.0, 1.9], err=[0.0, 0.3])
    g = compute_g(est)
    assert g[1] > g[0]


# ---------------------------------------------------------------------------
# delta and parent


def test_delta_parent_three_points_on_a_line():
    coords = np.array([[0.0], [1.0], [3.0]])
    _, graph, pairwise = _setup(coords, 2)
    g = np.array([3.0, 2.0, 1.0])
    delta, parent = compute_delta_parent(g, graph, pairwise)
    np.testing.assert_array_equal(parent, [-1, 0, 1])
    np.testing.assert_array_equal(delta, [3.0, 1.0, 2.0])


def test_delta_parent_single_maximum_attracts_everyone():
    rng = np.random.default_rng(2)
    coords = rng.uniform(size=(12, 2))
    _, graph, pairwise = _setup(coords, 5)
    g = np.full(12, 1.0)
    g[4] = 5.0
    delta, parent = compute_delta_parent(g, graph, pairwise)
    assert parent[4] == -1
    assert (parent[np.arange(12) != 4] == 4).all()


def test_delta_parent_tie_breaks_to_smaller_id():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 5.0]])
    _, graph, pairwise = _setup(coords, 3)
    g = np.array([0.0, 5.0, 5.0, 1.0])
    _, parent = compute_delta_parent(g, graph, pairwise)
    assert parent[0] == 1


def test_delta_parent_tied_top_plateau_all_parentless():
    rng = np.random.default_rng(3)
    coords = rng.uniform(size=(10, 2))
    _, graph, pairwise = _setup(coords, 4)
    g = np.ones(10)
    g[[2, 7]] = 9.0
    dmat = cdist(coords, coords)
    delta, parent = compute_delta_parent(g, graph, pairwise)
    assert parent[2] == -1 and parent[7] == -1
    assert delta[2] == dmat[2].max() and delta[7] == dmat[7].max()


def test_delta_parent_all_equal_g():
    coords = np.array([[0.0], [1.0], [2.0]])
    _, graph, pairwise = _setup(coords, 2)
    delta, parent = compute_delta_parent(np.zeros(3), graph, pairwise)
    np.testing.assert_array_equal(parent, [-1, -1, -1])
    # parentless points take the distance to their farthest point
    np.testing.assert_array_equal(delta, [2.0, 1.0, 2.0])


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_delta_parent_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    coords = rng.uniform(size=(300, 2))
    _, graph, pairwise = _setup(coords, 16)
    g = rng.normal(size=300)
    delta, parent = compute_delta_parent(g, graph, pairwise)
    exp_delta, exp_parent = naive_delta_parent(g, cdist(coords, coords))
    np.testing.assert_array_equal(parent, exp_parent)
    np.testing.assert_array_equal(delta, exp_delta)


# ---------------------------------------------------------------------------
# putative centers


def test_single_blob_has_one_putative_center():
    rng = np.random.default_rng(6)
    coords = rng.normal(size=(5000, 2))
    # full n // 4 neighborhood budget: wide adaptive neighborhoods in the
    # flat mode region make the veto suppress fluctuation peaks
    graph, pairwise, est = _full_estimate(coords, 1250)
    g = compute_g(est)
    delta, _ = compute_delta_parent(g, graph, pairwise)
    centers = detect_putative_centers(g, delta, est, graph)
    assert len(centers) == 1
    # the center sits in the mode region
    assert np.linalg.norm(coords[centers[0]]) < 1.0


def test_two_far_blobs_have_two_putative_centers():
    rng = np.random.default_rng(6)
    coords = np.concatenate([rng.normal(0.0, 1.0, size=(800, 2)),
                             rng.normal(50.0, 1.0, size=(800, 2))])
    graph, pairwise, est = _full_estimate(coords, 400)
    g = compute_g(est)
    delta, _ = compute_delta_parent(g, graph, pairwise)
    centers = detect_putative_centers(g, delta, est, graph)
    assert len(centers) == 2
    sides = sorted(int(c >= 800) for c in centers)
    assert sides == [0, 1]
    # sorted by decreasing g
    assert g[centers[0]] >= g[centers[1]]


def test_single_blob_merges_to_one_cluster_any_seed():
    # pre-merge fluctuation peaks vary with the sample, but the
    # significance test always collapses a plain Gaussian to one cluster
    for seed in (4, 5):
        rng = np.random.default_rng(seed)
        coords = rng.normal(size=(3000, 2))
        _, graph, pairwise = _setup(coords, 750)
        est = estimate_density(graph, 2.0)
        result = cluster_points(graph, est, pairwise, z=1.5)
        assert result.assignment.n_clusters == 1


def test_boundary_delta_is_not_a_center():
    rng = np.random.default_rng(6)
    coords = rng.uniform(size=(30, 2))
    _, graph, _ = _setup(coords, 8)
    est = _toy_estimate(np.zeros(30), r_khat=np.full(30, 0.5),
                        k_hat=np.full(30, 4))
    g = np.linspace(0.0, 1.0, 30)
    delta = np.full(30, 0.5)   # exactly at the radius: strict test fails
    delta[29] = 2.0            # one genuine peak so detection succeeds
    centers = detect_putative_centers(g, delta, est, graph)
    assert centers == [29]


def test_no_peak_is_a_hard_error():
    # every adaptive radius exceeds the data diameter, so no point can
    # clear the strict delta > r_khat bar
    coords = np.arange(5.0)[:, None]
    _, graph, pairwise = _setup(coords, 4)
    est = _toy_estimate(np.zeros(5), r_khat=np.full(5, 10.0))
    g = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    delta, _ = compute_delta_parent(g, graph, pairwise)
    assert delta.max() <= 4.0
    with pytest.raises(DegenerateDataError):
        detect_putative_centers(g, delta, est, graph)


# ---------------------------------------------------------------------------
# assignment


def test_assign_chain():
    g = np.array([3.0, 2.0, 1.0])
    parent = np.array([-1, 0, 1])
    labels = assign_points(g, parent, [0])
    np.testing.assert_array_equal(labels, [0, 0, 0])


def test_assign_splits_at_the_valley():
    coords = np.arange(7.0)[:, None]
    _, graph, pairwise = _setup(coords, 4)
    g = np.array([5.0, 4.0, 3.0, 1.0, 3.5, 4.5, 6.0])
    _, parent = compute_delta_parent(g, graph, pairwise)
    labels = assign_points(g, parent, [6, 0])
    # the valley point 3 ties toward the smaller-id side
    np.testing.assert_array_equal(labels, [1, 1, 1, 1, 0, 0, 0])


def test_assign_center_ranks_are_labels():
    g = np.array([1.0, 5.0, 2.0, 4.0])
    parent = np.array([1, -1, 3, -1])
    labels = assign_points(g, parent, [1, 3])
    np.testing.assert_array_equal(labels, [0, 0, 1, 1])


def test_assign_unlabeled_parent_is_internal_error():
    g = np.array([3.0, 2.0, 1.0])
    parent = np.array([-1, 2, 1])
    with pytest.raises(InternalInvariantError):
        assign_points(g, parent, [0])


def test_two_blob_assignment_matches_components():
    coords, truth = synth_gmm(k=2, n=5000, dim=2, separation=10.0, seed=3)
    _, graph, pairwise = _setup(coords, 64)
    est = estimate_density(graph, 2.0)
    result = cluster_points(graph, est, pairwise, z=1.5)
    labels = result.assignment.labels
    assert result.assignment.n_clusters == 2
    keep = ~result.assignment.is_halo
    # map cluster labels to generative components by majority
    agree = 0
    for c in (0, 1):
        mask = keep & (labels == c)
        counts = np.bincount(truth[mask], minlength=2)
        agree += counts.max()
    assert agree / keep.sum() >= 0.99


# ---------------------------------------------------------------------------
# borders and saddles


def test_distant_blobs_have_no_saddles():
    rng = np.random.default_rng(7)
    coords = np.concatenate([rng.normal(0.0, 0.5, size=(200, 2)),
                             rng.normal(100.0, 0.5, size=(200, 2))])
    graph, pairwise, est = _full_estimate(coords, 32)
    labels = np.repeat([0, 1], 200)
    g = compute_g(est)
    table = find_borders_saddles(labels, graph, g, est, pairwise)
    assert table.entries == {}


def test_1d_valley_saddle_sits_mid_valley():
    rng = np.random.default_rng(8)
    coords = np.concatenate([rng.normal(-3.0, 1.0, size=(2000, 1)),
                             rng.normal(3.0, 1.0, size=(2000, 1))])
    _, graph, pairwise = _setup(coords, 64)
    est = estimate_density(graph, 1.0)
    result = cluster_points(graph, est, pairwise, z=3.0)
    assert result.assignment.n_clusters == 2
    info = result.saddles.entries[(0, 1)]
    # peaks at -3 and +3: the saddle must fall in the middle third
    assert -1.0 < coords[info.border_point, 0] < 1.0


def test_mirrored_data_same_saddle_density():
    rng = np.random.default_rng(9)
    coords = np.concatenate([rng.normal(-1.5, 0.8, size=(600, 2)),
                             rng.normal(1.5, 0.8, size=(600, 2))])
    out = []
    for c in (coords, -coords):
        graph, pairwise, est = _full_estimate(c, 64)
        result = cluster_points(graph, est, pairwise, z=1.5)
        assert result.assignment.n_clusters == 2
        out.append(result.saddles.entries[(0, 1)].log_rho)
    # mirroring is an isometry: identical distances, identical saddle
    assert out[0] == out[1]


# ---------------------------------------------------------------------------
# the whole pipeline is permutation-equivariant, on one CPU and in forked
# parts: a permutation hands each part other rows

_PERMUTATION_CASES = {
    "gmm_1500_2d": lambda: (synth_gmm(k=5, n=1500, dim=2, separation=10, seed=0)[0], 64),
    "gmm_3000_2d": lambda: (synth_gmm(k=5, n=3000, dim=2, separation=10, seed=7)[0], None),
    "uniform_2000_2d": lambda: (synth_uniform(n=2000, dim=2, seed=0), 128),
    "gmm_600_20d": lambda: (synth_gmm(k=5, n=600, dim=20, separation=10, seed=0)[0], 64),
}


def _pipeline(coords, k_max):
    """The two-NN dimension, the density estimate and the clusters."""
    _, graph, pairwise = _setup(coords, k_max)
    d_hat = twonn_estimate(graph).d_hat
    estimate = estimate_density(graph, d_hat)
    return d_hat, estimate, cluster_points(graph, estimate, pairwise).assignment


def _first_member_labels(labels):
    """Each point's label renamed to the first point that carries it."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("case", sorted(_PERMUTATION_CASES))
def test_pipeline_is_permutation_equivariant(case, cpus, monkeypatch):
    coords, k_max = _PERMUTATION_CASES[case]()
    perm = np.random.default_rng(3).permutation(coords.shape[0])  # row i is point perm[i]
    pretend_cpus(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    d_hat, est, asg = _pipeline(coords, k_max)
    d_perm, est_perm, asg_perm = _pipeline(coords[perm], k_max)
    # each run forks its kd bounds, its kNN and its density once per CPU
    # after the first
    assert len(forks) == (6 * (cpus - 1) if FORKS else 0)
    assert d_perm.hex() == d_hat.hex()
    for name in ("k_hat", "log_rho", "err"):
        assert getattr(est_perm, name).tobytes() == getattr(est, name)[perm].tobytes()
    labels = _first_member_labels(asg.labels[perm])
    assert (_first_member_labels(asg_perm.labels) == labels).all()
    assert set(perm[asg_perm.centers].tolist()) == set(asg.centers)
    assert (asg_perm.is_halo == asg.is_halo[perm]).all()


def _blobs(seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.normal(0.0, 1.0, size=(150, 2)),
                           rng.normal(4.0, 1.0, size=(150, 2)),
                           rng.normal((0.0, 4.0), 1.0, size=(150, 2))])


@pytest.mark.parametrize("seed", [13, 14])
def test_saddles_match_naive_oracle(seed):
    coords = _blobs(seed)
    graph, pairwise, est = _full_estimate(coords, 32)
    g = compute_g(est)
    delta, parent = compute_delta_parent(g, graph, pairwise)
    centers = detect_putative_centers(g, delta, est, graph)
    labels = assign_points(g, parent, centers)
    table = find_borders_saddles(labels, graph, g, est, pairwise)
    expected = naive_saddles(labels, g, est.log_rho, est.r_khat,
                             cdist(coords, coords))
    got = {key: (info.log_rho, info.border_point)
           for key, info in table.entries.items()}
    assert got == expected


def _assert_matches_loop(labels, graph, g, est, pairwise):
    """Vectorised border search equals the per-pair loop; entries come in
    sorted key order."""
    got = find_borders_saddles(labels, graph, g, est, pairwise)
    want = loop_borders_saddles(labels, graph, g, est, pairwise)
    assert got.entries == want.entries
    assert list(got.entries) == sorted(want.entries)


def _assert_centers_match_naive(g, delta, est, graph):
    want = naive_putative_centers(g, delta, est.r_khat, est.k_hat,
                                  graph.neighbor_ids)
    if not want:
        with pytest.raises(DegenerateDataError):
            detect_putative_centers(g, delta, est, graph)
    else:
        assert detect_putative_centers(g, delta, est, graph) == want


def _uniform_cloud():
    return _full_estimate(synth_uniform(n=1500, dim=2, seed=3), 64)


def _lattice_with_duplicates():
    # integer lattice under manhattan distance: k_max=16 ties at the horizon,
    # and the first 30 sites appear twice, so their g values tie exactly
    xs, ys = np.meshgrid(np.arange(16.0), np.arange(16.0))
    lattice = np.column_stack([xs.ravel(), ys.ravel()])
    points = PointSet(np.vstack([lattice, lattice[:30]]))
    graph = build_neighbor_graph(points, 16, metric="manhattan")
    pairwise = PairwiseDistances(coords=points.coords, metric="manhattan")
    return graph, pairwise, estimate_density(graph, 2.0)


_LOOP_ORACLE_CASES = pytest.mark.parametrize("case,min_centers", [
    (lambda: _full_estimate(_blobs(13), 32), 2),
    (lambda: _full_estimate(_blobs(14), 32), 2),
    (_uniform_cloud, 10), (_lattice_with_duplicates, 2)],
    ids=["blobs13", "blobs14", "uniform", "lattice"])


def _assert_stages_match_loop_oracles(graph, pairwise, est, min_centers):
    g = compute_g(est)
    delta, parent = compute_delta_parent(g, graph, pairwise)
    _assert_centers_match_naive(g, delta, est, graph)
    centers = detect_putative_centers(g, delta, est, graph)
    assert len(centers) >= min_centers
    labels = assign_points(g, parent, centers)
    _assert_matches_loop(labels, graph, g, est, pairwise)


@_LOOP_ORACLE_CASES
def test_saddles_and_centers_match_loop_oracles(case, min_centers):
    _assert_stages_match_loop_oracles(*case(), min_centers)


@_LOOP_ORACLE_CASES
def test_saddles_and_centers_match_loop_oracles_in_7_row_blocks(case, min_centers,
                                                                monkeypatch):
    graph, pairwise, est = case()
    assert graph.n_points % 7  # the last block is short
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", 7 * graph.k_max)
    _assert_stages_match_loop_oracles(graph, pairwise, est, min_centers)


def test_lattice_saddles_match_loop_on_quadrant_labels():
    # labels that ignore g: many borders, and the tied duplicate sites
    # compete for the same saddle
    graph, pairwise, est = _lattice_with_duplicates()
    xs = np.concatenate([np.tile(np.arange(16), 16), np.arange(30) % 16])
    ys = np.concatenate([np.repeat(np.arange(16), 16), np.arange(30) // 16])
    labels = (xs >= 8).astype(np.int64) + 2 * (ys >= 8)
    g = compute_g(est)
    _assert_matches_loop(labels, graph, g, est, pairwise)


def test_back_check_beyond_the_neighbor_horizon():
    # cluster 0 is a tight group whose 4-neighbor lists hold only itself;
    # cluster 1 is points 6 and 7.  Point 7 (the higher g of the two) reaches
    # point 1 first, but point 6 is nearer to point 1 than 7 is and lies
    # beyond point 1's stored list, so only the exact scan rejects 7.
    coords = np.array([[0.0, 0.0], [0.1, 0.0], [-0.1, 0.0], [0.0, 0.1],
                       [0.0, -0.1], [0.05, 0.05], [-0.6, 0.0], [1.0, 0.0]])
    _, graph, pairwise = _setup(coords, 4)
    labels = np.array([0, 0, 0, 0, 0, 0, 1, 1])
    est = _toy_estimate(log_rho=[5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 1.0, 2.0],
                        r_khat=np.full(8, 2.0))
    g = compute_g(est)
    exact = find_borders_saddles(labels, graph, g, est, pairwise)
    assert exact.entries[(0, 1)].border_point == 6
    _assert_matches_loop(labels, graph, g, est, pairwise)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=2, max_value=40),
       n_labels=st.integers(min_value=1, max_value=5),
       on_grid=st.booleans())
def test_saddles_and_centers_match_loop_on_arbitrary_labels(seed, n, n_labels, on_grid):
    rng = np.random.default_rng(seed)
    if on_grid:  # many tied distances
        coords = rng.integers(0, 5, size=(n, 2)).astype(np.float64)
    else:
        coords = rng.normal(size=(n, 2))
    k_max = int(rng.integers(1, n))
    _, graph, pairwise = _setup(coords, k_max)
    k_hat = rng.integers(1, k_max + 1, size=n)
    log_rho = rng.integers(0, 4, size=n).astype(np.float64)  # tied heights
    est = _toy_estimate(log_rho=log_rho, err=rng.integers(0, 2, size=n) * 0.5,
                        r_khat=graph.neighbor_dists[np.arange(n), k_hat - 1],
                        k_hat=k_hat)
    g = compute_g(est)
    labels = rng.integers(0, n_labels, size=n)
    _assert_matches_loop(labels, graph, g, est, pairwise)
    _assert_centers_match_naive(g, rng.uniform(0.0, 3.0, size=n), est, graph)


# ---------------------------------------------------------------------------
# merging


def _two_cluster_state(peak_rho=(5.0, 4.0), peak_err=(0.2, 0.2),
                       saddle_rho=3.0, saddle_err=0.2):
    labels = np.array([0, 0, 0, 1, 1, 1])
    log_rho = np.array([peak_rho[0], 4.0, saddle_rho,
                        peak_rho[1], 3.5, saddle_rho - 0.1])
    err = np.array([peak_err[0], 0.2, saddle_err, peak_err[1], 0.2, saddle_err])
    est = _toy_estimate(log_rho, err=err)
    g = compute_g(est)
    centers = [0, 3]
    saddles = SaddleTable(entries={
        (0, 1): SaddleInfo(log_rho=saddle_rho, err=saddle_err, border_point=2)})
    return labels, centers, saddles, est, g


def test_merge_zero_z_keeps_separated_peaks():
    # all saddles strictly below both peaks: at z = 0 nothing merges
    labels, centers, saddles, est, g = _two_cluster_state()
    out_labels, out_centers, out_sad, log, final = merge_clusters(
        labels, centers, saddles, est, 0.0)
    np.testing.assert_array_equal(out_labels, labels)
    assert out_centers == centers
    assert (0, 1) in out_sad.entries
    assert log == []
    np.testing.assert_array_equal(final, [0, 1])


def test_merge_fires_on_insignificant_peak():
    # lower peak rises 0.5 above the saddle, combined error 0.4: merges at
    # z = 1.5 but not at z = 1
    labels, centers, saddles, est, g = _two_cluster_state(
        peak_rho=(5.0, 3.5), saddle_rho=3.0)
    keep = merge_clusters(labels, centers, saddles, est, 1.0)
    assert keep[1] == centers
    out_labels, out_centers, out_sad, log, final = merge_clusters(
        labels, centers, saddles, est, 1.5)
    np.testing.assert_array_equal(out_labels, np.zeros(6))
    assert out_centers == [0]
    assert out_sad.entries == {}
    np.testing.assert_array_equal(final, [0, 0])
    assert len(log) == 1
    assert log[0]["removed_center"] == 3
    assert log[0]["surviving_center"] == 0
    assert log[0]["border_point"] == 2


def _peak_ranked(labels, centers, saddles, g):
    """The same partition relabeled by peak rank, as detect_putative_centers orders it."""
    order = sorted(range(len(centers)), key=lambda c: (-g[centers[c]], centers[c]))
    rank = np.argsort(order)  # rank[c]: the peak rank of cluster c
    entries = {tuple(sorted(rank[[a, b]].tolist())): info
               for (a, b), info in saddles.entries.items()}
    return rank[labels], [centers[c] for c in order], SaddleTable(entries=entries)


def _assert_merge_matches_oracle(labels, centers, saddles, est, g, z):
    """merge_clusters on the peak-ranked labels equals the any-order oracle."""
    want = sorting_merge_clusters(labels, centers, saddles, est, g, z)
    ranked_labels, ranked_centers, ranked_saddles = _peak_ranked(labels, centers, saddles, g)
    got = merge_clusters(ranked_labels, ranked_centers, ranked_saddles, est, z)
    np.testing.assert_array_equal(got[0], want[0])
    assert got[1] == want[1]
    assert got[2].entries == want[2].entries
    assert got[3] == want[3]
    # each removed putative centre is rewired to the centre it ends up under
    survivor = np.asarray(got[1])[got[4]]
    assert {c: int(t) for c, t in zip(ranked_centers, survivor) if c != t} == want[4]
    return want


def test_merge_absorbs_lower_peak_into_higher():
    # cluster 0 has the lower peak here, so it must be the one absorbed; the
    # oracle takes this order, merge_clusters the peak-ranked relabeling
    labels, centers, saddles, est, g = _two_cluster_state(
        peak_rho=(3.4, 5.0), saddle_rho=3.0)
    out_labels, out_centers, _, log, _ = _assert_merge_matches_oracle(
        labels, centers, saddles, est, g, 2.0)
    assert out_centers == [3]
    assert log[0]["removed_center"] == 0
    np.testing.assert_array_equal(out_labels, np.zeros(6))


def test_merge_transfers_densest_saddle_to_survivor():
    # clusters 0,1,2; 1 merges into 0; the old (1,2) saddle is denser than
    # the existing (0,2) saddle and must replace it
    labels = np.array([0, 0, 1, 1, 2, 2])
    log_rho = np.array([8.0, 2.0, 5.1, 2.0, 5.0, 2.0])
    err = np.full(6, 0.25)
    est = _toy_estimate(log_rho, err=err)
    centers = [0, 2, 4]  # peak order: g 8.25, 5.35, 5.25
    saddles = SaddleTable(entries={
        (0, 1): SaddleInfo(log_rho=5.0, err=0.25, border_point=1),
        (1, 2): SaddleInfo(log_rho=4.0, err=0.25, border_point=3),
        (0, 2): SaddleInfo(log_rho=1.0, err=0.25, border_point=5),
    })
    out_labels, out_centers, out_sad, log, _ = merge_clusters(
        labels, centers, saddles, est, 1.0)
    assert out_centers == [0, 4]
    assert len(log) == 1 and log[0]["removed_center"] == 2
    np.testing.assert_array_equal(out_labels, [0, 0, 0, 0, 1, 1])
    info = out_sad.entries[(0, 1)]
    assert info.log_rho == 4.0 and info.border_point == 3


def test_merge_infinite_z_yields_contact_components():
    labels = np.arange(8) // 2
    log_rho = np.array([9.0, 1.0, 8.0, 1.0, 7.0, 1.0, 6.0, 1.0])
    est = _toy_estimate(log_rho, err=np.full(8, 0.1))
    centers = [0, 2, 4, 6]
    saddles = SaddleTable(entries={
        (0, 1): SaddleInfo(log_rho=0.5, err=0.1, border_point=1),
        (1, 2): SaddleInfo(log_rho=0.4, err=0.1, border_point=3),
    })
    out_labels, out_centers, out_sad, _, final = merge_clusters(
        labels, centers, saddles, est, math.inf)
    # clusters 0,1,2 form one contact component; cluster 3 is isolated
    assert out_centers == [0, 6]
    np.testing.assert_array_equal(out_labels, [0, 0, 0, 0, 0, 0, 1, 1])
    np.testing.assert_array_equal(final, [0, 0, 0, 1])
    assert out_sad.entries == {}


def test_merge_renumbers_by_surviving_peak_height():
    labels = np.array([0, 0, 1, 1])
    log_rho = np.array([2.0, 1.0, 9.0, 1.0])
    est = _toy_estimate(log_rho, err=np.full(4, 0.1))
    g = compute_g(est)
    saddles = SaddleTable(entries={})
    out_labels, out_centers, _, _, _ = _assert_merge_matches_oracle(
        labels, [0, 2], saddles, est, g, 5.0)
    # no contact, so no merge; the oracle reorders labels by peak g
    assert out_centers == [2, 0]
    np.testing.assert_array_equal(out_labels, [1, 1, 0, 0])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       k0=st.integers(min_value=1, max_value=7),
       z=st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0, math.inf]))
def test_merge_matches_the_any_order_oracle(seed, k0, z):
    # random peak-ordered saddle tables; heights and saddle densities come
    # from a few values so that peaks, saddles and border points tie
    rng = np.random.default_rng(seed)
    n = k0 + 12
    est = _toy_estimate(rng.integers(0, 6, size=n).astype(np.float64),
                        err=rng.integers(1, 3, size=n) * 0.5)
    g = compute_g(est)
    cand = rng.choice(n, size=k0, replace=False)
    centers = cand[np.lexsort((cand, -g[cand]))].tolist()
    labels = rng.integers(0, k0, size=n)
    labels[centers] = np.arange(k0)
    entries = {(a, b): SaddleInfo(log_rho=float(rng.integers(-2, 5)),
                                  err=float(rng.integers(1, 3)) * 0.5,
                                  border_point=int(rng.integers(n)))
               for a in range(k0) for b in range(a + 1, k0) if rng.random() < 0.6}
    _assert_merge_matches_oracle(labels, centers, SaddleTable(entries=entries), est, g, z)


# ---------------------------------------------------------------------------
# halo


def test_halo_threshold_is_highest_saddle_strict():
    labels = np.array([0, 0, 0, 1, 1, 1])
    est = _toy_estimate([2.0, 0.5, 1.5, 3.0, 0.2, 1.0])
    saddles = SaddleTable(entries={
        (0, 1): SaddleInfo(log_rho=1.0, err=0.1, border_point=2)})
    halo = flag_halo(labels, saddles, est)
    # membership at exactly the saddle density is not halo (strict <)
    np.testing.assert_array_equal(halo, [False, True, False, False, True, False])


def test_halo_isolated_cluster_has_none():
    labels = np.array([0, 0, 1, 1, 2, 2])
    est = _toy_estimate([5.0, -9.0, 4.0, -9.0, 3.0, -9.0])
    saddles = SaddleTable(entries={
        (0, 1): SaddleInfo(log_rho=1.0, err=0.1, border_point=1)})
    halo = flag_halo(labels, saddles, est)
    assert halo[[1, 3]].all()
    assert not halo[[4, 5]].any()


def test_halo_uses_highest_of_two_saddles():
    labels = np.array([0, 0, 0, 1, 1, 2, 2])
    est = _toy_estimate([9.0, 1.5, 0.5, 8.0, 1.5, 7.0, 0.5])
    # listed lower saddle first: the threshold must not depend on entry order
    saddles = SaddleTable(entries={
        (0, 2): SaddleInfo(log_rho=1.0, err=0.1, border_point=6),
        (0, 1): SaddleInfo(log_rho=2.0, err=0.1, border_point=4),
    })
    halo = flag_halo(labels, saddles, est)
    # cluster 0 touches both saddles: 1.5 is above the lower one (1.0) but
    # below the higher one (2.0), so it is halo; clusters 1 and 2 each
    # have one saddle, at 2.0 and 1.0
    np.testing.assert_array_equal(halo, [False, True, True, False, True, False, True])


def test_cluster_config_validation(gmm_state):
    _, _, graph, pairwise, est = gmm_state
    for z in (-0.5, math.nan):
        with pytest.raises(ConfigError, match="z must be >= 0"):
            cluster_points(graph, est, pairwise, z=z)


# ---------------------------------------------------------------------------
# end-to-end properties on a mixture sample


@pytest.fixture(scope="module")
def gmm_state():
    coords, truth = synth_gmm(k=8, n=3000, dim=2, separation=6.0, seed=1)
    points = PointSet(coords)
    graph = build_neighbor_graph(points, 64)
    pairwise = PairwiseDistances(coords=points.coords)
    est = estimate_density(graph, 2.0)
    return coords, truth, graph, pairwise, est


def test_cluster_count_non_increasing_in_z(gmm_state):
    _, _, graph, pairwise, est = gmm_state
    counts = []
    for z in np.arange(0.0, 5.5, 0.5):
        result = cluster_points(graph, est, pairwise, z=float(z))
        counts.append(result.assignment.n_clusters)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_survivors_violate_the_merge_test(gmm_state):
    _, _, graph, pairwise, est = gmm_state
    z = 1.5
    result = cluster_points(graph, est, pairwise, z=z)
    centers = result.assignment.centers
    g = result.assignment.g
    for (a, b), info in result.saddles.entries.items():
        low = min((a, b), key=lambda c: (g[centers[c]], -centers[c]))
        peak = est.log_rho[centers[low]]
        peak_err = est.err[centers[low]]
        assert (peak - info.log_rho) >= z * (peak_err + info.err)


def test_zero_z_keeps_all_putative_centers_that_stand_out(gmm_state):
    _, _, graph, pairwise, est = gmm_state
    result = cluster_points(graph, est, pairwise, z=0.0)
    for z in (0.0, 1.0, 3.0):
        r = cluster_points(graph, est, pairwise, z=z)
        # merging never invents centers
        assert set(r.assignment.centers) <= set(r.putative_centers)
        assert r.putative_centers == result.putative_centers


def test_adding_constant_to_log_rho_changes_nothing(gmm_state):
    _, _, graph, pairwise, est = gmm_state
    shifted = DensityEstimate(k_hat=est.k_hat, log_rho=est.log_rho + 7.0,
                              err=est.err, r_khat=est.r_khat, fallback=est.fallback)
    a = cluster_points(graph, est, pairwise, z=1.5).assignment
    b = cluster_points(graph, shifted, pairwise, z=1.5).assignment
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.centers == b.centers
    np.testing.assert_array_equal(a.is_halo, b.is_halo)


def test_parent_forest_reaches_the_cluster_center(gmm_state):
    _, _, graph, pairwise, est = gmm_state
    result = cluster_points(graph, est, pairwise, z=1.5)
    asg = result.assignment
    n = graph.n_points
    for i in range(0, n, 7):
        seen = 0
        j = i
        while asg.parent[j] >= 0:
            nxt = int(asg.parent[j])
            assert asg.g[nxt] > asg.g[j]
            j = nxt
            seen += 1
            assert seen <= n, "cycle in parent forest"
        assert j == asg.centers[asg.labels[i]]


def test_centers_are_never_halo(gmm_state):
    _, _, graph, pairwise, est = gmm_state
    for z in (0.0, 1.5, 3.0):
        asg = cluster_points(graph, est, pairwise, z=z).assignment
        assert not asg.is_halo[asg.centers].any()
        assert asg.is_center[asg.centers].all()
        assert asg.is_center.sum() == asg.n_clusters


def test_halo_points_have_lower_density(gmm_state):
    _, _, graph, pairwise, est = gmm_state
    asg = cluster_points(graph, est, pairwise, z=1.5).assignment
    assert asg.is_halo.any()
    assert est.log_rho[asg.is_halo].mean() < est.log_rho[~asg.is_halo].mean()


def test_labels_are_dense_and_complete(gmm_state):
    _, _, graph, pairwise, est = gmm_state
    asg = cluster_points(graph, est, pairwise, z=1.5).assignment
    assert asg.labels.min() == 0
    assert asg.labels.max() == asg.n_clusters - 1
    assert np.unique(asg.labels).size == asg.n_clusters
    # each cluster's center carries its own label and no parent
    for rank, c in enumerate(asg.centers):
        assert asg.labels[c] == rank
        assert asg.parent[c] == -1
