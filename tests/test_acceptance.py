"""Acceptance suite: the package-level behavioral criteria, one test each.

Each criterion prints a single PASS or FAIL line (visible with ``-s``; the
pytest verbose report carries the same information per test).  Expensive
artifacts are shared through module-scope fixtures, and each timed
criterion measures the full computation it depends on.
"""

import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from densitopo import (
    DensityEstimate,
    LabeledPartition,
    PairwiseDistances,
    PeakAssignment,
    PointSet,
    SaddleInfo,
    SaddleTable,
    build_neighbor_graph,
    build_topography,
    cluster_points,
    confusion_matrix,
    estimate_density,
    majority_labels,
    nmi,
    purity,
    single_linkage,
    synth_gmm,
    synth_spirals,
    synth_uniform,
    twonn_estimate,
    write_points_tsv,
)
from densitopo.clustering import compute_delta_parent
from densitopo.density import LRT_THRESHOLD, log_density_error
from densitopo.cli import RunConfig, run_pipeline
from oracles import (
    chi2_quantile_1dof,
    compass_max2d,
    fit_linear_corrected,
    knn_mle,
    mp_nmi,
    naive_confusion,
    naive_delta_parent,
    naive_majority,
    naive_purity,
    naive_single_linkage,
)
from test_density import _fit_objective, _random_profile_graph


def _criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number:02d}: {label}")
                raise
            print(f"PASS criterion {number:02d}: {label}")
        return wrapper
    return decorate


def _full_pipeline(points, k_max, z_values):
    """Graph, dimension, density, and one clustering per z; wall time."""
    t0 = time.monotonic()
    ps = PointSet(points)
    graph = build_neighbor_graph(ps, k_max)
    pairwise = PairwiseDistances(coords=ps.coords)
    d_hat = twonn_estimate(graph).d_hat
    estimate = estimate_density(graph, d_hat)
    results = {z: cluster_points(graph, estimate, pairwise, z=z)
               for z in z_values}
    elapsed = time.monotonic() - t0
    return {"graph": graph, "pairwise": pairwise, "estimate": estimate,
            "results": results, "elapsed": elapsed, "d_hat": d_hat}


@pytest.fixture(scope="module")
def spirals_state():
    points, truth = synth_spirals(n=10000, noise=0.1, seed=0)
    state = _full_pipeline(points, 64, (1.0, 2.0, 3.0))
    state["points"], state["truth"] = points, truth
    return state


@pytest.fixture(scope="module")
def gmm5_state():
    points, truth = synth_gmm(k=5, n=20000, dim=2, separation=10.0, seed=0)
    state = _full_pipeline(points, 64, (1.5, 2.0, 2.5, 3.0))
    state["points"], state["truth"] = points, truth
    return state


@pytest.fixture(scope="module")
def gmm8_state():
    points, truth = synth_gmm(k=8, n=20000, dim=2, separation=6.0, seed=0)
    z_grid = tuple(i * 0.5 for i in range(11))
    state = _full_pipeline(points, 512, z_grid)
    state["points"], state["truth"], state["z_grid"] = points, truth, z_grid
    return state


# ---------------------------------------------------------------------------


@_criterion(1, "two spirals: 2 clusters at z=3, both arms clean at z=1,2,3")
def test_criterion_01_two_spirals(spirals_state):
    truth = spirals_state["truth"]
    assert spirals_state["results"][3.0].assignment.n_clusters == 2
    for z in (1.0, 2.0, 3.0):
        assignment = spirals_state["results"][z].assignment
        arms = []
        for c in (0, 1):
            members = (assignment.labels == c) & ~assignment.is_halo
            assert members.any()
            counts = np.bincount(truth[members], minlength=2)
            assert counts.max() / counts.sum() >= 0.95
            arms.append(int(counts.argmax()))
        # the two densest peaks sit on different spirals
        assert sorted(arms) == [0, 1]
    assert spirals_state["elapsed"] < 60.0


@_criterion(2, "separated 5-blob mixture: 5 clusters, NMI >= 0.95 for z in [1.5,3]")
def test_criterion_02_gmm_five_blobs(gmm5_state):
    truth = gmm5_state["truth"]
    for z, result in gmm5_state["results"].items():
        assignment = result.assignment
        assert assignment.n_clusters == 5, f"z={z}"
        part = LabeledPartition(assignment.labels, truth,
                                include=~assignment.is_halo)
        assert nmi(part) >= 0.95, f"z={z}"
    assert gmm5_state["elapsed"] < 90.0


@_criterion(3, "cluster count non-increasing in z; z=0 keeps every putative center")
def test_criterion_03_count_monotone(gmm8_state):
    counts = [gmm8_state["results"][z].assignment.n_clusters
              for z in gmm8_state["z_grid"]]
    assert counts == sorted(counts, reverse=True)
    putative = len(gmm8_state["results"][0.0].putative_centers)
    assert counts[0] == putative


@_criterion(4, "uniform square: 95% of interior points within 3 error bars")
def test_criterion_04_uniform_density_sanity():
    n = 10000
    points = synth_uniform(n=n, dim=2, seed=0)
    graph = build_neighbor_graph(PointSet(points), 64)
    estimate = estimate_density(graph, 2.0)
    r = estimate.r_khat
    interior = ((points[:, 0] >= r) & (points[:, 0] <= 1.0 - r) &
                (points[:, 1] >= r) & (points[:, 1] <= 1.0 - r))
    assert interior.sum() > n // 2
    within = np.abs(estimate.log_rho - math.log(n)) <= 3.0 * estimate.err
    assert within[interior].mean() >= 0.95


@_criterion(5, "error-bar closed form exact on k=2..1000 plus spot values")
def test_criterion_05_error_bar_closed_form():
    for k in range(2, 1001):
        expected = float(np.sqrt((4.0 * k + 2.0) / ((k - 1.0) * k)))
        assert log_density_error(k) == expected
    assert log_density_error(2) == pytest.approx(math.sqrt(5.0), abs=1e-9)
    assert log_density_error(100) == pytest.approx(0.20150945537631876, abs=1e-9)


@_criterion(6, "fixed-k MLE dominates the shell likelihood; fit matches search oracle")
def test_criterion_06_mle_and_fit():
    rng = np.random.default_rng(106)
    ks = rng.integers(1, 101, size=1000)
    vols = np.exp(rng.uniform(-5.0, 5.0, size=1000))
    for k, vol in zip(ks, vols):
        k = int(k)
        log_rho = knn_mle(k, float(vol))
        assert math.isclose(math.exp(log_rho), k / vol, rel_tol=1e-12)
    # dominance of the closed-form maximizer over random densities
    rho_hat = ks / vols
    rho = rho_hat[:, None] * np.exp(rng.uniform(-3.0, 3.0, size=(1000, 100)))
    loglik = ks[:, None] * np.log(rho) - rho * vols[:, None]
    best = ks * np.log(rho_hat) - ks
    assert np.all(best[:, None] >= loglik - 1e-9 * np.abs(best)[:, None])

    rng = np.random.default_rng(202)
    for _ in range(200):
        k = int(rng.integers(5, 61))
        d = float(rng.choice([1.0, 2.0, 3.0]))
        graph = _random_profile_graph(rng, k, d)
        log_rho, slope, _, fallback = fit_linear_corrected(0, k, d, graph)
        assert not fallback
        f, v, x = _fit_objective(0, k, d, graph)
        b0 = math.log(k) - math.log(float(x[-1]))
        b_star, a_star, f_star = compass_max2d(f, b0, 0.0)
        assert abs(log_rho - b_star) <= 1e-6
        assert abs(slope - a_star) <= 1e-6
        assert f(log_rho, slope) >= f_star - 1e-9
        w = v * np.exp(log_rho + slope * x)
        assert math.hypot(k - w.sum(), x.sum() - (w * x).sum()) <= 1e-8


@_criterion(7, "likelihood-ratio threshold matches the chi-square quantile")
def test_criterion_07_lrt_threshold():
    oracle = chi2_quantile_1dof(1e-6)
    assert abs(LRT_THRESHOLD - oracle) <= 1e-2
    assert LRT_THRESHOLD == 23.928


@_criterion(8, "two-NN dimension within 10% on uniform cubes; scale invariant")
def test_criterion_08_twonn():
    for d in (2, 5):
        t0 = time.monotonic()
        points = synth_uniform(n=10000, dim=d, seed=d)
        graph = build_neighbor_graph(PointSet(points), 3)
        d_hat = twonn_estimate(graph).d_hat
        assert abs(d_hat - d) / d <= 0.10
        # powers of two rescale distances exactly, so the ratios are unchanged
        scaled_graph = build_neighbor_graph(PointSet(points * 4.0), 3)
        assert twonn_estimate(scaled_graph).d_hat == d_hat
        assert time.monotonic() - t0 < 30.0


@_criterion(9, "delta and parent equal the brute-force scan on 20 instances")
def test_criterion_09_delta_parent_oracle():
    rng = np.random.default_rng(109)
    for trial in range(20):
        dim = int(rng.integers(2, 4))
        coords = rng.uniform(size=(500, dim))
        k_max = int(rng.integers(8, 33))
        graph = build_neighbor_graph(PointSet(coords), k_max)
        pairwise = PairwiseDistances(coords=coords)
        g = rng.standard_normal(500)
        delta, parent = compute_delta_parent(g, graph, pairwise)
        exp_delta, exp_parent = naive_delta_parent(g, cdist(coords, coords))
        np.testing.assert_array_equal(parent, exp_parent)
        np.testing.assert_array_equal(delta, exp_delta)


def _toy_topography(peaks, saddles):
    k = len(peaks)
    log_rho = np.array(peaks, dtype=np.float64)
    est = DensityEstimate(k_hat=np.full(k, 4), log_rho=log_rho,
                          err=np.full(k, 0.1), r_khat=np.ones(k),
                          fallback=np.zeros(k, dtype=bool))
    assignment = PeakAssignment(
        g=log_rho + 0.1, delta=np.ones(k), parent=np.full(k, -1, dtype=np.int64),
        labels=np.arange(k), is_center=np.ones(k, dtype=bool),
        is_halo=np.zeros(k, dtype=bool), centers=list(range(k)))
    table = SaddleTable(entries={
        pair: SaddleInfo(log_rho=v, err=0.05, border_point=0)
        for pair, v in saddles.items()})
    return build_topography(assignment, table, est)


@_criterion(10, "single linkage equals the naive dendrogram; heights monotone")
def test_criterion_10_single_linkage(spirals_state, gmm5_state, gmm8_state):
    rng = np.random.default_rng(110)
    for trial in range(50):
        k = int(rng.integers(2, 9))
        pts = rng.uniform(size=(k, 3))
        dist = cdist(pts, pts)
        peaks = np.arange(k, 0.0, -1.0) + 20.0
        saddles = {(a, b): max(peaks[a], peaks[b]) - dist[a, b]
                   for a in range(k) for b in range(a + 1, k)}
        topo = _toy_topography(list(peaks), saddles)
        den = single_linkage(topo)
        exp_heights, exp_partitions = naive_single_linkage(topo.cluster_dist)
        assert den.merge_heights == exp_heights
    for state, z in ((spirals_state, 1.0), (spirals_state, 2.0),
                     (spirals_state, 3.0), (gmm5_state, 1.5), (gmm8_state, 1.5)):
        result = state["results"][z]
        topo = build_topography(result.assignment, result.saddles,
                                state["estimate"])
        den = single_linkage(topo)
        assert den.merge_heights == sorted(den.merge_heights)


@_criterion(11, "repeated runs with one seed produce byte-identical outputs")
def test_criterion_11_determinism(tmp_path, spirals_state):
    points, truth = synth_gmm(k=8, n=20000, dim=2, separation=6.0, seed=0)
    again, _ = synth_gmm(k=8, n=20000, dim=2, separation=6.0, seed=0)
    assert points.tobytes() == again.tobytes()

    input_path = tmp_path / "points.tsv"
    write_points_tsv(points, input_path)
    outputs = {}
    for tag in ("a", "b"):
        outdir = tmp_path / tag
        run_pipeline(RunConfig(input=str(input_path), outdir=str(outdir),
                               k_max=512, z=1.5))
        outputs[tag] = outdir
    names = ("density.tsv", "assignment.tsv", "topography.json",
             "dendrogram.nwk", "network.dot")
    for name in names:
        a, b = outputs["a"] / name, outputs["b"] / name
        assert a.is_file() and b.is_file()
        assert a.read_bytes() == b.read_bytes(), name

    # in-memory repetition of one spirals clustering is bitwise stable too
    graph, pairwise = spirals_state["graph"], spirals_state["pairwise"]
    estimate = spirals_state["estimate"]
    rerun = cluster_points(graph, estimate, pairwise, z=3.0)
    first = spirals_state["results"][3.0]
    assert np.array_equal(rerun.assignment.labels, first.assignment.labels)
    assert rerun.assignment.g.tobytes() == first.assignment.g.tobytes()


@_criterion(12, "agreement metrics match counting oracles; exact conventions")
def test_criterion_12_metrics_oracles():
    rng = np.random.default_rng(112)
    for trial in range(100):
        n = int(rng.integers(30, 301))
        pred = rng.integers(0, int(rng.integers(2, 9)), size=n)
        truth = rng.integers(0, int(rng.integers(2, 7)), size=n)
        part = LabeledPartition(pred, truth)
        assert abs(nmi(part) - mp_nmi(pred, truth)) <= 1e-9
        ours_purity = purity(part)
        exp_purity = naive_purity(pred, truth)
        assert ours_purity.keys() == exp_purity.keys()
        for c in ours_purity:
            assert abs(ours_purity[c] - exp_purity[c]) <= 1e-9
        assert majority_labels(part) == naive_majority(pred, truth)
        matrix, labels = confusion_matrix(part)
        exp_matrix, exp_labels = naive_confusion(
            pred, truth, naive_majority(pred, truth))
        np.testing.assert_array_equal(labels, exp_labels)
        np.testing.assert_array_equal(matrix, exp_matrix)
    same = rng.integers(0, 4, size=100)
    assert nmi(LabeledPartition(same, same)) == 1.0
    multi = np.repeat([0, 1, 2], 20)
    assert nmi(LabeledPartition(np.zeros(60, dtype=int), multi)) == 0.0
