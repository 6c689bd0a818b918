"""Tests for the adaptive density estimator and its building blocks."""

import math
import os
import re
import signal
import sys
import threading
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from densitopo import density as density_module
from densitopo import _blocks
from densitopo import (
    ConfigError,
    DegenerateDataError,
    NeighborGraph,
    PointSet,
    build_neighbor_graph,
    estimate_density,
    synth_gmm,
    synth_uniform,
)
from densitopo.density import (DEFAULT_K_MIN, LRT_THRESHOLD, _effective_cap, log_density_error,
                               unit_ball_volume)
from oracles import (
    adaptive_k,
    compass_max2d,
    cumulative_volume,
    fit_linear_corrected,
    golden_max,
    graph_from_radii,
    knn_mle,
    lrt_statistic,
    mp_lrt,
    per_point_density,
    radii_constant_density,
    radii_two_step,
    scan_per_k,
    shell_volumes,
)

# chi2(1) tail quantile at 1e-6, frozen from an erf-bisection computation
CHI2_1E6 = 23.928126976772596
# likelihood-ratio statistic at k=10, V_i=1, V_j=2, frozen from a 60-digit
# computation that is independent of how the shells are split
LRT_10_1_2 = 2.3556607131276692
# unit-ball volume at d = 1: radii are volume / OMEGA_1 in the d = 1 tests
OMEGA_1 = unit_ball_volume(1.0)


def _volume_graph(pairs: dict[int, float], k_max: int, n: int) -> NeighborGraph:
    """Graph (d=1) whose row i ends at a ball of the prescribed volume."""
    base = np.linspace(1.0 / k_max, 1.0, k_max) / OMEGA_1
    radii = np.tile(base, (n, 1))
    for i, vol in pairs.items():
        radii[i] = base * vol
    return graph_from_radii(radii)


# ---------------------------------------------------------------------------
# unit ball volumes and shell volumes


def test_unit_ball_volume_known_dimensions():
    assert unit_ball_volume(2.0) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(1.0) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(3.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_unit_ball_volume_fractional_dimension():
    v = unit_ball_volume(2.5)
    assert math.isfinite(v) and v > 0
    # unit-ball volume grows with d until d ~ 5.26
    assert unit_ball_volume(2.0) < v < unit_ball_volume(3.0)


def test_unit_ball_volume_rejects_nonpositive():
    with pytest.raises(ConfigError):
        unit_ball_volume(0.0)
    with pytest.raises(ConfigError):
        unit_ball_volume(-1.0)


def test_shell_volumes_planar_example():
    graph = graph_from_radii(np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]))
    v = shell_volumes(0, 2, 2.0, graph)
    np.testing.assert_allclose(v, [math.pi, 3.0 * math.pi], rtol=1e-15)
    assert v.sum() == pytest.approx(cumulative_volume(0, 2, 2.0, graph), rel=1e-15)


def test_shell_volumes_duplicate_neighbor_gives_zero_shell():
    graph = graph_from_radii(np.array([[1.5, 1.5]] * 3))
    v = shell_volumes(0, 2, 2.0, graph)
    assert v[0] == pytest.approx(math.pi * 2.25, rel=1e-15)
    assert v[1] == 0.0


def test_shell_volumes_3d_sum_to_ball_volume():
    graph = graph_from_radii(np.array([[1.0, 2.0, 3.0]] * 4))
    v = shell_volumes(0, 3, 3.0, graph)
    assert v.shape == (3,)
    assert v.sum() == pytest.approx(36.0 * math.pi, rel=1e-14)
    assert cumulative_volume(0, 3, 3.0, graph) == pytest.approx(
        36.0 * math.pi, rel=1e-14)


def test_shell_volumes_rejects_bad_k():
    graph = graph_from_radii(np.array([[1.0, 2.0]] * 3))
    with pytest.raises(ConfigError):
        shell_volumes(0, 3, 2.0, graph)
    with pytest.raises(ConfigError):
        shell_volumes(0, 0, 2.0, graph)


# ---------------------------------------------------------------------------
# fixed-k maximum likelihood


def test_knn_mle_examples():
    assert knn_mle(4, 2.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert knn_mle(1, 1.0) == 0.0


def test_knn_mle_is_the_likelihood_maximizer():
    rng = np.random.default_rng(7)
    with mp.workdps(50):
        for _ in range(20):
            k = int(rng.integers(1, 200))
            vol = float(rng.uniform(0.01, 50.0))

            def loglik(t, k=k, vol=vol):
                # fixed-k shell likelihood of the rate exp(t), evaluated in
                # extended precision so the maximizer is sharply localized
                return k * mp.mpf(t) - mp.exp(mp.mpf(t)) * vol

            t_star = golden_max(loglik, math.log(k / vol) - 5.0,
                                math.log(k / vol) + 5.0)
            assert knn_mle(k, vol) == pytest.approx(t_star, abs=1e-9)


def test_knn_mle_dominates_random_rates():
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = int(rng.integers(1, 100))
        vol = float(rng.uniform(0.05, 20.0))
        best = k * knn_mle(k, vol) - (k / vol) * vol
        for rho in rng.uniform(1e-3, 1e3, size=100):
            assert best >= k * math.log(rho) - rho * vol


def test_knn_mle_rejects_degenerate_volume():
    with pytest.raises(DegenerateDataError):
        knn_mle(4, 0.0)
    with pytest.raises(DegenerateDataError):
        knn_mle(4, -1.0)
    with pytest.raises(ConfigError):
        knn_mle(0, 1.0)


# ---------------------------------------------------------------------------
# same-density likelihood-ratio statistic


def test_lrt_matches_high_precision_oracle():
    graph = _volume_graph({0: 1.0, 10: 2.0}, k_max=10, n=12)
    stat = lrt_statistic(0, 10, 1.0, graph)
    assert mp_lrt(10, 1.0, 2.0) == LRT_10_1_2
    assert stat == pytest.approx(LRT_10_1_2, abs=1e-12)


def test_lrt_zero_exactly_for_equal_volumes():
    # same final radius, different intermediate shells: the statistic only
    # sees the two cumulative volumes, so it is exactly zero
    base = np.linspace(0.2, 1.0, 5)
    radii = np.tile(base, (7, 1))
    radii[5] = np.array([0.5, 0.6, 0.7, 0.8, 1.0])
    graph = graph_from_radii(radii)
    assert lrt_statistic(0, 5, 1.0, graph) == 0.0


def test_lrt_symmetric_under_volume_swap():
    g1 = _volume_graph({0: 1.3, 6: 4.1}, k_max=6, n=8)
    g2 = _volume_graph({0: 4.1, 6: 1.3}, k_max=6, n=8)
    assert lrt_statistic(0, 6, 1.0, g1) == lrt_statistic(0, 6, 1.0, g2)


def test_lrt_nonnegative_and_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(30):
        k = int(rng.integers(2, 51))
        vi = float(rng.uniform(0.01, 50.0))
        vj = float(rng.uniform(0.01, 50.0))
        graph = _volume_graph({0: vi, k: vj}, k_max=k, n=k + 2)
        stat = lrt_statistic(0, k, 1.0, graph)
        assert stat >= 0.0
        assert stat == pytest.approx(mp_lrt(k, vi, vj), abs=1e-8)


def test_lrt_zero_volume_is_infinite():
    radii = np.tile(np.linspace(0.25, 1.0, 4), (6, 1))
    radii[0] = 0.0
    graph = graph_from_radii(radii)
    assert math.isinf(lrt_statistic(0, 4, 1.0, graph))


def test_lrt_rejects_out_of_range_k():
    graph = _volume_graph({}, k_max=5, n=7)
    with pytest.raises(ConfigError):
        lrt_statistic(0, 6, 1.0, graph)


# ---------------------------------------------------------------------------
# adaptive neighborhood selection


def test_adaptive_k_reaches_cap_under_constant_density():
    radii = radii_constant_density(200, 40, rho=3.7, d=2.0, omega=math.pi)
    graph = graph_from_radii(radii)
    # cap = min(n // 4, graph k_max) = 40
    for i in (0, 57, 199):
        assert adaptive_k(i, 2.0, graph) == 40


def test_adaptive_k_stops_near_density_step():
    # point 0 sits in a dense region of ~20 points embedded in a background
    # 100x sparser; its first 20 neighbors are dense points, later ones are
    # background points.  4 * k_max rows make the cap n // 4 = k_max.
    k_max, k_break = 60, 20
    radii = np.empty((4 * k_max, k_max))
    radii[0] = radii_two_step(k_max, rho_in=100.0, rho_out=1.0,
                              k_break=k_break, d=1.0, omega=OMEGA_1)
    dense = radii_constant_density(1, k_max, rho=100.0, d=1.0, omega=OMEGA_1)[0]
    sparse = radii_constant_density(1, k_max, rho=1.0, d=1.0, omega=OMEGA_1)[0]
    radii[1:k_break + 1] = dense
    radii[k_break + 1:] = sparse
    graph = graph_from_radii(radii)

    k_hat = adaptive_k(0, 1.0, graph)
    assert k_hat <= 25

    # independent scan with the high-precision statistic and the frozen
    # chi-square threshold lands on the same neighborhood
    first_bad = None
    for k in range(DEFAULT_K_MIN, k_max + 1):
        vi = cumulative_volume(0, k, 1.0, graph)
        vj = cumulative_volume(int(graph.neighbor_ids[0, k - 1]), k, 1.0, graph)
        if mp_lrt(k, vi, vj) > CHI2_1E6:
            first_bad = k
            break
    assert first_bad is not None
    assert k_hat == max(DEFAULT_K_MIN, first_bad - 1)


def test_adaptive_k_floor_when_first_test_rejects():
    k_max = 12
    radii = np.empty((4 * k_max, k_max))
    radii[0] = radii_constant_density(1, k_max, rho=1000.0, d=1.0, omega=OMEGA_1)[0]
    radii[1:] = radii_constant_density(1, k_max, rho=1.0, d=1.0, omega=OMEGA_1)[0]
    graph = graph_from_radii(radii)
    assert lrt_statistic(0, DEFAULT_K_MIN, 1.0, graph) > LRT_THRESHOLD
    assert adaptive_k(0, 1.0, graph) == DEFAULT_K_MIN


def test_adaptive_k_varies_on_heterogeneous_sample():
    rng = np.random.default_rng(5)
    # two blobs of very different spread plus a sparse background
    coords = np.concatenate([
        rng.normal(0.0, 0.05, size=(150, 2)),
        rng.normal(8.0, 1.0, size=(150, 2)),
        rng.uniform(-20.0, 20.0, size=(100, 2)),
    ])
    graph = build_neighbor_graph(PointSet(coords), k_max=64)
    est = estimate_density(graph, 2.0)
    assert np.unique(est.k_hat).size > 1
    assert est.k_hat.min() >= DEFAULT_K_MIN
    assert est.k_hat.max() <= 64


def test_adaptive_k_caps_at_a_quarter_of_the_points():
    # constant density never rejects: the scan ends at the cap, n // 4 = 17
    # of the 30 neighbors the graph holds
    radii = radii_constant_density(68, 30, rho=1.0, d=1.0, omega=OMEGA_1)
    graph = graph_from_radii(radii)
    assert adaptive_k(0, 1.0, graph) == 17
    assert estimate_density(graph, 1.0).k_hat.tolist() == [17] * 68


def test_adaptive_k_rejects_graph_smaller_than_k_min():
    radii = radii_constant_density(50, 3, rho=1.0, d=1.0, omega=OMEGA_1)
    graph = graph_from_radii(radii)
    with pytest.raises(ConfigError):
        adaptive_k(0, 1.0, graph)


# ---------------------------------------------------------------------------
# the scan over chunks of k against the scan one k at a time


def _assert_scan_matches_per_k(graph, d, block_entries, monkeypatch, shards=(1, 2, 3)):
    """The chunked scan equals the per-k oracle on all points and on every
    interleaved shard ``ids[w::workers]``, as the forked estimate cuts them."""
    cap = _effective_cap(graph)
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", block_entries)
    for workers in shards:
        for w in range(workers):
            ids = np.arange(w, graph.n_points, workers)
            got = density_module._adaptive_k_all(graph, ids, d, unit_ball_volume(d), cap)
            assert got.tolist() == scan_per_k(graph, ids, d, cap).tolist()
    return scan_per_k(graph, np.arange(graph.n_points), d, cap)


def _scan_cases():
    """Graphs of each kind of row the scan must get right, with their d."""
    cases = {}
    # ties: every row the same, so v_i == v_j and the statistic is 0; no
    # row is rejected and all reach the cap
    cases["ties"] = (graph_from_radii(radii_constant_density(60, 15, 1.0, 2.0, math.pi)), 2.0)
    # zero distances: duplicates give zero volumes, rejected as infinite
    coords = _mixture_with_duplicates()
    cases["duplicates"] = (build_neighbor_graph(PointSet(coords), 48), 2.9)
    # at d = 300 most volumes overflow to inf, beside finite ones and a few
    # that vanish to 0
    coords = synth_uniform(n=600, dim=2, seed=0) * 100
    cases["overflow"] = (build_neighbor_graph(PointSet(coords), 150), 300.0)
    # k_min itself rejected: one dense row among sparse ones
    radii = np.empty((48, 12))
    radii[0] = radii_constant_density(1, 12, rho=1000.0, d=1.0, omega=OMEGA_1)[0]
    radii[1:] = radii_constant_density(1, 12, rho=1.0, d=1.0, omega=OMEGA_1)[0]
    cases["k_min_rejected"] = (graph_from_radii(radii), 1.0)
    # rows that stop at many k below the cap, and rows that reach it
    coords = synth_uniform(n=600, dim=2, seed=0)
    cases["uniform"] = (build_neighbor_graph(PointSet(coords), 150), 2.0)
    return cases


@pytest.mark.parametrize("block_entries", [1, 40, 1 << 15])
@pytest.mark.parametrize("case", ["ties", "duplicates", "overflow", "k_min_rejected",
                                  "uniform"])
def test_chunked_scan_matches_per_k_scan(case, block_entries, monkeypatch):
    graph, d = _scan_cases()[case]
    k_hat = _assert_scan_matches_per_k(graph, d, block_entries, monkeypatch)
    cap = _effective_cap(graph)
    with np.errstate(over="ignore", under="ignore"):
        volumes = unit_ball_volume(d) * graph.neighbor_dists[:, :cap] ** d
    kinds = {
        "ties": k_hat == cap,
        "duplicates": k_hat[300:] == DEFAULT_K_MIN,  # five zero radii each
        "overflow": [np.isinf(volumes).any(), np.isfinite(volumes).any(),
                     (volumes == 0).any(), np.unique(k_hat).size > 1],
        "k_min_rejected": [k_hat[0] == DEFAULT_K_MIN, cap in k_hat],
        "uniform": [np.unique(k_hat).size > 50, cap in k_hat],
    }
    assert np.all(kinds[case])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=20, max_value=80),
       dim=st.integers(min_value=1, max_value=4),
       decimals=st.sampled_from([0, 1, 6]),
       d=st.sampled_from([0.5, 1.0, 2.0, 3.7, 8.0, 150.0, 300.0]),
       block_entries=st.sampled_from([1, 7, 40, 300, 1 << 15]))
def test_chunked_scan_matches_per_k_scan_on_random_clouds(seed, n, dim, decimals, d,
                                                          block_entries):
    # rounding makes duplicate points and tied volumes common; a large d
    # makes the volumes of far neighbors overflow and of near ones vanish
    coords = np.round(np.random.default_rng(seed).normal(size=(n, dim)) * 30, decimals)
    graph = build_neighbor_graph(PointSet(coords), min(n - 1, 30))
    with pytest.MonkeyPatch.context() as mp_patch:
        _assert_scan_matches_per_k(graph, d, block_entries, mp_patch)


# ---------------------------------------------------------------------------
# drift-corrected likelihood fit


def test_fit_constant_shells_gives_zero_slope():
    radii = radii_constant_density(40, 25, rho=2.5, d=2.0, omega=math.pi)
    graph = graph_from_radii(radii)
    log_rho, slope, err, fallback = fit_linear_corrected(0, 25, 2.0, graph)
    vol = cumulative_volume(0, 25, 2.0, graph)
    tol = density_module._NR_TOL
    assert not fallback
    assert abs(slope) <= tol
    assert log_rho == pytest.approx(math.log(25.0 / vol), abs=tol)
    assert err == log_density_error(25.0)


def _random_profile_graph(rng, k, d):
    shells = rng.uniform(0.05, 1.0, size=k)
    cum = np.cumsum(shells)
    radii = (cum / unit_ball_volume(d)) ** (1.0 / d)
    return graph_from_radii(np.tile(radii, (k + 2, 1)))


def _fit_objective(i, k, d, graph):
    v = shell_volumes(i, k, d, graph)
    x = np.cumsum(v)

    def f(b, a):
        t = b + a * x
        with np.errstate(over="ignore"):
            val = t.sum() - (v * np.exp(t)).sum()
        return float(val)

    return f, v, x


def test_fit_reaches_stationarity_on_random_profiles():
    rng = np.random.default_rng(17)
    for _ in range(40):
        k = int(rng.integers(5, 61))
        d = float(rng.choice([1.0, 2.0, 3.0]))
        graph = _random_profile_graph(rng, k, d)
        log_rho, slope, _, fallback = fit_linear_corrected(0, k, d, graph)
        assert not fallback
        _, v, x = _fit_objective(0, k, d, graph)
        w = v * np.exp(log_rho + slope * x)
        grad = math.hypot(k - w.sum(), x.sum() - (w * x).sum())
        assert grad <= 1e-8


def test_fit_matches_direct_search_oracle():
    rng = np.random.default_rng(23)
    for _ in range(25):
        k = int(rng.integers(5, 41))
        graph = _random_profile_graph(rng, k, 2.0)
        log_rho, slope, _, fallback = fit_linear_corrected(0, k, 2.0, graph)
        assert not fallback
        f, _, x = _fit_objective(0, k, 2.0, graph)
        b0 = math.log(k) - math.log(float(x[-1]))
        b_star, a_star, f_star = compass_max2d(f, b0, 0.0)
        assert log_rho == pytest.approx(b_star, abs=1e-6)
        assert slope == pytest.approx(a_star, abs=1e-6)
        assert f(log_rho, slope) >= f_star - 1e-9


def test_fit_falls_back_to_plain_estimate_on_overflow():
    # volumes around 1e300 overflow the curvature terms; the fit must admit
    # defeat and return the plain k/V estimate, flagged
    radii = np.tile(np.linspace(0.5, 1.0, 8) * 1e150, (10, 1))
    graph = graph_from_radii(radii)
    log_rho, slope, err, fallback = fit_linear_corrected(0, 8, 2.0, graph)
    vol = cumulative_volume(0, 8, 2.0, graph)
    assert fallback
    assert slope == 0.0
    assert log_rho == math.log(8.0) - math.log(vol)
    assert err == log_density_error(8.0)


def test_fit_rejects_zero_total_volume():
    radii = np.tile(np.linspace(0.1, 1.0, 6), (8, 1))
    radii[0] = 0.0
    graph = graph_from_radii(radii)
    with pytest.raises(DegenerateDataError):
        fit_linear_corrected(0, 6, 2.0, graph)


# ---------------------------------------------------------------------------
# error bars


def test_error_bar_spot_values():
    assert log_density_error(2.0) == math.sqrt(5.0)
    assert log_density_error(100.0) == 0.20150945537631876


def test_error_bar_closed_form_on_grid():
    ks = np.arange(2, 1001, dtype=np.float64)
    eps = log_density_error(ks)
    np.testing.assert_array_equal(
        eps, np.sqrt((4.0 * ks + 2.0) / ((ks - 1.0) * ks)))


def test_error_bar_strictly_decreasing():
    eps = log_density_error(np.arange(2, 1001, dtype=np.float64))
    assert np.all(np.diff(eps) < 0.0)


# ---------------------------------------------------------------------------
# full estimator


def test_estimate_density_constant_profile_recovers_rate():
    rho = 4.2
    radii = radii_constant_density(120, 28, rho=rho, d=2.0, omega=math.pi)
    graph = graph_from_radii(radii)
    est = estimate_density(graph, 2.0)
    assert est.n_points == 120
    # constant shells: adaptive k hits the cap and the fit is exact
    assert np.all(est.k_hat == 28)
    np.testing.assert_allclose(est.log_rho, math.log(rho), atol=1e-10)
    np.testing.assert_array_equal(est.err, log_density_error(est.k_hat.astype(float)))
    np.testing.assert_array_equal(est.r_khat, radii[:, 27])
    assert not est.fallback.any()


def test_estimate_density_permutation_equivariant():
    rng = np.random.default_rng(29)
    coords = rng.uniform(0.0, 1.0, size=(300, 2))
    perm = rng.permutation(300)
    est = estimate_density(build_neighbor_graph(PointSet(coords), 32), 2.0)
    est_p = estimate_density(build_neighbor_graph(PointSet(coords[perm]), 32), 2.0)
    np.testing.assert_array_equal(est_p.log_rho, est.log_rho[perm])
    np.testing.assert_array_equal(est_p.k_hat, est.k_hat[perm])
    np.testing.assert_array_equal(est_p.err, est.err[perm])
    np.testing.assert_array_equal(est_p.fallback, est.fallback[perm])


def test_estimate_density_scale_shifts_log_density():
    rng = np.random.default_rng(31)
    coords = rng.uniform(0.0, 1.0, size=(250, 2))
    est = estimate_density(build_neighbor_graph(PointSet(coords), 32), 2.0)
    for c in (2.0, 0.25):
        est_c = estimate_density(
            build_neighbor_graph(PointSet(coords * c), 32), 2.0)
        np.testing.assert_array_equal(est_c.k_hat, est.k_hat)
        np.testing.assert_array_equal(est_c.err, est.err)
        np.testing.assert_allclose(
            est_c.log_rho - est.log_rho, -2.0 * math.log(c), atol=1e-9)
        np.testing.assert_array_equal(est_c.r_khat, est.r_khat * c)


def test_estimate_density_uniform_interior_coverage():
    coords = synth_uniform(n=1500, dim=2, seed=2)
    est = estimate_density(build_neighbor_graph(PointSet(coords), 64), 2.0)
    interior = np.all((coords > 0.15) & (coords < 0.85), axis=1)
    true_log_rho = math.log(1500.0)
    within = np.abs(est.log_rho[interior] - true_log_rho) <= 3.0 * est.err[interior]
    assert within.mean() >= 0.85


def test_estimate_density_duplicates_widen_and_flag():
    rng = np.random.default_rng(37)
    coords = np.concatenate([np.zeros((6, 2)),
                             rng.uniform(1.0, 2.0, size=(60, 2))])
    graph = build_neighbor_graph(PointSet(coords), 12)
    est = estimate_density(graph, 2.0)
    # each copy of the origin sees 5 zero-distance neighbors; the ball is
    # widened to the first positive radius and the plain estimate is used
    assert est.fallback[:6].all()
    assert np.all(est.k_hat[:6] == 6)
    assert np.isfinite(est.log_rho).all()
    assert not est.fallback[6:].any()


def test_estimate_density_all_coincident_is_degenerate():
    coords = np.zeros((30, 2))
    graph = build_neighbor_graph(PointSet(coords), 10)
    with pytest.raises(DegenerateDataError, match="^point 0: more than 7 exact duplicates"):
        estimate_density(graph, 2.0)


def test_estimate_density_alternative_ansatz_choices():
    rng = np.random.default_rng(41)
    coords = rng.normal(size=(200, 2))
    graph = build_neighbor_graph(PointSet(coords), 32)
    ref = estimate_density(graph, 2.0, ansatz="volume")
    est = estimate_density(graph, 2.0, ansatz="index")
    assert np.isfinite(est.log_rho).all()
    # neighborhood selection does not depend on the drift regressor
    np.testing.assert_array_equal(est.k_hat, ref.k_hat)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=2, max_value=400),
       vol_scale=st.floats(min_value=0.01, max_value=100.0,
                           allow_nan=False, allow_infinity=False))
def test_error_bar_between_zero_and_sqrt5(k, vol_scale):
    eps = log_density_error(float(k))
    assert 0.0 < eps <= math.sqrt(5.0)
    # dominance: the fixed-k estimate beats any other rate
    vol = vol_scale
    best = k * knn_mle(k, vol) - (k / vol) * vol
    rho = (k / vol) * vol_scale
    assert best >= k * math.log(rho) - rho * vol


# ---------------------------------------------------------------------------
# batched estimator against the per-point reference, bit for bit

_ESTIMATE_FIELDS = ("k_hat", "log_rho", "err", "r_khat", "fallback")


def _assert_matches_per_point(graph, d, ansatz="volume"):
    est = estimate_density(graph, d, ansatz)
    ref = per_point_density(graph, d, ansatz)
    for name in _ESTIMATE_FIELDS:
        assert np.array_equal(getattr(est, name), getattr(ref, name)), name
    return est


def _mixture_with_duplicates(seed: int = 1) -> np.ndarray:
    coords = synth_gmm(k=3, n=250, dim=3, separation=6, seed=seed)[0]
    # 50 doubled points, and six copies of one point: more copies than
    # k_min, so its selected ball has zero volume and must be widened
    return np.concatenate([coords, coords[:50], np.repeat(coords[60:61], 5, axis=0)])


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("ansatz", ["volume", "index"])
def test_batched_fit_matches_per_point_reference(ansatz, metric):
    graph = build_neighbor_graph(PointSet(_mixture_with_duplicates()), 48, metric=metric)
    for d in (1.3, 2.9, 7.5):
        est = _assert_matches_per_point(graph, d, ansatz)
        assert est.fallback[300:].all() and np.all(est.k_hat[300:] == 6)


def test_batched_fit_matches_reference_where_fits_fall_back():
    coords = synth_gmm(k=5, n=300, dim=20, separation=10, seed=0)[0]
    graph = build_neighbor_graph(PointSet(coords), 64)
    est = _assert_matches_per_point(graph, 14.0)
    assert 0 < est.fallback.sum() < est.n_points


def test_batched_fit_matches_reference_on_long_shells_and_split_groups(monkeypatch):
    # k_hat above 128 makes numpy's pairwise row sums recurse; a small block
    # size splits the k_hat groups over several blocks
    graph = build_neighbor_graph(PointSet(synth_uniform(n=600, dim=2, seed=0)), 150)
    est = _assert_matches_per_point(graph, 2.0)
    assert est.k_hat.max() > 128
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", 16 * 150)
    assert np.bincount(est.k_hat).max() > 16
    _assert_matches_per_point(graph, 2.0)


def test_batched_fallback_uses_the_c_library_log():
    # overflowing shells force the plain estimate log(k) - log(V); pick a V
    # where numpy's SIMD log and the C library's log differ, if they do here;
    # 32 rows of 8 neighbors make the cap n // 4 = 8
    scales = 1e80 * np.exp(np.random.default_rng(0).uniform(0.0, 100.0, 20000))
    vols = unit_ball_volume(2.0) * np.power(scales, 2.0)
    differs = np.log(vols) != np.array([math.log(v) for v in vols])
    scale = scales[np.argmax(differs)]
    graph = graph_from_radii(np.tile(np.linspace(0.5, 1.0, 8) * scale, (32, 1)))
    est = _assert_matches_per_point(graph, 2.0)
    assert est.fallback.all() and np.all(est.k_hat == 8)


def test_batched_retry_uses_the_c_library_pow():
    # two coincident rows, led by 5 and by 7 zero radii, widen to k = 6 and
    # k = 8 in one call; their first positive radius is one where numpy's
    # array power and the C library's pow differ, if they do here; 40 rows
    # of 12 neighbors make the cap n // 4 = 10
    d = 2.7
    candidates = np.random.default_rng(0).uniform(0.01, 0.1, 20000)
    differs = np.power(candidates, d) != np.array([r ** d for r in candidates.tolist()])
    r6, r8 = candidates[np.argsort(~differs, kind="stable")[:2]]
    radii = radii_constant_density(40, 12, rho=1.0, d=d, omega=unit_ball_volume(d))
    radii[0] = np.concatenate([np.zeros(5), r6 * np.linspace(1.0, 2.0, 7)])
    radii[1] = np.concatenate([np.zeros(7), r8 * np.linspace(1.0, 2.0, 5)])
    est = _assert_matches_per_point(graph_from_radii(radii), d)
    assert est.k_hat[:2].tolist() == [6, 8] and est.fallback[:2].all()


def test_batched_fit_raises_no_floating_point_warning():
    # zero-volume shells of doubled points meet exp overflow in the line
    # search at d=7.5: 0 * inf must stay silent
    graph = build_neighbor_graph(PointSet(_mixture_with_duplicates(seed=0)), 64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate_density(graph, 7.5)


def _record_fit_blocks(monkeypatch) -> list[np.ndarray]:
    """Spy on the lockstep fit: the sorted k_hat of every block it runs."""
    blocks = []
    fit_rows = density_module._fit_rows

    def spy(ids, k, *args):
        blocks.append(k.copy())
        return fit_rows(ids, k, *args)

    monkeypatch.setattr(density_module, "_fit_rows", spy)
    return blocks


def test_batched_fit_matches_reference_in_blocks_of_many_k_hat(monkeypatch):
    # a small budget cuts the rows, sorted by k_hat, into blocks that each
    # span several k_hat values and splits runs of one k_hat between blocks
    coords = synth_gmm(k=3, n=400, dim=2, separation=6, seed=1)[0]
    graph = build_neighbor_graph(PointSet(coords), 64)
    monkeypatch.setattr(_blocks, "BLOCK_ENTRIES", 1000)
    for ansatz in density_module.ANSATZ_CHOICES:
        blocks = _record_fit_blocks(monkeypatch)
        _assert_matches_per_point(graph, 2.0, ansatz)
        assert all(k.size * k[-1] <= 1000 and k[-1] <= 2 * k[0] for k in blocks)
        assert max(np.unique(k).size for k in blocks) >= 5
        assert any(left[-1] == right[0] for left, right in zip(blocks, blocks[1:]))


def test_batched_fit_matches_reference_with_short_and_recursing_rows_in_one_block(
        monkeypatch):
    # above 128 shells numpy's pairwise row sum recurses; rows of at most
    # 128 shells padded into the same block must still sum on their own
    graph = build_neighbor_graph(PointSet(synth_uniform(n=600, dim=2, seed=0)), 150)
    blocks = _record_fit_blocks(monkeypatch)
    _assert_matches_per_point(graph, 2.0)
    assert any(k[0] <= 128 < k[-1] for k in blocks)


def test_batched_fit_ignores_overflow_in_the_padding(monkeypatch):
    # row 0 keeps k_hat = 4: its density rises over four shells, so its
    # fitted slope is positive, and its later shells lie 1e100 out; padded
    # to width 8 beside the other rows, exp overflows in its padding
    d = 2.0
    radii = radii_constant_density(32, 8, rho=1.0, d=d, omega=math.pi)
    radii[0, :4] = np.sqrt(np.cumsum([1.0, 0.8, 0.6, 0.4]) / math.pi)
    radii[0, 4:] = 1e100 * np.arange(1.0, 5.0)
    graph = graph_from_radii(radii)
    log_rho, slope, _, _ = fit_linear_corrected(0, 4, d, graph)
    assert log_rho + slope * cumulative_volume(0, 5, d, graph) > math.log(np.finfo(float).max)
    blocks = _record_fit_blocks(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = _assert_matches_per_point(graph, d)
    assert est.k_hat[0] == 4 and not est.fallback[0]
    assert len(blocks) == 1 and blocks[0][-1] == 8


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.integers(min_value=20, max_value=60),
       dim=st.integers(min_value=1, max_value=3),
       decimals=st.sampled_from([0, 1, 6]),
       d=st.floats(min_value=0.5, max_value=8.0),
       ansatz=st.sampled_from(density_module.ANSATZ_CHOICES),
       nr_max_iter=st.sampled_from([3, 4, 100]),
       block_entries=st.sampled_from([1, 40, _blocks.BLOCK_ENTRIES]))
def test_batched_fit_matches_reference_on_random_clouds(seed, n, dim, decimals, d,
                                                        ansatz, nr_max_iter, block_entries):
    # rounding the coordinates makes duplicate points common; a low
    # iteration limit sends most fits through the final stationarity test;
    # a small block budget fits one row at a time, or a few of mixed k_hat
    coords = np.round(np.random.default_rng(seed).normal(size=(n, dim)), decimals)
    graph = build_neighbor_graph(PointSet(coords), min(n - 1, 24))
    with pytest.MonkeyPatch.context() as mp_patch:
        mp_patch.setattr(density_module, "_NR_MAX_ITER", nr_max_iter)
        mp_patch.setattr(_blocks, "BLOCK_ENTRIES", block_entries)
        try:
            ref = per_point_density(graph, d, ansatz)
        except DegenerateDataError:
            with pytest.raises(DegenerateDataError):
                estimate_density(graph, d, ansatz)
            return
        est = estimate_density(graph, d, ansatz)
    for name in _ESTIMATE_FIELDS:
        assert np.array_equal(getattr(est, name), getattr(ref, name)), name


# ---------------------------------------------------------------------------
# argument validation


def test_estimate_density_validates_d_and_ansatz():
    graph = graph_from_radii(radii_constant_density(40, 10, rho=1.0, d=2.0,
                                                    omega=math.pi))
    for d in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="intrinsic dimension must be positive"):
            estimate_density(graph, d)
    for d in (400.0, 1e308):
        with pytest.raises(ConfigError, match=re.escape(f"intrinsic dimension {d} is too large")):
            estimate_density(graph, d)
    with pytest.raises(ConfigError, match="ansatz must be one of"):
        estimate_density(graph, 2.0, ansatz="cubic")
    # every radius is positive, but omega * r**d leaves floating point: it
    # underflows at d = 300 for radii near 0.1 and overflows at d = 20 for
    # radii near 1e20, in fitted rows and in a widened coincident row alike
    radii = graph.neighbor_dists.copy()
    for d, scale in ((300.0, 0.1), (20.0, 1e20)):
        with pytest.raises(ConfigError,
                           match=re.escape(f"intrinsic dimension {d} is too large for point 0")):
            estimate_density(graph_from_radii(radii * scale), d)
    radii[7] = [0.0] * 5 + [0.01] * 5
    with pytest.raises(ConfigError,
                       match=re.escape("intrinsic dimension 300.0 is too large for point 7")):
        estimate_density(graph_from_radii(radii), 300.0)


# ---------------------------------------------------------------------------
# the estimate on every usable CPU: forked shards, the same bytes and errors

FORKS = hasattr(os, "fork") and sys.version_info < (3, 12)


@pytest.fixture
def forks(monkeypatch):
    """Two usable CPUs and shards of any size; return the fork log."""
    monkeypatch.setattr(density_module, "_SHARD_ROWS", 1)
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: 2)
    log = []
    if hasattr(os, "fork"):
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: log.append(os.getpid()) or real())
    return log


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _estimate_outcome(graph, d, ansatz="volume"):
    """The bytes of every field of the estimate, or the error's type and text."""
    try:
        est = estimate_density(graph, d, ansatz)
    except (ConfigError, DegenerateDataError) as exc:
        return type(exc), str(exc)
    return [getattr(est, name).tobytes() for name in _ESTIMATE_FIELDS]


def _one_cpu_outcome(monkeypatch, graph, d, ansatz="volume"):
    with monkeypatch.context() as m:
        m.setattr(_blocks, "usable_cpus", lambda: 1)
        return _estimate_outcome(graph, d, ansatz)


@pytest.fixture(scope="module")
def forked_cases():
    """Graphs to estimate on several CPUs, built once, before any test of
    the module pretends a CPU count or logs the forks: the kNN forks too."""
    mixture = build_neighbor_graph(PointSet(_mixture_with_duplicates()), 48)
    falling_back = build_neighbor_graph(
        PointSet(synth_gmm(k=5, n=300, dim=20, separation=10, seed=0)[0]), 64)
    return {"duplicates-volume": (mixture, 2.9, "volume"),
            "duplicates-index": (mixture, 2.9, "index"),
            "fallbacks-20d": (falling_back, 14.0, "volume")}


@pytest.mark.parametrize("cpus", [2, 5])  # 5: more processes than most machines have cores
@pytest.mark.parametrize("case", ["duplicates-volume", "duplicates-index", "fallbacks-20d"])
def test_forked_estimate_equals_the_one_cpu_bytes(case, cpus, forked_cases, forks, monkeypatch):
    graph, d, ansatz = forked_cases[case]
    want = _one_cpu_outcome(monkeypatch, graph, d, ansatz)
    assert forks == []
    monkeypatch.setattr(_blocks, "usable_cpus", lambda: cpus)
    assert _estimate_outcome(graph, d, ansatz) == want
    assert len(forks) == (cpus - 1 if FORKS else 0)
    _no_child_left()


def _faulty_graph(fault: str, points: tuple[int, ...]):
    """40 rows of 10 neighbors, cap 10, where ``points`` alone are at fault."""
    radii = radii_constant_density(40, 10, rho=1.0, d=2.0, omega=math.pi)
    for point in points:
        if fault == "duplicates":
            radii[point] = 0.0  # more than cap exact duplicates
        else:
            radii[point] *= 1e20  # its ball's volume overflows at d = 20
    return graph_from_radii(radii), 2.0 if fault == "duplicates" else 20.0


@pytest.mark.parametrize("points", [(6,), (7,), (5, 6)],
                         ids=["caller-shard", "worker-shard", "both-shards"])
@pytest.mark.parametrize("fault", ["duplicates", "d-too-large"])
def test_shard_error_is_the_one_cpu_error(fault, points, forks, monkeypatch):
    # on two CPUs the caller estimates the even points, the worker the odd;
    # with a fault in both, a one-CPU run names the worker's point 5 first
    graph, d = _faulty_graph(fault, points)
    want = _one_cpu_outcome(monkeypatch, graph, d)
    kind, text = want
    assert kind is (DegenerateDataError if fault == "duplicates" else ConfigError)
    assert text.startswith(f"point {points[0]}: more than 10 exact duplicates"
                           if fault == "duplicates" else
                           f"intrinsic dimension 20.0 is too large for point {points[0]}")
    assert _estimate_outcome(graph, d) == want
    assert len(forks) == (1 if FORKS else 0)
    _no_child_left()


@pytest.mark.skipif(not FORKS, reason="the density estimate forks only before Python 3.12")
@pytest.mark.parametrize("how", ["exit-code", "signal", "exception"])
def test_failed_worker_gives_the_one_cpu_bytes(how, forked_cases, forks, monkeypatch):
    graph, d, ansatz = forked_cases["duplicates-volume"]
    want = _one_cpu_outcome(monkeypatch, graph, d, ansatz)
    caller, estimate_rows = os.getpid(), density_module._estimate_rows

    def failing(*args):
        if os.getpid() != caller:
            if how == "exit-code":
                os._exit(3)
            if how == "signal":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("worker failed")
        return estimate_rows(*args)

    monkeypatch.setattr(density_module, "_estimate_rows", failing)
    assert _estimate_outcome(graph, d, ansatz) == want
    assert len(forks) == 1
    _no_child_left()


@pytest.mark.parametrize("case", ["one-cpu", "few-points", "second-thread", "python-3.12",
                                  "no-fork"])
def test_serial_unless_every_condition_holds(case, forked_cases, forks, monkeypatch):
    graph, d, ansatz = forked_cases["duplicates-volume"]
    want = _one_cpu_outcome(monkeypatch, graph, d, ansatz)
    if case == "one-cpu":
        monkeypatch.setattr(_blocks, "usable_cpus", lambda: 1)
    elif case == "few-points":  # one shard of _SHARD_ROWS points or more
        monkeypatch.setattr(density_module, "_SHARD_ROWS", graph.n_points // 2 + 1)
    elif case == "python-3.12":
        monkeypatch.setattr(_blocks, "sys", types.SimpleNamespace(version_info=(3, 12, 0)))
    elif case == "no-fork" and hasattr(os, "fork"):
        monkeypatch.delattr(os, "fork")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "second-thread":
        thread.start()
    try:
        assert _estimate_outcome(graph, d, ansatz) == want
    finally:
        stop.set()
        if case == "second-thread":
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
