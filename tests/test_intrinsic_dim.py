"""Two-NN intrinsic dimension estimation."""

import numpy as np
import pytest

from densitopo import (DataError, DegenerateDataError, PointSet, build_neighbor_graph,
                       twonn_estimate)
from densitopo import intrinsic_dim as intrinsic_dim_module
from densitopo.synth import synth_uniform
from oracles import graph_from_radii


def _graph_with_mu(mu_values):
    """Neighbor radii engineered so r2/r1 equals the requested ratios."""
    radii = np.column_stack([np.ones(len(mu_values)), np.asarray(mu_values)])
    return graph_from_radii(radii)


def _twonn_keeping_tail(graph):
    """The estimate with no log-ratio discarded."""
    with pytest.MonkeyPatch.context() as mp_patch:
        mp_patch.setattr(intrinsic_dim_module, "DISCARD_FRACTION", 0.0)
        return twonn_estimate(graph)


def test_all_ratios_e_gives_dimension_one():
    graph = _graph_with_mu([np.e] * 4)
    est = _twonn_keeping_tail(graph)
    assert est.d_hat == pytest.approx(1.0, abs=1e-15)
    assert est.n_used == 4


def test_all_ratios_sqrt_e_gives_dimension_two():
    graph = _graph_with_mu([np.exp(0.5)] * 6)
    est = _twonn_keeping_tail(graph)
    assert est.d_hat == pytest.approx(2.0, rel=1e-12)


def test_reduces_to_plain_mle_without_discard():
    rng = np.random.default_rng(0)
    mu = np.exp(rng.exponential(0.5, size=50))
    graph = _graph_with_mu(mu)
    est = _twonn_keeping_tail(graph)
    assert est.d_hat == pytest.approx(50 / np.log(mu).sum(), rel=1e-12)


def test_uniform_square_in_band():
    coords = synth_uniform(10000, 2, seed=1)
    graph = build_neighbor_graph(PointSet(coords), k_max=2)
    est = twonn_estimate(graph)
    assert 1.85 <= est.d_hat <= 2.15


def test_within_ten_percent_for_d2_and_d5():
    for d in (2, 5):
        coords = synth_uniform(10000, d, seed=d)
        graph = build_neighbor_graph(PointSet(coords), k_max=2)
        est = twonn_estimate(graph)
        assert abs(est.d_hat - d) <= 0.1 * d


def test_scale_invariance_is_exact():
    coords = synth_uniform(2000, 3, seed=7)
    g1 = build_neighbor_graph(PointSet(coords), k_max=2)
    # power-of-two factor keeps every distance ratio bitwise identical
    g2 = build_neighbor_graph(PointSet(coords * 8.0), k_max=2)
    assert twonn_estimate(g1).d_hat == twonn_estimate(g2).d_hat


def test_half_sample_stability():
    coords = synth_uniform(10000, 2, seed=3)
    a = twonn_estimate(build_neighbor_graph(PointSet(coords[:5000]), k_max=2))
    b = twonn_estimate(build_neighbor_graph(PointSet(coords[5000:]), k_max=2))
    assert abs(a.d_hat - b.d_hat) <= 0.15 * max(a.d_hat, b.d_hat)


def test_duplicate_points_are_skipped():
    # one exact duplicate pair: its r1 = 0 row must not poison the estimate
    coords = synth_uniform(500, 2, seed=9)
    coords[13] = coords[77]
    graph = build_neighbor_graph(PointSet(coords), k_max=2)
    est = twonn_estimate(graph)
    assert np.isfinite(est.d_hat) and est.d_hat > 0
    assert est.n_used < 500


def test_all_duplicates_degenerate():
    coords = np.zeros((6, 2))
    graph = build_neighbor_graph(PointSet(coords), k_max=2)
    with pytest.raises(DegenerateDataError):
        twonn_estimate(graph)


def test_single_neighbor_graph_rejected():
    radii = np.ones((5, 1))
    graph = graph_from_radii(radii)
    with pytest.raises(DataError):
        twonn_estimate(graph)


def test_unit_ratios_degenerate():
    # r1 == r2 everywhere: log ratios sum to zero, no dimension signal
    graph = _graph_with_mu([1.0] * 8)
    with pytest.raises(DegenerateDataError):
        _twonn_keeping_tail(graph)
