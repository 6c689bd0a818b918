"""Tests for the synthetic dataset generators."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.stats import kstest

import densitopo.synth as synth_mod
from densitopo import ConfigError, DataError, synth_gmm, synth_spirals, synth_uniform


# ---------------------------------------------------------------------------
# Gaussian mixture


def test_gmm_single_component():
    points, labels = synth_gmm(k=1, n=200, dim=3, separation=5.0, seed=0)
    assert points.shape == (200, 3)
    assert np.all(labels == 0)
    # one standard-normal blob: sample mean near the component mean
    assert np.linalg.norm(points.std(axis=0) - 1.0) < 0.3


def test_gmm_nearest_mean_consistency():
    points, labels = synth_gmm(k=5, n=5000, dim=2, separation=10.0, seed=0)
    means = np.stack([points[labels == c].mean(axis=0) for c in range(5)])
    nearest = np.linalg.norm(points[:, None, :] - means[None, :, :],
                             axis=2).argmin(axis=1)
    assert (nearest == labels).mean() >= 0.99


def test_gmm_fixed_seed_reproducible():
    a = synth_gmm(k=3, n=500, dim=2, separation=6.0, seed=42)
    b = synth_gmm(k=3, n=500, dim=2, separation=6.0, seed=42)
    assert a[0].tobytes() == b[0].tobytes()
    assert a[1].tobytes() == b[1].tobytes()
    c = synth_gmm(k=3, n=500, dim=2, separation=6.0, seed=43)
    assert a[0].tobytes() != c[0].tobytes()


def test_gmm_counts_differ_by_at_most_one():
    _, labels = synth_gmm(k=4, n=10, dim=2, separation=5.0, seed=1)
    counts = np.bincount(labels, minlength=4)
    assert counts.tolist() == [3, 3, 2, 2]


def test_gmm_component_separation_honored():
    points, labels = synth_gmm(k=6, n=6000, dim=2, separation=12.0, seed=7)
    means = np.stack([points[labels == c].mean(axis=0) for c in range(6)])
    for a in range(6):
        for b in range(a + 1, 6):
            # empirical means wander about 1/sqrt(1000) from the true ones
            assert np.linalg.norm(means[a] - means[b]) > 11.0


def test_gmm_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        synth_gmm(k=0, n=10, dim=2, separation=1.0, seed=0)
    with pytest.raises(ConfigError):
        synth_gmm(k=5, n=4, dim=2, separation=1.0, seed=0)
    with pytest.raises(ConfigError):
        synth_gmm(k=2, n=10, dim=0, separation=1.0, seed=0)
    for separation in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            synth_gmm(k=2, n=10, dim=2, separation=separation, seed=0)


def test_gmm_reports_exhausted_mean_placement(monkeypatch):
    monkeypatch.setattr(synth_mod, "_MEAN_DRAW_LIMIT", 0)
    with pytest.raises(DataError, match="could not place"):
        synth_gmm(k=2, n=10, dim=2, separation=3.0, seed=0)


# ---------------------------------------------------------------------------
# spirals


def _spiral_residuals(points, labels):
    """Distance of each point from its arm's curve r = theta."""
    radius = np.hypot(points[:, 0], points[:, 1])
    phase = np.arctan2(points[:, 1], points[:, 0])
    theta_mod = phase - labels * np.pi
    turns = np.round((radius - theta_mod) / (2.0 * np.pi))
    return np.abs(radius - (theta_mod + 2.0 * np.pi * turns))


def test_spirals_noise_free_points_on_curve():
    points, labels = synth_spirals(n=2000, noise=0.0, seed=0)
    assert _spiral_residuals(points, labels).max() <= 1e-12


def test_spirals_balanced_labels():
    _, labels = synth_spirals(n=1000, noise=0.1, seed=0)
    assert np.bincount(labels).tolist() == [500, 500]


def test_spirals_one_nn_consistency():
    points, labels = synth_spirals(n=10000, noise=0.1, seed=0)
    _, idx = cKDTree(points).query(points, k=2)
    assert (labels[idx[:, 1]] == labels).mean() >= 0.99


def test_spirals_radius_range_noise_free():
    points, _ = synth_spirals(n=4000, noise=0.0, seed=3)
    radius = np.hypot(points[:, 0], points[:, 1])
    assert radius.min() >= 0.5 * math.pi - 1e-12
    assert radius.max() <= 4.5 * math.pi + 1e-12


def test_spirals_fixed_seed_reproducible():
    a, la = synth_spirals(n=600, noise=0.05, seed=9)
    b, lb = synth_spirals(n=600, noise=0.05, seed=9)
    assert a.tobytes() == b.tobytes() and la.tobytes() == lb.tobytes()


def test_spirals_reject_bad_parameters():
    with pytest.raises(ConfigError):
        synth_spirals(n=999, noise=0.1, seed=0)
    with pytest.raises(ConfigError):
        synth_spirals(n=0, noise=0.1, seed=0)
    for noise in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            synth_spirals(n=100, noise=noise, seed=0)


# ---------------------------------------------------------------------------
# uniform


def test_uniform_bounds_and_shape():
    points = synth_uniform(n=500, dim=4, seed=0)
    assert points.shape == (500, 4)
    assert points.min() >= 0.0 and points.max() <= 1.0


def test_uniform_ks_statistic_small():
    points = synth_uniform(n=10000, dim=1, seed=0)
    assert kstest(points[:, 0], "uniform").statistic < 0.02


def test_uniform_fixed_seed_reproducible():
    a = synth_uniform(n=300, dim=2, seed=5)
    b = synth_uniform(n=300, dim=2, seed=5)
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != synth_uniform(n=300, dim=2, seed=6).tobytes()


def test_uniform_rejects_bad_parameters():
    with pytest.raises(ConfigError):
        synth_uniform(n=0, dim=2, seed=0)
    with pytest.raises(ConfigError):
        synth_uniform(n=10, dim=0, seed=0)
