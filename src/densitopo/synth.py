"""Synthetic datasets with known structure for tests and experiments.

Every generator takes an explicit seed and draws from its own generator
instance, so results are reproducible and independent of global RNG state.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError

_SPIRAL_PITCH = 1.0          # radius gained per radian
_SPIRAL_THETA_LO = 0.5 * np.pi
_SPIRAL_THETA_HI = 4.5 * np.pi
_SPIRAL_TAPER = 1.5 * np.pi  # window over which arm density ramps to zero
_SPIRAL_BUMP_FRAC = 0.12     # fraction of arm points in the inner-end peak
_SPIRAL_BUMP_SCALE = 0.35    # angular decay length of the inner-end peak
_MEAN_DRAW_LIMIT = 200       # candidate draws per requested component


def synth_gmm(k: int, n: int, dim: int, separation: float,
              seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-weight isotropic Gaussian mixture with separated means.

    Component standard deviation is 1, so ``separation`` is measured in
    sigma units; means are drawn uniformly in a box and rejected until all
    pairwise mean distances reach the separation, failing loudly when the
    box cannot host k such means.

    Returns:
        (points, labels) with points shaped (n, dim) and integer component
        labels; counts per component differ by at most one.
    """
    if k < 1 or n < k or dim < 1:
        raise ConfigError(f"need k >= 1, n >= k, dim >= 1; got k={k} n={n} dim={dim}")
    if not (0 <= separation < np.inf):  # NaN too
        raise ConfigError(f"separation must be finite and >= 0, got {separation}")
    rng = np.random.default_rng(seed)
    span = max(1.0, separation) * max(2.0, k ** (1.0 / dim)) * 1.5
    means: list[np.ndarray] = []
    for _ in range(_MEAN_DRAW_LIMIT * k):
        cand = rng.uniform(0.0, span, size=dim)
        if all(float(np.linalg.norm(cand - m)) >= separation for m in means):
            means.append(cand)
            if len(means) == k:
                break
    if len(means) < k:
        raise DataError(
            f"could not place {k} means at pairwise separation {separation} "
            f"in a box of edge {span:.3g}")

    counts = [n // k + (1 if c < n % k else 0) for c in range(k)]
    points = np.empty((n, dim), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    pos = 0
    for c, (mean, cnt) in enumerate(zip(means, counts)):
        points[pos:pos + cnt] = mean + rng.standard_normal((cnt, dim))
        labels[pos:pos + cnt] = c
        pos += cnt
    return points, labels


def _spiral_theta_quantile(u: np.ndarray) -> np.ndarray:
    """Invert the angular CDF of one spiral arm.

    The angular density is 1/theta over the body of the arm, multiplied by
    a linear ramp that falls to zero over the last ``_SPIRAL_TAPER``
    radians, so density decreases monotonically outward and the arm fades
    out instead of ending in an abrupt clump.
    """
    cut = _SPIRAL_THETA_HI - _SPIRAL_TAPER
    f_body = np.log(cut / _SPIRAL_THETA_LO)
    total = f_body + (_SPIRAL_THETA_HI / _SPIRAL_TAPER) * np.log(
        _SPIRAL_THETA_HI / cut) - 1.0
    val = u * total
    theta = np.where(val <= f_body, _SPIRAL_THETA_LO * np.exp(val), 0.0)
    tail = val > f_body
    if np.any(tail):
        lo = np.full(int(tail.sum()), cut)
        hi = np.full(int(tail.sum()), _SPIRAL_THETA_HI)
        target = val[tail]
        # CDF is monotone on the taper window; bisect to double precision
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            f = f_body + (_SPIRAL_THETA_HI / _SPIRAL_TAPER) * np.log(mid / cut) \
                - (mid - cut) / _SPIRAL_TAPER
            below = f < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        theta[tail] = 0.5 * (lo + hi)
    return theta


def synth_spirals(n: int, noise: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaved planar spirals with Gaussian radial noise.

    Each arm follows r = theta (one arm rotated by pi).  The angular law
    concentrates a bump of points at the inner end and decays outward with
    a smooth taper at the outer end, so the underlying distribution has
    exactly two dominant peaks, one per arm, and no spurious terminus
    clump.  With noise 0 the points sit exactly on the curves.

    Returns:
        (points, labels) with n//2 points per arm and labels 0/1.
    """
    if n < 2 or n % 2 != 0:
        raise ConfigError(f"n must be even and >= 2, got {n}")
    if not (0 <= noise < np.inf):  # NaN too
        raise ConfigError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    half = n // 2
    points = np.empty((n, 2), dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    span = _SPIRAL_THETA_HI - _SPIRAL_THETA_LO
    for arm in range(2):
        theta = _spiral_theta_quantile(rng.random(half))
        bump = rng.random(half) < _SPIRAL_BUMP_FRAC
        bump_theta = _SPIRAL_THETA_LO + np.minimum(
            rng.exponential(_SPIRAL_BUMP_SCALE, size=half), span)
        theta = np.where(bump, bump_theta, theta)
        radius = _SPIRAL_PITCH * theta
        if noise > 0:
            radius = radius + rng.normal(0.0, noise, size=half)
        phase = theta + arm * np.pi
        sl = slice(arm * half, (arm + 1) * half)
        points[sl, 0] = radius * np.cos(phase)
        points[sl, 1] = radius * np.sin(phase)
        labels[sl] = arm
    return points, labels


def synth_uniform(n: int, dim: int, seed: int) -> np.ndarray:
    """n points uniform in the unit hypercube [0, 1]**dim."""
    if n < 1 or dim < 1:
        raise ConfigError(f"need n >= 1 and dim >= 1, got n={n} dim={dim}")
    rng = np.random.default_rng(seed)
    return rng.random((n, dim))
