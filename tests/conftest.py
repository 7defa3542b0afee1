"""Shared fixtures: the two worked example channels, a bottleneck channel,
seeded random-config generators used across the suite, and the digest of
frozen arrays."""

import hashlib

import numpy as np
import pytest

from marc_cap import ChannelConfig


@pytest.fixture
def example1():
    """Two-user channel with relay SNRs (6, 4), dest SNRs (3, 2), relay-dest 2."""
    return ChannelConfig(2, (6.0, 4.0), 4.0, 1.0, 1.0)


@pytest.fixture
def example2():
    """Two-user channel with relay SNRs (6, 0.4), dest SNRs (3, 0.2), relay-dest 2."""
    return ChannelConfig(2, (6.0, 0.4), 4.0, 1.0, 1.0)


@pytest.fixture
def example3():
    """Three-user equalized channel; its scans take the witness verdicts."""
    return ChannelConfig(3, (6.0, 4.0, 2.0), 5.0, 1.0, 1.5)


@pytest.fixture
def bottleneck():
    """Relay link caps the sum-rate: huge relay power, weak sources."""
    return ChannelConfig(2, (1.0, 1.0), 100.0, 1.0, 1.0)


def random_config(rng, K=None, lo=0.1, hi=10.0):
    """Config with log-uniform powers and noises in [lo, hi]."""
    if K is None:
        K = int(rng.integers(2, 4))
    draw = lambda size=None: np.exp(rng.uniform(np.log(lo), np.log(hi), size))
    return ChannelConfig(
        K,
        tuple(float(p) for p in draw(K)),
        float(draw()),
        float(draw()),
        float(draw()),
    )


def random_split(rng, K):
    """Uniform alpha in the cube, beta in the simplex interior."""
    alpha = rng.random(K)
    beta = rng.dirichlet(np.ones(K + 1))[:K]
    return tuple(float(a) for a in alpha), tuple(float(b) for b in beta)


def random_gamma(rng, K):
    """Correlation vector in the simplex (closure included)."""
    return tuple(float(g) for g in rng.dirichlet(np.ones(K + 1))[:K])


def membership_matrix(K, masks):
    """Rows select the coordinates of each bitmask."""
    return np.array([[1.0 if m >> k & 1 else 0.0 for k in range(K)] for m in masks])


def linprog_max_sum(values, K):
    """Max total rate over {R >= 0, sum_S R <= g(S)} via the HiGHS solver."""
    from scipy.optimize import linprog

    masks = range(1, 1 << K)
    res = linprog(
        c=[-1.0] * K,
        A_ub=membership_matrix(K, masks),
        b_ub=np.asarray(values)[1:],
        bounds=[(0.0, None)] * K,
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun


def grid_max_sum(values, K):
    """Max total rate over the same polytope by brute-force search: grid the
    first K-1 coordinates, solve the last in closed form from the tightest
    constraint containing it. For monotone g the last coordinate's cap is
    nonnegative at any feasible prefix, and the value function is concave,
    so shrinking the window around the incumbent converges."""
    g = np.asarray(values, dtype=np.float64)
    scale = max(float(g.max()), 1e-12)
    if K == 1:
        return float(g[1])
    prefix_masks = [m for m in range(1, 1 << K) if not m >> (K - 1) & 1]
    last_masks = [m for m in range(1, 1 << K) if m >> (K - 1) & 1]
    A_pre = membership_matrix(K - 1, prefix_masks)
    b_pre = g[prefix_masks]
    A_last = membership_matrix(K - 1, last_masks)
    b_last = g[last_masks]
    lo = np.zeros(K - 1)
    hi = np.array([g[1 << k] for k in range(K - 1)])
    best = 0.0
    center = np.zeros(K - 1)
    for _ in range(14):
        axes = [np.linspace(lo[k], hi[k], 21) for k in range(K - 1)]
        R = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        R = R[np.all(R @ A_pre.T <= b_pre + 1e-12 * scale, axis=1)]
        if len(R):
            cap = (b_last - R @ A_last.T).min(axis=1)
            total = R.sum(axis=1) + np.maximum(cap, 0.0)
            i = int(np.argmax(total))
            if total[i] > best:
                best = float(total[i])
                center = R[i]
        width = (hi - lo) / 5.0
        lo = np.maximum(center - width, 0.0)
        hi = np.minimum(center + width, np.array([g[1 << k] for k in range(K - 1)]))
        if float(width.max()) < 1e-9 * scale:
            break
    return best


def sha256_of(*arrays):
    """SHA-256 of the arrays' bytes, each in row-major order."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()
