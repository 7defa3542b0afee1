"""Lattice kernels: frozen lattice optima, the min-SNR batch against its
scalar formula, and refusal of ground sets the dense search cannot handle."""

import numpy as np
import pytest

from marc_cap._kernels import lattice_maxmin, min_snr_batch

# Example-1 lattice optimum at n=100: gamma=(0, 0.25) puts the coherent
# statistic at exactly 1, where both sum-bound SNRs equal 9.
EX1 = dict(P=(6.0, 4.0), P_r=4.0, N_r=1.0, N_d=2.0)


def test_numpy_path_frozen_optimum():
    snr, gamma = lattice_maxmin(EX1["P"], 4.0, 1.0, 2.0, 100)
    assert snr == 9.0
    assert np.array_equal(gamma, [0.0, 0.25])


@pytest.mark.parametrize("P, n, snr, gamma", [
    ((5.0,), 50, 3.931370849898476, [0.2]),
    ((5.0,), 100, 3.9499999999999997, [0.21]),
    ((3.0, 1.5, 0.7), 50, 4.078040361087918, [0.06, 0.06, 0.16]),
    ((3.0, 1.5, 0.7), 100, 4.078242344433781, [0.0, 0.34, 0.17]),
])
def test_lattice_optimum_bits_frozen(P, n, snr, gamma):
    # Frozen optima of a K=1 and a K=3 channel at two lattice densities.
    got_snr, got_gamma = lattice_maxmin(P, 2.0, 1.0, 2.5, n)
    assert got_snr == snr
    assert got_gamma.tolist() == gamma


def test_dense_search_rejects_large_ground_sets():
    with pytest.raises(ValueError, match="K <= 3"):
        lattice_maxmin((1.0, 1.0, 1.0, 1.0), 1.0, 1.0, 2.0, 10)


def test_min_snr_batch_matches_scalar_formula():
    rng = np.random.default_rng(21)
    P = np.array([6.0, 4.0])
    G = rng.dirichlet((1.0, 1.0, 1.0), size=50)[:, :2]
    batch = min_snr_batch(P, 4.0, 1.0, 2.0, G)
    for row, expect in zip(G, batch):
        s = np.sqrt(row * P).sum()
        snr_r = (10.0 - s * s) / 1.0
        snr_d = (10.0 + 4.0 + 2.0 * 2.0 * s) / 2.0
        assert expect == min(snr_r, snr_d)


def test_min_snr_batch_accepts_single_row():
    out = min_snr_batch(np.array([6.0, 4.0]), 4.0, 1.0, 2.0, np.array([0.0, 0.25]))
    assert out.shape == (1,)
    assert out[0] == 9.0
