"""Lattice kernels: frozen lattice optima, the sliced search against a
whole-lattice search and its memory, the min-SNR batch against its scalar
formula, and refusal of ground sets the dense search cannot handle."""

import math
import tracemalloc

import numpy as np
import pytest

from marc_cap._kernels import SLICE_ROWS, compositions, lattice_maxmin, min_snr_batch

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


def whole_lattice_maxmin(P, P_r, N_r, N_d, n):
    # The search over the whole lattice at once, as one batch.
    G = compositions(len(P) + 1, n)[:, :-1] / n
    snr = min_snr_batch(np.asarray(P, dtype=np.float64), P_r, N_r, N_d, G)
    pos = int(np.argmax(snr))
    return float(snr[pos]), G[pos]


@pytest.mark.parametrize("K", [1, 2, 3])
def test_sliced_search_keeps_the_whole_lattice_optimum(K):
    # Same bits as one whole-lattice batch, over wide decades and on ties.
    # K=3 at n=200 has more rows at one first index than a slice's budget;
    # K=1 at n=10^5 runs in several slices.
    assert math.comb(200 + 2, 2) > SLICE_ROWS
    rng = np.random.default_rng(11)
    ns = [1, 2, 7, 50, 100] + {1: [100_000], 2: [1000], 3: [200]}[K]
    cases = []
    for n in ns:
        for lo, hi in ((0.1, 10.0), (1e-6, 1e6), (1e-100, 1e100)):
            x = np.exp(rng.uniform(np.log(lo), np.log(hi), K + 3))
            cases.append((tuple(x[:K]), x[K], x[K + 1], x[K + 2], n))
        cases.append(((1.0,) * K, 1.0, 1.0, 1.0, n))
        cases.append(((2.0,) * K, 0.0, 1.0, 1.0, n))
        # User 1 holds nearly all the power and the destination cut binds:
        # for K >= 2 the optimum is the last row, gamma = (1, 0, ...).
        cases.append(((1.0,) + (1e-6,) * (K - 1), 1.0, 1.0, 1e7, n))
    for args in cases:
        snr, gamma = lattice_maxmin(*args)
        want_snr, want_gamma = whole_lattice_maxmin(*args)
        assert np.float64(snr).tobytes() == np.float64(want_snr).tobytes(), args
        assert gamma.tobytes() == want_gamma.tobytes(), args


def test_sliced_search_memory_is_one_slice():
    # The whole K=3 lattice at n=100 (176,851 rows) peaks at 13.5 MiB.
    lattice_maxmin((3.0, 1.5, 0.7), 2.0, 1.0, 2.5, 100)
    tracemalloc.start()
    try:
        lattice_maxmin((3.0, 1.5, 0.7), 2.0, 1.0, 2.5, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


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
